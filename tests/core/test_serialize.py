"""Tests for the portable (pickle-free) model bundle."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.serialize import (
    FORMAT_VERSION,
    BundleFormatError,
    QueryModel,
    load_bundle,
    save_bundle,
)
from repro.serving.service import QueryService
from repro.utils.metrics import MetricsRegistry

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
# A legacy sharded (format v3, K=3) bundle and the v2 bundle of the same
# model, both written by the v3-era writer; see tests/fixtures/README.md.
V3_FIXTURE = FIXTURES / "bundle_v3_k3"
V2_TWIN = FIXTURES / "bundle_v2_twin"


@pytest.fixture(scope="module")
def bundle_dir(tiny_actor, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bundle") / "model"
    save_bundle(tiny_actor, directory)
    return directory


@pytest.fixture()
def v1_bundle(bundle_dir, tmp_path):
    """A format-v1 bundle (compressed embeddings.npz) built from the v2 one."""
    old = tmp_path / "v1"
    shutil.copytree(bundle_dir, old)
    center = np.load(old / "center.npy")
    context = np.load(old / "context.npy")
    np.savez_compressed(
        old / "embeddings.npz", center=center, context=context
    )
    (old / "center.npy").unlink()
    (old / "context.npy").unlink()
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["format_version"] = 1
    (old / "manifest.json").write_text(json.dumps(manifest))
    return old


class TestSaveBundle:
    def test_writes_expected_files(self, bundle_dir):
        names = {p.name for p in bundle_dir.iterdir()}
        assert names == {
            "manifest.json", "center.npy", "context.npy", "hotspots.npz",
            "nodes.json", "vocab.json",
        }

    def test_manifest_contents(self, bundle_dir, tiny_actor):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["dim"] == tiny_actor.dim
        assert manifest["n_nodes"] == tiny_actor.center.shape[0]
        assert manifest["config"]["dim"] == tiny_actor.config.dim

    def test_unfitted_model_rejected(self, tmp_path):
        from repro.core import Actor

        with pytest.raises(ValueError, match="unfitted"):
            save_bundle(Actor(), tmp_path / "x")

    def test_no_pickle_files(self, bundle_dir):
        for path in bundle_dir.iterdir():
            assert path.suffix in (".json", ".npz", ".npy")


class TestLoadBundle:
    def test_roundtrip_embeddings(self, bundle_dir, tiny_actor):
        model = load_bundle(bundle_dir)
        np.testing.assert_array_equal(model.center, tiny_actor.center)
        np.testing.assert_array_equal(model.context, tiny_actor.context)

    def test_query_surface_identical(self, bundle_dir, tiny_actor, dataset):
        model = load_bundle(bundle_dir)
        record = dataset.test[0]
        candidates = [r.location for r in dataset.test.records[:6]]
        original = tiny_actor.score_candidates(
            target="location",
            candidates=candidates,
            time=record.timestamp,
            words=record.words,
        )
        restored = model.score_candidates(
            target="location",
            candidates=candidates,
            time=record.timestamp,
            words=record.words,
        )
        np.testing.assert_allclose(original, restored)

    def test_neighbor_search_identical(self, bundle_dir, tiny_actor):
        model = load_bundle(bundle_dir)
        word = tiny_actor.built.vocab.words[0]
        original = tiny_actor.neighbors(
            tiny_actor.unit_vector("word", word), "word", k=5
        )
        restored = model.neighbors(
            model.unit_vector("word", word), "word", k=5
        )
        assert [w for w, _s in original] == [w for w, _s in restored]

    def test_vocab_order_preserved(self, bundle_dir, tiny_actor):
        model = load_bundle(bundle_dir)
        assert model.built.vocab.words == tiny_actor.built.vocab.words

    def test_unknown_format_version_rejected(self, bundle_dir, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(bundle_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["format_version"] = 999
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="unsupported bundle format"):
            load_bundle(bad)

    def test_inconsistent_bundle_rejected(self, bundle_dir, tmp_path):
        bad = tmp_path / "inconsistent"
        shutil.copytree(bundle_dir, bad)
        nodes = json.loads((bad / "nodes.json").read_text())
        (bad / "nodes.json").write_text(json.dumps(nodes[:-1]))
        with pytest.raises(BundleFormatError, match="inconsistent"):
            load_bundle(bad)

    def test_loaded_model_is_query_model(self, bundle_dir):
        model = load_bundle(bundle_dir)
        assert isinstance(model, QueryModel)
        assert model.supports_time
        assert model.name == "ACTOR(bundle)"

    def test_bundle_roundtrips_itself(self, bundle_dir, tmp_path):
        """A loaded QueryModel can be re-serialized identically."""
        model = load_bundle(bundle_dir)
        second = tmp_path / "second"
        save_bundle(model, second)
        again = load_bundle(second)
        np.testing.assert_array_equal(model.center, again.center)


class TestBundleFormatErrors:
    """Malformed bundles fail with errors naming field and version."""

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleFormatError, match="manifest.json"):
            load_bundle(tmp_path)

    def test_truncated_manifest(self, bundle_dir, tmp_path):
        bad = tmp_path / "truncated"
        shutil.copytree(bundle_dir, bad)
        text = (bad / "manifest.json").read_text()
        (bad / "manifest.json").write_text(text[: len(text) // 2])
        with pytest.raises(BundleFormatError, match="corrupt or truncated"):
            load_bundle(bad)

    def test_missing_manifest_field_named(self, bundle_dir, tmp_path):
        bad = tmp_path / "nofield"
        shutil.copytree(bundle_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        del manifest["period"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="'period'") as excinfo:
            load_bundle(bad)
        assert f"format v{FORMAT_VERSION}" in str(excinfo.value)

    def test_truncated_embeddings_file(self, bundle_dir, tmp_path):
        bad = tmp_path / "tructrunc"
        shutil.copytree(bundle_dir, bad)
        raw = (bad / "center.npy").read_bytes()
        (bad / "center.npy").write_bytes(raw[: len(raw) // 3])
        with pytest.raises(BundleFormatError, match="center.npy"):
            load_bundle(bad)

    def test_missing_embeddings_file(self, bundle_dir, tmp_path):
        bad = tmp_path / "noembed"
        shutil.copytree(bundle_dir, bad)
        (bad / "context.npy").unlink()
        with pytest.raises(BundleFormatError, match="context.npy"):
            load_bundle(bad)

    def test_error_is_a_value_error(self):
        """Callers catching the historical ValueError keep working."""
        assert issubclass(BundleFormatError, ValueError)


class TestV1Compatibility:
    def test_v1_bundle_still_loads(self, v1_bundle, tiny_actor):
        model = load_bundle(v1_bundle)
        np.testing.assert_array_equal(model.center, tiny_actor.center)
        np.testing.assert_array_equal(model.context, tiny_actor.context)

    def test_v1_mmap_rejected_with_migration_hint(self, v1_bundle):
        with pytest.raises(BundleFormatError, match="re-export"):
            load_bundle(v1_bundle, mmap=True)

    def test_v1_missing_npz_named(self, v1_bundle):
        (v1_bundle / "embeddings.npz").unlink()
        with pytest.raises(BundleFormatError, match="embeddings.npz"):
            load_bundle(v1_bundle)


class TestMmapLoad:
    def test_mmap_serves_identical_ranks(self, bundle_dir, tiny_actor, dataset):
        eager = load_bundle(bundle_dir)
        mapped = load_bundle(bundle_dir, mmap=True)
        assert mapped.store.backend == "mmap"
        record = dataset.test[0]
        candidates = [r.location for r in dataset.test.records[:6]]
        kwargs = dict(
            target="location",
            candidates=candidates,
            time=record.timestamp,
            words=record.words,
        )
        np.testing.assert_array_equal(
            eager.score_candidates(**kwargs), mapped.score_candidates(**kwargs)
        )

    def test_mmap_matrices_are_readonly_maps(self, bundle_dir):
        mapped = load_bundle(bundle_dir, mmap=True)
        assert isinstance(mapped.center, np.memmap)
        with pytest.raises((ValueError, OSError)):
            mapped.center[0, 0] = 1.0

    def test_mmap_neighbors_match(self, bundle_dir, tiny_actor):
        mapped = load_bundle(bundle_dir, mmap=True)
        word = tiny_actor.built.vocab.words[0]
        original = tiny_actor.neighbors(
            tiny_actor.unit_vector("word", word), "word", k=5
        )
        served = mapped.neighbors(
            mapped.unit_vector("word", word), "word", k=5
        )
        assert [w for w, _s in original] == [w for w, _s in served]


def _served_answers(model) -> str:
    """Byte-exact JSON of predict + neighbors answers served by ``model``."""
    service = QueryService(model, metrics=MetricsRegistry())
    requests = [
        service.validate_predict(
            {
                "target": "time",
                "candidates": [2.0, 9.5, 13.0, 21.5],
                "words": ["beach_00"],
                "location": [1.0, 2.0],
            }
        )
    ] + [
        service.validate_neighbors(
            {"modality": modality, "time": 21.5, "words": ["park_00"], "k": 8}
        )
        for modality in ("word", "time", "location")
    ]
    return json.dumps(service.dispatch(requests))


@pytest.fixture()
def v3_copy(tmp_path):
    """A writable copy of the committed legacy v3 fixture."""
    return Path(shutil.copytree(V3_FIXTURE, tmp_path / "v3"))


def _edit_sharding(bundle: Path, **fields) -> None:
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["sharding"].update(fields)
    (bundle / "manifest.json").write_text(json.dumps(manifest))


class TestV3Compatibility:
    """Legacy sharded bundles load as one dense matrix pair."""

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loads_bit_equal_to_v2_twin(self, mmap):
        legacy = load_bundle(V3_FIXTURE, mmap=mmap)
        twin = load_bundle(V2_TWIN)
        for name in ("center", "context"):
            got = np.asarray(getattr(legacy, name))
            want = np.asarray(getattr(twin, name))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert legacy.built.vocab.words == twin.built.vocab.words

    @pytest.mark.parametrize("mmap", [False, True])
    def test_served_answers_identical_to_v2_twin(self, mmap):
        assert _served_answers(
            load_bundle(V3_FIXTURE, mmap=mmap)
        ) == _served_answers(load_bundle(V2_TWIN, mmap=mmap))

    def test_neighbors_parity_with_v2(self):
        legacy = load_bundle(V3_FIXTURE, mmap=True)
        twin = load_bundle(V2_TWIN, mmap=True)
        rng = np.random.default_rng(21)
        for modality in ("word", "time", "location", "user"):
            query = rng.standard_normal(twin.dim)
            assert legacy.neighbors(query, modality, 10) == twin.neighbors(
                query, modality, 10
            )

    def test_export_migrates_to_v2(self, tmp_path, capsys):
        out = tmp_path / "migrated"
        assert main(["export", "--model", str(V3_FIXTURE), "--out", str(out)]) == 0
        assert "exported portable bundle" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert "sharding" not in manifest
        assert not (out / "shards").exists()
        migrated = load_bundle(out, mmap=True)
        assert migrated.store.backend == "mmap"
        twin = load_bundle(V2_TWIN)
        assert np.asarray(migrated.center).tobytes() == twin.center.tobytes()

    def test_missing_shard_sidecar_fails_loudly(self, v3_copy):
        (v3_copy / "shards" / "02" / "center.npy").unlink()
        for mmap in (False, True):
            with pytest.raises(
                BundleFormatError, match="shard sidecar shards/02/center.npy"
            ):
                load_bundle(v3_copy, mmap=mmap)

    @pytest.mark.parametrize("n_shards", [0, "3"])
    def test_invalid_shard_count_rejected(self, v3_copy, n_shards):
        _edit_sharding(v3_copy, n_shards=n_shards)
        with pytest.raises(BundleFormatError, match="sharding.n_shards"):
            load_bundle(v3_copy)

    def test_unknown_partitioner_rejected(self, v3_copy):
        _edit_sharding(v3_copy, partitioner="crc32")
        with pytest.raises(BundleFormatError, match="partitioner"):
            load_bundle(v3_copy)

    def test_wrong_shard_count_is_mis_sharded(self, v3_copy):
        _edit_sharding(v3_copy, n_shards=2)
        with pytest.raises(BundleFormatError, match="mis-sharded"):
            load_bundle(v3_copy, mmap=True)

    def test_rows_not_summing_to_n_nodes_are_mis_sharded(self, v3_copy):
        shard = v3_copy / "shards" / "01"
        for name in ("center", "context"):
            rows = np.load(shard / f"{name}.npy")
            np.save(shard / f"{name}.npy", rows[:-1])
        with pytest.raises(BundleFormatError, match="mis-sharded") as excinfo:
            load_bundle(v3_copy)
        assert "n_nodes=667" in str(excinfo.value)

    def test_missing_sharding_block_named(self, v3_copy):
        manifest = json.loads((v3_copy / "manifest.json").read_text())
        del manifest["sharding"]
        (v3_copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="'sharding'"):
            load_bundle(v3_copy)
