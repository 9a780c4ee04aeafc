"""CLI surface of the lifecycle: export --force, promote, rollback, serve."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lifecycle import list_epochs, read_pointer


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("lifecycle-cli") / "corpus.jsonl"
    assert (
        main(
            [
                "generate",
                "--preset", "utgeo2011",
                "--n-records", "600",
                "--seed", "21",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, tiny_actor):
    path = tmp_path_factory.mktemp("lifecycle-cli-model") / "actor.pkl"
    tiny_actor.save(path)
    return path


class TestExportForce:
    def test_reexport_onto_existing_bundle_refuses(
        self, tmp_path, model_path, capsys
    ):
        out = tmp_path / "bundle"
        assert main(["export", "--model", str(model_path), "--out", str(out)]) == 0
        capsys.readouterr()

        code = main(["export", "--model", str(model_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--force" in err
        assert "repro promote" in err

    def test_force_overwrites_in_place(self, tmp_path, model_path, capsys):
        out = tmp_path / "bundle"
        assert main(["export", "--model", str(model_path), "--out", str(out)]) == 0
        manifest_before = (out / "manifest.json").read_text()
        code = main(
            ["export", "--model", str(model_path), "--out", str(out), "--force"]
        )
        assert code == 0
        assert "exported portable bundle" in capsys.readouterr().out
        assert (out / "manifest.json").read_text() == manifest_before


class TestPromoteCli:
    def test_promote_publishes_sequential_epochs(
        self, tmp_path, model_path, capsys
    ):
        bundles = tmp_path / "bundles"
        for expected in ("000001", "000002"):
            code = main(
                [
                    "promote",
                    "--model", str(model_path),
                    "--bundles", str(bundles),
                ]
            )
            assert code == 0
            assert f"published epoch {expected}" in capsys.readouterr().out
        assert [e for e, _ in list_epochs(bundles)] == [1, 2]
        assert read_pointer(bundles, "LATEST") == 2

    def test_promote_force_lands_in_promote_json(
        self, tmp_path, model_path, capsys
    ):
        bundles = tmp_path / "bundles"
        code = main(
            [
                "promote",
                "--model", str(model_path),
                "--bundles", str(bundles),
                "--force",
            ]
        )
        assert code == 0
        assert "forced" in capsys.readouterr().out
        promote = json.loads((bundles / "000001" / "promote.json").read_text())
        assert promote == {"force": True}

    def test_promote_rejects_nonpositive_retain(
        self, tmp_path, model_path, capsys
    ):
        code = main(
            [
                "promote",
                "--model", str(model_path),
                "--bundles", str(tmp_path / "bundles"),
                "--retain", "0",
            ]
        )
        assert code == 2
        assert "retain" in capsys.readouterr().err


class TestRollbackCli:
    def test_rollback_writes_marker(self, tmp_path, capsys):
        bundles = tmp_path / "bundles"
        code = main(
            [
                "rollback",
                "--bundles", str(bundles),
                "--reason", "bad p99 after promote",
            ]
        )
        assert code == 0
        assert "rollback requested" in capsys.readouterr().out
        marker = bundles / "ROLLBACK"
        assert marker.read_text().strip() == "bad p99 after promote"


class TestServeLifecycle:
    def test_serve_requires_model_or_bundles(self, capsys):
        code = main(["serve", "--port", "0", "--max-seconds", "0.1"])
        assert code == 2
        assert "--watch-bundles" in capsys.readouterr().err

    def test_serve_empty_bundle_root_refuses(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--watch-bundles", str(tmp_path / "empty"),
                "--port", "0",
                "--max-seconds", "0.1",
            ]
        )
        assert code == 2
        assert "no" in capsys.readouterr().err

    def test_serve_watch_bundles_cold_start(
        self, tmp_path, model_path, capsys
    ):
        bundles = tmp_path / "bundles"
        assert (
            main(
                ["promote", "--model", str(model_path), "--bundles", str(bundles)]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--watch-bundles", str(bundles),
                "--port", "0",
                "--poll-interval", "0.2",
                "--max-seconds", "0.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lifecycle epoch 1 watching" in out
        assert "server drained and stopped" in out


class TestStreamPublish:
    def test_stream_publishes_bundles(
        self, tmp_path, model_path, corpus_path, capsys
    ):
        bundles = tmp_path / "bundles"
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(corpus_path),
                "--batch-size", "200",
                "--steps-per-batch", "5",
                "--publish-bundles", str(bundles),
                "--publish-every", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # 600 records / 200 per batch = 3 batches: one mid-stream publish
        # (batch 2) plus the unconditional end-of-stream publish.
        assert out.count("published bundle epoch") == 2
        assert [e for e, _ in list_epochs(bundles)] == [1, 2]
