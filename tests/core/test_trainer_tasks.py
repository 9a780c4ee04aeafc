"""Unit tests for the individual training tasks (plain / bag-of-words)."""

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core.trainer import BagToUnitTask, BagToWordTask, PlainEdgeTask
from repro.embedding import AliasTable, NoiseSampler, TypedEdgeSampler
from repro.graphs import EdgeSet, EdgeType
from repro.graphs.builder import RecordUnits


def units(record_id, time_node, location_node, word_nodes):
    return RecordUnits(
        record_id=record_id,
        time_node=time_node,
        location_node=location_node,
        word_nodes=word_nodes,
        user_nodes=(),
    )


@pytest.fixture
def matrices():
    rng = np.random.default_rng(0)
    return (
        rng.uniform(-0.1, 0.1, size=(20, 6)),
        rng.uniform(-0.1, 0.1, size=(20, 6)),
    )


@pytest.fixture
def location_noise():
    return NoiseSampler(np.asarray([0, 1]), np.asarray([3.0, 2.0]))


@pytest.fixture
def word_noise():
    return NoiseSampler(np.asarray([10, 11, 12]), np.asarray([1.0, 1.0, 1.0]))


class TestPlainEdgeTask:
    def test_name_includes_orientation(self):
        edge_set = EdgeSet(
            edge_type=EdgeType.LW,
            src=np.asarray([0]),
            dst=np.asarray([10]),
            weight=np.asarray([1.0]),
        )
        sampler = TypedEdgeSampler(edge_set)
        assert PlainEdgeTask(EdgeType.LW, sampler).name == "plain:LW"
        assert (
            PlainEdgeTask(EdgeType.LW, sampler, context_side="dst").name
            == "plain:LW->dst"
        )

    def test_step_updates_and_returns_loss(self, matrices):
        center, context = matrices
        edge_set = EdgeSet(
            edge_type=EdgeType.LW,
            src=np.asarray([0, 1]),
            dst=np.asarray([10, 11]),
            weight=np.asarray([1.0, 1.0]),
        )
        task = PlainEdgeTask(EdgeType.LW, TypedEdgeSampler(edge_set))
        before = center.copy()
        loss = task.step(center, context, 8, 0.1, np.random.default_rng(1))
        assert loss > 0
        assert not np.array_equal(center, before)


class TestBagToUnitTask:
    def test_requires_records_with_words(self, location_noise):
        with pytest.raises(ValueError, match="no records with words"):
            BagToUnitTask(
                EdgeType.LW,
                [units(0, 5, 0, ())],
                "location",
                location_noise,
                1,
            )

    def test_rejects_bad_unit_kind(self, location_noise):
        with pytest.raises(ValueError, match="unit_of"):
            BagToUnitTask(
                EdgeType.LW,
                [units(0, 5, 0, (10,))],
                "velocity",
                location_noise,
                1,
            )

    def test_wordless_records_excluded(self, location_noise, matrices):
        center, context = matrices
        task = BagToUnitTask(
            EdgeType.LW,
            [units(0, 5, 0, (10, 11)), units(1, 6, 1, ())],
            "location",
            location_noise,
            1,
        )
        # only record 0 is eligible: location context must always be node 0
        rng = np.random.default_rng(2)
        idx = task._record_table.sample(50, seed=rng)
        assert (task._units[idx] == 0).all()

    def test_record_weights_proportional_to_word_count(self, location_noise):
        task = BagToUnitTask(
            EdgeType.LW,
            [units(0, 5, 0, (10,)), units(1, 6, 1, (10, 11, 12))],
            "location",
            location_noise,
            1,
        )
        idx = task._record_table.sample(40_000, seed=np.random.default_rng(3))
        frac_record1 = (idx == 1).mean()
        assert frac_record1 == pytest.approx(0.75, abs=0.02)

    def test_time_unit_variant(self, location_noise, matrices):
        center, context = matrices
        task = BagToUnitTask(
            EdgeType.WT,
            [units(0, 5, 0, (10, 11))],
            "time",
            location_noise,
            1,
        )
        loss = task.step(center, context, 4, 0.05, np.random.default_rng(4))
        assert np.isfinite(loss)


class TestBagToWordTask:
    def test_requires_two_words(self, word_noise):
        with pytest.raises(ValueError, match=">= 2 words"):
            BagToWordTask([units(0, 5, 0, (10,))], word_noise, 1)

    def test_target_excluded_from_bag(self, word_noise, matrices):
        center, context = matrices
        task = BagToWordTask(
            [units(0, 5, 0, (10, 11, 12))], word_noise, 1
        )
        rng = np.random.default_rng(5)
        # Run several steps; the objective must stay finite and the task
        # must only involve word nodes.
        before_t = center[5].copy()
        for _ in range(10):
            loss = task.step(center, context, 4, 0.05, rng)
            assert np.isfinite(loss)
        np.testing.assert_array_equal(center[5], before_t)  # T node untouched

    def test_duplicate_words_allowed(self, word_noise, matrices):
        center, context = matrices
        task = BagToWordTask(
            [units(0, 5, 0, (10, 10))], word_noise, 1
        )
        loss = task.step(center, context, 4, 0.05, np.random.default_rng(6))
        assert np.isfinite(loss)


# --------------------------------------------------------------------------
# Batch parity: the CSR batch builders hand the kernel exactly the arrays the
# per-record reference loop below builds from the same generator state.

PARITY_RECORDS = [
    units(0, 5, 0, ()),
    units(1, 6, 1, (10,)),
    units(2, 5, 1, (11, 12)),
    units(3, 6, 0, (10, 10, 12)),
    units(4, 5, 0, (12, 11, 10, 10, 11, 12, 10, 11, 12)),
    units(5, 6, 1, (11, 11)),
]


def reference_bag_to_unit_batch(records, unit_of, noise, negatives, size, rng):
    """Per-record list-of-arrays batch, as the bag->unit task once built it."""
    eligible = [r for r in records if len(r.word_nodes) >= 1]
    words = [np.asarray(r.word_nodes, dtype=np.int64) for r in eligible]
    units_ = np.asarray(
        [r.location_node if unit_of == "location" else r.time_node
         for r in eligible],
        dtype=np.int64,
    )
    table = AliasTable(np.asarray([len(w) for w in words], dtype=np.float64))
    idx = table.sample(size, seed=rng)
    bags = [words[i] for i in idx]
    flat = np.concatenate(bags)
    lengths = np.asarray([b.size for b in bags])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    dst = units_[idx]
    neg = noise.sample((size, negatives), rng)
    return flat, offsets, dst, neg


def reference_bag_to_word_batch(records, noise, negatives, size, rng):
    """Per-record ``np.delete`` batch, as the WW bag task once built it."""
    eligible = [r for r in records if len(r.word_nodes) >= 2]
    words_of = [np.asarray(r.word_nodes, dtype=np.int64) for r in eligible]
    table = AliasTable(
        np.asarray([w.size for w in words_of], dtype=np.float64)
    )
    idx = table.sample(size, seed=rng)
    bags = []
    targets = np.empty(size, dtype=np.int64)
    for b, i in enumerate(idx):
        words = words_of[i]
        t = int(rng.integers(words.size))
        targets[b] = words[t]
        bags.append(np.delete(words, t))
    flat = np.concatenate(bags)
    lengths = np.asarray([b.size for b in bags])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    neg = noise.sample((size, negatives), rng)
    return flat, offsets, targets, neg


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the ``(flat, offsets, dst, neg)`` each BOW step hands the kernel."""
    calls = []
    real = trainer_module.sgns_step_bow

    def spy(center, context, flat, offsets, dst, neg, lr):
        calls.append((flat.copy(), offsets.copy(), dst.copy(), neg.copy()))
        return real(center, context, flat, offsets, dst, neg, lr)

    monkeypatch.setattr(trainer_module, "sgns_step_bow", spy)
    return calls


def assert_same_batch(got, want):
    for name, g, w in zip(("flat", "offsets", "dst", "neg"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)
        assert g.dtype == w.dtype, name


class TestBatchParity:
    SEEDS = range(12)
    STEPS = 3

    @pytest.mark.parametrize("unit_of", ["location", "time"])
    def test_bag_to_unit_matches_reference(
        self, unit_of, location_noise, matrices, kernel_calls
    ):
        center, context = matrices
        task = BagToUnitTask(
            EdgeType.LW, PARITY_RECORDS, unit_of, location_noise, 2
        )
        for seed in self.SEEDS:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(self.STEPS):
                kernel_calls.clear()
                task.step(center, context, 16, 0.01, rng)
                assert_same_batch(
                    kernel_calls[0],
                    reference_bag_to_unit_batch(
                        PARITY_RECORDS, unit_of, location_noise, 2, 16, ref_rng
                    ),
                )
            assert rng.random() == ref_rng.random()  # same draws consumed

    def test_bag_to_word_matches_reference(
        self, word_noise, matrices, kernel_calls
    ):
        center, context = matrices
        task = BagToWordTask(PARITY_RECORDS, word_noise, 2)
        for seed in self.SEEDS:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(self.STEPS):
                kernel_calls.clear()
                task.step(center, context, 16, 0.01, rng)
                assert_same_batch(
                    kernel_calls[0],
                    reference_bag_to_word_batch(
                        PARITY_RECORDS, word_noise, 2, 16, ref_rng
                    ),
                )
            assert rng.random() == ref_rng.random()

    def test_single_record_task(self, word_noise, matrices, kernel_calls):
        center, context = matrices
        records = [units(0, 5, 0, (12, 10, 12))]
        task = BagToWordTask(records, word_noise, 1)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        task.step(center, context, 5, 0.01, rng)
        assert_same_batch(
            kernel_calls[0],
            reference_bag_to_word_batch(records, word_noise, 1, 5, ref_rng),
        )
