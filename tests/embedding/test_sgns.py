"""Tests for the SGNS update kernels (Eqs. 7-14 of the paper)."""

import numpy as np
import pytest

from repro.embedding import sgns_batch_loss, sgns_step, sgns_step_bow, sigmoid
from repro.embedding.sgns import _scatter_add


def init(n=10, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(-0.1, 0.1, size=(n, d)),
        rng.uniform(-0.1, 0.1, size=(n, d)),
    )


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.asarray([0.0]))[0] == pytest.approx(0.5)

    def test_monotone(self):
        values = sigmoid(np.asarray([-2.0, 0.0, 2.0]))
        assert values[0] < values[1] < values[2]

    def test_extreme_inputs_stay_finite(self):
        values = sigmoid(np.asarray([-1e9, 1e9]))
        assert np.isfinite(values).all()
        assert 0.0 < values[0] < values[1] < 1.0


class TestSgnsStep:
    def test_loss_decreases_on_repeated_updates(self):
        center, context = init()
        src = np.asarray([0, 1, 2])
        dst = np.asarray([3, 4, 5])
        neg = np.asarray([[6], [7], [8]])
        before = sgns_batch_loss(center, context, src, dst, neg)
        for _ in range(200):
            sgns_step(center, context, src, dst, neg, lr=0.1)
        after = sgns_batch_loss(center, context, src, dst, neg)
        assert after < before

    def test_positive_pair_similarity_grows(self):
        center, context = init()
        src, dst, neg = np.asarray([0]), np.asarray([1]), np.asarray([[2]])
        before = float(center[0] @ context[1])
        for _ in range(100):
            sgns_step(center, context, src, dst, neg, lr=0.1)
        assert float(center[0] @ context[1]) > before

    def test_negative_similarity_shrinks(self):
        center, context = init()
        src, dst, neg = np.asarray([0]), np.asarray([1]), np.asarray([[2]])
        for _ in range(100):
            sgns_step(center, context, src, dst, neg, lr=0.1)
        assert float(center[0] @ context[2]) < float(center[0] @ context[1])

    def test_untouched_rows_unchanged(self):
        center, context = init()
        center_copy, context_copy = center.copy(), context.copy()
        sgns_step(
            center, context,
            np.asarray([0]), np.asarray([1]), np.asarray([[2]]), lr=0.1,
        )
        np.testing.assert_array_equal(center[3:], center_copy[3:])
        np.testing.assert_array_equal(context[0], context_copy[0])
        np.testing.assert_array_equal(context[3:], context_copy[3:])

    def test_duplicate_indices_accumulate(self):
        """np.add.at semantics: two identical edges apply two gradients."""
        center_a, context_a = init(seed=1)
        center_b, context_b = init(seed=1)
        # one batch with the edge twice
        sgns_step(
            center_a, context_a,
            np.asarray([0, 0]), np.asarray([1, 1]), np.asarray([[2], [2]]),
            lr=0.05,
        )
        # two sequential single-edge batches (not identical math — gradients
        # recomputed — but the single-batch duplicate must move farther than
        # one single-edge update)
        sgns_step(
            center_b, context_b,
            np.asarray([0]), np.asarray([1]), np.asarray([[2]]), lr=0.05,
        )
        moved_a = np.linalg.norm(center_a[0])
        moved_b = np.linalg.norm(center_b[0])
        assert moved_a != pytest.approx(moved_b)

    def test_multiple_negatives_shape(self):
        center, context = init()
        loss = sgns_step(
            center, context,
            np.asarray([0, 1]), np.asarray([2, 3]),
            np.asarray([[4, 5, 6], [7, 8, 9]]), lr=0.01,
        )
        assert np.isfinite(loss)

    def test_returns_finite_loss(self):
        center, context = init()
        loss = sgns_step(
            center, context,
            np.asarray([0]), np.asarray([1]), np.asarray([[2]]), lr=0.01,
        )
        assert loss > 0


class TestSgnsStepBow:
    def test_bag_predicts_unit(self):
        center, context = init(n=12)
        flat = np.asarray([0, 1, 2, 3, 4])
        offsets = np.asarray([0, 3, 5])  # bags {0,1,2} and {3,4}
        dst = np.asarray([10, 11])
        neg = np.asarray([[9], [8]])
        before = float((center[0] + center[1] + center[2]) @ context[10])
        for _ in range(100):
            sgns_step_bow(center, context, flat, offsets, dst, neg, lr=0.05)
        after = float((center[0] + center[1] + center[2]) @ context[10])
        assert after > before

    def test_every_bag_word_receives_gradient(self):
        center, context = init(n=12)
        original = center.copy()
        flat = np.asarray([0, 1, 2])
        offsets = np.asarray([0, 3])
        sgns_step_bow(
            center, context, flat, offsets,
            np.asarray([10]), np.asarray([[9]]), lr=0.1,
        )
        for w in (0, 1, 2):
            assert not np.array_equal(center[w], original[w])
        np.testing.assert_array_equal(center[3], original[3])

    def test_rejects_empty_bag(self):
        center, context = init()
        with pytest.raises(ValueError, match="non-empty"):
            sgns_step_bow(
                center, context,
                np.asarray([0]), np.asarray([0, 0, 1]),
                np.asarray([2, 3]), np.asarray([[4], [5]]), lr=0.1,
            )

    def test_rejects_offset_length_mismatch(self):
        center, context = init()
        with pytest.raises(ValueError, match="offsets"):
            sgns_step_bow(
                center, context,
                np.asarray([0]), np.asarray([0, 1]),
                np.asarray([2, 3]), np.asarray([[4], [5]]), lr=0.1,
            )

    def test_loss_finite(self):
        center, context = init()
        loss = sgns_step_bow(
            center, context,
            np.asarray([0, 1]), np.asarray([0, 2]),
            np.asarray([5]), np.asarray([[6]]), lr=0.01,
        )
        assert np.isfinite(loss)
        assert loss > 0


def reference_sgns_step_bow(center, context, flat_words, offsets, dst, neg, lr):
    """The segment formulation of the BOW step: ``reduceat`` bag sums, the
    bag gradient repeated per word, sort+``reduceat`` scatter-adds."""
    d = center.shape[1]
    bag = np.add.reduceat(center[flat_words], offsets[:-1], axis=0)
    x_j = context[dst]
    x_k = context[neg]
    pos_score = sigmoid(np.einsum("bd,bd->b", bag, x_j))
    neg_score = sigmoid(np.einsum("bkd,bd->bk", x_k, bag))
    g_pos = (1.0 - pos_score)[:, None]
    g_neg = neg_score[:, :, None]
    grad_bag = -g_pos * x_j + np.einsum("bkd->bd", g_neg * x_k)
    loss = float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )
    grad_per_word = np.repeat(grad_bag, np.diff(offsets), axis=0)
    _scatter_add(center, flat_words, -lr * grad_per_word)
    _scatter_add(context, dst, -lr * (-g_pos * bag))
    _scatter_add(
        context, neg.reshape(-1), -lr * (g_neg * bag[:, None, :]).reshape(-1, d)
    )
    return loss


class TestBowMatchesSegmentReference:
    """The sparse bag-matrix kernel against the segment formulation."""

    @staticmethod
    def both(flat, offsets, dst, neg, seed, n=12, lr=0.3):
        rng = np.random.default_rng(seed)
        center = rng.normal(0, 0.5, size=(n, 5))
        context = rng.normal(0, 0.5, size=(n, 5))
        ref_c, ref_x = center.copy(), context.copy()
        loss = sgns_step_bow(center, context, flat, offsets, dst, neg, lr=lr)
        ref_loss = reference_sgns_step_bow(
            ref_c, ref_x, flat, offsets, dst, neg, lr=lr
        )
        np.testing.assert_allclose(center, ref_c, rtol=0, atol=1e-12)
        np.testing.assert_allclose(context, ref_x, rtol=0, atol=1e-12)
        return loss, ref_loss

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_and_shared_words(self, seed):
        # Word 3 twice in bag 0, word 5 in bags 0, 1 and 3, word 1 twice in
        # bag 2; dst and negatives repeat across the batch too.
        flat = np.asarray([3, 5, 3, 5, 0, 1, 1, 7, 5, 2])
        offsets = np.asarray([0, 3, 5, 7, 9, 10])
        dst = np.asarray([9, 10, 9, 11, 10])
        neg = np.asarray([[8, 10], [11, 8], [8, 8], [10, 9], [11, 11]])
        loss, ref_loss = self.both(flat, offsets, dst, neg, seed)
        assert loss == ref_loss

    @pytest.mark.parametrize("seed", range(5))
    def test_random_long_bags(self, seed):
        rng = np.random.default_rng(100 + seed)
        lengths = rng.integers(1, 15, size=40)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = rng.integers(0, 30, size=offsets[-1])
        dst = rng.integers(30, 40, size=40)
        neg = rng.integers(30, 40, size=(40, 3))
        loss, ref_loss = self.both(flat, offsets, dst, neg, seed, n=40, lr=0.05)
        # From four rows on, reduceat groups its additions differently from
        # the left-to-right bag-matrix product, so the bag sums (and hence
        # the loss) may differ in the last bit.
        assert loss == pytest.approx(ref_loss, rel=1e-14)


class TestGradientCheck:
    """Numerical gradient check of the J_NEG objective (Eqs. 8-10)."""

    @staticmethod
    def loss_fn(center, context, src, dst, neg):
        x_i, x_j, x_k = center[src], context[dst], context[neg]
        pos = sigmoid(np.einsum("bd,bd->b", x_i, x_j))
        negs = sigmoid(-np.einsum("bkd,bd->bk", x_k, x_i))
        return float(-np.log(pos).sum() - np.log(negs).sum())

    def test_center_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        center = rng.normal(0, 0.5, size=(4, 3))
        context = rng.normal(0, 0.5, size=(4, 3))
        src, dst, neg = np.asarray([0]), np.asarray([1]), np.asarray([[2]])

        updated = center.copy()
        lr = 1e-6
        sgns_step(updated, context.copy(), src, dst, neg, lr=lr)
        analytic = (center - updated)[0] / lr  # = +grad

        numeric = np.zeros(3)
        eps = 1e-6
        for d in range(3):
            plus, minus = center.copy(), center.copy()
            plus[0, d] += eps
            minus[0, d] -= eps
            numeric[d] = (
                self.loss_fn(plus, context, src, dst, neg)
                - self.loss_fn(minus, context, src, dst, neg)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-6)

    def test_context_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        center = rng.normal(0, 0.5, size=(4, 3))
        context = rng.normal(0, 0.5, size=(4, 3))
        src, dst, neg = np.asarray([0]), np.asarray([1]), np.asarray([[2]])

        updated = context.copy()
        lr = 1e-6
        sgns_step(center.copy(), updated, src, dst, neg, lr=lr)
        analytic_pos = (context - updated)[1] / lr
        analytic_neg = (context - updated)[2] / lr

        eps = 1e-6
        for row, analytic in ((1, analytic_pos), (2, analytic_neg)):
            numeric = np.zeros(3)
            for d in range(3):
                plus, minus = context.copy(), context.copy()
                plus[row, d] += eps
                minus[row, d] -= eps
                numeric[d] = (
                    self.loss_fn(center, plus, src, dst, neg)
                    - self.loss_fn(center, minus, src, dst, neg)
                ) / (2 * eps)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-6)
