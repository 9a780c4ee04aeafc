"""Vectorized skip-gram-with-negative-sampling (SGNS) update kernels.

These implement the paper's optimization core: the per-edge objective of
Eq. (7)

    J_NEG = -log sigma(x'_j . x_i) - sum_k E[ log sigma(-x'_k . x_i) ]

and its gradients (Eqs. 8-10), applied as mini-batch SGD (Eqs. 12-14).
The paper's C++ implementation updates one edge at a time; here each call
processes a whole mini-batch, so repeated indices inside a batch must
accumulate correctly.

Two kernels are provided:

* :func:`sgns_step` — plain center/context pairs (all inter-record edge
  types, and intra-record edges when the bag-of-words structure is off).
  Its updates are scatter-adds (sort + ``reduceat``, see
  :func:`_scatter_add`).
* :func:`sgns_step_bow` — the intra-record bag-of-words variant (footnote 4):
  the textual side of a record is the *sum of its word embeddings*.  A
  sparse bags × words matrix both sums the bags and spreads the center
  gradient back to every constituent word; the context updates are
  scatter-adds as in :func:`sgns_step`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

__all__ = ["sigmoid", "sgns_step", "sgns_step_bow", "sgns_batch_loss"]

_CLIP = 30.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_CLIP, _CLIP)))


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``matrix[rows] += values`` with duplicate rows accumulated.

    Semantically identical to ``np.add.at(matrix, rows, values)`` but far
    faster for mini-batch-sized inputs: duplicates are merged by sorting
    the row indices and summing each run with ``np.add.reduceat``, then a
    single fancy-index add applies the per-row totals.
    """
    if rows.size == 0:
        return
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    sums = np.add.reduceat(values[order], starts, axis=0)
    matrix[sorted_rows[starts]] += sums


def sgns_step(
    center: np.ndarray,
    context: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
    lr: float,
) -> float:
    """One mini-batch SGD step on shared embedding matrices.

    Parameters
    ----------
    center, context:
        ``(n, d)`` embedding matrices, updated in place (the ``x`` and
        ``x'`` of the paper).
    src:
        ``(B,)`` center vertex indices.
    dst:
        ``(B,)`` observed context vertex indices (positive examples).
    neg:
        ``(B, K)`` negative context vertex indices drawn from
        ``P(v) ∝ d_v^{3/4}``.
    lr:
        Learning rate ``eta``.

    Returns
    -------
    Mean ``J_NEG`` over the batch (before the update), for monitoring.
    """
    x_i = center[src]                      # (B, d)
    x_j = context[dst]                     # (B, d)
    x_k = context[neg]                     # (B, K, d)

    pos_score = sigmoid(np.einsum("bd,bd->b", x_i, x_j))        # sigma(x'_j.x_i)
    neg_score = sigmoid(np.einsum("bkd,bd->bk", x_k, x_i))      # sigma(x'_k.x_i)

    # Gradients (Eqs. 8-10); note d/dx of -log sigma(z) = -(1 - sigma(z)).
    g_pos = (1.0 - pos_score)[:, None]                          # (B, 1)
    g_neg = neg_score[:, :, None]                               # (B, K, 1)

    grad_center = -g_pos * x_j + np.einsum("bkd->bd", g_neg * x_k)
    grad_context_pos = -g_pos * x_i                              # (B, d)
    grad_context_neg = g_neg * x_i[:, None, :]                   # (B, K, d)

    loss = float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )

    _scatter_add(center, src, -lr * grad_center)
    _scatter_add(context, dst, -lr * grad_context_pos)
    _scatter_add(
        context,
        neg.reshape(-1),
        -lr * grad_context_neg.reshape(-1, center.shape[1]),
    )
    return loss


def sgns_step_bow(
    center: np.ndarray,
    context: np.ndarray,
    flat_words: np.ndarray,
    offsets: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
    lr: float,
) -> float:
    """Bag-of-words SGNS step: the center is a *sum of word embeddings*.

    Parameters
    ----------
    center, context:
        ``(n, d)`` embedding matrices, updated in place.
    flat_words:
        Concatenated word vertex indices of all records in the batch.
    offsets:
        ``(B + 1,)`` prefix offsets into ``flat_words``; record ``b`` owns
        ``flat_words[offsets[b]:offsets[b+1]]`` and must be non-empty;
        ``offsets[0]`` is 0 and ``offsets[-1]`` is ``len(flat_words)``.
    dst:
        ``(B,)`` observed context vertices (the record's L or T unit).
    neg:
        ``(B, K)`` negative context vertices.
    lr:
        Learning rate.

    Returns
    -------
    Mean batch loss before the update.
    """
    if offsets.shape[0] != dst.shape[0] + 1:
        raise ValueError("offsets must have length len(dst) + 1")
    lengths = np.diff(offsets)
    if (lengths <= 0).any():
        raise ValueError("every bag in the batch must be non-empty")

    d = center.shape[1]
    # M[b, j] counts word ``words[j]`` in bag ``b``, so the bag sums are
    # ``M @ center[words]`` and each word's gradient is ``M.T @ grad_bag``.
    words, column = np.unique(flat_words, return_inverse=True)
    bag_matrix = csr_array(
        (np.ones(flat_words.size), column, offsets),
        shape=(dst.shape[0], words.size),
    )
    bag = bag_matrix @ center[words]                             # (B, d)

    x_j = context[dst]
    x_k = context[neg]
    pos_score = sigmoid(np.einsum("bd,bd->b", bag, x_j))
    neg_score = sigmoid(np.einsum("bkd,bd->bk", x_k, bag))

    g_pos = (1.0 - pos_score)[:, None]
    g_neg = neg_score[:, :, None]

    grad_bag = -g_pos * x_j + np.einsum("bkd->bd", g_neg * x_k)  # (B, d)
    grad_context_pos = -g_pos * bag
    grad_context_neg = g_neg * bag[:, None, :]

    loss = float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )

    # d(bag)/d(x_w) = identity for every occurrence of a word in the bag.
    center[words] += bag_matrix.T @ (-lr * grad_bag)
    _scatter_add(context, dst, -lr * grad_context_pos)
    _scatter_add(context, neg.reshape(-1), -lr * grad_context_neg.reshape(-1, d))
    return loss


def sgns_batch_loss(
    center: np.ndarray,
    context: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
) -> float:
    """Evaluate mean ``J_NEG`` without updating (for convergence tests)."""
    x_i = center[src]
    pos_score = sigmoid(np.einsum("bd,bd->b", x_i, context[dst]))
    neg_score = sigmoid(np.einsum("bkd,bd->bk", context[neg], x_i))
    return float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )
