"""Pluggable embedding storage: one protocol, three backends.

See :mod:`repro.storage.base` for the :class:`EmbeddingStore` contract.
Pick a backend with :func:`make_store` (or the CLI's ``--store`` flag):

=============  =====================================================
``dense``      plain RAM ndarrays — default, fastest single-process
``shared``     POSIX shared memory — Hogwild training, forked serving
``mmap``       memory-mapped ``.npy`` files — zero-copy load, > RAM
=============  =====================================================
"""

from __future__ import annotations

import os

from repro.storage.base import MATRIX_NAMES, EmbeddingStore, normalize_rows
from repro.storage.dense import DenseStore
from repro.storage.mmap import MmapStore
from repro.storage.shared import SharedMatrix, SharedMemStore

__all__ = [
    "EmbeddingStore",
    "DenseStore",
    "SharedMemStore",
    "SharedMatrix",
    "MmapStore",
    "MATRIX_NAMES",
    "STORE_BACKENDS",
    "make_store",
    "normalize_rows",
]

STORE_BACKENDS = ("dense", "shared", "mmap")


def make_store(
    backend: str = "dense",
    center=None,
    context=None,
    *,
    directory: str | os.PathLike | None = None,
) -> EmbeddingStore:
    """Construct a store by backend name (``dense``/``shared``/``mmap``).

    ``directory`` only applies to the ``mmap`` backend (a private temp
    directory is created when omitted); passing it with another backend
    is an error so silent misconfiguration can't slip through.
    """
    if backend == "mmap":
        return MmapStore(center, context, directory=directory)
    if directory is not None:
        raise ValueError(
            f"directory= only applies to the 'mmap' backend, not {backend!r}"
        )
    if backend == "dense":
        return DenseStore(center, context)
    if backend == "shared":
        return SharedMemStore(center, context)
    raise ValueError(
        f"unknown store backend {backend!r}; choose one of {STORE_BACKENDS}"
    )
