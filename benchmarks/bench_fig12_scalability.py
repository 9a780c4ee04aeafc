"""Fig. 12 — scalability of the embedding trainer.

(a) running time vs. number of sampled edges (1x-4x, fixed workers):
    expected near-linear growth;
(b) strong scaling: fixed samples, workers 1-4: expected speedup on
    multi-core hardware;
(c) weak scaling: workers and samples grow together: expected sub-linear
    wall-clock growth (flat in the paper's C++).

Parallelism uses the lock-free shared-memory process pool
(:class:`repro.embedding.HogwildPool`), the honest NumPy equivalent of the
paper's pthreads Hogwild.  Speedup is physically bounded by the machine:
on a single-core host (CI containers!) 12b/12c can only demonstrate
bounded overhead, so those assertions are conditioned on the detected
core count and the full series is always printed for the record.
"""

from __future__ import annotations

import os

import pytest

from repro.core import ActorConfig
from repro.eval import edges_scaling, format_table, strong_scaling, weak_scaling
from repro.graphs import GraphBuilder

from common import SEED

BASE_BATCHES = 30
N_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


@pytest.fixture(scope="module")
def scale_built(datasets):
    return GraphBuilder().build(datasets["utgeo2011"].train)


@pytest.fixture(scope="module")
def scale_config():
    return ActorConfig(dim=48, epochs=2, batch_size=512, seed=SEED)


@pytest.mark.benchmark(group="fig12a-edges")
def test_fig12a_time_vs_sampled_edges(benchmark, scale_built, scale_config):
    points = edges_scaling(
        scale_built,
        scale_config,
        base_batches=BASE_BATCHES,
        multipliers=(1, 2, 3, 4),
        threads=1,
    )
    benchmark.pedantic(
        edges_scaling,
        args=(scale_built, scale_config),
        kwargs=dict(base_batches=5, multipliers=(1,)),
        rounds=1,
        iterations=1,
    )

    headers = ["multiplier", "samples", "seconds", "sec/sample(x1e6)"]
    rows = [
        [p.multiplier, p.samples, round(p.seconds, 3),
         round(1e6 * p.seconds / p.samples, 3)]
        for p in points
    ]
    print()
    print(format_table(headers, rows, title="Fig. 12a — time vs sampled edges"))

    # Shape: monotone growth, roughly linear (4x samples within [2.5x, 6x]
    # of the 1x time — generous bounds for CI noise).
    times = [p.seconds for p in points]
    assert times[0] < times[1] < times[3]
    ratio = times[3] / times[0]
    assert 2.0 < ratio < 7.0, ratio


@pytest.mark.benchmark(group="fig12b-strong")
def test_fig12b_strong_scaling(benchmark, scale_built, scale_config):
    points = strong_scaling(
        scale_built,
        scale_config,
        base_batches=2 * BASE_BATCHES,
        thread_counts=(1, 2, 4),
    )
    benchmark.pedantic(
        strong_scaling,
        args=(scale_built, scale_config),
        kwargs=dict(base_batches=5, thread_counts=(2,)),
        rounds=1,
        iterations=1,
    )

    headers = ["threads", "samples", "seconds", "speedup"]
    base = points[0].seconds
    rows = [
        [p.threads, p.samples, round(p.seconds, 3), round(base / p.seconds, 2)]
        for p in points
    ]
    print()
    print(format_table(headers, rows, title="Fig. 12b — strong scaling"))

    print(f"(detected {N_CORES} usable cores)")
    if N_CORES >= 2:
        # Real hardware parallelism available: demand an actual speedup.
        assert points[-1].seconds < 0.9 * points[0].seconds, points
    else:
        # Single core: parallel speedup is impossible; demand bounded
        # coordination overhead instead.
        assert points[-1].seconds < 2.0 * points[0].seconds, points


@pytest.mark.benchmark(group="fig12c-weak")
def test_fig12c_weak_scaling(benchmark, scale_built, scale_config):
    points = weak_scaling(
        scale_built,
        scale_config,
        base_batches=BASE_BATCHES,
        steps=(1, 2, 4),
    )
    benchmark.pedantic(
        weak_scaling,
        args=(scale_built, scale_config),
        kwargs=dict(base_batches=5, steps=(1,)),
        rounds=1,
        iterations=1,
    )

    headers = ["threads=mult", "samples", "seconds", "vs serial-growth"]
    rows = []
    for p in points:
        serial_projection = points[0].seconds * p.multiplier
        rows.append(
            [p.threads, p.samples, round(p.seconds, 3),
             f"{p.seconds / serial_projection:.2f}x"]
        )
    print()
    print(format_table(headers, rows, title="Fig. 12c — weak scaling"))

    print(f"(detected {N_CORES} usable cores)")
    serial_projection = points[0].seconds * points[-1].multiplier
    if N_CORES >= 2:
        # Paper shape: near-flat; demand clearly sub-serial growth.
        assert points[-1].seconds < 0.9 * serial_projection, points
    else:
        # Single core: growth is inherently serial; demand bounded overhead
        # over the serial projection.
        assert points[-1].seconds < 1.8 * serial_projection, points
