"""The three ACTOR workloads, driven from outside through public APIs.

Every phase calls into one layer of the program and times it from here:

* ``fit``    -- ``Actor.fit(metrics=, tracer=)``: hotspots, graphs, LINE,
  hierarchical init and the meta-graph SGNS trainer;
* ``serve``  -- a ``repro serve --mmap`` subprocess fed open loop over
  persistent connections, its ``/debug/requests`` ring, and in-process
  ``QueryService.validate_*`` / ``dispatch`` for the parity reference;
* ``stream`` -- ``OnlineActor.partial_fit`` writes, each followed by a
  ``QueryEngine.rank_batch`` read of the same store.

Nothing here changes the program; the benchmark only generates inputs,
calls public functions and reads what they report.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import Actor, ActorConfig, generate_dataset
from repro.core.serialize import load_bundle, save_bundle
from repro.core.streaming import OnlineActor
from repro.data.datasets import preset_config
from repro.data.records import Corpus
from repro.data.synthetic import CityModel
from repro.eval.tasks import build_task_queries
from repro.serving.service import QueryService
from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import Tracer

from openloop import Request, get_json, run_step
from server import Server, vmhwm_mb

PRESET = "utgeo2011"
N_NOISE = 10
#: expected MRR of a uniformly random ranking of 1 truth + 10 decoys
RANDOM_MRR = sum(1.0 / r for r in range(1, N_NOISE + 2)) / (N_NOISE + 1)
#: ``repro serve --slo-latency-threshold-ms`` default
SLO_MS = 250.0
#: a step whose last-quarter send lag exceeds this share of the SLO has a
#: growing backlog, whatever its p99
BACKLOG_SHARE = 0.1
#: set-up is repeated and its median reported
REPEATS = 5
#: stream passes do fixed work: this many write+read cycles per second of
#: ``--seconds`` (about one second each on a 2-core reference box)
STREAM_BATCHES_PER_S = 12


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    fit_records: int
    fit_config: dict
    base_records: int
    base_config: dict
    eval_records: int
    stream_batch: int
    stream_queries: int
    query_batch: int
    #: offered rates per connection; a step offers ``rate * n_conns``
    ladder_per_conn: tuple[float, ...]
    parity_sample: int
    dispatch_reps: int


FULL = Sizes(
    fit_records=5000,
    fit_config={},
    base_records=2000,
    base_config={"epochs": 5},
    eval_records=1000,
    stream_batch=50,
    stream_queries=300,
    query_batch=300,
    # The lowest rate leaves each keep-alive connection idle for more than
    # twice the 40 ms delayed-ACK timer between requests, so a connection
    # that once stalls on it recovers; between about 12 and 22 requests/s
    # per connection a single stall sticks, so no rate sits there.
    ladder_per_conn=(10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
    parity_sample=200,
    dispatch_reps=200,
)

SMOKE = Sizes(
    fit_records=400,
    fit_config={"epochs": 6, "line_samples": 5000},
    base_records=400,
    base_config={"epochs": 6, "line_samples": 5000},
    eval_records=80,
    stream_batch=20,
    stream_queries=12,
    query_batch=12,
    ladder_per_conn=(10.0, 25.0),
    parity_sample=20,
    dispatch_reps=10,
)


@dataclass
class Outcome:
    """What one run produced: metrics, op counts and check failures."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    epoch: float = field(default_factory=time.perf_counter)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, problem: str) -> None:
        """Count one output check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


@contextmanager
def span(out: Outcome, name: str):
    """Record a wall-clock span around one call into a layer."""
    start = time.perf_counter()
    try:
        yield
    finally:
        out.spans.append({
            "name": name,
            "start_s": round(start - out.epoch, 6),
            "duration_s": round(time.perf_counter() - start, 6),
        })


def pct(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_time(fn, repeats: int = REPEATS):
    """Run ``fn`` ``repeats`` times; return (median seconds, last result)."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


# ---------------------------------------------------------------- inputs


def task_queries(held_out, seed: int) -> dict:
    """One query per held-out record and target: 1 truth + 10 decoys."""
    return build_task_queries(held_out, n_noise=N_NOISE, max_queries=None,
                              seed=seed)


def city_inputs(seed: int, n_train: int, n_eval: int):
    """A seeded city, its training corpus and held-out task queries."""
    city = CityModel(preset_config(PRESET), seed=seed)
    train = city.generate_corpus(n_train)
    return city, train, task_queries(city.generate_corpus(n_eval), seed)


def dataset_inputs(seed: int, n_records: int, n_eval: int):
    """The preset dataset and task queries on its test split, topped up
    with fresh records of the same city to ``n_eval`` held-out records
    (the 5% test split alone gives MRRs that swing with the seed)."""
    data = generate_dataset(PRESET, n_records=n_records, seed=seed)
    extra = max(0, n_eval - len(data.test))
    held_out = list(data.test) + (
        list(data.city.generate_corpus(extra)) if extra else [])
    return data.city, data.train, task_queries(Corpus.from_records(held_out), seed)


def flat_queries(queries: dict, limit: int | None = None) -> list:
    """Interleave the per-target query lists (text, location, time, ...)."""
    lists = [queries[t] for t in sorted(queries)]
    out = [q for group in zip(*lists) for q in group]
    return out if limit is None else out[:limit]


# ------------------------------------------------------------------ fit


def fit_model(train, config: dict, *, traced: bool):
    """``Actor.fit`` with or without the metrics/tracer hooks."""
    metrics = MetricsRegistry() if traced else None
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    model = Actor(ActorConfig(**config)).fit(
        train, metrics=metrics, tracer=tracer
    )
    return model, time.perf_counter() - start, metrics, tracer


def mrr_by_target(engine, queries: dict) -> dict[str, float]:
    return {
        target: float(np.mean(1.0 / engine.rank_batch(qs)))
        for target, qs in queries.items()
    }


def check_finite(out: Outcome, model, *, label: str) -> None:
    out.check(
        bool(np.isfinite(model.center).all() and np.isfinite(model.context).all()),
        f"{label}: NaN or Inf embedding rows",
    )


def put_mrr(out: Outcome, mrrs: dict, *, label: str) -> None:
    """Report each MRR; one at or below the random-ranking floor fails."""
    for target, value in sorted(mrrs.items()):
        out.put(f"mrr_{target}", value, "1")
        out.check(
            value > RANDOM_MRR,
            f"{label}: mrr_{target} {value:.4f} <= random {RANDOM_MRR:.4f}",
        )


def query_latencies(engine, queries: list, batch: int, seconds: float):
    """Repeated ``rank_batch`` over fixed batches for ``seconds``."""
    batches = [queries[i:i + batch] for i in range(0, len(queries), batch)]
    engine.rank_batch(batches[0])  # build the modality caches once
    lat = []
    stop = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < stop or len(lat) < 20:
        start = time.perf_counter()
        engine.rank_batch(batches[i % len(batches)])
        lat.append(time.perf_counter() - start)
        i += 1
    return lat


def sanitize_task(name: str) -> str:
    """``plain:LW->dst`` -> ``plain_LW-dst`` (metric-name safe)."""
    return name.replace(":", "_").replace("->", "-")


def _spans(tracer: Tracer):
    stack = list(tracer.roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def fit_layers(out: Outcome, model, metrics: MetricsRegistry, tracer: Tracer):
    """Training-layer metrics from the fit's own metrics and spans."""
    by_name: dict[str, float] = {}
    for span in _spans(tracer):
        by_name[span.name] = by_name.get(span.name, 0.0) + (span.duration or 0.0)
    hotspots = by_name.get("hotspot.detect", 0.0)
    out.put("hotspots.fit_s", hotspots, "s")
    out.put("graphs.build_s", by_name["actor.build_graphs"] - hotspots, "s")
    out.put("graphs.activity_edges", model.built.activity.n_edges, "count")
    out.put("embedding.line.fit_s", by_name.get("actor.line_pretrain", 0.0), "s")
    out.put("core.init_s", by_name["actor.init"], "s")
    cfg = model.config
    per_batch = model.trainer.batches_per_epoch() * cfg.batch_size
    sgns = bow = plain = 0.0
    for name, timer in sorted(metrics.timers().items()):
        if not name.startswith("train.task."):
            continue
        task = name[len("train.task."):]
        sgns += timer.total
        if task.startswith("bow:"):
            bow += timer.total
        else:
            plain += timer.total
        out.put(
            f"core.trainer.{sanitize_task(task)}.edges_per_s",
            timer.count * per_batch / timer.total,
            "1/s",
        )
    out.put("core.trainer.sgns_s", sgns, "s")
    out.put("core.trainer.bow_s", bow, "s")
    out.put("core.trainer.plain_s", plain, "s")
    # Computed, not measured: a plain edge reads and writes the source
    # row, the context row and K negative rows.
    itemsize = model.center.dtype.itemsize
    out.put(
        "embedding.sgns.bytes_per_edge",
        2 * (2 + cfg.negatives) * cfg.dim * itemsize,
        "B",
    )
    out.put(
        "storage.matrix_mb",
        (model.center.nbytes + model.context.nbytes) / 2**20,
        "MB",
    )


# ---------------------------------------------------------------- serve


def serve_requests(city: CityModel, n: int) -> list[Request]:
    """The Zipf/diurnal mix: three predict targets + ~25% neighbors."""
    return [
        Request(e.endpoint, json.dumps(e.body).encode("utf-8"))
        for e in city.generate_query_stream(n, n_noise=N_NOISE)
    ]


def encode_like_server(payload: dict) -> bytes:
    """The byte encoding ``repro serve`` puts on the wire."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def validate(service: QueryService, req: Request):
    body = json.loads(req.body)
    if req.path == "/v1/predict":
        return service.validate_predict(body)
    return service.validate_neighbors(body)


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def step_summary(step) -> dict:
    """Latency from due time; failed and unsent requests count as misses."""
    lat = step.latency_s + [math.inf] * (step.scheduled - step.ok)
    p99_ms = nearest_rank(lat, 99) * 1e3
    backlog = step.tail_send_lag_s > BACKLOG_SHARE * SLO_MS / 1e3
    return {
        "rate": step.rate,
        "scheduled": step.scheduled,
        "sent": step.sent,
        "ok": step.ok,
        "failed": step.failed,
        "unsent": step.unsent,
        "p50_ms": nearest_rank(lat, 50) * 1e3,
        "p99_ms": p99_ms,
        "backlog": backlog,
        "meets_slo": p99_ms <= SLO_MS and not backlog,
        "goodput": sum(1 for x in lat if x * 1e3 <= SLO_MS)
        / max(step.wall_s, 1e-9),
    }


def serve_ladder(out: Outcome, bundle: Path, city, queries: dict, sizes: Sizes,
                 seconds: float, seed: int, src: str, n_conns: int) -> None:
    """The untraced ``serve`` workload: spawn, ladder, parity."""
    requests = serve_requests(city, 1000)
    setups = []
    for _ in range(REPEATS - 1):
        server = Server(str(bundle), src=src)
        setups.append(server.setup_s)
        server.stop()
    server = Server(str(bundle), src=src)
    setups.append(server.setup_s)
    out.put("setup_s", statistics.median(setups), "s")
    rates = [r * n_conns for r in sizes.ladder_per_conn]
    try:
        low_s = seconds / 2
        high_s = seconds / 2 / max(1, len(rates) - 1)
        low_n = int(round(rates[0] * low_s))
        rng = random.Random(seed)
        keep = frozenset(rng.sample(range(low_n), min(sizes.parity_sample, low_n)))
        steps = []
        for k, rate in enumerate(rates):
            step = run_step(
                server.host, server.port, requests, rate=rate,
                duration_s=low_s if k == 0 else high_s, n_conns=n_conns,
                drain_s=1.0, keep=keep if k == 0 else frozenset(),
            )
            summary = step_summary(step)
            steps.append((step, summary))
            out.notes.append(
                "rate {rate:g}/s: sent {sent}/{scheduled} ok {ok} "
                "failed {failed} unsent {unsent} p50 {p50_ms:.2f} ms p99 {p99_ms:.2f} ms "
                "backlog {backlog} meets_slo {meets_slo}".format(**summary)
            )
            if not summary["meets_slo"]:
                break
        out.put("peak_rss_mb", server.peak_rss_mb(), "MB")
    finally:
        server.stop()
    low, low_summary = steps[0]
    out.put("query_p50_ms", pct(low.latency_s, 50) * 1e3, "ms")
    out.put("query_p90_ms", pct(low.latency_s, 90) * 1e3, "ms")
    out.notes.append(f"query_p50/p90 from {low.ok} requests at {low.rate:g}/s")
    passing = [s for _, s in steps if s["meets_slo"]]
    best = passing[-1] if passing else low_summary
    out.put("throughput_per_s", best["goodput"], "1/s")
    for step, _ in steps:
        out.attempted += step.sent
        out.failed += step.sent - step.ok
        if step.sent != step.ok:
            out.problems.append(
                f"{step.sent - step.ok} failed requests at {step.rate:g}/s"
            )
    # Parity: coalesced server bodies == in-process batch-of-1 dispatch.
    service = QueryService(load_bundle(bundle, mmap=True))
    for i in sorted(low.kept):
        req = requests[i % len(requests)]
        expected = encode_like_server(
            service.dispatch([validate(service, req)])[0]
        )
        out.check(low.kept[i] == expected, f"parity mismatch on request {i}")
    out.check(len(low.kept) == len(keep), "parity sample incomplete")
    put_mrr(out, mrr_by_target(service.engine, queries), label="served bundle")


def traced_step(server: Server, requests, *, rate: float, seconds: float,
                n_conns: int, tag: str):
    """One step with ``X-Request-Id`` on every request, ``/debug/requests``
    scraped while it runs; returns the step and ``(client ms, entry)``
    pairs joined by request id."""
    entries: dict[str, dict] = {}

    def scrape() -> None:
        status, payload = get_json(server.host, server.port, "/debug/requests")
        if status == 200:
            for entry in payload["recent"]:
                entries[entry["id"]] = entry

    step = run_step(server.host, server.port, requests, rate=rate,
                    duration_s=seconds, n_conns=n_conns, drain_s=1.0,
                    request_ids=tag, on_tick=scrape)
    scrape()
    joined = [
        (client_s * 1e3, entries[rid])
        for rid, client_s in step.traced.values()
        if rid in entries
    ]
    return step, joined


def serve_traced(out: Outcome, bundle: Path, city, sizes: Sizes,
                 seconds: float, src: str, n_conns: int) -> float:
    """Per-layer serving metrics.

    At the lowest ladder rate the step runs twice: untraced (client
    timings and server CPU only) and traced (request ids joined to the
    server's trace ring).  A shorter traced step at the second rate shows
    the client-vs-server gap under load.  Returns traced / untraced
    client p50 at the lowest rate.
    """
    requests = serve_requests(city, 1000)
    rate, loaded_rate = (r * n_conns for r in sizes.ladder_per_conn[:2])
    server = Server(str(bundle), src=src)
    try:
        cpu0 = server.cpu_s()
        plain = run_step(server.host, server.port, requests, rate=rate,
                         duration_s=seconds, n_conns=n_conns, drain_s=1.0)
        cpu_ms = (server.cpu_s() - cpu0) * 1e3 / max(1, plain.sent)
        traced, joined = traced_step(server, requests, rate=rate,
                                     seconds=seconds, n_conns=n_conns,
                                     tag="low")
        loaded, loaded_joined = traced_step(
            server, requests, rate=loaded_rate, seconds=seconds / 2,
            n_conns=n_conns, tag="loaded")
    finally:
        server.stop()
    for step in (plain, traced, loaded):
        out.attempted += step.sent
        out.failed += step.sent - step.ok
    for step, pairs in ((traced, joined), (loaded, loaded_joined)):
        out.check(len(pairs) >= 0.5 * max(1, step.ok),
                  f"joined only {len(pairs)} of {step.ok} traced requests "
                  f"at {step.rate:g}/s")
        out.notes.append(
            f"{step.rate:g}/s: joined {len(pairs)}/{step.ok} traced requests; "
            f"client p50 {pct(step.service_s, 50) * 1e3:.2f} ms, server p50 "
            f"{pct([e['duration_ms'] for _, e in pairs], 50):.2f} ms"
        )
    residual = [c - e["duration_ms"] for c, e in joined]
    out.put("serving.client_minus_server_ms.p50", pct(residual, 50), "ms")
    out.put("serving.client_minus_server_ms.p99", pct(residual, 99), "ms")
    out.put("serving.loaded.client_minus_server_ms.p50",
            pct([c - e["duration_ms"] for c, e in loaded_joined], 50), "ms")

    def stage(name: str) -> list[float]:
        return [e["stages_ms"].get(name, 0.0) for _, e in joined]

    out.put("serving.queue_wait_ms.p50", pct(stage("queue_wait"), 50), "ms")
    out.put("serving.queue_wait_ms.p99", pct(stage("queue_wait"), 99), "ms")
    out.put("serving.validate_ms", statistics.fmean(stage("validate")), "ms")
    for name in ("snap", "gather", "score"):
        out.put(f"core.query_engine.{name}_ms",
                statistics.fmean(stage(name)), "ms")
    out.put("serving.fanback_ms", statistics.fmean(stage("fanback")), "ms")
    out.put("serving.batch_size",
            statistics.fmean(e["batch"]["size"] for _, e in joined), "count")
    out.put("serving.server_cpu_ms_per_req", cpu_ms, "ms")
    out.put("bench.generator_lateness_ms.p99",
            pct(plain.lateness_s, 99) * 1e3, "ms")
    dispatch_bench(out, bundle, requests, sizes.dispatch_reps)
    return pct(traced.latency_s, 50) / pct(plain.latency_s, 50)


def dispatch_bench(out: Outcome, bundle: Path, requests, reps: int) -> None:
    """In-process ``QueryService.dispatch`` per call, batch of 1 and of 64."""
    service = QueryService(load_bundle(bundle, mmap=True))
    typed = [validate(service, r) for r in requests[:64]]
    service.dispatch(typed)  # warm the modality caches
    for label, batch_size, n in (("b1", 1, reps), ("b64", 64, max(5, reps // 10))):
        times = []
        for i in range(n):
            start = i % (len(typed) - batch_size + 1)
            batch = typed[start:start + batch_size]
            t = time.perf_counter()
            service.dispatch(batch)
            times.append(time.perf_counter() - t)
        out.put(f"serving.service.dispatch_us.{label}",
                statistics.median(times) * 1e6, "us")


# --------------------------------------------------------------- stream


def stream_pass(out: Outcome, model: Actor, city: CityModel, queries: dict,
                sizes: Sizes, n_batches: int, *, traced: bool) -> dict:
    """Write ``n_batches`` batches through ``partial_fit``; read right
    after each write.  A fixed amount of work, so the final model -- and
    its MRR -- depends on the seed only."""
    metrics = MetricsRegistry()
    online = OnlineActor(model, metrics=metrics,
                         tracer=Tracer() if traced else None)
    engine = online.query_engine()
    probe = flat_queries(queries, sizes.stream_queries)
    engine.rank_batch(probe)
    base_rows = online.center.shape[0]
    write_s, reads, rebuilds = [], [], []
    for _ in range(n_batches):
        batch = [city.generate_record() for _ in range(sizes.stream_batch)]
        start = time.perf_counter()
        online.partial_fit(batch)
        mid = time.perf_counter()
        engine.rank_batch(probe)
        end = time.perf_counter()
        write_s.append(mid - start)
        reads.append(end - mid)
        if traced:
            engine.rank_batch(probe)
            rebuilds.append((end - mid) - (time.perf_counter() - end))
    out.attempted += 2 * n_batches
    return {
        "online": online,
        "engine": engine,
        "metrics": metrics,
        "base_rows": base_rows,
        "records": n_batches * sizes.stream_batch,
        "write_s": write_s,
        "reads": reads,
        "rebuilds": rebuilds,
    }


def check_stream(out: Outcome, result: dict) -> None:
    online = result["online"]
    check_finite(out, online, label="stream")
    out.check(online.center.shape[0] >= result["base_rows"],
              "stream: fewer rows than the base model")


def stream_layers(out: Outcome, result: dict) -> None:
    metrics = result["metrics"]
    timers = metrics.timers()
    for name in ("partial_fit", "ingest", "train_burst"):
        out.put(f"core.streaming.{name}_ms",
                timers[f"stream.{name}"].mean * 1e3, "ms")
    out.put("core.streaming.buffer_size",
            metrics.gauges()["buffer.size"].value, "count")
    created = metrics.counters().get("stream.rows_created")
    out.put("core.streaming.rows_created",
            created.value if created is not None else 0.0, "count")
    out.put("core.query_engine.cache_rebuild_ms",
            statistics.median(result["rebuilds"]) * 1e3, "ms")


# -------------------------------------------------------------- workloads


def workdir(root: Path) -> tempfile.TemporaryDirectory:
    """A private work directory inside the checkout, removed on exit."""
    parent = root / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=parent)


def stream_batches(seconds: float) -> int:
    """Batches a stream pass of ``seconds`` writes (fixed work, see
    ``STREAM_BATCHES_PER_S``)."""
    return max(3, round(seconds * STREAM_BATCHES_PER_S))


def run_fit(out, sizes, seed, seconds, *, traced, ctx):
    setup_s, (city, train, queries) = median_time(
        lambda: dataset_inputs(seed, sizes.fit_records, sizes.eval_records)
    )
    with span(out, "fit.untraced"):
        model, fit_s, _, _ = fit_model(train, sizes.fit_config, traced=False)
    check_finite(out, model, label="fit")
    out.notes.append(f"fit_s {fit_s:.3f} s for {len(train)} training records")
    if not traced:
        out.put("setup_s", setup_s, "s")
        out.put("throughput_per_s", len(train) / fit_s, "1/s")
        engine = model.query_engine()
        put_mrr(out, mrr_by_target(engine, queries), label="fit")
        with span(out, "query.rank_batch"):
            lat = query_latencies(engine, flat_queries(queries),
                                  sizes.query_batch, seconds / 4)
        out.attempted += len(lat)
        out.put("query_p50_ms", pct(lat, 50) * 1e3, "ms")
        out.put("query_p90_ms", pct(lat, 90) * 1e3, "ms")
        out.notes.append(f"query_p50/p90 from {len(lat)} rank_batch calls")
        out.put("peak_rss_mb", vmhwm_mb(), "MB")
        return
    with span(out, "fit.traced"):
        model, traced_s, metrics, tracer = fit_model(
            train, sizes.fit_config, traced=True)
    fit_layers(out, model, metrics, tracer)
    out.put("bench.trace_overhead", traced_s / fit_s, "ratio")
    probe_serve(out, model, city, sizes, seconds / 8, ctx)
    probe_stream(out, model, city, queries, sizes, seconds / 8)


def base_model(sizes, seed, *, traced):
    """The serve/stream base model, trained before timing starts.

    Returns the median input-generation time too (the stream workload
    counts it as set-up).
    """
    gen_s, (city, train, queries) = median_time(
        lambda: city_inputs(seed, sizes.base_records, sizes.eval_records))
    model, _, metrics, tracer = fit_model(
        train, sizes.base_config, traced=traced)
    return gen_s, city, queries, model, metrics, tracer


def run_serve(out, sizes, seed, seconds, *, traced, ctx):
    _, city, queries, model, metrics, tracer = base_model(
        sizes, seed, traced=traced)
    check_finite(out, model, label="serve base model")
    if not traced:
        with workdir(ctx["root"]) as work:
            bundle = Path(work) / "bundle"
            save_bundle(model, bundle)
            with span(out, "serve.ladder"):
                serve_ladder(out, bundle, city, queries, sizes, seconds, seed,
                             ctx["src"], ctx["nproc"])
        return
    fit_layers(out, model, metrics, tracer)
    overhead = probe_serve(out, model, city, sizes, seconds / 4, ctx)
    out.put("bench.trace_overhead", overhead, "ratio")
    probe_stream(out, model, city, queries, sizes, seconds / 8)


def run_stream(out, sizes, seed, seconds, *, traced, ctx):
    gen_s, city, queries, model, metrics, tracer = base_model(
        sizes, seed, traced=traced)
    init_s, _ = median_time(lambda: OnlineActor(model))
    if not traced:
        out.put("setup_s", gen_s + init_s, "s")
        with span(out, "stream.untraced"):
            result = stream_pass(out, model, city, queries, sizes,
                                 stream_batches(seconds), traced=False)
        check_stream(out, result)
        out.put("throughput_per_s",
                result["records"] / sum(result["write_s"]), "1/s")
        out.put("query_p50_ms", pct(result["reads"], 50) * 1e3, "ms")
        out.put("query_p90_ms", pct(result["reads"], 90) * 1e3, "ms")
        out.notes.append(
            f"query_p50/p90 from {len(result['reads'])} reads after writes")
        put_mrr(out, mrr_by_target(result["engine"], queries), label="stream")
        out.put("peak_rss_mb", vmhwm_mb(), "MB")
        return
    fit_layers(out, model, metrics, tracer)
    n = stream_batches(seconds / 2)
    with span(out, "stream.untraced"):
        plain = stream_pass(out, model, city, queries, sizes, n, traced=False)
    with span(out, "stream.traced"):
        result = stream_pass(out, model, city, queries, sizes, n, traced=True)
    check_stream(out, result)
    stream_layers(out, result)
    out.put("bench.trace_overhead",
            statistics.fmean(result["write_s"]) / statistics.fmean(plain["write_s"]),
            "ratio")
    probe_serve(out, model, city, sizes, seconds / 8, ctx)


def probe_serve(out, model, city, sizes, seconds, ctx) -> float:
    """Export ``model`` and run the traced serve pass against it."""
    with workdir(ctx["root"]) as work:
        bundle = Path(work) / "bundle"
        save_bundle(model, bundle)
        with span(out, "serve.traced"):
            return serve_traced(out, bundle, city, sizes, seconds,
                                ctx["src"], ctx["nproc"])


def probe_stream(out, model, city, queries, sizes, seconds) -> None:
    """A short traced stream pass for the streaming-layer metrics."""
    with span(out, "stream.traced"):
        result = stream_pass(out, model, city, queries, sizes,
                             stream_batches(seconds), traced=True)
    check_stream(out, result)
    stream_layers(out, result)


WORKLOADS = {"fit": run_fit, "serve": run_serve, "stream": run_stream}
