"""A legacy sharded (format v3) epoch still opens, gates and serves.

The swapper always opens candidates with ``load_bundle(mmap=True)``; a
v3 epoch published before sharding was retired must load through the
read-only v3 reader instead of being vetoed as unloadable.
"""

from __future__ import annotations

import json
import shutil
import urllib.request

import pytest

from repro.core import load_bundle
from repro.core.drift import make_probe_queries
from repro.data import generate_dataset
from repro.lifecycle import (
    BundleWatcher,
    LifecycleManager,
    ModelSwapper,
    read_pointer,
)
from repro.serving import QueryServer
from repro.utils.metrics import MetricsRegistry

from tests.core.test_serialize import V2_TWIN, V3_FIXTURE, _served_answers

NEIGHBORS_BODY = {"modality": "word", "time": 21.5, "words": ["park_00"], "k": 8}


def _post(url: str, body: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, response.read()


@pytest.fixture()
def legacy_root(bundles_root):
    """A bundle root: the v2 twin as epoch 1, the v3 fixture as epoch 2."""
    bundles_root.mkdir(parents=True)
    shutil.copytree(V2_TWIN, bundles_root / "000001")
    shutil.copytree(V3_FIXTURE, bundles_root / "000002")
    return bundles_root


@pytest.fixture()
def twin_server():
    server = QueryServer(
        load_bundle(V2_TWIN, mmap=True), port=0, metrics=MetricsRegistry()
    ).start()
    try:
        yield server
    finally:
        server.stop()


def test_open_candidate_serves_like_the_v2_twin(legacy_root, twin_server):
    swapper = ModelSwapper(twin_server)
    generation = swapper.open_candidate(legacy_root / "000002", 2)
    try:
        assert generation.epoch == 2
        assert _served_answers(generation.model) == _served_answers(
            twin_server.model
        )
    finally:
        generation.close()


def test_v3_epoch_promotes_without_veto(legacy_root, twin_server):
    probe = generate_dataset("utgeo2011", n_records=300, seed=12).test
    manager = LifecycleManager(
        twin_server,
        legacy_root,
        initial_epoch=1,
        probe_queries=make_probe_queries(probe, max_queries=32),
    )
    url = twin_server.url + "/v1/neighbors"
    status, before = _post(url, NEIGHBORS_BODY)
    assert status == 200

    decision = manager.poll_once()
    assert decision["action"] == "promote", decision
    assert manager.swapper.active_epoch == 2
    assert read_pointer(legacy_root) == 2
    assert not BundleWatcher(legacy_root).vetoed(2)

    status, after = _post(url, NEIGHBORS_BODY)
    assert status == 200
    assert after == before
