"""Repair with fewer than ``erasure_k`` surviving shards defers, not crashes.

Crashes can leave a file with fewer healthy shards than its code needs to
decode.  Repair must then refuse with a structured error (which shards
survive, how many are needed) that the lifecycle engine records as a
``deferred`` event, instead of letting the decoder's ``ValueError`` abort
the whole run.
"""

from __future__ import annotations

import random

import pytest

from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.storage import DsnClient, DsnCluster, ShardsUnrecoverable, SimulatedNetwork


def test_repair_below_k_survivors_raises_structured_error():
    cluster = DsnCluster(network=SimulatedNetwork(rng=random.Random(3)))
    for index in range(6):
        cluster.add_node(f"node-{index}")
    client = DsnClient("owner", cluster)
    manifest = client.store("f", b"\x42" * 500, n=4, k=2)
    victim = manifest.shards[0].provider
    for location in manifest.shards[1:3]:
        cluster.node(location.provider).drop_file("f")
    with pytest.raises(ShardsUnrecoverable) as caught:
        client.repair(manifest, victim)
    assert isinstance(caught.value, RuntimeError)
    assert (caught.value.file_id, caught.value.survivors, caught.value.needed) == (
        "f", 1, 2,
    )


def test_lifecycle_run_defers_unrecoverable_repair():
    # This seed's crashes leave one file with a single healthy shard at
    # epoch 10; the run used to die there with a ValueError.
    config = LifecycleConfig(
        years=1, files=2, erasure_n=4, erasure_k=2, providers=9, churn=0.4,
        flake_rate=0.3, lanes=2, s=4, k=3, workers=1, mempool=True, seed=167,
    )
    engine = LifecycleEngine(config)
    try:
        outcome = engine.run()
    finally:
        engine.close()
    assert outcome.epochs_run == config.total_epochs
    deferred = [
        event for event in outcome.trail.of_kind("deferred")
        if "needed shards survive" in (event.get("why") or "")
    ]
    assert deferred, "the unrecoverable repair must be recorded as deferred"
