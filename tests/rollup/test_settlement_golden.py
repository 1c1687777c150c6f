"""Golden settlement digests: every settlement path posts the same bytes.

The lifecycle engine, the cross-shard aggregator and the single-lane
checkpoint pipeline all post checkpoints (and, with DA, DA commitments)
onto bonded lane contracts.  These digests pin the exact transactions —
their bytes *and* their order — so a refactor of the posting code cannot
silently reorder settlement or change what lands on chain.  The values
are deterministic functions of the seeds below; if a change moves one
deliberately, the change must say why.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.adversary import make_prover
from repro.chain import Blockchain, CheckpointContract, ShardedChainFabric
from repro.core import DataOwner, ProtocolParams
from repro.da import DaParams
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.randomness import HashChainBeacon
from repro.rollup import CheckpointPipeline, CrossShardAggregator
from repro.sim.workloads import archive_file

PARAMS = ProtocolParams(s=3, k=2)

#: (mempool) -> (fabric state_hash, trail digest) after the whole run.
LIFECYCLE_GOLDEN = {
    True: (
        "62787fcd870234e8bc5500e30983a1c01e30637f959181bf56b55daa3027f46d",
        "ef9eaa9acdde5ee0e7c6cd8ba957b65cfcf5adb616a38345a392a389a37b0f6f",
    ),
    False: (
        "981e8fcc4077de33c59710a1974bd2db79fbf22f886a07606522fa75fed4497f",
        "ef9eaa9acdde5ee0e7c6cd8ba957b65cfcf5adb616a38345a392a389a37b0f6f",
    ),
}

#: 2-lane aggregator with DA: fabric state_hash, and SHA-256 over every
#: lane's checkpoint then DA-commitment bytes (epoch, then lane order).
AGGREGATOR_STATE_HASH = (
    "40253e96901f121525e4de3f7b4f7423e0b54b6ddc4fda425b7a908ebeb6e252"
)
AGGREGATOR_POSTINGS_SHA256 = (
    "20e8b51cc3ced150708d4c76e9d20681031ae1484fac871031c71933de2a1620"
)
#: Single-lane pipeline: chain state_hash after two settled epochs.
PIPELINE_STATE_HASH = (
    "5e431f37fd665f02ffe09594705e220ba03d336732115db15eff563b7842ec2e"
)


def _fleet(count: int, tag: str):
    """Deterministic packages and their audit instances."""
    owner = DataOwner(PARAMS, rng=random.Random(0x601D))
    packages = [
        owner.prepare(
            archive_file(300, tag=f"{tag}-{index}").data,
            fresh_keypair=index == 0,
        )
        for index in range(count)
    ]
    return packages, [
        AuditInstance.from_package(package, owner_id=tag)
        for package in packages
    ]


@pytest.mark.parametrize("mempool", [True, False])
def test_lifecycle_settlement_is_pinned(mempool):
    # Seed 1 repairs two shards, so settlement also registers instances
    # that join mid-run, not only the initial fleet.
    config = LifecycleConfig(
        years=0.5, epochs_per_year=8, files=1, file_bytes=300,
        erasure_n=3, erasure_k=2, providers=5, churn=0.6, flake_rate=0.2,
        lanes=2, s=3, k=2, workers=1, mempool=mempool, seed=1,
    )
    engine = LifecycleEngine(config)
    try:
        outcome = engine.run()
    finally:
        engine.close()
    assert outcome.total_repairs > 0
    state_hash, trail_digest = LIFECYCLE_GOLDEN[mempool]
    assert outcome.state_hash == state_hash
    assert outcome.trail_digest == trail_digest


def test_aggregator_settlement_with_da_is_pinned():
    packages, instances = _fleet(6, "golden-agg")
    fabric = ShardedChainFabric(num_lanes=2)
    try:
        with AuditExecutor(instances, workers=1) as executor:
            aggregator = CrossShardAggregator(
                fabric, executor, PARAMS, HashChainBeacon(b"golden-agg"),
                rng=random.Random(5), deterministic=True,
                da_params=DaParams(n=6, k=2),
            )
            # One replaying provider, so the pinned epochs carry rejects.
            prover = make_prover("replay", packages[1], rng=random.Random(9))
            aggregator.set_override(
                packages[1].name,
                lambda challenge, epoch: prover.respond_private(challenge),
            )
            try:
                settlements = aggregator.run(2)
            finally:
                aggregator.close()
        assert {len(s.lanes) for s in settlements} == {2}
        assert any(s.rejected_names() for s in settlements)
        postings = hashlib.sha256()
        for settlement in settlements:
            for _, settled in sorted(settlement.lanes.items()):
                postings.update(settled.bundle.checkpoint.to_bytes())
                postings.update(settled.da.commitment.to_bytes())
        assert fabric.state_hash() == AGGREGATOR_STATE_HASH
        assert postings.hexdigest() == AGGREGATOR_POSTINGS_SHA256
    finally:
        fabric.close()


def test_single_lane_pipeline_settlement_is_pinned():
    _, instances = _fleet(2, "golden-pipe")
    beacon = HashChainBeacon(b"golden-pipe")
    chain = Blockchain(block_time=15.0)
    account = chain.create_account(10.0, label="aggregator")
    address = chain.deploy(
        CheckpointContract(beacon, PARAMS, fraud_window=100.0), deployer=account
    )
    with AuditExecutor(instances, workers=1) as executor:
        scheduler = EpochScheduler(
            executor, PARAMS, beacon, rng=random.Random(3),
            deterministic=True, checkpoint_mode=True,
        )
        pipeline = CheckpointPipeline(scheduler, chain, address, account)
        pipeline.register_fleet()
        pipeline.run(2)
    assert chain.state_hash() == PIPELINE_STATE_HASH
