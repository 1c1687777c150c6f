"""The three seeded workloads, driven through the program's public API.

Each workload builds a *world* from the seed (the set-up the benchmark
times separately), then ``step()`` runs one closed-loop operation: an
epoch for ``settle`` and ``lifecycle``, a sampling session (or, at a
fixed interval, a full reconstruct + replay audit) for ``lightclient``.
Every step checks the program's outputs into a shared :class:`Checks`
tally, and every world keeps a running digest of its deterministic
outputs, so two worlds built from one seed can be compared step by step.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from spans import Recorder

#: Recorder used by untraced worlds; inactive, so its spans are no-ops.
UNTRACED = Recorder()


class Checks:
    """Correctness tally: every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _reference_kernel() -> int:
    total = 0
    table = {}
    for i in range(5000):
        total += (i * i) % 7
        table[i & 63] = total
    return total + len(table)


class Pace:
    """Host speed, tracked by timing a fixed pure-Python kernel.

    Shared hosts slow down by up to 2x for seconds at a time, which no
    run length averages away.  The runner times :func:`_reference_kernel`
    between operations (about 0.5 ms, at most every 10 ms), and
    :meth:`scale` turns an operation's wall time into wall time at the
    reference speed ``NOMINAL_S``: wall x NOMINAL_S / (median kernel time
    within 50 ms of the operation).  A change to the program moves the
    scaled figure exactly as it moves wall time; the raw wall figures are
    reported next to it.  The kernel measures the core this process runs
    on, so only worlds whose operations run in this process
    (``SCALED``) are scaled.
    """

    NOMINAL_S = 0.0005
    HALO_S = 0.05
    EVERY_S = 0.01

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < self.EVERY_S:
            return
        _reference_kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.seconds.append(end - now)

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0 - self.HALO_S)
        hi = bisect.bisect_right(self.at, t1 + self.HALO_S)
        window = self.seconds[lo:hi]
        if not window:
            nearest = min(range(len(self.at)), key=lambda i: abs(self.at[i] - t1))
            window = [self.seconds[nearest]]
        return (t1 - t0) * self.NOMINAL_S / statistics.median(window)


def durations(ops, pace: Pace | None) -> list[float]:
    """Operation times, scaled to reference speed when ``pace`` is given."""
    if pace is None:
        return [t1 - t0 for t0, t1 in ops]
    return [pace.scale(t0, t1) for t0, t1 in ops]


def op_percentiles(ops, pace: Pace | None) -> dict[str, float]:
    """Operation-time percentiles in ms, with the sample count."""
    times = durations(ops, pace)
    return {"samples": len(times),
            **{f"p{q}": percentile(times, q) * 1e3 for q in (50, 90, 99)}}


@dataclass(frozen=True)
class FleetScale:
    owners: int
    files_per_owner: int
    file_bytes: int
    s: int
    k: int
    lanes: int
    da_n: int
    da_k: int


SETTLE_FULL = FleetScale(8, 8, 2000, 10, 8, 2, 32, 8)
SETTLE_TINY = FleetScale(2, 2, 600, 4, 3, 2, 8, 2)
REPLAYS_PER_LANE = 2


def build_fleet(seed: int, scale: FleetScale, tag: str):
    """Owners preprocess their files: keygen + authenticators (core)."""
    from repro.core import DataOwner, ProtocolParams
    from repro.engine import AuditInstance
    from repro.sim.workloads import archive_file

    rng = random.Random(digest(tag, seed))
    params = ProtocolParams(s=scale.s, k=scale.k)
    packages = {}
    instances = []
    payloads = []
    for o in range(scale.owners):
        owner = DataOwner(params, rng=rng)
        for f in range(scale.files_per_owner):
            data = archive_file(scale.file_bytes, tag=f"{tag}-{seed}-o{o}f{f}").data
            payloads.append(data)
            package = owner.prepare(data, fresh_keypair=f == 0)
            packages[package.name] = package
            instances.append(
                AuditInstance.from_package(package, owner_id=f"owner-{o}")
            )
    return rng, params, packages, instances, digest(*payloads)


def build_aggregator(seed: int, scale: FleetScale, tag: str, rng, params, instances):
    from repro.chain.fabric import ShardedChainFabric
    from repro.da import DaParams
    from repro.engine import AuditExecutor
    from repro.randomness import HashChainBeacon
    from repro.rollup import CrossShardAggregator

    executor = AuditExecutor(instances)  # default: one worker per core
    fabric = ShardedChainFabric(num_lanes=scale.lanes)
    beacon = HashChainBeacon(f"perfbench-{tag}-{seed}".encode())
    aggregator = CrossShardAggregator(
        fabric, executor, params, beacon,
        rng=random.Random(rng.getrandbits(64)),
        deterministic=True,
        da_params=DaParams(n=scale.da_n, k=scale.da_k),
    )
    return executor, fabric, beacon, aggregator


def settlement_gas_per_audit(settlement) -> float:
    """Checkpoint + DA-root posting gas of one epoch, per audit settled."""
    lanes = settlement.lanes.values()
    gas = sum(s.receipt.gas_used + s.da_receipt.gas_used for s in lanes)
    return gas / sum(s.result.num_audits for s in lanes)


def settlement_digest(settlement) -> str:
    """Proof bytes of every lane plus the fabric root of one epoch."""
    proofs = {}
    for settled in settlement.lanes.values():
        proofs.update(settled.result.proof_bytes())
    return digest(
        *(name.to_bytes(32, "big") + proofs[name] for name in sorted(proofs)),
        settlement.fabric.checkpoint.fabric_root,
    )


class SettleWorld:
    """Steady-state aggregator settling epochs back to back."""

    #: Epochs fan out over one executor worker per core, which the kernel
    #: timed in this process does not track: report raw wall time.
    SCALED = False

    def __init__(self, seed: int, tiny: bool, checks: Checks, recorder=UNTRACED):
        from repro.adversary.strategies import make_prover

        scale = SETTLE_TINY if tiny else SETTLE_FULL
        self.checks = checks
        self.recorder = recorder
        rng, params, packages, instances, payload_digest = build_fleet(
            seed, scale, "settle"
        )
        self.fleet = len(instances)
        self.executor, self.fabric, _, self.aggregator = build_aggregator(
            seed, scale, "settle", rng, params, instances
        )
        # Replay provers are spread evenly over the lanes, so every lane
        # runs the reject path every epoch whatever the seed.
        per_lane = 1 if tiny else REPLAYS_PER_LANE
        self.replay = frozenset(
            name
            for lane in sorted(self.aggregator.lane_names)
            for name in rng.sample(sorted(self.aggregator.lane_names[lane]), per_lane)
        )
        self.input_digest = digest(payload_digest, *sorted(self.replay))
        for name in sorted(self.replay):
            prover = make_prover(
                "replay", packages[name], rng=random.Random(rng.getrandbits(64))
            )
            self.aggregator.set_override(
                name,
                lambda challenge, epoch, prover=prover: prover.respond_private(challenge),
            )
        # Warm-up epoch: every cache fills and the replay provers answer
        # their first (honest) challenge.
        warm = self.aggregator.settle_epoch(0)
        checks.check(not warm.rejected_names(), "settle warm-up epoch rejected a file")
        self.setup_digest = digest(settlement_digest(warm), self.fabric.state_hash())
        self.epoch = 1
        self.ops: list[tuple[float, float]] = []
        self.gas_per_audit: list[float] = []
        self.audits = self.chain_bytes = 0
        self._trajectory = hashlib.sha256()

    def step(self) -> None:
        epoch = self.epoch
        self.epoch += 1
        with self.recorder.root(f"epoch-{epoch}"):
            t0 = time.perf_counter()
            settlement = self.aggregator.settle_epoch(epoch)
            self.ops.append((t0, time.perf_counter()))
        self.audits += sum(s.result.num_audits for s in settlement.lanes.values())
        self.gas_per_audit.append(settlement_gas_per_audit(settlement))
        for settled in settlement.lanes.values():
            self.chain_bytes += (
                len(settled.bundle.checkpoint.to_bytes())
                + len(settled.da.commitment.to_bytes())
            )
        rejected = frozenset(settlement.rejected_names())
        self.checks.check(
            rejected == self.replay,
            f"settle epoch {epoch}: rejected {len(rejected)} files, "
            f"expected the {len(self.replay)} replay provers",
        )
        self.checks.check(
            len(settlement.accepted_names()) + len(rejected) == self.fleet,
            f"settle epoch {epoch}: verdict count != fleet size",
        )
        self._trajectory.update(settlement_digest(settlement).encode())

    def finish(self) -> None:
        pass

    @property
    def busy_s(self) -> float:
        return sum(durations(self.ops, None))

    def trajectory(self) -> str:
        return self._trajectory.hexdigest()

    def trace_counts(self) -> dict[str, float]:
        return {}

    def metrics(self, pace: Pace | None) -> dict[str, float]:
        latencies = durations(self.ops, pace)
        return {
            "audits_per_s": self.audits / sum(latencies),
            "op_ms.p50": statistics.median(latencies) * 1e3,
            "gas_per_audit": statistics.median(self.gas_per_audit),
            "bytes_per_audit": self.chain_bytes / self.audits,
        }

    def close(self) -> None:
        self.aggregator.close()
        self.executor.close()
        self.fabric.close()


@dataclass(frozen=True)
class LifecycleScale:
    years: float
    files: int
    providers: int


LIFECYCLE_FULL = LifecycleScale(years=20.0, files=2, providers=9)
LIFECYCLE_TINY = LifecycleScale(years=0.25, files=1, providers=5)


class LifecycleWorld:
    """Churn and repair: up to 20 simulated years of LifecycleEngine epochs.

    Departures are all graceful (``crash_fraction=0``) and no provider
    turns flaky: abrupt crashes hit a repair defect that raises
    ``ValueError`` out of ``LifecycleEngine.run_epoch`` (see CHANGES.md),
    and flaky withholding turns epoch times bimodal, which the reject path
    of ``settle`` covers instead.  A world's first epoch is a warm-up; a
    world that reaches its horizon is checked for file retrievability and
    replaced by the next one (sub-seeded by its index).
    """

    SCALED = True

    def __init__(self, seed: int, tiny: bool, checks: Checks, recorder=UNTRACED):
        from spans import bridge_tracer

        self.seed = seed
        self.scale = LIFECYCLE_TINY if tiny else LIFECYCLE_FULL
        self.checks = checks
        self.recorder = recorder
        self.tracer = bridge_tracer(recorder) if recorder is not UNTRACED else None
        self.world_index = 0
        self.engine = self._build()
        self.input_digest = digest(*self.engine.payloads.values())
        self.setup_digest = digest(
            self.engine.trail.digest(), self.engine.fabric.state_hash()
        )
        self.ops: list[tuple[float, float]] = []
        self.gas_per_audit: list[float] = []
        self.audits = self.chain_bytes = 0
        self.repairs = self.evictions = 0
        self._trajectory = hashlib.sha256()

    def _config(self):
        from repro.lifecycle.engine import LifecycleConfig

        return LifecycleConfig(
            years=self.scale.years,
            epochs_per_year=12,
            files=self.scale.files,
            erasure_n=4,
            erasure_k=2,
            providers=self.scale.providers,
            churn=0.4,
            crash_fraction=0.0,
            flake_rate=0.0,
            lanes=2,
            seed=int(digest("lifecycle", self.seed, self.world_index)[:15], 16),
            s=4,
            k=3,
            workers=1,
            mempool=True,
        )

    def _build(self):
        from repro.lifecycle.engine import LifecycleEngine

        with self.recorder.paused():
            engine = LifecycleEngine(self._config(), tracer=self.tracer)
            engine.run_epoch()  # warm-up
        return engine

    def _retire(self) -> None:
        engine = self.engine
        self.checks.check(
            engine.files_intact(),
            f"lifecycle world {self.world_index}: a stored file is lost",
        )
        self._trajectory.update(
            digest(engine.trail.digest(), engine.fabric.state_hash()).encode()
        )
        engine.close()
        self.world_index += 1
        self.engine = self._build()

    def step(self) -> None:
        engine = self.engine
        epoch = engine.next_epoch
        try:
            with self.recorder.root(f"epoch-{self.world_index}.{epoch}"):
                t0 = time.perf_counter()
                summary = engine.run_epoch()
                t1 = time.perf_counter()
        except Exception:  # noqa: BLE001 - a failed epoch is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.checks.check(False, f"lifecycle world {self.world_index} epoch {epoch} raised")
            engine.close()
            self.world_index += 1
            self.engine = self._build()
            return
        self.ops.append((t0, t1))
        self.audits += summary.audits
        self.gas_per_audit.append(summary.commitment_gas / summary.audits)
        self.repairs += summary.repaired
        self.evictions += summary.evicted
        fabric_bundle = engine.last_fabric_bundle
        self.chain_bytes += sum(
            len(bundle.checkpoint.to_bytes()) for _, bundle in fabric_bundle.lanes
        )
        self.checks.check(
            summary.accepted + summary.rejected == summary.audits
            and fabric_bundle.checkpoint.num_leaves == summary.audits,
            f"lifecycle epoch {epoch}: settled leaves != audits",
        )
        if engine.next_epoch > engine.config.total_epochs:
            self._retire()

    def finish(self) -> None:
        pass

    @property
    def busy_s(self) -> float:
        return sum(durations(self.ops, None))

    def trajectory(self) -> str:
        return digest(
            self._trajectory.hexdigest(),
            self.engine.trail.digest(),
            self.engine.fabric.state_hash(),
        )

    def trace_counts(self) -> dict[str, float]:
        return {"lifecycle.repairs": self.repairs, "lifecycle.evictions": self.evictions}

    def metrics(self, pace: Pace | None) -> dict[str, float]:
        latencies = durations(self.ops, pace)
        return {
            "audits_per_s": self.audits / sum(latencies),
            "op_ms.p50": statistics.median(latencies) * 1e3,
            "gas_per_audit": statistics.median(self.gas_per_audit),
            "bytes_per_audit": self.chain_bytes / self.audits,
        }

    def close(self) -> None:
        self.engine.close()


@dataclass(frozen=True)
class LightClientScale:
    fleet: FleetScale
    audit_every: int
    samples: int


LIGHTCLIENT_FULL = LightClientScale(SETTLE_FULL, 300, 18)
LIGHTCLIENT_TINY = LightClientScale(SETTLE_TINY, 6, 4)
HISTORY_EPOCHS = 2
WITHHELD_FRACTION = 0.25
#: Enough passes over the withheld lane-epoch for the detection-rate check
#: to mean something even in a short run.
MIN_WITHHELD_PASSES = 8


class LightClientWorld:
    """Sampling sessions and full audits over one RPC connection."""

    SCALED = True

    def __init__(self, seed: int, tiny: bool, checks: Checks, recorder=UNTRACED):
        from repro.chain import CheckpointLightClient

        scale = LIGHTCLIENT_TINY if tiny else LIGHTCLIENT_FULL
        self.scale = scale
        self.checks = checks
        self.recorder = recorder
        rng, params, _, instances, payload_digest = build_fleet(
            seed, scale.fleet, "lightclient"
        )
        executor, self.fabric, beacon, self.aggregator = build_aggregator(
            seed, scale.fleet, "lightclient", rng, params, instances
        )
        history = self.aggregator.run(HISTORY_EPOCHS)
        executor.close()  # the history is settled; nothing proves from here on
        self.epochs = [settlement.epoch for settlement in history]
        self.history_gas_per_audit = statistics.median(
            settlement_gas_per_audit(settlement) for settlement in history
        )
        # The aggregator withholds a quarter of one lane-epoch's chunks.
        withheld_epoch = self.epochs[-1]
        withheld_lane = rng.choice(sorted(history[-1].lanes))
        self.withheld = (withheld_epoch, withheld_lane)
        da_bundle = self.aggregator.settlement_for_epoch(withheld_epoch).lanes[withheld_lane].da
        n = da_bundle.commitment.n
        hidden = sorted(rng.sample(range(n), max(1, round(WITHHELD_FRACTION * n))))
        da_bundle.withhold(hidden)
        self.names = sorted(self.aggregator.export_instance_registry())
        rng.shuffle(self.names)
        self.lane_epochs = [
            (settlement.epoch, lane)
            for settlement in history for lane in sorted(settlement.lanes)
        ]
        rng.shuffle(self.lane_epochs)
        self.sample_seed = rng.getrandbits(64).to_bytes(8, "big")
        self.light = CheckpointLightClient(
            self.aggregator.export_instance_registry(), params, beacon,
            fabric_lanes=scale.fleet.lanes,
        )
        self.input_digest = digest(
            payload_digest, *self.withheld, *hidden, self.sample_seed
        )
        self.setup_digest = digest(
            *(settlement_digest(settlement) for settlement in history),
            self.fabric.state_hash(),
        )
        self.server = self.client = self.sampler = None
        self.step_index = 0
        self.audit_index = 0
        self.ops: list[tuple[float, float]] = []
        self.audit_ops: list[tuple[float, float]] = []
        self.sampled_bytes = self.sampled_leaves = 0
        self.withheld_passes = self.withheld_flagged = 0
        self.rounds = 0
        self._trajectory = hashlib.sha256()

    def _connect(self) -> None:
        """Start the server and connect; deferred to the first step so
        that no executor forks while a server thread runs."""
        from repro.da import DaSampler
        from repro.obs import MetricsRegistry
        from repro.rpc import RpcClient, RpcDispatcher, RpcTcpServer, ServiceNode

        registry = MetricsRegistry()
        dispatcher = RpcDispatcher(registry=registry)
        ServiceNode(self.fabric, aggregator=self.aggregator).register_on(dispatcher)
        self.server = RpcTcpServer(dispatcher, host="127.0.0.1", port=0)
        host, port = self.server.serve_in_thread()
        self.client = RpcClient(host, port)
        self.sampler = DaSampler(self._fetch, registry=registry)

    def _fetch(self, lane, epoch, indices):
        from repro.da import NmtProof

        reply = self.client.call(
            "da_sample_get", {"epoch": epoch, "lane": lane, "indices": list(indices)}
        )
        return {
            row["index"]: (
                (bytes.fromhex(row["data"]), NmtProof.from_object(row["proof"]))
                if row["available"] else None
            )
            for row in reply["chunks"]
        }

    def _commitments(self, epoch: int, lane: int | None = None):
        from repro.da import DaCommitment

        params = {"epoch": epoch} if lane is None else {"epoch": epoch, "lane": lane}
        listing = self.client.call("da_commitment_get", params)
        return [DaCommitment.from_bytes(bytes.fromhex(row["commitment"]))
                for row in listing["lanes"]]

    def step(self) -> None:
        if self.client is None:
            self._connect()
        index = self.step_index
        self.step_index += 1
        if (index + 1) % self.scale.audit_every == 0:
            self._full_audit()
        else:
            self._session(index)

    def _session(self, index: int) -> None:
        epoch = self.epochs[index % len(self.epochs)]
        name = self.names[index % len(self.names)]
        seed = self.sample_seed + index.to_bytes(8, "big")
        with self.recorder.root(f"session-{index}"):
            t0 = time.perf_counter()
            reports = [
                self.sampler.sample(commitment, seed, budget=self.scale.samples)
                for commitment in self._commitments(epoch)
            ]
            checkpoint = self.client.call("checkpoint_get", {"epoch": epoch})
            proof = self.client.call(
                "fabric_proof_get", {"name": str(name), "epoch": epoch}
            )
            self.ops.append((t0, time.perf_counter()))
        lanes = {row["lane"]: row for row in checkpoint["lanes"]}
        for report in reports:
            commitment = report.commitment
            lane = lanes[commitment.lane_id]
            self.sampled_bytes += report.downloaded_bytes
            self.sampled_leaves += lane["accepted"] + lane["rejected"]
            self.checks.check(
                lane["root"] == commitment.checkpoint_root.hex(),
                f"session {index}: DA commitment bound to another checkpoint",
            )
            if (epoch, commitment.lane_id) == self.withheld:
                self.withheld_passes += 1
                self.withheld_flagged += not report.available
            else:
                self.checks.check(
                    report.available,
                    f"session {index}: lane {commitment.lane_id} epoch {epoch} "
                    "flagged although every chunk is served",
                )
        self.checks.check(
            proof["verified"] is True and proof["name"] == str(name),
            f"session {index}: fabric inclusion proof not verified",
        )
        self._trajectory.update(digest(
            checkpoint["fabric_root"], proof["lane_id"],
            *(report.available for report in reports),
        ).encode())

    def _full_audit(self) -> None:
        from repro.rollup import Checkpoint

        epoch, lane = self.lane_epochs[self.audit_index % len(self.lane_epochs)]
        self.audit_index += 1
        with self.recorder.root(f"audit-{self.audit_index}"):
            t0 = time.perf_counter()
            (commitment,) = self._commitments(epoch, lane)
            checkpoint = self.client.call("checkpoint_get", {"epoch": epoch})
            (row,) = [row for row in checkpoint["lanes"] if row["lane"] == lane]
            lane_checkpoint = Checkpoint.from_bytes(bytes.fromhex(row["commitment"]))
            reconstruction = self.sampler.reconstruct(commitment, self.sample_seed)
            report = self.light.replay_reconstructed(lane_checkpoint, reconstruction)
            self.audit_ops.append((t0, time.perf_counter()))
        self.rounds += report.rounds_checked
        self.checks.check(
            report.consistent and report.rounds_checked == lane_checkpoint.num_leaves,
            f"full audit of lane {lane} epoch {epoch} is not consistent",
        )
        self._trajectory.update(digest(epoch, lane, report.agreements).encode())

    def finish(self) -> None:
        """Close the run's checks: a full audit ran and withholding showed."""
        if self.client is None:
            self._connect()
        if not self.rounds:
            self._full_audit()
        epoch, lane = self.withheld
        while self.withheld_passes < MIN_WITHHELD_PASSES:
            (commitment,) = self._commitments(epoch, lane)
            seed = self.sample_seed + b"finish" + bytes([self.withheld_passes])
            report = self.sampler.sample(commitment, seed, self.scale.samples)
            self.withheld_passes += 1
            self.withheld_flagged += not report.available
        # A pass misses the withholding only when all its samples land on
        # served chunks; demand the analytic detection rate less 4 sigma.
        n = self.aggregator.settlement_for_epoch(self.withheld[0]).lanes[
            self.withheld[1]].da.commitment.n
        hidden = max(1, round(WITHHELD_FRACTION * n))
        detect = 1 - math.comb(n - hidden, self.scale.samples) / math.comb(
            n, self.scale.samples)
        passes = self.withheld_passes
        floor = passes * detect - 4 * math.sqrt(passes * detect * (1 - detect))
        self.checks.check(
            self.withheld_flagged >= max(1.0, floor),
            f"withheld lane-epoch flagged in {self.withheld_flagged} of "
            f"{passes} sampling passes (expected rate {detect:.4f})",
        )

    @property
    def busy_s(self) -> float:
        return sum(durations(self.ops + self.audit_ops, None))

    def trajectory(self) -> str:
        return self._trajectory.hexdigest()

    def trace_counts(self) -> dict[str, float]:
        return {}

    def metrics(self, pace: Pace | None) -> dict[str, float]:
        return {
            "audits_per_s": self.rounds / sum(durations(self.audit_ops, pace)),
            "op_ms.p50": statistics.median(durations(self.ops, pace)) * 1e3,
            "gas_per_audit": self.history_gas_per_audit,
            "bytes_per_audit": self.sampled_bytes / self.sampled_leaves,
        }

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.server.close()
        self.aggregator.close()
        self.fabric.close()


WORLDS = {
    "settle": SettleWorld,
    "lifecycle": LifecycleWorld,
    "lightclient": LightClientWorld,
}
