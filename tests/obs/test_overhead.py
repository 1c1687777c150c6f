"""The observability layer must be (nearly) free when idle.

Two guards, both against the ≤3% budget the issue sets:

* the crypto hot-path gate, disabled (the production default), must cost
  no more than one attribute check per call — measured by timing the
  gated public entry point against the ungated implementation it wraps;
* a fully instrumented epoch pipeline (registry instruments live, tracer
  attached) must stay within budget of the same pipeline run bare
  (NULL tracer, profiler off).

Each guard times many back-to-back pairs (one call per side, with the
side that runs first alternating from pair to pair and the GC parked) and
takes the median of the per-pair time ratios.  Pairing makes frequency
and scheduler drift hit both sides equally, alternation cancels the
first-runner bias, and the median ignores the pairs a preemption hit.
On a shared 1-core host a best-of-N total swung by up to ±12% timing a
function against itself even at 100 repeats; the per-pair median stays
within about ±1% at ``PAIRS`` pairs for the crypto gates and within
about ±2% at ``PIPELINE_PAIRS`` for the epoch pipeline.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import pytest

from repro.core import DataOwner, ProtocolParams
from repro.crypto.bn254 import G1Point, G2Point
from repro.crypto.bn254.msm import _multi_scalar_mul, multi_scalar_mul
from repro.crypto.bn254.pairing import _miller_loop, miller_loop, prepare_g2
from repro.engine import AuditExecutor, AuditInstance
from repro.engine.scheduler import EpochScheduler
from repro.obs import Tracer
from repro.obs.hotpath import HOTPATH
from repro.randomness import HashChainBeacon
from repro.sim.workloads import archive_file

OVERHEAD_BUDGET = 0.03
PAIRS = 200
PIPELINE_PAIRS = 31


def _paired_overhead(fn_a, fn_b, pairs=PAIRS):
    """Median over ``pairs`` of a's time / b's time, minus one.

    Each pair runs one call per side back to back, alternating which side
    goes first; the GC is parked throughout.
    """
    ratios = []
    gc.disable()
    try:
        for pair in range(pairs):
            elapsed = [0.0, 0.0]
            order = ((0, fn_a), (1, fn_b))
            for side, fn in order if pair % 2 == 0 else order[::-1]:
                t0 = time.perf_counter()
                fn()
                elapsed[side] = time.perf_counter() - t0
            ratios.append(elapsed[0] / elapsed[1])
    finally:
        gc.enable()
    return statistics.median(ratios) - 1.0


def test_disabled_hotpath_gate_is_within_budget():
    HOTPATH.disable()
    rng = random.Random(11)
    points = [G1Point.generator() * rng.randrange(1, 2**64) for _ in range(8)]
    scalars = [rng.randrange(1, 2**128) for _ in range(8)]

    overhead = _paired_overhead(
        lambda: multi_scalar_mul(points, scalars),
        lambda: _multi_scalar_mul(points, scalars),
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"disabled hot-path gate costs {overhead:.1%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_disabled_gate_on_prepared_pairing_is_within_budget():
    """The prepared-line Miller loop is the new warm verify path; its
    HOTPATH gate must stay one attribute check when profiling is off."""
    HOTPATH.disable()
    p = G1Point.generator() * 123456789
    prepared = prepare_g2(G2Point.generator() * 987654321)

    overhead = _paired_overhead(
        lambda: miller_loop(p, prepared),
        lambda: _miller_loop(p, prepared),
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"disabled prepared-pairing gate costs {overhead:.1%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_hotpath_reports_prepared_miller_loop_leg():
    """Profiling on: the prepared path must attribute time to the
    bn254.miller_loop leg so `repro top` / fig8 stay truthful."""
    HOTPATH.enable()
    try:
        HOTPATH.reset()
        p = G1Point.generator() * 31337
        prepared = prepare_g2(G2Point.generator() * 271828)
        miller_loop(p, prepared)
        snapshot = HOTPATH.snapshot()
    finally:
        HOTPATH.disable()
    leg = snapshot["bn254.miller_loop"]
    assert leg["calls"] == 1 and leg["seconds"] > 0.0


def test_instrumented_epoch_pipeline_is_within_budget():
    params = ProtocolParams(s=3, k=2)
    owner = DataOwner(params, rng=random.Random(5))
    instances = [
        AuditInstance.from_package(
            owner.prepare(
                archive_file(400, tag=f"ovh-{i}").data, fresh_keypair=i == 0
            ),
            owner_id="ovh",
        )
        for i in range(2)
    ]
    with AuditExecutor(instances, workers=1) as executor:
        beacon = HashChainBeacon(b"overhead")

        def run(tracer, profiled):
            if profiled:
                HOTPATH.enable()
            try:
                scheduler = EpochScheduler(
                    executor,
                    params,
                    beacon,
                    deterministic=True,
                    tracer=tracer,
                )
                scheduler.run(2)
            finally:
                HOTPATH.disable()

        overhead = _paired_overhead(
            lambda: run(Tracer(deterministic=True), profiled=True),
            lambda: run(None, profiled=False),
            pairs=PIPELINE_PAIRS,
        )
    assert overhead <= OVERHEAD_BUDGET, (
        f"instrumented pipeline costs {overhead:.1%} over bare "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_null_tracer_span_is_allocation_free():
    tracer_span = Tracer(enabled=False).span
    contexts = {id(tracer_span("a")), id(tracer_span("b", epoch=1))}
    assert len(contexts) == 1
