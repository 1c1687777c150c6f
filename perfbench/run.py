"""End-to-end benchmark of the audit system: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload settle --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it runs half the time untraced
on one world and the same number of operations traced on a second world
built from the same seed, and reports the per-layer split plus the
tracing overhead.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metrics, bounds
and the layer map live in ``spec.py``; ``--write-spec`` regenerates
``BENCHMARK.json`` and ``perfbench/layers.json`` from it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spec

SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny fleet sizes (the self-test's scale)")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and perfbench/layers.json")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def write_spec(root: Path) -> None:
    for path, body in ((root / "BENCHMARK.json", spec.benchmark_json()),
                       (HERE / "layers.json", spec.layers_json())):
        path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")


def load_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {root / 'src'}; run from the "
                 "repository root")
    sys.path.insert(0, str(root / "src"))


def run_for(world, seconds: float, pace) -> int:
    """Closed loop: step until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    steps = 0
    pace.sample(force=True)
    while True:
        world.step()
        pace.sample()
        steps += 1
        if time.perf_counter() >= deadline:
            break
    world.finish()
    pace.sample(force=True)
    return steps


def build_worlds(world_cls, args, checks, keep, recorder):
    """Set up ``SETUP_REPEATS`` worlds from one seed; keep the last ``keep``.

    The last world is built with ``recorder`` (traced run).  Every build
    of one seed must produce the same setup digest.
    """
    from workloads import UNTRACED

    setup_seconds, digests, worlds = [], [], []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        world = world_cls(args.seed, args.tiny, checks,
                          recorder=recorder if last else UNTRACED)
        setup_seconds.append(time.perf_counter() - t0)
        digests.append(world.setup_digest)
        worlds.append(world)
        while len(worlds) > keep:
            worlds.pop(0).close()
    checks.check(len(set(digests)) == 1,
                 "set-ups from one seed produced different digests")
    return worlds, statistics.median(setup_seconds)


def measure(args, checks) -> tuple[dict, dict]:
    from workloads import UNTRACED, WORLDS, Pace, op_percentiles

    worlds, setup_s = build_worlds(WORLDS[args.workload], args, checks, 1, UNTRACED)
    (world,) = worlds
    pace = Pace()
    try:
        steps = run_for(world, args.seconds, pace)
        scale = pace if world.SCALED else None
        values = world.metrics(scale)
        info = {"steps": steps, "setup_digest": world.setup_digest,
                "trajectory": world.trajectory(),
                "op_ms": op_percentiles(world.ops, scale),
                "wall": {**world.metrics(None), "op_ms": op_percentiles(world.ops, None)},
                "kernel_ms.p50": statistics.median(pace.seconds) * 1e3}
    finally:
        world.close()
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, info


def measure_traced(args, checks) -> tuple[dict, dict]:
    """Two same-seed worlds step in alternating order, one of them traced.

    Alternating which world goes first shares out the process-wide warm
    state they both use, so the traced/untraced wall-time ratio is the
    tracing overhead; the worlds must also stay step-for-step identical.
    """
    from repro.obs import HOTPATH
    from spans import Recorder, instrument, layer_metrics
    from workloads import WORLDS, op_percentiles

    recorder = Recorder()
    (plain, traced), _ = build_worlds(WORLDS[args.workload], args, checks, 2, recorder)
    restore, cache_delta = instrument(recorder)
    HOTPATH.reset()

    def traced_call(fn) -> None:
        recorder.active = True
        HOTPATH.enable()
        try:
            fn()
        finally:
            HOTPATH.disable()
            recorder.active = False

    try:
        deadline = time.perf_counter() + args.seconds
        steps = 0
        while True:
            if steps % 2:
                traced_call(traced.step)
                plain.step()
            else:
                plain.step()
                traced_call(traced.step)
            steps += 1
            if time.perf_counter() >= deadline:
                break
        plain.finish()
        traced_call(traced.finish)
        checks.check(plain.trajectory() == traced.trajectory(),
                     "same-seed worlds diverged over identical operations")
        values = layer_metrics(recorder, HOTPATH.snapshot(), cache_delta())
        values.update({"lifecycle.repairs": 0, "lifecycle.evictions": 0,
                       **traced.trace_counts()})
        values["trace.overhead"] = traced.busy_s / plain.busy_s - 1
        values["op_ms.p99"] = op_percentiles(plain.ops, None)["p99"]
        trajectory = traced.trajectory()
    finally:
        restore()
        plain.close()
        traced.close()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-{args.seed}.jsonl"
    recorder.write_jsonl(spans_path)
    info = {"steps": steps, "setup_digest": traced.setup_digest,
            "trajectory": trajectory,
            "spans": str(spans_path.relative_to(HERE.parent))}
    return values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.write_spec:
        write_spec(root)
        return 0
    load_program(root)
    from workloads import Checks

    checks = Checks()
    if args.trace:
        values, info = measure_traced(args, checks)
        definitions = spec.PER_LAYER
    else:
        values, info = measure(args, checks)
        definitions = spec.END_TO_END
    values["op_fail_ratio"] = checks.failed / checks.attempted
    for note in checks.notes[:20]:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": values[name], "unit": definition[0]}
            for name, definition in definitions.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
