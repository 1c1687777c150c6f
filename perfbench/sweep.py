"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/sweep.py --out perfbench/out/base --runs 10
    python3 perfbench/compare.py perfbench/out/base

Runs are sequential (one benchmark process at a time) from the
repository root; each run's standard output lands in
``OUT/<workload>-<seed>-t<trace>.out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    runner = Path(__file__).resolve().parent / "run.py"
    failures = 0
    for workload in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            path = args.out / f"{workload}-{seed}-t{args.trace}.out"
            with open(path, "w", encoding="utf-8") as out:
                code = subprocess.run(
                    [sys.executable, str(runner), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    stdout=out, check=False,
                ).returncode
            failures += code != 0
            print(f"{workload} seed {seed}: exit {code} -> {path}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
