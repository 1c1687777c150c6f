"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RUNS_DIR

Each directory holds the standard output of ``run.py`` runs, one file per
run (``sweep.py`` writes them).  For every workload and metric the
two-set form prints each side's median and quartiles, the fraction of
seed-paired runs the new side wins (ties count for neither), and a
verdict against the bound in ``spec.py``:

* ``worse``      -- the new median is worse than the base median by more
                    than the bound;
* ``improved``   -- the new side wins at least 9 of 10 pairs and the
                    medians differ by more than the base quartile spread;
* ``unresolved`` -- the base runs spread wider than the bound and not
                    every new run beats every base run;
* ``unchanged``  -- otherwise.

Per-layer metrics have no bound and get no verdict.  Same-seed runs must
report the same set-up digest; a mismatch is printed and exits 1.  The
one-set form prints each end-to-end metric's quartile spread as a share
of its median, against its bound, and exits 1 when one exceeds it
(``setup_s`` excepted) or a run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import spec


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {"info", "result"} for every run file."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = [line for line in path.read_text().splitlines() if line.startswith("{")]
        if len(lines) < 2:
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        if "workload" not in info or "metrics" not in result:
            continue
        key = info["seed"] if not info.get("trace") else f"{info['seed']}t"
        runs[info["workload"]][key] = {"info": info, "result": result}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def series(runs: dict[int, dict], metric: str) -> dict:
    return {
        seed: run["result"]["metrics"][metric]["value"]
        for seed, run in runs.items() if metric in run["result"]["metrics"]
    }


def verdict(base: list[float], new: list[float], better: str, bound: float,
            wins: float) -> str:
    sign = 1 if better == "lower" else -1
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    if sign * (new_median - base_median) > bound * abs(base_median):
        return "worse"
    if wins >= 0.9 and abs(new_median - base_median) > q3 - q1:
        return "improved"
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def pair_wins(base: dict, new: dict, better: str) -> tuple[float, int]:
    """Fraction of pairs the new side wins: by seed, else by order."""
    common = sorted(set(base) & set(new), key=str)
    if common:
        pairs = [(base[seed], new[seed]) for seed in common]
    else:
        pairs = list(zip((base[s] for s in sorted(base, key=str)),
                         (new[s] for s in sorted(new, key=str))))
    if not pairs:
        return 0.0, 0
    wins = sum(1 for b, n in pairs if (n < b if better == "lower" else n > b))
    return wins / len(pairs), len(pairs)


def definitions():
    for name, (unit, better, bound, _) in spec.END_TO_END.items():
        yield name, unit, better, bound
    for name, (unit, better, _, _) in spec.PER_LAYER.items():
        yield name, unit, better, None


def digest_mismatches(base_runs, new_runs) -> list[str]:
    problems = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        for seed in sorted(set(base_runs[workload]) & set(new_runs[workload]), key=str):
            a = base_runs[workload][seed]["info"].get("setup_digest")
            b = new_runs[workload][seed]["info"].get("setup_digest")
            if a != b:
                problems.append(f"{workload} seed {seed}: set-up digest {a} != {b}")
    return problems


def _cell(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(base_dir: Path, new_dir: Path) -> int:
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    print(f"{'workload':<12} {'metric':<26} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'delta':>8} {'wins':>9}  verdict")
    for workload in sorted(set(base_runs) & set(new_runs)):
        for name, unit, better, bound in definitions():
            base = series(base_runs[workload], name)
            new = series(new_runs[workload], name)
            if not base or not new:
                continue
            bq, nq = quartiles(list(base.values())), quartiles(list(new.values()))
            wins, pairs = pair_wins(base, new, better)
            delta = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            label = "-" if bound is None else verdict(
                list(base.values()), list(new.values()), better, bound, wins)
            print(f"{workload:<12} {name:<26} {_cell(bq):<34} {_cell(nq):<34} "
                  f"{delta:>+8.1%} {wins:>5.0%}/{pairs:<3}  {label} ({unit})")
    problems = digest_mismatches(base_runs, new_runs)
    for problem in problems:
        print(f"DIGEST MISMATCH {problem}")
    return 1 if problems else 0


def check_spread(directory: Path) -> int:
    runs = load_runs(directory)
    status = 0
    for workload in sorted(runs):
        results = [run["result"] for run in runs[workload].values()]
        incorrect = sum(1 for result in results if not result["correct"])
        print(f"{workload}: {len(results)} runs, {incorrect} incorrect")
        status |= incorrect > 0
        for name, (unit, _, bound, _) in spec.END_TO_END.items():
            values = list(series(runs[workload], name).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            share = spread(values)
            flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            if share > bound and name != "setup_s":
                status = 1
            print(f"  {name:<18} median {median:<12.5g} [{q1:.5g}, {q3:.5g}] {unit:<9}"
                  f" spread {share:6.1%} (bound {bound:.0%}) {flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark run sets")
    parser.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    if len(args.dirs) == 1:
        return check_spread(args.dirs[0])
    if len(args.dirs) == 2:
        return compare(*args.dirs)
    parser.error("give one directory (spread check) or two (base, new)")
    return 2


if __name__ == "__main__":
    sys.exit(main())
