"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py            # from the repository root
    python3 -m pytest perfbench/selftest.py  # the same checks under pytest

Checks that every named metric is emitted with its unit under a
well-formed name, that the seed changes the inputs but not the metric
set, that a corrupted proof is counted as a failed operation, that the
committed ``BENCHMARK.json`` and ``layers.json`` match ``spec.py`` and the
benchmark-file format, and that the benchmark refuses to run without the
program.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_every_metric_emitted_with_unit():
    for workload in spec.WORKLOADS:
        for trace, definitions in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, proc.stderr[-2000:]
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == set(definitions), workload
            for name, figure in result["metrics"].items():
                assert NAME.match(name), name
                assert figure["unit"] == definitions[name][0], name
                assert isinstance(figure["value"], (int, float)), name
            if trace == 0:
                assert all(f["value"] > 0 for f in result["metrics"].values()), result


def _world(workload: str, seed: int):
    from workloads import WORLDS, Checks

    checks = Checks()
    world = WORLDS[workload](seed, True, checks)
    return world, checks


def test_seed_changes_inputs_not_metric_set():
    for workload in spec.WORKLOADS:
        digests, metric_sets = [], []
        for seed in (1, 2, 1):
            world, checks = _world(workload, seed)
            try:
                world.step()
                world.finish()
                digests.append(world.input_digest)
                metric_sets.append(set(world.metrics(None)))
            finally:
                world.close()
            assert checks.failed == 0, checks.notes
        assert digests[0] != digests[1], workload
        assert digests[0] == digests[2], workload
        assert metric_sets[0] == metric_sets[1] == metric_sets[2]


def test_corrupted_proof_is_a_failed_operation():
    from repro.core.prover import Prover
    from repro.crypto.bn254 import CURVE_ORDER

    world, checks = _world("settle", 5)
    try:
        honest = sorted(set(world.executor.instances) - world.replay)[0]
        instance = world.executor.instances[honest]
        prover = Prover(instance.chunked, instance.public,
                        list(instance.authenticators), rng=random.Random(7))

        def corrupted(challenge, epoch):
            proof = prover.respond_private(challenge)
            return dataclasses.replace(
                proof, y_masked=(proof.y_masked + 1) % CURVE_ORDER
            )

        world.aggregator.set_override(honest, corrupted)
        world.step()
    finally:
        world.close()
    assert checks.failed >= 1
    assert any("rejected" in note for note in checks.notes), checks.notes


def test_spec_files_match_and_meet_the_contract():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark == spec.benchmark_json()
    assert json.loads((HERE / "layers.json").read_text()) == spec.layers_json()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    names = []
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    bounds = {}
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for moves in spec.PER_LAYER.values():
        for metric, workload in moves[3]:
            assert metric in spec.END_TO_END and workload in spec.WORKLOADS


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("settle", 0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
