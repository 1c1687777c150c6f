"""The benchmark's definitions: workloads, metrics, bounds and layer map.

One source for ``BENCHMARK.json`` (the benchmark-file format) and
``perfbench/layers.json`` (which per-layer metric should move which
end-to-end metric on which workload); ``python3 perfbench/run.py
--write-spec`` regenerates both, and the self-test fails when either file
drifts from this module.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: name -> (why, loop).  ``why`` is the one-line rationale.
WORKLOADS = {
    "settle": (
        "steady-state aggregator: 64 files, 2 lanes, DA, 2 replay provers a "
        "lane; prove, batch verify and the reject path's per-leaf re-checks "
        "dominate; repair, RPC and keygen idle",
        "closed loop, 1 aggregator settling epochs back to back; executor "
        "workers = one per core (default resolution)",
    ),
    "lifecycle": (
        "churn and repair: LifecycleEngine, RS(4,2), 9 providers, churn "
        "0.4/yr, mempool settlement; re-keying, RS coding and mempool show "
        "here, DA and RPC do not",
        "closed loop, 1 engine running epochs back to back in one 20-year "
        "world; executor workers = 1",
    ),
    "lightclient": (
        "read side: sampling sessions and reconstruct+replay audits over one "
        "RPC connection; RPC, NMT and individual verification show here, "
        "the prover never runs",
        "closed loop, 1 RPC client and 1 server thread in one process; the "
        "settled history is built in set-up with workers = one per core",
    ),
}

#: Operations that run in the benchmark process are timed as wall time
#: scaled to a reference host speed (``Pace`` in workloads.py).
SCALED = (" (wall time scaled to reference host speed by the interleaved "
          "kernel; raw wall figures on the info line)")

#: name -> (unit, better, bound, meaning per workload).
END_TO_END = {
    "audits_per_s": (
        "audits/s", "higher", 0.2,
        {
            "settle": "audits settled on chain per second of epoch wall "
                      "time (64 audits an epoch)",
            "lifecycle": "audits settled on chain per second of epoch time, "
                         "churn and repair included (8 shards)" + SCALED,
            "lightclient": "audit verdicts re-verified per second of full "
                           "reconstruct + replay audit time "
                           "(replay_rounds_per_s)" + SCALED,
        },
    ),
    "op_ms.p50": (
        "ms", "lower", 0.2,
        {
            "settle": "median epoch wall time (epoch_s.p50; ~7 epochs a run)",
            "lifecycle": "median epoch time (epoch_s.p50; ~90 epochs a run)"
                         + SCALED,
            "lightclient": "median sampling session, wire included "
                           "(sample_ms.p50; ~1300 sessions a run)" + SCALED,
        },
    ),
    "gas_per_audit": (
        "gas", "lower", 0.1,
        {
            "settle": "median over epochs of checkpoint + DA-root posting "
                      "gas / audits settled",
            "lifecycle": "median over epochs of commitment gas (instance "
                         "registration + checkpoint posts) / audits settled",
            "lightclient": "median over the audited history's epochs of "
                           "checkpoint + DA-root posting gas / audits",
        },
    ),
    "bytes_per_audit": (
        "B", "lower", 0.05,
        {
            "settle": "checkpoint + DA-root payload bytes posted / audits "
                      "(chain_bytes_per_audit)",
            "lifecycle": "checkpoint payload bytes posted / audits",
            "lightclient": "bytes downloaded by sampling passes / audits the "
                           "sampled lane-epochs hold (sample_bytes per leaf)",
        },
    ),
    "setup_s": (
        "s", "lower", 0.25,
        {
            "settle": "median of 3 world builds: keygen + authenticators for "
                      "64 files, registration, one warm-up epoch",
            "lifecycle": "median of 3 world builds: store + prepare 8 shards, "
                         "stake 9 providers, one warm-up epoch",
            "lightclient": "median of 3 world builds: 64 files prepared and "
                           "2 epochs settled with DA",
        },
    ),
    "peak_rss_mb": (
        "MiB", "lower", 0.1,
        {
            "settle": "peak resident memory of the benchmark process",
            "lifecycle": "peak resident memory of the benchmark process",
            "lightclient": "peak resident memory of the benchmark process "
                           "(client and server share it)",
        },
    ),
}

_AP = "audits_per_s"
_P50 = "op_ms.p50"
_GAS = "gas_per_audit"
_SETUP = "setup_s"

#: name -> (unit, better, layer, [(end-to-end metric, workload), ...]).
PER_LAYER = {
    "engine.prove_s": ("s", "lower", "engine", [(_AP, "settle")]),
    "engine.verify_s": ("s", "lower", "engine", [(_AP, "settle")]),
    "engine.audits": ("count", "higher", "engine", [(_AP, "settle")]),
    "bn254.msm.calls": ("count", "lower", "bn254", [(_AP, "settle")]),
    "bn254.msm_s": ("s", "lower", "bn254", [(_AP, "settle")]),
    "bn254.miller_loop.calls": ("count", "lower", "bn254", [(_AP, "lightclient")]),
    "bn254.miller_loop_s": ("s", "lower", "bn254", [(_AP, "lightclient"), (_AP, "settle")]),
    "bn254.final_exp.calls": ("count", "lower", "bn254", [(_AP, "lightclient")]),
    "bn254.final_exp_s": ("s", "lower", "bn254", [(_AP, "lightclient")]),
    "bn254.cache.hit_rate": ("ratio", "higher", "bn254", [(_AP, "settle")]),
    "core.prepare.calls": ("count", "lower", "core", [(_SETUP, "settle"), (_AP, "lifecycle")]),
    "core.prepare_s": ("s", "lower", "core", [(_SETUP, "settle"), (_AP, "lifecycle")]),
    "core.prove.calls": ("count", "lower", "core", [(_AP, "lifecycle")]),
    "core.prove_s": ("s", "lower", "core", [(_AP, "lifecycle")]),
    "core.verify_private.calls": ("count", "lower", "core", [(_AP, "lightclient")]),
    "core.verify_private_s": ("s", "lower", "core", [(_AP, "lightclient")]),
    "core.batch_verify.calls": ("count", "lower", "core", [(_AP, "settle")]),
    "core.batch_verify_s": ("s", "lower", "core", [(_AP, "settle")]),
    "rollup.checkpoint_build_s": ("s", "lower", "rollup", [(_P50, "settle")]),
    "rollup.fabric_checkpoint_s": ("s", "lower", "rollup", [(_P50, "settle")]),
    "da.bundle_build_s": ("s", "lower", "da", [(_P50, "settle")]),
    "storage.rs_encode_s": ("s", "lower", "storage", [(_P50, "settle"), (_AP, "lifecycle")]),
    "storage.rs_decode_s": ("s", "lower", "storage", [(_AP, "lifecycle"), (_AP, "lightclient")]),
    "storage.repair_s": ("s", "lower", "storage", [(_AP, "lifecycle")]),
    "chain.transact.calls": ("count", "lower", "chain", [(_GAS, "settle"), (_GAS, "lifecycle")]),
    "chain.transact_s": ("s", "lower", "chain", [(_P50, "settle"), (_AP, "lifecycle")]),
    "chain.gas_used": ("gas", "lower", "chain", [(_GAS, "settle"), (_GAS, "lifecycle")]),
    "chain.mempool.submit_s": ("s", "lower", "chain", [(_AP, "lifecycle")]),
    "chain.mempool.mine_s": ("s", "lower", "chain", [(_AP, "lifecycle")]),
    "chain.mine_s": ("s", "lower", "chain", [(_AP, "lifecycle")]),
    "lifecycle.churn_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.audit_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.settle_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.report_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.repair_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.evict_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.finalize_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.mine_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.repairs": ("count", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "lifecycle.evictions": ("count", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "rpc.roundtrip_s": ("s", "lower", "rpc", [(_P50, "lightclient")]),
    "rpc.handler_s": ("s", "lower", "rpc", [(_P50, "lightclient")]),
    "rpc.wire_s": ("s", "lower", "rpc", [(_P50, "lightclient")]),
    "rpc.calls": ("count", "lower", "rpc", [(_P50, "lightclient")]),
    "rpc.errors": ("count", "lower", "rpc", [(_P50, "lightclient")]),
    "da.sample_verify_s": ("s", "lower", "da", [(_P50, "lightclient")]),
    "da.reconstruct_s": ("s", "lower", "da", [(_AP, "lightclient")]),
    "da.bytes_fetched": ("B", "lower", "da", [("bytes_per_audit", "lightclient")]),
    "da.sample_ok_ratio": ("ratio", "higher", "da", [(_P50, "lightclient")]),
    "lightclient.replay_s": ("s", "lower", "chain", [(_AP, "lightclient")]),
    "layer.core_s": ("s", "lower", "core", [(_AP, "settle"), (_AP, "lightclient")]),
    "layer.engine_s": ("s", "lower", "engine", [(_AP, "settle")]),
    "layer.rollup_s": ("s", "lower", "rollup", [(_P50, "settle")]),
    "layer.chain_s": ("s", "lower", "chain", [(_AP, "lifecycle"), (_AP, "lightclient")]),
    "layer.da_s": ("s", "lower", "da", [(_P50, "settle"), (_P50, "lightclient")]),
    "layer.storage_s": ("s", "lower", "storage", [(_AP, "lifecycle")]),
    "layer.rpc_s": ("s", "lower", "rpc", [(_P50, "lightclient")]),
    "layer.lifecycle_s": ("s", "lower", "lifecycle", [(_AP, "lifecycle")]),
    "op_ms.p99": ("ms", "lower", "none", []),
    "unattributed_s": ("s", "lower", "none", []),
    "unattributed_share": ("ratio", "lower", "none", []),
    "trace.overhead": ("ratio", "lower", "none", []),
    "trace.spans": ("count", "lower", "none", []),
    "op_fail_ratio": ("ratio", "lower", "none", []),
}

#: Layers of the repo (``repro.<module>``) the spans attribute time to.
LAYERS = {
    "core": "repro.core: keys, authenticators, prover, verifier, batch",
    "bn254": "repro.crypto.bn254: MSM, Miller loop, final exp, precompute "
             "cache (HOTPATH legs, in-process only; nested inside core)",
    "engine": "repro.engine: executor, scheduler",
    "rollup": "repro.rollup: checkpoint, fabric",
    "chain": "repro.chain: blockchain/fabric, contracts, mempool, light client",
    "da": "repro.da: commit, nmt, sampling",
    "storage": "repro.storage: RS over GF(256), DSN client repair",
    "rpc": "repro.rpc: codec, server, client, node",
    "lifecycle": "repro.lifecycle (+ dsn repair phase)",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }


def layers_json() -> dict:
    return {
        "layers": LAYERS,
        "workloads": {
            name: {"why": why, "loop": loop}
            for name, (why, loop) in WORKLOADS.items()
        },
        "end_to_end": {
            name: {"unit": unit, "better": better, "bound": bound,
                   "meaning": meaning}
            for name, (unit, better, bound, meaning) in END_TO_END.items()
        },
        "per_layer": {
            name: {
                "unit": unit,
                "layer": layer,
                "moves": [{"metric": m, "workload": w} for m, w in moves],
            }
            for name, (unit, _, layer, moves) in PER_LAYER.items()
        },
    }
