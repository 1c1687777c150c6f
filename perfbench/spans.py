"""Span recording for the traced benchmark run.

The benchmark attributes wall time to layers without touching the
program: :func:`instrument` wraps the public entry point of every layer
(``repro.core``, ``repro.engine``, ``repro.rollup``, ``repro.chain``,
``repro.da``, ``repro.storage``, ``repro.rpc``) in a span, and
:class:`BridgeTracer` routes the spans the lifecycle engine and epoch
scheduler already emit through a public ``tracer=`` parameter into the
same recorder.  BN254 legs come from the program's own gated profiler
(``repro.obs.HOTPATH``), which sees in-process work only.

Spans are kept in memory as ``(name, start, end, parent, trace id,
thread)`` rows and written out as JSON lines when the run ends.  A span's
self time is its duration minus its children's; the self time of the
per-operation root spans is the ``unattributed`` share.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, class or None, attribute, span name).  Functions a module
#: imported by name are patched where they are looked up.
TARGETS = (
    ("repro.core.protocol", "DataOwner", "prepare", "core.prepare"),
    ("repro.core.prover", "Prover", "respond_private", "core.prove"),
    ("repro.core.verifier", "Verifier", "verify_private", "core.verify_private"),
    ("repro.engine.scheduler", None, "verify_batch_grouped", "core.batch_verify"),
    ("repro.engine.scheduler", "EpochScheduler", "run_epoch", "engine.run_epoch"),
    ("repro.engine.executor", "AuditExecutor", "prove", "engine.prove"),
    ("repro.engine.executor", "AuditExecutor", "register", "engine.register"),
    ("repro.rollup.fabric", "CrossShardAggregator", "settle_epoch", "rollup.settle_epoch"),
    ("repro.rollup.pipeline", "CheckpointPipeline", "settle_epoch", "rollup.pipeline_settle"),
    ("repro.rollup.checkpoint", None, "build_epoch_checkpoint", "rollup.checkpoint_build"),
    ("repro.rollup.fabric", None, "build_fabric_checkpoint", "rollup.fabric_checkpoint"),
    ("repro.lifecycle.engine", None, "build_fabric_checkpoint", "rollup.fabric_checkpoint"),
    ("repro.lifecycle.engine", None, "build_checkpoint", "rollup.checkpoint_build"),
    ("repro.lifecycle.engine", None, "records_from_epoch", "rollup.records"),
    ("repro.chain.blockchain", "Blockchain", "transact", "chain.transact"),
    ("repro.chain.blockchain", "Blockchain", "deploy", "chain.deploy"),
    ("repro.chain.blockchain", "Blockchain", "submit", "chain.mempool.submit"),
    ("repro.chain.blockchain", "Blockchain", "mine_block", "chain.mine"),
    ("repro.chain.mempool.pool", "Mempool", "drain_into_block", "chain.mempool.mine"),
    ("repro.chain.light_client", "CheckpointLightClient", "replay_reconstructed",
     "lightclient.replay"),
    ("repro.da.commit", None, "build_da_bundle", "da.bundle_build"),
    ("repro.da.sampling", "DaSampler", "sample", "da.sample"),
    ("repro.da.sampling", "DaSampler", "reconstruct", "da.reconstruct"),
    ("repro.da.sampling", None, "verify_nmt_proof", "da.sample_verify"),
    ("repro.da.sampling", None, "reconstruct_records", "da.decode_records"),
    ("repro.storage.erasure", "ReedSolomonCode", "encode", "storage.rs_encode"),
    ("repro.storage.erasure", "ReedSolomonCode", "decode", "storage.rs_decode"),
    ("repro.storage.node", "DsnClient", "repair", "storage.repair"),
    ("repro.rpc.client", "RpcClient", "call", "rpc.roundtrip"),
    ("repro.rpc.service", "RpcDispatcher", "handle_raw", "rpc.handler"),
)

#: Span names the lifecycle engine and epoch scheduler emit, mapped to
#: benchmark span names (their layer is the prefix).
BRIDGED = {
    "epoch": "lifecycle.epoch",
    "churn": "lifecycle.churn",
    "audit": "lifecycle.audit",
    "settle": "lifecycle.settle",
    "report": "lifecycle.report",
    "repair": "lifecycle.repair",
    "evict": "lifecycle.evict",
    "finalize": "lifecycle.finalize",
    "mine": "lifecycle.mine",
    "post": "lifecycle.post",
    "challenge": "engine.challenge",
    "prove": "engine.prove_phase",
    "verify": "engine.verify_phase",
    "checkpoint_build": "rollup.checkpoint_phase",
}

#: The layer a span name belongs to (``lightclient`` is part of ``chain``).
LAYER_OF_PREFIX = {"lightclient": "chain"}
ROOT = "op"


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return LAYER_OF_PREFIX.get(prefix, prefix)


class Recorder:
    """In-memory span store with per-thread nesting."""

    def __init__(self):
        self.active = False
        self.rows: list[list] = []   # [name, start, end, parent, trace, thread]
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.trace_id = ""
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        row = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
               self.trace_id, threading.get_ident()]
        with self._lock:
            index = len(self.rows)
            self.rows.append(row)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.rows[index][2] = time.perf_counter()
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError(f"span {self.rows[index][0]!r} closed out of order")

    def span(self, name: str):
        return _Span(self, name) if self.active else _NULL

    def root(self, trace_id: str):
        """The per-operation root span (one epoch or one session)."""
        if not self.active:
            return _NULL
        self.trace_id = trace_id
        return _Span(self, ROOT)

    @contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace, thread in self.rows:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "trace": trace, "thread": thread},
                    separators=(",", ":"),
                ) + "\n")

    def times(self):
        """Per span name: inclusive seconds, self seconds and calls.

        Self time is only partitioned inside root spans on the driving
        thread; inclusive time counts outermost spans of a name on any
        thread (server-side handlers included).  Also returns the summed
        root wall time and root self time (the unattributed part).
        """
        rows = self.rows
        root_of = [-1] * len(rows)
        child_time = [0.0] * len(rows)
        for index, (name, start, end, parent, _, _) in enumerate(rows):
            if name == ROOT:
                root_of[index] = index
            elif parent >= 0:
                root_of[index] = root_of[parent]
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_wall = root_self = 0.0
        for index, (name, start, end, parent, _, _) in enumerate(rows):
            own = (end - start) - child_time[index]
            if name == ROOT:
                root_wall += end - start
                root_self += own
                continue
            calls[name] += 1
            ancestor = parent
            while ancestor >= 0 and rows[ancestor][0] != name:
                ancestor = rows[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
            if root_of[index] >= 0:
                self_s[name] += own
        return inclusive, self_s, calls, root_wall, root_self


class _Span:
    __slots__ = ("_rec", "_name", "_index")

    def __init__(self, rec: Recorder, name: str):
        self._rec = rec
        self._name = name

    def __enter__(self):
        self._index = self._rec.open(self._name)
        return self

    def __exit__(self, *exc):
        self._rec.close(self._index)
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


def bridge_tracer(recorder: Recorder):
    """A ``repro.obs.Tracer`` whose spans land in ``recorder``.

    Passed through the public ``tracer=`` parameter of
    ``LifecycleEngine``; the engine hands it on to its epoch schedulers.
    """
    from repro.obs.tracing import Tracer

    class BridgeTracer(Tracer):
        def span(self, name: str, **attrs):
            return recorder.span(BRIDGED.get(name, f"lifecycle.{name}"))

    return BridgeTracer()


def _observe(recorder: Recorder, span_name: str, args, result) -> None:
    """Counts read off a wrapped call's arguments and result."""
    if span_name == "chain.transact":
        recorder.count("chain.gas_used", getattr(result, "gas_used", 0))
    elif span_name == "engine.run_epoch":
        recorder.count("engine.prove_s", result.prove_seconds)
        recorder.count("engine.verify_s", result.verify_seconds)
        recorder.count("engine.audits", result.num_audits)
    elif span_name == "da.sample":
        recorder.count("da.bytes_fetched", result.downloaded_bytes)
        recorder.count("da.samples", len(result.outcomes))
        recorder.count("da.samples_ok", sum(1 for o in result.outcomes if o.ok))


def _wrap(fn, span_name: str, recorder: Recorder, caches: dict):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        if span_name == "engine.run_epoch":
            cache = args[0].cache
            caches.setdefault(id(cache), (cache, cache.stats.hits, cache.stats.misses))
        index = recorder.open(span_name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.errors[span_name] += 1
            raise
        finally:
            recorder.close(index)
        _observe(recorder, span_name, args, result)
        return result

    return wrapper


def instrument(recorder: Recorder):
    """Wrap every target; returns (undo, cache deltas callback)."""
    caches: dict = {}
    undo = []
    for module_name, class_name, attr, span_name in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        setattr(owner, attr, _wrap(original, span_name, recorder, caches))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def cache_delta() -> tuple[int, int]:
        hits = misses = 0
        for cache, hits0, misses0 in caches.values():
            hits += cache.stats.hits - hits0
            misses += cache.stats.misses - misses0
        return hits, misses

    return restore, cache_delta


LIFECYCLE_PHASES = (
    "churn", "audit", "settle", "report", "repair", "evict", "finalize", "mine",
)
PARTITIONED_LAYERS = (
    "core", "engine", "rollup", "chain", "da", "storage", "rpc", "lifecycle",
)


def layer_metrics(recorder: Recorder, hotpath: dict, cache: tuple[int, int]) -> dict:
    """The traced run's per-layer figures (``PER_LAYER`` in spec.py)."""
    inclusive, self_s, calls, root_wall, root_self = recorder.times()
    counters = recorder.counters
    metrics = {
        "engine.prove_s": counters["engine.prove_s"],
        "engine.verify_s": counters["engine.verify_s"],
        "engine.audits": counters["engine.audits"],
    }
    for leg in ("msm", "miller_loop", "final_exp"):
        figures = hotpath.get(f"bn254.{leg}", {})
        metrics[f"bn254.{leg}.calls"] = figures.get("calls", 0)
        metrics[f"bn254.{leg}_s"] = figures.get("seconds", 0.0)
    hits, misses = cache
    metrics["bn254.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    for span in ("core.prepare", "core.prove", "core.verify_private",
                 "core.batch_verify", "chain.transact"):
        metrics[f"{span}.calls"] = calls[span]
        metrics[f"{span}_s"] = inclusive[span]
    for span in ("rollup.checkpoint_build", "rollup.fabric_checkpoint",
                 "da.bundle_build", "storage.rs_encode", "storage.rs_decode",
                 "storage.repair", "chain.mempool.submit", "chain.mempool.mine",
                 "chain.mine", "rpc.roundtrip", "rpc.handler", "da.sample_verify",
                 "da.reconstruct", "lightclient.replay"):
        metrics[f"{span}_s"] = inclusive[span]
    metrics["chain.gas_used"] = counters["chain.gas_used"]
    for phase in LIFECYCLE_PHASES:
        metrics[f"lifecycle.{phase}_s"] = inclusive[f"lifecycle.{phase}"]
    metrics["rpc.wire_s"] = inclusive["rpc.roundtrip"] - inclusive["rpc.handler"]
    metrics["rpc.calls"] = calls["rpc.roundtrip"]
    metrics["rpc.errors"] = recorder.errors["rpc.roundtrip"]
    metrics["da.bytes_fetched"] = counters["da.bytes_fetched"]
    samples = counters["da.samples"]
    metrics["da.sample_ok_ratio"] = counters["da.samples_ok"] / samples if samples else 0.0
    for layer in PARTITIONED_LAYERS:
        metrics[f"layer.{layer}_s"] = sum(
            seconds for name, seconds in self_s.items() if layer_of(name) == layer
        )
    metrics["unattributed_s"] = root_self
    metrics["unattributed_share"] = root_self / root_wall if root_wall else 0.0
    metrics["trace.spans"] = len(recorder.rows)
    return metrics
