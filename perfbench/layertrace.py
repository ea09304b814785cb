"""Per-layer host-time tracing, installed from outside ``src/``.

:func:`install` wraps each layer's public entry points by patching the name
its callers resolve: a method on its class, or a module-level function in the
namespace of the module that calls it (``make_value`` as ``repro.core.striped``
sees it, for instance).  Every wrapped call records one span in memory --
name, start, end and parent, in ``array`` columns -- while the
:class:`Recorder` is active.  :func:`layer_totals` folds the spans into
per-layer self time (a span's duration minus the part its child spans cover)
and per-entry-point call counts; both are what the traced benchmark run
reports.  Nothing here changes what the simulation computes: a wrapper only
times the call it forwards, and the benchmark checks that traced and
untraced rounds give the same simulation digest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: layers in report order (the repo's ``src/repro`` packages)
LAYERS = ("core", "kvstore", "ec", "logstore", "cluster", "sim", "obs", "engine", "workloads")

_NET = ("client_hop", "rpc", "rpc_to", "one_way", "sequential_gets", "parallel_puts",
        "parallel_gets")

#: (span name, module, attribute path) -- the layer is the span name's prefix.
#: Module-level functions are patched in the module whose code calls them.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.write", "repro.core.striped", "StripedStoreBase.write"),
    ("core.read", "repro.core.striped", "StripedStoreBase.read"),
    ("core.update", "repro.core.striped", "StripedStoreBase.update"),
    ("core.degraded_read", "repro.core.striped", "StripedStoreBase.degraded_read"),
    ("core.repair_node", "repro.core.repair", "repair_node"),
    ("kvstore.make_value", "repro.core.striped", "make_value"),
    ("kvstore.chunk_append", "repro.kvstore.chunk", "Chunk.append"),
    ("kvstore.chunk_read_slot", "repro.kvstore.chunk", "Chunk.read_slot"),
    ("kvstore.chunk_write_slot", "repro.kvstore.chunk", "Chunk.write_slot"),
    ("kvstore.object_index_lookup", "repro.kvstore.object_index", "ObjectIndex.lookup"),
    ("kvstore.object_index_put", "repro.kvstore.object_index", "ObjectIndex.put"),
    ("kvstore.stripe_index_put", "repro.kvstore.stripe_index", "StripeIndex.put"),
    ("kvstore.memtable_set", "repro.kvstore.memtable", "MemTable.set"),
    ("ec.encode", "repro.ec.rs", "RSCode.encode"),
    ("ec.decode", "repro.ec.rs", "RSCode.decode"),
    ("ec.repair_with_xor", "repro.ec.rs", "RSCode.repair_with_xor"),
    ("ec.delta", "repro.core.logecmem", "gf_mul_scalar"),
    ("logstore.flush", "repro.logstore.plm", "LazyMergePLM.flush"),
    ("logstore.settle", "repro.logstore.plm", "LazyMergePLM.settle"),
    ("logstore.read_parity", "repro.logstore.plm", "LazyMergePLM.read_parity"),
    ("logstore.buffer_add", "repro.logstore.buffer", "LogBuffer.add"),
    ("cluster.log_append", "repro.cluster.node", "LogNode.append"),
    ("cluster.read_uptodate_parity", "repro.cluster.node", "LogNode.read_uptodate_parity"),
    ("cluster.settle_logs", "repro.cluster.topology", "Cluster.settle_logs"),
    ("cluster.kill", "repro.cluster.topology", "Cluster.kill"),
    *((f"sim.net.{m}", "repro.sim.network", f"NetworkModel.{m}") for m in _NET),
    ("sim.counters_add", "repro.sim.resources", "Counters.add"),
    ("sim.resource_reserve", "repro.sim.resources", "Resource.reserve"),
    ("sim.clock_advance", "repro.sim.clock", "SimClock.advance"),
    ("sim.event_schedule", "repro.sim.events", "EventQueue.schedule"),
    ("obs.tracer_start", "repro.obs.span", "Tracer.start"),
    ("obs.span_child", "repro.obs.span", "Span.child"),
    ("obs.tracer_finish", "repro.obs.span", "Tracer.finish"),
    ("obs.observe_span", "repro.obs.metrics", "MetricsRegistry.observe_span"),
    ("obs.journal_emit", "repro.obs.events", "EventJournal.emit"),
    ("obs.init", "repro.core.striped", "init_observability"),
    ("obs.init", "repro.engine.jobs", "init_observability"),
    ("engine.derive_jobs", "repro.engine.jobs", "derive_jobs"),
    ("engine.job_from_span", "repro.engine.jobs", "job_from_span"),
    ("engine.run_point", "repro.engine.load", "run_point"),
    ("engine.run", "repro.engine.core", "Engine.run"),
    ("engine.station_submits", "repro.engine.stations", "Station.submit"),
    ("workloads.generate_requests", "repro.workloads.ycsb", "generate_requests"),
)


def _encoded_bytes(args: tuple) -> int:
    return int(args[1].nbytes)  # (self, data): the k stacked data chunks


def _decoded_bytes(args: tuple) -> int:
    code, available = args[0], args[1]  # decode reads the first k survivors
    return code.k * int(next(iter(available.values())).nbytes)


def _flushed_records(args: tuple) -> int:
    return len(args[1])  # (self, records, now)


#: per-span amounts tallied next to the call count
AMOUNTS = {
    "ec.encode": ("ec.encode.bytes", _encoded_bytes),
    "ec.decode": ("ec.decode.bytes", _decoded_bytes),
    "logstore.flush": ("logstore.flush.records", _flushed_records),
}


class Recorder:
    """In-memory span store.  Wrappers record only while ``active``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.amounts: dict[str, int] = {}
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        """Let checks call wrapped code without it counting as work."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def clear(self) -> None:
        for col in (self.name_ix, self.parent, self.start, self.end):
            del col[:]
        self.stack.clear()
        self.amounts.clear()


def _wrap(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)
    clock = time.perf_counter_ns
    amount = AMOUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        stack = rec.stack
        i = len(rec.start)
        rec.name_ix.append(nid)
        rec.parent.append(stack[-1] if stack else -1)
        rec.end.append(0)
        if amount is not None:
            key, measure = amount
            rec.amounts[key] = rec.amounts.get(key, 0) + measure(args)
        stack.append(i)
        rec.start.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end[i] = clock()
            stack.pop()

    return traced


@contextmanager
def install(rec: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    undo: list[tuple[object, str, object, bool]] = []
    try:
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)  # plain functions only
            undo.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, _wrap(rec, raw, name))
        yield rec
    finally:
        for owner, attr, raw, own in reversed(undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def layer_totals(rec: Recorder) -> dict:
    """Per-layer self seconds; per span name the calls, the calls made
    inside a store op (under a ``core`` span) and the total seconds."""
    n = len(rec.start)
    names = np.frombuffer(rec.name_ix, dtype=np.int32, count=n)
    parent = np.frombuffer(rec.parent, dtype=np.int32, count=n)
    dur = (np.frombuffer(rec.end, dtype=np.int64, count=n)
           - np.frombuffer(rec.start, dtype=np.int64, count=n)).astype(np.float64)
    covered = np.zeros(n)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    self_ns = dur - covered
    per_name_self = np.bincount(names, weights=self_ns, minlength=len(rec.names))
    per_name_total = np.bincount(names, weights=dur, minlength=len(rec.names))
    per_name_calls = np.bincount(names, minlength=len(rec.names))
    # spans inside a store op: a core span or any descendant of one
    core_ids = [i for i, name in enumerate(rec.names) if name.startswith("core.")]
    in_op = np.isin(names, core_ids)
    safe_parent = np.where(nested, parent, 0)
    while True:
        grown = in_op | (nested & in_op[safe_parent])
        if np.array_equal(grown, in_op):
            break
        in_op = grown
    per_name_in_op = np.bincount(names[in_op], minlength=len(rec.names))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    calls_in_op: dict[str, int] = {}
    total_s: dict[str, float] = {}
    for i, name in enumerate(rec.names):
        layer_self[name.split(".", 1)[0]] += float(per_name_self[i]) / 1e9
        calls[name] = int(per_name_calls[i])
        calls_in_op[name] = int(per_name_in_op[i])
        total_s[name] = float(per_name_total[i]) / 1e9
    return {"self_s": layer_self, "calls": calls, "calls_in_op": calls_in_op,
            "total_s": total_s, "amounts": dict(rec.amounts)}
