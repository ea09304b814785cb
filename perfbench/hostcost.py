"""The benchmark's workloads: one *round* is one deterministic run of a workload.

A round builds a LogECMem store ((k=6, r=3), PLM, default ``payload_scale``),
loads the objects and runs the workload's phases with one closed-loop client:
every store call is issued after the previous one returned, and each call is
timed on its own with ``perf_counter``.  Correctness checks run between calls
and after the timed phases, outside every timed interval:

* each ``read``/``degraded_read`` value must equal ``store.expected_value``;
* ``chaos.invariants.check_store`` (durability, parity consistency, log
  replay) must report no violation;
* on ``engine_sweep`` every job completes at every concurrency, and at C=1
  each job's response time equals the op's sequential latency.

Every mismatch, exception or violation counts as one failed op.  Each round
also hashes what the simulation computed -- per-op simulated latencies, the
repair result, engine ``to_dict()`` documents and the counter totals -- into
a sha256 digest, which is the same for every round of one seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.chaos import invariants
from repro.core import repair
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.engine import jobs as engine_jobs
from repro.engine import load as engine_load
from repro.workloads import ycsb

#: workload -> read:update mix of its request stream
MIXES = {"update_heavy": "50:50", "read_degraded": "95:5", "engine_sweep": "50:50"}


def _c1_exact(issued: float, response: float, latency: float, stages: int) -> bool:
    """The C=1 engine reproduces the sequential latency up to float rounding.

    The engine derives a response as (issue time + each stage's demand, one
    addition per event) - issue time, all in absolute simulated seconds, so
    it may differ from the latency by a rounding of the clock at each of
    those additions: a few ulps of the absolute time, never more."""
    return abs(response - latency) <= (stages + 2) * math.ulp(issued + response)


#: ops per throughput window: rates are medians over windows, so a burst of
#: machine noise moves a few windows rather than the whole phase
WINDOW = 1000

#: iterations of the reference loop.  The loop is fixed pure-Python work that
#: no change to the program can speed up or slow down, timed between store
#: calls throughout a round, so a run can tell how fast the host was while it
#: ran (see ``run.py``)
REFERENCE_LOOPS = 20_000


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return total


@dataclass(frozen=True)
class Scale:
    objects: int = 20_000
    requests: int = 20_000
    degraded_reads: int = 2_000
    concurrencies: tuple[int, ...] = (1, 16, 64)
    #: times the engine sweep runs per round (each run is checked and hashed)
    sweeps: int = 1


#: each workload's round.  The phase a workload exists for is sized to take
#: a second or more of every round, so its rate is sampled across the run
#: rather than in one short burst per round.
SCALES = {
    "update_heavy": Scale(),
    "read_degraded": Scale(requests=40_000, degraded_reads=5_000),
    "engine_sweep": Scale(sweeps=2),
}


@dataclass
class Round:
    """What one round measured (host seconds) and how it checked out."""

    setup_s: float = 0.0
    #: (op, host seconds) of each stream op: the replay, or the store calls
    #: inside derive_jobs
    op_s: list[tuple[str, float]] = field(default_factory=list)
    #: phase ("load", "replay", "focus") -> throughputs (ops per host
    #: second) of its consecutive windows of ops
    rates: dict[str, list[float]] = field(default_factory=dict)
    #: every timed interval of the round, summed (checks excluded)
    wall_s: float = 0.0
    store_ops: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    #: host seconds of each reference loop timed during the round
    reference_s: list[float] = field(default_factory=list)

    def time_reference(self) -> None:
        """Time one reference loop; called between store calls, outside
        every timed interval."""
        t0 = perf_counter()
        reference_loop()
        self.reference_s.append(perf_counter() - t0)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(what)


def window_rates(times: list[float], window: int) -> list[float]:
    """Throughput of each run of ``window`` consecutive ops (a shorter tail
    window counts too, so a small round still yields one rate)."""
    return [
        len(chunk) / sum(chunk)
        for chunk in (times[i : i + window] for i in range(0, len(times), window))
    ]


def setup(workload: str, seed: int, scale: Scale):
    """Store construction plus the request stream: what ``setup_s`` times."""
    store = LogECMem(StoreConfig(k=6, r=3, scheme="plm"))
    spec = ycsb.WorkloadSpec.read_update(
        MIXES[workload],
        n_objects=scale.objects,
        n_requests=scale.requests,
        seed=seed,
    )
    return store, spec, ycsb.generate_requests(spec)


class _Digest:
    def __init__(self, *head) -> None:
        self._h = hashlib.sha256(repr(head).encode())

    def add(self, *items) -> None:
        self._h.update(repr(items).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _run_ops(rnd: Round, store, ops, digest: _Digest, paused) -> list[tuple[str, float]]:
    """Closed-loop replay of ``(op, key)`` pairs, each call timed alone;
    returns ``(op, host seconds)`` of the calls that returned."""
    clock = store.cluster.clock
    times = []
    for op, key in ops:
        call = getattr(store, op)
        rnd.attempted += 1
        rnd.store_ops += 1
        t0 = perf_counter()
        try:
            res = call(key)
        except Exception as exc:  # every failure is counted, the loop goes on
            rnd.fail(f"{op} {key}: {type(exc).__name__}: {exc}")
            continue
        dt = perf_counter() - t0
        times.append((op, dt))
        if len(times) % WINDOW == 0:
            rnd.time_reference()
        clock.advance(res.latency_s)
        digest.add(op, res.latency_s)
        if res.value is not None:
            with paused():
                ok = np.array_equal(res.value, store.expected_value(key))
            if not ok:
                rnd.fail(f"{op} {key}: wrong value")
    return times


def _derive_timed(rnd: Round, store, requests, digest: _Digest, paused):
    """``derive_jobs`` over the stream, each store call inside it timed alone.

    The store's op methods are shadowed on the instance for the duration;
    read values are checked after the call returns."""
    log: list[tuple] = []

    def timed(op):
        method = getattr(store, op)

        def call(key):
            t0 = perf_counter()
            res = method(key)
            log.append((op, key, t0, perf_counter() - t0, res, store.versions[key]))
            return res

        return call

    for op in ("read", "update", "write", "delete"):
        setattr(store, op, timed(op))
    rnd.time_reference()
    t0 = perf_counter()
    try:
        jobs = engine_jobs.derive_jobs(store, requests)
    except Exception as exc:
        rnd.fail(f"derive_jobs: {type(exc).__name__}: {exc}", len(requests) - len(log) + 1)
        jobs = None
    end = perf_counter()
    derive_s = end - t0
    for op in ("read", "update", "write", "delete"):
        delattr(store, op)
    rnd.time_reference()
    # derive_jobs throughput over windows of requests: a request's host time
    # runs from the start of its store call to the start of the next one's
    starts = [entry[2] for entry in log] + [end]
    rnd.rates["replay"] = window_rates([b - a for a, b in zip(starts, starts[1:])], WINDOW)
    rnd.attempted += len(requests)
    rnd.store_ops += len(log)
    latencies = []
    with paused():
        for op, key, _, dt, res, version in log:
            rnd.op_s.append((op, dt))
            latencies.append(res.latency_s)
            digest.add(op, res.latency_s)
            # the value of the version the read saw, as expected_value builds it
            if res.value is not None and not np.array_equal(
                res.value, store._new_value(key, version)
            ):
                rnd.fail(f"{op} {key}: wrong value")
    return jobs, latencies, derive_s


def _engine_sweep(rnd: Round, store, jobs, latencies, scale: Scale, digest: _Digest) -> None:
    for _ in range(scale.sweeps):
        sweep_s = sum(_engine_point(rnd, store, jobs, latencies, c, digest)
                      for c in scale.concurrencies)
        # one rate per sweep: the C values differ in cost, so a rate per
        # point would mix three populations
        rnd.rates.setdefault("focus", []).append(len(jobs) * len(scale.concurrencies) / sweep_s)
        rnd.wall_s += sweep_s


def _engine_point(rnd: Round, store, jobs, latencies, c: int, digest: _Digest) -> float:
    """One checked ``run_point`` at concurrency ``c``; returns its host seconds."""
    rnd.time_reference()
    rnd.attempted += len(jobs)
    t0 = perf_counter()
    res = engine_load.run_point(jobs, store.cfg.profile, c)
    dt = perf_counter() - t0
    digest.add("engine", c, json.dumps(res.to_dict(), sort_keys=True))
    missing = len(jobs) - res.jobs_completed
    if missing or res.jobs_rejected:
        rnd.fail(f"C={c}: {missing} jobs incomplete, {res.jobs_rejected} rejected",
                 max(missing, res.jobs_rejected))
    if c == 1:
        off = sum(
            1
            for (issued, response, _), lat, job in zip(res.samples, latencies, jobs)
            if not _c1_exact(issued, response, lat, len(job.stages))
        )
        if off:
            rnd.fail(f"C=1: {off} responses differ from sequential latency", off)
    return dt


def run_round(workload: str, seed: int, scale: Scale | None = None, rec=None) -> Round:
    """One full round, at ``SCALES[workload]`` unless ``scale`` is given.
    With a :class:`layertrace.Recorder` the timed phases record spans;
    checks run with it paused."""
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(MIXES)}")
    scale = scale or SCALES[workload]
    paused = rec.paused if rec is not None else nullcontext
    recording = rec.recording() if rec is not None else nullcontext()
    rnd = Round()
    digest = _Digest(workload, seed, dataclasses.astuple(scale))
    with recording:
        t0 = perf_counter()
        store, spec, requests = setup(workload, seed, scale)
        rnd.setup_s = perf_counter() - t0
        rnd.wall_s += rnd.setup_s

        loaded = _run_ops(rnd, store, (("write", k) for k in ycsb.load_keys(spec)), digest,
                          paused)
        load_times = [dt for _, dt in loaded]
        rnd.rates["load"] = window_rates(load_times, WINDOW)
        rnd.wall_s += sum(load_times)

        if workload == "engine_sweep":
            jobs, latencies, derive_s = _derive_timed(rnd, store, requests, digest, paused)
            rnd.wall_s += derive_s
            if jobs is not None:
                _engine_sweep(rnd, store, jobs, latencies, scale, digest)
        else:
            rnd.op_s = _run_ops(rnd, store, ((r.op.value, r.key) for r in requests), digest,
                                paused)
            replay_times = [dt for _, dt in rnd.op_s]
            rnd.rates["replay"] = window_rates(replay_times, WINDOW)
            rnd.wall_s += sum(replay_times)
            if workload == "update_heavy":
                ups = [dt for op, dt in rnd.op_s if op == "update"]
                rnd.rates["focus"] = window_rates(ups, WINDOW // 2)
        if workload == "read_degraded":
            _degrade_and_repair(rnd, store, spec, seed, scale, digest, paused)

        digest.add("counters", sorted(store.counters.as_dict().items()))
        rnd.digest = digest.hexdigest()

        with paused():
            report = invariants.check_store(store)
        rnd.attempted += 1
        for v in report.violations:
            rnd.fail(v.describe())
    return rnd


def _degrade_and_repair(rnd: Round, store, spec, seed: int, scale: Scale, digest, paused):
    """Kill one DRAM node, force degraded reads over a key sample, then
    repair the node with log-assist.

    The victim is the same node for every seed: which node fails decides how
    many reads take the XOR fast path, and so moves the rate by up to half."""
    victim = store.cluster.dram_ids()[0]
    t0 = perf_counter()
    store.cluster.kill(victim)
    kill_s = perf_counter() - t0
    step = max(1, scale.objects // scale.degraded_reads)
    keys = ycsb.load_keys(spec)[seed % step :: step][: scale.degraded_reads]
    times = [dt for _, dt in _run_ops(rnd, store, (("degraded_read", k) for k in keys),
                                      digest, paused)]
    rnd.attempted += 1
    t0 = perf_counter()
    try:
        result = repair.repair_node(store, victim, log_assist=True)
    except Exception as exc:
        rnd.fail(f"repair_node {victim}: {type(exc).__name__}: {exc}")
        result = None
    repair_s = perf_counter() - t0
    digest.add("repair", victim, dataclasses.astuple(result) if result else None)
    rnd.rates["focus"] = window_rates(times, WINDOW // 5)
    rnd.wall_s += kill_s + sum(times) + repair_s
