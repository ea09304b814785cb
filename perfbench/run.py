"""Host-cost benchmark of the LogECMem reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload update_heavy --seed 42 --seconds 40 --trace 0

Runs rounds of one workload (see ``hostcost.py``) for about ``--seconds``, at
least one.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced rounds and reports the per-layer metrics
(see ``layertrace.py``) plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record-digest`` stores this run's simulation digest for its seed in
``digests.json``; a later run of a recorded seed fails all its ops when the
digest differs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

#: setups timed before the rounds, on top of each round's own
SETUP_REPEATS = 15
#: the small round run first, so lazy imports and first calls are not timed
WARMUP = dict(objects=600, requests=600, degraded_reads=60)
#: host seconds of one ``hostcost.reference_loop`` at the reference speed
#: that end-to-end times are scaled to: about its time on the 2-vCPU Xeon VM
#: (2.1 GHz) the bounds were tuned on
REFERENCE_S = 0.002


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank order statistic, as the engine reports quantiles."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def slowness(rounds) -> float:
    """How much slower than the reference speed the host ran: the median
    reference loop of the rounds over ``REFERENCE_S``."""
    return statistics.median(x for r in rounds for x in r.reference_s) / REFERENCE_S


def end_to_end(rounds, setups: list[float], slow: float) -> dict:
    """Every time divided by ``slow`` (every rate multiplied by it): host
    time at the reference speed.  The speed of a shared host drifts by up to
    1.5x between runs, and the reference loop timed in the same run drifts
    with it."""

    def op_p50_us(kind: str) -> float:
        times = [dt for r in rounds for op, dt in r.op_s if op == kind]
        return _quantile(times, 0.50) * 1e6 / slow

    def rate(phase: str) -> float:
        return statistics.median(x for r in rounds for x in r.rates[phase]) * slow

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(setups) / slow, "s"),
        "load_objects_per_s": _metric(rate("load"), "1/s"),
        "replay_ops_per_s": _metric(rate("replay"), "1/s"),
        "read_op_p50_us": _metric(op_p50_us("read"), "us"),
        "update_op_p50_us": _metric(op_p50_us("update"), "us"),
        "focus_ops_per_s": _metric(rate("focus"), "1/s"),
        "run_wall_s": _metric(statistics.median(r.wall_s for r in rounds) / slow, "s"),
        "peak_rss_mb": _metric(rss_kib / 1024, "MB"),
    }


def per_layer(traced, untraced, totals: list[dict], layers: tuple[str, ...]) -> dict:
    first = totals[0]
    calls, amounts = first["calls"], first["amounts"]

    def n(name: str) -> int:
        return calls.get(name, 0)

    def total_s(name: str) -> float:
        return statistics.median(t["total_s"].get(name, 0.0) for t in totals)

    op_s = [dt for r in untraced for _, dt in r.op_s]
    in_op = first["calls_in_op"]
    ops = traced[0].store_ops
    spans = n("obs.tracer_start") + n("obs.span_child")
    spans_in_op = in_op.get("obs.tracer_start", 0) + in_op.get("obs.span_child", 0)
    out = {
        f"{layer}.self_s": _metric(statistics.median(t["self_s"][layer] for t in totals), "s")
        for layer in layers
        if layer != "workloads"
    }
    out.update({
        **{f"core.{op}.calls": _metric(n(f"core.{op}"), "count")
           for op in ("write", "read", "update", "degraded_read")},
        "core.repair_node.s": _metric(total_s("core.repair_node"), "s"),
        "kvstore.make_value.calls": _metric(n("kvstore.make_value"), "count"),
        "kvstore.make_value.us_per_call": _metric(
            total_s("kvstore.make_value") / max(1, n("kvstore.make_value")) * 1e6, "us"),
        "ec.encode.calls": _metric(n("ec.encode"), "count"),
        "ec.encode.bytes": _metric(amounts.get("ec.encode.bytes", 0), "B"),
        "ec.delta.calls": _metric(n("ec.delta"), "count"),
        "ec.decode.calls": _metric(n("ec.decode"), "count"),
        "ec.decode.bytes": _metric(amounts.get("ec.decode.bytes", 0), "B"),
        "ec.repair_with_xor.calls": _metric(n("ec.repair_with_xor"), "count"),
        "logstore.flush.calls": _metric(n("logstore.flush"), "count"),
        "logstore.flush.records": _metric(amounts.get("logstore.flush.records", 0), "count"),
        "logstore.read_parity.calls": _metric(n("logstore.read_parity"), "count"),
        "cluster.log_append.calls": _metric(n("cluster.log_append"), "count"),
        "sim.net.calls": _metric(
            sum(v for k, v in calls.items() if k.startswith("sim.net.")), "count"),
        "sim.counters_add.calls": _metric(n("sim.counters_add"), "count"),
        "sim.counters_add_per_op": _metric(in_op.get("sim.counters_add", 0) / ops, "count"),
        "obs.spans_built": _metric(spans, "count"),
        "obs.spans_per_op": _metric(spans_in_op / ops, "count"),
        "engine.events": _metric(n("sim.event_schedule"), "count"),
        "engine.station_submits.calls": _metric(n("engine.station_submits"), "count"),
        "workloads.generate_requests.s": _metric(total_s("workloads.generate_requests"), "s"),
        "replay_op_p99_us": _metric(_quantile(op_s, 0.99) * 1e6, "us"),
        "replay_op_samples": _metric(len(op_s), "count"),
        "trace.overhead_ratio": _metric(
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced), "x"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import hostcost
    import layertrace

    if args.workload not in hostcost.MIXES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(hostcost.MIXES)}", file=sys.stderr)
        return 2

    scale = hostcost.SCALES[args.workload]
    warmup = hostcost.run_round(args.workload, args.seed, hostcost.Scale(**WARMUP))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        hostcost.setup(args.workload, args.seed, scale)
        setups.append(perf_counter() - t0)

    untraced, traced, totals = [], [], []
    rec = layertrace.Recorder()
    start = last = monotonic()
    # a round starts only if it would end within half a round of --seconds,
    # so a run lasts about --seconds whatever its round length
    while (not untraced or (args.trace and not traced)
           or monotonic() - start + (monotonic() - last) / 2 < args.seconds):
        last = monotonic()
        gc.collect()  # every round starts from the same heap state
        if args.trace and len(traced) < len(untraced):
            with layertrace.install(rec):
                traced.append(hostcost.run_round(args.workload, args.seed, scale, rec))
            totals.append(layertrace.layer_totals(rec))
            rec.clear()
        else:
            untraced.append(hostcost.run_round(args.workload, args.seed, scale))
    rounds = untraced + traced
    setups += [r.setup_s for r in untraced]

    checked = [warmup, *rounds]  # the warm-up is checked too, at its own digest
    problems = [p for r in checked for p in r.problems]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    digest = rounds[0].digest
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    known = recorded.get(args.workload, {}).get(str(args.seed))
    untrusted = []
    if any(r.digest != digest for r in rounds):
        untrusted.append("rounds disagree on the simulation digest")
    if any(t["calls"] != totals[0]["calls"] or t["amounts"] != totals[0]["amounts"]
           for t in totals):
        untrusted.append("traced rounds disagree on per-layer call counts")
    if args.record_digest and not untrusted and failed == 0:
        known = recorded.setdefault(args.workload, {})[str(args.seed)] = digest
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    if known not in (None, digest):
        untrusted.append(f"digest {digest} != recorded {known} for seed {args.seed}")
    if untrusted:
        # the simulation changed or is not deterministic: no answer can be trusted
        problems += untrusted
        failed = attempted

    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"workload={args.workload} seed={args.seed} rounds: untraced={len(untraced)}"
          f" traced={len(traced)} digest={digest}"
          f" recorded={'match' if known == digest else 'none' if known is None else 'MISMATCH'}"
          f" samples: read={sum(op == 'read' for r in untraced for op, _ in r.op_s)}"
          f" update={sum(op == 'update' for r in untraced for op, _ in r.op_s)}")
    if args.trace:
        metrics = per_layer(traced, untraced, totals, layertrace.LAYERS)
    else:
        slow = slowness(untraced)
        unscaled = end_to_end(untraced, setups, 1.0)
        print(f"host slowness {slow:.4f}; unscaled: "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in unscaled.items()))
        metrics = end_to_end(untraced, setups, slow)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
