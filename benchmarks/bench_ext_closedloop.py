"""Extension: closed-loop engine throughput, complementing Figure 10(e,f).

The analytic throughput estimate ignores queueing; this bench loads each
system, derives one engine job per request from the store's own cost model
(:func:`repro.engine.jobs.derive_jobs`) and replays the job stream through
the concurrent engine (:func:`repro.engine.load.run_point`) at three client
concurrencies, reporting achieved throughput plus proxy CPU/NIC utilisation.
The C=1 point per store checks the engine against the sequential cost
model: one client serialises every job, so throughput is n over the summed
single-request latencies."""

import pytest

from repro.analysis import format_table
from repro.baselines import make_store
from repro.bench.runner import load_store
from repro.core.config import StoreConfig
from repro.engine.jobs import derive_jobs
from repro.engine.load import run_point
from repro.workloads import WorkloadSpec, generate_requests

STORES = ("vanilla", "replication", "ipmem", "fsmem", "logecmem")
CONCURRENCIES = (1, 8, 64)
N = 800


def _run():
    out = {}
    sequential_s = {}
    spec = WorkloadSpec.read_write("50:50", n_objects=N, n_requests=N, seed=8)
    for name in STORES:
        store = make_store(name, StoreConfig(k=10, r=4))
        load_store(store, spec)
        jobs = derive_jobs(store, generate_requests(spec))
        sequential_s[name] = sum(job.service_s for job in jobs)
        for conc in CONCURRENCIES:
            out[(name, conc)] = run_point(jobs, store.cfg.profile, conc)
    return out, sequential_s


def _utilisation(result, station: str) -> float:
    return result.stations.get(station, {}).get("utilisation", 0.0)


def test_ext_closedloop_throughput(benchmark, show):
    out, sequential_s = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for name in STORES:
        for conc in CONCURRENCIES[1:]:
            r = out[(name, conc)]
            rows.append([
                name, conc, f"{r.throughput_ops_s / 1e3:.1f}",
                f"{_utilisation(r, 'proxy_cpu') * 100:.0f}%",
                f"{_utilisation(r, 'proxy_nic') * 100:.0f}%",
                f"{r.overall.get('mean_us', 0.0):.0f}",
            ])
    show(format_table(
        ["store", "clients", "Kops/s", "proxy CPU", "proxy NIC", "response us"],
        rows,
        title="Extension: engine closed-loop throughput, (10,4), r:w=50:50",
    ))
    for name in STORES:
        # C=1 reproduces the sequential cost model: nothing contends
        serial = out[(name, 1)]
        assert serial.jobs_completed == N
        assert serial.throughput_ops_s == pytest.approx(
            N / sequential_s[name], rel=1e-9
        )
        # more clients, more throughput (until a resource saturates)
        t = [out[(name, conc)].throughput_ops_s for conc in CONCURRENCIES]
        assert t == sorted(t)
    # Figure 10(e,f)'s ordering survives queueing: Vanilla >= EC >= 5-way
    v = out[("vanilla", 64)].throughput_ops_s
    lec = out[("logecmem", 64)].throughput_ops_s
    rep = out[("replication", 64)].throughput_ops_s
    assert v >= lec * 0.999
    assert lec > rep
