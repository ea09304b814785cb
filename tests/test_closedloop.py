"""Tests for closed-loop throughput: the chaos harness's list-order
arithmetic and the engine's resource bound on derived jobs."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_store
from repro.bench.runner import estimate_throughput, load_store, run_requests
from repro.chaos.harness import closed_loop_throughput
from repro.core.config import StoreConfig
from repro.engine.jobs import derive_jobs
from repro.engine.load import run_point
from repro.sim.params import HardwareProfile
from repro.workloads import WorkloadSpec, generate_requests


def _profile(**kw):
    return HardwareProfile(**kw)


def test_demand_validation():
    with pytest.raises(ValueError):
        closed_loop_throughput([(1e-6, 0, 0)], _profile(client_concurrency=0))


def test_empty_demands_zeroed_result():
    """An empty demand list is a zero-length run, not an error."""
    res = closed_loop_throughput([], _profile())
    assert res["operations"] == 0
    assert res["makespan_s"] == 0.0
    assert res["throughput_ops_s"] == 0.0
    assert res["mean_response_s"] == 0.0
    assert res["cpu_utilisation"] == 0.0
    assert res["nic_utilisation"] == 0.0


def test_single_client_serialises():
    """C=1: makespan is the sum of op latencies; no overlap."""
    ops = [(1e-3, 0, 2e-3)] * 10
    res = closed_loop_throughput(ops, _profile(client_concurrency=1))
    assert res["makespan_s"] == pytest.approx(10 * 3e-3)
    assert res["throughput_ops_s"] == pytest.approx(1 / 3e-3, rel=1e-6)
    assert res["mean_response_s"] == pytest.approx(3e-3)


def test_concurrency_overlaps_remote_time():
    """Remote time overlaps across clients; CPU does not."""
    ops = [(1e-3, 0, 9e-3)] * 100
    serial = closed_loop_throughput(ops, _profile(client_concurrency=1))
    parallel = closed_loop_throughput(ops, _profile(client_concurrency=10))
    assert parallel["throughput_ops_s"] > 5 * serial["throughput_ops_s"]
    # at C=10, CPU is saturated: throughput -> 1/cpu_s
    assert parallel["throughput_ops_s"] == pytest.approx(1e3, rel=0.1)
    assert parallel["cpu_utilisation"] > 0.9


def test_nic_bound_regime():
    p = _profile(net_bandwidth_Bps=1e6, client_concurrency=64)
    ops = [(0.0, 10_000, 1e-3)] * 200
    res = closed_loop_throughput(ops, p)
    # NIC service time = 10ms per op; throughput ~ 100 ops/s
    assert res["throughput_ops_s"] == pytest.approx(100, rel=0.05)
    assert res["nic_utilisation"] > 0.95


def test_more_concurrency_never_hurts_throughput():
    ops = [(5e-4, 4096, 4e-3)] * 300
    t = [
        closed_loop_throughput(ops, _profile(client_concurrency=c))["throughput_ops_s"]
        for c in (1, 4, 16, 64)
    ]
    assert t == sorted(t)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e-3),
            st.integers(min_value=0, max_value=100_000),
            st.floats(min_value=0, max_value=1e-2),
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=1, max_value=32),
)
def test_simulation_invariants(ops, concurrency):
    res = closed_loop_throughput(ops, _profile(client_concurrency=concurrency))
    assert res["operations"] == len(ops)
    assert res["makespan_s"] >= max(c + r for c, _, r in ops) - 1e-12
    assert 0 <= res["cpu_utilisation"] <= 1
    assert 0 <= res["nic_utilisation"] <= 1
    assert res["mean_response_s"] >= 0


# ------------------------------------------------ engine on derived jobs


def test_des_throughput_within_resource_bounds():
    """Each station serves one stage at a time, so no concurrency can push
    throughput past n / (the largest total demand any one station gets)."""
    store = make_store("logecmem", StoreConfig(k=4, r=3, payload_scale=1 / 32))
    spec = WorkloadSpec.read_update("80:20", n_objects=200, n_requests=300, seed=4)
    load_store(store, spec)
    jobs = derive_jobs(store, generate_requests(spec))
    demand: dict[str, float] = defaultdict(float)
    for job in jobs:
        for stage in job.stages:
            if stage.station != "delay":
                demand[stage.station] += stage.service_s
    bound = len(jobs) / max(demand.values())
    for c in (1, 8, 64):
        res = run_point(jobs, store.cfg.profile, c)
        assert res.jobs_completed == len(jobs)
        assert res.throughput_ops_s <= bound * 1.001


def test_des_throughput_in_analytic_regime():
    """At the profile's client concurrency the engine lands in the same
    regime as the analytic estimate that Fig 10's throughput_kops uses."""
    spec = WorkloadSpec.read_update("80:20", n_objects=200, n_requests=300, seed=4)
    cfg = StoreConfig(k=4, r=3, payload_scale=1 / 32)
    store = make_store("logecmem", cfg)
    load_store(store, spec)
    jobs = derive_jobs(store, generate_requests(spec))
    twin = make_store("logecmem", cfg)
    load_store(twin, spec)
    analytic = estimate_throughput(
        twin, run_requests(twin, generate_requests(spec), spec)
    )
    profile = store.cfg.profile
    des = run_point(jobs, profile, profile.client_concurrency).throughput_ops_s
    assert 0.3 * analytic < des < 3 * analytic
