"""Tests for per-phase latency breakdowns on the update path."""

import pytest

from repro.analysis.breakdown import aggregate_span_phases, span_shares
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem


def _loaded(n=24):
    store = LogECMem(StoreConfig(k=4, r=3, payload_scale=1 / 16))
    for i in range(n):
        store.write(f"user{i}")
    return store


def test_update_carries_breakdown():
    store = _loaded()
    res = store.update("user3")
    parts = store.tracer.last.phase_seconds()
    assert set(parts) == {"client_hop", "read_old_xor", "encode_delta", "ship_delta", "log_ack"}
    assert sum(parts.values()) == pytest.approx(res.latency_s)
    assert all(v >= 0 for v in parts.values())


def test_network_phases_dominate_update_latency():
    """The paper's point: updates are I/O-path-bound -- the sequential reads
    (old data + XOR parity) and the fan-out writes dwarf the compute."""
    store = _loaded()
    store.tracer.drain()
    for i in range(12):
        store.update(f"user{i}")
    shares = span_shares(store.tracer.drain())["update"]
    assert shares["read_old_xor"] + shares["ship_delta"] > 0.8
    assert shares["read_old_xor"] > 10 * shares["encode_delta"]
    assert sum(shares.values()) == pytest.approx(1.0)


def test_aggregate_means():
    store = _loaded()
    store.tracer.drain()
    for _ in range(5):
        store.update("user3")
    spans = store.tracer.drain()
    means = aggregate_span_phases(spans)["update"]
    assert means["read_old_xor"] == pytest.approx(
        spans[0].phase_seconds()["read_old_xor"]
    )


def test_aggregate_handles_missing_breakdowns():
    assert aggregate_span_phases([]) == {}
    assert span_shares([]) == {}
    store = _loaded()
    store.tracer.drain()
    store.read("user3")
    store.update("user3")
    means = aggregate_span_phases(store.tracer.drain())
    assert set(means) == {"read", "update"}
    assert "read_old_xor" in means["update"]
    assert "read_old_xor" not in means["read"]  # phases stay per op


def test_no_stall_on_healthy_disk():
    store = _loaded()
    store.update("user3")
    assert store.tracer.last.phase_seconds()["log_ack"] == 0.0
