"""Tests of the benchmark itself, at a small scale and a fixed seed.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostcost  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from repro.core.striped import StripedStoreBase  # noqa: E402

SMALL = hostcost.Scale(objects=240, requests=240, degraded_reads=24, concurrencies=(1, 4))
SEED = 5


def _traced(workload: str):
    rec = layertrace.Recorder()
    with layertrace.install(rec):
        rnd = hostcost.run_round(workload, SEED, SMALL, rec)
    return rnd, layertrace.layer_totals(rec)


@pytest.mark.parametrize("workload", sorted(hostcost.MIXES))
def test_traced_rounds_repeat_counts_and_digest(workload):
    first, totals1 = _traced(workload)
    second, totals2 = _traced(workload)
    plain = hostcost.run_round(workload, SEED, SMALL)
    assert first.failed == second.failed == plain.failed == 0, first.problems
    assert totals1["calls"] == totals2["calls"]
    assert totals1["amounts"] == totals2["amounts"]
    assert first.digest == second.digest == plain.digest
    assert totals1["calls"]["core.write"] == SMALL.objects
    assert all(v >= 0 for v in totals1["self_s"].values())


def test_wrappers_are_removed_after_install():
    before = StripedStoreBase.__dict__["read"]
    with layertrace.install(layertrace.Recorder()):
        assert StripedStoreBase.__dict__["read"] is not before
    assert StripedStoreBase.__dict__["read"] is before


def test_workloads_load_the_layers_they_are_chosen_for():
    calls = {w: _traced(w)[1]["calls"] for w in hostcost.MIXES}
    assert calls["read_degraded"].get("ec.decode", 0) > 0
    assert calls["update_heavy"].get("ec.decode", 0) == 0
    assert calls["engine_sweep"].get("engine.run", 0) == len(SMALL.concurrencies)
    assert calls["update_heavy"].get("engine.run", 0) == 0
    assert calls["update_heavy"]["ec.delta"] > calls["read_degraded"]["ec.delta"]


@pytest.mark.parametrize("workload", ["update_heavy", "engine_sweep", "read_degraded"])
def test_planted_wrong_read_value_counts_as_failure(workload, monkeypatch):
    _, spec, requests = hostcost.setup(workload, SEED, SMALL)
    target = next(r.key for r in requests if r.op.value == "read")
    read = StripedStoreBase.read

    def wrong_read(self, key):
        res = read(self, key)
        if key == target and res.value is not None:
            res.value = res.value ^ np.uint8(1)
        return res

    monkeypatch.setattr(StripedStoreBase, "read", wrong_read)
    rnd = hostcost.run_round(workload, SEED, SMALL)
    assert rnd.failed >= 1
    assert any("wrong value" in p for p in rnd.problems)


def test_c1_exactness_tolerates_rounding_only():
    assert hostcost._c1_exact(1.5, 1e-4 + 2e-16, 1e-4, stages=4)
    assert not hostcost._c1_exact(1.5, 1e-4 + 1e-9, 1e-4, stages=4)


def test_end_to_end_is_scaled_to_the_reference_speed():
    rnd = hostcost.Round(
        op_s=[("read", 3e-5), ("update", 1.5e-4)],
        rates={"load": [6000.0], "replay": [9000.0], "focus": [5000.0]},
        wall_s=6.0,
        reference_s=[2 * run.REFERENCE_S] * 3,
    )
    slow = run.slowness([rnd])
    unscaled = run.end_to_end([rnd], [0.07], 1.0)
    scaled = run.end_to_end([rnd], [0.07], slow)
    assert slow == 2.0
    for name, m in unscaled.items():
        factor = {"s": 0.5, "us": 0.5, "1/s": 2.0, "MB": 1.0}[m["unit"]]
        assert scaled[name]["value"] == pytest.approx(m["value"] * factor), name


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "update_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
