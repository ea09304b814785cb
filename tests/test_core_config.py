"""Tests for StoreConfig validation and derived values."""

import pytest

from repro.core.config import StoreConfig


def test_defaults_mirror_paper():
    cfg = StoreConfig()
    assert (cfg.k, cfg.r) == (6, 3)
    assert cfg.value_size == 4096
    assert cfg.chunk_size == 4096  # object == chunk by default
    assert cfg.scheme == "plm"
    assert cfg.n == 9
    assert cfg.n_log_nodes == 2


def test_chunk_size_defaults_to_value_size():
    cfg = StoreConfig(value_size=1024)
    assert cfg.chunk_size == 1024


def test_explicit_chunk_size_allows_packing():
    cfg = StoreConfig(value_size=512, chunk_size=4096)
    assert cfg.chunk_size == 4096


def test_value_larger_than_chunk_rejected():
    with pytest.raises(ValueError):
        StoreConfig(value_size=8192, chunk_size=4096)


def test_k_r_bounds():
    with pytest.raises(ValueError):
        StoreConfig(k=1)
    with pytest.raises(ValueError):
        StoreConfig(r=0)
    with pytest.raises(ValueError):
        StoreConfig(k=255, r=10)


def test_value_size_must_be_positive():
    with pytest.raises(ValueError, match="value_size"):
        StoreConfig(value_size=0)


@pytest.mark.parametrize("scale", [0.0, -0.5, 1.5, float("nan")])
def test_payload_scale_outside_unit_interval_rejected(scale):
    with pytest.raises(ValueError, match="payload_scale"):
        StoreConfig(payload_scale=scale)


def test_phys_chunk_size_scales():
    cfg = StoreConfig(value_size=4096, payload_scale=1 / 16)
    assert cfg.phys_chunk_size() == 256
    cfg_full = StoreConfig(value_size=4096, payload_scale=1.0)
    assert cfg_full.phys_chunk_size() == 4096


def test_n_log_nodes_for_r1():
    cfg = StoreConfig(k=4, r=1)
    assert cfg.n_log_nodes == 0


def test_profiles_not_shared():
    a = StoreConfig()
    b = StoreConfig()
    assert a.profile is not b.profile
