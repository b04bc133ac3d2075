"""Packet-class fast path: bit-identity and self-disabling guards."""

import pytest

from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput


@pytest.fixture(autouse=True)
def fresh_caches():
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


def _run(monkeypatch, fastpath, **mill_kwargs):
    monkeypatch.setenv("REPRO_ROUTE_MEMO", "1" if fastpath else "0")
    exec_cache.reset_caches()
    mill = PacketMill(router(), BuildOptions.packetmill(),
                      params=MachineParams().at_frequency(2.3), **mill_kwargs)
    binary = mill.build()
    point = measure_throughput(binary, batches=60, warmup_batches=30)
    return binary, point


def test_fastpath_flag_follows_environment(monkeypatch):
    on, _ = _run(monkeypatch, fastpath=True)
    off, _ = _run(monkeypatch, fastpath=False)
    assert on.driver.fastpath
    assert not off.driver.fastpath


def test_run_stats_identical_with_and_without_fastpath(monkeypatch):
    binary_on, point_on = _run(monkeypatch, fastpath=True)
    binary_off, point_off = _run(monkeypatch, fastpath=False)
    assert binary_on.driver.stats.snapshot() == binary_off.driver.stats.snapshot()
    assert point_on == point_off


def test_fastpath_disables_under_telemetry(monkeypatch):
    binary, _ = _run(monkeypatch, fastpath=True, telemetry=True)
    assert not binary.driver.fastpath


def test_fastpath_populates_route_cache(monkeypatch):
    binary, _ = _run(monkeypatch, fastpath=True)
    assert binary.driver._route_cache, "no pure element was memoized"
    assert any(routes for routes in binary.driver._route_cache.values())
