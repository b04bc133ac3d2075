"""The ExecutionTier API: selection, spelling checks, bit-identity."""

import pytest

from repro.compiler.runtime import (
    DEFAULT_TIER,
    ExecutionTier,
    TierPolicy,
    select_tier,
)
from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import RunProfile
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    # Selection tests assert the built-in defaults; scrub any ambient
    # tier configuration (e.g. a REPRO_TIER=interpreter CI matrix run).
    for var in ("REPRO_TIER", "REPRO_ROUTE_MEMO"):
        monkeypatch.delenv(var, raising=False)
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


def _build(tier=None, **profile_kwargs):
    profile = RunProfile(
        options=BuildOptions.packetmill(),
        params=MachineParams().at_frequency(2.3),
        tier=tier,
        **profile_kwargs,
    )
    return PacketMill.from_profile(router(), profile).build()


# -- selection ----------------------------------------------------------------


def test_default_tier_is_compiled():
    selection = select_tier()
    assert selection.tier is DEFAULT_TIER is ExecutionTier.COMPILED
    assert not selection.demoted


def test_env_requests_a_tier(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "compiled")
    assert select_tier().tier is ExecutionTier.COMPILED
    monkeypatch.setenv("REPRO_TIER", "interpreter")
    assert select_tier().tier is ExecutionTier.INTERPRETER


def test_policy_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "interpreter")
    selection = select_tier(TierPolicy(tier="compiled"))
    assert selection.tier is ExecutionTier.COMPILED


def _tier_argument(spelling, monkeypatch):
    select_tier(spelling)


def _profile_field(spelling, monkeypatch):
    PacketMill.from_profile(router(), RunProfile(tier=spelling))


def _environment(spelling, monkeypatch):
    monkeypatch.setenv("REPRO_TIER", spelling)
    _build()


@pytest.mark.parametrize("spelling", ["jit", "codegen"])
@pytest.mark.parametrize("route", [_tier_argument, _profile_field,
                                   _environment],
                         ids=["argument", "profile", "environment"])
def test_unknown_tier_spelling_is_rejected(route, spelling, monkeypatch):
    with pytest.raises(ValueError, match="unknown execution tier .*"
                                         r"\(expected interpreter/compiled\)"):
        route(spelling, monkeypatch)


def test_route_memo_parks_under_any_instrumentation():
    assert select_tier().route_memo
    for kwargs in ({"faults": True}, {"watchdog": True}, {"telemetry": True}):
        assert not select_tier(**kwargs).route_memo


# -- bit-identity across tiers ------------------------------------------------


def test_run_stats_identical_across_all_tiers():
    snapshots = {}
    points = {}
    for tier in ExecutionTier:
        exec_cache.reset_caches()
        binary = _build(tier=tier)
        assert binary.driver.tier is tier
        points[tier] = measure_throughput(
            binary, batches=60, warmup_batches=30)
        snapshots[tier] = binary.driver.stats.snapshot()
    reference = snapshots[ExecutionTier.INTERPRETER]
    for tier in ExecutionTier:
        assert snapshots[tier] == reference, tier
        assert points[tier] == points[ExecutionTier.INTERPRETER], tier


def test_pmds_share_the_drivers_tier():
    binary = _build(tier="interpreter")
    assert binary.driver.tier is ExecutionTier.INTERPRETER
    for pmd in binary.pmds.values():
        assert pmd.tier is ExecutionTier.INTERPRETER
        assert pmd._interpret


# -- RunProfile ---------------------------------------------------------------


def test_profile_and_kwargs_builds_agree():
    exec_cache.reset_caches()
    via_profile = _build(tier="interpreter")
    exec_cache.reset_caches()
    via_kwargs = PacketMill(
        router(), BuildOptions.packetmill(),
        params=MachineParams().at_frequency(2.3), tier="interpreter",
    ).build()
    assert via_profile.driver.tier is via_kwargs.driver.tier
    a = measure_throughput(via_profile, batches=40, warmup_batches=10)
    b = measure_throughput(via_kwargs, batches=40, warmup_batches=10)
    assert a == b
