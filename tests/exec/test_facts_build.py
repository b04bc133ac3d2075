"""Facts-driven dead-code elimination: tier identity and opt-in plumbing."""

import pytest

from repro.core.nfs import guarded_router, router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.core.profile import RunProfile
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams
from repro.perf.runner import measure_throughput

TIERS = ("interpreter", "compiled")


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_FACTS", raising=False)
    monkeypatch.delenv("REPRO_TIER", raising=False)
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


def _build(config=None, tier="compiled", facts=None):
    return PacketMill(
        config if config is not None else guarded_router(),
        BuildOptions.packetmill(),
        params=MachineParams().at_frequency(2.3),
        tier=tier,
        facts=facts,
    ).build()


def _measure(binary):
    return measure_throughput(binary, batches=40, warmup_batches=10)


# -- the acceptance bar: byte identity, facts on or off, every tier -----------


def test_facts_eliminate_branches_on_the_guarded_router():
    binary = _build(facts=True)
    facts = binary.program_facts
    assert facts, "guarded-router must yield a non-empty facts map"
    assert set(facts) == {"arpguard", "sw"}
    assert sum(f.branches_eliminated for f in facts.values()) >= 1


def test_two_tiers_are_byte_identical_facts_on_and_off():
    points = {}
    for tier in TIERS:
        for facts in (False, True):
            exec_cache.reset_caches()
            points[(tier, facts)] = _measure(_build(tier=tier, facts=facts))
    baseline = points[("interpreter", False)]
    for key, point in points.items():
        run = point.run
        base = baseline.run
        assert run.tx_packets == base.tx_packets, key
        assert run.tx_bytes == base.tx_bytes, key
        assert run.drops == base.drops, key
    # Within one facts setting, every tier charges identically.
    for facts in (False, True):
        pps = {points[(tier, facts)].pps for tier in TIERS}
        assert len(pps) == 1, "tiers disagree with facts=%s" % facts


def test_facts_only_remove_work():
    off = _measure(_build(facts=False))
    on = _measure(_build(facts=True))
    assert on.run.instructions < off.run.instructions
    assert on.pps > off.pps


def test_facts_are_inert_on_configs_without_dead_branches():
    binary = _build(config=router(), facts=True)
    assert not binary.program_facts
    exec_cache.reset_caches()
    plain = _measure(_build(config=router(), facts=False))
    exec_cache.reset_caches()
    facted = _measure(_build(config=router(), facts=True))
    assert facted.pps == plain.pps


# -- opt-in plumbing ----------------------------------------------------------


def test_facts_default_off():
    assert _build().program_facts is None


def test_environment_opts_whole_runs_in(monkeypatch):
    monkeypatch.setenv("REPRO_FACTS", "1")
    assert _build().program_facts


def test_explicit_false_overrides_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FACTS", "1")
    assert _build(facts=False).program_facts is None


def test_profile_carries_the_facts_flag():
    profile = RunProfile(
        options=BuildOptions.packetmill(),
        params=MachineParams().at_frequency(2.3),
        facts=True,
    )
    binary = PacketMill.from_profile(guarded_router(), profile).build()
    assert binary.program_facts


def test_telemetry_counts_the_eliminated_work():
    binary = _build(facts=True)
    registry = binary.telemetry.registry
    assert registry.counter(
        "analyze.constprop.programs_specialized").value == 2
    assert registry.counter(
        "analyze.constprop.branches_eliminated").value >= 1
    assert registry.counter(
        "analyze.constprop.instructions_eliminated").value > 0
