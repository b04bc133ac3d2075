"""Each workload at a tiny size: repeatable, audited, and equal to the
experiments' own code paths at seed 0."""

import pytest

from perfbench.probes import CallCounters, NullSpans, Spans
from perfbench.workloads import TINY, WORKLOADS, digest


def _rep(cls, seed=0, spans=None):
    spans = spans or NullSpans()
    workload = cls(seed, TINY)
    workload.setup(spans)
    out = workload.run(spans)
    workload.check(out, spans)
    return workload, out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_repetitions_repeat_exactly(name):
    from repro.exec import cache

    cls = WORKLOADS[name]
    _, first = _rep(cls)
    cache.reset_caches()
    _, second = _rep(cls)
    assert first.sim == second.sim
    assert first.metrics == second.metrics
    assert first.layers == second.layers
    assert digest(first.sim) == digest(second.sim)
    for value, unit in first.metrics.values():
        assert value > 0 and unit


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_repetition_simulates_the_same(name):
    cls = WORKLOADS[name]
    _, plain = _rep(cls, seed=3)
    spans = Spans()
    with CallCounters() as counters:
        _, traced = _rep(cls, seed=3, spans=spans)
    assert digest(plain.sim) == digest(traced.sim)
    assert counters.counts["mem_access"] > 0
    assert counters.counts["programs"] > 0
    assert counters.counts["rx_bursts"] > 0
    totals = spans.totals()
    assert {"build", "dut", "check"} <= set(totals)
    # Wrappers are gone once the counters exit.
    from repro.hw.cpu import CpuCore

    assert not hasattr(CpuCore.mem_access, "__wrapped__")


def test_seeds_change_the_inputs():
    cls = WORKLOADS["router-campus"]
    _, a = _rep(cls, seed=0)
    _, b = _rep(cls, seed=1)
    assert digest(a.sim) != digest(b.sim)


def _point(config, options, trace):
    from repro.exec.sweep import PointSpec

    return PointSpec(config, options, 2.3, TINY.batches, TINY.warmup_batches,
                     trace=trace).execute()


def test_router_matches_the_sweep_point_path():
    from repro.core.nfs import router
    from repro.core.options import BuildOptions
    from repro.exec.sweep import CAMPUS_TRACE

    _, out = _rep(WORKLOADS["router-campus"])
    for label, options in (("packetmill", BuildOptions.packetmill()),
                           ("vanilla", BuildOptions.vanilla())):
        point = _point(router(), options, CAMPUS_TRACE)
        build = out.sim["builds"][label]
        assert build["gbps"] == point.gbps
        assert build["ns_per_packet"] == point.ns_per_packet
        assert build["counters"] == point.run.counters


def test_forwarder_matches_the_sweep_point_path():
    from repro.core.nfs import forwarder
    from repro.core.options import BuildOptions
    from repro.exec.sweep import TraceKey

    _, out = _rep(WORKLOADS["fwd-64B"])
    point = _point(forwarder(), BuildOptions.packetmill(),
                   TraceKey("fixed", frame_len=64))
    build = out.sim["builds"]["packetmill"]
    assert build["gbps"] == point.gbps
    assert build["ns_per_packet"] == point.ns_per_packet


def test_router_latency_matches_the_fig01_queue_model():
    from repro.perf.loadlatency import LoadLatencySimulator

    _, out = _rep(WORKLOADS["router-campus"])
    build = out.sim["builds"]["packetmill"]
    sim = LoadLatencySimulator(1e9 / build["pps"], ring_size=1024)
    bits = build["mean_frame_len"] * 8
    first = sim.run(25.0 * 1e9 / bits, TINY.latency_packets)
    assert build["latency"][0]["p99_us"] == first.p99_us
    assert build["latency"][0]["drop_rate"] == first.drop_rate


def test_nat_matches_the_rss_imbalance_path():
    from repro.experiments.rss_imbalance import _run_one
    from repro.net.rss import RssConfig
    from repro.net.steering import SteeringPolicy

    _, out = _rep(WORKLOADS["nat-zipf-4core"])
    runtime, audit = _run_one(None, 1.6, TINY.nat_packets,
                              RssConfig(steering=SteeringPolicy()))
    tx_bytes = sum(b.driver.stats.tx_bytes for b in runtime.replicas)
    assert out.sim["gbps"] == tx_bytes * 8 / runtime.elapsed_ns()
    assert out.sim["offered"] == audit["offered"]
