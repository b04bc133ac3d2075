"""The count-only queue model against the per-packet loop it replaced.

``reference_run`` is the original simulation, kept here as the oracle:
one ``random.Random`` per run, a list of queued arrival times, and a
latency appended per served packet.  ``LoadLatencySimulator.run`` must
produce the same ``LatencyResult`` bit for bit, including when one
simulator is reused across offered rates and trial lengths (which is
when its cached draws are shared).
"""

import random
from typing import List

import pytest

from repro.perf.loadlatency import LatencyResult, LoadLatencySimulator
from repro.perf.stats import mean, percentile

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_run(sim: LoadLatencySimulator, offered_pps: float,
                  n_packets: int) -> LatencyResult:
    rng = random.Random(sim.seed)
    interval = 1e9 / offered_pps
    arrivals: List[float] = []
    t = 0.0
    for _ in range(n_packets):
        t += rng.expovariate(1.0) * interval
        arrivals.append(t)

    latencies_ns: List[float] = []
    drops = 0
    queue: List[float] = []
    head = 0
    now = 0.0
    while head < n_packets or queue:
        while head < n_packets and arrivals[head] <= now:
            if len(queue) < sim.ring_size:
                queue.append(arrivals[head])
            else:
                drops += 1
            head += 1
        if not queue:
            now = arrivals[head]
            continue
        batch = queue[: sim.burst]
        del queue[: len(batch)]
        now += sim.poll_overhead_ns + len(batch) * sim.service_ns
        for arrival in batch:
            latencies_ns.append(now - arrival)

    served = len(latencies_ns)
    duration_s = (now - arrivals[0]) / 1e9 if served else 0.0
    achieved = served / duration_s if duration_s > 0 else 0.0
    base_ns = sim.base_latency_us * 1000.0
    lat_us = [(l + base_ns) / 1000.0 for l in latencies_ns]
    return LatencyResult(
        offered_pps=offered_pps,
        achieved_pps=achieved,
        drop_rate=drops / n_packets,
        mean_us=mean(lat_us),
        p50_us=percentile(lat_us, 50),
        p99_us=percentile(lat_us, 99),
        samples=served,
    )


simulators = st.builds(
    LoadLatencySimulator,
    service_ns_per_packet=st.floats(0.5, 500.0),
    ring_size=st.integers(1, 64),
    burst=st.integers(1, 40),
    poll_overhead_ns=st.floats(0.0, 200.0),
    base_latency_us=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32),
)
#: (offered share of capacity, packets) per run; shares above 1 overload.
runs = st.lists(st.tuples(st.floats(0.05, 4.0), st.integers(1, 600)),
                min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(simulators, runs)
def test_matches_per_packet_loop(sim, plan):
    for share, n in plan:
        offered = share * sim.capacity_pps()
        assert repr(sim.run(offered, n)) == repr(reference_run(sim, offered, n))


@settings(max_examples=30, deadline=None)
@given(simulators, st.integers(1, 400), st.integers(1, 400))
def test_reseeding_discards_shared_draws(sim, n_first, n_second):
    offered = 0.9 * sim.capacity_pps()
    sim.run(offered, n_first)
    sim.seed += 1
    assert repr(sim.run(offered, n_second)) == repr(
        reference_run(sim, offered, n_second))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 300), st.integers(0, 300))
def test_inlined_draws_are_expovariate(seed, first, more):
    sim = LoadLatencySimulator(10.0, seed=seed)
    sim._unit_draws(first)
    draws = list(sim._unit_draws(first + more))
    rng = random.Random(seed)
    assert draws == [rng.expovariate(1.0) for _ in range(len(draws))]


def test_draws_are_drawn_once_per_seed():
    sim = LoadLatencySimulator(10.0, seed=4)
    sim.run(1e6, 300)
    draws = sim._draws
    sim.run(5e7, 120)
    sim.run(2e6, 300)
    assert sim._draws is draws and len(draws) == 300


def test_overload_matches_at_full_ring():
    sim = LoadLatencySimulator(100.0, ring_size=1024, seed=1)
    for share in (0.7, 0.999, 1.5, 3.0):
        offered = share * sim.capacity_pps()
        assert repr(sim.run(offered, 20_000)) == repr(
            reference_run(sim, offered, 20_000))
