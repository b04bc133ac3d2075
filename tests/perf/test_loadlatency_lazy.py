"""The lazy latency summary against the eager per-packet oracle.

``LoadLatencySimulator.run`` computes the rates, the drop rate and the
admitted count eagerly, and ``mean_us``/``p50_us``/``p99_us`` on first
read.  These properties check that the laziness is invisible: an unread
result reports the oracle's counts without computing its summary, a
summary read after later runs on the same simulator (longer ones that
extend the shared draws, a reseed) is still the oracle's, and every
generic reader of a dataclass sees what an eagerly built result gives.
"""

import copy
import pickle
from dataclasses import asdict, fields, replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.perf.loadlatency import (  # noqa: E402
    LatencyResult, LoadLatencySimulator)
from tests.perf.test_loadlatency_oracle import (  # noqa: E402
    reference_run, runs, simulators)

SUMMARY = ("mean_us", "p50_us", "p99_us")


def is_pending(result):
    return any(name not in vars(result) for name in SUMMARY)


def holds_numbers_only(result):
    return list(vars(result)) == [f.name for f in fields(LatencyResult)]


@settings(max_examples=100, deadline=None)
@given(simulators, runs)
def test_unread_result_counts_match_reference(sim, plan):
    for share, n in plan:
        offered = share * sim.capacity_pps()
        result = sim.run(offered, n)
        ref = reference_run(sim, offered, n)
        got = (result.offered_pps, result.achieved_pps, result.drop_rate,
               result.samples, result.saturated)
        want = (ref.offered_pps, ref.achieved_pps, ref.drop_rate,
                ref.samples, ref.saturated)
        assert repr(got) == repr(want)
        assert is_pending(result)


@settings(max_examples=60, deadline=None)
@given(simulators, runs, st.integers(1, 400))
def test_summary_read_late_matches_reference(sim, plan, longer):
    pending = []
    for share, n in plan:
        offered = share * sim.capacity_pps()
        pending.append((sim.run(offered, n), reference_run(sim, offered, n)))
    # Runs after the pending ones: a longer run extends the shared draws,
    # a reseed replaces them, and a new floor changes later latencies.
    offered = 0.9 * sim.capacity_pps()
    sim.run(offered, max(n for _, n in plan) + longer)
    sim.seed += 1
    sim.base_latency_us += 1.0
    sim.run(offered, longer)
    for result, ref in pending:
        assert is_pending(result)
        assert repr(result) == repr(ref)
        assert holds_numbers_only(result)


@settings(max_examples=60, deadline=None)
@given(simulators, st.floats(0.05, 4.0), st.integers(1, 600))
def test_unread_result_behaves_like_an_eager_one(sim, share, n):
    offered = share * sim.capacity_pps()
    eager = reference_run(sim, offered, n)

    def unread():
        result = sim.run(offered, n)
        assert is_pending(result)
        return result

    assert repr(asdict(unread())) == repr(asdict(eager))
    assert unread() == eager
    assert eager == unread()
    assert repr(replace(unread())) == repr(eager)
    assert repr(replace(unread(), samples=0)) == repr(replace(eager, samples=0))
    for clone in (copy.copy(unread()), copy.deepcopy(unread()),
                  pickle.loads(pickle.dumps(unread()))):
        assert repr(clone) == repr(eager)
        assert holds_numbers_only(clone)
    assert pickle.dumps(unread()) == pickle.dumps(eager)


def test_sweep_and_unpickled_results_hold_no_pending_state():
    sim = LoadLatencySimulator(100.0, ring_size=64, seed=3)
    loads = [sim.capacity_pps() * f for f in (0.3, 0.9, 1.5)]
    swept = sim.sweep(loads, n_packets=3_000)
    assert all(holds_numbers_only(r) for r in swept)
    assert [repr(r) for r in swept] == [
        repr(reference_run(sim, load, 3_000)) for load in loads]

    unread = sim.run(loads[2], 3_000)
    assert is_pending(unread)
    clone = pickle.loads(pickle.dumps(unread))
    assert holds_numbers_only(clone)
    # Pickling resolved the original too: nothing pending is left behind.
    assert holds_numbers_only(unread)


def test_a_field_set_before_the_first_read_is_kept():
    sim = LoadLatencySimulator(100.0, seed=2)
    result = sim.run(5e6, 2_000)
    result.p50_us = -1.0
    assert result.p50_us == -1.0
    ref = reference_run(sim, 5e6, 2_000)
    assert (result.mean_us, result.p99_us) == (ref.mean_us, ref.p99_us)
    assert result.p50_us == -1.0


def test_missing_attributes_still_raise():
    result = LoadLatencySimulator(100.0).run(1e6, 100)
    with pytest.raises(AttributeError, match="no_such_field"):
        result.no_such_field
    assert is_pending(result)
    eager = replace(result)
    del eager.mean_us
    with pytest.raises(AttributeError, match="mean_us"):
        eager.mean_us
