"""Tests for the open-loop load/latency simulator."""

import pytest

from repro.perf.loadlatency import LoadLatencySimulator


def sim(service_ns=100.0, **kwargs):
    return LoadLatencySimulator(service_ns, **kwargs)


class TestCapacity:
    def test_capacity_close_to_service_rate(self):
        s = sim(service_ns=100.0)
        assert s.capacity_pps() == pytest.approx(1e9 / 100, rel=0.05)

    def test_poll_overhead_reduces_capacity(self):
        light = sim(poll_overhead_ns=0.0)
        heavy = sim(poll_overhead_ns=320.0)
        assert heavy.capacity_pps() < light.capacity_pps()

    def test_rejects_nonpositive_service(self):
        with pytest.raises(ValueError):
            LoadLatencySimulator(0.0)

    @pytest.mark.parametrize("ring_size", [0, -1])
    def test_rejects_empty_ring(self, ring_size):
        # A ring that holds nothing used to drop every packet and then
        # crash taking percentiles of no samples.
        with pytest.raises(ValueError, match="ring_size"):
            sim(ring_size=ring_size)

    @pytest.mark.parametrize("burst", [0, -4])
    def test_rejects_empty_burst(self, burst):
        # A zero burst used to serve nothing per poll and loop forever.
        with pytest.raises(ValueError, match="burst"):
            sim(burst=burst)

    @pytest.mark.parametrize("n_packets", [0, -10])
    def test_rejects_empty_run(self, n_packets):
        with pytest.raises(ValueError, match="n_packets"):
            sim().run(1e6, n_packets=n_packets)

    def test_smallest_valid_arguments_run(self):
        res = sim(ring_size=1, burst=1).run(2e7, n_packets=1)
        assert res.samples == 1
        assert res.drop_rate == 0.0


class TestLatencyBehaviour:
    def test_light_load_latency_near_floor(self):
        s = sim(service_ns=100.0, base_latency_us=6.0)
        res = s.run(offered_pps=1e6, n_packets=20_000)  # 10% load
        assert res.drop_rate == 0.0
        assert res.p50_us < 10.0
        assert res.p99_us < 25.0

    def test_latency_grows_with_load(self):
        s = sim(service_ns=100.0)
        light = s.run(2e6, n_packets=20_000)
        heavy = s.run(9e6, n_packets=20_000)
        assert heavy.p99_us > light.p99_us
        assert heavy.mean_us > light.mean_us

    def test_saturation_pins_latency_at_ring_depth(self):
        s = sim(service_ns=100.0, ring_size=256, base_latency_us=0.0)
        res = s.run(offered_pps=2e7, n_packets=40_000)  # 2x capacity
        assert res.saturated
        assert res.drop_rate > 0.3
        # Latency ~ ring_size * service = 25.6 us once the ring is full.
        assert res.p50_us == pytest.approx(25.6, rel=0.3)

    def test_achieved_caps_at_capacity(self):
        s = sim(service_ns=100.0)
        res = s.run(offered_pps=3e7, n_packets=40_000)
        assert res.achieved_pps <= s.capacity_pps() * 1.05

    def test_no_drops_below_capacity(self):
        s = sim(service_ns=100.0, ring_size=1024)
        res = s.run(offered_pps=s.capacity_pps() * 0.7, n_packets=40_000)
        assert res.drop_rate < 0.001
        assert not res.saturated

    def test_p99_at_least_p50(self):
        s = sim()
        res = s.run(offered_pps=5e6, n_packets=20_000)
        assert res.p99_us >= res.p50_us

    def test_deterministic_for_seed(self):
        a = sim(seed=5).run(4e6, n_packets=10_000)
        b = sim(seed=5).run(4e6, n_packets=10_000)
        assert a.p99_us == b.p99_us

    def test_base_latency_floor_added(self):
        without = sim(base_latency_us=0.0).run(1e6, n_packets=5_000)
        with_floor = sim(base_latency_us=6.0, seed=1).run(1e6, n_packets=5_000)
        assert with_floor.p50_us == pytest.approx(without.p50_us + 6.0, abs=0.5)

    def test_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            sim().run(0.0)

    def test_sweep_returns_per_load_results(self):
        s = sim()
        results = s.sweep([1e6, 2e6, 3e6], n_packets=5_000)
        assert [r.offered_pps for r in results] == [1e6, 2e6, 3e6]

    def test_knee_shape(self):
        """The paper's latency-vs-load knee: flat, then a sharp rise."""
        s = sim(service_ns=100.0, ring_size=1024)
        cap = s.capacity_pps()
        loads = [cap * f for f in (0.3, 0.6, 0.9, 1.1)]
        p99 = [s.run(load, n_packets=30_000).p99_us for load in loads]
        # Flat region: 30% -> 60% grows little; knee: 90% -> 110% explodes.
        assert p99[1] < p99[0] * 3
        assert p99[3] > p99[1] * 5
