"""Open-loop load/latency simulation (Figs. 1, 4, 8).

The generator offers packets at a fixed rate regardless of the DUT's
progress (open loop).  The DUT serves them in bursts at the service rate
measured from the hardware model.  A finite RX ring gives the classic
behaviour of these experiments: flat latency under light load, a sharp
knee near saturation, then latency pinned at ring-depth/service-rate with
drops -- which is why Fig. 1's curves bend where they do.

Three facts keep the simulation cheap without changing any result:

- **Shared draws.**  Poisson inter-arrival gaps are unit exponential
  draws scaled by the mean interval, and the draws depend only on the
  seed.  A simulator keeps the ``Exp(1)`` draws of its seed in an
  ``array('d')`` and every offered rate only rescales them, so an
  NDR/PDR search that probes one trial length at several rates draws
  once.  The arrival times are ``accumulate(draw * interval)``: the same
  float sequence as summing the gaps one packet at a time.
- **Count-only FIFO loop.**  Service is first-in first-out, so the event
  loop needs only the queue *length*: it admits each poll's arrivals with
  ``bisect_right``, records the index spans the full ring drops, and
  records ``(departure, batch size)`` per burst.  Latencies are paired up
  afterwards -- the n-th departure belongs to the n-th admitted arrival
  -- with the same ``((departure - arrival) + base) / 1000`` expression
  the per-packet loop used, the mean is taken in service order, and one
  in-place sort serves both percentiles.
- **Lazy summary.**  ``run()`` computes eagerly only what the event loop
  already knows: the offered and achieved rates, the drop rate and the
  admitted count.  An NDR/PDR search reads only ``drop_rate``, so the
  pairing, the mean and the sort run on the first read of ``mean_us``,
  ``p50_us`` or ``p99_us``, all three together; the raw arrays are then
  dropped.  The pending state owns its arrays (never the seed's shared
  draws), so a later longer run or a reseed cannot change it.  A result
  that is kept must not pin them: ``sweep()`` returns resolved results,
  and pickling or copying a result resolves it first.  Equality,
  ``repr``, ``dataclasses.asdict``/``replace``, ``copy`` and ``pickle``
  see exactly what an eagerly built result gives.

numpy would vectorise the pairing further, but importing it costs more
start-up time and resident memory than it saves here, on every run that
imports the simulator whether or not it models latency.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat, starmap
from math import isfinite, log
from operator import add, mul, sub, truediv
from typing import List

from repro.perf.stats import mean, sorted_percentile

_SUMMARY = ("mean_us", "p50_us", "p99_us")


@dataclass
class LatencyResult:
    """Latency distribution at one offered load."""

    offered_pps: float
    achieved_pps: float
    drop_rate: float
    mean_us: float
    p50_us: float
    p99_us: float
    samples: int

    @property
    def saturated(self) -> bool:
        return self.drop_rate > 0.005

    @classmethod
    def _lazy(cls, offered_pps, achieved_pps, drop_rate, samples,
              pending) -> "LatencyResult":
        """A result whose summary fields ``_summarise(*pending)`` computes
        on first read."""
        result = cls.__new__(cls)
        result.__dict__.update(offered_pps=offered_pps,
                               achieved_pps=achieved_pps,
                               drop_rate=drop_rate, samples=samples,
                               _pending=pending)
        return result

    def __getattr__(self, name):
        # Reached only when normal lookup fails: a pending summary field.
        if name in _SUMMARY and "_pending" in self.__dict__:
            self._resolve()
            return self.__dict__[name]
        raise AttributeError("%r object has no attribute %r"
                             % (type(self).__name__, name))

    def _resolve(self) -> None:
        """Compute a pending summary and drop the raw arrays."""
        state = self.__dict__
        pending = state.pop("_pending", None)
        if pending is not None:
            for name, value in zip(_SUMMARY, _summarise(*pending)):
                state.setdefault(name, value)
            state["samples"] = state.pop("samples")  # back to field order

    def __getstate__(self):
        # Copies and pickles carry numbers, never a pending summary.
        self._resolve()
        return self.__dict__


def _summarise(arrivals, drop_spans, batches, base_ns):
    """``(mean_us, p50_us, p99_us)`` of one run's per-packet latencies."""
    if drop_spans:
        admitted = array("d")
        start = 0
        for drop_start, drop_end in drop_spans:
            admitted += arrivals[start:drop_start]
            start = drop_end
        admitted += arrivals[start:]
    else:
        admitted = arrivals
    # FIFO: the n-th departure serves the n-th admitted arrival.
    departures = chain.from_iterable(starmap(repeat, batches))
    # ((departure - arrival) + base_ns) / 1000.0, one C-level map per
    # operation.
    lat_us = list(map(truediv, map(add, map(sub, departures, admitted),
                                     repeat(base_ns)), repeat(1000.0)))
    mean_us = mean(lat_us)
    lat_us.sort()
    return (mean_us, sorted_percentile(lat_us, 50),
            sorted_percentile(lat_us, 99))


class LoadLatencySimulator:
    """Batch-service queueing simulation over a finite RX ring."""

    def __init__(
        self,
        service_ns_per_packet: float,
        ring_size: int = 1024,
        burst: int = 32,
        poll_overhead_ns: float = 30.0,
        base_latency_us: float = 6.0,
        seed: int = 1,
    ):
        """``base_latency_us`` is the load-independent floor: wire + NIC +
        PCIe + generator timestamping, ~5-8 us on the paper's testbed."""
        if not (isfinite(service_ns_per_packet) and service_ns_per_packet > 0):
            raise ValueError("service time must be positive and finite, got %r"
                             % service_ns_per_packet)
        if ring_size < 1:
            raise ValueError("ring_size must be at least 1, got %r" % ring_size)
        if burst < 1:
            raise ValueError("burst must be at least 1, got %r" % burst)
        # NaN or negative times would stall or reverse the event clock.
        if not (isfinite(poll_overhead_ns) and poll_overhead_ns >= 0):
            raise ValueError("poll_overhead_ns must be finite and >= 0, got %r"
                             % poll_overhead_ns)
        if not (isfinite(base_latency_us) and base_latency_us >= 0):
            raise ValueError("base_latency_us must be finite and >= 0, got %r"
                             % base_latency_us)
        self.service_ns = service_ns_per_packet
        self.ring_size = ring_size
        self.burst = burst
        self.poll_overhead_ns = poll_overhead_ns
        self.base_latency_us = base_latency_us
        self.seed = seed
        # Exp(1) draws of Random(seed), extended on demand (see _draws).
        self._draws_seed = None
        self._draws_rng = None
        self._draws = array("d")

    def capacity_pps(self) -> float:
        """The service rate the ring can sustain."""
        batch_ns = self.burst * self.service_ns + self.poll_overhead_ns
        return self.burst / batch_ns * 1e9

    def _unit_draws(self, n_packets: int) -> array:
        """At least ``n_packets`` ``Random(seed).expovariate(1.0)`` draws.

        ``-log(1.0 - random())`` is ``expovariate``'s own formula with the
        division by a rate of 1.0 dropped, which is exact.  The draws of a
        seed are a prefix of any longer run of them, so the array only
        ever grows.
        """
        if self._draws_seed != self.seed:
            self._draws_seed = self.seed
            self._draws_rng = random.Random(self.seed)
            self._draws = array("d")
        draws = self._draws
        missing = n_packets - len(draws)
        if missing > 0:
            rand = self._draws_rng.random
            draws.extend([-log(1.0 - rand()) for _ in range(missing)])
        return draws

    def run(self, offered_pps: float, n_packets: int = 200_000) -> LatencyResult:
        """Simulate ``n_packets`` Poisson arrivals at ``offered_pps``.

        The latency summary is computed on its first read (module notes).
        """
        if not (isfinite(offered_pps) and offered_pps > 0):
            raise ValueError("offered load must be positive and finite, got %r"
                             % offered_pps)
        if not isinstance(n_packets, int):
            raise ValueError("n_packets must be an integer, got %r" % n_packets)
        if n_packets < 1:
            raise ValueError("n_packets must be at least 1, got %r" % n_packets)
        interval = 1e9 / offered_pps
        draws = islice(self._unit_draws(n_packets), n_packets)
        arrivals = array("d", accumulate(map(mul, draws, repeat(interval))))

        ring = self.ring_size
        burst = self.burst
        poll_ns = self.poll_overhead_ns
        service_ns = self.service_ns
        batches = []  # (departure time, packets served) per burst
        drop_spans = []  # [start, end) arrival indices the full ring refused
        dropped = 0
        queued = 0
        head = 0  # next arrival index not yet enqueued
        now = 0.0
        while head < n_packets or queued:
            if head < n_packets:
                arrival = arrivals[head]
                if not queued and arrival > now:
                    now = arrival  # idle: jump to the next arrival
                if arrival <= now:
                    # Enqueue everything that has arrived by `now`; ring
                    # overflow drops.  Most polls find one arrival, so
                    # look at the next before searching.
                    end = head + 1
                    if end < n_packets and arrivals[end] <= now:
                        end = bisect_right(arrivals, now, end + 1)
                    room = ring - queued
                    if end - head > room:
                        drop_spans.append((head + room, end))
                        dropped += end - head - room
                        queued = ring
                    else:
                        queued += end - head
                    head = end
            k = burst if queued > burst else queued
            queued -= k
            now += poll_ns + k * service_ns
            batches.append((now, k))

        served = n_packets - dropped
        duration_s = (now - arrivals[0]) / 1e9
        achieved = served / duration_s if duration_s > 0 else 0.0
        return LatencyResult._lazy(
            offered_pps, achieved, dropped / n_packets, served,
            (arrivals, drop_spans, batches, self.base_latency_us * 1000.0))

    def sweep(self, loads_pps, n_packets: int = 120_000) -> List[LatencyResult]:
        """One resolved result per offered load: kept results pin no arrays."""
        results = []
        for load in loads_pps:
            result = self.run(load, n_packets)
            result._resolve()
            results.append(result)
        return results
