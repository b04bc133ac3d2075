"""Spans and call counters for the traced run.

:class:`Spans` times the benchmark's own calls into each layer (build,
DUT simulation, queue model, audits) and derives each span's self time,
its duration minus the part its child spans cover.  :class:`CallCounters`
counts calls into a few public simulator functions by wrapping them for
the length of a traced repetition and restoring the originals after, so
the untraced run executes the unmodified code.  Neither changes what is
simulated; the benchmark's digest check confirms it on every traced
repetition.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Tuple


class NullSpans:
    """The untraced run's spans: no clock reads, no records."""

    @contextmanager
    def span(self, name: str):
        yield


class Spans:
    """Nested named spans kept in memory: (name, start, end, parent index)."""

    def __init__(self):
        self.records: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.records[index]
            self.records[index] = (name, start, time.perf_counter(), parent)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed duration, summed self time, and count."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.records):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "count": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["count"] += 1
        return out


def _counted(fn, counts: Dict[str, int], key: str):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_burst(fn, counts: Dict[str, int]):
    def wrapper(self, max_burst):
        packets = fn(self, max_burst)
        counts["rx_bursts"] += 1
        counts["rx_burst_pkts"] += len(packets)
        return packets

    wrapper.__wrapped__ = fn
    return wrapper


class CallCounters:
    """Wrap simulator entry points with call counters while active.

    Counted: ``CpuCore.mem_access`` (hardware-model loads and stores),
    element and PMD program executions through the runtime tier's
    execute functions, PMD receive bursts and the packets they return,
    trace ``next_packet`` calls, and frames serialized by
    ``net.trace.build_frame``.
    """

    KEYS = ("mem_access", "programs", "rx_bursts", "rx_burst_pkts",
            "next_packet", "frames_built")

    def __init__(self):
        self.counts: Dict[str, int] = dict.fromkeys(self.KEYS, 0)
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "CallCounters":
        from repro.click import driver
        from repro.dpdk import pmd
        from repro.hw.cpu import CpuCore
        from repro.net import trace

        counts = self.counts
        try:
            self._patch(CpuCore, "mem_access",
                        _counted(CpuCore.mem_access, counts, "mem_access"))
            for module in (driver, pmd):
                for name in ("execute_bases", "execute_interpreted"):
                    self._patch(module, name, _counted(
                        getattr(module, name), counts, "programs"))
            self._patch(pmd.MlxPmd, "rx_burst",
                        _counted_burst(pmd.MlxPmd.rx_burst, counts))
            for cls in (trace._PooledTrace, trace.SkewedTraceGenerator):
                self._patch(cls, "next_packet",
                            _counted(cls.next_packet, counts, "next_packet"))
            self._patch(trace, "build_frame",
                        _counted(trace.build_frame, counts, "frames_built"))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
