"""Two-level data TLB model.

The paper's static-graph optimization argues that allocating elements in a
contiguous static segment (rather than scattered heap chunks) yields "a
less fragmented access pattern and fewer TLB misses"; this model is what
lets that effect show up in the measurements.
"""

from __future__ import annotations

from collections import OrderedDict


class _LruSet(OrderedDict):
    """A fully-associative LRU set of page numbers with a capacity bound.

    Least recently used first.  A hit moves the page to the end; a miss
    appends it and drops the first page once ``capacity`` is exceeded.
    """

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def __reduce__(self):
        # OrderedDict's default reconstructor passes the items to
        # __init__, which here takes a capacity -- rebuild explicitly so
        # instances survive pickling (process-pool sweep results carry
        # the full hardware model).
        return (self.__class__, (self.capacity,), None, None, iter(self.items()))


class Tlb:
    """L1 DTLB backed by a unified STLB; misses cost a page-walk.

    The state and statistics of one core's translation: the DTLB and
    STLB page sets and the access, DTLB-miss and walk counts.
    Translation itself runs inside
    :meth:`repro.hw.memory.MemorySystem.access` (DTLB, then STLB -- a hit
    refills the DTLB for free -- then a ``tlb_walk_ns`` walk), and
    :meth:`repro.hw.cpu.CpuCore.charge` serves DTLB hits of L1-hit loads
    itself.  Both hold the sets directly, so they are only ever cleared
    in place, never replaced.
    """

    def __init__(self, params):
        self.params = params
        self._dtlb = _LruSet(params.dtlb_entries)
        self._stlb = _LruSet(params.stlb_entries)
        self.dtlb_misses = 0
        self.walks = 0
        self.accesses = 0

    def reset_stats(self) -> None:
        self.dtlb_misses = 0
        self.walks = 0
        self.accesses = 0

    def flush(self) -> None:
        self._dtlb.clear()
        self._stlb.clear()
        self.reset_stats()
