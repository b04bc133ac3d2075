"""Two-level data TLB model.

The paper's static-graph optimization argues that allocating elements in a
contiguous static segment (rather than scattered heap chunks) yields "a
less fragmented access pattern and fewer TLB misses"; this model is what
lets that effect show up in the measurements.
"""

from __future__ import annotations

from collections import OrderedDict


class _LruSet(OrderedDict):
    """A fully-associative LRU set of page numbers with a capacity bound."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def __reduce__(self):
        # OrderedDict's default reconstructor passes the items to
        # __init__, which here takes a capacity -- rebuild explicitly so
        # instances survive pickling (process-pool sweep results carry
        # the full hardware model).
        return (self.__class__, (self.capacity,), None, None, iter(self.items()))

    def access(self, page: int) -> bool:
        if page in self:
            self.move_to_end(page)
            return True
        self[page] = True
        if len(self) > self.capacity:
            self.popitem(last=False)
        return False


class Tlb:
    """L1 DTLB backed by a unified STLB; misses cost a page-walk.

    :meth:`repro.hw.cpu.CpuCore.mem_access` serves DTLB hits of L1-hit
    loads without calling :meth:`access`; it promotes the page in
    ``_dtlb`` and counts the access itself, so the set is only ever
    cleared in place, never replaced.
    """

    def __init__(self, params):
        self.params = params
        self._dtlb = _LruSet(params.dtlb_entries)
        self._stlb = _LruSet(params.stlb_entries)
        self.dtlb_misses = 0
        self.walks = 0
        self.accesses = 0

    def access(self, page: int) -> float:
        """Translate one page; returns the exposed walk latency in ns."""
        self.accesses += 1
        if self._dtlb.access(page):
            return 0.0
        self.dtlb_misses += 1
        if self._stlb.access(page):
            return 0.0  # STLB hits refill the DTLB essentially for free
        self.walks += 1
        return self.params.tlb_walk_ns

    def reset_stats(self) -> None:
        self.dtlb_misses = 0
        self.walks = 0
        self.accesses = 0

    def flush(self) -> None:
        self._dtlb.clear()
        self._stlb.clear()
        self.reset_stats()
