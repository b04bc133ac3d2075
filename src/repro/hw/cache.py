"""Set-associative caches with LRU replacement, plus DDIO-aware LLC fills.

The model is a classic inclusive three-level hierarchy.  The one extension
needed for this paper is Intel DDIO: NIC DMA writes allocate directly into
the last-level cache, but only into a limited number of ways per set, so
heavy I/O both *warms* the LLC (packet data arrives cached) and *pressures*
it (DDIO fills evict application lines from those ways).

Each set is an ordered mapping from line address to its DDIO flag, kept in
LRU-first order (lookups promote to the MRU end, inserts append).  The
mapping gives O(1) hit/miss checks on the simulator's hottest path while
reproducing exactly the hit, promotion, and eviction decisions of the
original list-scan implementation: iteration order of the mapping is the
same LRU-first order the list kept, so the "first DDIO line" victim and
the plain-LRU victim are identical line addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Cache:
    """One set-associative, write-allocate, LRU cache level.

    Tags are full line addresses (``addr // line_size``); each set maps
    line address -> DDIO flag, ordered least-recently-used first.  The
    hardware model's hit path and DMA loop index ``_sets`` directly, so
    the list and its sets are only ever cleared in place, never replaced.
    """

    __slots__ = ("name", "size", "assoc", "line_size", "n_sets", "_sets",
                 "_ddio_count", "hits", "misses")

    def __init__(self, name: str, size: int, assoc: int, line_size: int = 64):
        if size % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.n_sets)]
        # Per-set count of DDIO-allocated lines (avoids rescanning flags).
        self._ddio_count: List[int] = [0] * self.n_sets
        self.hits = 0
        self.misses = 0

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self.n_sets

    def access(self, line_addr: int) -> bool:
        """Look up a line; on a hit, promote it to MRU.  Returns hit/miss."""
        cset = self._sets[line_addr % self.n_sets]
        flag = cset.pop(line_addr, None)
        if flag is None:
            self.misses += 1
            return False
        self.hits += 1
        cset[line_addr] = flag  # re-insert at the MRU end
        return True

    def fill(self, line_addr: int, ddio: bool = False,
             ddio_ways: Optional[int] = None) -> Optional[int]:
        """Insert a line, evicting LRU if the set is full.

        With ``ddio=True`` and ``ddio_ways`` set, the line may only displace
        other DDIO lines once the DDIO way quota for the set is reached --
        Intel's way-restricted I/O allocation.  Returns the evicted line
        address, if any.
        """
        idx = line_addr % self.n_sets
        cset = self._sets[idx]
        if line_addr in cset:
            return None
        evicted = None
        if ddio and ddio_ways is not None and self._ddio_count[idx] >= ddio_ways:
            # Evict the LRU DDIO line rather than an application line.
            for line, is_ddio in cset.items():
                if is_ddio:
                    evicted = line
                    break
            if evicted is not None:
                del cset[evicted]
                self._ddio_count[idx] -= 1
        if evicted is None and len(cset) >= self.assoc:
            evicted = next(iter(cset))  # LRU-first order
            if cset.pop(evicted):
                self._ddio_count[idx] -= 1
        cset[line_addr] = ddio
        if ddio:
            self._ddio_count[idx] += 1
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present (used for DMA coherence)."""
        idx = line_addr % self.n_sets
        flag = self._sets[idx].pop(line_addr, None)
        if flag is None:
            return False
        if flag:
            self._ddio_count[idx] -= 1
        return True

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.n_sets]

    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        for cset in self._sets:
            cset.clear()
        self._ddio_count = [0] * self.n_sets
        self.reset_stats()

    def __repr__(self) -> str:
        return "Cache(%s, %dKB, %d-way)" % (self.name, self.size // 1024, self.assoc)


class CacheHierarchy:
    """Per-core L1/L2 plus a shared LLC, with DDIO DMA fills.

    ``lookup`` walks the hierarchy and back-fills inclusively; ``dma_write``
    models the NIC writing packet data/descriptors straight into the LLC's
    DDIO ways while invalidating stale copies in core-private levels.
    """

    L1, L2, LLC, DRAM = range(4)

    def __init__(self, params, n_cores: int = 1):
        self.params = params
        self.n_cores = n_cores
        self.l1 = [Cache("L1-%d" % c, params.l1_size, params.l1_assoc, params.cache_line)
                   for c in range(n_cores)]
        self.l2 = [Cache("L2-%d" % c, params.l2_size, params.l2_assoc, params.cache_line)
                   for c in range(n_cores)]
        self.llc = Cache("LLC", params.llc_size, params.llc_assoc, params.cache_line)

    def lookup(self, core: int, line_addr: int) -> int:
        """Return the level that served the line and fill upper levels."""
        if self.l1[core].access(line_addr):
            return self.L1
        if self.l2[core].access(line_addr):
            self.l1[core].fill(line_addr)
            return self.L2
        if self.llc.access(line_addr):
            self.l2[core].fill(line_addr)
            self.l1[core].fill(line_addr)
            return self.LLC
        self.llc.fill(line_addr)
        self.l2[core].fill(line_addr)
        self.l1[core].fill(line_addr)
        return self.DRAM

    def dma_write(self, line_addr: int) -> None:
        """NIC DMA of one line: DDIO-allocate in LLC, invalidate core copies."""
        self.dma_write_lines(line_addr, line_addr)

    def dma_write_lines(self, first_line: int, last_line: int) -> None:
        """NIC DMA of lines ``first_line..last_line``, in one loop.

        Per line, the same state changes as :meth:`Cache.invalidate` on
        every core's L1 and L2 followed by
        ``llc.fill(line, ddio=True, ddio_ways=params.ddio_ways)``, with
        both inlined: a frame carries ~17 lines, and the calls cost more
        than the work.
        """
        # Only the LLC takes DDIO fills, so no private line is DDIO-flagged
        # and dropping one leaves the DDIO counts alone.
        private = [(cache._sets, cache.n_sets)
                   for pair in zip(self.l1, self.l2) for cache in pair]
        llc = self.llc
        llc_sets = llc._sets
        llc_n_sets = llc.n_sets
        llc_assoc = llc.assoc
        ddio_count = llc._ddio_count
        ddio_ways = self.params.ddio_ways
        for line_addr in range(first_line, last_line + 1):
            for sets, n_sets in private:
                sets[line_addr % n_sets].pop(line_addr, None)
            idx = line_addr % llc_n_sets
            cset = llc_sets[idx]
            if line_addr in cset:
                continue
            evicted = None
            if ddio_ways is not None and ddio_count[idx] >= ddio_ways:
                for victim, is_ddio in cset.items():
                    if is_ddio:
                        evicted = victim
                        break
                if evicted is not None:
                    del cset[evicted]
                    ddio_count[idx] -= 1
            if evicted is None and len(cset) >= llc_assoc:
                if cset.pop(next(iter(cset))):
                    ddio_count[idx] -= 1
            cset[line_addr] = True
            ddio_count[idx] += 1

    def dma_read(self, line_addr: int) -> bool:
        """NIC DMA read (TX): served from LLC when resident.  Returns hit."""
        return self.llc.access(line_addr)

    def dma_read_lines(self, first_line: int, last_line: int) -> None:
        """NIC DMA read of lines ``first_line..last_line``, in one loop.

        The same LLC promotions and hit/miss counts as :meth:`dma_read`
        per line, with :meth:`Cache.access` inlined.
        """
        llc = self.llc
        llc_sets = llc._sets
        llc_n_sets = llc.n_sets
        hits = 0
        for line_addr in range(first_line, last_line + 1):
            cset = llc_sets[line_addr % llc_n_sets]
            flag = cset.pop(line_addr, None)
            if flag is not None:
                cset[line_addr] = flag
                hits += 1
        llc.hits += hits
        llc.misses += last_line - first_line + 1 - hits

    def flush(self) -> None:
        for cache in self.l1 + self.l2 + [self.llc]:
            cache.flush()
