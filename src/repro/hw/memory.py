"""The memory system: TLB + cache hierarchy + DRAM, with cost accounting.

Costs come back split into the two clock domains (core cycles vs. uncore
nanoseconds); see :mod:`repro.hw` for why.  LLC/DRAM latencies are divided
by the memory-level-parallelism factor because batched packet processing
keeps several misses in flight.

For multi-megabyte random-access working sets (the WorkPackage element of
§4.4/§4.9) an exact line-by-line simulation would need hundreds of
thousands of warm-up accesses, so :meth:`MemorySystem.analytic_access`
provides the standard capacity model instead: a uniformly random access
into a footprint of ``S`` bytes hits a level of effective capacity ``C``
with probability ``min(1, C/S)``.  The hot path (descriptors, metadata,
element state, packet headers) is always simulated exactly.

Exact accesses run as one Python frame each.  :meth:`MemorySystem.access`
is the whole walk -- DTLB, then STLB, then page walk; L1, L2 and LLC with
MRU promotion and inclusive LRU back-fill -- with the per-core structures
it reads hoisted once into a tuple (:meth:`MemorySystem._walk_state`), so
those structures are only ever cleared in place.  It is the definition of
the model: :meth:`repro.hw.cpu.CpuCore.mem_access` calls it, and :meth:`repro.hw.cpu.CpuCore.charge`, which charges a batch,
serves L1/DTLB hits itself (with the structures
:meth:`MemorySystem.hit_path` hands it) and sends every other access
here.  :meth:`MemorySystem.prefetch` is the same walk without the TLB.
NIC DMA writes and reads likewise run as one loop over the lines of a
frame (:meth:`CacheHierarchy.dma_write_lines`,
:meth:`CacheHierarchy.dma_read_lines`).
"""

from __future__ import annotations

import enum
import random
from typing import Tuple

from repro.hw.cache import CacheHierarchy
from repro.hw.counters import PerfCounters
from repro.hw.layout import DMA_BASE
from repro.hw.tlb import Tlb

HUGE_PAGE_SIZE = 2 * 1024 * 1024
#: Added to hugepage numbers so they never collide with 4 KB page numbers.
HUGE_PAGE_TAG = 1 << 40


class AccessLevel(enum.IntEnum):
    L1 = 0
    L2 = 1
    LLC = 2
    DRAM = 3


class MemorySystem:
    """Shared memory system for ``n_cores`` simulated cores."""

    def __init__(self, params, n_cores: int = 1, seed: int = 0):
        self.params = params
        self.n_cores = n_cores
        self.hierarchy = CacheHierarchy(params, n_cores)
        self.tlbs = [Tlb(params) for _ in range(n_cores)]
        self.counters = [PerfCounters() for _ in range(n_cores)]
        self._rng = random.Random(seed)
        # Effective per-level capacities for the analytic capacity model.
        # L1/L2 shares account for hot-path pollution; the LLC share is the
        # DESIGN.md §5 anchor (total minus DDIO ways, code, and pools).
        self.l1_effective = params.l1_size // 2
        self.l2_effective = int(params.l2_size * 0.75)
        self.llc_effective = 14 * 1024 * 1024
        self._walks = [self._walk_state(core) for core in range(n_cores)]

    # -- exact simulation ------------------------------------------------------

    def _walk_state(self, core: int) -> tuple:
        """Everything :meth:`access` and :meth:`prefetch` read, for ``core``.

        The core's TLB, its DTLB and STLB sets and their capacities, the
        page-walk cost, each cache level with its sets, set count and
        associativity, the LLC's per-set DDIO counts, the core's counter
        cells, and the per-level costs (quotients computed once; the walk
        sums exactly these values).  None of these objects is ever
        replaced -- flushes and resets clear them in place -- so the tuple
        stays valid for the life of the memory system.
        """
        params = self.params
        tlb = self.tlbs[core]
        hierarchy = self.hierarchy
        l1 = hierarchy.l1[core]
        l2 = hierarchy.l2[core]
        llc = hierarchy.llc
        h = self.counters[core].handles
        return (
            params.cache_line, params.page_size,
            tlb, tlb._dtlb, tlb._dtlb.capacity, tlb._stlb, tlb._stlb.capacity,
            params.tlb_walk_ns,
            l1, l1._sets, l1.n_sets, l1.assoc,
            l2, l2._sets, l2.n_sets, l2.assoc,
            llc, llc._sets, llc.n_sets, llc.assoc, llc._ddio_count,
            h.l1_hits, h.l2_hits, h.llc_loads, h.llc_hits, h.llc_misses,
            h.dtlb_walks,
            params.l1_hit_cycles, params.l2_hit_cycles,
            params.llc_hit_ns / params.mlp, params.dram_ns / params.mlp,
            params.llc_hit_ns / params.prefetch_mlp,
            params.dram_ns / params.prefetch_mlp,
        )

    def access(self, core: int, addr: int, size: int = 8,
               write: bool = False) -> Tuple[float, float]:
        """Access ``size`` bytes at ``addr``; returns (core_cycles, uncore_ns).

        Each cache line spanned counts as one load/store; the TLB is
        consulted once per page touched: the DTLB, then the STLB (a hit
        refills the DTLB at no cost), then a page walk.  A line is looked
        up in L1, L2 and the LLC in turn, promoted to MRU where it hits,
        and back-filled into every level above (inclusive, plain LRU
        fills; an evicted DDIO line leaves the LLC's DDIO count).  The
        whole walk runs in this one frame.
        """
        (line, page_size, tlb, dtlb, dtlb_cap, stlb, stlb_cap, walk_ns,
         l1, l1_sets, l1_n, l1_assoc, l2, l2_sets, l2_n, l2_assoc,
         llc, llc_sets, llc_n, llc_assoc, llc_ddio,
         l1_hits, l2_hits, llc_loads, llc_hits, llc_misses, dtlb_walks,
         l1_cycles, l2_cycles, llc_ns, dram_ns, _, _) = self._walks[core]
        cycles = 0.0
        ns = 0.0
        page = -1
        for line_addr in range(addr // line, (addr + size - 1) // line + 1):
            base = line_addr * line
            if base >= DMA_BASE:
                line_page = HUGE_PAGE_TAG + (base - DMA_BASE) // HUGE_PAGE_SIZE
            else:
                line_page = base // page_size
            if line_page != page:
                page = line_page
                tlb.accesses += 1
                if page in dtlb:
                    dtlb.move_to_end(page)
                else:
                    dtlb[page] = True
                    if len(dtlb) > dtlb_cap:
                        dtlb.popitem(last=False)
                    tlb.dtlb_misses += 1
                    if page in stlb:
                        stlb.move_to_end(page)
                    else:
                        stlb[page] = True
                        if len(stlb) > stlb_cap:
                            stlb.popitem(last=False)
                        tlb.walks += 1
                        ns += walk_ns
            l1_set = l1_sets[line_addr % l1_n]
            if line_addr in l1_set:
                l1_set[line_addr] = l1_set.pop(line_addr)
                l1.hits += 1
                l1_hits.value += 1
                cycles += l1_cycles
                continue
            l1.misses += 1
            l2_set = l2_sets[line_addr % l2_n]
            if line_addr in l2_set:
                l2_set[line_addr] = l2_set.pop(line_addr)
                l2.hits += 1
                l2_hits.value += 1
                cycles += l2_cycles
            else:
                l2.misses += 1
                llc_loads.value += 1
                index = line_addr % llc_n
                llc_set = llc_sets[index]
                flag = llc_set.pop(line_addr, None)
                if flag is not None:
                    llc_set[line_addr] = flag
                    llc.hits += 1
                    llc_hits.value += 1
                    ns += llc_ns
                else:
                    llc.misses += 1
                    if len(llc_set) >= llc_assoc:
                        if llc_set.pop(next(iter(llc_set))):
                            llc_ddio[index] -= 1
                    llc_set[line_addr] = False
                    llc_misses.value += 1
                    ns += dram_ns
                # Private caches never hold DDIO lines (only the LLC takes
                # DDIO fills), so their evictions leave the counts alone.
                if len(l2_set) >= l2_assoc:
                    del l2_set[next(iter(l2_set))]
                l2_set[line_addr] = False
            if len(l1_set) >= l1_assoc:
                del l1_set[next(iter(l1_set))]
            l1_set[line_addr] = False
        dtlb_walks.value = tlb.walks
        return cycles, ns

    def hit_path(self, core: int) -> tuple:
        """The state :meth:`repro.hw.cpu.CpuCore.charge` reads to serve an
        L1/DTLB hit itself.

        ``(cache_line, page_size, tlb, dtlb, l1, l1_sets, l1_n_sets,
        l1_hits, dtlb_walks, l1_hit_cycles)`` for ``core``: its
        :class:`Tlb` and DTLB set, its L1 :class:`~repro.hw.cache.Cache`
        and that cache's sets, the two counter cells a hit updates, and
        the cycles :meth:`access` charges for one L1 hit (summed onto
        ``0.0``, as :meth:`access` sums them).  Like :meth:`_walk_state`,
        valid for the life of the memory system.
        """
        params = self.params
        tlb = self.tlbs[core]
        l1 = self.hierarchy.l1[core]
        handles = self.counters[core].handles
        return (params.cache_line, params.page_size, tlb, tlb._dtlb, l1,
                l1._sets, l1.n_sets, handles.l1_hits, handles.dtlb_walks,
                0.0 + params.l1_hit_cycles)

    # -- analytic capacity model -----------------------------------------------

    def dispatch_access(self, core: int) -> Tuple[float, float]:
        """One dynamic-graph dispatch load (heap-resident, ASLR-scattered).

        Served per the calibrated locality mix in the machine parameters;
        see ``MachineParams.heap_dispatch_p_*`` for why this is an anchor
        rather than an emergent result.
        """
        params = self.params
        h = self.counters[core].handles
        u = self._rng.random()
        if u < params.heap_dispatch_p_dram:
            h.llc_loads.value += 1
            h.llc_misses.value += 1
            return 0.0, params.dram_ns / params.mlp
        if u < params.heap_dispatch_p_dram + params.heap_dispatch_p_llc:
            h.llc_loads.value += 1
            h.llc_hits.value += 1
            return 0.0, params.llc_hit_ns / params.mlp
        if u < (params.heap_dispatch_p_dram + params.heap_dispatch_p_llc
                + params.heap_dispatch_p_l2):
            h.l2_hits.value += 1
            return params.l2_hit_cycles, 0.0
        h.l1_hits.value += 1
        return params.l1_hit_cycles, 0.0

    def analytic_access(self, core: int, footprint: int) -> Tuple[float, float]:
        """One uniformly-random access into a ``footprint``-byte region."""
        params = self.params
        h = self.counters[core].handles
        u = self._rng.random()
        p_l1 = min(1.0, self.l1_effective / footprint) if footprint else 1.0
        p_l2 = min(1.0, self.l2_effective / footprint) if footprint else 1.0
        p_llc = min(1.0, self.llc_effective / footprint) if footprint else 1.0
        if u < p_l1:
            h.l1_hits.value += 1
            return params.l1_hit_cycles, 0.0
        if u < p_l2:
            h.l2_hits.value += 1
            return params.l2_hit_cycles, 0.0
        h.llc_loads.value += 1
        if u < p_llc:
            h.llc_hits.value += 1
            return 0.0, params.llc_hit_ns / params.random_access_mlp
        h.llc_misses.value += 1
        return 0.0, params.dram_ns / params.random_access_mlp

    def prefetch(self, core: int, addr: int, size: int = 64) -> float:
        """Software prefetch: pull lines toward L1 without a demand load.

        Returns the (deeply overlapped) exposed latency in ns.  Prefetches
        are not demand loads, so no LLC-load/miss events are counted --
        matching what ``perf`` sees when the MLX5 RX loop prefetches the
        packet data before the application touches it.  The lookups and
        back-fills are :meth:`access`'s, without the TLB, in one frame.
        """
        (line, _, _, _, _, _, _, _,
         l1, l1_sets, l1_n, l1_assoc, l2, l2_sets, l2_n, l2_assoc,
         llc, llc_sets, llc_n, llc_assoc, llc_ddio,
         _, _, _, _, _, _, _, _, _, _, llc_ns, dram_ns) = self._walks[core]
        ns = 0.0
        for line_addr in range(addr // line, (addr + size - 1) // line + 1):
            l1_set = l1_sets[line_addr % l1_n]
            if line_addr in l1_set:
                l1_set[line_addr] = l1_set.pop(line_addr)
                l1.hits += 1
                continue
            l1.misses += 1
            l2_set = l2_sets[line_addr % l2_n]
            if line_addr in l2_set:
                l2_set[line_addr] = l2_set.pop(line_addr)
                l2.hits += 1
            else:
                l2.misses += 1
                index = line_addr % llc_n
                llc_set = llc_sets[index]
                flag = llc_set.pop(line_addr, None)
                if flag is not None:
                    llc_set[line_addr] = flag
                    llc.hits += 1
                    ns += llc_ns
                else:
                    llc.misses += 1
                    if len(llc_set) >= llc_assoc:
                        if llc_set.pop(next(iter(llc_set))):
                            llc_ddio[index] -= 1
                    llc_set[line_addr] = False
                    ns += dram_ns
                if len(l2_set) >= l2_assoc:
                    del l2_set[next(iter(l2_set))]
                l2_set[line_addr] = False
            if len(l1_set) >= l1_assoc:
                del l1_set[next(iter(l1_set))]
            l1_set[line_addr] = False
        return ns

    # -- NIC DMA ------------------------------------------------------------------

    def dma_write(self, addr: int, size: int) -> None:
        """NIC writes ``size`` bytes (packet data or descriptors) via DDIO."""
        line = self.params.cache_line
        first_line = addr // line
        last_line = (addr + size - 1) // line
        self.hierarchy.dma_write_lines(first_line, last_line)
        self.counters[0].handles.ddio_fills.value += last_line - first_line + 1

    def dma_read(self, addr: int, size: int) -> None:
        """NIC reads ``size`` bytes for transmission (no core-side cost)."""
        line = self.params.cache_line
        self.hierarchy.dma_read_lines(addr // line, (addr + size - 1) // line)

    # -- housekeeping ---------------------------------------------------------------

    def registry_for(self, core: int):
        """The per-core counter registry backing ``counters[core]``.

        A build mounts this under ``cpu.`` in its own registry so the
        cache model's live handles and the build's telemetry read the
        same cells.
        """
        return self.counters[core].registry

    def reset_counters(self) -> None:
        for counters in self.counters:
            counters.reset()
        for tlb in self.tlbs:
            tlb.reset_stats()

    def flush(self) -> None:
        self.hierarchy.flush()
        for tlb in self.tlbs:
            tlb.flush()
        self.reset_counters()
