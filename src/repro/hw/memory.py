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

Exact accesses are split into a hit path and a full walk.  Most hot-path
loads touch one line whose page is in the DTLB and which sits in L1; for
those, :meth:`repro.hw.cpu.CpuCore.mem_access` makes the walk's state
changes itself (DTLB and L1 LRU promotion, the TLB's and L1's access
counts, the ``l1_hits``/``dtlb_walks`` cells) in one Python frame, using
the structures :meth:`MemorySystem.hit_path` hands it.  It decides hit or
miss before touching anything, and everything else -- multi-line
accesses, DTLB or L1 misses, and callers that enter here directly, such
as generated kernels -- takes :meth:`MemorySystem.access`, which remains
the definition of the model.  NIC DMA writes and reads likewise run as
one loop over the lines of a frame (:meth:`CacheHierarchy.dma_write_lines`,
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

    # -- exact simulation ------------------------------------------------------

    def access(self, core: int, addr: int, size: int = 8,
               write: bool = False) -> Tuple[float, float]:
        """Access ``size`` bytes at ``addr``; returns (core_cycles, uncore_ns).

        Each cache line spanned counts as one load/store; the TLB is
        consulted once per page touched.
        """
        params = self.params
        h = self.counters[core].handles
        line = params.cache_line
        first_line = addr // line
        last_line = (addr + size - 1) // line
        cycles = 0.0
        ns = 0.0
        page = -1
        for line_addr in range(first_line, last_line + 1):
            line_page = self._page_of(line_addr * line)
            if line_page != page:
                page = line_page
                ns += self.tlbs[core].access(page)
            level = self.hierarchy.lookup(core, line_addr)
            if level == CacheHierarchy.L1:
                h.l1_hits.value += 1
                cycles += params.l1_hit_cycles
            elif level == CacheHierarchy.L2:
                h.l2_hits.value += 1
                cycles += params.l2_hit_cycles
            elif level == CacheHierarchy.LLC:
                h.llc_loads.value += 1
                h.llc_hits.value += 1
                ns += params.llc_hit_ns / params.mlp
            else:
                h.llc_loads.value += 1
                h.llc_misses.value += 1
                ns += params.dram_ns / params.mlp
        h.dtlb_walks.value = self.tlbs[core].walks
        return cycles, ns

    def hit_path(self, core: int) -> tuple:
        """The state :meth:`CpuCore.mem_access` needs to serve a hit alone.

        ``(cache_line, page_size, tlb, dtlb, l1, l1_sets, l1_n_sets,
        l1_hits, dtlb_walks, l1_hit_cycles)`` for ``core``: its
        :class:`Tlb` and DTLB set, its L1 :class:`~repro.hw.cache.Cache`
        and that cache's sets, the two counter cells a hit updates, and
        the cycles :meth:`access` charges for one L1 hit (summed onto
        ``0.0``, as :meth:`access` sums them).  None of these
        objects is ever replaced (flushes clear them in place), so the
        tuple stays valid for the life of the memory system.
        """
        params = self.params
        tlb = self.tlbs[core]
        l1 = self.hierarchy.l1[core]
        handles = self.counters[core].handles
        return (params.cache_line, params.page_size, tlb, tlb._dtlb, l1,
                l1._sets, l1.n_sets, handles.l1_hits, handles.dtlb_walks,
                0.0 + params.l1_hit_cycles)

    def _page_of(self, addr: int) -> int:
        """Page number; the DPDK DMA region is hugepage-backed (2 MB)."""
        if addr >= DMA_BASE:
            return HUGE_PAGE_TAG + (addr - DMA_BASE) // HUGE_PAGE_SIZE
        return addr // self.params.page_size

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
        packet data before the application touches it.
        """
        params = self.params
        line = params.cache_line
        hierarchy = self.hierarchy
        ns = 0.0
        for line_addr in range(addr // line, (addr + size - 1) // line + 1):
            if hierarchy.l1[core].access(line_addr):
                continue
            if hierarchy.l2[core].access(line_addr):
                self.hierarchy.l1[core].fill(line_addr)
                continue
            if hierarchy.llc.access(line_addr):
                ns += params.llc_hit_ns / params.prefetch_mlp
            else:
                hierarchy.llc.fill(line_addr)
                ns += params.dram_ns / params.prefetch_mlp
            hierarchy.l2[core].fill(line_addr)
            hierarchy.l1[core].fill(line_addr)
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
