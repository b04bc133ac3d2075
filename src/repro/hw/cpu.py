"""Core-level cost accounting.

A :class:`CpuCore` accumulates the cost of executing a compiled packet
program: instruction issue (bounded by the core's sustainable IPC),
exposed cache/branch stalls in core cycles, and uncore/memory stalls in
wall-clock nanoseconds.  From these it derives the quantities the paper
reports: time per packet, packets per second, and instructions per cycle.
"""

from __future__ import annotations

from repro.hw.layout import DMA_BASE
from repro.hw.memory import HUGE_PAGE_SIZE, HUGE_PAGE_TAG, MemorySystem


class CpuCore:
    """One simulated core bound to a shared :class:`MemorySystem`."""

    def __init__(self, params, mem: MemorySystem, core_id: int = 0):
        self.params = params
        self.mem = mem
        self.core_id = core_id
        # Stand-in memory systems (the codegen self-check's) have no hit
        # path; every access of theirs goes through ``mem.access``.
        self._hit_path = (mem.hit_path(core_id)
                          if isinstance(mem, MemorySystem) else None)
        self.instructions = 0.0
        self.core_cycles = 0.0
        self.uncore_ns = 0.0

    # -- charging ----------------------------------------------------------------

    def charge_compute(self, instructions: float) -> None:
        """Pure ALU work: cost is issue-bandwidth-limited."""
        self.instructions += instructions
        self.core_cycles += instructions / self.params.issue_ipc

    def charge_cycles(self, cycles: float, instructions: float = 0.0) -> None:
        """Explicit stall cycles (e.g. dependency chains, fixed overheads)."""
        self.core_cycles += cycles
        self.instructions += instructions

    def charge_ns(self, ns: float) -> None:
        """Wall-clock cost in the uncore/I/O domain."""
        self.uncore_ns += ns

    def charge_branch_miss(self, count: float = 1.0) -> None:
        self.core_cycles += self.params.branch_miss_cycles * count
        self.mem.counters[self.core_id].handles.branch_misses.value += round(count)

    def mem_access(self, addr: int, size: int = 8, write: bool = False,
                   instructions: float = 1.0) -> None:
        """Issue a load/store through the cache hierarchy.

        A one-line access whose page is in the DTLB and whose line is in
        L1 is served right here, with exactly the state changes and
        charges :meth:`MemorySystem.access` would make for it (see
        :mod:`repro.hw.memory`).  The hit test reads state only; anything
        else takes the full walk.
        """
        hit_path = self._hit_path
        if hit_path is not None:
            (line, page_size, tlb, dtlb, l1, l1_sets, l1_n_sets, l1_hits,
             dtlb_walks, l1_hit_cycles) = hit_path
            line_addr = addr // line
            if (addr + size - 1) // line == line_addr:
                base = line_addr * line
                if base >= DMA_BASE:
                    page = HUGE_PAGE_TAG + (base - DMA_BASE) // HUGE_PAGE_SIZE
                else:
                    page = base // page_size
                cset = l1_sets[line_addr % l1_n_sets]
                if page in dtlb and line_addr in cset:
                    dtlb.move_to_end(page)
                    tlb.accesses += 1
                    cset[line_addr] = cset.pop(line_addr)
                    l1.hits += 1
                    l1_hits.value += 1
                    dtlb_walks.value = tlb.walks
                    self.instructions += instructions
                    self.core_cycles += (l1_hit_cycles
                                         + instructions / self.params.issue_ipc)
                    # A hit costs no uncore time, and adding 0.0 never
                    # changes the (never negative-zero) uncore_ns.
                    return
        cycles, ns = self.mem.access(self.core_id, addr, size, write)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    def prefetch(self, addr: int, size: int = 64) -> None:
        """Issue a software prefetch (1 instruction, overlapped latency)."""
        ns = self.mem.prefetch(self.core_id, addr, size)
        self.instructions += 1
        self.core_cycles += 1 / self.params.issue_ipc
        self.uncore_ns += ns

    def dispatch_access(self, instructions: float = 1.0) -> None:
        """One dynamic-graph dispatch load (vtable/element/port pointer)."""
        cycles, ns = self.mem.dispatch_access(self.core_id)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    def random_access(self, footprint: int, instructions: float = 1.0) -> None:
        """One random access into a large working set (WorkPackage model)."""
        cycles, ns = self.mem.analytic_access(self.core_id, footprint)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    # -- results -------------------------------------------------------------------

    @property
    def counters(self):
        return self.mem.counters[self.core_id]

    def elapsed_ns(self) -> float:
        """Total wall-clock time accounted so far."""
        return self.core_cycles / self.params.freq_ghz + self.uncore_ns

    def total_cycles(self) -> float:
        """Core cycles elapsed, counting uncore stalls at the core clock --
        what ``perf``'s ``cycles`` event measures."""
        return self.core_cycles + self.uncore_ns * self.params.freq_ghz

    def ipc(self) -> float:
        cycles = self.total_cycles()
        if cycles == 0:
            return 0.0
        return self.instructions / cycles

    def reset(self) -> None:
        self.instructions = 0.0
        self.core_cycles = 0.0
        self.uncore_ns = 0.0
