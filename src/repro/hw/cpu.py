"""Core-level cost accounting.

A :class:`CpuCore` accumulates the cost of executing a compiled packet
program: instruction issue (bounded by the core's sustainable IPC),
exposed cache/branch stalls in core cycles, and uncore/memory stalls in
wall-clock nanoseconds.  From these it derives the quantities the paper
reports: time per packet, packets per second, and instructions per cycle.

Lowered element programs are charged per batch by :meth:`CpuCore.charge`,
one Python frame per (program, batch).  It serves single-line loads whose
page is in the DTLB and whose line is in L1 itself, and applies the
*same-line rule*: a single-line op on the line the previous op ended on
is an L1 hit with nothing to promote, because that access just left the
line MRU in L1 and its page MRU in the DTLB, and nothing else touches the
caches or TLBs between two ops of one charge.  Every other access goes
through :meth:`CpuCore.mem_access`, the single-access entry, which charges
one :meth:`~repro.hw.memory.MemorySystem.access` walk.  The charges are
the same float additions, in the same order, as charging each op with its
own ``mem_access`` call (:func:`repro.compiler.runtime.execute_interpreted`).
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
        """Issue one load/store through the cache hierarchy."""
        cycles, ns = self.mem.access(self.core_id, addr, size, write)
        self.instructions += instructions
        self.core_cycles += cycles + instructions / self.params.issue_ipc
        self.uncore_ns += ns

    def charge(self, program, rows) -> None:
        """Charge one execution of ``program`` per row of base addresses.

        ``program`` is a lowered :class:`~repro.compiler.lower.ExecProgram`;
        each row is a ``(meta, mbuf, descriptor, data, state)`` tuple the
        program's op rows index into.  Per row, in order: the program's
        instructions at issue bandwidth, its expected branch misses (cycles
        plus the rounded counter bump), each memory op as a zero-instruction
        load/store, and its random accesses through
        :meth:`~repro.hw.memory.MemorySystem.analytic_access`.

        The core's three sums live in locals and are written back before
        every call out, so each addition happens in the same order as with
        one call per op.  A single-line op whose page is in the DTLB and
        whose line is in L1 -- or whose line the previous op ended on (see
        the module docstring) -- is served here, with the promotions the
        walk would make; its access and hit counts are added at the end,
        which nothing in between reads.  Stand-in memory systems (the
        codegen self-check's) have no hit path: every op of theirs goes
        through :meth:`mem_access`.
        """
        try:
            ops = program._op_rows
        except AttributeError:
            ops = program.op_rows()
        params = self.params
        instructions = program.instructions
        compute_cycles = instructions / params.issue_ipc
        expect = program.branch_miss_expect
        if expect:
            miss_cycles = params.branch_miss_cycles * expect
            misses = round(expect)
            branch_misses = self.mem.counters[self.core_id].handles.branch_misses
        random_ops = program.random_ops
        if random_ops:
            analytic_access = self.mem.analytic_access
            core_id = self.core_id
        hit_path = self._hit_path
        if hit_path is not None:
            (line, page_size, tlb, dtlb, l1, l1_sets, l1_n_sets, l1_hits,
             dtlb_walks, l1_hit_cycles) = hit_path
        mem_access = self.mem_access
        dma_base = DMA_BASE
        hits = 0
        last_line = -1
        ins = self.instructions
        cycles = self.core_cycles
        ns = self.uncore_ns
        for bases in rows:
            ins += instructions
            cycles += compute_cycles
            if expect:
                cycles += miss_cycles
                branch_misses.value += misses
            for target, offset, size, write in ops:
                addr = bases[target] + offset
                if hit_path is not None:
                    line_addr = addr // line
                    if (addr + size - 1) // line == line_addr:
                        if line_addr == last_line:
                            hits += 1
                            cycles += l1_hit_cycles
                            continue
                        base = line_addr * line
                        if base >= dma_base:
                            page = HUGE_PAGE_TAG + (base - dma_base) // HUGE_PAGE_SIZE
                        else:
                            page = base // page_size
                        cset = l1_sets[line_addr % l1_n_sets]
                        if page in dtlb and line_addr in cset:
                            dtlb.move_to_end(page)
                            cset[line_addr] = cset.pop(line_addr)
                            hits += 1
                            cycles += l1_hit_cycles
                            last_line = line_addr
                            continue
                    # The walk leaves the access's last line MRU in L1 and
                    # its page MRU in the DTLB; an empty access touches none.
                    last_line = (addr + size - 1) // line if size > 0 else -1
                self.instructions = ins
                self.core_cycles = cycles
                self.uncore_ns = ns
                mem_access(addr, size, write, 0.0)
                ins = self.instructions
                cycles = self.core_cycles
                ns = self.uncore_ns
            if random_ops:
                for footprint, count in random_ops:
                    for _ in range(count):
                        c, n = analytic_access(core_id, footprint)
                        cycles += c
                        ns += n
        self.instructions = ins
        self.core_cycles = cycles
        self.uncore_ns = ns
        if hits:
            tlb.accesses += hits
            l1.hits += hits
            l1_hits.value += hits
            dtlb_walks.value = tlb.walks

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
