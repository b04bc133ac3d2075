"""The batch charger's in-frame hit path, the one-loop DDIO writes and DMA
reads, and pickling of a running core and memory system.

The hit path of :meth:`CpuCore.charge` is pinned here by call counts:
L1/DTLB hits and same-line repeats never leave the charger's frame, and
every other access makes exactly one ``mem_access`` call.  Its charges
and state changes are compared against per-op charging in
``tests/hw/test_charge_oracle.py``.

For DMA, twin memory systems see the same operations.  On one, NIC DMA
runs as built (one loop per frame); on the other, through the per-line
primitives: for writes, ``Cache.invalidate`` on every private cache, then
a DDIO ``Cache.fill`` of the LLC; for reads, ``Cache.access`` on the LLC.
Core loads and stores are interleaved on both.  After every operation
both twins must agree on core charges, counter snapshots, TLB and cache
statistics, and the LRU order of every TLB and cache set.
"""

import pickle

import pytest

from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_PACKET_META,
    TARGET_STATE,
    ExecProgram,
    MemOp,
)
from repro.core.nfs import router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.hw.cpu import CpuCore
from repro.hw.layout import DMA_BASE
from repro.hw.memory import HUGE_PAGE_SIZE, MemorySystem
from repro.hw.params import MachineParams

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: Tiny caches and TLBs so short streams evict, spill, and walk; a
#: non-zero L1 hit cost and an awkward IPC so charges cannot cancel out.
PARAMS = MachineParams(
    l1_size=512, l1_assoc=2,
    l2_size=1024, l2_assoc=4,
    llc_size=2048, llc_assoc=4, ddio_ways=2,
    dtlb_entries=4, stlb_entries=8,
    l1_hit_cycles=1.25, issue_ipc=2.9,
)
LINE = PARAMS.cache_line

#: Page bases: 4 KB pages, and 2 MB hugepages of the DMA region.
PAGES = ([0x1000 * k for k in range(1, 10)]
         + [DMA_BASE + HUGE_PAGE_SIZE * k for k in range(3)])


def twins(n_cores):
    fast_mem = MemorySystem(PARAMS, n_cores=n_cores)
    ref_mem = MemorySystem(PARAMS, n_cores=n_cores)
    fast = [CpuCore(PARAMS, fast_mem, c) for c in range(n_cores)]
    ref = [CpuCore(PARAMS, ref_mem, c) for c in range(n_cores)]
    return (fast_mem, fast), (ref_mem, ref)


def reference_dma_write(mem, addr, size):
    first, last = addr // LINE, (addr + size - 1) // LINE
    hierarchy = mem.hierarchy
    for line_addr in range(first, last + 1):
        for core in range(hierarchy.n_cores):
            hierarchy.l1[core].invalidate(line_addr)
            hierarchy.l2[core].invalidate(line_addr)
        hierarchy.llc.fill(line_addr, ddio=True, ddio_ways=PARAMS.ddio_ways)
    mem.counters[0].handles.ddio_fills.value += last - first + 1


def reference_dma_read(mem, addr, size):
    for line_addr in range(addr // LINE, (addr + size - 1) // LINE + 1):
        mem.hierarchy.llc.access(line_addr)


def state(mem, cpus):
    hierarchy = mem.hierarchy
    caches = hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    return (
        [(c.instructions, c.core_cycles, c.uncore_ns) for c in cpus],
        [counters.snapshot() for counters in mem.counters],
        [(t.accesses, t.dtlb_misses, t.walks, list(t._dtlb), list(t._stlb))
         for t in mem.tlbs],
        [(c.hits, c.misses, [list(s.items()) for s in c._sets],
          list(c._ddio_count)) for c in caches],
    )


def apply(op, mem, cpus, reference):
    kind = op[0]
    if kind == "access":
        _, core, addr, size, write, instructions = op
        cpus[core % len(cpus)].mem_access(addr, size, write, instructions)
    elif kind == "dma":
        _, addr, size = op
        if reference:
            reference_dma_write(mem, addr, size)
        else:
            mem.dma_write(addr, size)
    elif kind == "dma_read":
        _, addr, size = op
        if reference:
            reference_dma_read(mem, addr, size)
        else:
            mem.dma_read(addr, size)
    else:
        mem.reset_counters()


#: Mostly a few hot lines on a few pages, so L1 hits land on pages that
#: are not the DTLB's most recent; sometimes anywhere, so sets evict.
hot = st.builds(lambda page, line, offset: page + line * LINE + offset,
                st.sampled_from(PAGES[:3] + PAGES[-2:]), st.integers(0, 2),
                st.integers(0, LINE - 1))
anywhere = st.builds(lambda page, line, offset: page + line * LINE + offset,
                     st.sampled_from(PAGES), st.integers(0, 12),
                     st.integers(0, LINE - 1))
addresses = st.one_of(hot, hot, anywhere)
accesses = st.tuples(st.just("access"), st.integers(0, 1), addresses,
                     st.one_of(st.sampled_from([1, 4, 8, 64]),
                               st.integers(1, 3 * LINE)),
                     st.booleans(), st.sampled_from([0.0, 1.0, 2.5]))
dmas = st.tuples(st.just("dma"), addresses, st.integers(1, 4 * LINE))
dma_reads = st.tuples(st.just("dma_read"), addresses, st.integers(1, 4 * LINE))
ops = st.lists(st.one_of(accesses, accesses, accesses, dmas, dmas, dma_reads,
                         st.just(("reset",))),
               min_size=1, max_size=120)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2]), ops)
def test_hit_path_and_dma_match_per_call_walks(n_cores, plan):
    """DMA loops against the per-line primitives, with core accesses."""
    (fast_mem, fast), (ref_mem, ref) = twins(n_cores)
    for op in plan:
        apply(op, fast_mem, fast, reference=False)
        apply(op, ref_mem, ref, reference=True)
        assert state(fast_mem, fast) == state(ref_mem, ref)


def counted_core(mem, core=0):
    """A core whose ``mem_access`` calls and memory walks are recorded."""
    cpu = CpuCore(PARAMS, mem, core)
    entries, walks = [], []
    single_access = cpu.mem_access
    full_walk = mem.access

    def mem_access(addr, *args):
        entries.append(addr)
        single_access(addr, *args)

    def access(core, addr, *args):
        walks.append(addr)
        return full_walk(core, addr, *args)

    cpu.mem_access = mem_access
    mem.access = access
    return cpu, entries, walks


def test_hits_stay_in_the_core_frame():
    mem = MemorySystem(PARAMS)
    cpu, entries, walks = counted_core(mem)
    crossing = 2 * LINE - 4
    program = ExecProgram("p", mem_ops=[
        MemOp(TARGET_PACKET_META, 0, 8),
        MemOp(TARGET_PACKET_META, 8, 8),        # same line as the last op
        MemOp(TARGET_DATA, 64, 8),              # hugepage DMA region
        MemOp(TARGET_PACKET_META, crossing, 8),  # spans two lines
        MemOp(TARGET_STATE, 0, 8),              # same line, other target
    ])
    row = (0x1000, 0, 0, DMA_BASE, 0x1000 + 2 * LINE)
    cpu.charge(program, [row] * 3)
    # First touches miss, and a line-crossing op always takes the walk;
    # same-line repeats and L1/DTLB hits never leave the charger.
    misses = [0x1000, DMA_BASE + 64, 0x1000 + crossing]
    assert entries == misses + [0x1000 + crossing] * 2
    assert walks == entries
    hits = 3 * 5 - len(entries)
    # Plus both lines of each repeated crossing, hits inside the walk.
    assert mem.counters[0].l1_hits == hits + 4
    # Every op touches one page.
    assert mem.tlbs[0].accesses == hits + len(entries)


def test_pickled_core_and_memory_continue_identically():
    binary = PacketMill(router(), BuildOptions.packetmill()).build()
    binary.driver.run_batches(20)
    clone_cpu, clone_mem = pickle.loads(pickle.dumps((binary.cpu, binary.mem)))
    assert clone_cpu.mem is clone_mem
    before = state(binary.mem, [binary.cpu])
    assert state(clone_mem, [clone_cpu]) == before

    # Replay loads over the start of every region the build allocated:
    # element state, pools and rings, the hugepage DMA region.
    stream = [region.base + off for region in binary.space.regions
              for off in range(0, min(region.size, 512), 24)]
    assert any(addr >= DMA_BASE for addr in stream)
    program = ExecProgram("p", mem_ops=[MemOp(TARGET_STATE, 0, 8),
                                        MemOp(TARGET_STATE, 4, 8)])
    rows = [(0, 0, 0, 0, addr) for addr in stream + stream]
    for addr in stream:
        clone_cpu.mem_access(addr, 8)
    clone_cpu.charge(program, rows)
    # The clone's walk and hit path mutated the clone's memory, not the
    # original's.
    assert state(binary.mem, [binary.cpu]) == before
    for addr in stream:
        binary.cpu.mem_access(addr, 8)
    binary.cpu.charge(program, rows)
    assert state(clone_mem, [clone_cpu]) == state(binary.mem, [binary.cpu])
    assert clone_mem.counters[0].l1_hits > before[1][0]["l1_hits"]
