"""The one-frame DTLB+L1 hit path and the one-loop DDIO writes and DMA
reads against the per-call walks they shortcut.

Twin memory systems see the same operations.  On one, cores issue loads
and stores through ``CpuCore.mem_access`` as built (hits served in the
core's own frame); on the other, the core's hit path is removed, so every
access takes ``MemorySystem.access``.  DMA on the reference twin applies
the per-line primitives: for writes, ``Cache.invalidate`` on every private
cache, then a DDIO ``Cache.fill`` of the LLC; for reads, ``Cache.access``
on the LLC.  After every operation both twins
must agree on core charges, counter snapshots, TLB and cache statistics,
and the LRU order of every TLB and cache set.
"""

import pickle

import pytest

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
    for cpu in ref:
        cpu._hit_path = None  # every access takes the full walk
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
    (fast_mem, fast), (ref_mem, ref) = twins(n_cores)
    for op in plan:
        apply(op, fast_mem, fast, reference=False)
        apply(op, ref_mem, ref, reference=True)
        assert state(fast_mem, fast) == state(ref_mem, ref)


def test_hits_stay_in_the_core_frame():
    (mem, (cpu,)), _ = twins(1)
    walks = []
    full_walk = mem.access

    def counted(*args):
        walks.append(args)
        return full_walk(*args)

    mem.access = counted
    for _ in range(3):
        for addr in (0x1000, 0x1008, DMA_BASE + 64, 0x1000 + 2 * LINE - 4):
            cpu.mem_access(addr, 8)
    # First touches and the line-crossing access walk; repeats hit.
    assert [args[1] for args in walks] == [
        0x1000, DMA_BASE + 64, 0x1000 + 2 * LINE - 4,
        0x1000 + 2 * LINE - 4, 0x1000 + 2 * LINE - 4]
    assert mem.counters[0].l1_hits > 0


def test_stand_in_memory_takes_its_own_access():
    class Stub:
        def access(self, core, addr, size, write):
            return 2.0, 3.0

    cpu = CpuCore(PARAMS, Stub())
    cpu.mem_access(0x40, 8, instructions=1.0)
    assert cpu.uncore_ns == 3.0
    assert cpu.core_cycles == 2.0 + 1.0 / PARAMS.issue_ipc


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
    for addr in stream + stream:
        clone_cpu.mem_access(addr, 8)
    # The clone's hit path mutated the clone's memory, not the original's.
    assert state(binary.mem, [binary.cpu]) == before
    for addr in stream + stream:
        binary.cpu.mem_access(addr, 8)
    assert state(clone_mem, [clone_cpu]) == state(binary.mem, [binary.cpu])
    assert clone_mem.counters[0].l1_hits > before[1][0]["l1_hits"]
