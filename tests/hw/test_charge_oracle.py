"""Oracles for the batch charger and the one-frame memory walk.

(a) :meth:`CpuCore.charge` charging a batch against the reference
    interpreter, ``execute_interpreted``, run once per packet with one
    ``mem_access`` call per op, on twin cores and memory systems.
(b) The one-frame :meth:`MemorySystem.access` and
    :meth:`MemorySystem.prefetch` against the multi-frame walk they
    replaced, kept below as the oracle: ``Tlb.access`` over two LRU page
    sets, ``CacheHierarchy.lookup``, and the per-level ``Cache.access`` and
    ``Cache.fill``.

Both compare exact state after every step: ``float.hex`` of every sum,
counter snapshots, TLB and cache statistics, the LRU order of every TLB
and cache set, the LLC's DDIO counts, and the analytic model's random
state.
"""

import random

import pytest

from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_DESCRIPTOR,
    TARGET_PACKET_MBUF,
    TARGET_PACKET_META,
    TARGET_STATE,
    ExecProgram,
    MemOp,
)
from repro.compiler.runtime import execute_interpreted
from repro.hw.cpu import CpuCore
from repro.hw.layout import DMA_BASE
from repro.hw.memory import HUGE_PAGE_SIZE, HUGE_PAGE_TAG, MemorySystem
from repro.hw.params import MachineParams

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: Tiny caches and TLBs so short streams evict, spill, and walk; a
#: non-zero L1 hit cost and awkward constants so charges cannot cancel.
PARAMS = MachineParams(
    l1_size=512, l1_assoc=2,
    l2_size=1024, l2_assoc=4,
    llc_size=2048, llc_assoc=4, ddio_ways=2,
    dtlb_entries=4, stlb_entries=8,
    l1_hit_cycles=1.25, issue_ipc=2.9, branch_miss_cycles=17.3,
)
LINE = PARAMS.cache_line

#: Page bases: 4 KB pages, and 2 MB hugepages of the DMA region.
PAGES = ([0x1000 * k for k in range(1, 10)]
         + [DMA_BASE + HUGE_PAGE_SIZE * k for k in range(3)])


# -- the multi-frame walk, as it was -------------------------------------------


def old_lru_access(pages, page):
    if page in pages:
        pages.move_to_end(page)
        return True
    pages[page] = True
    if len(pages) > pages.capacity:
        pages.popitem(last=False)
    return False


def old_tlb_access(tlb, page):
    tlb.accesses += 1
    if old_lru_access(tlb._dtlb, page):
        return 0.0
    tlb.dtlb_misses += 1
    if old_lru_access(tlb._stlb, page):
        return 0.0
    tlb.walks += 1
    return tlb.params.tlb_walk_ns


def old_lookup(hierarchy, core, line_addr):
    if hierarchy.l1[core].access(line_addr):
        return 0
    if hierarchy.l2[core].access(line_addr):
        hierarchy.l1[core].fill(line_addr)
        return 1
    if hierarchy.llc.access(line_addr):
        hierarchy.l2[core].fill(line_addr)
        hierarchy.l1[core].fill(line_addr)
        return 2
    hierarchy.llc.fill(line_addr)
    hierarchy.l2[core].fill(line_addr)
    hierarchy.l1[core].fill(line_addr)
    return 3


def old_page_of(mem, addr):
    if addr >= DMA_BASE:
        return HUGE_PAGE_TAG + (addr - DMA_BASE) // HUGE_PAGE_SIZE
    return addr // mem.params.page_size


def old_access(mem, core, addr, size=8, write=False):
    params = mem.params
    h = mem.counters[core].handles
    line = params.cache_line
    cycles = 0.0
    ns = 0.0
    page = -1
    for line_addr in range(addr // line, (addr + size - 1) // line + 1):
        line_page = old_page_of(mem, line_addr * line)
        if line_page != page:
            page = line_page
            ns += old_tlb_access(mem.tlbs[core], page)
        level = old_lookup(mem.hierarchy, core, line_addr)
        if level == 0:
            h.l1_hits.value += 1
            cycles += params.l1_hit_cycles
        elif level == 1:
            h.l2_hits.value += 1
            cycles += params.l2_hit_cycles
        elif level == 2:
            h.llc_loads.value += 1
            h.llc_hits.value += 1
            ns += params.llc_hit_ns / params.mlp
        else:
            h.llc_loads.value += 1
            h.llc_misses.value += 1
            ns += params.dram_ns / params.mlp
    h.dtlb_walks.value = mem.tlbs[core].walks
    return cycles, ns


def old_prefetch(mem, core, addr, size=64):
    params = mem.params
    line = params.cache_line
    hierarchy = mem.hierarchy
    ns = 0.0
    for line_addr in range(addr // line, (addr + size - 1) // line + 1):
        if hierarchy.l1[core].access(line_addr):
            continue
        if hierarchy.l2[core].access(line_addr):
            hierarchy.l1[core].fill(line_addr)
            continue
        if hierarchy.llc.access(line_addr):
            ns += params.llc_hit_ns / params.prefetch_mlp
        else:
            hierarchy.llc.fill(line_addr)
            ns += params.dram_ns / params.prefetch_mlp
        hierarchy.l2[core].fill(line_addr)
        hierarchy.l1[core].fill(line_addr)
    return ns


# -- comparison ----------------------------------------------------------------


def state(mem, cpus=()):
    hierarchy = mem.hierarchy
    caches = hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    return (
        [(c.instructions.hex(), c.core_cycles.hex(), c.uncore_ns.hex())
         for c in cpus],
        [counters.snapshot() for counters in mem.counters],
        [(t.accesses, t.dtlb_misses, t.walks, list(t._dtlb), list(t._stlb))
         for t in mem.tlbs],
        [(c.hits, c.misses, [list(s.items()) for s in c._sets],
          list(c._ddio_count)) for c in caches],
        mem._rng.getstate(),
    )


def ddio_recount(cache):
    return [sum(flags.values()) for flags in cache._sets]


#: Mostly a few hot lines on a few pages, so L1 hits land on pages that
#: are not the DTLB's most recent; sometimes anywhere, so sets evict.
hot = st.builds(lambda page, line, offset: page + line * LINE + offset,
                st.sampled_from(PAGES[:3] + PAGES[-2:]), st.integers(0, 2),
                st.integers(0, LINE - 1))
anywhere = st.builds(lambda page, line, offset: page + line * LINE + offset,
                     st.sampled_from(PAGES), st.integers(0, 12),
                     st.integers(0, LINE - 1))
#: Just below the end of a page, so accesses cross into the next page.
page_end = st.builds(
    lambda page, back: page + (HUGE_PAGE_SIZE if page >= DMA_BASE
                               else 0x1000) - back,
    st.sampled_from(PAGES), st.integers(1, 2 * LINE))
addresses = st.one_of(hot, hot, anywhere, page_end)
#: Up to more lines than the tiny L1 has sets, so one access can evict.
sizes = st.one_of(st.sampled_from([1, 4, 8, 64]), st.integers(1, 6 * LINE))
dmas = st.tuples(st.just("dma"), addresses, st.integers(1, 4 * LINE))


# -- (a) the batch charger against per-packet interpretation ---------------------

TARGETS = (TARGET_PACKET_META, TARGET_PACKET_MBUF, TARGET_DESCRIPTOR,
           TARGET_DATA, TARGET_STATE)


def build_ops(specs):
    """Memory ops; a ``repeat`` lands on the line the previous op ended on
    (for the same base), or, with another target, wherever its base puts
    it -- often the same line, since rows share bases."""
    ops = []
    for repeat, target, offset, size, write, back in specs:
        if repeat and ops:
            prev = ops[-1]
            end = prev.offset + prev.size - 1
            target = prev.target if repeat == "same" else target
            offset = max(0, end - back)
            size = 1 + back % 8
        ops.append(MemOp(target, offset, size, write))
    return ops


op_specs = st.tuples(
    st.sampled_from([None, None, "same", "same", "other"]),
    st.sampled_from(TARGETS), st.integers(0, 3 * LINE),
    st.one_of(st.just(0), sizes), st.booleans(), st.integers(0, 12))
programs = st.builds(
    lambda name, instructions, expect, specs, random_ops: ExecProgram(
        name=name, instructions=instructions, branch_miss_expect=expect,
        mem_ops=build_ops(specs), random_ops=random_ops),
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.just(0.0), st.integers(0, 40),
              st.floats(0.0, 60.0, allow_nan=False)),
    st.one_of(st.just(0.0), st.sampled_from([0.45, 0.5, 1.5, 2.6]),
              st.floats(0.0, 3.0, allow_nan=False)),
    st.lists(op_specs, max_size=10),
    st.lists(st.tuples(st.sampled_from([1024, 48 * 1024, 1 << 20, 64 << 20]),
                       st.integers(1, 3)), max_size=2))
#: A packet's buffer bases; ``None`` is a packet without a buffer.
buffers = st.one_of(st.none(), st.tuples(addresses, addresses, addresses,
                                         addresses))
batches = st.tuples(st.just("batch"), st.integers(0, 3), programs,
                    addresses, st.lists(buffers, min_size=1, max_size=6))
plans = st.lists(st.one_of(batches, batches, batches, dmas,
                           st.just(("reset",))), min_size=1, max_size=25)


def rows_of(buffers, state_base):
    return [(0, 0, 0, 0, state_base) if bases is None
            else bases + (state_base,) for bases in buffers]


def twin_cores(n_cores, seed=7):
    pairs = []
    for _ in range(2):
        mem = MemorySystem(PARAMS, n_cores=n_cores, seed=seed)
        pairs.append((mem, [CpuCore(PARAMS, mem, c) for c in range(n_cores)]))
    return pairs


def run_charge_plan(n_cores, plan):
    (mem, cpus), (ref_mem, ref_cpus) = twin_cores(n_cores)
    for step in plan:
        if step[0] == "batch":
            _, core, program, state_base, buffers = step
            rows = rows_of(buffers, state_base)
            cpus[core % n_cores].charge(program, rows)
            ref = ref_cpus[core % n_cores]
            for row in rows:
                execute_interpreted(ref, program, *row)
        elif step[0] == "dma":
            _, addr, size = step
            mem.dma_write(addr, size)
            ref_mem.dma_write(addr, size)
        else:
            mem.reset_counters()
            ref_mem.reset_counters()
        assert state(mem, cpus) == state(ref_mem, ref_cpus)
    return mem


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 4]), plans)
def test_batch_charge_matches_per_packet_interpretation(n_cores, plan):
    run_charge_plan(n_cores, plan)


def test_same_line_repeats_and_hugepages_are_exercised():
    """A deterministic long plan reaching the charger's every branch."""
    rng = random.Random(5)
    ops = [MemOp(TARGET_PACKET_META, 0, 8), MemOp(TARGET_PACKET_META, 8, 8),
           MemOp(TARGET_DATA, 60, 8), MemOp(TARGET_DATA, 70, 4),
           MemOp(TARGET_STATE, 0, 8), MemOp(TARGET_STATE, 0, 0)]
    program = ExecProgram("p", instructions=7.5, branch_miss_expect=1.6,
                          mem_ops=ops, random_ops=[(48 * 1024, 2)])
    plan = []
    for _ in range(200):
        buffers = [None if rng.random() < 0.1 else
                   tuple(rng.choice(PAGES) + rng.randrange(4 * LINE)
                         for _ in range(4)) for _ in range(rng.randint(1, 8))]
        plan.append(("batch", rng.randrange(4), program,
                     rng.choice(PAGES) + rng.randrange(LINE), buffers))
        if rng.random() < 0.3:
            plan.append(("dma", rng.choice(PAGES[-3:]), rng.randint(1, 256)))
    mem = run_charge_plan(4, plan)
    counters = [c.snapshot() for c in mem.counters]
    assert all(c["l1_hits"] and c["llc_misses"] for c in counters)
    assert all(c["branch_misses"] for c in counters)


def charge_against_reference(program, rows):
    (mem, (cpu,)), (ref_mem, (ref,)) = twin_cores(1)
    cpu.charge(program, rows)
    for row in rows:
        execute_interpreted(ref, program, *row)
    assert state(mem, [cpu]) == state(ref_mem, [ref])


def test_empty_op_ends_on_no_line():
    """An empty access touches nothing, so the line before its address
    is no same-line hit for the next op."""
    program = ExecProgram("p", mem_ops=[MemOp(TARGET_STATE, LINE, 0),
                                        MemOp(TARGET_STATE, LINE - 1, 1)])
    charge_against_reference(program, [(0, 0, 0, 0, 0x2000)])


def test_multi_line_op_ends_on_its_last_line():
    """After an access spanning two pages, only its last line (and page)
    is most recent; the next op on its first line is a DTLB miss."""
    program = ExecProgram("p", mem_ops=[
        MemOp(TARGET_STATE, 0, 2 * LINE), MemOp(TARGET_STATE, 0, 8)])
    for page in range(1, 7):  # fill the 4-entry DTLB with other pages
        program.mem_ops.insert(0, MemOp(TARGET_DATA, page * 0x1000, 8))
    charge_against_reference(program, [(0, 0, 0, 0x10000, 0x2000 - LINE)])


# -- (b) the one-frame walk against the multi-frame walk ---------------------------


def apply_walk(op, mem, old):
    kind = op[0]
    if kind == "access":
        _, core, addr, size = op
        core %= mem.n_cores
        if old:
            return old_access(mem, core, addr, size)
        return mem.access(core, addr, size)
    if kind == "prefetch":
        _, core, addr, size = op
        core %= mem.n_cores
        if old:
            return old_prefetch(mem, core, addr, size)
        return mem.prefetch(core, addr, size)
    if kind == "dma":
        _, addr, size = op
        mem.dma_write(addr, size)
    elif kind == "flush":
        mem.flush()
    else:
        mem.reset_counters()
    return None


def hexed(result):
    if result is None:
        return None
    if isinstance(result, tuple):
        return tuple(value.hex() for value in result)
    return result.hex()


def run_walk_plan(n_cores, plan):
    mem = MemorySystem(PARAMS, n_cores=n_cores)
    ref = MemorySystem(PARAMS, n_cores=n_cores)
    for op in plan:
        assert hexed(apply_walk(op, mem, False)) == hexed(apply_walk(op, ref, True))
        assert state(mem) == state(ref)
        assert mem.hierarchy.llc._ddio_count == ddio_recount(mem.hierarchy.llc)
    return mem


walk_ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 3), addresses, sizes),
        st.tuples(st.just("access"), st.integers(0, 3), addresses, sizes),
        st.tuples(st.just("prefetch"), st.integers(0, 3), addresses, sizes),
        dmas, dmas, st.just(("reset",)), st.just(("flush",))),
    min_size=1, max_size=120)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 4]), walk_ops)
def test_one_frame_walk_matches_multi_frame_walk(n_cores, plan):
    run_walk_plan(n_cores, plan)


def test_walk_plan_reaches_every_eviction_and_translation_path():
    """A deterministic long plan, checked to reach: DTLB misses served by
    the STLB, page walks, L1 and L2 evictions, and plain LLC fills that
    evict DDIO-flagged lines."""
    rng = random.Random(11)
    plan = []
    for _ in range(3000):
        roll = rng.random()
        addr = rng.choice(PAGES) + rng.randrange(16 * LINE)
        if roll < 0.6:
            plan.append(("access", rng.randrange(2), addr, rng.randint(1, 130)))
        elif roll < 0.75:
            plan.append(("prefetch", rng.randrange(2), addr, rng.randint(1, 130)))
        elif roll < 0.98:
            plan.append(("dma", addr, rng.randint(1, 300)))
        else:
            plan.append(("reset",))
    mem = MemorySystem(PARAMS, n_cores=2)
    ref = MemorySystem(PARAMS, n_cores=2)
    stlb_hits = walks = ddio_plain_evictions = 0
    evicted = {"L1": 0, "L2": 0}
    for op in plan:
        tlbs = [(t.dtlb_misses, t.walks) for t in ref.tlbs]
        ddio_before = sum(ref.hierarchy.llc._ddio_count)
        private = {"L1": ref.hierarchy.l1, "L2": ref.hierarchy.l2}
        before = {name: [resident(c) for c in caches]
                  for name, caches in private.items()}
        assert hexed(apply_walk(op, mem, False)) == hexed(apply_walk(op, ref, True))
        assert state(mem) == state(ref)
        if op[0] == "access":
            for (misses, walked), tlb in zip(tlbs, ref.tlbs):
                walks += tlb.walks - walked
                stlb_hits += (tlb.dtlb_misses - misses) - (tlb.walks - walked)
        if op[0] in ("access", "prefetch"):
            ddio_plain_evictions += ddio_before - sum(ref.hierarchy.llc._ddio_count)
            # Loads only drop a private line by evicting it.
            for name, caches in private.items():
                evicted[name] += sum(len(lines - resident(c))
                                     for lines, c in zip(before[name], caches))
    assert stlb_hits > 0 and walks > 0
    assert ddio_plain_evictions > 0
    assert evicted["L1"] > 0 and evicted["L2"] > 0


def resident(cache):
    return {line for cset in cache._sets for line in cset}
