"""ProgramFacts: delta extraction and replay."""

import pytest

from repro.compiler.facts import FactsError, ProgramFacts, facts_between
from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_STATE,
    ExecProgram,
    MemOp,
)


def _program(name="elem", instructions=20.0, branch=0.1,
             mem_ops=None, random_ops=None):
    return ExecProgram(
        name=name,
        instructions=instructions,
        branch_miss_expect=branch,
        mem_ops=list(mem_ops if mem_ops is not None else [
            MemOp(TARGET_DATA, 12, 2, False),
            MemOp(TARGET_STATE, 0, 8, False),
            MemOp(TARGET_STATE, 8, 8, False),
        ]),
        random_ops=list(random_ops or []),
    )


# -- facts_between / apply round trip -----------------------------------------


def test_delta_round_trips_through_apply():
    original = _program()
    specialized = ExecProgram(
        name="elem", instructions=14.0, branch_miss_expect=0.0,
        mem_ops=[MemOp(TARGET_STATE, 8, 8, False)],
        random_ops=[],
    )
    facts = facts_between(original, specialized, branches_eliminated=1)
    assert facts.dead_instructions == 6.0
    assert facts.dead_branch_expect == pytest.approx(0.1)
    assert len(facts.dead_mem_ops) == 2
    pruned = facts.apply(original)
    assert pruned.instructions == specialized.instructions
    assert pruned.branch_miss_expect == specialized.branch_miss_expect
    assert pruned.mem_ops == specialized.mem_ops


def test_identical_programs_yield_empty_facts():
    facts = facts_between(_program(), _program())
    assert facts.is_empty


def test_random_ops_are_diffed_too():
    original = _program(random_ops=[(1 << 20, 2), (4096, 1)])
    specialized = _program(random_ops=[(4096, 1)])
    facts = facts_between(original, specialized)
    assert facts.dead_random_ops == ((1 << 20, 2),)
    assert facts.apply(original).random_ops == [(4096, 1)]


def test_non_subsequence_specialization_is_rejected():
    original = _program()
    reordered = _program(mem_ops=[
        MemOp(TARGET_STATE, 8, 8, False),
        MemOp(TARGET_DATA, 12, 2, False),
    ])
    with pytest.raises(FactsError, match="not a subsequence"):
        facts_between(original, reordered)


def test_cost_increase_is_rejected():
    with pytest.raises(FactsError, match="increased cost"):
        facts_between(_program(instructions=10.0),
                      _program(instructions=11.0))


def test_pool_behaviour_change_is_rejected():
    original = _program()
    grabby = _program()
    grabby.pool_gets = 1
    with pytest.raises(FactsError, match="pool behaviour"):
        facts_between(original, grabby)


def test_name_mismatch_is_rejected_both_ways():
    with pytest.raises(FactsError, match="cannot diff"):
        facts_between(_program("a"), _program("b"))
    facts = ProgramFacts(program="a", dead_instructions=1.0)
    with pytest.raises(FactsError, match="applied to program"):
        facts.apply(_program("b"))


def test_stale_facts_do_not_apply():
    facts = ProgramFacts(
        program="elem",
        dead_mem_ops=((TARGET_DATA, 99, 4, False),),
    )
    with pytest.raises(FactsError, match="not present"):
        facts.apply(_program())


def test_overdrawn_facts_do_not_apply():
    facts = ProgramFacts(program="elem", dead_instructions=1000.0)
    with pytest.raises(FactsError, match="more cost"):
        facts.apply(_program(instructions=20.0))
