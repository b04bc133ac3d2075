"""Execution of lowered cost programs against the hardware model.

A lowered :class:`ExecProgram` is charged to a
:class:`~repro.hw.cpu.CpuCore` once per packet: issue bandwidth for the
instruction count, expected branch-miss penalties, one cache-hierarchy
access per memory op (the op's target tag resolved to a concrete base
address), and the program's random accesses.

The charging loop itself lives in the core, :meth:`CpuCore.charge
<repro.hw.cpu.CpuCore.charge>`: it takes a program and one row of base
addresses ``(meta, mbuf, descriptor, data, state)`` per packet, so the
driver charges an element for a whole batch in one call.  Each program's
memory ops are flattened once into ``(target_index, offset, size,
write)`` rows (:meth:`ExecProgram.op_rows`, cached on the program), so
the loop indexes the row tuple instead of walking dataclasses.
:func:`execute_bases` is the one-packet entry (the PMD's RX/TX loops).

This module is also home to the **execution-tier API**.  The runtime has
two bit-identical ways of charging a program:

- :data:`ExecutionTier.INTERPRETER` -- walk the lowered ``MemOp``
  dataclasses per packet with one ``cpu.mem_access`` call per op
  (:func:`execute_interpreted`), the reference semantics;
- :data:`ExecutionTier.COMPILED` -- the core's batch charger over the
  cached op rows (:func:`execute_bases` per packet), the default.

:func:`select_tier` is the one place tier and fast-path guard decisions
are made: callers describe their instrumentation (faults, watchdog,
telemetry) and get back a :class:`TierSelection` with the effective tier
and whether the route-memoization fast path may engage.  ``REPRO_TIER``
picks the requested tier per process; ``REPRO_ROUTE_MEMO`` governs the
fast path.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.compiler.lower import TARGET_INDEX, ExecProgram


def execute_bases(cpu, program: ExecProgram, meta: int, mbuf: int,
                  descriptor: int, data: int, state: int) -> None:
    """Charge one packet's execution with the base addresses unpacked.

    A one-row :meth:`~repro.hw.cpu.CpuCore.charge`.  Instruction counts
    for memory/pool ops were already folded into ``program.instructions``
    during lowering, so the accesses themselves charge latency only.
    Identical charge sequence to :func:`execute_interpreted`.
    """
    cpu.charge(program, ((meta, mbuf, descriptor, data, state),))


def execute_interpreted(cpu, program: ExecProgram, meta: int, mbuf: int,
                        descriptor: int, data: int, state: int) -> None:
    """The reference interpreter: walk the lowered ops per packet.

    Resolves every :class:`~repro.compiler.lower.MemOp` through attribute
    access and a target-tag dict lookup on each packet, and charges each
    op with its own ``cpu.mem_access`` call -- the semantics the compiled
    tier must stay bit-identical to.
    """
    cpu.charge_compute(program.instructions)
    if program.branch_miss_expect:
        cpu.charge_branch_miss(program.branch_miss_expect)
    bases = (meta, mbuf, descriptor, data, state)
    for op in program.mem_ops:
        cpu.mem_access(bases[TARGET_INDEX[op.target]] + op.offset,
                       op.size, op.write, 0.0)
    for footprint, count in program.random_ops:
        for _ in range(count):
            cpu.random_access(footprint, 0.0)


# -- execution tiers -----------------------------------------------------------


class ExecutionTier(enum.Enum):
    """How lowered programs are charged to the hardware model."""

    INTERPRETER = "interpreter"
    COMPILED = "compiled"


DEFAULT_TIER = ExecutionTier.COMPILED

_OFF_VALUES = ("0", "false", "off", "no")


def as_tier(value: Union[None, str, "ExecutionTier"]) -> Optional[ExecutionTier]:
    """Coerce a user-facing tier spelling to the enum (``None`` passes)."""
    if value is None or isinstance(value, ExecutionTier):
        return value
    try:
        return ExecutionTier(str(value).lower())
    except ValueError:
        raise ValueError(
            "unknown execution tier %r (expected %s)"
            % (value, "/".join(t.value for t in ExecutionTier))
        ) from None


def tier_from_env() -> Optional[ExecutionTier]:
    """The process-wide requested tier (``REPRO_TIER``), if set."""
    raw = os.environ.get("REPRO_TIER", "").strip()
    if not raw:
        return None
    return as_tier(raw)


def route_memo_from_env() -> bool:
    """Whether the packet-class route-memo fast path is requested
    (``REPRO_ROUTE_MEMO``, default on)."""
    value = os.environ.get("REPRO_ROUTE_MEMO")
    return value is None or value.lower() not in _OFF_VALUES


@dataclass(frozen=True)
class TierPolicy:
    """What the caller *wants*; ``None`` fields defer to the environment.

    - ``tier``: requested :class:`ExecutionTier` (``REPRO_TIER``,
      default :data:`DEFAULT_TIER`);
    - ``route_memo``: allow the pure-classifier route-memoization fast
      path (``REPRO_ROUTE_MEMO``, default on).
    """

    tier: Union[None, str, ExecutionTier] = None
    route_memo: Optional[bool] = None


@dataclass(frozen=True)
class TierSelection:
    """The effective execution decisions for one driver/PMD build.

    The requested tier always runs, so ``demoted``/``reason`` are always
    ``False``/``""``; run reports still record them.
    """

    tier: ExecutionTier
    route_memo: bool
    requested: ExecutionTier
    demoted: bool = False
    reason: str = ""


def as_policy(value) -> TierPolicy:
    """Coerce ``None`` / tier / spelling / policy to a :class:`TierPolicy`."""
    if value is None:
        return TierPolicy()
    if isinstance(value, TierPolicy):
        return value
    return TierPolicy(tier=as_tier(value))


def select_tier(
    policy: Union[None, str, ExecutionTier, TierPolicy] = None,
    *,
    faults: bool = False,
    watchdog: bool = False,
    telemetry: bool = False,
) -> TierSelection:
    """Resolve the effective tier and fast-path guards for one build.

    The requested tier always runs; the route-memo fast path requires the
    run to be uninstrumented (no faults, watchdog or telemetry recorders),
    because memoized routes skip per-packet ``process()`` observation.
    """
    policy = as_policy(policy)
    requested = as_tier(policy.tier)
    if requested is None:
        requested = tier_from_env() or DEFAULT_TIER
    route_memo = policy.route_memo
    if route_memo is None:
        route_memo = route_memo_from_env()
    route_memo = bool(route_memo and not (faults or watchdog or telemetry))
    return TierSelection(tier=requested, route_memo=route_memo,
                         requested=requested)


__all__ = [
    "DEFAULT_TIER",
    "ExecutionTier",
    "TARGET_INDEX",
    "TierPolicy",
    "TierSelection",
    "as_policy",
    "as_tier",
    "execute_bases",
    "execute_interpreted",
    "route_memo_from_env",
    "select_tier",
    "tier_from_env",
]
