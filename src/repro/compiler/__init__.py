"""Toolchain substrate: struct layouts, the mini-IR, and optimization passes.

PacketMill's code optimizations are *program transformations*: they change
which instructions run per packet and which cache lines get touched.  This
package expresses the per-packet work of every element and driver as a
small IR (:mod:`repro.compiler.ir`), applies the paper's passes to it
(:mod:`repro.compiler.passes`), and lowers the result to a compact
executable cost program (:mod:`repro.compiler.lower`).

Struct layouts (:mod:`repro.compiler.structlayout`) give every metadata
field a byte offset, so the LTO field-reordering pass has its real effect:
hot fields migrate into the first cache line and fewer lines are loaded
per packet.

Execution happens through one of two bit-identical tiers behind the
:class:`~repro.compiler.runtime.ExecutionTier` API: the lowered-op
reference interpreter, or the core's batch charger over cached op rows
(the default).
"""

from repro.compiler.runtime import (
    DEFAULT_TIER,
    ExecutionTier,
    TierPolicy,
    TierSelection,
    select_tier,
)
from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    DirectCall,
    FieldAccess,
    Op,
    ParamRead,
    PoolOp,
    Program,
    RandomAccess,
    StateAccess,
    VirtualCall,
)
from repro.compiler.structlayout import Field, LayoutRegistry, StructLayout

__all__ = [
    "BranchHint",
    "Compute",
    "DEFAULT_TIER",
    "DataAccess",
    "DirectCall",
    "ExecutionTier",
    "Field",
    "FieldAccess",
    "LayoutRegistry",
    "Op",
    "ParamRead",
    "PoolOp",
    "Program",
    "RandomAccess",
    "StateAccess",
    "StructLayout",
    "TierPolicy",
    "TierSelection",
    "VirtualCall",
    "select_tier",
]
