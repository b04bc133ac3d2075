"""Static analysis for PacketMill configurations and compiler output.

Three cooperating checkers over the same IR the cost model executes:

- the **IR verifier** (:mod:`repro.analyze.verifier`): structural
  invariants of every element/PMD program against the active struct
  layouts, re-run after each compiler pass in debug mode;
- the **X-Change metadata dataflow** (:mod:`repro.analyze.dataflow`):
  per-field def/use propagation along the processing graph
  (use-before-init, dead stores, dead fields), cross-checked against the
  reordering pass's layout decision;
- the **constant propagation pass** (:mod:`repro.analyze.constprop`):
  path-sensitive abstract values per output port, propagated
  inter-element (``constant-branch``, ``redundant-check``); its dead
  edges sharpen the dataflow and its proven facts prune dead charges
  from the programs every execution tier runs;
- the **lints** (:mod:`repro.analyze.lints`, :mod:`repro.analyze.purity`,
  :mod:`repro.analyze.sharding`):
  graph structure (unreachable elements, unconnected inputs, dangling
  outputs, shadowed classifier rules), ``pure_process`` soundness for
  the driver's packet-class fast path, and sharding safety of stateful
  elements under multicore replication and steering.

:func:`analyze_config` runs everything over one configuration; the CLI
(``python -m repro.analyze``) wraps it; the build hook
(``PacketMill(..., analyze=...)``) gates builds on the result.
"""

from repro.analyze.api import analyze_config, analyze_graph
from repro.analyze.constprop import (
    ConstProp,
    Facts,
    compute_program_facts,
    join_facts,
    match_predicate,
)
from repro.analyze.dataflow import MetadataDataflow, crosscheck_reorder
from repro.analyze.findings import (
    ERROR,
    NOTE,
    SEVERITIES,
    WARNING,
    AnalysisError,
    AnalysisReport,
    Finding,
    severity_rank,
)
from repro.analyze.lints import GRAPH_LINTS, lint_graph
from repro.analyze.purity import (
    PurityError,
    assert_pure,
    check_graph_purity,
    check_purity,
)
from repro.analyze.qos import lint_qos, lint_qos_config
from repro.analyze.sharding import (
    classify_element_state,
    lint_sharding,
    sharding_stats,
)
from repro.analyze.verifier import (
    VerifierError,
    assert_verified,
    attach_verifier,
    verify_exec_program,
    verify_pool_pair,
    verify_program,
)

__all__ = [
    "ERROR",
    "NOTE",
    "WARNING",
    "SEVERITIES",
    "AnalysisError",
    "AnalysisReport",
    "ConstProp",
    "Facts",
    "Finding",
    "GRAPH_LINTS",
    "MetadataDataflow",
    "PurityError",
    "VerifierError",
    "analyze_config",
    "analyze_graph",
    "assert_pure",
    "assert_verified",
    "attach_verifier",
    "check_graph_purity",
    "check_purity",
    "classify_element_state",
    "compute_program_facts",
    "crosscheck_reorder",
    "join_facts",
    "lint_graph",
    "lint_qos",
    "lint_qos_config",
    "lint_sharding",
    "match_predicate",
    "severity_rank",
    "sharding_stats",
    "verify_exec_program",
    "verify_pool_pair",
    "verify_program",
]
