"""Path-sensitive inter-element constant propagation.

The PR 5 dataflow engine treats every element as one node with one
successor set: facts proven downstream of a classifier's IP arm leak
onto its ARP arm and vice versa.  This pass tracks abstract values **per
output port**.  A ``Classifier(12/0800, 12/0806, -)`` proves
``data[12:14] == 08 00`` on port 0 and ``08 06`` on port 1; downstream
elements on each edge see only their own facts.  Constants written by
elements (``Paint(1)`` sets ``paint_anno = 1``, ``EtherRewrite`` pins
the MAC bytes) propagate forward across the
:class:`~repro.click.graph.ProcessingGraph` until a write kills them.

The abstract domain per edge is a :class:`Facts` triple:

- ``data``: known packet-data bytes (frame-relative offset -> byte),
- ``meta``: known metadata-field constants (``paint_anno = 1``),
- ``ranges``: metadata-field intervals (``length in [0, 512]``).

``None`` means *unreachable* (the lattice top): a dead edge constrains
nothing.  Joins intersect -- facts only shrink, reachability only
grows, so the worklist terminates.

Elements opt in through three optional hooks (all default to "opaque"):

- ``dispatch_predicates()``: per output port, the condition under which
  the port fires (``None`` = catch-all), evaluated first-match like the
  interpreter's dispatch;
- ``const_writes()``: constants the element stores into every packet;
- ``specialized_ir(live_ports)``: a reduced IR program valid when only
  ``live_ports`` can fire (used by the build to mint
  :class:`~repro.compiler.facts.ProgramFacts`).

Findings:

- ``constant-branch`` (WARNING): an output port can never fire under the
  facts flowing in -- dead configuration, and the build drops the arm's
  charges when facts are on;
- ``redundant-check`` (NOTE): a dispatch decided entirely by upstream
  facts (an arm always matches, or every term of its test is implied).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analyze.findings import Finding
from repro.click.graph import ProcessingGraph
from repro.compiler.ir import DataAccess, FieldAccess, Program

# Match status of one dispatch arm under the facts flowing into it.
NEVER = "never"
ALWAYS = "always"
MAYBE = "maybe"
DEAD = "dead"  # shadowed: an earlier arm always matches

# Fields whose facts a data_ptr adjustment (strip/encap) invalidates:
# every data-byte fact is frame-relative, so moving the frame kills all.
_PTR_FIELDS = ("data_ptr", "buffer")

_RANGE_MAX = 1 << 30


@dataclass(frozen=True)
class Facts:
    """Known values on one edge.  Immutable and hashable; ``None`` (not a
    Facts instance) represents the unreachable edge."""

    data: Tuple[Tuple[int, int], ...] = ()
    meta: Tuple[Tuple[str, int], ...] = ()
    ranges: Tuple[Tuple[str, Tuple[int, int]], ...] = ()

    @staticmethod
    def make(data=None, meta=None, ranges=None) -> "Facts":
        meta = dict(meta or {})
        # Canonical form: an exact constant subsumes any interval.
        ranges = {f: r for f, r in (ranges or {}).items() if f not in meta}
        return Facts(
            data=tuple(sorted((data or {}).items())),
            meta=tuple(sorted(meta.items())),
            ranges=tuple(sorted(ranges.items())),
        )

    @property
    def data_map(self) -> Dict[int, int]:
        return dict(self.data)

    @property
    def meta_map(self) -> Dict[str, int]:
        return dict(self.meta)

    @property
    def range_map(self) -> Dict[str, Tuple[int, int]]:
        return dict(self.ranges)

    @property
    def count(self) -> int:
        return len(self.data) + len(self.meta) + len(self.ranges)

    def field_range(self, field: str) -> Optional[Tuple[int, int]]:
        """The effective interval of a metadata field, if any is known."""
        meta = self.meta_map
        if field in meta:
            return (meta[field], meta[field])
        return self.range_map.get(field)

    def join(self, other: "Facts") -> "Facts":
        """Meet over paths: keep only what both edges agree on."""
        sd, od = self.data_map, other.data_map
        data = {k: v for k, v in sd.items() if od.get(k) == v}
        sm, om = self.meta_map, other.meta_map
        meta = {k: v for k, v in sm.items() if om.get(k) == v}
        ranges: Dict[str, Tuple[int, int]] = {}
        fields = set(sm) | set(om) | set(self.range_map) | set(other.range_map)
        for field in fields:
            if field in meta:
                continue  # exact constant survived; no interval needed
            a, b = self.field_range(field), other.field_range(field)
            if a is None or b is None:
                continue
            ranges[field] = (min(a[0], b[0]), max(a[1], b[1]))
        return Facts.make(data, meta, ranges)


def join_facts(a: Optional[Facts], b: Optional[Facts]) -> Optional[Facts]:
    """Join where ``None`` = unreachable contributes nothing."""
    if a is None:
        return b
    if b is None:
        return a
    return a.join(b)


def _kill(facts: Facts, program: Program) -> Facts:
    """Drop every fact the element's IR may overwrite."""
    data = facts.data_map
    meta = facts.meta_map
    ranges = facts.range_map
    for op in program:
        if isinstance(op, DataAccess) and op.write:
            for off in list(data):
                if op.offset <= off < op.offset + op.size:
                    del data[off]
        elif isinstance(op, FieldAccess) and op.write and op.struct == "Packet":
            if op.fieldname in _PTR_FIELDS:
                data = {}
            meta.pop(op.fieldname, None)
            ranges.pop(op.fieldname, None)
    return Facts.make(data, meta, ranges)


def _gen(facts: Facts, element) -> Facts:
    """Apply the element's constant writes (after kills)."""
    writes = getattr(element, "const_writes", None)
    if writes is None:
        return facts
    gen = writes()
    if not gen:
        return facts
    data = facts.data_map
    meta = facts.meta_map
    ranges = facts.range_map
    for off, value in (gen.get("data") or {}).items():
        data[int(off)] = int(value) & 0xFF
    for field, value in (gen.get("meta") or {}).items():
        meta[field] = int(value)
        ranges.pop(field, None)
    return Facts.make(data, meta, ranges)


def _match_term_data(facts: Facts, offset: int, want: int) -> str:
    known = facts.data_map.get(offset)
    if known is None:
        return MAYBE
    return ALWAYS if known == want else NEVER


def _match_term_meta(facts: Facts, field: str, want: int) -> str:
    rng = facts.field_range(field)
    if rng is None:
        return MAYBE
    lo, hi = rng
    if lo == hi:
        return ALWAYS if lo == want else NEVER
    if want < lo or want > hi:
        return NEVER
    return MAYBE

def _match_term_range(facts: Facts, field: str, want: Tuple[int, int]) -> str:
    rng = facts.field_range(field)
    if rng is None:
        return MAYBE
    lo, hi = rng
    wlo, whi = want
    if lo >= wlo and hi <= whi:
        return ALWAYS
    if hi < wlo or lo > whi:
        return NEVER
    return MAYBE


def match_predicate(facts: Facts, predicate: Optional[dict]):
    """(status, implied_terms, total_terms) of one arm under ``facts``.

    ``predicate`` is ``None`` for a catch-all arm (always matches), else
    ``{"data": {off: byte}, "meta": {field: const}, "range":
    {field: (lo, hi)}}`` -- a conjunction.
    """
    if predicate is None:
        return ALWAYS, 0, 0
    statuses: List[str] = []
    for off, want in (predicate.get("data") or {}).items():
        statuses.append(_match_term_data(facts, int(off), int(want)))
    for field, want in (predicate.get("meta") or {}).items():
        statuses.append(_match_term_meta(facts, field, int(want)))
    for field, want in (predicate.get("range") or {}).items():
        statuses.append(_match_term_range(facts, field, tuple(want)))
    if NEVER in statuses:
        return NEVER, 0, len(statuses)
    implied = sum(1 for s in statuses if s == ALWAYS)
    if implied == len(statuses):
        return ALWAYS, implied, len(statuses)
    return MAYBE, implied, len(statuses)


def _refine(facts: Facts, predicate: Optional[dict]) -> Facts:
    """Facts on the taken edge: base facts plus the arm's equalities."""
    if predicate is None:
        return facts
    data = facts.data_map
    meta = facts.meta_map
    ranges = facts.range_map
    for off, want in (predicate.get("data") or {}).items():
        data[int(off)] = int(want) & 0xFF
    for field, want in (predicate.get("meta") or {}).items():
        meta[field] = int(want)
        ranges.pop(field, None)
    for field, want in (predicate.get("range") or {}).items():
        if field in meta:
            continue
        wlo, whi = tuple(want)
        have = facts.field_range(field)
        if have is not None:
            wlo, whi = max(wlo, have[0]), min(whi, have[1])
        ranges[field] = (wlo, min(whi, _RANGE_MAX))
    return Facts.make(data, meta, ranges)


class ConstProp:
    """Worklist fixpoint of per-port facts over a processing graph.

    After construction: ``in_facts[name]`` is the join over live in-edges
    (``None`` = fact-unreachable), ``port_status[(name, port)]`` the
    dispatch verdict per output port, ``dead_edges`` the set of
    ``(name, port)`` edges that can never fire.
    """

    def __init__(self, graph: ProcessingGraph):
        self.graph = graph
        self._programs = {e.name: e.ir_program() for e in graph.all_elements()}
        self.in_facts: Dict[str, Optional[Facts]] = {}
        self.port_status: Dict[Tuple[str, int], str] = {}
        self._implied: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self.dead_edges: set = set()
        self._run()

    # -- fixpoint -----------------------------------------------------

    def _out_facts(self, element, entry: Facts):
        """Per-port facts an element emits given its entry facts.

        Returns ``{port: Facts-or-None}`` plus the per-port match status.
        """
        base = _gen(_kill(entry, self._programs[element.name]), element)
        n_out = element.n_outputs
        hook = getattr(element, "dispatch_predicates", None)
        preds = hook() if hook is not None else None
        statuses: Dict[int, str] = {}
        implied: Dict[int, Tuple[int, int]] = {}
        outs: Dict[int, Optional[Facts]] = {}
        if not preds:
            for port in range(n_out):
                statuses[port] = MAYBE
                outs[port] = base
            return outs, statuses, implied
        decided = False
        for port in range(n_out):
            pred = preds[port] if port < len(preds) else None
            if decided:
                statuses[port] = DEAD
                outs[port] = None
                continue
            status, n_implied, n_terms = match_predicate(base, pred)
            statuses[port] = status
            implied[port] = (n_implied, n_terms)
            if status == NEVER:
                outs[port] = None
            else:
                outs[port] = _refine(base, pred)
                if status == ALWAYS:
                    decided = True
        return outs, statuses, implied

    def _run(self) -> None:
        graph = self.graph
        elements = {e.name: e for e in graph.all_elements()}
        sources = [e.name for e in graph.sources()]
        in_facts: Dict[str, Optional[Facts]] = {name: None for name in elements}
        for name in sources:
            in_facts[name] = Facts()
        # Facts each edge (src, port) currently carries; absent = unreachable.
        edge_facts: Dict[Tuple[str, int], Facts] = {}
        work = list(sources)
        while work:
            name = work.pop()
            element = elements[name]
            entry = in_facts[name]
            if entry is None:
                continue
            outs, statuses, implied = self._out_facts(element, entry)
            self.port_status.update(
                {(name, port): s for port, s in statuses.items()})
            self._implied.update(
                {(name, port): v for port, v in implied.items()})
            for port, target in enumerate(element.targets):
                if target is None:
                    continue
                succ = target[0]
                facts = outs.get(port)
                if facts is None:
                    continue  # dead edge contributes nothing
                if edge_facts.get((name, port)) == facts:
                    continue
                edge_facts[(name, port)] = facts
                merged = None
                for pred_name, pred_el in elements.items():
                    for pport, ptarget in enumerate(pred_el.targets):
                        if ptarget is not None and ptarget[0] is succ:
                            merged = join_facts(
                                merged, edge_facts.get((pred_name, pport)))
                if merged != in_facts[succ.name]:
                    in_facts[succ.name] = merged
                    work.append(succ.name)
        self.in_facts = in_facts
        for (name, port), status in self.port_status.items():
            if status in (NEVER, DEAD):
                if elements[name].target(port) is not None:
                    self.dead_edges.add((name, port))

    # -- results ------------------------------------------------------

    def prunable(self) -> Dict[str, Tuple[int, ...]]:
        """Live output ports per element, only for elements with >=1 dead
        port -- the input to IR specialization."""
        out: Dict[str, Tuple[int, ...]] = {}
        for element in self.graph.all_elements():
            if self.in_facts.get(element.name) is None:
                continue
            statuses = [
                self.port_status.get((element.name, port), MAYBE)
                for port in range(element.n_outputs)
            ]
            live = tuple(
                port for port, s in enumerate(statuses)
                if s not in (NEVER, DEAD)
            )
            if len(live) < element.n_outputs and element.n_outputs > 0:
                out[element.name] = live
        return out

    @property
    def stats(self) -> Dict[str, float]:
        facts_proven = sum(
            facts.count for facts in self.in_facts.values()
            if facts is not None
        )
        dead_ports = sum(
            1 for s in self.port_status.values() if s in (NEVER, DEAD))
        decided = sum(
            1 for s in self.port_status.values() if s != MAYBE)
        return {
            "constprop.facts_proven": float(facts_proven),
            "constprop.dead_ports": float(dead_ports),
            "constprop.decided": float(decided),
        }

    def findings(self) -> List[Finding]:
        from repro.analyze.lints import _location

        out: List[Finding] = []
        elements = {e.name: e for e in self.graph.all_elements()}
        for element in self.graph.all_elements():
            if self.in_facts.get(element.name) is None:
                continue
            statuses = [
                (port, self.port_status.get((element.name, port)))
                for port in range(element.n_outputs)
            ]
            for port, status in statuses:
                if status == NEVER:
                    out.append(Finding(
                        rule="constant-branch",
                        severity="warning",
                        subject=element.name,
                        message=(
                            "output port [%d] can never fire: its test "
                            "contradicts facts proven upstream" % port),
                        location=_location(element),
                    ))
                elif status == DEAD:
                    out.append(Finding(
                        rule="constant-branch",
                        severity="warning",
                        subject=element.name,
                        message=(
                            "output port [%d] can never fire: an earlier "
                            "arm always matches" % port),
                        location=_location(element),
                    ))
                elif status == ALWAYS:
                    n_implied, n_terms = self._implied.get(
                        (element.name, port), (0, 0))
                    if n_terms > 0:
                        out.append(Finding(
                            rule="redundant-check",
                            severity="note",
                            subject=element.name,
                            message=(
                                "dispatch on port [%d] is decided at "
                                "build time: all %d test term(s) are "
                                "implied by upstream facts"
                                % (port, n_terms)),
                            location=_location(element),
                        ))
        return out


def compute_program_facts(graph: ProcessingGraph, run_pass, registry,
                          constprop: Optional[ConstProp] = None):
    """Mint :class:`~repro.compiler.facts.ProgramFacts` per specializable
    element.

    ``run_pass(program) -> program`` is the build's pass pipeline (so the
    specialized IR goes through the same transforms as the original) and
    ``registry`` the build's *final* layout registry (reordered or not).
    Returns ``{element_name: ProgramFacts}`` with empty deltas dropped.
    """
    from repro.compiler.facts import facts_between
    from repro.compiler.ir import BranchHint
    from repro.compiler.lower import lower

    cp = constprop if constprop is not None else ConstProp(graph)
    live_map = cp.prunable()
    out = {}
    for element in graph.all_elements():
        live = live_map.get(element.name)
        if live is None:
            continue
        hook = getattr(element, "specialized_ir", None)
        if hook is None:
            continue
        original_ir = element.ir_program()
        special_ir = hook(live)
        if special_ir is None:
            continue
        original = lower(run_pass(original_ir), registry)
        specialized = lower(run_pass(special_ir), registry)
        branches = (original_ir.count(BranchHint)
                    - special_ir.count(BranchHint))
        facts = facts_between(
            original, specialized,
            branches_eliminated=max(0, branches),
            note="live ports %s" % (list(live),),
        )
        if not facts.is_empty:
            out[element.name] = facts
    return out


__all__ = [
    "ALWAYS",
    "ConstProp",
    "DEAD",
    "Facts",
    "MAYBE",
    "NEVER",
    "compute_program_facts",
    "join_facts",
    "match_predicate",
]
