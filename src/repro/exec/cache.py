"""Content-keyed caches for the experiment suite.

Three layers, each bit-exact by construction:

- **Trace cache.**  Building a trace generator costs a pool of a couple
  thousand serialized frames.  The pool, the flow population, and the
  post-build RNG state are pure functions of the
  ``(kind, frame_len, TraceSpec)`` key, so the first build is snapshotted
  and later requests get a restored clone: same spec, same flows, same
  frames, same RNG state, cursor back at zero -- indistinguishable from a
  fresh construction.

- **Build cache.**  The compile half of :meth:`PacketMill.build` -- layout
  registration, IR passes, metadata reordering, lowering -- is a pure
  function of ``(config text, BuildOptions, machine params sans
  frequency)``.  The resulting :class:`LayoutRegistry` and
  ``{element: ExecProgram}`` map are immutable after the build (the
  reorder pass *replaces* registry entries, it never mutates a published
  layout, and nothing writes an ``ExecProgram`` after lowering), so they
  are shared across binaries.  Frequency is excluded from the key because
  it only scales time, never code: that is what lets a frequency sweep
  compile once.

- **Point cache.**  A whole measured sweep point
  (:class:`repro.exec.sweep.PointSpec` -> :class:`ThroughputPoint`) is
  deterministic in its spec, so repeated points (Table 1 reuses Fig. 4's
  3-GHz column) are measured once per process.

Hit/miss counters live in a module-level
:class:`~repro.telemetry.registry.CounterRegistry` and surface through
any :class:`~repro.click.handlers.HandlerBroker` under the virtual
``exec.cache.*`` namespace.

Environment gates (checked per call, so tests can flip them):
``REPRO_CACHE=0`` disables every layer; ``REPRO_TRACE_CACHE=0``,
``REPRO_BUILD_CACHE=0``, and ``REPRO_POINT_CACHE=0`` disable one.
"""

from __future__ import annotations

import os
import random
from dataclasses import fields as dataclass_fields
from typing import Dict, Optional, Tuple

from repro.net.flows import FlowSet
from repro.net.trace import CampusTraceGenerator, FixedSizeTraceGenerator, TraceSpec
from repro.telemetry.registry import CounterRegistry

#: Process-wide cache statistics (``exec.cache.*`` through handler brokers).
REGISTRY = CounterRegistry()

_TRACE_HITS = REGISTRY.counter("trace_hits")
_TRACE_MISSES = REGISTRY.counter("trace_misses")
_BUILD_HITS = REGISTRY.counter("build_hits")
_BUILD_MISSES = REGISTRY.counter("build_misses")
_POINT_HITS = REGISTRY.counter("point_hits")
_POINT_MISSES = REGISTRY.counter("point_misses")

_OFF = ("0", "false", "off", "no")


def enabled(layer: str) -> bool:
    """Whether the ``trace`` / ``build`` / ``point`` cache layer is on."""
    if os.environ.get("REPRO_CACHE", "").lower() in _OFF:
        return False
    return os.environ.get("REPRO_%s_CACHE" % layer.upper(), "").lower() not in _OFF


# -- trace cache ---------------------------------------------------------------

#: Generator-class registry for :func:`trace_generator` keys.
TRACE_KINDS = {
    "campus": CampusTraceGenerator,
    "fixed": FixedSizeTraceGenerator,
}


class _TraceSnapshot:
    """The reusable innards of a built pooled-trace generator."""

    __slots__ = ("kind", "frame_len", "spec_fields", "rng_state",
                 "flows", "cdf", "pool", "pool_flows")

    def __init__(self, kind, frame_len, gen):
        self.kind = kind
        self.frame_len = frame_len
        spec = gen.spec
        self.spec_fields = (spec.n_flows, spec.seed, spec.pool_size,
                            tuple(spec.dst_subnets))
        self.rng_state = gen._rng.getstate()
        # Shared read-only after construction: FlowSet never mutates its
        # flow list or CDF, and _PooledTrace never rewrites its pool.
        self.flows = gen._flows._flows
        self.cdf = gen._flows._cdf
        self.pool = gen._pool
        self.pool_flows = gen._pool_flows

    def restore(self):
        """A generator bit-identical to a freshly built one."""
        cls = TRACE_KINDS[self.kind]
        gen = cls.__new__(cls)
        if self.frame_len is not None:
            gen.frame_len = self.frame_len
        n_flows, seed, pool_size, dst_subnets = self.spec_fields
        gen.spec = TraceSpec(n_flows=n_flows, seed=seed,
                             pool_size=pool_size, dst_subnets=dst_subnets)
        rng = random.Random()
        rng.setstate(self.rng_state)
        gen._rng = rng
        flows = FlowSet.__new__(FlowSet)
        flows._rng = rng
        flows._flows = self.flows
        flows._cdf = self.cdf
        gen._flows = flows
        gen._pool = self.pool
        gen._pool_flows = self.pool_flows
        gen._cursor = 0
        gen._seq = 0
        return gen


_trace_cache: Dict[tuple, _TraceSnapshot] = {}


def _trace_key(kind: str, frame_len: Optional[int], spec: TraceSpec) -> tuple:
    return (kind, frame_len, spec.n_flows, spec.seed, spec.pool_size,
            tuple(spec.dst_subnets))


def trace_from_spec(kind: str, frame_len: Optional[int], spec: TraceSpec):
    """Build (or restore) the pooled trace generator for ``spec``."""
    cls = TRACE_KINDS[kind]

    def fresh():
        if frame_len is not None:
            return cls(frame_len, spec)
        return cls(spec)

    if not enabled("trace"):
        return fresh()
    key = _trace_key(kind, frame_len, spec)
    snap = _trace_cache.get(key)
    if snap is None:
        _TRACE_MISSES.add(1)
        gen = fresh()
        _trace_cache[key] = _TraceSnapshot(kind, frame_len, gen)
        return gen
    _TRACE_HITS.add(1)
    return snap.restore()


def trace_generator(kind: str, frame_len: Optional[int] = None, seed: int = 42):
    """The common case: a default-:class:`TraceSpec` generator by seed."""
    return trace_from_spec(kind, frame_len, TraceSpec(seed=seed))


# -- build cache ---------------------------------------------------------------

_build_cache: Dict[tuple, Tuple[object, Dict[str, object]]] = {}


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def params_signature(params) -> tuple:
    """Machine parameters as a hashable key, frequency excluded.

    Frequency scales cycle *time*, never the compiled artifacts, so the
    same compile serves a whole frequency sweep.
    """
    return tuple(
        (f.name, _freeze(getattr(params, f.name)))
        for f in dataclass_fields(params)
        if f.name != "freq_ghz"
    )


def lookup_build(config: str, options, params):
    """Cached ``(layout registry, exec programs)`` for a build, if any."""
    if not enabled("build"):
        return None
    artifacts = _build_cache.get((config, options, params_signature(params)))
    if artifacts is None:
        _BUILD_MISSES.add(1)
        return None
    _BUILD_HITS.add(1)
    return artifacts


def store_build(config: str, options, params, registry, exec_programs) -> None:
    if not enabled("build"):
        return
    _build_cache[(config, options, params_signature(params))] = (
        registry, exec_programs,
    )


# -- point cache ---------------------------------------------------------------

_point_cache: Dict[object, object] = {}


def point_get(spec):
    """Cached measurement for a hashable sweep point, or ``None``."""
    if not enabled("point"):
        return None
    result = _point_cache.get(spec)
    if result is None:
        _POINT_MISSES.add(1)
        return None
    _POINT_HITS.add(1)
    return result


def point_put(spec, result) -> None:
    if enabled("point") and result is not None:
        _point_cache[spec] = result


# -- lifecycle -----------------------------------------------------------------

def reset_caches() -> None:
    """Drop every cached artifact and zero the counters (tests, benches)."""
    _trace_cache.clear()
    _build_cache.clear()
    _point_cache.clear()
    REGISTRY.reset()


def stats() -> Dict[str, float]:
    """Flat ``{counter: value}`` snapshot of the cache counters."""
    return REGISTRY.snapshot()
