"""Deterministic parallel sweep engine.

Every experiment grid (variant x frequency x size x ...) is a list of
independent, picklable sweep points.  :class:`SweepEngine` fans the
points out over a :class:`~concurrent.futures.ProcessPoolExecutor` and
reassembles results in submission order, so an experiment's output is
byte-identical whether it ran serially or across N workers: each point
is a pure function of its spec (one fresh ``MemorySystem``/RNG universe
per point -- points never share simulator state, which is what makes the
fan-out sound).

Worker count comes from ``REPRO_JOBS`` (else the CPU count); set
``REPRO_SWEEP=serial`` (or ``jobs=1``) to force in-process execution.
Pool infrastructure failures (sandboxed environments without working
``fork``, pickling regressions) degrade to the serial path rather than
failing the experiment.

Measured points are memoized in :mod:`repro.exec.cache` by spec, so
identical points across experiments (Table 1 re-measures Fig. 4's 3-GHz
column) are simulated once per process.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec import cache
from repro.hw.params import MachineParams
from repro.net.rss import RssConfig
from repro.perf.runner import measure_sharded, measure_throughput


@dataclass(frozen=True)
class TraceKey:
    """Picklable recipe for a trace factory (resolved in the worker).

    ``per_port=True`` reproduces the standard factories' decorrelation
    (``seed + port + 7*core``); ``per_port=False`` gives every queue the
    same seed (the ablations' fixed-trace setup).

    ``kind="skewed"`` builds a
    :class:`~repro.net.trace.SkewedTraceGenerator` (``n_flows`` flows,
    Zipf exponent ``skew``, or uniform when ``skew`` is ``None``).  Its
    flow population is lazy -- pure in (seed, rank) -- so it skips the
    snapshot cache entirely; construction is already cheap.
    """

    kind: str  # "campus" | "fixed" | "skewed"
    frame_len: Optional[int] = None
    seed: int = 101
    per_port: bool = True
    n_flows: Optional[int] = None
    skew: Optional[float] = None
    shift_at: Optional[int] = None
    shift_offset: Optional[int] = None

    def factory(self):
        kind, frame_len, seed = self.kind, self.frame_len, self.seed
        if kind == "skewed":
            from repro.net.trace import SkewedTraceGenerator

            n_flows, skew = self.n_flows or 1_000_000, self.skew
            per_port = self.per_port
            shift_at, shift_offset = self.shift_at, self.shift_offset

            def skewed(port, core):
                kwargs = {"n_flows": n_flows, "zipf_s": skew,
                          "seed": seed + port + 7 * core if per_port else seed,
                          "shift_at": shift_at, "shift_offset": shift_offset}
                if frame_len is not None:
                    kwargs["frame_len"] = frame_len
                return SkewedTraceGenerator(**kwargs)

            return skewed
        if self.per_port:
            return lambda port, core: cache.trace_generator(
                kind, frame_len, seed + port + 7 * core
            )
        return lambda port, core: cache.trace_generator(kind, frame_len, seed)


#: The default trace of ``build_and_measure``: campus mix, seed 101.
CAMPUS_TRACE = TraceKey("campus")


@dataclass(frozen=True)
class PointSpec:
    """One build-and-measure sweep point, picklable and hashable.

    ``execute`` replicates :func:`repro.experiments.common.build_and_measure`
    exactly: machine parameters are the defaults plus ``params_overrides``
    at ``freq_ghz``, the trace comes from ``trace`` (campus by default),
    and multi-core points (``n_cores > 1``) build the real RSS-sharded
    runtime -- one arrival stream per port, Toeplitz-steered across the
    replicas -- and measure it with :func:`measure_sharded`.
    """

    config: str
    options: BuildOptions
    freq_ghz: float
    batches: int
    warmup_batches: int
    trace: Optional[TraceKey] = None
    seed: int = 0
    n_cores: int = 1
    params_overrides: Tuple[Tuple[str, object], ...] = ()
    burst: Optional[int] = None
    rss: Optional[RssConfig] = None

    def execute(self):
        params = MachineParams(**dict(self.params_overrides)).at_frequency(
            self.freq_ghz
        )
        mill = PacketMill(
            self.config,
            self.options,
            params=params,
            trace=(self.trace or CAMPUS_TRACE).factory(),
            seed=self.seed,
            burst=self.burst,
        )
        if self.n_cores == 1:
            return measure_throughput(
                mill.build(),
                batches=self.batches,
                warmup_batches=self.warmup_batches,
            )
        return measure_sharded(
            mill.build_sharded(self.n_cores, rss=self.rss),
            batches=self.batches,
            warmup_batches=self.warmup_batches,
        )


@dataclass(frozen=True)
class FrameworkPointSpec:
    """A Fig. 11-style point: a named framework builder instead of a
    Click config through PacketMill."""

    framework: str
    frame_len: int
    freq_ghz: float
    batches: int
    warmup_batches: int
    seed: int = 3

    def execute(self):
        from repro.frameworks import FRAMEWORK_BUILDERS

        params = MachineParams().at_frequency(self.freq_ghz)
        binary = FRAMEWORK_BUILDERS[self.framework](
            params, self.frame_len, seed=self.seed
        )
        return measure_throughput(
            binary, batches=self.batches, warmup_batches=self.warmup_batches
        )


def run_point(spec):
    """Execute one sweep point (module-level, so process pools can map it)."""
    result = cache.point_get(spec)
    if result is None:
        result = spec.execute()
        cache.point_put(spec, result)
    return result


def default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


class SweepEngine:
    """Fan sweep points out over worker processes, results in order."""

    def __init__(self, jobs: Optional[int] = None, mode: Optional[str] = None):
        self.jobs = jobs if jobs is not None else default_jobs()
        # Explicit jobs (ctor arg or REPRO_JOBS) are taken at face value;
        # only the inferred default gets the oversubscription guard below.
        self.jobs_explicit = jobs is not None or bool(os.environ.get("REPRO_JOBS"))
        self.mode = mode or os.environ.get("REPRO_SWEEP", "auto")

    @property
    def parallel(self) -> bool:
        return self.mode != "serial" and self.jobs > 1

    def _effective_jobs(self, specs: Sequence) -> int:
        """Guard against nested oversubscription: each sharded point
        simulates ``n_cores`` replicas, so a sweep of wide points keeps
        total parallelism near ``REPRO_JOBS x n_cores <= cpu_count`` by
        dividing the inferred worker count by the widest point.  An
        explicit ``REPRO_JOBS`` (or ``jobs=``) always wins -- the
        operator asked for it.
        """
        if self.jobs_explicit:
            return self.jobs
        widest = max((getattr(spec, "n_cores", 1) for spec in specs), default=1)
        return max(1, self.jobs // max(1, widest))

    def run(self, specs: Sequence) -> List:
        specs = list(specs)
        if not self.parallel or len(specs) <= 1:
            return [run_point(spec) for spec in specs]
        jobs = self._effective_jobs(specs)
        results: List = [None] * len(specs)
        pending: List[int] = []
        for i, spec in enumerate(specs):
            cached = cache.point_get(spec)
            if cached is not None:
                results[i] = cached
            else:
                pending.append(i)
        if pending:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))
                ) as pool:
                    mapped = pool.map(run_point, [specs[i] for i in pending])
                    for i, result in zip(pending, mapped):
                        results[i] = result
            except (OSError, ImportError, pickle.PicklingError,
                    BrokenProcessPool):
                # The pool itself failed (no fork, no semaphores, a spec
                # that would not pickle): degrade to in-process execution
                # -- same results, just slower.
                pass
            for i in pending:
                if results[i] is None:
                    results[i] = run_point(specs[i])
                else:
                    cache.point_put(specs[i], results[i])
        return results


def run_points(specs: Sequence, jobs: Optional[int] = None,
               mode: Optional[str] = None) -> List:
    """One-shot convenience: ``SweepEngine(jobs, mode).run(specs)``."""
    return SweepEngine(jobs=jobs, mode=mode).run(specs)
