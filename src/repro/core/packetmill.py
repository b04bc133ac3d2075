"""PacketMill: grind a network-function configuration into a specialized
binary (the paper's Fig. 3 pipeline).

Stages, mirroring the figure:

1. **Parse** the Click configuration into a processing graph.
2. **Source-code modifications**: devirtualization (click-devirtualize),
   constant embedding, and static graph embedding, expressed as IR passes
   over each element's per-packet program plus the dispatch policy.
3. **Metadata customization**: pick the metadata model; X-Change wires the
   PMD's conversion functions into the application's Packet struct.
4. **IR-code modifications** (LTO): inline the conversion/call overhead
   and optionally run the struct-field reordering pass over the whole
   program's access counts.
5. **Link** everything into a :class:`SpecializedBinary` bound to a core,
   NIC(s), and the hardware model.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Union

from repro.click.driver import (
    DISPATCH_DIRECT,
    DISPATCH_INLINE,
    DISPATCH_VIRTUAL,
    DispatchPolicy,
    RouterDriver,
)
from repro.click.graph import ProcessingGraph
from repro.compiler.lower import lower
from repro.compiler.passes import reorder_metadata
from repro.compiler.runtime import as_policy, select_tier
from repro.compiler.structlayout import LayoutRegistry
from repro.core.binary import SpecializedBinary
from repro.core.options import BuildOptions, MetadataModel
from repro.core.profile import RunProfile
from repro.dpdk.metadata import CopyingModel, OverlayingModel, XChangeModel
from repro.dpdk.nic import Nic
from repro.dpdk.tinynf import TinyNfModel
from repro.dpdk.pmd import MlxPmd
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.faults.watchdog import DEFAULT_THRESHOLD, Watchdog
from repro.dpdk.xchg_api import fastclick_conversions
from repro.exec import cache as exec_cache
from repro.hw.cpu import CpuCore
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem
from repro.hw.params import DEFAULT_PARAMS, MachineParams
from repro.net.trace import CampusTraceGenerator, TraceSpec
from repro.qos import QosConfig, QosPort
from repro.telemetry import Telemetry, TelemetryConfig

TraceFactory = Callable[[int, int], object]  # (port, core) -> trace generator


class BuildError(RuntimeError):
    """The requested build cannot be assembled."""


def _default_trace_factory(port: int, core: int):
    return exec_cache.trace_from_spec(
        "campus", None, TraceSpec(seed=101 + 13 * port + 7 * core)
    )


class PacketMill:
    """Builds specialized binaries for a Click configuration."""

    def __init__(
        self,
        config: str,
        options: Optional[BuildOptions] = None,
        params: Optional[MachineParams] = None,
        trace: Union[None, object, TraceFactory] = None,
        seed: int = 0,
        burst: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        watchdog_threshold: int = DEFAULT_THRESHOLD,
        telemetry: Union[None, bool, TelemetryConfig] = None,
        analyze: Union[None, bool, str] = None,
        qos: Optional[QosConfig] = None,
        tier=None,
        n_cores: int = 1,
        rss=None,
        facts: Union[None, bool] = None,
    ):
        # The keyword surface is a thin shim over RunProfile -- the
        # documented config object; from_profile() passes one directly.
        self._apply_profile(config, RunProfile(
            options=options, params=params, trace=trace, seed=seed,
            burst=burst, faults=faults,
            watchdog_threshold=watchdog_threshold, telemetry=telemetry,
            analyze=analyze, qos=qos, tier=tier, n_cores=n_cores, rss=rss,
            facts=facts,
        ))

    @classmethod
    def from_profile(cls, config: str, profile: Optional[RunProfile] = None
                     ) -> "PacketMill":
        """Build from one consolidated :class:`RunProfile` value."""
        mill = cls.__new__(cls)
        mill._apply_profile(config, profile or RunProfile())
        return mill

    def _apply_profile(self, config: str, profile: RunProfile) -> None:
        self.config = config
        self.profile = profile
        self.options = profile.options or BuildOptions.vanilla()
        self.params = profile.params or DEFAULT_PARAMS
        self.seed = profile.seed
        self.burst = profile.burst or self.options.burst
        self.faults = profile.faults
        self.watchdog_threshold = profile.watchdog_threshold
        # Execution-tier policy (None defers to REPRO_TIER / defaults);
        # resolved per core at build time, when the instrumentation that
        # parks the route memo (faults, watchdog, telemetry) is known.
        self.tier_policy = as_policy(profile.tier)
        # RSS sharding: n_cores > 1 makes build_runtime() return an
        # N-replica ShardedRuntime; rss carries the steering knobs.
        self.n_cores = profile.n_cores
        self.rss = profile.rss
        # Set transiently by build_sharded() when the RSS config asks for
        # one mempool shared by every queue's PMD.
        self._model_override = None
        # QoS buffer management: None (the default) leaves every QoS hook
        # unreachable -- the build is bit-identical to a pre-QoS one.
        self.qos = profile.qos
        # Static analysis at build time: "error" (or True) refuses to
        # build a configuration with error-severity findings, "warn"
        # analyzes and attaches the report without gating.  Default off;
        # REPRO_ANALYZE=1|error|warn opts a whole run in.
        self._analyze_mode = self._resolve_analyze_mode(profile.analyze)
        self._analysis_report = None
        # Constant-propagation facts: when on, proven-dead branches are
        # eliminated from every tier's programs.  Default off;
        # REPRO_FACTS=1 opts a whole run in.  The per-instance memo holds
        # the (facts map, constprop stats) pair -- config and options are
        # fixed per instance, so replica builds share one computation.
        self._facts_mode = self._resolve_facts_mode(profile.facts)
        self._facts_memo = None
        # Counter storage is always on (it IS the stats); the optional
        # recorders (windows, attribution, spans) only exist when a
        # config is passed -- observation charges nothing either way.
        telemetry = profile.telemetry
        if telemetry is True:
            telemetry = TelemetryConfig()
        self.telemetry_config: Optional[TelemetryConfig] = telemetry or None
        trace = profile.trace
        if trace is None:
            self._trace_factory: TraceFactory = _default_trace_factory
        elif callable(trace) and not hasattr(trace, "next_packet"):
            self._trace_factory = trace
        else:
            self._trace_factory = lambda port, core: trace

    @staticmethod
    def _resolve_analyze_mode(analyze) -> Optional[str]:
        if analyze is None:
            analyze = os.environ.get("REPRO_ANALYZE", "")
        if analyze in (False, None) or str(analyze).lower() in (
            "", "0", "false", "off", "no",
        ):
            return None
        if analyze is True:
            return "error"
        mode = str(analyze).lower()
        if mode in ("1", "true", "on", "yes", "error"):
            return "error"
        if mode in ("warn", "warning", "report"):
            return "warn"
        raise BuildError(
            "unknown analyze mode %r (expected error/warn/off)" % (analyze,)
        )

    @staticmethod
    def _resolve_facts_mode(facts) -> bool:
        if facts is None:
            facts = os.environ.get("REPRO_FACTS", "")
        if facts in (False, None) or str(facts).lower() in (
            "", "0", "false", "off", "no",
        ):
            return False
        return True

    def analysis(self):
        """The build's :class:`~repro.analyze.AnalysisReport` (runs the
        analysis on first use; independent of the analyze mode)."""
        if self._analysis_report is None:
            from repro.analyze import analyze_config

            self._analysis_report = analyze_config(
                self.config, self.options,
                subject=self.options.label(),
                qos=self.qos,
                profile=self.profile,
            )
        return self._analysis_report

    # -- model / policy selection ---------------------------------------------------

    def _make_model(self):
        model = self.options.metadata_model
        if model is MetadataModel.COPYING:
            return CopyingModel()
        if model is MetadataModel.OVERLAYING:
            return OverlayingModel()
        if model is MetadataModel.TINYNF:
            return TinyNfModel()
        return XChangeModel(conversions=fastclick_conversions())

    def _dispatch_policy(self) -> DispatchPolicy:
        options = self.options
        if options.static_graph:
            return DispatchPolicy(mode=DISPATCH_INLINE, static_segment=True)
        if options.devirtualize:
            return DispatchPolicy(mode=DISPATCH_DIRECT, static_segment=False)
        return DispatchPolicy(mode=DISPATCH_VIRTUAL, static_segment=False)

    def _element_pass_manager(self):
        from repro.compiler.pipeline import PassManager

        return PassManager.from_options(self.options)

    def _compute_facts(self, pass_manager, registry):
        """The memoized ``({element: ProgramFacts}, constprop stats)`` pair.

        Config and options are fixed per instance, so one computation
        serves every replica build (element names are stable across the
        per-core graph re-parses).
        """
        if self._facts_memo is None:
            from repro.analyze.constprop import (
                ConstProp,
                compute_program_facts,
            )

            graph = ProcessingGraph.from_text(self.config)
            constprop = ConstProp(graph)
            facts = compute_program_facts(
                graph, pass_manager.run, registry, constprop=constprop)
            self._facts_memo = (facts, dict(constprop.stats))
        return self._facts_memo

    # -- build ------------------------------------------------------------------------

    def build(self) -> SpecializedBinary:
        """Build a single-core binary."""
        mem = MemorySystem(self.params, n_cores=1, seed=self.seed)
        return self._build_core(mem, core_id=0)

    def build_multicore(self, n_cores: int) -> List[SpecializedBinary]:
        """Build per-core replicas sharing one memory system (RSS model).

        Each core runs its own graph replica and polls its own NIC queue;
        RSS keeps flows core-local, which the per-core trace seeds model.
        (This is the *approximation* of sharding -- decorrelated per-core
        traces; :meth:`build_sharded` is the real thing, one shared
        arrival stream steered by the Toeplitz hash.)
        """
        if n_cores < 1:
            raise BuildError("need at least one core")
        mem = MemorySystem(self.params, n_cores=n_cores, seed=self.seed)
        return [self._build_core(mem, core_id=c) for c in range(n_cores)]

    def build_runtime(self):
        """The profile's runtime: a binary, or a sharded runtime when
        ``n_cores > 1`` (what ``from_profile(...).build_runtime()`` is for)."""
        if self.n_cores > 1:
            return self.build_sharded()
        return self.build()

    def build_sharded(self, n_cores: Optional[int] = None, rss=None):
        """Build an RSS-sharded runtime: one shared arrival stream per
        port, Toeplitz-steered across ``n_cores`` per-core replicas.

        Every replica is a full :class:`SpecializedBinary` (own CpuCore,
        PMDs, driver, execution tier) built by the same ``_build_core``
        path as :meth:`build`; what changes is the trace wiring -- each
        replica's NIC pulls from its :class:`~repro.dpdk.nic.QueueTrace`
        view of the port's :class:`~repro.dpdk.nic.MultiQueueNic` -- and
        the fault wiring, which is scoped per queue
        (``FaultSchedule.for_queue``).  With ``rss.mempool="shared"``
        every queue's PMD allocates from core 0's mempool instead of a
        partitioned per-core pool.

        An ``n_cores=1`` sharded build is charge-for-charge identical to
        :meth:`build`: the steering stage degenerates to a pass-through
        and costs nothing.
        """
        from repro.core.sharded import ShardedRuntime
        from repro.dpdk.nic import MultiQueueNic
        from repro.net.rss import MEMPOOL_SHARED, RssConfig

        n = self.n_cores if n_cores is None else n_cores
        if n < 1:
            raise BuildError("need at least one core")
        config = rss or self.rss or RssConfig()
        graph = ProcessingGraph.from_text(self.config)
        ports = sorted(
            {e.param("port") for e in graph.by_class("FromDPDKDevice")}
            | {e.param("port") for e in graph.by_class("ToDPDKDevice")}
        )
        if not ports:
            raise BuildError("configuration uses no DPDK ports")
        mem = MemorySystem(self.params, n_cores=n, seed=self.seed)
        # One physical multi-queue port per DPDK port; the port's shared
        # arrival stream is the (port, core=0) trace.
        mqs = {
            port: MultiQueueNic(
                self._trace_factory(port, 0), n, config,
                port=port, name="port%d" % port, burst=self.burst,
            )
            for port in ports
        }
        saved_factory = self._trace_factory
        saved_faults = self.faults
        replicas: List[SpecializedBinary] = []
        try:
            self._trace_factory = (
                lambda port, core: mqs[port].queue_trace(core)
            )
            for core in range(n):
                if saved_faults is not None:
                    # Per-queue fault scoping: a core whose filtered
                    # schedule is empty gets no injector at all.
                    self.faults = saved_faults.for_queue(core)
                if config.mempool == MEMPOOL_SHARED and replicas:
                    self._model_override = replicas[0].model
                replicas.append(self._build_core(mem, core_id=core))
        finally:
            self._trace_factory = saved_factory
            self.faults = saved_faults
            self._model_override = None
        for core, binary in enumerate(replicas):
            for port, pmd in binary.pmds.items():
                mqs[port].bind_queue(core, pmd.nic)
        return ShardedRuntime(replicas, mqs, config=config)

    def _build_core(self, mem: MemorySystem, core_id: int) -> SpecializedBinary:
        options = self.options
        params = self.params
        graph = ProcessingGraph.from_text(self.config)
        ports = sorted(
            {e.param("port") for e in graph.by_class("FromDPDKDevice")}
            | {e.param("port") for e in graph.by_class("ToDPDKDevice")}
        )
        if not ports:
            raise BuildError("configuration uses no DPDK ports")
        # Half-wired configurations fail here, naming element and port,
        # instead of silently never delivering packets to the gap.
        graph.check_required_inputs()
        analysis = None
        if self._analyze_mode:
            analysis = self.analysis()
            if self._analyze_mode == "error" and not analysis.ok:
                raise BuildError(
                    "static analysis refused the build:\n%s"
                    % analysis.to_text(min_severity="error")
                )
        cpu = CpuCore(params, mem, core_id)
        # One registry per binary; the shared memory system's per-core
        # counters are mounted under cpu. so the cache model's live
        # handles and this build's telemetry read the same cells.
        telemetry = Telemetry(config=self.telemetry_config)
        telemetry.registry.mount("cpu", mem.registry_for(core_id))
        # Disjoint per-core address ranges: replicas share the LLC but must
        # not alias each other's lines.
        space = AddressSpace(seed=self.seed + core_id, offset=core_id << 36)

        # A sharded build with a shared mempool reuses core 0's model
        # instance (one pool, one set of buffers) instead of setting up a
        # partitioned per-core one.
        shared_model = self._model_override is not None
        model = self._model_override if shared_model else self._make_model()
        if options.reorder_metadata and not model.reorder_allowed:
            raise BuildError(
                "metadata model %r does not allow struct reordering" % model.name
            )
        if not model.supports_buffering:
            holders = [
                e.name for e in graph.all_elements()
                if getattr(e, "buffers_packets", False)
            ]
            if holders:
                raise BuildError(
                    "metadata model %r cannot buffer packets, but the "
                    "configuration holds them in: %s (the TinyNF "
                    "restriction the paper contrasts X-Change against)"
                    % (model.name, ", ".join(holders))
                )
        if not shared_model:
            model.setup(space, params)

        # -- element state allocation (static graph vs. scattered heap) -----
        elements = graph.all_elements()
        for element in elements:
            size = max(64, element.state_size)
            if options.static_graph:
                element.state_region = space.alloc_static(element.name, size)
            else:
                element.state_region = space.alloc_heap(element.name, size)

        # -- IR passes over the whole program ---------------------------------
        # The compile half is a pure function of (config, options, params
        # sans frequency); the registry and lowered programs are immutable
        # once built, so replica builds and sweep siblings share them.
        pass_manager = self._element_pass_manager()
        cached = exec_cache.lookup_build(self.config, options, params)
        if cached is None:
            registry = LayoutRegistry()
            model.register_layouts(registry)
            if self._analyze_mode:
                # Debug mode: re-verify each program after every pass so
                # a pass bug is caught at the application that broke it.
                from repro.analyze import attach_verifier

                attach_verifier(pass_manager, registry)
            element_ir = {
                e.name: pass_manager.run(e.ir_program()) for e in elements
            }
            if options.reorder_metadata:
                whole_program = list(element_ir.values()) + [
                    model.rx_program(), model.tx_program(),
                ]
                reorder_metadata(whole_program, registry, struct="Packet")
            exec_programs = {
                name: lower(program, registry)
                for name, program in element_ir.items()
            }
            exec_cache.store_build(
                self.config, options, params, registry, exec_programs
            )
        else:
            registry, exec_programs = cached

        # -- constant-propagation facts (opt-in dead-code elimination) --------
        # Facts are minted against the build's own pass pipeline and the
        # FINAL registry (reordered or not), so specialized programs lower
        # to the exact offsets the originals did.  Every tier -- the
        # interpreter included -- runs the same pruned programs, keeping
        # cross-tier bit-identity; the original exec_programs stay cached
        # and untouched (facts.apply returns new programs).
        program_facts = None
        run_programs = exec_programs
        if self._facts_mode:
            program_facts, facts_stats = self._compute_facts(
                pass_manager, registry)
            if program_facts:
                run_programs = {
                    name: (program_facts[name].apply(program)
                           if name in program_facts else program)
                    for name, program in exec_programs.items()
                }
                counters = telemetry.registry
                counters.counter(
                    "analyze.constprop.programs_specialized"
                ).add(len(program_facts))
                counters.counter(
                    "analyze.constprop.branches_eliminated"
                ).add(sum(
                    f.branches_eliminated for f in program_facts.values()))
                counters.counter(
                    "analyze.constprop.instructions_eliminated"
                ).add(sum(
                    f.dead_instructions for f in program_facts.values()))
                counters.counter("analyze.constprop.facts_proven").add(
                    facts_stats.get("constprop.facts_proven", 0))

        # -- NICs and PMDs (one queue per port on this core; `ports` was
        # computed and validated up front, right after parsing) ----------------
        # -- fault wiring (inert unless a non-empty schedule was given) --------
        injector = None
        watchdog = None
        if self.faults is not None and not self.faults.is_empty:
            # Offset the seed per core so replicas see decorrelated-but-
            # deterministic fault sequences.
            injector = FaultInjector(self.faults, seed=self.faults.seed + 7919 * core_id)
            if model.mempool is not None:
                injector.bind_mempool(model.mempool)
            watchdog = Watchdog(self.watchdog_threshold)

        # -- execution tier (resolved ONCE; PMDs and driver share it) ----------
        selection = select_tier(
            self.tier_policy,
            faults=injector is not None,
            watchdog=watchdog is not None,
            telemetry=telemetry.enabled,
        )
        pmds: Dict[int, MlxPmd] = {}
        for port in ports:
            trace = self._trace_factory(port, core_id)
            nic = Nic(params, mem, space, trace,
                      name="nic%d_c%d" % (port, core_id), port=port,
                      registry=telemetry.registry)
            nic.faults = injector
            pmds[port] = MlxPmd(
                nic, model, cpu, registry,
                lto=options.lto,
                vectorized=options.vectorized_pmd,
                pgo=options.pgo,
                tier=selection,
            )

        # -- QoS buffer pools (absent unless a config was given) ---------------
        qos_ports: Dict[int, QosPort] = {}
        if self.qos is not None:
            for port in (self.qos.ports or ports):
                if port not in pmds:
                    raise BuildError(
                        "QoS config names port %d, which the configuration "
                        "does not use" % port
                    )
                pool = QosPort(self.qos, port, registry=telemetry.registry)
                qos_ports[port] = pool
                pmds[port].nic.qos = pool
        for element in graph.by_class("PFCPause"):
            watched = element.param("port")
            if watched not in qos_ports:
                raise BuildError(
                    "pause element %s watches port %d but no QoS buffer "
                    "pool is bound there (pass qos= to PacketMill)"
                    % (element.name, watched)
                )
            element.bind_pool(qos_ports[watched])

        dispatch = self._dispatch_policy()
        driver = RouterDriver(
            graph, cpu, params, run_programs, dispatch, pmds, burst=self.burst,
            injector=injector, watchdog=watchdog, telemetry=telemetry,
            qos_ports=qos_ports or None,
            tier=selection,
            layout_registry=registry,
        )
        binary = SpecializedBinary(
            options=options,
            params=params,
            graph=graph,
            driver=driver,
            cpu=cpu,
            mem=mem,
            space=space,
            pmds=pmds,
            registry=registry,
            exec_programs=run_programs,
            trace=pmds[ports[0]].nic.trace,
            model=model,
        )
        binary.pass_manager = pass_manager
        binary.program_facts = program_facts
        binary.injector = injector
        binary.qos_ports = qos_ports
        binary.telemetry = telemetry
        binary.analysis = analysis
        if analysis is not None:
            analysis.record(telemetry.registry)
        return binary
