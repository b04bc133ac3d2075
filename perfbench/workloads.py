"""The benchmark's three workloads.

Each workload is built from its seed alone and runs in one process with
no threads; simulated cores are stepped in lockstep by the simulator.  A
repetition is ``setup`` (builds and trace construction, up to the first
simulated batch), ``run`` (every simulated batch and queue-model probe),
then ``check`` (the output audits).  ``run`` returns the simulated
outputs, which are a pure function of the seed and the size, so every
repetition must produce the same digest.

Seed 0 reproduces the experiments' own settings: campus trace seed 101
and queue-model seed 1 as in ``repro.experiments.fig01``, and the NAT's
Zipf trace (seed ``101 + port`` at every seed) and address-space seed 0
as in ``repro.experiments.rss_imbalance``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from repro.core.nfs import forwarder, nat_router, router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec.sweep import TraceKey
from repro.experiments.common import DUT_FREQ_GHZ
from repro.faults.audit import assert_sharded_conserved, check_conservation
from repro.hw.params import MachineParams
from repro.net.rss import RssConfig
from repro.net.steering import SteeringPolicy
from repro.net.trace import FiniteTrace, SkewedTraceGenerator
from repro.perf.loadlatency import LoadLatencySimulator
from repro.perf.runner import measure_throughput

from perfbench.ndr import ndr_pdr


@dataclass(frozen=True)
class Size:
    """How much simulated work one repetition does."""

    #: Measured and warm-up batches per single-core build (fig01's QUICK).
    batches: int = 160
    warmup_batches: int = 80
    #: Packets per open-loop queue-model run at a fixed offered rate.
    latency_packets: int = 60_000
    #: NDR/PDR trial length, in RX rings of overload at the capacity
    #: (see trial_packets).
    search_rings: float = 2.0
    #: Packets of the finite Zipf trace the sharded NAT drains.
    nat_packets: int = 20_000


BENCH = Size()
TINY = Size(batches=6, warmup_batches=4, latency_packets=2_000,
            search_rings=0.05, nat_packets=1_200)

#: The queue model's RX ring, as in fig01.
RING_SIZE = 1024

NAT_CORES = 4
NAT_FLOWS = 1_000_000
NAT_ZIPF = 1.6


class CheckFailed(AssertionError):
    """A repetition's simulated outputs failed an audit."""


def trial_packets(sim: LoadLatencySimulator, capacity_pps: float,
                  rings: float) -> int:
    """Packets per NDR/PDR trial.

    The queue model serves at most ``sim.capacity_pps()``, a little below
    the DUT's ``capacity_pps`` because each burst pays a poll overhead.
    Offered exactly the capacity, the backlog grows by that margin times
    the packets offered, so over ``rings * ring_size / margin`` packets
    it grows to ``rings`` ring sizes: a trial that long sees the capacity
    itself lose instead of hiding the overload in the ring.
    """
    margin = 1.0 - sim.capacity_pps() / capacity_pps
    if margin <= 0:
        raise CheckFailed("queue model serves %.6g pps, above the capacity "
                          "%.6g pps" % (sim.capacity_pps(), capacity_pps))
    return int(rings * sim.ring_size / margin) + 1


def digest(sim: dict) -> str:
    """SHA-256 of the simulated outputs, canonically serialized."""
    blob = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RepOutput:
    """What one repetition's ``run`` produced."""

    #: Every simulated output (the digest's input).
    sim: dict
    #: The simulated end-to-end metrics, by name, each (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: Host seconds spent simulating the DUT (warm-up + measured batches).
    dut_s: float
    #: Simulated packets over which ``dut_s`` was spent.
    dut_pkts: int
    #: Deterministic per-layer work counts.
    layers: Dict[str, float]


def _params():
    return MachineParams().at_frequency(DUT_FREQ_GHZ)


def _hw_layers(runs) -> Dict[str, float]:
    """Hardware-model counters of measured runs, per packet and as ratios."""
    total = {}
    for run in runs:
        for name, value in run.counters.items():
            total[name] = total.get(name, 0) + value
    packets = sum(run.packets for run in runs) or 1
    lines = total["l1_hits"] + total["l2_hits"] + total["llc_loads"]
    cycles = sum(run.total_cycles for run in runs)
    return {
        "hw.lines_per_pkt": lines / packets,
        "hw.l1_hit_ratio": total["l1_hits"] / lines if lines else 0.0,
        "hw.llc_miss_ratio": (total["llc_misses"] / total["llc_loads"]
                              if total["llc_loads"] else 0.0),
        "hw.dtlb_walks_per_pkt": total["dtlb_walks"] / packets,
        "hw.ipc": sum(r.instructions for r in runs) / cycles if cycles else 0.0,
    }


def _mempool_ops(binaries) -> int:
    pools = {id(b.model.mempool): b.model.mempool for b in binaries
             if b.model.mempool is not None}
    return sum(pool.gets + pool.puts for pool in pools.values())


def _tier_record(binaries) -> List[dict]:
    seen = []
    for binary in binaries:
        sel = binary.driver.tier_selection
        record = {"requested": sel.requested.value, "effective": sel.tier.value,
                  "demoted": sel.demoted, "reason": sel.reason,
                  "route_memo": sel.route_memo}
        if record not in seen:
            seen.append(record)
    return seen


def _facts_on(mill) -> bool:
    # PacketMill resolves facts= and REPRO_FACTS once, at construction,
    # and exposes the result only as this attribute.
    return bool(mill._facts_mode)


class Workload:
    """One named workload at one seed and size."""

    name = ""
    why = ""

    def __init__(self, seed: int, size: Size = BENCH):
        self.seed = seed
        self.size = size

    def setup(self, spans) -> None:
        raise NotImplementedError

    def run(self, spans) -> RepOutput:
        raise NotImplementedError

    def check(self, out: RepOutput, spans) -> None:
        raise NotImplementedError

    def manifest(self) -> dict:
        raise NotImplementedError


class _SingleCore(Workload):
    """Saturated measurement, fixed-rate latency, and NDR/PDR per build."""

    config = ""
    config_name = ""
    variants: Tuple[Tuple[str, BuildOptions], ...] = ()
    trace_kind = ""
    frame_len = None
    #: Fixed absolute offered rates for the latency runs, Gbps.
    rates_gbps: Tuple[float, ...] = ()
    #: The rate whose latency is reported as sim_p50_us / sim_p99_us.
    headline_gbps = 0.0

    def trace_key(self) -> TraceKey:
        return TraceKey(self.trace_kind, frame_len=self.frame_len,
                        seed=101 + self.seed)

    def setup(self, spans) -> None:
        self.mills = {}
        self.binaries = {}
        for label, options in self.variants:
            with spans.span("build"):
                mill = PacketMill(self.config, options, params=_params(),
                                  trace=self.trace_key().factory(),
                                  seed=self.seed)
                self.mills[label] = mill
                self.binaries[label] = mill.build()

    def _measure_build(self, label, spans):
        """One build's simulated record, measured run, and DUT host time."""
        binary = self.binaries[label]
        size = self.size
        # measure() resets the driver's stats after warm-up; the warm-up
        # RunStats object is frozen with its totals, which the
        # conservation audit needs to close the lifetime books.
        warm = self._warm[label] = binary.driver.stats
        start = time.perf_counter()
        with spans.span("dut"):
            point = measure_throughput(binary, batches=size.batches,
                                       warmup_batches=size.warmup_batches)
        dut_s = time.perf_counter() - start
        bits = point.mean_frame_len * 8
        sim = LoadLatencySimulator(1e9 / point.pps, ring_size=RING_SIZE,
                                   seed=1 + self.seed)
        with spans.span("queue"):
            latency = [asdict(sim.run(gbps * 1e9 / bits, size.latency_packets))
                       for gbps in self.rates_gbps]
            trial = trial_packets(sim, point.pps, size.search_rings)
            search = ndr_pdr(lambda pps: sim.run(pps, trial).drop_rate,
                             point.pps)
        record = {
            "gbps": point.gbps,
            "pps": point.pps,
            "cpu_pps": point.cpu_pps,
            "ns_per_packet": point.ns_per_packet,
            "mean_frame_len": point.mean_frame_len,
            "bound_by": point.bound_by,
            "ipc": point.run.ipc,
            "packets": point.run.packets,
            "tx_packets": point.run.tx_packets,
            "drops": point.run.drops,
            "counters": point.run.counters,
            "lifetime_packets": warm.rx_packets + point.run.packets,
            "batches": warm.batches + point.run.stats.batches,
            "latency": latency,
            "ndr_gbps": search.ndr.lo * bits / 1e9,
            "ndr_fail_gbps": search.ndr.hi * bits / 1e9,
            "pdr_gbps": search.pdr.lo * bits / 1e9,
            "pdr_fail_gbps": search.pdr.hi * bits / 1e9,
            "search_steps": search.steps,
            "trial_packets": trial,
            "queue_packets": (len(self.rates_gbps) * size.latency_packets
                              + search.steps * trial),
        }
        return record, point.run, dut_s

    def run(self, spans) -> RepOutput:
        self._warm = {}
        builds = {}
        runs = []
        dut_s = 0.0
        for label, _ in self.variants:
            builds[label], run, build_dut_s = self._measure_build(label, spans)
            runs.append(run)
            dut_s += build_dut_s
        head = builds[self.variants[0][0]]
        headline = head["latency"][self.rates_gbps.index(self.headline_gbps)]
        metrics = {
            "sim_gbps": (head["gbps"], "Gbps"),
            "sim_ns_per_pkt": (head["ns_per_packet"], "ns"),
            "sim_p50_us": (headline["p50_us"], "us"),
            "sim_p99_us": (headline["p99_us"], "us"),
            "sim_ndr_gbps": (head["ndr_gbps"], "Gbps"),
            "sim_pdr_gbps": (head["pdr_gbps"], "Gbps"),
        }
        records = builds.values()
        dut_pkts = sum(r["lifetime_packets"] for r in records)
        batches = sum(r["batches"] for r in records)
        binaries = list(self.binaries.values())
        layers = _hw_layers(runs)
        layers.update({
            "runtime.demotions": sum(
                b.driver.tier_selection.demoted for b in binaries),
            "driver.batches": batches,
            "driver.pkts_per_batch": dut_pkts / batches,
            "pmd.mempool_ops_per_pkt": _mempool_ops(binaries) / dut_pkts,
            "queue.sim_pkts": sum(r["queue_packets"] for r in records),
            "queue.search_steps": sum(r["search_steps"] for r in records),
        })
        sim = {"workload": self.name, "seed": self.seed, "builds": builds}
        return RepOutput(sim=sim, metrics=metrics, dut_s=dut_s,
                         dut_pkts=dut_pkts, layers=layers)

    def check(self, out: RepOutput, spans) -> None:
        with spans.span("check"):
            for label, binary in self.binaries.items():
                warm = self._warm[label]
                books = check_conservation(binary.driver)
                balance = books["balance"] - warm.tx_packets - warm.drops
                if balance != 0:
                    raise CheckFailed("%s/%s: conservation off by %d: %r"
                                      % (self.name, label, balance, books))
                rec = out.sim["builds"][label]
                if not rec["ndr_gbps"] <= rec["pdr_gbps"] <= rec["gbps"]:
                    raise CheckFailed(
                        "%s/%s: need NDR <= PDR <= capacity, got %r <= %r <= %r"
                        % (self.name, label, rec["ndr_gbps"], rec["pdr_gbps"],
                           rec["gbps"]))

    def manifest(self) -> dict:
        return {
            "config": self.config_name,
            "variants": {label: opts.label() for label, opts in self.variants},
            "freq_ghz": DUT_FREQ_GHZ,
            "trace": asdict(self.trace_key()),
            "packetmill_seed": self.seed,
            "queue_model_seed": 1 + self.seed,
            "rates_gbps": list(self.rates_gbps),
            "headline_gbps": self.headline_gbps,
            "n_cores": 1,
            "rss": None,
            "steering": None,
            "tiers": _tier_record(self.binaries.values()),
            "facts": sorted({_facts_on(m) for m in self.mills.values()}),
            "size": asdict(self.size),
        }


class RouterCampus(_SingleCore):
    name = "router-campus"
    why = ("the paper's Fig. 1 headline: the IP router on the campus mix, "
           "PacketMill against vanilla; mostly L1-hit loads")
    config = router()
    config_name = "router"
    variants = (("packetmill", BuildOptions.packetmill()),
                ("vanilla", BuildOptions.vanilla()))
    trace_kind = "campus"
    rates_gbps = (25.0, 50.0)
    headline_gbps = 50.0

    def run(self, spans) -> RepOutput:
        out = super().run(spans)
        builds = out.sim["builds"]
        vanilla = builds["vanilla"]["gbps"]
        gain = (builds["packetmill"]["gbps"] - vanilla) / vanilla * 100.0
        out.metrics["sim_gain_pct"] = (gain, "%")
        return out

    def check(self, out: RepOutput, spans) -> None:
        super().check(out, spans)
        builds = out.sim["builds"]
        if not builds["packetmill"]["gbps"] > builds["vanilla"]["gbps"]:
            raise CheckFailed("%s: PacketMill %.4f Gbps does not beat vanilla "
                              "%.4f Gbps" % (self.name,
                                             builds["packetmill"]["gbps"],
                                             builds["vanilla"]["gbps"]))


class Fwd64(_SingleCore):
    name = "fwd-64B"
    why = ("bare forwarding at the smallest frame: per-packet PMD/NIC cost, "
           "almost no element work, NDR/PDR search dominates host time")
    config = forwarder()
    config_name = "forwarder"
    variants = (("packetmill", BuildOptions.packetmill()),)
    trace_kind = "fixed"
    frame_len = 64
    rates_gbps = (2.5, 5.0)
    headline_gbps = 5.0


class NatZipf4Core(Workload):
    """The stateful NAT sharded over 4 cores, drained to EOF."""

    name = "nat-zipf-4core"
    why = ("4-core sharded NAT on a 1M-flow Zipf-1.6 trace with RETA "
           "steering: RSS, steering, frame generation, flow-table misses")

    def rss_config(self) -> RssConfig:
        return RssConfig(steering=SteeringPolicy())

    def trace_seed(self, port: int) -> int:
        # The trace is rss_imbalance's for every --seed, which reaches this
        # workload only through the address-space seed.  RETA steering of
        # a Zipf-1.6 population is chaotic: over 20 000 packets the
        # cluster rate spans ~28-40 Gbps across trace seeds, which would
        # drown every other change in sim_gbps.
        return 101 + port

    def setup(self, spans) -> None:
        n_packets = self.size.nat_packets

        def trace_factory(port, core):
            return FiniteTrace(
                SkewedTraceGenerator(n_flows=NAT_FLOWS, zipf_s=NAT_ZIPF,
                                     seed=self.trace_seed(port)),
                n_packets)

        with spans.span("build"):
            self.mill = PacketMill(nat_router(), BuildOptions.packetmill(),
                                   params=_params(), trace=trace_factory,
                                   seed=self.seed, n_cores=NAT_CORES,
                                   rss=self.rss_config())
            self.runtime = self.mill.build_sharded()

    def run(self, spans) -> RepOutput:
        runtime = self.runtime
        start = time.perf_counter()
        with spans.span("dut"):
            runtime.run_until_eof()
        dut_s = time.perf_counter() - start
        runs = runtime.runs()
        mq = runtime.ports[0]
        queues = range(runtime.n_cores)
        steered = [mq.steered(q) for q in queues]
        dropped = [mq.dropped(q) for q in queues]
        arrivals = [s + d for s, d in zip(steered, dropped)]
        elapsed = runtime.elapsed_ns()
        tx_bytes = sum(b.driver.stats.tx_bytes for b in runtime.replicas)
        packets = sum(r.packets for r in runs)
        registry = runtime.registry
        sim = {
            "workload": self.name,
            "seed": self.seed,
            "gbps": tx_bytes * 8 / elapsed,
            "ns_per_packet": sum(r.elapsed_ns for r in runs) / packets,
            "elapsed_ns": elapsed,
            "offered": mq.ingested,
            "per_queue_steered": steered,
            "per_queue_dropped": dropped,
            "per_core_tx": [b.driver.stats.tx_packets
                            for b in runtime.replicas],
            "reta_moves": registry.get("steering.port0.moves"),
            "migration_drains": registry.get("steering.port0.migration_drains"),
            "dispatched": mq.registry.get("dispatched"),
            "ipc": [r.ipc for r in runs],
            "counters": [r.counters for r in runs],
        }
        metrics = {
            "sim_gbps": (sim["gbps"], "Gbps"),
            "sim_ns_per_pkt": (sim["ns_per_packet"], "ns"),
        }
        offered = mq.ingested
        batches = sum(b.driver.stats.batches for b in runtime.replicas)
        layers = _hw_layers(runs)
        layers.update({
            "runtime.demotions": sum(b.driver.tier_selection.demoted
                                     for b in runtime.replicas),
            "driver.batches": batches,
            "driver.pkts_per_batch": packets / batches if batches else 0.0,
            "pmd.mempool_ops_per_pkt": (_mempool_ops(runtime.replicas)
                                        / max(packets, 1)),
            "rss.arrival_imbalance": max(arrivals) / (sum(arrivals)
                                                      / len(arrivals)),
            "rss.drop_ratio": sum(dropped) / offered,
            "steering.reta_moves": sim["reta_moves"],
            "steering.migration_drains": sim["migration_drains"],
        })
        return RepOutput(sim=sim, metrics=metrics, dut_s=dut_s,
                         dut_pkts=offered, layers=layers)

    def check(self, out: RepOutput, spans) -> None:
        with spans.span("check"):
            try:
                audit = assert_sharded_conserved(self.runtime)
            except AssertionError as exc:
                raise CheckFailed("%s: %s" % (self.name, exc)) from exc
            sim = out.sim
            delivered = sum(sim["per_queue_steered"])
            rss_dropped = sum(p["rss_dropped"] for p in audit["ports"].values())
            if delivered + rss_dropped != sim["offered"]:
                raise CheckFailed("%s: steered %d + dropped %d != offered %d"
                                  % (self.name, delivered, rss_dropped,
                                     sim["offered"]))
            if sum(sim["per_core_tx"]) != delivered:
                raise CheckFailed("%s: NAT forwarded %d of %d delivered"
                                  % (self.name, sum(sim["per_core_tx"]),
                                     delivered))
            if sim["offered"] != self.size.nat_packets:
                raise CheckFailed("%s: offered %d of %d trace packets"
                                  % (self.name, sim["offered"],
                                     self.size.nat_packets))

    def manifest(self) -> dict:
        rss = self.rss_config()
        return {
            "config": "nat_router",
            "variants": {"packetmill": BuildOptions.packetmill().label()},
            "freq_ghz": DUT_FREQ_GHZ,
            "trace": {"kind": "skewed", "n_flows": NAT_FLOWS,
                      "zipf_s": NAT_ZIPF,
                      "seeds": [self.trace_seed(0)],
                      "packets": self.size.nat_packets},
            "packetmill_seed": self.seed,
            "n_cores": NAT_CORES,
            "rss": {"table_size": rss.table_size, "mempool": rss.mempool,
                    "backlog_cap": rss.backlog_cap,
                    "ingest_budget": rss.ingest_budget},
            "steering": asdict(rss.steering),
            "tiers": _tier_record(self.runtime.replicas),
            "facts": [_facts_on(self.mill)],
            "size": asdict(self.size),
        }


WORKLOADS = {cls.name: cls for cls in (RouterCampus, Fwd64, NatZipf4Core)}
