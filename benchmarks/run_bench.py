"""Wall-clock benchmarks: sweep engine and execution tiers.

Default mode (``BENCH_PR4.json``): runs each experiment once with the
sweep engine forced serial and once forced parallel (ProcessPoolExecutor
fan-out), verifies the two produce byte-identical
``ExperimentResult.to_json()`` payloads, and writes the timings,
speedups, and execution-cache hit rates.

Tier mode (``--tiers``, ``BENCH_PR7.json``): runs fig01/fig06 once per
execution tier (the reference interpreter and the compiled tier, via
``REPRO_TIER``) and verifies both produce byte-identical payloads.

Shard mode (``--shards``, ``BENCH_PR9.json``): builds and measures the
NAT on the sharded runtime at 1/2/4 cores, verifies the 1-core sharded
point is bit-identical to the unsharded path, and records wall-clock,
throughput, and scaling efficiency per core count.  These are simulated
cores stepped in lockstep inside one process, so the numbers capture
model cost, not host parallelism -- ``cpus`` records the capture host.
The mode also drives the adaptive-steering comparison at zipf-1.6 on 4
cores (static RSS vs RETA-only rebalancing vs RETA+dispatch) and records
each variant's final arrival imbalance, hot-queue drops, migration
counts, and the fraction of the static-vs-uniform throughput gap it
recovered.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full QUICK suite
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # CI subset, tiny scale
    PYTHONPATH=src python benchmarks/run_bench.py --tiers    # tier identity + timings
    PYTHONPATH=src python benchmarks/run_bench.py --shards   # sharded-runtime timings

Exits non-zero when any pair mismatches, so CI can gate on determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exec import cache as exec_cache
from repro.exec.sweep import default_jobs
from repro.experiments import (  # noqa: E402
    ablations,
    fig01,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    table1,
)
from repro.experiments.common import QUICK, Scale
from repro.net import checksum, trace

SMOKE_SCALE = Scale(
    name="smoke",
    warmup_batches=40,
    batches=80,
    frequencies=(1.2, 2.0, 3.0),
    packet_sizes=(64, 512, 1472),
    latency_packets=20_000,
    footprints_mb=(1.0, 8.0, 16.0),
    work_numbers=(0, 20),
)

FULL_EXPERIMENTS = (fig01, fig04, fig05, fig06, fig07, fig08, fig09, fig10,
                    fig11, table1)
SMOKE_EXPERIMENTS = (fig01, fig06, fig10)


def _reset_caches() -> None:
    """Drop every memoized artifact so each timed run starts cold."""
    exec_cache.reset_caches()
    trace.build_frame.cache_clear()
    checksum._cached_sum.cache_clear()


def _timed_run(mod, scale: Scale, mode: str):
    os.environ["REPRO_SWEEP"] = mode
    _reset_caches()
    start = time.perf_counter()
    payload = mod.run(scale).to_json()
    elapsed = time.perf_counter() - start
    stats = exec_cache.stats()
    return payload, elapsed, stats


def _hit_rate(stats, layer: str) -> float:
    hits = stats.get("%s_hits" % layer, 0)
    misses = stats.get("%s_misses" % layer, 0)
    return hits / (hits + misses) if hits + misses else 0.0


def _timed_tier_run(mod, scale: Scale, tier: str):
    os.environ["REPRO_TIER"] = tier
    _reset_caches()
    start = time.perf_counter()
    payload = mod.run(scale).to_json()
    return payload, time.perf_counter() - start


def run_tiers(args) -> int:
    scale = SMOKE_SCALE if args.smoke else QUICK
    experiments = (fig01, fig06)
    tiers = ("interpreter", "compiled")
    jobs = default_jobs()
    report = {
        "suite": "tiers-smoke" if args.smoke else "tiers",
        "scale": scale.name,
        "cpus": os.cpu_count(),
        "jobs": jobs,
        "workers_used": jobs,
        "tiers": list(tiers),
        "experiments": {},
    }
    mismatches = []
    saved_tier = os.environ.get("REPRO_TIER")
    try:
        for mod in experiments:
            name = mod.__name__.rsplit(".", 1)[-1]
            payloads = {}
            entry = {}
            for tier in tiers:
                payloads[tier], elapsed = _timed_tier_run(mod, scale, tier)
                entry[tier] = {"wall_s": round(elapsed, 3)}
            match = payloads["interpreter"] == payloads["compiled"]
            if not match:
                mismatches.append(name)
            entry["match"] = match
            report["experiments"][name] = entry
            print("%-8s " % name + "  ".join(
                "%s %6.1fs" % (tier, entry[tier]["wall_s"]) for tier in tiers
            ) + ("  ok" if match else "  MISMATCH"))
    finally:
        if saved_tier is None:
            os.environ.pop("REPRO_TIER", None)
        else:
            os.environ["REPRO_TIER"] = saved_tier

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print("-> %s" % args.output)
    if mismatches:
        print("TIER IDENTITY FAILURE: payloads differ for %s" % mismatches,
              file=sys.stderr)
        return 1
    return 0


def run_shards(args) -> int:
    from repro.core.nfs import nat_router
    from repro.core.options import BuildOptions
    from repro.core.packetmill import PacketMill
    from repro.hw.params import MachineParams
    from repro.perf.runner import measure_sharded, measure_throughput

    scale = SMOKE_SCALE if args.smoke else QUICK
    batches, warmup = scale.batches, scale.warmup_batches
    params = MachineParams().at_frequency(2.3)

    def mill(n_cores):
        return PacketMill(nat_router(), BuildOptions.packetmill(),
                          params=params, n_cores=n_cores)

    # Identity gate: the 1-core sharded point must be bit-identical to
    # the unsharded path before any multi-core timing means anything.
    _reset_caches()
    flat = measure_throughput(mill(1).build(), batches=batches,
                              warmup_batches=warmup)
    _reset_caches()
    sharded_one = measure_sharded(mill(1).build_sharded(), batches=batches,
                                  warmup_batches=warmup)
    identical = flat == sharded_one

    report = {
        "suite": "shards-smoke" if args.smoke else "shards",
        "scale": scale.name,
        "cpus": os.cpu_count(),
        # Replicas are simulated cores interleaved in ONE process; these
        # timings measure model cost per core, never host fan-out.
        "workers_used": 1,
        "parallel_capture": False,
        "single_core_identity": identical,
        "cores": {},
    }
    base_wall = None
    for n_cores in (1, 2, 4):
        _reset_caches()
        start = time.perf_counter()
        point = measure_sharded(mill(n_cores).build_sharded(),
                                batches=batches, warmup_batches=warmup)
        wall = time.perf_counter() - start
        if base_wall is None:
            base_wall = wall
        report["cores"][str(n_cores)] = {
            "wall_s": round(wall, 3),
            "gbps": round(point.gbps, 3),
            "mpps": round(point.mpps, 3),
            "bound_by": point.bound_by,
            "wall_per_core_vs_1core": round(wall / (base_wall * n_cores), 3),
        }
        print("%d core(s): %6.2fs wall  %7.2f Gbps  bound by %s"
              % (n_cores, wall, point.gbps, point.bound_by))

    # Adaptive steering at heavy skew: static vs RETA-only vs dispatch,
    # same grid cell as the rss_imbalance experiment's headline claim.
    from repro.experiments import rss_imbalance as ri
    from repro.net.rss import RssConfig

    if args.smoke:
        n_packets, backlog_cap = ri.SMOKE_PACKETS, ri.SMOKE_BACKLOG_CAP
    else:
        n_packets = max(40_000, scale.trace_packets() * ri.N_CORES)
        backlog_cap = RssConfig().backlog_cap

    def steering_point(variant, skew):
        _reset_caches()
        start = time.perf_counter()
        point = ri._measure("stationary", variant, skew,
                            n_packets, backlog_cap, None)
        return point, time.perf_counter() - start

    uniform, _ = steering_point("static", None)
    steering = {"skew": ri.HEAVY_SKEW, "n_packets": n_packets,
                "uniform_gbps": round(uniform.gbps, 3), "variants": {}}
    static_gbps = None
    for variant in ri.VARIANTS:
        point, wall = steering_point(variant, ri.HEAVY_SKEW)
        if variant == "static":
            static_gbps = point.gbps
        gap = uniform.gbps - static_gbps
        steering["variants"][variant] = {
            "wall_s": round(wall, 3),
            "gbps": round(point.gbps, 3),
            "arrival_imbalance": round(point.imbalance, 4),
            "rss_dropped": point.rss_dropped,
            "reta_moves": point.reta_moves,
            "migration_drains": point.migration_drains,
            "dispatched": point.dispatched,
            "gap_recovered": (
                round((point.gbps - static_gbps) / gap, 3) if gap > 0
                else None),
        }
        print("steering %-8s %7.2f Gbps  imbalance %.2f  drops %6d  "
              "moves %3d  dispatched %6d"
              % (variant, point.gbps, point.imbalance, point.rss_dropped,
                 point.reta_moves, point.dispatched))
    report["steering"] = steering

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print("-> %s" % args.output)
    if not identical:
        print("SHARD IDENTITY FAILURE: 1-core sharded point != unsharded",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset (fig01/fig06/fig10) at a tiny scale")
    parser.add_argument("--tiers", action="store_true",
                        help="gate tier identity: fig01/fig06 under the "
                             "interpreter and the compiled tier")
    parser.add_argument("--shards", action="store_true",
                        help="benchmark the sharded runtime at 1/2/4 cores "
                             "(1-core identity gate + adaptive-steering "
                             "comparison at zipf-1.6)")
    parser.add_argument("--output", default=None,
                        help="where to write the report (default: "
                             "BENCH_PR4.json / BENCH_PR7.json / "
                             "BENCH_PR9.json)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = ("BENCH_PR9.json" if args.shards
                       else "BENCH_PR7.json" if args.tiers
                       else "BENCH_PR4.json")
    if args.shards:
        return run_shards(args)
    if args.tiers:
        return run_tiers(args)

    scale = SMOKE_SCALE if args.smoke else QUICK
    experiments = SMOKE_EXPERIMENTS if args.smoke else FULL_EXPERIMENTS

    jobs = default_jobs()
    report = {
        "suite": "smoke" if args.smoke else "full",
        "scale": scale.name,
        "cpus": os.cpu_count(),
        "jobs": jobs,
        # Worker provenance: "parallel" timings from a single-worker box
        # (workers_used == 1) measure pool overhead, not fan-out -- mark
        # them so speedup numbers are never compared across capture kinds.
        "workers_used": jobs,
        "parallel_capture": jobs > 1,
        "experiments": {},
    }
    mismatches = []
    total_serial = total_parallel = 0.0

    for mod in experiments:
        name = mod.__name__.rsplit(".", 1)[-1]
        serial_payload, serial_s, serial_stats = _timed_run(mod, scale, "serial")
        parallel_payload, parallel_s, _ = _timed_run(mod, scale, "parallel")
        match = serial_payload == parallel_payload
        if not match:
            mismatches.append(name)
        total_serial += serial_s
        total_parallel += parallel_s
        report["experiments"][name] = {
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
            "match": match,
            "build_hit_rate": round(_hit_rate(serial_stats, "build"), 3),
            "trace_hit_rate": round(_hit_rate(serial_stats, "trace"), 3),
        }
        print("%-8s serial %6.1fs  parallel %6.1fs  speedup %5.2fx  %s"
              % (name, serial_s, parallel_s,
                 serial_s / parallel_s if parallel_s else 0.0,
                 "ok" if match else "MISMATCH"))

    if not args.smoke:
        os.environ["REPRO_SWEEP"] = "parallel"
        _reset_caches()
        start = time.perf_counter()
        for abl_name, (run_fn, check_fn) in ablations.ALL.items():
            check_fn(run_fn())
        report["ablations_s"] = round(time.perf_counter() - start, 3)

    report["total_serial_s"] = round(total_serial, 3)
    report["total_parallel_s"] = round(total_parallel, 3)
    report["total_speedup"] = (
        round(total_serial / total_parallel, 3) if total_parallel else None
    )
    report["mismatches"] = mismatches

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print("total: serial %.1fs, parallel %.1fs (%.2fx) -> %s"
          % (total_serial, total_parallel,
             total_serial / total_parallel if total_parallel else 0.0,
             args.output))
    if mismatches:
        print("DETERMINISM FAILURE: serial != parallel for %s" % mismatches,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
