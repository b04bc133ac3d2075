#!/usr/bin/env python3
"""Layer-attributed benchmark of the PacketMill simulator.

Runs one workload for a fixed host-time budget as repeated, identical
repetitions (build, simulate, audit), and reports the simulator's own
host cost next to the simulated capacity it computes.  Host metrics are
medians over repetitions; simulated metrics are deterministic and every
repetition must reproduce the first one's output digest.

With ``--trace 0`` the last output line holds the end-to-end metrics.
With ``--trace 1`` repetitions alternate untraced and traced; traced ones
run under a 1 ms ``SIGPROF`` layer sampler with call counters and spans,
and the last line holds the per-layer metrics plus the tracing overhead.

Usage, from the repository root::

    python3 perfbench/run.py --workload router-campus --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Full results (manifest, per-repetition samples, per-layer sample counts)
are written to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

WORKLOAD_NAMES = ("router-campus", "fwd-64B", "nat-zipf-4core")

#: End-to-end metrics on every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("host_us_per_pkt", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_gbps", "Gbps"),
    ("sim_ns_per_pkt", "ns"),
)

#: Sampler layers reported as ``<layer>.self_pct``.
SELF_PCT_LAYERS = ("hw", "runtime", "build", "driver", "elements", "pmd",
                   "trace", "queue", "rss", "steering", "other", "bench")

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER = tuple(("%s.self_pct" % layer, "%") for layer in SELF_PCT_LAYERS) + (
    ("sampler.samples", "count"),
    ("trace_overhead_pct", "%"),
    ("hw.lines_per_pkt", "lines/pkt"),
    ("hw.l1_hit_ratio", "ratio"),
    ("hw.llc_miss_ratio", "ratio"),
    ("hw.dtlb_walks_per_pkt", "walks/pkt"),
    ("hw.ipc", "instr/cycle"),
    ("hw.mem_access_calls_per_pkt", "calls/pkt"),
    ("runtime.programs_per_pkt", "programs/pkt"),
    ("runtime.demotions", "count"),
    ("build.s", "s"),
    ("build.build_cache_hit_ratio", "ratio"),
    ("build.trace_cache_hit_ratio", "ratio"),
    ("build.codegen_compiles", "count"),
    ("driver.batches", "count"),
    ("driver.pkts_per_batch", "pkts/batch"),
    ("pmd.rx_pkts_per_burst", "pkts/burst"),
    ("pmd.mempool_ops_per_pkt", "ops/pkt"),
    ("trace.next_packet_calls", "count"),
    ("trace.frames_built", "count"),
    ("queue.self_s", "s"),
    ("queue.sim_pkts", "count"),
    ("queue.ns_per_sim_pkt", "ns"),
    ("queue.search_steps", "count"),
    ("rss.arrival_imbalance", "ratio"),
    ("rss.drop_ratio", "ratio"),
    ("steering.reta_moves", "count"),
    ("steering.migration_drains", "count"),
)

#: The modules a workload imports, timed in fresh interpreters.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.core.packetmill, repro.core.nfs, repro.exec.sweep, "
    "repro.perf.runner, repro.perf.loadlatency, repro.faults.audit, "
    "repro.net.steering; print(time.perf_counter() - t)"
)
IMPORT_PROBES = 3
#: Fewer repetitions cannot check that outputs repeat.
MIN_REPS = 2


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def probe_import_s() -> float:
    """Seconds to import the simulator in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD's commit read from ``.git`` in the repository root, if any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Rep:
    """One repetition's host timings and outcome."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.setup_s = self.run_s = self.dut_s = 0.0
        self.dut_pkts = 0
        self.digest = ""
        self.error: Optional[str] = None
        self.out = None
        self.spans: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, int] = {}
        self.cache: Dict[str, float] = {}
        self.codegen_compiles = 0
        self.manifest: Optional[dict] = None

    @property
    def host_us_per_pkt(self) -> float:
        return self.dut_s / self.dut_pkts * 1e6

    def record(self) -> dict:
        return {"index": self.index, "traced": self.traced,
                "setup_s": self.setup_s, "run_s": self.run_s,
                "dut_s": self.dut_s, "dut_pkts": self.dut_pkts,
                "digest": self.digest, "error": self.error,
                "spans": self.spans, "counts": self.counts}


def run_rep(workload_cls, seed: int, index: int, traced: bool, sampler,
            reference: Optional[str]) -> Rep:
    """Build, simulate and audit once; failures are recorded, not raised."""
    from repro.compiler import codegen
    from repro.exec import cache as exec_cache

    from perfbench.probes import CallCounters, NullSpans, Spans
    from perfbench.workloads import CheckFailed, digest

    rep = Rep(index, traced)
    exec_cache.reset_caches()
    gc.collect()
    spans = Spans() if traced else NullSpans()
    counters = CallCounters() if traced else None
    compiles_before = codegen.stats().get("compiles", 0)
    try:
        workload = workload_cls(seed)
        with counters or nullcontext():
            if traced:
                sampler.start()
            try:
                start = time.perf_counter()
                workload.setup(spans)
                first_batch = time.perf_counter()
                out = workload.run(spans)
                end = time.perf_counter()
            finally:
                if traced:
                    sampler.stop()
        rep.setup_s = first_batch - start
        rep.run_s = end - first_batch
        rep.dut_s, rep.dut_pkts = out.dut_s, out.dut_pkts
        rep.cache = exec_cache.stats()
        rep.codegen_compiles = codegen.stats().get("compiles", 0) - compiles_before
        rep.digest = digest(out.sim)
        rep.out = out
        rep.manifest = workload.manifest()
        workload.check(out, spans)
        if reference is not None and rep.digest != reference:
            raise CheckFailed("digest %s differs from the first repetition's %s"
                              % (rep.digest, reference))
    except Exception:  # noqa: BLE001 - a failed repetition is a counted result
        rep.error = traceback.format_exc()
    if traced:
        rep.spans = spans.totals()
        rep.counts = dict(counters.counts)
    return rep


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end_metrics(reps: List[Rep], import_s: float) -> Dict[str, tuple]:
    untraced = [r for r in reps if not r.traced]
    metrics = {
        "setup_s": (import_s + _median([r.setup_s for r in untraced]), "s"),
        "run_s": (_median([r.run_s for r in untraced]), "s"),
        "host_us_per_pkt": (_median([r.host_us_per_pkt for r in untraced]), "us"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    metrics.update(reps[0].out.metrics)
    return metrics


def per_layer_metrics(reps: List[Rep], sampler) -> Dict[str, tuple]:
    units = dict(PER_LAYER)
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    last = traced[-1]
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    values.update(last.out.layers)
    shares = sampler.shares_pct(SELF_PCT_LAYERS)
    for layer in SELF_PCT_LAYERS:
        values["%s.self_pct" % layer] = shares[layer]
    values["sampler.samples"] = sampler.total
    base = _median([r.run_s for r in untraced])
    values["trace_overhead_pct"] = (
        (_median([r.run_s for r in traced]) - base) / base * 100.0)
    counts = last.counts
    values["hw.mem_access_calls_per_pkt"] = counts["mem_access"] / last.dut_pkts
    values["runtime.programs_per_pkt"] = counts["programs"] / last.dut_pkts
    values["pmd.rx_pkts_per_burst"] = (
        counts["rx_burst_pkts"] / counts["rx_bursts"] if counts["rx_bursts"]
        else 0.0)
    values["trace.next_packet_calls"] = counts["next_packet"]
    values["trace.frames_built"] = counts["frames_built"]
    values["build.s"] = _median(
        [r.spans.get("build", {}).get("s", 0.0) for r in traced])
    values["queue.self_s"] = _median(
        [r.spans.get("queue", {}).get("self_s", 0.0) for r in traced])
    if values["queue.sim_pkts"]:
        values["queue.ns_per_sim_pkt"] = (
            values["queue.self_s"] * 1e9 / values["queue.sim_pkts"])
    cache = last.cache
    values["build.build_cache_hit_ratio"] = _ratio(cache["build_hits"],
                                                   cache["build_misses"])
    values["build.trace_cache_hit_ratio"] = _ratio(cache["trace_hits"],
                                                   cache["trace_misses"])
    values["build.codegen_compiles"] = last.codegen_compiles
    return {name: (float(values[name]), units[name]) for name, _ in PER_LAYER}


def manifest(args, workload_cls, reps: List[Rep], import_s: float,
             import_probes: List[float]) -> dict:
    ok = [r for r in reps if r.error is None]
    return {
        "workload": workload_cls.name,
        "why": workload_cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "simulated": ok[0].manifest if ok else None,
        "sweep_mode": os.environ.get("REPRO_SWEEP"),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "import_s": import_s,
        "import_probes_s": import_probes,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "model_validation": "unvalidated against hardware; no error figure",
    }


def run_workload(args) -> int:
    os.environ["REPRO_SWEEP"] = "serial"
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # noqa: F401
        from perfbench.sampler import LayerSampler
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print("perfbench: cannot import the simulator from %s: %s"
              % (SRC, exc), file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    import_probes = [probe_import_s() for _ in range(IMPORT_PROBES)]
    import_s = _median(import_probes)
    sampler = LayerSampler(os.path.dirname(os.path.abspath(repro.__file__)))

    traced_mode = bool(args.trace)
    reps: List[Rep] = []
    reference = None
    start = time.perf_counter()
    durations: List[float] = []
    # A repetition starts only if it is expected to end within the budget.
    while (len(reps) < MIN_REPS
           or time.perf_counter() - start + _median(durations) <= args.seconds):
        rep_start = time.perf_counter()
        traced = traced_mode and len(reps) % 2 == 1
        rep = run_rep(workload_cls, args.seed, len(reps), traced, sampler,
                      reference)
        reps.append(rep)
        durations.append(time.perf_counter() - rep_start)
        if rep.error is None and reference is None:
            reference = rep.digest
        status = "FAILED" if rep.error else "ok"
        print("rep %2d %-8s setup %.3f s  run %.3f s  host %.2f us/pkt  "
              "digest %s  %s" % (rep.index, "traced" if traced else "",
                                 rep.setup_s, rep.run_s,
                                 rep.host_us_per_pkt if rep.dut_pkts else 0.0,
                                 rep.digest[:16], status), flush=True)
        if rep.error:
            print(rep.error, file=sys.stderr, flush=True)

    ok = [r for r in reps if r.error is None]
    failed = len(reps) - len(ok)
    have_untraced = any(not r.traced for r in ok)
    have_traced = any(r.traced for r in ok)
    correct = failed == 0 and have_untraced and (have_traced or not traced_mode)
    metrics: Dict[str, tuple] = {}
    layers: Dict[str, tuple] = {}
    if have_untraced:
        metrics = end_to_end_metrics(ok, import_s)
    if traced_mode and have_traced and have_untraced:
        layers = per_layer_metrics(ok, sampler)

    print("workload %s  seed %d  repetitions %d  failed %d"
          % (args.workload, args.seed, len(reps), failed))
    for name, (value, unit) in metrics.items():
        print("metric %-18s %14.6f %s" % (name, value, unit))
    print("digest %s" % (reference or "none"))
    for name, (value, unit) in layers.items():
        print("layer  %-30s %14.6f %s" % (name, value, unit))
    if layers:
        print("layer  sampler samples by layer: %s" % json.dumps(sampler.samples))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({
            "manifest": manifest(args, workload_cls, reps, import_s,
                                 import_probes),
            "correct": correct,
            "attempted": len(reps),
            "failed": failed,
            "digest": reference,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "per_layer": {k: {"value": v, "unit": u}
                          for k, (v, u) in layers.items()},
            "sampler": {"interval_s": sampler.interval_s,
                        "samples": sampler.samples,
                        "self_s": sampler.self_seconds(sum(
                            r.setup_s + r.run_s for r in ok if r.traced))},
            "simulated": ok[0].out.sim if ok else None,
            "reps": [r.record() for r in reps],
        }, fh, indent=1, sort_keys=True)
    print("results written to %s" % os.path.relpath(path, ROOT))

    names = PER_LAYER if traced_mode else END_TO_END
    chosen = layers if traced_mode else metrics
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": chosen[name][0], "unit": chosen[name][1]}
                    for name, _ in names if name in chosen},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print("== %s trace=%d" % (name, trace), flush=True)
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
