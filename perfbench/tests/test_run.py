"""The command-line contract: the output line, the metric list, and
failure when the simulator's sources are missing."""

import json
import os
import shutil
import subprocess
import sys

from perfbench import run

ROOT = run.ROOT


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_traced_run_prints_every_per_layer_metric():
    done = _run(ROOT, "--workload", "fwd-64B", "--seed", "5",
                "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert result["metrics"]["sampler.samples"]["value"] > 0
    assert "digest " in done.stdout


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "router-campus", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
