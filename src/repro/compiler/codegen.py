"""Compatibility stub for the removed generated-code execution tier.

The simulator has one fast tier, the compiled batch charger
(:meth:`repro.hw.cpu.CpuCore.charge`), and the reference interpreter
(:func:`repro.compiler.runtime.execute_interpreted`).  This module keeps
only :func:`stats`, because the benchmark harness ``perfbench/run.py``
imports it and reports ``stats().get("compiles", 0)`` as
``build.codegen_compiles``.  The module goes when a later benchmark
change drops that counter.
"""


def stats() -> dict:
    """No counters: nothing is compiled."""
    return {}
