"""Execution infrastructure: content-keyed caches and the parallel sweep
engine the experiment suite runs on.

- :mod:`repro.exec.cache` -- build/trace/point caches with
  hit/miss counters exposed under ``exec.cache.*``.
- :mod:`repro.exec.sweep` -- picklable sweep points and the
  :class:`~repro.exec.sweep.SweepEngine` process-pool fan-out.

``repro.exec`` itself only imports the cache layer; the sweep module is
imported on demand because it pulls in the whole build pipeline
(``repro.core.packetmill``), which in turn uses the cache layer.
"""

from repro.exec import cache  # noqa: F401

__all__ = ["cache"]
