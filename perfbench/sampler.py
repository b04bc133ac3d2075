"""Host-time sampler: per-layer self time from ``SIGPROF`` at 1 ms.

The profiling timer asks for ``SIGPROF`` every millisecond of process
CPU time; the kernel delivers it at its timer tick, so the real rate can
be lower (about 250 per CPU-second on a 250 Hz kernel) and results quote
sample counts, not an assumed interval.  The handler walks the
interrupted Python stack from the innermost frame outwards to the first
frame that belongs to the simulator package and charges the sample to
that module's layer.  So a sample taken inside
``random.expovariate`` called from the latency queue model counts for
the queue layer, and one taken in benchmark code with no simulator frame
on the stack counts as ``bench``.

This is a statistical profiler: it adds one cheap handler call per
sample instead of a hook on every Python call, so it does not skew
the proportions towards call-heavy layers the way ``cProfile`` does.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, Optional, Sequence, Tuple

INTERVAL_S = 0.001

#: Module path (relative to the simulator package) -> layer, first match
#: wins, so the more specific prefixes come first.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("hw/", "hw"),
    ("compiler/runtime.py", "runtime"),
    ("compiler/codegen.py", "runtime"),
    ("compiler/", "build"),
    ("exec/", "build"),
    ("analyze/", "build"),
    ("click/config/", "build"),
    ("core/sharded.py", "rss"),
    ("core/binary.py", "driver"),
    ("core/", "build"),
    ("click/elements/", "elements"),
    ("click/", "driver"),
    ("perf/loadlatency.py", "queue"),
    ("perf/stats.py", "queue"),
    ("perf/runner.py", "driver"),
    ("dpdk/", "pmd"),
    ("net/rss.py", "rss"),
    ("net/steering.py", "steering"),
    ("net/", "trace"),
)

#: Generated element kernels are compiled from strings with this
#: filename prefix; they are the runtime tier's code.
GENERATED_PREFIX = "<codegen:"

#: Every layer a sample can land in, in report order.
LAYERS = ("hw", "runtime", "build", "driver", "elements", "pmd", "trace",
          "queue", "rss", "steering", "other", "bench")


def layer_of_path(path: str, package_dir: str) -> Optional[str]:
    """The layer of one source file, or None when it is outside the package."""
    if path.startswith(GENERATED_PREFIX):
        return "runtime"
    if not path.startswith(package_dir):
        return None
    rel = path[len(package_dir):].lstrip(os.sep).replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


class LayerSampler:
    """Counts ``SIGPROF`` samples per layer while started.

    ``package_dir`` is the simulator package's directory; frames from
    files under it are attributed by :data:`LAYER_PREFIXES`.  Only one
    sampler can own the process's profiling timer at a time.
    """

    def __init__(self, package_dir: str):
        self.package_dir = os.path.abspath(package_dir)
        self.interval_s = INTERVAL_S
        self.samples: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        # Keyed by file name: code objects compare equal across files
        # when their bytecode, names and line numbers match.
        self._by_file: Dict[str, Optional[str]] = {}
        self._previous = None
        self._running = False

    def _layer_of_file(self, path: str) -> Optional[str]:
        try:
            return self._by_file[path]
        except KeyError:
            layer = layer_of_path(path, self.package_dir)
            self._by_file[path] = layer
            return layer

    def _on_signal(self, signum, frame) -> None:
        layer = None
        while frame is not None:
            layer = self._layer_of_file(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        self.samples[layer or "bench"] += 1

    def start(self) -> None:
        if self._running:
            raise RuntimeError("sampler already running")
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._running = False

    def __enter__(self) -> "LayerSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def total(self) -> int:
        return sum(self.samples.values())

    def shares_pct(self, layers: Sequence[str] = LAYERS) -> Dict[str, float]:
        """Each layer's share of all samples, in percent."""
        total = self.total
        return {layer: (100.0 * self.samples[layer] / total if total else 0.0)
                for layer in layers}

    def self_seconds(self, elapsed_s: float) -> Dict[str, float]:
        """Each layer's share of ``elapsed_s``, the sampled interval's length."""
        return {layer: share / 100.0 * elapsed_s
                for layer, share in self.shares_pct().items()}
