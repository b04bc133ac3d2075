"""NDR/PDR search: the highest offered rate a queue model sustains.

The measure-then-adjust loop of a traffic generator: offer a rate, read
the loss, move the rate up after a pass and down after a fail, and stop
once the window between the best passing and the worst failing rate is
narrow.  NDR (no-drop rate) passes at zero loss, PDR (partial-drop rate)
at a loss below a small threshold.

The search never offers more than the DUT's measured capacity.  A trial
is a finite number of packets, and a finite RX ring absorbs a mild
overload for the length of one trial (a 1024-deep ring hides up to
1024 / N of excess over N packets), so a rate above the capacity could
pass a short trial without being sustainable.  The caller sizes trials
so that the ring cannot hide an overload at the capacity itself; see
``perfbench.workloads.trial_packets``.

The search is a plain function of a ``loss_at(rate) -> fraction``
callable, so it runs the same over
:class:`repro.perf.loadlatency.LoadLatencySimulator` and over a stub with
a known knee in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: PDR passes while the loss stays at or below this fraction (0.1%).
PDR_LOSS = 0.001
#: The first step down from the capacity, as a share of it; each
#: further step doubles.
FIRST_STEP = 0.002
#: The widest a final window may be, as a share of the capacity.
MAX_WIDTH = 0.01
#: The lowest rate searched, as a share of the capacity.
LOW_SHARE = 0.5
#: Probes each search spends: a fixed count keeps a search's work the
#: same across inputs whose knees differ slightly, and the probes left
#: after the window is found narrow it.  A knee far below the capacity
#: costs more probes, as many as it takes to bring the window under
#: MAX_WIDTH.
NDR_PROBES = 5
PDR_PROBES = 1


class SearchError(RuntimeError):
    """No rate in the search window passes."""


class _MemoProbe:
    """``loss_at`` with every probed rate remembered."""

    def __init__(self, loss_at: Callable[[float], float]):
        self.loss_at = loss_at
        self.seen: Dict[float, float] = {}

    def __call__(self, rate: float) -> float:
        if rate not in self.seen:
            self.seen[rate] = self.loss_at(rate)
        return self.seen[rate]


@dataclass(frozen=True)
class Window:
    """The highest passing rate found and the lowest failing one above it."""

    lo: float
    hi: float


def _bisect(loss_at, lo: float, hi: float, max_loss: float, probes: int,
            width: float) -> Window:
    """Narrow a window whose ``lo`` passes and ``hi`` fails: ``probes``
    times, and on until it is at most ``width`` wide."""
    while probes > 0 or hi - lo > width:
        mid = (lo + hi) / 2.0
        if loss_at(mid) <= max_loss:
            lo = mid
        else:
            hi = mid
        probes -= 1
    return Window(lo, hi)


def highest_passing_rate(loss_at: Callable[[float], float], top: float,
                         max_loss: float) -> Window:
    """The highest rate up to ``top`` whose loss is ``<= max_loss``.

    Returns ``Window(top, top)`` when ``top`` passes.  Otherwise the
    search steps down from ``top`` by a doubling share (``FIRST_STEP``,
    twice that, ...) until a rate passes, then bisects the last step with
    the probes left of ``NDR_PROBES``, and further while the window is
    wider than ``MAX_WIDTH * top``.  Below ``LOW_SHARE * top`` it gives
    up with :class:`SearchError` rather than return a rate the model
    never sustained.  Loss must be monotone in rate, which holds for an
    open-loop queue fed one arrival pattern scaled by the rate.
    """
    if top <= 0:
        raise SearchError("need a positive top rate, got %r" % (top,))
    if loss_at(top) <= max_loss:
        return Window(top, top)
    floor = LOW_SHARE * top
    hi, share, used = top, FIRST_STEP, 1
    while True:
        lo = max(top * (1.0 - share), floor)
        used += 1
        if loss_at(lo) <= max_loss:
            break
        if lo == floor:
            raise SearchError("no rate down to %.6g loses at most %g"
                              % (floor, max_loss))
        hi, share = lo, share * 2.0
    return _bisect(loss_at, lo, hi, max_loss, NDR_PROBES - used,
                   MAX_WIDTH * top)


@dataclass(frozen=True)
class NdrPdr:
    ndr: Window
    pdr: Window
    #: Distinct rates probed by both searches together.
    steps: int


def ndr_pdr(loss_at: Callable[[float], float], capacity: float) -> NdrPdr:
    """NDR and PDR windows at or below ``capacity``.

    The PDR search reuses every rate the NDR search probed: its window
    runs from the highest rate that lost at most ``PDR_LOSS`` to the
    lowest that lost more, so no rate is probed twice.
    """
    probe = _MemoProbe(loss_at)
    ndr = highest_passing_rate(probe, capacity, 0.0)
    if probe(capacity) <= PDR_LOSS:
        pdr = Window(capacity, capacity)
    else:
        lo = max(r for r, loss in probe.seen.items() if loss <= PDR_LOSS)
        hi = min(r for r, loss in probe.seen.items() if loss > PDR_LOSS)
        pdr = _bisect(probe, lo, hi, PDR_LOSS, PDR_PROBES,
                      MAX_WIDTH * capacity)
    return NdrPdr(ndr=ndr, pdr=pdr, steps=len(probe.seen))
