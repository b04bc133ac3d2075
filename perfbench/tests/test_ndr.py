import pytest

from perfbench.ndr import (
    MAX_WIDTH,
    NDR_PROBES,
    PDR_LOSS,
    PDR_PROBES,
    SearchError,
    highest_passing_rate,
    ndr_pdr,
)


class Knee:
    """Zero loss up to ``knee``, then loss = the excess over the offer."""

    def __init__(self, knee):
        self.knee = knee
        self.calls = []

    def __call__(self, rate):
        self.calls.append(rate)
        return 0.0 if rate <= self.knee else (rate - self.knee) / rate


@pytest.mark.parametrize("knee", [999.5, 995.0, 990.0, 985.0, 900.0, 612.0])
def test_finds_a_known_knee(knee):
    capacity = 1000.0
    loss = Knee(knee)
    result = ndr_pdr(loss, capacity)
    ndr, pdr = result.ndr, result.pdr
    # Each window brackets its knee and is narrow.
    assert ndr.lo <= knee < ndr.hi
    assert ndr.hi - ndr.lo <= MAX_WIDTH * capacity
    pdr_knee = knee / (1.0 - PDR_LOSS)
    if pdr_knee >= capacity:
        assert pdr.lo == pdr.hi == capacity
    else:
        assert pdr.lo <= pdr_knee < pdr.hi
        assert pdr.hi - pdr.lo <= MAX_WIDTH * capacity
    assert ndr.lo <= pdr.lo <= capacity
    # Every probe is counted once, none is repeated, none is above the
    # capacity.
    assert result.steps == len(loss.calls) == len(set(loss.calls))
    assert max(loss.calls) == capacity


@pytest.mark.parametrize("knee", [997.0, 993.0, 988.0])
def test_knees_near_the_capacity_cost_a_fixed_number_of_probes(knee):
    result = ndr_pdr(Knee(knee), 1000.0)
    assert result.steps == NDR_PROBES + PDR_PROBES


def test_knee_above_capacity_reports_the_capacity():
    loss = Knee(2000.0)
    result = ndr_pdr(loss, 1000.0)
    assert result.ndr.lo == result.pdr.lo == 1000.0
    assert result.steps == 1


def test_knee_below_the_window_is_an_error():
    with pytest.raises(SearchError):
        highest_passing_rate(Knee(100.0), 1000.0, 0.0)


def test_pdr_tolerates_small_loss_only():
    # Loss jumps from 0.05% to 1% at 950: NDR is the first step down from
    # the capacity, PDR sits at the jump.
    def loss(rate):
        if rate <= 800:
            return 0.0
        return 0.0005 if rate <= 950 else 0.01

    result = ndr_pdr(loss, 1000.0)
    assert result.ndr.lo <= 800.0 < result.ndr.hi
    assert result.pdr.lo <= 950.0 < result.pdr.hi
