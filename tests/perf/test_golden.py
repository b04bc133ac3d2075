"""Golden outputs of the simulator, pinned as SHA-256 digests.

The cross-tier identity checks compare execution tiers with each other,
but every tier runs on the same ``CpuCore``/``MemorySystem`` and the same
queue model, so a change to those would move all tiers together and
still compare equal.  These digests were captured from the code before
the queue model and the hardware model's hit path were flattened; any
host-side optimisation must leave them unchanged.
"""

import hashlib
import itertools

import pytest

from repro.perf.loadlatency import LoadLatencySimulator

#: The queue-model grid: service ns, seed, ring, burst, offered share of
#: the ring's capacity (above 1 overloads it), and packets per run.
SERVICE_NS = (6.7, 11.09, 23.5)
SEEDS = (1, 7)
RINGS = (1, 4, 1024)
BURSTS = (1, 32)
SHARES = (0.3, 0.9, 1.0, 1.2, 3.0)
PACKETS = (1, 37, 2000)

LATENCY_GRID_SHA256 = (
    "5cad732fa67281a27bb9588624511e715e7d46e31e6b4a8d66220669cdadab32"
)

#: ``perfbench.workloads.digest`` of each workload at ``TINY``, seed 0.
WORKLOAD_SHA256 = {
    "router-campus":
        "05c53ef1afcd284623625f53fe77e4e148c23da121ee4fbf877dcf779ba8bcd5",
    "fwd-64B":
        "e283183e29c6add7721f1b7388cb2483e59996492c359806c8fd85ed3a008202",
    "nat-zipf-4core":
        "4de9d132c271766fdac1a7bf53870ca4ce0224eacb19fa66a1b90bc6c78726ec",
}


def latency_grid():
    """``repr`` of every ``LatencyResult`` over the grid, in grid order."""
    out = []
    for service, seed, ring, burst in itertools.product(
            SERVICE_NS, SEEDS, RINGS, BURSTS):
        sim = LoadLatencySimulator(service, ring_size=ring, burst=burst,
                                   seed=seed)
        for share, n in itertools.product(SHARES, PACKETS):
            out.append(repr(sim.run(share * sim.capacity_pps(), n)))
    # Off-default constructor arguments: no poll overhead, no floor.
    sim = LoadLatencySimulator(9.5, ring_size=64, burst=8,
                               poll_overhead_ns=0.0, base_latency_us=0.0,
                               seed=3)
    for share in SHARES:
        out.append(repr(sim.run(share * sim.capacity_pps(), 500)))
    return out


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def workload_digest(name):
    from perfbench.probes import NullSpans
    from perfbench.workloads import TINY, WORKLOADS, digest
    from repro.exec import cache

    cache.reset_caches()
    spans = NullSpans()
    workload = WORKLOADS[name](0, TINY)
    workload.setup(spans)
    out = workload.run(spans)
    workload.check(out, spans)
    return digest(out.sim)


def test_latency_grid_matches_golden():
    assert sha256_lines(latency_grid()) == LATENCY_GRID_SHA256


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHA256))
def test_workload_digest_matches_golden(name):
    assert workload_digest(name) == WORKLOAD_SHA256[name]
