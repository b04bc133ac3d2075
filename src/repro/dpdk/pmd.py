"""The MLX5-class poll-mode driver.

``rx_burst``/``tx_burst`` mirror DPDK's PMD entry points: poll the
completion queue, run the metadata model's per-packet conversion program,
and keep the RX ring replenished / the TX ring reaped.  All driver-side
work is charged through the lowered IR programs, so enabling LTO (which
inlines X-Change's conversion calls) changes the driver's cost exactly as
recompiling DPDK with ``-flto`` does.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compiler.lower import ExecProgram, lower
from repro.compiler.passes import inline_calls, profile_guided, vectorize
from repro.compiler.runtime import (
    ExecutionTier,
    TierSelection,
    execute_bases,
    execute_interpreted,
    select_tier,
)
from repro.compiler.structlayout import LayoutRegistry
from repro.dpdk.metadata import MetadataModel
from repro.dpdk.nic import Nic
from repro.net.packet import Packet

#: Instructions per rx_burst/tx_burst invocation (poll loop, ring indexes).
BURST_OVERHEAD_INSTRUCTIONS = 26.0
#: Posted-write doorbell cost per TX burst (MMIO over PCIe).
DOORBELL_NS = 30.0
#: TX ring occupancy beyond which completed buffers are reaped.
TX_FREE_THRESHOLD = 32


class MlxPmd:
    """One port's poll-mode driver bound to a CPU core."""

    def __init__(
        self,
        nic: Nic,
        model: MetadataModel,
        cpu,
        registry: LayoutRegistry,
        lto: bool = False,
        vectorized: bool = False,
        pgo: bool = False,
        tier=None,
    ):
        self.nic = nic
        self.model = model
        self.cpu = cpu
        self.lto = lto
        self.vectorized = vectorized
        rx_ir = model.rx_program()
        tx_ir = model.tx_program()
        if lto:
            rx_ir = inline_calls(rx_ir)
            tx_ir = inline_calls(tx_ir)
        if vectorized:
            rx_ir = vectorize(rx_ir)
            tx_ir = vectorize(tx_ir)
        if pgo:
            rx_ir = profile_guided(rx_ir)
            tx_ir = profile_guided(tx_ir)
        self.rx_exec: ExecProgram = lower(rx_ir, registry)
        self.tx_exec: ExecProgram = lower(tx_ir, registry)
        # Execution tier: PacketMill passes its resolved TierSelection so
        # PMDs and driver always agree; standalone PMDs resolve from the
        # policy/environment.
        if isinstance(tier, TierSelection):
            selection = tier
        else:
            selection = select_tier(tier)
        self.tier = selection.tier
        self._interpret = selection.tier is ExecutionTier.INTERPRETER
        # Optional repro.telemetry.SpanRecorder; when bound, rx_burst
        # brackets its DMA and conversion stages as nested spans.
        self.spans = None
        self._fill_rx_ring()

    def _fill_rx_ring(self) -> None:
        self._replenish_rx(cpu=None)

    def _replenish_rx(self, cpu) -> None:
        """Top the RX ring back up; allocation failure is an rx_nombuf drop.

        Real mlx5 keeps posting until the ring is full or ``rte_mbuf_raw_alloc``
        fails, in which case it bumps ``rx_nombuf`` and retries next poll --
        the run degrades instead of aborting.
        """
        while not self.nic.rx_ring.is_full():
            buf = self.model.try_rx_buffer(cpu)
            if buf is None:
                self.nic.counters.rx_nombuf += 1
                return
            self.nic.post_rx(buf)

    # -- RX ---------------------------------------------------------------------

    def rx_burst(self, max_burst: int) -> List[Packet]:
        """Receive up to ``max_burst`` packets, charging the driver path."""
        self.cpu.charge_compute(BURST_OVERHEAD_INSTRUCTIONS)
        spans = self.spans
        if spans is not None:
            spans.push("dma")
        delivered = self.nic.deliver(max_burst)
        if spans is not None:
            spans.pop()
            spans.push("convert")
        out: List[Packet] = []
        interpret = self._interpret
        for ref, pkt in delivered:
            if pkt.rx_error is not None:
                # Hardware offload validation: damaged frames are flagged
                # in the CQE and discarded here as counted drops, the
                # buffer going straight back to the pool.
                counters = self.nic.counters
                counters.rx_errors += 1
                if pkt.rx_error == "truncated":
                    counters.rx_truncated += 1
                else:
                    counters.rx_corrupt += 1
                self.model.release(ref, self.cpu)
                ticket = pkt.qos_ticket
                if ticket is not None:
                    # The discarded frame leaves the system here; release
                    # its ingress buffer charge.
                    pkt.qos_ticket = None
                    ticket[0].drain(ticket[1])
                continue
            ref = self.model.on_rx(ref, self.cpu)
            # The MLX5 RX loop prefetches the CQE, the metadata struct,
            # and the packet's first lines before converting/processing.
            self.cpu.prefetch(ref.cqe_addr, 64)
            if ref.mbuf_addr:
                self.cpu.prefetch(ref.mbuf_addr, 128)
            self.cpu.prefetch(ref.meta_addr, 128)
            self.cpu.prefetch(ref.data_addr, 128)
            if interpret:
                execute_interpreted(self.cpu, self.rx_exec, ref.meta_addr,
                                    ref.mbuf_addr, ref.cqe_addr,
                                    ref.data_addr, 0)
            else:
                execute_bases(self.cpu, self.rx_exec, ref.meta_addr,
                              ref.mbuf_addr, ref.cqe_addr, ref.data_addr, 0)
            pkt.mbuf = ref
            out.append(pkt)
        if spans is not None:
            spans.pop()
        # Replenish the RX ring with as many buffers as were consumed
        # (topping up any deficit a previous allocation failure left).
        self._replenish_rx(self.cpu)
        return out

    # -- TX -----------------------------------------------------------------------

    def tx_burst(self, packets: List[Packet]) -> int:
        """Transmit a batch; returns the number of packets sent."""
        if not packets:
            return 0
        self.cpu.charge_compute(BURST_OVERHEAD_INSTRUCTIONS)
        injector = self.nic.faults
        blocked = injector is not None and injector.tx_blocked(self.nic.port)
        interpret = self._interpret
        sent = 0
        for pkt in packets:
            ref = pkt.mbuf
            if ref is None:
                raise ValueError("packet has no attached DPDK buffer")
            if blocked or self.nic.tx_ring.is_full():
                # TX backpressure: refuse the rest of the burst as counted
                # drops and let the driver loop kill the unsent packets.
                self.nic.counters.tx_full += len(packets) - sent
                break
            wqe_addr = self.nic.transmit(ref, len(pkt))
            if interpret:
                execute_interpreted(self.cpu, self.tx_exec, ref.meta_addr,
                                    ref.mbuf_addr, wqe_addr, ref.data_addr, 0)
            else:
                execute_bases(self.cpu, self.tx_exec, ref.meta_addr,
                              ref.mbuf_addr, wqe_addr, ref.data_addr, 0)
            ticket = pkt.qos_ticket
            if ticket is not None:
                # Transmitted: the frame leaves the ingress buffer.
                pkt.qos_ticket = None
                ticket[0].drain(ticket[1])
            sent += 1
        self.cpu.charge_ns(DOORBELL_NS)
        for ref in self.nic.reap_tx(TX_FREE_THRESHOLD):
            self.model.release(ref, self.cpu)
        return sent

    def drain_tx(self) -> None:
        """Release every in-flight TX buffer (end of run)."""
        for ref in self.nic.reap_tx(0):
            self.model.release(ref, self.cpu)

    def recover(self) -> None:
        """Watchdog recovery: reap all TX completions, refill the RX ring.

        This is the reset a stalled pipeline needs after a fault window
        closes -- buffers stuck on the TX ring go back to the pool, and
        the RX ring is topped up so polling can make progress again.
        """
        self.drain_tx()
        self._replenish_rx(self.cpu)


def build_pmd(
    nic: Nic,
    model: MetadataModel,
    cpu,
    space,
    params,
    lto: bool = False,
    registry: Optional[LayoutRegistry] = None,
) -> Tuple[MlxPmd, LayoutRegistry]:
    """Wire a model + NIC + core into a ready PMD.

    Returns the PMD and the layout registry used (shared with the element
    compiler so reordering passes see the same layouts).
    """
    if registry is None:
        registry = LayoutRegistry()
    model.setup(space, params)
    model.register_layouts(registry)
    pmd = MlxPmd(nic, model, cpu, registry, lto=lto)
    return pmd, registry
