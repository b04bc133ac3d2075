"""Purity checker: every pure_process claim is machine-checked."""

import pytest

from repro.analyze import PurityError, check_graph_purity, check_purity
from repro.click.element import Element, register
from repro.click.graph import ProcessingGraph
from repro.compiler.ir import Compute, DataAccess, Program, StateAccess
from repro.core import nfs
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec import cache as exec_cache
from repro.hw.params import MachineParams

pytestmark = pytest.mark.analyze


@pytest.fixture(autouse=True)
def fresh_caches():
    exec_cache.reset_caches()
    yield
    exec_cache.reset_caches()


@register
class _ImpureClassifierForTest(Element):
    """Deliberately impure element carrying a FALSE purity annotation:
    its IR admits a per-packet state write the fast path would skip."""

    class_name = "ImpureClassifierForTest"
    pure_process = True  # the lie under test

    def process(self, pkt):
        return 0

    def route_signature(self, pkt):
        return 0

    def ir_program(self) -> Program:
        return Program(self.name, [
            DataAccess(12, 2),
            StateAccess(0, 8, write=True),  # hidden per-packet counter
            Compute(4),
        ])


IMPURE_CONFIG = (
    "input :: FromDPDKDevice(PORT 0);"
    "output :: ToDPDKDevice(PORT 0);"
    "x :: ImpureClassifierForTest;"
    "input -> x -> output;"
)


def test_every_shipped_pure_annotation_is_sound():
    for name, config in {
        "forwarder": nfs.forwarder(),
        "router": nfs.router(),
        "ids-router": nfs.ids_router(),
        "nat-router": nfs.nat_router(),
    }.items():
        graph = ProcessingGraph.from_text(config)
        for element in graph.all_elements():
            assert check_purity(element) == [], (name, element.name)


def test_unannotated_elements_trivially_pass():
    graph = ProcessingGraph.from_text(nfs.router())
    rt = graph.element("rt")
    assert not getattr(rt, "pure_process", False)
    assert check_purity(rt) == []


def test_false_annotation_is_rejected():
    graph = ProcessingGraph.from_text(IMPURE_CONFIG)
    findings = check_graph_purity(graph)
    assert [f.rule for f in findings] == ["purity-state-write"]
    assert findings[0].subject == "x"


def test_missing_route_signature_is_rejected():
    class _NoSignature(_ImpureClassifierForTest):
        route_signature = None

        def ir_program(self):
            return Program(self.name, [Compute(4)])

    element = _NoSignature("y")
    assert [f.rule for f in check_purity(element)] == ["purity-no-signature"]


def test_fast_path_refuses_to_engage_on_false_annotation(monkeypatch):
    monkeypatch.setenv("REPRO_ROUTE_MEMO", "1")
    mill = PacketMill(IMPURE_CONFIG, BuildOptions.vanilla(),
                      params=MachineParams().at_frequency(2.3))
    with pytest.raises(PurityError, match="'x' claims pure_process"):
        mill.build()


def test_build_succeeds_with_fast_path_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_ROUTE_MEMO", "0")
    mill = PacketMill(IMPURE_CONFIG, BuildOptions.vanilla(),
                      params=MachineParams().at_frequency(2.3))
    binary = mill.build()
    assert not binary.driver.fastpath
