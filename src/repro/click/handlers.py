"""Click's handler mechanism: named read/write hooks on live elements.

Every Click element exposes *handlers* -- ``counter.count``,
``queue.length``, ``rt.lookup`` -- that operators read and write at run
time (via ControlSocket in real deployments).  This module provides the
registry and a :class:`HandlerBroker` that resolves ``element.handler``
paths on a built graph, which the examples and tests use to inspect
running network functions.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.click.graph import ProcessingGraph
from repro.telemetry.registry import is_glob


class HandlerError(KeyError):
    """Unknown element or handler, or wrong access direction."""


def _format_xstats(snap: Dict[str, object]) -> str:
    """Render an xstats mapping one ``name: value`` per line.

    An empty mapping reads ``(unbound)`` -- the element has neither a
    telemetry scope nor (for I/O elements) a bound port.
    """
    if not snap:
        return "(unbound)"
    lines = []
    for name in sorted(snap):
        value = snap[name]
        if isinstance(value, float) and not value.is_integer():
            lines.append("%s: %.1f" % (name, value))
        else:
            lines.append("%s: %d" % (name, value))
    return "\n".join(lines)


@dataclass(frozen=True)
class Handler:
    """One named hook on an element class."""

    name: str
    read: Optional[Callable] = None   # (element) -> str
    write: Optional[Callable] = None  # (element, value_str) -> None

    @property
    def readable(self) -> bool:
        return self.read is not None

    @property
    def writable(self) -> bool:
        return self.write is not None


def _common_handlers(element) -> Dict[str, Handler]:
    handlers = {
        "class": Handler("class", read=lambda e: e.decl.class_name),
        "name": Handler("name", read=lambda e: e.name),
        "config": Handler("config", read=lambda e: e.decl.config),
        "ports": Handler(
            "ports",
            read=lambda e: "%d inputs, %d outputs" % (e.n_inputs, e.n_outputs),
        ),
        # Uniform across every element class: whatever the telemetry
        # registry holds for this element (drops, errors, attributed
        # cycles and cache events), plus -- on I/O elements -- the bound
        # port's hardware counters.  See Element.xstats().
        "xstats": Handler("xstats", read=lambda e: _format_xstats(e.xstats())),
    }
    return handlers


def _class_handlers(element) -> Dict[str, Handler]:
    """Per-class handlers, mirroring the real elements' handler sets."""
    cls = element.decl.class_name
    handlers: Dict[str, Handler] = {}

    def add(name, read=None, write=None):
        handlers[name] = Handler(name, read=read, write=write)

    if cls in ("Counter", "AverageCounter"):
        add("count", read=lambda e: str(e.packets))
        add("byte_count", read=lambda e: str(e.bytes))
        add("reset", write=lambda e, v: e.reset())
        if cls == "AverageCounter":
            add("average_length", read=lambda e: "%.1f" % e.average_length())
    elif cls in ("Queue", "RatedQueue"):
        add("length", read=lambda e: str(e.occupancy))
        add("capacity", read=lambda e: str(e.param("capacity")))
        add("drops", read=lambda e: str(e.overflows))
        if cls == "RatedQueue":
            add("rate", read=lambda e: str(e.param("rate")))
    elif cls == "PFCPause":
        add("port", read=lambda e: str(e.param("port")))
        add("paused", read=lambda e: "" if e._pool is None else "/".join(
            str(p) for p in sorted(e._pool.paused_priorities())))
    elif cls == "Discard":
        add("count", read=lambda e: str(e.discarded))
    elif cls in ("CheckIPHeader", "CheckTCPHeader", "CheckUDPHeader", "CheckICMPHeader"):
        add("count", read=lambda e: str(e.checked))
        add("bad", read=lambda e: str(e.bad))
    elif cls == "DecIPTTL":
        add("expired", read=lambda e: str(e.expired))
    elif cls == "IPRewriter":
        add("mappings", read=lambda e: str(e.table.entries))
        add("new_flows", read=lambda e: str(e.new_flows))
        add("rewrites", read=lambda e: str(e.rewrites))
    elif cls == "RadixIPLookup":
        add("nroutes", read=lambda e: str(e.trie.n_routes))
        add("misses", read=lambda e: str(e.misses))
        add(
            "lookup",
            read=None,
            write=None,
        )
    elif cls == "VLANEncap":
        add("count", read=lambda e: str(e.encapsulated))
        add("vlan_tci", read=lambda e: str(e.param("vlan_tci")))
    elif cls == "ARPResponder":
        add("replies", read=lambda e: str(e.replies))
    elif cls == "WorkPackage":
        add("processed", read=lambda e: str(e.processed))
        add("footprint", read=lambda e: str(e.footprint_bytes))
    elif cls == "Print":
        add("lines", read=lambda e: "\n".join(e.lines))
    elif cls in ("FromDPDKDevice", "ToDPDKDevice"):
        # Named shortcuts into rte_eth_stats on the bound port (the full
        # dump is the uniform xstats handler every element now has).  The
        # PMD is attached at build time; before that these read as zeros.
        def _nic_counter(e, name):
            return str(e.xstats().get(name, 0))

        if cls == "FromDPDKDevice":
            add("rx_nombuf", read=lambda e: _nic_counter(e, "rx_nombuf"))
            add("imissed", read=lambda e: _nic_counter(e, "imissed"))
            add("rx_errors", read=lambda e: _nic_counter(e, "rx_errors"))
        else:
            add("tx_full", read=lambda e: _nic_counter(e, "tx_full"))
    handlers = {k: v for k, v in handlers.items() if v.readable or v.writable}
    return handlers


#: Virtual handler prefix exposing the process-wide execution caches
#: (build/trace/point memoization) alongside the per-element
#: handlers.
EXEC_CACHE_PREFIX = "exec.cache."


def _exec_cache_counters() -> Dict[str, int]:
    from repro.exec import cache as exec_cache

    return exec_cache.stats()


#: The virtual (process-wide) namespaces served by every broker:
#: prefix -> snapshot provider.
VIRTUAL_NAMESPACES = (
    (EXEC_CACHE_PREFIX, _exec_cache_counters),
)


class HandlerBroker:
    """Resolve and call ``element.handler`` paths on a live graph."""

    def __init__(self, graph: ProcessingGraph):
        self.graph = graph

    def _split(self, path: str):
        if "." not in path:
            raise HandlerError("handler path must be 'element.handler': %r" % path)
        element_name, handler_name = path.rsplit(".", 1)
        try:
            element = self.graph.element(element_name)
        except KeyError:
            raise HandlerError("no element named %r" % element_name) from None
        handlers = self._handlers_of(element)
        try:
            handler = handlers[handler_name]
        except KeyError:
            raise HandlerError(
                "element %r (%s) has no handler %r; available: %s"
                % (element_name, element.decl.class_name, handler_name,
                   ", ".join(sorted(handlers)))
            ) from None
        return element, handler

    def _handlers_of(self, element) -> Dict[str, Handler]:
        handlers = dict(_common_handlers(element))
        handlers.update(_class_handlers(element))
        return handlers

    def read(self, path: str) -> str:
        """Read one handler -- or every handler matching a glob.

        ``broker.read("*.count")`` returns the matching readable
        handlers as ``element.handler: value`` lines, in element order.
        """
        if is_glob(path):
            matches = self.read_many(path)
            if not matches:
                raise HandlerError("no readable handler matches %r" % path)
            return "\n".join(
                "%s: %s" % (full, value) for full, value in matches.items()
            )
        for prefix, snapshot in VIRTUAL_NAMESPACES:
            if path.startswith(prefix):
                counters = snapshot()
                name = path[len(prefix):]
                if name not in counters:
                    raise HandlerError(
                        "no %s counter %r; available: %s"
                        % (prefix.rstrip("."), name,
                           ", ".join(sorted(counters)))
                    )
                return str(counters[name])
        element, handler = self._split(path)
        if not handler.readable:
            raise HandlerError("handler %r is not readable" % path)
        return handler.read(element)

    def read_many(self, pattern: str) -> Dict[str, str]:
        """Glob read: ``{element.handler: value}`` for readable matches."""
        out: Dict[str, str] = {}
        for prefix, snapshot in VIRTUAL_NAMESPACES:
            counters = snapshot()
            for cname in sorted(counters):
                full = prefix + cname
                if fnmatchcase(full, pattern):
                    out[full] = str(counters[cname])
        for name in sorted(self.graph.elements):
            element = self.graph.elements[name]
            for hname, handler in sorted(self._handlers_of(element).items()):
                full = "%s.%s" % (name, hname)
                if handler.readable and fnmatchcase(full, pattern):
                    out[full] = handler.read(element)
        return out

    def write(self, path: str, value: str = "") -> None:
        element, handler = self._split(path)
        if not handler.writable:
            raise HandlerError("handler %r is not writable" % path)
        handler.write(element, value)

    def list_handlers(self, element_name: str):
        return sorted(self._handlers_of(self.graph.element(element_name)))

    def dump(self) -> str:
        """A flatconfig-style dump of every element's readable handlers.

        Multi-line values (the xstats blocks) are left to explicit reads
        to keep the dump one entry per line.
        """
        lines = []
        for name in sorted(self.graph.elements):
            element = self.graph.elements[name]
            lines.append("%s :: %s" % (name, element.decl.class_name))
            handlers = self._handlers_of(element)
            for hname in sorted(handlers):
                handler = handlers[hname]
                if (handler.readable
                        and hname not in ("class", "name", "config", "xstats")):
                    lines.append("  %s: %s" % (hname, handler.read(element)))
        return "\n".join(lines)
