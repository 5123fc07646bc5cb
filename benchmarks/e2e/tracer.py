"""Layer-boundary spans for the traced benchmark run.

Every span is recorded from *outside* the program: :class:`Tracer` wraps
the public functions named in :data:`TARGETS` (resolved by dotted path at
run time) and rebinds each ``repro.*`` module-level alias of a wrapped
function, so ``src/`` carries no tracing code.  A target that no longer
resolves is counted in ``unresolved`` and its metrics read ``None`` — a
refactor can break a metric, never the benchmark.

A span is ``(target, start, end, span id, parent, thread)``.  A layer's
*self* time is its spans' duration minus the part their child spans
cover, summed per thread, so nothing is counted twice.  It is kept on two
clocks: wall, and the thread's CPU clock (*busy* time), because a scan
task that waits for the scheduler's baton or for a socket does so inside
a resolver or scanner span and must not read as that layer's work.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

#: Raw spans kept for ``<workload>.trace.json``; aggregates are exact
#: regardless (a campaign unit alone makes ~10^5 spans).
MAX_RAW_SPANS = 50_000


class Target(NamedTuple):
    layer: str  # src/repro/<layer>
    key: str  # aggregate the spans fold into, unique within the layer
    path: str  # "module:attr" or "module:Class.attr"
    # What one call adds to ``Stat.items``, from (args, result); generators
    # add one per item they yield instead.
    weigh: Optional[Callable[[tuple, Any], int]] = None
    keep: bool = False  # keep args[0] (the instance) so public counters can be read


def _wire_bytes(args, result) -> int:
    return len(args[1]) if len(args) > 1 else 0  # Message.from_wire(cls, data)


def _zones_scanned(args, result) -> int:
    return result.total_scanned  # AnalysisPipeline.analyze(...) -> AnalysisReport


TARGETS: List[Target] = [
    Target("ecosystem", "build_world", "repro.ecosystem.world:build_world"),
    Target("ecosystem", "replay", "repro.monitor.events:apply_epoch"),
    Target("ecosystem", "replay", "repro.ecosystem.mutate:bootstrap_zone"),
    Target("dns", "from_wire", "repro.dns.message:Message.from_wire", weigh=_wire_bytes),
    Target("dns", "to_wire", "repro.dns.message:Message.to_wire"),
    Target("dnssec", "validate", "repro.dnssec.validator:validate_rrset"),
    Target("dnssec", "validate", "repro.dnssec.validator:validate_chain_link"),
    Target("dnssec", "sign", "repro.dnssec.signer:sign_rrset"),
    Target("server", "fabric", "repro.server.network:SimulatedNetwork.query", keep=True),
    Target("server", "handle", "repro.server.nameserver:AuthoritativeServer.handle_query"),
    Target("resolver", "resolve", "repro.resolver.iterative:IterativeResolver.resolve"),
    Target("resolver", "resolve", "repro.resolver.iterative:IterativeResolver.find_delegation"),
    Target("resolver", "resolve", "repro.resolver.iterative:IterativeResolver.resolve_addresses"),
    Target("scanner", "scan_zone", "repro.scanner.yodns:Scanner.scan_zone", keep=True),
    Target("wire", "fleet_start", "repro.wire.network:WireNetwork.start", keep=True),
    Target("wire", "query_wait", "repro.wire.network:WireNetwork.query"),
    Target("store", "write", "repro.store.checkpoint:CampaignStore.create"),
    Target("store", "append", "repro.store.checkpoint:CampaignStore.append"),
    Target("store", "checkpoint", "repro.store.checkpoint:CampaignStore.checkpoint"),
    Target("store", "write", "repro.store.checkpoint:CampaignStore.complete"),
    Target("store", "read", "repro.store.reader:StoreReader.iter_results"),
    Target("core", "analyze", "repro.core.pipeline:AnalysisPipeline.analyze", weigh=_zones_scanned),
    Target("reports", "render", "repro.reports.table1:compute_table1"),
    Target("reports", "render", "repro.reports.table1:render_table1"),
    Target("reports", "render", "repro.reports.table2:compute_table2"),
    Target("reports", "render", "repro.reports.table2:render_table2"),
    Target("reports", "render", "repro.reports.table3:compute_table3"),
    Target("reports", "render", "repro.reports.table3:render_table3"),
    Target("reports", "render", "repro.reports.figure1:compute_figure1"),
    Target("reports", "render", "repro.reports.figure1:render_figure1"),
    Target("query", "index", "repro.query.snapshot:build_index"),
    Target("query", "service_open", "repro.query.service:QueryService.__init__"),
    Target("query", "lookup", "repro.query.service:QueryService.zone_status"),
    Target("query", "lookup_miss", "repro.query.service:QueryService._lookup"),
    Target("monitor", "run_epoch", "repro.monitor.plane:Monitor.run_epoch"),
    Target("monitor", "world_at_epoch", "repro.monitor.timeline:world_at_epoch"),
    Target("agent", "run", "repro.agent.plane:Agent.run"),
]

#: Layers of the share table, in pipeline order.  ``sched`` has no span
#: of its own (its hand-offs are lock waits inside other spans); it is
#: described by the scanner's public ``sched_*`` counters instead.
LAYERS = [
    "ecosystem", "dns", "dnssec", "server", "resolver", "scanner", "sched",
    "wire", "store", "core", "reports", "query", "monitor", "agent",
]  # fmt: skip


class Stat:
    """What the spans of one (layer, key) add up to.

    ``self_s`` is wall time not covered by child spans; ``busy_s`` is the
    same on the thread's CPU clock, so time a task spent parked (on the
    scheduler's baton, on a socket) counts as waiting, not as work.
    """

    __slots__ = ("calls", "total_s", "self_s", "busy_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.items = 0

    def add(self, other: "Stat") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _ThreadState:
    __slots__ = ("stack", "stats", "thread")

    def __init__(self, thread: int):
        # frames: [child wall, child cpu, span id, wall start, cpu start]
        self.stack: List[list] = []
        self.stats: Dict[tuple, Stat] = {}
        self.thread = thread


def _resolve(path: str):
    """``(owner, name, raw attribute)`` for a dotted target path."""
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Tracer:
    """Install/uninstall the span wrappers and fold what they record."""

    def __init__(self, targets: Optional[List[Target]] = None, alias_modules=()):
        self.targets = list(TARGETS if targets is None else targets)
        # Modules outside ``repro`` that hold aliases of wrapped functions
        # (the harness imports the report renderers by name).
        self.alias_modules = tuple(alias_modules)
        self.unresolved: List[str] = []
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.kept: Dict[tuple, Dict[int, Any]] = {}
        self._states: List[_ThreadState] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[tuple] = []  # (owner, name, original attr, original fn, wrapper)
        self.active = False
        self._span_ids = itertools.count()

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _open(self, state) -> list:
        frame = [0.0, 0.0, next(self._span_ids), 0.0, 0.0]
        state.stack.append(frame)
        frame[4] = time.thread_time()
        frame[3] = time.perf_counter()
        return frame

    def _close(self, state, index, target, frame, weight) -> None:
        end = time.perf_counter()
        cpu = time.thread_time() - frame[4]
        child_wall, child_cpu, span, start, _ = frame
        duration = end - start
        stack = state.stack
        stack.pop()
        stat = state.stats.get((target.layer, target.key))
        if stat is None:
            stat = state.stats[(target.layer, target.key)] = Stat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - child_wall
        stat.busy_s += cpu - child_cpu
        stat.items += weight
        parent = -1
        if stack:
            stack[-1][0] += duration
            stack[-1][1] += cpu
            parent = stack[-1][2]
        if len(self.spans) < MAX_RAW_SPANS:
            self.spans.append((index, start, end, span, parent, state.thread))
        else:
            self.spans_dropped += 1

    def _wrap(self, index: int, target: Target, fn):
        tracer = self
        kept = self.kept.setdefault((target.layer, target.key), {}) if target.keep else None
        weigh = target.weigh

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if kept is not None:
                kept.setdefault(id(args[0]), args[0])
            state = tracer._state()
            weight = 0
            frame = tracer._open(state)
            try:
                result = fn(*args, **kwargs)
                if weigh is not None:
                    weight = weigh(args, result)
                return result
            finally:
                tracer._close(state, index, target, frame, weight)

        def generator_wrapper(*args, **kwargs):
            # Time spent inside each next(): the consumer's work between
            # two items belongs to the consumer's span, not the reader's.
            iterator = fn(*args, **kwargs)
            if not tracer.active:
                yield from iterator
                return
            state = tracer._state()
            while True:
                got = 0
                frame = tracer._open(state)
                try:
                    item = next(iterator)
                    got = 1
                except StopIteration:
                    return
                finally:
                    tracer._close(state, index, target, frame, got)
                yield item

        chosen = generator_wrapper if inspect.isgeneratorfunction(fn) else wrapper
        chosen.__name__ = getattr(fn, "__name__", "wrapped")
        chosen.__wrapped__ = fn
        return chosen

    # -- install / uninstall -----------------------------------------------

    def _rebind_aliases(self, old, new) -> None:
        """Point every ``repro.*`` module-level name bound to *old* at *new*."""
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.") or name in self.alias_modules
            ):
                continue
            namespace = vars(module)
            for attr in [a for a, value in namespace.items() if value is old]:
                namespace[attr] = new

    def _resolved(self) -> Iterator[tuple]:
        """``(index, target, owner, name, raw attribute, function)`` of each
        target that resolves; the others are listed in :attr:`unresolved`."""
        self.unresolved = []
        for index, target in enumerate(self.targets):
            try:
                owner, name, raw = _resolve(target.path)
            except (ImportError, AttributeError):
                self.unresolved.append(target.path)
                continue
            fn = getattr(raw, "__func__", raw)
            if callable(fn):
                yield index, target, owner, name, raw, fn
            else:
                self.unresolved.append(target.path)

    def resolve_all(self) -> List[str]:
        """Paths of targets that do not resolve to a callable (no side effects)."""
        for _ in self._resolved():
            pass
        return self.unresolved

    def install(self) -> None:
        for index, target, owner, name, raw, fn in self._resolved():
            wrapper = self._wrap(index, target, fn)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, name, type(raw)(wrapper))
            else:
                setattr(owner, name, wrapper)
                if not isinstance(owner, type):
                    self._rebind_aliases(fn, wrapper)
            self._installed.append((owner, name, raw, fn, wrapper))

    def uninstall(self) -> None:
        for owner, name, raw, fn, wrapper in reversed(self._installed):
            setattr(owner, name, raw)
            if not isinstance(owner, type):
                self._rebind_aliases(wrapper, fn)
        self._installed = []

    @contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block; they record
        while :attr:`active` is set (the unit's timed phases set it)."""
        self.install()
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # -- folding -----------------------------------------------------------

    def unresolved_keys(self) -> set:
        """(layer, key) pairs with at least one unresolved target."""
        paths = set(self.unresolved)
        return {(t.layer, t.key) for t in self.targets if t.path in paths}

    def stats(self) -> Dict[tuple, Stat]:
        merged: Dict[tuple, Stat] = {}
        for state in self._states:
            for key, stat in state.stats.items():
                merged.setdefault(key, Stat()).add(stat)
        return merged

    def layer_busy_seconds(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), stat in self.stats().items():
            totals[layer] = totals.get(layer, 0.0) + stat.busy_s
        return totals

    def drop_kept(self) -> None:
        for objects in self.kept.values():
            objects.clear()

    def dump(self) -> Dict[str, Any]:
        """The JSON body of ``<workload>.trace.json``."""
        origin = min((span[1] for span in self.spans), default=0.0)
        return {
            "targets": [
                {"id": i, "layer": t.layer, "key": t.key, "path": t.path}
                for i, t in enumerate(self.targets)
            ],
            "span_fields": ["target", "start_s", "end_s", "span", "parent", "thread"],
            "spans": [
                [index, round(start - origin, 7), round(end - origin, 7), span, parent, thread]
                for index, start, end, span, parent, thread in self.spans
            ],
            "spans_dropped": self.spans_dropped,
            "unresolved": self.unresolved,
        }
