"""The campaign telemetry hub.

A :class:`Telemetry` object is the single instrumentation surface every
campaign layer writes into: **counters** (query volume and cache
effectiveness, accumulated in memory and flushed as one event),
**spans** (named intervals stamped with the *simulated* clock — the
same clock that produces the paper's scan-duration figures), and
**progress events** (zones done / total).  The default is
:data:`NULL_TELEMETRY`, a :class:`NullTelemetry` whose every method is
a no-op, so instrumented hot paths cost one attribute load and a branch
when observability is off.

Determinism is the design invariant, mirroring the store's
byte-identical-results discipline: every emitted field is a pure
function of (seed, scale, config), timestamps come from simulated
clocks, and event sequence numbers count emissions per producer.  Two
campaigns at the same seed and scale therefore write byte-identical
event streams — telemetry is diffable across epochs exactly like
results.  Wall-clock time is the one exception and is *opt-in*
(``wall_clock=True`` adds a ``wall`` field); it is excluded from the
determinism contract.

One hub is one *session* of one stream (:mod:`repro.obs.events`):
events stream append-only into the producer's file once a sink is
bound (:meth:`Telemetry.open_sink`), or are appended in one go when the
session ends (:meth:`Telemetry.end_session`); campaigns without a store
keep them in memory on ``Telemetry.events``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.events import truncate_torn_tail

PROGRESS_EVERY = 100  # records between two progress events


class _NullSpan:
    """Context manager returned by :meth:`NullTelemetry.span`."""

    __slots__ = ()

    def __enter__(self) -> Dict[str, Any]:
        # A fresh dict so callers may attach fields unconditionally; it
        # is simply discarded.
        return {}

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTelemetry:
    """The zero-overhead default: every method is a no-op.

    Instrumented code gates per-record work on ``telemetry.enabled``;
    coarser call sites (once per zone, per checkpoint) may call methods
    directly — a no-op method call at that granularity is far below
    benchmark noise.
    """

    enabled = False
    on_heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None

    def _noop(self, *args, **kwargs) -> None:
        pass

    bind_clock = open_sink = end_session = _noop
    count = set_counters = flush_counters = capture_scanner = _noop
    event = maybe_progress = live = _noop

    def span(self, name: str, **fields) -> _NullSpan:
        return _NULL_SPAN


_NULL_SPAN = _NullSpan()

NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Collecting (and optionally streaming) telemetry hub.

    One hub observes one producer — the sequential campaign process, a
    parallel worker, or the parallel parent.  Counters accumulate in
    :attr:`counters` until :meth:`flush_counters` emits them as a
    single ``counters`` event (so the stream carries one deterministic
    totals record instead of per-query noise); spans and progress are
    emitted immediately.
    """

    enabled = True

    def __init__(self, clock=None, wall_clock: bool = False):
        self._clock = clock  # None until a simulated clock is bound: t = 0.0
        self.wall_clock = wall_clock
        self.counters: Dict[str, float] = {}
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._sink = None
        # Live-display callback for transient signals (worker heartbeats
        # observed by the parent).  Deliberately *not* persisted: what
        # the parent sees depends on process timing, and the event
        # stream must stay a pure function of the campaign config.
        self.on_heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None

    # -- wiring ------------------------------------------------------------

    def now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    def bind_clock(self, clock) -> None:
        """Attach the simulated clock that stamps events from now on."""
        self._clock = clock

    def open_sink(self, path: Path) -> None:
        """Stream events to *path* (append-only JSONL) from now on.

        Events already collected in memory are written first, so a hub
        may be created before its store exists; a torn last line left
        by a killed writer is cut before anything is appended.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sink = open(path, "a+b")
        truncate_torn_tail(self._sink)
        for event in self.events:
            self._write(event)

    def end_session(self, path: Optional[Path] = None) -> None:
        """Flush the counters and end this hub's session.

        A hub that never streamed appends everything it collected to
        *path* now — and creates nothing if it collected nothing.
        """
        self.flush_counters()
        if self._sink is None and path is not None and self.events:
            self.open_sink(path)
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- emission ----------------------------------------------------------

    def _write(self, event: Dict[str, Any]) -> None:
        self._sink.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
        self._sink.flush()

    def event(self, kind: str, **fields) -> None:
        """Emit one event (stamped with seq and the simulated clock)."""
        event: Dict[str, Any] = {"kind": kind, "seq": self._seq}
        if "t0" not in fields and "t1" not in fields:
            event["t"] = self.now()
        event.update(fields)
        if self.wall_clock:
            event["wall"] = time.time()
        self._seq += 1
        self.events.append(event)
        if self._sink is not None:
            self._write(event)

    @contextmanager
    def span(self, name: str, **fields):
        """Time a named interval on the simulated clock; whatever the
        caller puts in the yielded dict rides along on the span event
        (none is emitted if the block raises)::

            with telemetry.span("scan_zone", zone=name) as span:
                ...
                span["queries"] = used
        """
        t0 = self.now()
        yield fields
        self.event("span", name=name, t0=t0, t1=self.now(), **fields)

    def maybe_progress(self, done: int, total: Optional[int] = None) -> None:
        """Emit progress every :data:`PROGRESS_EVERY` records (and at
        the end, when *total* is known) — a deterministic cadence."""
        if done % PROGRESS_EVERY == 0 or done == total:
            self.event("progress", done=done, total=total)

    def live(self, **fields) -> None:
        """Forward a transient signal to :attr:`on_heartbeat`; never
        recorded (see the determinism note in ``__init__``)."""
        if self.on_heartbeat is not None:
            self.on_heartbeat(dict(fields))

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_counters(self, values: Mapping[str, float]) -> None:
        """Overwrite absolute counter values (snapshot-style sources)."""
        self.counters.update(values)

    def flush_counters(self) -> None:
        """Emit all accumulated counters as one ``counters`` event."""
        if self.counters:
            self.event("counters", counters=dict(sorted(self.counters.items())))

    # -- snapshot sources --------------------------------------------------

    def capture_scanner(self, scanner) -> None:
        """Absorb a :class:`Scanner`'s counters: its network, its three
        memo caches, the shared DNS cache, the rate limiter, and — when
        a chaos plane is installed — the retry loop and fault plane."""
        network = scanner.network
        self.set_counters(
            {
                "net.queries": network.queries_sent,
                "net.bytes_sent": network.bytes_sent,
                "net.bytes_received": network.bytes_received,
                "net.timeouts": network.timeouts,
                "net.truncations": network.truncations,
                "net.tcp_queries": network.tcp_queries,
                "scan.tcp_fallbacks": scanner.tcp_fallbacks,
                "cache.dns.hits": scanner.cache.hits,
                "cache.dns.misses": scanner.cache.misses,
                "cache.address.hits": scanner.address_cache_hits,
                "cache.address.misses": scanner.address_cache_misses,
                "cache.signal_zone.hits": scanner.signal_cache_hits,
                "cache.signal_zone.misses": scanner.signal_cache_misses,
                "cache.chain.hits": scanner.chain_cache_hits,
                "cache.chain.misses": scanner.chain_cache_misses,
                "ratelimit.waits": scanner.limiter.waits,
                "ratelimit.wait_seconds": round(scanner.limiter.total_wait_time, 6),
                "retry.attempts": scanner.retry_attempts,
                "retry.backoff_seconds": round(scanner.retry_backoff_seconds, 6),
                "retry.abandoned": scanner.retry_abandoned,
                "retry.resolver_attempts": scanner.resolver.retry_attempts,
                "retry.resolver_backoff_seconds": round(
                    scanner.resolver.retry_backoff_seconds, 6
                ),
            }
        )
        if getattr(scanner, "sched_tasks", 0):
            # Event-loop statistics (repro.sched): only present when the
            # scan ran with in_flight > 1, so serial streams are
            # byte-identical to pre-scheduler ones.
            self.set_counters(
                {
                    "sched.tasks": scanner.sched_tasks,
                    "sched.events": scanner.sched_events,
                    "sched.gate_waits": scanner.sched_gate_waits,
                    "sched.in_flight_peak": scanner.sched_in_flight_peak,
                    "sched.queue_peak": scanner.sched_queue_peak,
                }
            )
        wire_counters = getattr(network, "wire_counters", None)
        if wire_counters is not None:
            # Wire-transport statistics (repro.wire): only present when
            # the scan ran over real sockets, so simulated-fabric streams
            # stay byte-identical to pre-wire ones.
            self.set_counters(wire_counters())
        chaos = getattr(network, "chaos", None)
        if chaos is not None:
            self.set_counters(chaos.counters())


def as_telemetry(value) -> "Telemetry | NullTelemetry":
    """Normalise the public ``telemetry=`` argument.

    ``None``/``False`` → the shared :data:`NULL_TELEMETRY`; ``True`` →
    a fresh hub; a hub instance passes through unchanged.
    """
    if value is None or value is False:
        return NULL_TELEMETRY
    if value is True:
        return Telemetry()
    return value
