"""The scanner-facing wire transport.

:class:`WireNetwork` wraps a
:class:`~repro.server.network.SimulatedNetwork` and is a drop-in for it
on the scanner side of the fabric: the accounting, the fault plane, the
topology and the clock *are* the wrapped network's (one client prologue
and epilogue, :meth:`SimulatedNetwork.outbound` / ``inbound``) — only
the middle differs: the exchange crosses real loopback sockets through
the :class:`~repro.wire.engine.WireEngine`.  Dark IPs and injected
faults never touch the wire: the shared prologue raises
:class:`NetworkTimeout` (or answers in the server's place) exactly as on
the simulated fabric.

As the scan loop's socket back-end (:mod:`repro.sched`), :meth:`submit`
sends and parks the task; the engine's asyncio thread feeds finished
futures into one completion queue and :meth:`completions` hands the
tasks back in arrival order, so other zones keep scanning while a query
is on the wire.  A socket wait costs no simulated time; only the
prologue's faults and a real timeout move the clock.
"""

from __future__ import annotations

import collections
import functools
import threading
from typing import Callable, Deque, Dict, Iterator, Optional, Tuple

from repro.dns.message import Message
from repro.sched import Exchange, run_steps
from repro.server.network import SimulatedNetwork
from repro.wire.engine import WireEngine, WireTimeout
from repro.wire.fleet import WireFleet

#: How long a wait for the wire may last before the engine is declared
#: wedged (real seconds; generous — loopback answers in micros).
IO_WAIT_TIMEOUT = 30.0


def _lone(exchange: Exchange):
    return (yield exchange)


class WireNetwork:
    """Send the scanner's queries over real sockets to a live fleet."""

    def __init__(self, sim: SimulatedNetwork, engine: Optional[WireEngine] = None):
        self.sim = sim
        self.fleet = WireFleet(sim, engine=engine)
        self.engine = self.fleet.engine
        # The completion queue is the only structure touched by two
        # threads (the asyncio thread appends, the scan loop drains); a
        # deque plus an event keeps that boundary lock-free.
        self._completions: Deque[Tuple[object, Callable[[], Message]]] = collections.deque()
        self._io_event = threading.Event()
        # Surfaced as wire.* telemetry: exchanges that parked a task, and
        # times the loop had nothing to run but the wire to wait for.
        self.io_blocks = 0
        self.io_waits = 0

    def __getattr__(self, name):
        # Everything not defined here — clock, counters, chaos plane,
        # topology — is the wrapped network's.
        return getattr(self.sim, name)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WireNetwork":
        self.fleet.start()
        return self

    def close(self) -> None:
        self.fleet.close()

    def __enter__(self) -> "WireNetwork":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data plane --------------------------------------------------------

    def query(
        self,
        ip: str,
        query: Message,
        timeout: float = 2.0,
        tcp: bool = False,
        wire: Optional[bytes] = None,
    ) -> Message:
        """Send *query* to the endpoint serving simulated *ip* over a
        real socket; same contract as :meth:`SimulatedNetwork.query`
        (the exchange below, run as a lone task)."""
        return run_steps(self.clock, self, _lone(Exchange(ip, query, wire, tcp, timeout)))

    def _send(self, x: Exchange, asker: Optional[int]):
        """Client prologue, then the bytes onto the wire: a future of the
        response wire — or the wire itself when chaos answered."""
        sim = self.sim
        wire, _, response_wire = sim.outbound(x.ip, x.question, x.timeout, x.tcp, x.wire, asker)
        if response_wire is not None:
            return response_wire
        endpoint = self.fleet.endpoint(x.ip)
        if endpoint is None:
            raise sim.timed_out(x.timeout, f"{x.ip} is not hosted by the fleet")
        udp, stream = endpoint
        return self.engine.send_tcp(stream, wire) if x.tcp else self.engine.send_udp(udp, wire)

    def _land(self, x: Exchange, sent) -> Message:
        """Client epilogue on what :meth:`_send` returned (a future is done)."""
        if not isinstance(sent, bytes):
            try:
                sent = sent.result(timeout=0)
            except WireTimeout as exc:
                raise self.sim.timed_out(x.timeout, f"no response from {x.ip} on the wire") from exc
        return self.sim.inbound(sent)

    # -- the scan loop's back-end ------------------------------------------

    def submit(self, exchange: Exchange, task) -> Optional[Message]:
        """Send *exchange* for *task*.  Returns the response when it is
        already there (chaos answered, the future is done), else ``None``:
        the task is parked until :meth:`completions` hands it back."""
        sent = self._send(exchange, task.index)
        if isinstance(sent, bytes) or sent.done():
            return self._land(exchange, sent)
        self.io_blocks += 1
        # (The callback must not hold the future it hangs on: a cycle
        # would keep every response wire alive until the next full GC.)
        sent.add_done_callback(functools.partial(self._completed, task, exchange))
        return None

    def _completed(self, task, exchange: Exchange, future) -> None:
        # On the asyncio thread.
        self._completions.append((task, functools.partial(self._land, exchange, future)))
        self._io_event.set()

    def completions(self, block: bool) -> Iterator[Tuple[object, Callable[[], Message]]]:
        """``(task, land)`` for every parked exchange that has finished,
        in arrival order; with *block*, first wait for at least one."""
        if block and not self._completions:
            self.io_waits += 1
            if not self._io_event.wait(timeout=IO_WAIT_TIMEOUT):
                raise RuntimeError(
                    f"wire engine stalled: no completion in {IO_WAIT_TIMEOUT:.0f}s "
                    "with task(s) blocked on I/O"
                )
        # Clear before draining: a completion racing in after the drain
        # re-sets the event, so a later wait never sleeps over a full queue.
        self._io_event.clear()
        while self._completions:
            yield self._completions.popleft()

    # -- telemetry ---------------------------------------------------------

    def wire_counters(self) -> Dict[str, float]:
        """The ``wire.*`` counter snapshot (absolute totals)."""
        engine = self.engine.counters  # all totals but the in_flight gauge
        return {
            **{f"wire.{name}": engine[name] for name in engine if name != "in_flight"},
            "wire.queries": self.queries_sent,
            "wire.response_cache_hits": self.sim.response_cache_hits,
            "wire.servers_hosted": self.fleet.servers_hosted,
            "wire.io_blocks": self.io_blocks,
            "wire.io_waits": self.io_waits,
        }

    def __repr__(self) -> str:
        return (
            f"<WireNetwork servers={self.fleet.servers_hosted} "
            f"queries={self.queries_sent} timeouts={self.timeouts}>"
        )
