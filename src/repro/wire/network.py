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
sends and parks the task, and :meth:`completions` *is* the socket
service: an engine pass on the scan loop's own thread (no wait while
other tasks can run, until something lands otherwise) that hands back
the tasks whose queries settled.  A socket wait costs no simulated time;
only the prologue's faults and a real timeout move the clock.
"""

from __future__ import annotations

import functools
from time import monotonic
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.dns.message import Message
from repro.sched import Exchange, run_steps
from repro.server.network import SimulatedNetwork
from repro.wire.engine import WireEngine, WireTimeout
from repro.wire.fleet import WireFleet

#: Real seconds a wait for the wire may last before the engine is declared
#: wedged (a lost datagram settles at the engine's shorter wall timeout).
IO_WAIT_TIMEOUT = 30.0


def _lone(exchange: Exchange):
    return (yield exchange)


class WireNetwork:
    """Send the scanner's queries over real sockets to a live fleet."""

    def __init__(self, sim: SimulatedNetwork, engine: Optional[WireEngine] = None):
        self.sim = sim
        self.fleet = WireFleet(sim, engine=engine)
        self.engine = self.fleet.engine
        # Surfaced as wire.* telemetry: exchanges that parked a task, and
        # times the loop had nothing to run but the wire to wait for.
        self.io_blocks = 0
        self.io_waits = 0

    def __getattr__(self, name):
        # Everything not defined here — clock, counters, chaos plane,
        # topology — is the wrapped network's.
        return getattr(self.sim, name)

    def start(self) -> "WireNetwork":
        self.fleet.start()
        return self

    def close(self) -> None:
        self.engine.close()

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
        """Client prologue, then the bytes onto the wire: the engine's
        pending handle — or the response wire itself when chaos answered."""
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
        """Client epilogue on what :meth:`_send` returned (a handle is settled)."""
        if not isinstance(sent, bytes):
            try:
                sent = sent.result()
            except WireTimeout as exc:
                raise self.sim.timed_out(x.timeout, f"no response from {x.ip} on the wire") from exc
        return self.sim.inbound(sent)

    # -- the scan loop's back-end ------------------------------------------

    def submit(self, exchange: Exchange, task) -> Optional[Message]:
        """Send *exchange* for *task*.  Returns the response when it is
        already there (chaos answered, the send settled at once), else
        ``None``: the task is parked until :meth:`completions` has it."""
        sent = self._send(exchange, task.index)
        if isinstance(sent, bytes) or sent.done:
            return self._land(exchange, sent)
        self.io_blocks += 1
        sent.tag = (task, exchange)
        return None

    def completions(self, block: bool) -> Iterator[Tuple[object, Callable[[], Message]]]:
        """Run one engine pass, then ``(task, land)`` for every parked
        exchange that has settled, in settling order; with *block*, keep
        passing until at least one has."""
        engine = self.engine
        settled = engine.settled
        if block and not settled:
            self.io_waits += 1
            give_up = monotonic() + IO_WAIT_TIMEOUT
            while not settled:
                left = give_up - monotonic()
                if left <= 0:
                    raise RuntimeError(
                        f"wire engine stalled: no completion in {IO_WAIT_TIMEOUT:.0f}s"
                    )
                engine.pump(left)
        else:
            engine.pump(0)
        while settled:
            sent = settled.popleft()
            task, exchange = sent.tag
            yield task, functools.partial(self._land, exchange, sent)

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
