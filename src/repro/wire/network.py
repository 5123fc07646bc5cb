"""The scanner-facing wire transport.

:class:`WireNetwork` wraps a
:class:`~repro.server.network.SimulatedNetwork` and is a drop-in for it
on the scanner side of the fabric: the accounting, the fault plane, the
topology and the clock *are* the wrapped network's (one client prologue
and epilogue, :meth:`SimulatedNetwork.outbound` / ``inbound``) — only
the middle of :meth:`query` differs: the exchange crosses real loopback
sockets through the :class:`~repro.wire.engine.WireEngine`.

Inside a :class:`~repro.wire.bridge.WireLoop` task the blocking wait is
cooperative (the task parks on the socket future and other zones keep
scanning); outside any loop — serial scans, recheck passes, provisioning
verification — it is a plain blocking wait.  Dark IPs and injected
faults never touch the wire: the shared prologue raises
:class:`NetworkTimeout` (or answers in the server's place) exactly as on
the simulated fabric.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dns.message import Message
from repro.server.network import SimulatedNetwork
from repro.wire.bridge import IO_WAIT_TIMEOUT, ClockBridge, WireLoop
from repro.wire.engine import WireEngine, WireTimeout
from repro.wire.fleet import WireFleet


class WireNetwork:
    """Send the scanner's queries over real sockets to a live fleet."""

    def __init__(
        self,
        sim: SimulatedNetwork,
        engine: Optional[WireEngine] = None,
        time_scale: float = 0.0,
    ):
        self.sim = sim
        self.time_scale = time_scale
        self.fleet = WireFleet(sim, engine=engine)
        self.engine = self.fleet.engine
        # The most recent loop built by make_event_loop (its io_waits /
        # io_blocks feed the wire.* telemetry snapshot).
        self.last_loop: Optional[WireLoop] = None

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

    # -- scheduling --------------------------------------------------------

    def make_event_loop(self, clock, max_in_flight: int = 1, extra_clocks=()) -> WireLoop:
        """The scanner's event loop for this transport: a
        :class:`WireLoop` whose tasks park on socket futures."""
        loop = WireLoop(
            clock,
            max_in_flight=max_in_flight,
            extra_clocks=extra_clocks,
            bridge=ClockBridge(self.time_scale, now=self.engine.loop_time),
            engine=self.engine,
        )
        self.last_loop = loop
        return loop

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
        real socket; same contract as :meth:`SimulatedNetwork.query`."""
        sim = self.sim
        wire, _, response_wire = sim.outbound(ip, query, timeout, tcp, wire)
        if response_wire is None:
            endpoint = self.fleet.endpoint(ip)
            if endpoint is None:
                raise sim.timed_out(timeout, f"{ip} is not hosted by the fleet")
            udp, stream = endpoint
            future = self.engine.send_tcp(stream, wire) if tcp else self.engine.send_udp(udp, wire)
            try:
                response_wire = self._wait(future)
            except WireTimeout as exc:
                raise sim.timed_out(timeout, f"no response from {ip} on the wire") from exc
        return sim.inbound(response_wire)

    def _wait(self, future) -> bytes:
        scheduler = self.sim.clock.scheduler
        if isinstance(scheduler, WireLoop) and scheduler.current_task is not None:
            return scheduler.task_block_io(future)
        return future.result(timeout=IO_WAIT_TIMEOUT)

    # -- telemetry ---------------------------------------------------------

    def wire_counters(self) -> Dict[str, float]:
        """The ``wire.*`` counter snapshot (absolute totals)."""
        c = self.engine.counters
        snapshot = {
            "wire.queries": self.queries_sent,
            "wire.in_flight_peak": c["in_flight_peak"],
            "wire.batches": c["batches"],
            "wire.batched_queries": c["batched_queries"],
            "wire.batch_peak": c["batch_peak"],
            "wire.socket_errors": c["socket_errors"],
            "wire.demux_misses": c["demux_misses"],
            "wire.decode_errors": c["decode_errors"],
            "wire.wall_timeouts": c["wall_timeouts"],
            "wire.response_cache_hits": self.sim.response_cache_hits,
            "wire.servers_hosted": self.fleet.servers_hosted,
        }
        loop = self.last_loop
        if loop is not None:
            snapshot["wire.io_blocks"] = loop.io_blocks
            snapshot["wire.io_waits"] = loop.io_waits
        return snapshot

    def __repr__(self) -> str:
        return (
            f"<WireNetwork servers={self.fleet.servers_hosted} "
            f"queries={self.queries_sent} timeouts={self.timeouts}>"
        )
