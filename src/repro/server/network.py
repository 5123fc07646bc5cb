"""In-memory network fabric connecting scanners to authoritative servers.

The fabric maps IP addresses to servers (many IPs may share one server —
that is precisely how anycast providers like Cloudflare appear from the
outside), moves whole wire-format messages, counts queries and bytes per
destination, and advances a simulated clock so that rate limiters behave
deterministically without real sleeping.

Failure injection is delegated to the chaos plane
(:mod:`repro.chaos`): install one with :meth:`SimulatedNetwork.install_chaos`
and every exchange is first offered to it — packet loss, brownouts,
SERVFAIL bursts, truncation storms, flaky TCP, and added latency, all
seeded and replayable.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.dns.message import (
    Message,
    Question,
    decode_received,
    make_response,
    received_before,
)
from repro.dns.types import Rcode
from repro.server.nameserver import AuthoritativeServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos import ChaosConfig, ChaosPlane


class NetworkTimeout(Exception):
    """No response arrived within the timeout (dropped or dark IP)."""


class SimulatedClock:
    """A virtual clock (seconds): a plain number that only code holding
    it moves.  The scan loop (:mod:`repro.sched`) sets it to the running
    task's local time before every slice, so with several zones in
    flight it reads each task's own timeline."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clock cannot go backwards")
        self._now += seconds


class SimulatedNetwork:
    """Registry of IP → server plus accounting and failure injection."""

    def __init__(self, clock: Optional[SimulatedClock] = None, query_cost: float = 0.0):
        self.clock = clock or SimulatedClock()
        self._servers: Dict[str, AuthoritativeServer] = {}
        self._dark: set[str] = set()
        self.query_cost = query_cost
        self.queries_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.timeouts = 0
        self.truncations = 0
        self.tcp_queries = 0
        self.per_ip_queries: Dict[str, int] = {}
        # The fault-injection plane (None = fault-free network).
        self.chaos: Optional["ChaosPlane"] = None
        # Responses that needed no parse (decode_received had them).
        self.decode_hits = 0

    @property
    def response_cache_hits(self) -> int:
        """Answers this network's servers served from a zone's memo, over
        every transport that hosts them."""
        servers = {id(server): server for server in self._servers.values()}
        return sum(server.memo_hits for server in servers.values())

    # -- failure injection -------------------------------------------------

    def install_chaos(self, config: "ChaosConfig") -> "ChaosPlane":
        """Attach a chaos plane driven by this network's clock."""
        from repro.chaos import ChaosPlane

        self.chaos = ChaosPlane(config, clock=self.clock)
        return self.chaos

    # -- topology ------------------------------------------------------------

    def register(self, ip: str, server: AuthoritativeServer) -> None:
        self._servers[ip] = server

    def register_dark(self, ip: str) -> None:
        """An address that never answers (unreachable host)."""
        self._dark.add(ip)

    def server_at(self, ip: str) -> Optional[AuthoritativeServer]:
        return self._servers.get(ip)

    def addresses(self) -> list[str]:
        return sorted(self._servers)

    # -- data plane --------------------------------------------------------------

    def query(
        self,
        ip: str,
        query: "Message | Question",
        timeout: float = 2.0,
        tcp: bool = False,
        wire: Optional[bytes] = None,
        asker: Optional[int] = None,
    ) -> Message:
        """Send *query* to *ip* and return the response message.

        The exchange is wire-accurate: the query is encoded and the
        response decoded, so codec bugs surface in integration tests the
        same way they would on a real socket.  UDP responses are subject
        to the EDNS payload limit and may come back truncated (TC bit);
        pass ``tcp=True`` to retry without the size limit (RFC 7766).
        Callers that ask the same question of many addresses may pass a
        pre-encoded *wire* to skip re-encoding — *query* may then be
        just the :class:`~repro.dns.message.Question` (all the fabric
        reads beside the bytes is the question, for the fault plane);
        the receiving side still decodes the actual bytes.  *asker*
        tells the fault plane which in-flight task is asking.
        Raises :class:`NetworkTimeout` for dark addresses, drop
        behaviours, and injected faults.
        """
        wire, server, response_wire = self.outbound(ip, query, timeout, tcp, wire, asker)
        if response_wire is None:
            response_wire = server.answer_wire(wire, tcp)
            if response_wire is None:
                raise self.timed_out(timeout, f"{ip} dropped the query")
        return self.inbound(response_wire)

    def submit(self, exchange, task) -> Message:
        """Back-end of the scan loop's exchange intent
        (:mod:`repro.sched`): the fabric answers on the spot, at the
        task's local time; the simulated time it spends on this clock is
        the task's resume time."""
        return self.query(
            exchange.ip, exchange.question, exchange.timeout, exchange.tcp, exchange.wire, task.index
        )

    # The scanner's half of an exchange, shared with the socket transport
    # (repro.wire.WireNetwork): only how the bytes travel differs.

    def outbound(
        self,
        ip: str,
        query: "Message | Question",
        timeout: float,
        tcp: bool,
        wire: Optional[bytes],
        asker: Optional[int] = None,
    ) -> Tuple[bytes, Optional[AuthoritativeServer], Optional[bytes]]:
        """Account for one outgoing query and offer it to the chaos plane.

        Returns ``(query wire, server at ip, response wire)``: the
        response wire is ``None`` unless chaos answered in the server's
        place (SERVFAIL burst, truncation storm).  Raises
        :class:`NetworkTimeout` for injected loss and for dark or
        unknown addresses.
        """
        if wire is None:
            wire = query.to_wire()
        self.queries_sent += 1
        if tcp:
            self.tcp_queries += 1
        self.bytes_sent += len(wire)
        self.per_ip_queries[ip] = self.per_ip_queries.get(ip, 0) + 1
        if self.query_cost:
            self.clock.advance(self.query_cost)
        if self.chaos is not None:
            question = query.question if isinstance(query, Message) else query
            decision = self.chaos.decide(
                ip,
                question.name.canonical_key() if question else b"",
                int(question.rrtype) if question else 0,
                tcp,
                asker,
            )
            if decision.latency:
                self.clock.advance(decision.latency)
            if decision.drop:
                raise self.timed_out(timeout, f"chaos {decision.kind}: packet to {ip} lost")
            if decision.servfail or decision.truncate:
                # Made from the decoded query and wire-round-tripped like
                # any real answer, so the accounting holds.
                decoded = decode_received(wire)
                if decision.servfail:
                    response = make_response(decoded, Rcode.SERVFAIL)
                else:
                    response = make_response(decoded)
                    response.truncated = True
                return wire, None, response.to_wire()
        server = self._servers.get(ip)
        if server is None or ip in self._dark:
            raise self.timed_out(timeout, f"no server listening at {ip}")
        return wire, server, None

    def inbound(self, response_wire: bytes) -> Message:
        """Account for and decode the bytes that came back.

        Decoding goes through :func:`~repro.dns.message.decode_received`:
        bytes already received in this process (less the message id), by
        this world or any other, are answered with a view of the Message
        decoded the first time, under the id this wire carries.  Replies
        are therefore shared between askers and must not be mutated.
        """
        self.bytes_received += len(response_wire)
        if received_before(response_wire):
            self.decode_hits += 1
        reply = decode_received(response_wire)
        if reply.truncated:
            self.truncations += 1
        return reply

    def timed_out(self, timeout: float, why: str) -> NetworkTimeout:
        """Count one timeout and spend it on the clock; the caller raises
        the returned exception."""
        self.timeouts += 1
        self.clock.advance(timeout)
        return NetworkTimeout(why)

    def __repr__(self) -> str:
        return (
            f"<SimulatedNetwork servers={len(self._servers)} "
            f"queries={self.queries_sent} timeouts={self.timeouts}>"
        )
