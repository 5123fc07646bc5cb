"""The authoritative fleet on real sockets.

A :class:`WireFleet` takes the IP → server topology of a
:class:`~repro.server.network.SimulatedNetwork` and hosts every
*unique* :class:`~repro.server.nameserver.AuthoritativeServer` on one
UDP and one TCP loopback endpoint of the shared
:class:`~repro.wire.engine.WireEngine` selector (bound and registered
on the spot: starting a fleet is a plain loop).  Anycast is preserved by
construction: the many simulated IPs that share one server object all
map to the same socket pair, exactly as the provider's single real
deployment would answer them.  Each endpoint runs the server's
:meth:`~repro.server.nameserver.AuthoritativeServer.answer_wire`, so the
fabric and the sockets answer from one step and one memo per zone.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.server.network import SimulatedNetwork
from repro.wire.engine import WireEngine


class WireFleet:
    """Every unique authoritative server of a world, live on loopback."""

    def __init__(self, network: SimulatedNetwork, engine: Optional[WireEngine] = None):
        self.network = network
        self.engine = engine or WireEngine()
        # sim IP -> ((udp host, udp port), (tcp host, tcp port)).
        self._endpoints: Dict[str, Tuple[Tuple[str, int], Tuple[str, int]]] = {}
        self.servers_hosted = 0

    def start(self) -> "WireFleet":
        if self._endpoints:  # started already
            return self
        self.engine.start()
        by_server: Dict[int, Tuple[Tuple[str, int], Tuple[str, int]]] = {}
        # Sorted addresses so port assignment is reproducible run-to-run
        # given the same ephemeral-port state (and deterministic in count).
        for ip in self.network.addresses():
            server = self.network.server_at(ip)
            pair = by_server.get(id(server))
            if pair is None:
                pair = by_server[id(server)] = (
                    self.engine.serve_udp(server.answer_wire),
                    self.engine.serve_tcp(server.answer_wire),
                )
                self.servers_hosted += 1
            self._endpoints[ip] = pair
        return self

    def endpoint(self, ip: str) -> Optional[Tuple[Tuple[str, int], Tuple[str, int]]]:
        """The (udp, tcp) socket addresses serving simulated *ip*, or
        None for an address that had no server when the fleet started."""
        return self._endpoints.get(ip)
