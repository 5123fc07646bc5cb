"""Authoritative DNS serving: answer logic, operator quirks, and transports.

Every exchange goes through one step,
:meth:`AuthoritativeServer.answer_wire` (query wire in, response wire or
silence out).  The scanner talks to
:class:`~repro.server.network.SimulatedNetwork` (an in-memory IP fabric)
by default, which calls that step directly; :mod:`repro.wire` puts the
same step on real localhost UDP/TCP sockets.
"""

from repro.server.nameserver import AuthoritativeServer
from repro.server.network import NetworkTimeout, SimulatedClock, SimulatedNetwork
from repro.server.behaviors import (
    AfternicParkingBehavior,
    DropQueriesBehavior,
    LegacyUnknownTypeBehavior,
    ServerBehavior,
    TransientFailureBehavior,
)

__all__ = [
    "AfternicParkingBehavior",
    "AuthoritativeServer",
    "DropQueriesBehavior",
    "LegacyUnknownTypeBehavior",
    "NetworkTimeout",
    "ServerBehavior",
    "SimulatedClock",
    "SimulatedNetwork",
    "TransientFailureBehavior",
]
