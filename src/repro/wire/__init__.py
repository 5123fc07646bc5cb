"""repro.wire — the wire engine: one thread, one selector.

The simulated fabric (:mod:`repro.server.network`) moves wire-format
messages through memory; this package moves the *same bytes* through
real loopback sockets, proving the codec, the servers, and the scan
pipeline interoperate at ZDNS-class mechanics: non-blocking sockets on
one selector that the waiting caller pumps, a client socket pool with
transaction-id demultiplexing, a deadline queue and a bounded drain
(:mod:`~repro.wire.engine`); the authoritative fleet live on ephemeral
ports, each endpoint running the servers' one answer step and the
network's one response cache (:mod:`~repro.wire.fleet`); a drop-in
scanner transport that shares the fabric's client prologue and doubles
as the scan loop's socket back-end — tasks park on the engine's pending
handles and resume in settling order (:mod:`~repro.wire.network`).

The contract, in one line: **same seed, same scale → identical analysis
tables** as the simulated fabric.  Wire mode does *not* promise
identical event streams, simulated durations, or store byte-layout —
real I/O completes in wire order, which legitimately reshuffles the
schedule.  The differential suite pins the table half of that contract.
"""

from repro.wire.engine import WireEngine, WireTimeout
from repro.wire.fleet import WireFleet
from repro.wire.network import WireNetwork

__all__ = [
    "WireEngine",
    "WireFleet",
    "WireNetwork",
    "WireTimeout",
]
