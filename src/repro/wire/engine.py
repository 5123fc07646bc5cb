"""The socket half of the wire plane: one selector, one thread.

Every socket the campaign touches — the client pool, the persistent
client streams, every server endpoint — is non-blocking and registered
with one :mod:`selectors` selector, each with a handler.  Nothing runs
on a thread of its own: :meth:`WireEngine.pump` is one *pass* (wait for
readiness, service every ready socket once, expire overdue queries) and
whoever is waiting calls it — the scan loop between slices
(:meth:`repro.wire.network.WireNetwork.completions`) or a pending
handle's :meth:`~Pending.result`.  The engine only moves bytes: a server
is an *answer step* on a port, and a client send hands the bytes to the
kernel on the spot and returns a :class:`Pending` handle that a later
pass settles with the raw response wire:

* **socket pool** — UDP queries round-robin over a few datagram
  sockets; responses demultiplex by ``(transaction id, remote address)``
  per socket, so thousands can be outstanding on a handful of fds;
* **deadline queue** — one ``wall_timeout`` for every query makes
  deadlines monotonic, so a FIFO is the whole timer: its head caps the
  selector wait and overdue heads settle with :class:`WireTimeout`;
* **bounded drain** — at most :data:`BURST` sends reach the kernel
  between two passes (the sender that hits the bound runs a zero-wait
  pass itself) and a datagram socket reads at most :data:`BURST`
  datagrams per readiness event, so however many queries are outstanding
  no pass answers more into a client socket than its buffer holds.

:attr:`WireEngine.counters` is the ``wire.*`` telemetry; a *batch* is
the sends handed to the kernel between two passes, and reads ≈ 1 on
loopback, where an answer is back before the next task runs.
"""

from __future__ import annotations

import collections
import functools
import selectors
import socket
from time import monotonic
from typing import Callable, Deque, Dict, Optional, Tuple

#: Datagram sockets in the UDP client pool.
POOL_SIZE = 4

#: The bounded-drain constant: sends between two passes, and datagrams
#: one socket reads per readiness event.  A loopback receive buffer
#: holds ~90 full-size responses; 64 spread over the pool stays under it.
BURST = 64

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_LOOPBACK = ("127.0.0.1", 0)

#: An answer step: (query wire, tcp) -> response wire, or None to stay
#: silent; raises ValueError for bytes that are not a DNS message.
Answer = Callable[[bytes, bool], Optional[bytes]]


class WireTimeout(Exception):
    """No response arrived on the wire within the wall timeout."""


class Pending:
    """One client query: outstanding until a pass settles it with the
    response wire or with the reason there is none."""

    __slots__ = ("engine", "deadline", "done", "data", "error", "tag")

    def __init__(self, engine, deadline: float = 0.0, error: Optional[Exception] = None):
        self.engine = engine
        self.deadline = deadline
        self.done = error is not None
        self.data = b""
        self.error = error
        self.tag = None  # set: queue me on ``WireEngine.settled`` when settled

    def result(self, timeout: float = 0.0) -> bytes:
        """The response wire, pumping the engine until it is there;
        raises what the query failed with, or :class:`TimeoutError`
        after *timeout* real seconds."""
        end = monotonic() + timeout
        while not self.done:
            left = end - monotonic()
            if left <= 0:
                raise TimeoutError("no result from the wire engine yet")
            self.engine.pump(left)
        if self.error is not None:
            raise self.error
        return self.data


class WireEngine:
    """One selector carrying clients and servers, pumped by its callers:
    on loopback a query and its answer are two passes of the same loop,
    with no hand-off between threads (or cores) anywhere in the hot path."""

    def __init__(self, wall_timeout: float = 10.0):
        self.wall_timeout = wall_timeout
        self.counters: Dict[str, int] = dict.fromkeys(
            ("in_flight", "in_flight_peak", "batches", "batched_queries", "batch_peak",
             "socket_errors", "demux_misses", "decode_errors", "wall_timeouts"),
            0,
        )  # fmt: skip
        #: Settled handles that carry a ``tag``, in settling order.
        self.settled: Deque[Pending] = collections.deque()
        self._selector: Optional[selectors.BaseSelector] = None
        # The UDP client pool: (socket, {(txid, peer): Pending}) each,
        # next to send first.
        self._udp_pool: Deque[Tuple[socket.socket, dict]] = collections.deque()
        # The persistent client streams, by peer: (stream, its pending dict).
        self._tcp_conns: Dict[Tuple[str, int], Tuple[_Stream, dict]] = {}
        # (deadline, the pending dict the query is in, its key), oldest
        # first — not the handle, so nothing settled stays reachable.
        self._deadlines: Deque[tuple] = collections.deque()
        self._sends = 0  # since the last pass

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WireEngine":
        if self._selector is None:
            self._selector = selectors.DefaultSelector()
            for _ in range(POOL_SIZE):
                pending: dict = {}
                sock = self._udp_socket(functools.partial(self._deliver, pending))
                self._udp_pool.append((sock, pending))
        return self

    def close(self) -> None:
        """Close every socket (every open one is registered); queries
        still outstanding are never settled."""
        if self._selector is None:
            return
        selector, self._selector = self._selector, None
        for key in list(selector.get_map().values()):
            key.fileobj.close()
        selector.close()
        self._udp_pool.clear()
        self._tcp_conns.clear()

    def __enter__(self) -> "WireEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _running(self) -> selectors.BaseSelector:
        if self._selector is None:
            raise RuntimeError("wire engine not started")
        return self._selector

    def _udp_socket(self, step) -> socket.socket:
        """A loopback datagram socket on the selector: a readiness event
        hands up to :data:`BURST` datagrams to *step(data, addr)* and
        sends back what that returns (if anything).  Bytes that are not a
        DNS message (``ValueError``) get no reply, but are counted."""
        selector = self._running()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.bind(_LOOPBACK)

        def on_ready(mask: int) -> None:
            for _ in range(BURST):
                try:
                    data, addr = sock.recvfrom(65535)
                except BlockingIOError:
                    return
                except OSError:
                    self.counters["socket_errors"] += 1
                    return
                try:
                    reply = step(data, addr)
                    if reply is not None:
                        sock.sendto(reply, addr)
                except ValueError:
                    self.counters["decode_errors"] += 1
                except OSError:
                    self.counters["socket_errors"] += 1

        selector.register(sock, _READ, on_ready)
        return sock

    # -- the pass ----------------------------------------------------------

    def pump(self, timeout: float = 0.0) -> None:
        """One pass: wait up to *timeout* real seconds (and no longer
        than the next deadline) for readiness, service every ready
        socket once, settle the queries whose wall timeout has passed."""
        selector = self._running()
        counters = self.counters
        if self._sends:
            counters["batches"] += 1
            counters["batched_queries"] += self._sends
            counters["batch_peak"] = max(counters["batch_peak"], self._sends)
            self._sends = 0
        deadlines = self._deadlines
        if deadlines and timeout:
            timeout = min(timeout, max(deadlines[0][0] - monotonic(), 0.0))
        for key, mask in selector.select(timeout):
            key.data(mask)
        now = monotonic()
        while deadlines:
            deadline, pending, key = deadlines[0]
            entry = pending.get(key)
            # (Else settled already, and a later query may reuse the key.)
            if entry is not None and entry.deadline == deadline:
                if deadline > now:
                    break
                del pending[key]
                counters["wall_timeouts"] += 1
                self._settle(entry, error=WireTimeout("no response on the wire"))
            deadlines.popleft()

    # -- client side -------------------------------------------------------

    def send_udp(self, addr: Tuple[str, int], wire: bytes) -> Pending:
        """Send one datagram; the handle settles with the response wire
        (matched on the transaction id, the first two octets of *wire*)."""
        self._running()
        if self._sends >= BURST:
            self.pump(0)
        # Round-robin across the pool, skipping sockets where this
        # (txid, addr) is already outstanding (demux would be ambiguous).
        key = (wire[:2], addr)
        self._udp_pool.rotate(-1)
        for sock, pending in self._udp_pool:
            if key not in pending:
                break
        else:
            return Pending(self, error=WireTimeout(f"transaction id collision for {addr}"))
        entry = self._track(pending, key)
        try:
            sock.sendto(wire, addr)
        except OSError:
            self.counters["socket_errors"] += 1
            del pending[key]
            self._settle(entry, error=WireTimeout(f"datagram to {addr} not sent"))
        return entry

    def send_tcp(self, addr: Tuple[str, int], wire: bytes) -> Pending:
        """Send one length-prefixed stream query (persistent connection
        per endpoint); the handle settles with the response wire."""
        self._running()
        if self._sends >= BURST:
            self.pump(0)
        conn = self._tcp_conns.get(addr)
        if conn is None or conn[0].closed:
            conn = self._tcp_conns[addr] = self._connect(addr)
        stream, pending = conn
        key = (wire[:2], addr)
        if key in pending:
            return Pending(self, error=WireTimeout(f"transaction id collision for {addr}"))
        entry = self._track(pending, key)
        stream.write(wire)
        return entry

    def _connect(self, addr: Tuple[str, int]) -> Tuple[_Stream, dict]:
        """A client stream to *addr*; its end fails what is outstanding."""
        pending: dict = {}

        def lost() -> None:
            self.counters["socket_errors"] += 1
            while pending:
                _, entry = pending.popitem()
                self._settle(entry, error=WireTimeout(f"connection to {addr} lost"))

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.connect_ex(addr)  # completes (or fails) by the first EVENT_WRITE
        deliver = functools.partial(self._deliver, pending, addr=addr)
        return _Stream(self, sock, _READ | _WRITE, deliver, lost), pending

    def _track(self, pending: dict, key) -> Pending:
        """Register a query on its socket and queue its wall timeout."""
        self._sends += 1
        deadline = monotonic() + self.wall_timeout
        entry = pending[key] = Pending(self, deadline)
        self._deadlines.append((deadline, pending, key))
        counters = self.counters
        counters["in_flight"] += 1
        counters["in_flight_peak"] = max(counters["in_flight_peak"], counters["in_flight"])
        return entry

    def _settle(self, entry: Pending, data: bytes = b"", error=None) -> None:
        """Finish a query its socket no longer holds."""
        entry.done, entry.data, entry.error = True, data, error
        self.counters["in_flight"] -= 1
        if entry.tag is not None:
            self.settled.append(entry)

    def _deliver(self, pending: dict, data: bytes, addr) -> None:
        """Match *data*, read from *addr*, to the query it answers."""
        entry = pending.pop((data[:2], addr), None)
        if entry is not None:
            self._settle(entry, data)
        else:
            self.counters["decode_errors" if len(data) < 2 else "demux_misses"] += 1

    # -- server side -------------------------------------------------------

    def serve_udp(self, answer: Answer) -> Tuple[str, int]:
        """Host *answer* on an ephemeral loopback datagram port."""
        sock = self._udp_socket(lambda data, addr: answer(data, False))
        return sock.getsockname()[:2]

    def serve_tcp(self, answer: Answer) -> Tuple[str, int]:
        """Host *answer* on an ephemeral loopback stream port (RFC 7766
        two-octet length prefix, any number of queries per connection)."""
        selector = self._running()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setblocking(False)
        listener.bind(_LOOPBACK)
        listener.listen()

        def accept(mask: int) -> None:
            try:
                conn, _ = listener.accept()
            except BlockingIOError:
                return
            except OSError:
                self.counters["socket_errors"] += 1
                return
            _Stream(self, conn, _READ, lambda data: answer(data, True))

        selector.register(listener, _READ, accept)
        return listener.getsockname()[:2]


class _Stream:
    """One non-blocking stream socket speaking RFC 7766 framing both
    ways: every complete inbound segment goes to *segment(data)* and what
    that returns (if anything) is written back — :meth:`write` frames and
    sends, buffering what the kernel does not take until ``EVENT_WRITE``.
    A segment that is not a DNS message (``ValueError``) is counted and
    ends the stream; *lost()* hears of the end, however it came."""

    def __init__(self, engine: WireEngine, sock: socket.socket, events: int, segment, lost=None):
        self.engine = engine
        self.sock = sock
        self.segment = segment
        self.lost = lost
        self.closed = False
        self._events = events  # with EVENT_WRITE while a flush is due
        self._in = bytearray()
        self._out = bytearray()
        sock.setblocking(False)
        engine._running().register(sock, events, self.on_ready)

    def write(self, wire: bytes) -> None:
        self._out += len(wire).to_bytes(2, "big") + wire
        if self._events == _READ:
            self._flush()

    def _flush(self) -> None:
        try:
            del self._out[: self.sock.send(self._out)]
        except BlockingIOError:
            pass
        except OSError:  # the connection failed, or was never made
            self.close()
            return
        events = _READ | _WRITE if self._out else _READ
        if events != self._events:
            self._events = events
            self.engine._running().modify(self.sock, events, self.on_ready)

    def on_ready(self, mask: int) -> None:
        if mask & _WRITE:
            self._flush()
        if mask & _READ and not self.closed:
            try:
                chunk = self.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""
            if not chunk:
                self.close()
                return
            buf = self._in
            buf += chunk
            start = 0
            while len(buf) - start >= 2 and not self.closed:
                stop = start + 2 + int.from_bytes(buf[start : start + 2], "big")
                if stop > len(buf):
                    break
                try:
                    reply = self.segment(bytes(buf[start + 2 : stop]))
                except ValueError:
                    self.engine.counters["decode_errors"] += 1
                    self.close()
                    return
                if reply is not None:  # (a server's answer; silence leaves it open)
                    self.write(reply)
                start = stop
            del buf[:start]

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.engine._running().unregister(self.sock)
            self.sock.close()
            if self.lost is not None:
                self.lost()
