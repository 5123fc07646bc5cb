"""The asyncio half of the wire plane: one event loop on a daemon
thread carrying every socket the campaign touches.

Client side, the engine exposes :meth:`WireEngine.send_udp` /
:meth:`send_tcp`: thread-safe calls that enqueue a datagram (or stream
write) and return a :class:`concurrent.futures.Future` resolving to the
raw response wire.  Three throughput mechanics keep the loop thread
cheap:

* **socket pool** — UDP queries round-robin over a small pool of
  datagram sockets; responses demultiplex by ``(transaction id, remote
  address)`` per socket, so thousands of queries can be outstanding on a
  handful of file descriptors;
* **coalesced send batches** — callers append to a lock-free deque and
  at most one ``call_soon_threadsafe`` flush is ever pending, so a burst
  of N queries crosses the thread boundary as one callback, not N;
* **timeout wheel** — deadlines round up to coarse buckets
  (:data:`WHEEL_GRANULARITY` seconds) with one ``call_at`` timer per
  bucket instead of one per query.

Server side, :meth:`serve_udp` / :meth:`serve_tcp` put an *answer step*
— ``(query wire, tcp) -> response wire | None``, in practice
:meth:`repro.server.nameserver.AuthoritativeServer.answer_wire` — on an
ephemeral loopback port of the same loop (see
:class:`repro.wire.fleet.WireFleet` for the fleet-level wiring).  The
engine only moves bytes: it never decodes a message.

Everything the engine counts lands in :attr:`WireEngine.counters`
(``wire.*`` telemetry): in-flight high-water mark, batch sizes, socket
errors, demultiplex misses, decode errors, and wall timeouts.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import threading
from concurrent.futures import Future
from typing import Callable, Deque, Dict, Optional, Tuple

#: Timeout-wheel bucket width (real seconds).  Coarse on purpose: wall
#: timeouts are a safety net against a hung peer, not a measured RTT.
WHEEL_GRANULARITY = 0.25

#: Default UDP socket-pool size.
DEFAULT_POOL_SIZE = 4


#: An answer step: (query wire, tcp) -> response wire, or None to stay
#: silent; raises ValueError for bytes that are not a DNS message.
Answer = Callable[[bytes, bool], Optional[bytes]]


class WireTimeout(Exception):
    """No response arrived on the wire within the wall timeout."""


class WireEngine:
    """One asyncio loop on a daemon thread; clients and servers share it.

    A single loop thread is deliberate: on loopback, a query and its
    answer are two wakeups of the same thread, so there is no cross-core
    handoff in the hot path and the GIL is never contended by socket
    work.
    """

    def __init__(self, pool_size: int = DEFAULT_POOL_SIZE, wall_timeout: float = 10.0):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self.wall_timeout = wall_timeout
        self.counters: Dict[str, int] = {
            "in_flight": 0,
            "in_flight_peak": 0,
            "batches": 0,
            "batched_queries": 0,
            "batch_peak": 0,
            "socket_errors": 0,
            "demux_misses": 0,
            "decode_errors": 0,
            "wall_timeouts": 0,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._closed = False
        # UDP client pool: one protocol per socket, filled lazily on the
        # loop thread the first time a send flushes.
        self._udp_pool: list[_ClientProtocol] = []
        self._next_socket = 0
        # Pending sends not yet flushed onto the loop thread.  The deque
        # is the thread boundary: callers append from their own thread, the
        # single flush callback drains on the loop thread.
        self._outbox: Deque[tuple] = collections.deque()
        self._flush_pending = False
        self._flush_lock = threading.Lock()
        # Timeout wheel: bucket index -> [pending entry, ...].
        self._wheel: Dict[int, list] = {}
        # TCP client connections: (host, port) -> _TcpConnection.
        self._tcp_conns: Dict[Tuple[str, int], "_TcpConnection"] = {}
        # Server handles kept alive for close().
        self._server_transports: list = []
        self._servers: list[asyncio.AbstractServer] = []
        self._stream_tasks: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WireEngine":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run, name="wire-engine", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=5):  # pragma: no cover - startup failure
            raise RuntimeError("wire engine failed to start")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._started.set()
        self._loop.run_forever()
        for transport in self._server_transports:
            transport.close()
        for server in self._servers:
            server.close()
        for conn in self._tcp_conns.values():
            conn.close()
        for proto in self._udp_pool:
            if proto.transport is not None:
                proto.transport.close()
        # Whatever still runs (server-side stream handlers, client stream
        # readers, endpoints mid-attach) is cancelled and reaped, never
        # abandoned to the garbage collector.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        self._loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()

    def close(self) -> None:
        if self._closed or self._loop is None:
            return
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "WireEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("wire engine not started")
        return self._loop

    def loop_time(self) -> float:
        return self.loop.time()

    def call_threadsafe(self, fn, *args) -> None:
        self.loop.call_soon_threadsafe(fn, *args)

    def run_coroutine(self, coro):
        """Run *coro* on the engine loop; block the caller until done."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=30)

    # -- client side -------------------------------------------------------

    def send_udp(self, addr: Tuple[str, int], wire: bytes) -> Future:
        """Queue one datagram; the Future resolves to the response wire.

        Thread-safe.  The first two octets of *wire* are the transaction
        id the response is matched on.
        """
        future: Future = Future()
        self._outbox.append(("udp", addr, wire, future))
        self._schedule_flush()
        return future

    def send_tcp(self, addr: Tuple[str, int], wire: bytes) -> Future:
        """Queue one length-prefixed stream query (persistent connection
        per endpoint); the Future resolves to the response wire."""
        future: Future = Future()
        self._outbox.append(("tcp", addr, wire, future))
        self._schedule_flush()
        return future

    def _schedule_flush(self) -> None:
        with self._flush_lock:
            if self._flush_pending:
                return
            self._flush_pending = True
        self.loop.call_soon_threadsafe(self._flush)

    def _flush(self) -> None:
        """Drain the outbox on the loop thread — one callback per burst."""
        with self._flush_lock:
            self._flush_pending = False
        counters = self.counters
        batch = 0
        while True:
            try:
                kind, addr, wire, future = self._outbox.popleft()
            except IndexError:
                break
            batch += 1
            if kind == "udp":
                self._send_udp_now(addr, wire, future)
            else:
                self._send_tcp_now(addr, wire, future)
        if batch:
            counters["batches"] += 1
            counters["batched_queries"] += batch
            if batch > counters["batch_peak"]:
                counters["batch_peak"] = batch

    def _udp_socket(self, index: int) -> "_ClientProtocol":
        # Called on the loop thread, which cannot await: bind the socket
        # synchronously and let the endpoint attach on a later loop
        # iteration (sends issued meanwhile buffer in the protocol).
        import socket as _socket

        while len(self._udp_pool) <= index:
            proto = _ClientProtocol(self)
            sock = _socket.socket(_socket.AF_INET, _socket.SOCK_DGRAM)
            sock.setblocking(False)
            sock.bind(("127.0.0.1", 0))
            proto.attach_task = self.loop.create_task(
                self.loop.create_datagram_endpoint(lambda p=proto: p, sock=sock)
            )
            self._udp_pool.append(proto)
        return self._udp_pool[index]

    def _send_udp_now(self, addr, wire, future) -> None:
        # Round-robin across the pool, skipping sockets where this
        # (txid, addr) is already outstanding (demux would be ambiguous).
        txid = wire[:2]
        key = (txid, addr)
        proto = None
        for offset in range(self.pool_size):
            candidate = self._udp_socket((self._next_socket + offset) % self.pool_size)
            if key not in candidate.pending:
                proto = candidate
                break
        self._next_socket = (self._next_socket + 1) % self.pool_size
        if proto is None:
            future.set_exception(WireTimeout(f"transaction id collision for {addr}"))
            return
        self._track(_Pending(key, future, proto))
        proto.send(wire, addr)

    def _send_tcp_now(self, addr, wire, future) -> None:
        conn = self._tcp_conns.get(addr)
        if conn is None or conn.closed:
            conn = _TcpConnection(self, addr)
            self._tcp_conns[addr] = conn
        conn.send(wire, future)

    # -- outstanding queries and the timeout wheel -------------------------

    def _track(self, entry: "_Pending") -> None:
        """Register *entry* on its socket and arm its wall timeout."""
        entry.owner.pending[entry.key] = entry
        counters = self.counters
        counters["in_flight"] += 1
        if counters["in_flight"] > counters["in_flight_peak"]:
            counters["in_flight_peak"] = counters["in_flight"]
        deadline = self.loop.time() + self.wall_timeout
        bucket = int(deadline / WHEEL_GRANULARITY) + 1
        slot = self._wheel.get(bucket)
        if slot is None:
            slot = self._wheel[bucket] = []
            self.loop.call_at(bucket * WHEEL_GRANULARITY, self._expire_bucket, bucket)
        slot.append(entry)

    def _expire_bucket(self, bucket: int) -> None:
        for entry in self._wheel.pop(bucket, ()):
            if not entry.done:
                self.counters["wall_timeouts"] += 1
                self._settle(entry, error=WireTimeout("no response on the wire"))

    def _settle(self, entry: "_Pending", data: bytes = b"", error=None) -> None:
        """Finish one outstanding query: a response, or why there is none."""
        entry.done = True
        entry.owner.pending.pop(entry.key, None)
        self.counters["in_flight"] -= 1
        # The wheel keeps the entry until its bucket expires, a full
        # wall_timeout from now; it must not keep the future (and the
        # response bytes in it) that long.
        future, entry.future = entry.future, None
        if future.cancelled():
            return
        if error is None:
            future.set_result(data)
        else:
            future.set_exception(error)

    def _deliver(self, owner, data: bytes, addr) -> None:
        """Match *data*, read from *owner*'s socket to *addr*, to the
        query it answers."""
        if len(data) < 2:
            self.counters["decode_errors"] += 1
            return
        entry = owner.pending.get((data[:2], addr))
        if entry is None:
            self.counters["demux_misses"] += 1
        else:
            self._settle(entry, data)

    # -- server side -------------------------------------------------------

    def serve_udp(self, answer: Answer) -> Tuple[str, int]:
        """Host *answer* on an ephemeral loopback datagram port."""

        async def start():
            transport, _ = await self.loop.create_datagram_endpoint(
                lambda: _UdpEndpoint(answer, self.counters), local_addr=("127.0.0.1", 0)
            )
            self._server_transports.append(transport)
            return transport.get_extra_info("sockname")[:2]

        return self.run_coroutine(start())

    def serve_tcp(self, answer: Answer) -> Tuple[str, int]:
        """Host *answer* on an ephemeral loopback stream port (RFC 7766
        two-octet length prefix, any number of queries per connection)."""

        def accept(reader, writer) -> None:
            # A task of our own: the one the stream protocol makes for a
            # coroutine callback logs an error when cancelled (Python
            # 3.11), and shutdown cancels every handler still reading.
            task = self.loop.create_task(_serve_stream(answer, self.counters, reader, writer))
            self._stream_tasks.add(task)
            task.add_done_callback(self._stream_tasks.discard)

        async def start():
            server = await asyncio.start_server(accept, "127.0.0.1", 0)
            self._servers.append(server)
            return server.sockets[0].getsockname()[:2]

        return self.run_coroutine(start())


class _Pending:
    """One outstanding client query."""

    __slots__ = ("key", "future", "owner", "done")

    def __init__(self, key, future, owner):
        self.key = key  # (transaction id, remote address)
        self.future = future
        self.owner = owner  # the socket it went out on (has .pending)
        self.done = False


class _ClientProtocol(asyncio.DatagramProtocol):
    """One pooled client socket: sends queries, demuxes responses."""

    def __init__(self, engine: WireEngine):
        self.engine = engine
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.pending: Dict[tuple, _Pending] = {}
        self._backlog: list = []
        self.attach_task = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        backlog, self._backlog = self._backlog, []
        for wire, addr in backlog:
            transport.sendto(wire, addr)

    def send(self, wire: bytes, addr) -> None:
        if self.transport is None:
            # Endpoint still attaching (first loop iteration); buffer.
            self._backlog.append((wire, addr))
            return
        self.transport.sendto(wire, addr)

    def datagram_received(self, data: bytes, addr) -> None:
        self.engine._deliver(self, data, addr)

    def error_received(self, exc) -> None:  # pragma: no cover - rare on loopback
        self.engine.counters["socket_errors"] += 1


class _TcpConnection:
    """One persistent client stream to a TCP endpoint.

    Writes issued before the connection is up are queued; a reader
    coroutine parses 2-byte-length-prefixed responses and resolves the
    matching query by transaction id.
    """

    def __init__(self, engine: WireEngine, addr: Tuple[str, int]):
        self.engine = engine
        self.addr = addr
        self.closed = False
        self.pending: Dict[tuple, _Pending] = {}
        self._writer: Optional[asyncio.StreamWriter] = None
        self._queue: list = []
        self._task = engine.loop.create_task(self._main())

    def send(self, wire: bytes, future: Future) -> None:
        key = (wire[:2], self.addr)
        if key in self.pending:
            future.set_exception(WireTimeout(f"transaction id collision for {self.addr}"))
            return
        self.engine._track(_Pending(key, future, self))
        if self._writer is not None:
            self._write(wire)
        else:
            self._queue.append(wire)

    def _write(self, wire: bytes) -> None:
        self._writer.write(len(wire).to_bytes(2, "big") + wire)

    async def _main(self) -> None:
        try:
            reader, writer = await asyncio.open_connection(*self.addr)
        except OSError:
            self._fail()
            return
        self._writer = writer
        queued, self._queue = self._queue, []
        for wire in queued:
            self._write(wire)
        try:
            while True:
                header = await reader.readexactly(2)
                data = await reader.readexactly(int.from_bytes(header, "big"))
                self.engine._deliver(self, data, self.addr)
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            self._fail()
        finally:
            self.closed = True
            with contextlib.suppress(Exception):
                writer.close()

    def _fail(self) -> None:
        self.closed = True
        self.engine.counters["socket_errors"] += 1
        for entry in list(self.pending.values()):
            self.engine._settle(entry, error=WireTimeout(f"connection to {self.addr} failed"))

    def close(self) -> None:
        self.closed = True
        self._task.cancel()
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()


class _UdpEndpoint(asyncio.DatagramProtocol):
    """One answer step on real datagrams.  Bytes that do not parse get
    no reply (a real server can answer nothing useful) but are counted,
    never silently dropped."""

    def __init__(self, answer: Answer, counters: Dict[str, int]):
        self.answer = answer
        self.counters = counters
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            wire = self.answer(data, False)
        except ValueError:
            self.counters["decode_errors"] += 1
            return
        if wire is not None:
            self.transport.sendto(wire, addr)


async def _serve_stream(answer: Answer, counters: Dict[str, int], reader, writer) -> None:
    """One answer step on one accepted stream.  A segment that does not
    parse is counted and closes the connection; a dropped query leaves
    it open and the client to its timeout."""
    try:
        while True:
            header = await reader.readexactly(2)
            data = await reader.readexactly(int.from_bytes(header, "big"))
            try:
                wire = answer(data, True)
            except ValueError:
                counters["decode_errors"] += 1
                break
            if wire is not None:
                writer.write(len(wire).to_bytes(2, "big") + wire)
                await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionResetError):
        pass
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
