"""Differential and unit tests for the repro.wire transport.

The load-bearing claim of :mod:`repro.wire` is **table identity**: a
campaign scanned over real loopback sockets renders the same bytes
(Tables 1-3, Figure 1) as the simulated fabric at the same seed/scale —
including across a kill/resume cycle.  Wire mode deliberately gives up
*schedule* identity (completions arrive in wire order), so the tests pin
the artifacts, not the event stream.

The unit tests cover the mechanisms underneath: the scan loop's socket
back-end (tasks park on the engine's pending handles and resume in
settling order), the one answer step behind the fabric and both socket
endpoints, hostile input on the engine's serving side, the engine's own
rules (bounded drain, stream framing, transaction-id collisions,
shutdown), and the stats section gating.
"""

import collections
import contextlib
import os
import socket
import struct
import time

import pytest
from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.chaos import ChaosConfig
from repro.dns.message import Message, make_query, make_response
from repro.dns.rdata import A, NS, SOA, TXT
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.obs.stats import CampaignStats, collect_stats, render_stats
from repro.reports import render_artifacts
from repro.server import (
    AuthoritativeServer,
    DropQueriesBehavior,
    LegacyUnknownTypeBehavior,
    NetworkTimeout,
    SimulatedNetwork,
    TransientFailureBehavior,
)
from repro.sched import EventLoop, Exchange, run_steps
from repro.store.manifest import load_manifest
from repro.wire import WireEngine, WireNetwork, WireTimeout
from repro.wire.engine import POOL_SIZE, Pending
from tests.test_tcp import make_fat_zone

SCALE = 1e-6
SEED = 41


@pytest.fixture(scope="module")
def sequential_artifacts():
    return render_artifacts(
        run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True)).report
    )


# ---------------------------------------------------------------------------
# Differential: wire campaigns render the simulated fabric's bytes
# ---------------------------------------------------------------------------


class TestWireDifferential:
    def test_wire_campaign_renders_the_sim_tables(self, sequential_artifacts):
        wire = run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, recheck=True, transport="wire", in_flight=16
            )
        )
        assert render_artifacts(wire.report) == sequential_artifacts

    def test_kill_and_resume_over_the_wire(self, sequential_artifacts, tmp_path):
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=SCALE,
                seed=SEED,
                store_dir=root,
                transport="wire",
                in_flight=8,
                stop_after=5,
            )
        )
        # transport round-trips through the manifest, so the resume
        # stands the socket fleet back up without being told.
        stored = CampaignConfig.from_manifest(load_manifest(root))
        assert stored.transport == "wire"
        resumed = resume_campaign(root)
        assert render_artifacts(resumed.report) == sequential_artifacts

    def test_chaotic_wire_campaign_renders_the_fault_free_tables(
        self, sequential_artifacts, tmp_path
    ):
        # The fault plane sits in the client prologue both transports
        # share, so chaos + retries ≡ fault-free holds over sockets too.
        campaign = run_campaign(
            CampaignConfig(
                scale=SCALE,
                seed=SEED,
                recheck=True,
                store_dir=tmp_path / "store",
                transport="wire",
                in_flight=16,
                chaos=ChaosConfig.default(seed=7),
                telemetry=True,
            )
        )
        assert render_artifacts(campaign.report) == sequential_artifacts
        stats = collect_stats(tmp_path / "store")
        counters = stats.counters
        for kind in ("loss", "servfail", "truncation", "latency", "brownout"):
            assert counters[f"chaos.faults.{kind}"] > 0, kind
        assert counters["retry.abandoned"] == 0
        # Truncation storms reach the real TCP path ...
        assert counters["net.tcp_queries"] > 0
        assert counters["wire.socket_errors"] == 0
        rendered = render_stats(stats)
        assert "wire engine (repro.wire)" in rendered
        assert "fault injection" in rendered

    def test_no_datagram_is_lost_at_high_in_flight(self):
        # Regression: with 256 zones in flight one pass of the threaded
        # engine answered a whole flush into the four client sockets
        # before reading any — 16 datagrams lost, 16 wall timeouts, 16
        # retries and 10 s stalled.  The width must not show at all.
        def run(in_flight):
            campaign = run_campaign(
                CampaignConfig(
                    scale=SCALE, seed=7, recheck=True, transport="wire",
                    in_flight=in_flight, telemetry=True,
                )
            )  # fmt: skip
            return campaign, campaign.world.network, campaign.telemetry.counters

        narrow, narrow_net, _ = run(16)
        wide, wide_net, counters = run(256)
        assert counters["wire.wall_timeouts"] == counters["wire.demux_misses"] == 0
        assert counters["wire.batch_peak"] <= 64
        assert wide_net.timeouts == narrow_net.timeouts
        assert wide_net.queries_sent == narrow_net.queries_sent
        assert render_artifacts(wide.report) == render_artifacts(narrow.report)

    def test_every_exchange_crosses_a_real_socket(self, monkeypatch):
        # Count the socket calls under a wire campaign: a query and its
        # answer are two sends and two receives, and the server side of
        # every exchange is answer_wire on bytes read from a socket.
        sends, datagrams, chunks, answered = [], [], [], []

        def counted(name, keep):
            real = getattr(socket.socket, name)

            def call(sock, *args):
                result = real(sock, *args)
                keep.append(result)
                return result

            monkeypatch.setattr(socket.socket, name, call)

        counted("sendto", sends)
        counted("send", sends)
        counted("recvfrom", datagrams)
        counted("recv", chunks)
        answer_wire = AuthoritativeServer.answer_wire

        def answering(server, wire, tcp=False):
            answered.append((wire, tcp))
            return answer_wire(server, wire, tcp)

        monkeypatch.setattr(AuthoritativeServer, "answer_wire", answering)
        campaign = run_campaign(
            CampaignConfig(
                scale=SCALE / 4, seed=SEED, recheck=True, transport="wire", in_flight=8,
                chaos=ChaosConfig.default(seed=7), telemetry=True,
            )
        )  # fmt: skip
        # (Chaos for the truncations that reach TCP; the faults it
        # answers itself never leave the client prologue.)
        on_the_wire = campaign.telemetry.counters["wire.io_blocks"]
        assert campaign.world.network.queries_sent > on_the_wire > 500
        assert len(answered) == on_the_wire
        assert len(sends) >= 2 * on_the_wire
        assert len(datagrams) + len([chunk for chunk in chunks if chunk]) >= 2 * on_the_wire
        read = {id(data) for data, _ in datagrams}
        stream = b"".join(chunks)
        assert any(tcp for _, tcp in answered)
        for wire, tcp in answered:
            assert wire in stream if tcp else id(wire) in read

    def test_validate_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            CampaignConfig(scale=SCALE, seed=SEED, transport="tcp").validate()


# ---------------------------------------------------------------------------
# The scan loop's socket back-end: tasks park on the engine's pending
# handles (its futures) and resume in settling order
# ---------------------------------------------------------------------------


def _reply_wire(msg_id: int) -> bytes:
    return make_response(make_query("park.test", RRType.A, msg_id=msg_id)).to_wire()


class _StubEngine:
    """What :class:`WireNetwork` needs of an engine, without sockets:
    :meth:`later` makes a pending handle that the first :meth:`pump` at
    least *delay* real seconds on settles, the engine's way."""

    def __init__(self):
        self.settled = collections.deque()
        self._due = []

    def later(self, delay, data=b"", error=None) -> Pending:
        pending = Pending(self)
        if delay is None:
            pending.done, pending.data, pending.error = True, data, error
        else:
            self._due.append((time.monotonic() + delay, pending, data, error))
        return pending

    def pump(self, timeout=0.0):
        if timeout and self._due:
            first = min(when for when, *_ in self._due)
            time.sleep(max(0.0, min(timeout, first - time.monotonic())))
        now = time.monotonic()
        due = sorted((d for d in self._due if d[0] <= now), key=lambda d: d[0])
        self._due = [d for d in self._due if d[0] > now]
        for _, pending, data, error in due:
            pending.done, pending.data, pending.error = True, data, error
            if pending.tag is not None:
                self.settled.append(pending)


def _stub_wire(send) -> WireNetwork:
    """A :class:`WireNetwork` on a :class:`_StubEngine` whose send step
    is *send(engine, exchange)* — a hand-made handle instead of a socket."""
    network = WireNetwork(SimulatedNetwork(), engine=_StubEngine())
    network._send = lambda exchange, asker: send(network.engine, exchange)
    return network


def _asks(i, task):
    response = yield Exchange(f"10.0.0.{i}", None, b"", timeout=2.0)
    return response.id


class TestWireLoop:
    def test_tasks_park_on_futures_and_results_keep_submission_order(self):
        resumed = []

        def send(engine, exchange):
            i = int(exchange.ip.rsplit(".", 1)[1])
            # The handles settle in *reverse* submission order — the
            # loop must keep draining regardless.
            return engine.later(0.02 * (4 - i), _reply_wire(i * 10))

        def fn(i, task):
            value = yield from _asks(i, task)
            resumed.append(i)
            return value

        network = _stub_wire(send)
        clock = network.clock
        loop = EventLoop(clock, max_in_flight=4, network=network)
        assert loop.run([0, 1, 2, 3], fn) == [0, 10, 20, 30]
        assert resumed == [3, 2, 1, 0]  # settling order, not submission order
        assert network.io_blocks == 4
        assert network.io_waits >= 1
        # Parking charges no simulated time.
        assert clock.now() == 0.0

    def test_block_io_outside_a_task_waits_inline(self):
        # A handle that is already settled costs no park and no wait:
        # the task is resumed from the heap like any simulated exchange.
        network = _stub_wire(lambda engine, exchange: engine.later(None, _reply_wire(7)))
        assert run_steps(network.clock, network, _asks(0, None)) == 7
        assert network.io_blocks == 0 and network.io_waits == 0

    def test_future_exception_propagates_to_the_task(self):
        def fn(i, task):
            try:
                yield from _asks(i, task)
            except OSError as exc:
                return str(exc)
            return "no error"

        network = _stub_wire(lambda engine, exchange: engine.later(0.01, error=OSError("boom")))
        assert EventLoop(network.clock, max_in_flight=2, network=network).run([0], fn) == ["boom"]

    def test_a_wall_timeout_is_charged_to_the_task_that_waited(self):
        # The engine's WireTimeout becomes the fabric's NetworkTimeout:
        # counted, charged to the waiting task's clock — and no other's.
        def send(engine, exchange):
            if exchange.ip.endswith(".0"):
                return engine.later(0.01, error=WireTimeout("lost"))
            return engine.later(0.03, _reply_wire(1))

        def fn(i, task):
            try:
                yield from _asks(i, task)
            except NetworkTimeout:
                pass
            return network.clock.now()

        network = _stub_wire(send)
        loop = EventLoop(network.clock, max_in_flight=2, network=network)
        assert loop.run([0, 1], fn) == [2.0, 2.0]  # task 1 resumes at the frontier
        assert network.timeouts == 1

    def test_a_stalled_engine_is_reported_not_waited_on_forever(self, monkeypatch):
        monkeypatch.setattr("repro.wire.network.IO_WAIT_TIMEOUT", 0.05)
        network = _stub_wire(lambda engine, exchange: engine.later(3600))  # never settles
        with pytest.raises(RuntimeError, match="wire engine stalled"):
            run_steps(network.clock, network, _asks(0, None))


# ---------------------------------------------------------------------------
# The serving side: one answer step, hostile input, shutdown
# ---------------------------------------------------------------------------

IP = "10.0.0.53"


def _zone_server(name: str) -> AuthoritativeServer:
    server = AuthoritativeServer(name)
    zone = Zone(f"{name}.test")
    zone.add(f"{name}.test", 300, SOA(f"ns1.{name}.test", f"h.{name}.test", 1))
    zone.add(f"{name}.test", 300, NS(f"ns1.{name}.test"))
    zone.add(f"www.{name}.test", 300, A("192.0.2.77"))
    # 3 x 200 octets fits an EDNS datagram but not the classic 512;
    # 10 x 200 fits neither.
    for label, strings in (("mid", 3), ("big", 10)):
        rrset = RRset(f"{label}.{name}.test", RRType.TXT, 300)
        for i in range(strings):
            rrset.add(TXT([f"{i:03d}" + "x" * 200]))
        zone.add_rrset(rrset)
    server.add_zone(zone)
    return server


@contextlib.contextmanager
def _hosted(server: AuthoritativeServer, wall_timeout: float = 10.0):
    """*server* live on loopback the way a campaign hosts it: the wire
    network plus the (udp, tcp) socket addresses behind ``IP``."""
    sim = SimulatedNetwork()
    sim.register(IP, server)
    with WireEngine(wall_timeout=wall_timeout) as engine:
        with WireNetwork(sim, engine=engine) as network:
            yield network, *network.fleet.endpoint(IP)


def _pump_until(engine, predicate, timeout=2.0) -> bool:
    """Nothing services the sockets but a pump: pass until *predicate*."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        engine.pump(0.05)
    return predicate()


#: (case, qname, qtype, EDNS, server behaviour, rcode, truncated over UDP)
EXCHANGES = [
    ("positive", "www.eq.test", RRType.A, True, None, Rcode.NOERROR, False),
    ("nxdomain", "nope.eq.test", RRType.A, True, None, Rcode.NXDOMAIN, False),
    ("refused", "other.example", RRType.A, True, None, Rcode.REFUSED, False),
    ("oversize", "big.eq.test", RRType.TXT, True, None, Rcode.NOERROR, True),
    ("fits-edns", "mid.eq.test", RRType.TXT, True, None, Rcode.NOERROR, False),
    ("no-edns-512", "mid.eq.test", RRType.TXT, False, None, Rcode.NOERROR, True),
    # A pure behaviour is cached like no behaviour; a countdown one never.
    ("legacy-cached", "www.eq.test", RRType.CDS, True, LegacyUnknownTypeBehavior(),
     Rcode.SERVFAIL, False),
    ("stateful-never-cached", "www.eq.test", RRType.CDS, True, TransientFailureBehavior([]),
     Rcode.NOERROR, False),
]  # fmt: skip


class TestOneAnswerStep:
    """The fabric, the UDP endpoint and the TCP endpoint answer from one
    step and one memo: same bytes, modulo the UDP size limit."""

    @pytest.mark.parametrize(
        "qname,qtype,edns,behavior,rcode,udp_truncated",
        [case[1:] for case in EXCHANGES],
        ids=[case[0] for case in EXCHANGES],
    )
    def test_three_transports_one_answer(self, qname, qtype, edns, behavior, rcode, udp_truncated):
        server = _zone_server("eq")
        if behavior is not None:
            server.add_behavior(behavior)
        # A memo lives on the zone that answers: a refusal has none.
        cached = (behavior is None or behavior.memo_key is not None) and rcode != Rcode.REFUSED
        handled = []
        handle_query = server.handle_query
        server.handle_query = lambda q: handled.append(q) or handle_query(q)
        query = make_query(qname, qtype, msg_id=77)
        query.edns = edns
        wire = query.to_wire()

        with _hosted(server) as (network, udp, tcp):
            sim = network.sim
            fabric = []
            inbound = sim.inbound
            sim.inbound = lambda response_wire: fabric.append(response_wire) or inbound(response_wire)
            # Twice: the second round of a cacheable exchange is all hits.
            for round_ in (1, 2):
                fabric.clear()
                sim.query(IP, query)
                sim.query(IP, query, tcp=True)
                over_udp = network.engine.send_udp(udp, wire).result(2.0)
                over_tcp = network.engine.send_tcp(tcp, wire).result(2.0)
                assert fabric == [over_udp, over_tcp]
                datagram, stream = Message.from_wire(over_udp), Message.from_wire(over_tcp)
                assert datagram.id == stream.id == 77
                assert stream.rcode == rcode and not stream.truncated
                assert datagram.truncated == udp_truncated
                if udp_truncated:
                    assert not datagram.answer and len(stream.answer[0]) in (3, 10)
                else:
                    assert over_udp == over_tcp
                # One handle_query per uncached (question, transport).
                assert len(handled) == (2 if cached else 4 * round_)
                assert sim.response_cache_hits == (4 * round_ - 2 if cached else 0)
                assert server.queries_handled == 4 * round_


class TestServerDecodeErrors:
    def test_udp_garbage_is_counted_and_service_continues(self):
        with _hosted(_zone_server("garbage")) as (network, udp, _):
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(b"\x00", udp)  # too short for a DNS header
            assert _pump_until(network.engine, lambda: network.engine.counters["decode_errors"] == 1)
            # The endpoint survives the junk datagram.
            resp = network.query(IP, make_query("www.garbage.test", RRType.A, msg_id=3))
            assert resp.rcode == Rcode.NOERROR
            assert network.wire_counters()["wire.decode_errors"] == 1

    def test_tcp_garbage_is_counted_and_closes_the_stream(self):
        with _hosted(_zone_server("tgarbage")) as (network, _, tcp):
            with socket.create_connection(tcp, timeout=2.0) as sock:
                sock.sendall(struct.pack("!H", 3) + b"abc")
                assert _pump_until(network.engine, lambda: network.engine.counters["decode_errors"] == 1)
                # The endpoint closes the connection after the bad segment.
                assert sock.recv(64) == b""
            # A fresh connection still gets answers.
            resp = network.query(
                IP, make_query("www.tgarbage.test", RRType.A, msg_id=4), tcp=True
            )
            assert resp.rcode == Rcode.NOERROR
            assert network.wire_counters()["wire.decode_errors"] == 1

    def test_tcp_drop_behavior_leaves_client_to_its_timeout(self):
        server = AuthoritativeServer("tdrop")
        server.add_behavior(DropQueriesBehavior())
        with _hosted(server, wall_timeout=0.2) as (network, _, _tcp):
            with pytest.raises(NetworkTimeout):
                network.query(IP, make_query("x.test", RRType.A, msg_id=1), tcp=True)
            assert network.timeouts == 1
            counters = network.wire_counters()
            assert counters["wire.wall_timeouts"] == 1
            # The stream stays open: a drop is silence, not an error.
            assert counters["wire.socket_errors"] == 0

    def test_address_registered_after_the_fleet_started_times_out(self):
        with _hosted(_zone_server("late")) as (network, _, _tcp):
            network.sim.register("10.0.0.54", _zone_server("later"))
            with pytest.raises(NetworkTimeout, match="not hosted"):
                network.query("10.0.0.54", make_query("www.later.test", RRType.A))
            assert network.timeouts == 1 and network.queries_sent == 1


def _echo(wire, tcp):
    return wire


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _sockets_at(engine, addr) -> list:
    """The engine's registered sockets bound to *addr* (a stream
    endpoint: the listener first, then what it accepted)."""
    socks = [key.fileobj for key in engine._selector.get_map().values()]
    return [sock for sock in socks if sock.getsockname()[:2] == addr]


class TestEngineRules:
    def test_a_burst_queued_before_the_first_pump_loses_no_datagram(self):
        # 600 queries to one endpoint overflow its receive buffer (~256
        # datagrams) and their fat answers the four client sockets'
        # (~90 each) unless sends and drains are bounded per pass.
        with WireEngine() as engine:
            endpoint = engine.serve_udp(lambda wire, tcp: wire + bytes(1200))
            sent = [
                engine.send_udp(endpoint, i.to_bytes(2, "big") + b"burst") for i in range(600)
            ]
            for i, pending in enumerate(sent):
                assert pending.result(5.0)[:7] == i.to_bytes(2, "big") + b"burst"
            counters = engine.counters
            assert counters["wall_timeouts"] == counters["demux_misses"] == 0
            assert counters["batched_queries"] == 600
            assert counters["batch_peak"] <= 64 < counters["in_flight_peak"]

    def test_a_response_larger_than_the_send_buffer_arrives_whole(self):
        # The partial-write path: the kernel takes a few KB of the ~50 KB
        # answer, the rest leaves on EVENT_WRITE over the next passes.
        with WireEngine() as engine:
            endpoint = engine.serve_tcp(make_fat_zone(strings=240).answer_wire)
            (listener,) = _sockets_at(engine, endpoint)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            wire = make_query("big.fat.test", RRType.TXT, msg_id=11).to_wire()
            response_wire = engine.send_tcp(endpoint, wire).result(5.0)
            _, accepted = _sockets_at(engine, endpoint)
            assert accepted.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) * 4 < len(response_wire)
            response = Message.from_wire(response_wire)
            assert len(response_wire) >= 48 * 1024
            assert response.id == 11 and len(response.answer[0]) == 240

    def test_stream_segments_parse_however_recv_cuts_them(self):
        with WireEngine() as engine:
            endpoint = engine.serve_tcp(_echo)
            frames = [struct.pack("!H", len(body)) + body for body in (b"\x00\x01one", b"\x00\x02two")]

            def read_frames(sock, count):
                data, deadline = b"", time.monotonic() + 2.0
                while len(data) < sum(map(len, frames[:count])) and time.monotonic() < deadline:
                    engine.pump(0.05)
                    with contextlib.suppress(BlockingIOError):
                        data += sock.recv(4096)
                return data

            with socket.create_connection(endpoint, timeout=2.0) as sock:
                sock.setblocking(False)
                # Two segments in one recv ...
                sock.sendall(frames[0] + frames[1])
                assert read_frames(sock, 2) == frames[0] + frames[1]
                # ... and one segment across two, cut inside the length prefix.
                sock.sendall(frames[0][:1])
                engine.pump(0.05)
                engine.pump(0.05)
                sock.sendall(frames[0][1:])
                assert read_frames(sock, 1) == frames[0]
            assert engine.counters["decode_errors"] == 0

    def test_transaction_id_collisions(self):
        with WireEngine() as engine:
            endpoint = engine.serve_udp(_echo)
            # The same (txid, peer) on every pooled socket: each of the
            # four gets its own answer back on its own socket ...
            wires = [b"\x00\x07" + bytes([i]) for i in range(POOL_SIZE)]
            sent = [engine.send_udp(endpoint, wire) for wire in wires]
            # ... and a fifth has no socket left to be told apart on.
            fifth = engine.send_udp(endpoint, b"\x00\x07five")
            assert fifth.done
            with pytest.raises(WireTimeout, match="collision"):
                fifth.result(0)
            assert [pending.result(2.0) for pending in sent] == wires
            assert engine.counters["demux_misses"] == engine.counters["wall_timeouts"] == 0
            # Settled, the id is free again.
            assert engine.send_udp(endpoint, b"\x00\x07five").result(2.0) == b"\x00\x07five"

    def test_close_with_queries_outstanding_closes_every_fd(self):
        before = _open_fds()
        engine = WireEngine().start()
        silent_udp = engine.serve_udp(lambda wire, tcp: None)
        silent_tcp = engine.serve_tcp(lambda wire, tcp: None)
        udp = engine.send_udp(silent_udp, b"\x00\x01rest")
        tcp = engine.send_tcp(silent_tcp, b"\x00\x02rest")
        engine.pump(0.05)
        engine.pump(0.05)  # the listener accepted: a server-side stream is open too
        assert _open_fds() >= before + 1 + 2 + POOL_SIZE + 2
        engine.close()
        assert _open_fds() == before
        assert not udp.done and not tcp.done
        engine.close()  # a second close is a no-op
        assert _open_fds() == before
        with pytest.raises(RuntimeError, match="not started"):
            udp.result(1.0)


# ---------------------------------------------------------------------------
# Stats: the wire section only exists for wire campaigns
# ---------------------------------------------------------------------------


def _stats(counters) -> CampaignStats:
    return CampaignStats(
        root="store",
        status="complete",
        seed=SEED,
        scale=SCALE,
        records=3,
        zones_total=3,
        events=2,
        streams=1,
        counters=counters,
    )


class TestStatsSection:
    def test_sim_campaign_renders_no_wire_section(self):
        out = render_stats(_stats({"net.queries": 42}))
        assert "wire engine" not in out

    def test_wire_campaign_renders_the_section(self):
        out = render_stats(
            _stats(
                {
                    "net.queries": 42,
                    "wire.queries": 42,
                    "wire.servers_hosted": 5,
                    "wire.in_flight_peak": 16,
                    "wire.batches": 7,
                    "wire.batched_queries": 42,
                    "wire.batch_peak": 9,
                    "wire.response_cache_hits": 11,
                    "wire.socket_errors": 0,
                    "wire.demux_misses": 0,
                    "wire.decode_errors": 1,
                    "wire.wall_timeouts": 0,
                }
            )
        )
        assert "wire engine (repro.wire)" in out
        assert "6.0 queries/pass" in out
        assert "answer memo:  11 hits" in out
        assert "1 decode" in out
