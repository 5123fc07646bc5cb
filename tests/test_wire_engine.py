"""Differential and unit tests for the repro.wire transport.

The load-bearing claim of :mod:`repro.wire` is **table identity**: a
campaign scanned over real loopback sockets renders the same bytes
(Tables 1-3, Figure 1) as the simulated fabric at the same seed/scale —
including across a kill/resume cycle.  Wire mode deliberately gives up
*schedule* identity (completions arrive in wire order), so the tests pin
the artifacts, not the event stream.

The unit tests cover the mechanisms underneath: the scan loop's socket
back-end (tasks park on futures and resume in completion order), the
one answer step behind the fabric and both socket
endpoints, hostile input on the engine's serving side, engine shutdown,
and the stats section gating.
"""

import contextlib
import gc
import logging
import socket
import struct
import threading
import time
from concurrent.futures import Future

import pytest
from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.chaos import ChaosConfig
from repro.dns.message import Message, make_query, make_response
from repro.dns.rdata import A, NS, SOA, TXT
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.obs.stats import CampaignStats, collect_stats, render_stats
from repro.reports.figure1 import compute_figure1, render_figure1
from repro.reports.table1 import compute_table1, render_table1
from repro.reports.table2 import compute_table2, render_table2
from repro.reports.table3 import compute_table3, render_table3
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

SCALE = 1e-6
SEED = 41


def rendered_artifacts(campaign) -> dict:
    """The four user-facing artifacts, as the exact strings a user sees."""
    report = campaign.report
    return {
        "table1": render_table1(compute_table1(report)),
        "table2": render_table2(compute_table2(report)),
        "table3": render_table3(compute_table3(report)),
        "figure1": render_figure1(compute_figure1(report)),
    }


@pytest.fixture(scope="module")
def sequential_artifacts():
    return rendered_artifacts(
        run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))
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
        assert rendered_artifacts(wire) == sequential_artifacts

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
        assert rendered_artifacts(resumed) == sequential_artifacts

    def test_chaotic_wire_campaign_renders_the_fault_free_tables(
        self, sequential_artifacts, tmp_path, caplog
    ):
        # The fault plane sits in the client prologue both transports
        # share, so chaos + retries ≡ fault-free holds over sockets too.
        with caplog.at_level(logging.ERROR, logger="asyncio"):
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
            gc.collect()
        assert rendered_artifacts(campaign) == sequential_artifacts
        stats = collect_stats(tmp_path / "store")
        counters = stats.counters
        for kind in ("loss", "servfail", "truncation", "latency", "brownout"):
            assert counters[f"chaos.faults.{kind}"] > 0, kind
        assert counters["retry.abandoned"] == 0
        # Truncation storms reach the real TCP path ...
        assert counters["net.tcp_queries"] > 0
        assert counters["wire.socket_errors"] == 0
        # ... and the engine reaps the stream tasks they leave behind.
        assert _destroyed_tasks(caplog) == []
        rendered = render_stats(stats)
        assert "wire engine (repro.wire)" in rendered
        assert "fault injection" in rendered

    def test_validate_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            CampaignConfig(scale=SCALE, seed=SEED, transport="tcp").validate()


# ---------------------------------------------------------------------------
# The scan loop's socket back-end: tasks park on futures and resume in
# completion order
# ---------------------------------------------------------------------------


def _reply_wire(msg_id: int) -> bytes:
    return make_response(make_query("park.test", RRType.A, msg_id=msg_id)).to_wire()


def _stub_wire(send) -> WireNetwork:
    """A :class:`WireNetwork` whose send step is *send(exchange)* — a
    hand-made future instead of a socket (the engine is never started)."""
    network = WireNetwork(SimulatedNetwork())
    network._send = lambda exchange, asker: send(exchange)
    return network


def _asks(i, task):
    response = yield Exchange(f"10.0.0.{i}", None, b"", timeout=2.0)
    return response.id


class TestWireLoop:
    def test_tasks_park_on_futures_and_results_keep_submission_order(self):
        resumed = []

        def send(exchange):
            i = int(exchange.ip.rsplit(".", 1)[1])
            future = Future()
            # Completions land in *reverse* submission order from a
            # foreign thread — the loop must keep draining regardless.
            threading.Timer(0.02 * (4 - i), future.set_result, args=(_reply_wire(i * 10),)).start()
            return future

        def fn(i, task):
            value = yield from _asks(i, task)
            resumed.append(i)
            return value

        network = _stub_wire(send)
        clock = network.clock
        loop = EventLoop(clock, max_in_flight=4, network=network)
        assert loop.run([0, 1, 2, 3], fn) == [0, 10, 20, 30]
        assert resumed == [3, 2, 1, 0]  # completion order, not submission order
        assert network.io_blocks == 4
        assert network.io_waits >= 1
        # Parking charges no simulated time.
        assert clock.now() == 0.0

    def test_block_io_outside_a_task_waits_inline(self):
        # A future that is already done costs no park and no wait: the
        # task is resumed from the heap like any simulated exchange —
        # which is also all a lone synchronous caller ever does.
        def send(exchange):
            future = Future()
            future.set_result(_reply_wire(7))
            return future

        network = _stub_wire(send)
        assert run_steps(network.clock, network, _asks(0, None)) == 7
        assert network.io_blocks == 0 and network.io_waits == 0

    def test_future_exception_propagates_to_the_task(self):
        def send(exchange):
            future = Future()
            threading.Timer(0.01, future.set_exception, args=(OSError("boom"),)).start()
            return future

        def fn(i, task):
            try:
                yield from _asks(i, task)
            except OSError as exc:
                return str(exc)
            return "no error"

        network = _stub_wire(send)
        assert EventLoop(network.clock, max_in_flight=2, network=network).run([0], fn) == ["boom"]

    def test_a_wall_timeout_is_charged_to_the_task_that_waited(self):
        # The engine's WireTimeout becomes the fabric's NetworkTimeout:
        # counted, charged to the waiting task's clock — and no other's.
        def send(exchange):
            future = Future()
            if exchange.ip.endswith(".0"):
                threading.Timer(0.01, future.set_exception, args=(WireTimeout("lost"),)).start()
            else:
                threading.Timer(0.03, future.set_result, args=(_reply_wire(1),)).start()
            return future

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
        network = _stub_wire(lambda exchange: Future())  # never completes
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


def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _destroyed_tasks(caplog) -> list:
    return [r.getMessage() for r in caplog.records if "Task was destroyed" in r.getMessage()]


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
    step and one cache: same bytes, modulo the UDP size limit."""

    @pytest.mark.parametrize(
        "qname,qtype,edns,behavior,rcode,udp_truncated",
        [case[1:] for case in EXCHANGES],
        ids=[case[0] for case in EXCHANGES],
    )
    def test_three_transports_one_answer(self, qname, qtype, edns, behavior, rcode, udp_truncated):
        server = _zone_server("eq")
        if behavior is not None:
            server.add_behavior(behavior)
        cached = behavior is None or behavior.cacheable
        handled = []
        handle_query = server.handle_query
        server.handle_query = lambda q: handled.append(q) or handle_query(q)
        query = make_query(qname, qtype, msg_id=77)
        query.edns = edns
        wire = query.to_wire()

        with _hosted(server) as (network, udp, tcp):
            sim = network.sim
            sim.enable_response_cache()
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
            assert _wait_for(lambda: network.engine.counters["decode_errors"] == 1)
            # The endpoint survives the junk datagram.
            resp = network.query(IP, make_query("www.garbage.test", RRType.A, msg_id=3))
            assert resp.rcode == Rcode.NOERROR
            assert network.wire_counters()["wire.decode_errors"] == 1

    def test_tcp_garbage_is_counted_and_closes_the_stream(self):
        with _hosted(_zone_server("tgarbage")) as (network, _, tcp):
            with socket.create_connection(tcp, timeout=2.0) as sock:
                sock.sendall(struct.pack("!H", 3) + b"abc")
                # The endpoint closes the connection after the bad segment.
                assert sock.recv(64) == b""
            assert _wait_for(lambda: network.engine.counters["decode_errors"] == 1)
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


class TestEngineShutdown:
    def test_close_reaps_the_stream_tasks(self, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            engine = WireEngine().start()
            endpoint = engine.serve_tcp(_zone_server("bye").answer_wire)
            wire = make_query("www.bye.test", RRType.A, msg_id=9).to_wire()
            assert Message.from_wire(engine.send_tcp(endpoint, wire).result(2.0)).id == 9
            engine.close()
            gc.collect()
        assert _destroyed_tasks(caplog) == []


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
        assert "6.0 queries/flush" in out
        assert "1 decode" in out
