"""Integration tests for the real UDP transport (localhost sockets): an
AuthoritativeServer's answer step hosted on the wire engine — the
socket stack campaigns run on."""

import gc

import pytest

from repro.dns.message import Message, make_query
from repro.dns.rdata import A, NS, SOA
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.server import AuthoritativeServer, DropQueriesBehavior
from repro.wire import WireEngine, WireTimeout
from repro.wire.engine import Pending


@pytest.fixture(scope="module")
def engine():
    with WireEngine() as engine:
        yield engine


@pytest.fixture(scope="module")
def udp_endpoint(engine):
    server = AuthoritativeServer("udp-test")
    zone = Zone("udp.test")
    zone.add("udp.test", 300, SOA("ns1.udp.test", "h.udp.test", 1))
    zone.add("udp.test", 300, NS("ns1.udp.test"))
    zone.add("www.udp.test", 300, A("192.0.2.123"))
    server.add_zone(zone)
    return engine.serve_udp(server.answer_wire)


def ask(engine, endpoint, query, timeout=2.0) -> Message:
    return Message.from_wire(engine.send_udp(endpoint, query.to_wire()).result(timeout))


class TestUdpTransport:
    def test_positive_answer(self, engine, udp_endpoint):
        resp = ask(engine, udp_endpoint, make_query("www.udp.test", RRType.A, msg_id=5))
        assert resp.rcode == Rcode.NOERROR
        assert resp.id == 5
        assert resp.answer[0].rdatas[0].address == "192.0.2.123"

    def test_nxdomain_over_udp(self, engine, udp_endpoint):
        resp = ask(engine, udp_endpoint, make_query("nope.udp.test", RRType.A, msg_id=6))
        assert resp.rcode == Rcode.NXDOMAIN

    def test_refused_out_of_zone(self, engine, udp_endpoint):
        resp = ask(engine, udp_endpoint, make_query("other.example", RRType.A, msg_id=7))
        assert resp.rcode == Rcode.REFUSED

    def test_many_sequential_queries(self, engine, udp_endpoint):
        for i in range(20):
            resp = ask(engine, udp_endpoint, make_query("www.udp.test", RRType.A, msg_id=i + 1))
            assert resp.id == i + 1

    def test_timeout_on_dropping_server(self):
        server = AuthoritativeServer("drop")
        server.add_behavior(DropQueriesBehavior())
        with WireEngine(wall_timeout=0.2) as engine:
            endpoint = engine.serve_udp(server.answer_wire)
            with pytest.raises(WireTimeout):
                ask(engine, endpoint, make_query("x.test", RRType.A, msg_id=1))
            assert engine.counters["wall_timeouts"] == 1

    def test_settled_futures_are_released_at_once(self, engine, udp_endpoint):
        # The future is the engine's pending handle.  The deadline queue
        # drops an entry once its query has settled, not a wall_timeout
        # after the send, and never holds the handle: when the callers
        # let go, nothing settled (the handle, the response bytes) stays
        # reachable.
        tcp_endpoint = engine.serve_tcp(lambda wire, tcp: wire)
        engine.pump(0)
        assert not engine._deadlines
        sent = [
            engine.send_udp(udp_endpoint, make_query("www.udp.test", RRType.A, msg_id=i).to_wire())
            for i in range(1, 33)
        ]
        sent += [engine.send_tcp(tcp_endpoint, bytes([0, i, 1, 2])) for i in range(1, 9)]
        assert len(engine._deadlines) == 40
        for pending in sent:
            pending.result(2.0)
        engine.pump(0)
        assert not engine._deadlines and not engine.settled
        assert engine.counters["in_flight"] == 0
        del pending, sent
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, Pending)]

    def test_a_wall_timeout_still_reaches_the_future(self):
        with WireEngine(wall_timeout=0.2) as engine:
            endpoint = engine.serve_udp(lambda wire, tcp: None)
            pending = engine.send_udp(endpoint, b"\x00\x01rest")
            with pytest.raises(WireTimeout):
                pending.result(2.0)
            assert not engine._deadlines
            assert engine.counters["wall_timeouts"] == 1
