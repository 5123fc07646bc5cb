"""Tests for truncation handling and the TCP transports."""

import pytest

from repro.dns.message import Message, make_query
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.server import AuthoritativeServer, SimulatedNetwork
from repro.wire import WireEngine


def make_fat_zone(strings: int = 10):
    """A zone whose TXT answer (*strings* × 204 octets of rdata) exceeds
    the 1232-byte EDNS payload."""
    zone = Zone("fat.test")
    zone.add("fat.test", 300, SOA("ns1.fat.test", "h.fat.test", 1))
    zone.add("fat.test", 300, NS("ns1.fat.test"))
    big = RRset("big.fat.test", RRType.TXT, 300)
    for i in range(strings):
        big.add(TXT([f"{i:03d}" + "x" * 200]))
    zone.add_rrset(big)
    server = AuthoritativeServer("fat")
    server.add_zone(zone)
    return server


class TestSimulatedTruncation:
    @pytest.fixture
    def network(self):
        network = SimulatedNetwork()
        network.register("10.0.0.9", make_fat_zone())
        return network

    def test_udp_truncates(self, network):
        response = network.query("10.0.0.9", make_query("big.fat.test", RRType.TXT))
        assert response.truncated
        assert not response.answer

    def test_tcp_carries_full_answer(self, network):
        response = network.query(
            "10.0.0.9", make_query("big.fat.test", RRType.TXT), tcp=True
        )
        assert not response.truncated
        assert len(response.answer[0]) == 10

    def test_small_answer_not_truncated(self, network):
        response = network.query("10.0.0.9", make_query("fat.test", RRType.SOA))
        assert not response.truncated

    def test_plain_dns_512_limit(self, network):
        query = make_query("big.fat.test", RRType.TXT)
        query.edns = False
        response = network.query("10.0.0.9", query)
        assert response.truncated

    def test_scanner_tcp_fallback(self, network):
        from repro.scanner.yodns import Scanner

        scanner = Scanner(network, ["10.0.0.9"])
        result = scanner.query_one("10.0.0.9", *_qname_qtype())
        assert result.has_data
        assert len(result.rrset) == 10
        assert scanner.tcp_fallbacks >= 1


class TestAllTrafficIsPacedAndCounted:
    """Regression: the resolver's TC→TCP retry used to go out without a
    limiter charge and without a fallback count, so "all measurement
    traffic honours the per-NS budget" was false on the delegation walk."""

    def test_a_truncating_tld_server_is_still_paced(self):
        from collections import Counter

        from repro.dns.message import make_response
        from repro.ecosystem import build_world

        world = build_world(scale=1e-6, seed=41)
        zones = world.scan_list[:6]
        network = world.network
        tld_ips = world.make_scanner().resolver.find_delegation(zones[0]).parent_ips
        for server in {id(s): s for s in map(network.server_at, tld_ips)}.values():
            answer_wire = server.answer_wire

            def truncating(wire, tcp=False, answer_wire=answer_wire):
                if tcp:
                    return answer_wire(wire, tcp)
                response = make_response(Message.from_wire(wire))
                response.truncated = True
                return response.to_wire()

            server.answer_wire = truncating

        scanner = world.make_scanner()
        charged = Counter()
        reserve = scanner.limiter.reserve
        scanner.limiter.reserve = lambda ip: charged.update([ip]) or reserve(ip)
        sent_before = dict(network.per_ip_queries)
        tcp_before = network.tcp_queries
        results = scanner.scan_many(zones)

        assert any(result.resolved for result in results)
        asked = {ip for ip in tld_ips if network.per_ip_queries.get(ip, 0) > sent_before.get(ip, 0)}
        assert asked
        for ip in asked:
            assert charged[ip] == network.per_ip_queries[ip] - sent_before.get(ip, 0), ip
        # Every referral from those servers needed the TCP retry, and
        # every retry was counted.
        assert scanner.tcp_fallbacks == network.tcp_queries - tcp_before >= len(zones)


def _qname_qtype():
    from repro.dns.name import Name

    return Name.from_text("big.fat.test"), RRType.TXT


class TestRealTcp:
    """The fat zone's answer step on a real stream socket of the wire
    engine (RFC 7766 framing, one persistent client connection)."""

    @pytest.fixture(scope="class")
    def ask(self):
        with WireEngine() as engine:
            endpoint = engine.serve_tcp(make_fat_zone().answer_wire)

            def ask(query) -> Message:
                return Message.from_wire(engine.send_tcp(endpoint, query.to_wire()).result(2.0))

            yield ask

    def test_large_answer_over_tcp(self, ask):
        response = ask(make_query("big.fat.test", RRType.TXT, msg_id=3))
        assert response.rcode == Rcode.NOERROR
        assert len(response.answer[0]) == 10
        assert response.id == 3

    def test_multiple_queries_one_connection_style(self, ask):
        for i in range(5):
            response = ask(make_query("fat.test", RRType.SOA, msg_id=i))
            assert response.id == i

    def test_nxdomain_over_tcp(self, ask):
        response = ask(make_query("nope.fat.test", RRType.A, msg_id=9))
        assert response.rcode == Rcode.NXDOMAIN
