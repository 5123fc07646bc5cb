"""Unit tests for the authoritative server, behaviours, and network fabric."""

import pytest

from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rdata import A, NS, SOA, TXT
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.server import (
    AfternicParkingBehavior,
    AuthoritativeServer,
    DropQueriesBehavior,
    LegacyUnknownTypeBehavior,
    NetworkTimeout,
    SimulatedClock,
    SimulatedNetwork,
    TransientFailureBehavior,
)
from repro.server.behaviors import (
    CorruptSignaturesBehavior,
    ServerBehavior,
    StripSignaturesBehavior,
    SyntheticCutBehavior,
)

from tests.helpers import COM_IP, OP_IP_1, OP_IP_2, ROOT_IP


def ask(world, ip, name, rrtype, dnssec_ok=True):
    query = make_query(name, rrtype, msg_id=77, dnssec_ok=dnssec_ok)
    return world["network"].query(ip, query)


class TestAnswering:
    def test_positive_answer_with_sigs(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "www.example.com", RRType.A)
        assert resp.rcode == Rcode.NOERROR and resp.authoritative
        types = {int(r.rrtype) for r in resp.answer}
        assert int(RRType.A) in types and int(RRType.RRSIG) in types

    def test_no_sigs_without_do_bit(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "www.example.com", RRType.A, dnssec_ok=False)
        types = {int(r.rrtype) for r in resp.answer}
        assert types == {int(RRType.A)}

    def test_nodata_has_soa(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "www.example.com", RRType.TXT)
        assert resp.rcode == Rcode.NOERROR
        assert not resp.answer
        assert any(int(r.rrtype) == int(RRType.SOA) for r in resp.authority)

    def test_nodata_with_do_has_nsec(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "www.example.com", RRType.TXT)
        assert any(int(r.rrtype) == int(RRType.NSEC) for r in resp.authority)

    def test_nxdomain(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "missing.example.com", RRType.A)
        assert resp.rcode == Rcode.NXDOMAIN
        assert any(int(r.rrtype) == int(RRType.SOA) for r in resp.authority)
        assert any(int(r.rrtype) == int(RRType.NSEC) for r in resp.authority)

    def test_referral_from_registry(self, mini_world):
        resp = ask(mini_world, COM_IP, "www.example.com", RRType.A)
        assert resp.rcode == Rcode.NOERROR
        assert not resp.authoritative
        assert not resp.answer
        ns = [r for r in resp.authority if int(r.rrtype) == int(RRType.NS)]
        assert ns and ns[0].name == Name.from_text("example.com")

    def test_referral_includes_ds_for_signed_child(self, mini_world):
        resp = ask(mini_world, COM_IP, "www.example.com", RRType.A)
        assert any(int(r.rrtype) == int(RRType.DS) for r in resp.authority)

    def test_referral_insecure_child_has_nsec_not_ds(self, mini_world):
        resp = ask(mini_world, COM_IP, "www.unsigned.com", RRType.A)
        assert not any(int(r.rrtype) == int(RRType.DS) for r in resp.authority)
        assert any(int(r.rrtype) == int(RRType.NSEC) for r in resp.authority)

    def test_ds_query_answered_by_parent(self, mini_world):
        resp = ask(mini_world, COM_IP, "example.com", RRType.DS)
        assert resp.authoritative
        assert any(int(r.rrtype) == int(RRType.DS) for r in resp.answer)

    def test_root_referral_includes_glue(self, mini_world):
        resp = ask(mini_world, ROOT_IP, "example.com", RRType.NS)
        assert any(int(r.rrtype) == int(RRType.A) for r in resp.additional)

    def test_refused_out_of_authority(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "elsewhere.org", RRType.A)
        assert resp.rcode == Rcode.REFUSED

    def test_unknown_qtype_nodata(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "www.example.com", RRType.make(65444))
        assert resp.rcode == Rcode.NOERROR and not resp.answer

    def test_cds_on_island(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "island.com", RRType.CDS)
        cds = [r for r in resp.answer if int(r.rrtype) == int(RRType.CDS)]
        assert cds and cds[0].rdatas[0] == mini_world["island_cds"]

    def test_signal_zone_answer(self, mini_world):
        resp = ask(mini_world, OP_IP_1, "_dsboot.island.com._signal.ns1.opdns.net", RRType.CDS)
        cds = [r for r in resp.answer if int(r.rrtype) == int(RRType.CDS)]
        assert cds and cds[0].rdatas[0] == mini_world["island_cds"]
        assert any(int(r.rrtype) == int(RRType.RRSIG) for r in resp.answer)

    def test_cname_chase(self):
        server = AuthoritativeServer()
        zone = Zone("x.test")
        zone.add("x.test", 300, SOA("ns1.x.test", "h.x.test", 1))
        zone.add("x.test", 300, NS("ns1.x.test"))
        from repro.dns.rdata import CNAME

        zone.add("a.x.test", 300, CNAME("b.x.test"))
        zone.add("b.x.test", 300, A("192.0.2.9"))
        server.add_zone(zone)
        resp = server.handle_query(make_query("a.x.test", RRType.A))
        types = [int(r.rrtype) for r in resp.answer]
        assert int(RRType.CNAME) in types and int(RRType.A) in types

    def test_an_edns_payload_below_512_is_taken_as_512(self):
        # RFC 6891 §6.2.5: a ~113-octet answer fits in 512, so it comes
        # back whole even when the query advertises only 100.
        server = AuthoritativeServer()
        zone = Zone("x.test")
        zone.add("x.test", 300, SOA("ns1.x.test", "h.x.test", 1))
        zone.add("x.test", 300, TXT(["t" * 65]))
        server.add_zone(zone)
        query = make_query("x.test", RRType.TXT, dnssec_ok=False)
        query.edns_payload = 100
        wire = server.answer_wire(query.to_wire())
        reply = Message.from_wire(wire)
        assert 100 < len(wire) <= 512
        assert not reply.truncated and reply.answer

    def test_formerr_without_question(self, mini_world):
        server = mini_world["servers"]["operator"]
        assert server.handle_query(Message(msg_id=1)).rcode == Rcode.FORMERR

    def test_deepest_zone_match(self, mini_world):
        # _signal.ns1.opdns.net is more specific than opdns.net.
        operator = mini_world["servers"]["operator"]
        zone = operator.find_zone(Name.from_text("_dsboot.island.com._signal.ns1.opdns.net"))
        assert zone.origin == Name.from_text("_signal.ns1.opdns.net")


class TestBehaviors:
    def make_server(self):
        server = AuthoritativeServer()
        zone = Zone("legacy.test")
        zone.add("legacy.test", 300, SOA("ns1.legacy.test", "h.legacy.test", 1))
        zone.add("legacy.test", 300, NS("ns1.legacy.test"))
        zone.add("www.legacy.test", 300, A("192.0.2.4"))
        server.add_zone(zone)
        return server

    def test_legacy_unknown_type_errors(self):
        server = self.make_server()
        server.add_behavior(LegacyUnknownTypeBehavior(Rcode.SERVFAIL))
        assert server.handle_query(make_query("legacy.test", RRType.CDS)).rcode == Rcode.SERVFAIL
        assert server.handle_query(make_query("www.legacy.test", RRType.A)).rcode == Rcode.NOERROR

    def test_legacy_formerr_variant(self):
        server = self.make_server()
        server.add_behavior(LegacyUnknownTypeBehavior(Rcode.FORMERR))
        assert server.handle_query(make_query("legacy.test", RRType.CDNSKEY)).rcode == Rcode.FORMERR

    def test_afternic_answers_everything(self):
        server = AuthoritativeServer()
        server.add_behavior(AfternicParkingBehavior())
        resp = server.handle_query(make_query("anything.at.all.example", RRType.NS))
        assert resp.rcode == Rcode.NOERROR
        assert resp.answer[0].rdatas[0].target == Name.from_text("ns1.namefind.com")
        # Creates illusion of a cut at every level.
        resp2 = server.handle_query(make_query("deep.er.anything.example", RRType.NS))
        assert resp2.answer

    def test_transient_failure_recovers(self):
        server = self.make_server()
        target = Name.from_text("www.legacy.test")
        server.add_behavior(TransientFailureBehavior([target], failures=2))
        q = make_query(target, RRType.A)
        assert server.handle_query(q).rcode == Rcode.SERVFAIL
        assert server.handle_query(q).rcode == Rcode.SERVFAIL
        assert server.handle_query(q).rcode == Rcode.NOERROR

    def test_transient_only_listed_names(self):
        server = self.make_server()
        server.add_behavior(TransientFailureBehavior([Name.from_text("www.legacy.test")]))
        assert server.handle_query(make_query("legacy.test", RRType.SOA)).rcode == Rcode.NOERROR


class TestPureBehavioursAnswerFromTheCache:
    """A server whose behaviours are all pure functions of the query is
    as memoisable as one with none (`ServerBehavior.memo_key`): its
    answers live on the zone that answers."""

    make_server = TestBehaviors.make_server

    def exchange(self, server, name, rrtype, msg_id):
        wire = server.answer_wire(make_query(name, rrtype, msg_id=msg_id).to_wire())
        return None if wire is None else Message.from_wire(wire)

    def memo(self, server):
        return server.find_zone(Name.from_text("legacy.test")).answers

    def test_which_behaviours_declare_themselves_pure(self):
        name = [Name.from_text("www.legacy.test")]
        pure = [
            LegacyUnknownTypeBehavior(), AfternicParkingBehavior(), StripSignaturesBehavior(name),
            SyntheticCutBehavior(name), DropQueriesBehavior(),
        ]  # fmt: skip
        assert all(behavior.memo_key is not None for behavior in pure)
        # Content keys, so equal behaviours on two servers share answers.
        assert StripSignaturesBehavior(name).memo_key == StripSignaturesBehavior(name).memo_key
        assert LegacyUnknownTypeBehavior().memo_key != LegacyUnknownTypeBehavior(Rcode.FORMERR).memo_key
        # These count down: the same query is answered differently later.
        assert ServerBehavior.memo_key is None
        assert TransientFailureBehavior(name).memo_key is None
        assert CorruptSignaturesBehavior(name).memo_key is None

    def test_a_pure_server_answers_the_repeat_from_the_cache(self):
        server = self.make_server()
        server.add_behavior(LegacyUnknownTypeBehavior(Rcode.SERVFAIL))
        server.add_behavior(SyntheticCutBehavior([Name.from_text("www.legacy.test")]))
        first = self.exchange(server, "legacy.test", RRType.CDS, 1)
        again = self.exchange(server, "legacy.test", RRType.CDS, 2)
        assert (first.rcode, first.id) == (Rcode.SERVFAIL, 1)
        assert (again.rcode, again.id) == (Rcode.SERVFAIL, 2)
        assert server.memo_hits == 1 and server.queries_handled == 2
        cut = self.exchange(server, "www.legacy.test", RRType.NS, 3)
        assert cut.answer and self.exchange(server, "www.legacy.test", RRType.NS, 4).answer
        assert server.memo_hits == 2

    def test_one_stateful_behaviour_keeps_the_whole_server_out(self):
        server = self.make_server()
        target = Name.from_text("www.legacy.test")
        server.add_behavior(LegacyUnknownTypeBehavior())
        server.add_behavior(TransientFailureBehavior([target], failures=1))
        assert self.exchange(server, target, RRType.A, 1).rcode == Rcode.SERVFAIL
        assert self.exchange(server, target, RRType.A, 2).rcode == Rcode.NOERROR
        assert server.memo_hits == 0 and not self.memo(server)

    def test_a_dropped_query_stays_a_drop(self):
        server = self.make_server()
        server.add_behavior(DropQueriesBehavior(qtypes=[RRType.CDS]))
        for msg_id in (1, 2):
            assert self.exchange(server, "legacy.test", RRType.CDS, msg_id) is None
        assert not self.memo(server) and server.memo_hits == 0
        # What it does answer is memoised like any pure server's answer.
        for msg_id in (3, 4):
            assert self.exchange(server, "legacy.test", RRType.SOA, msg_id).id == msg_id
        assert server.memo_hits == 1


class TestNetwork:
    def test_timeout_on_dark_ip(self, fresh_world):
        network = fresh_world["network"]
        network.register_dark("10.9.9.9")
        with pytest.raises(NetworkTimeout):
            network.query("10.9.9.9", make_query("example.com", RRType.A))
        assert network.timeouts == 1

    def test_timeout_on_unknown_ip(self, fresh_world):
        with pytest.raises(NetworkTimeout):
            fresh_world["network"].query("10.1.2.3", make_query("example.com", RRType.A))

    def test_query_accounting(self, fresh_world):
        network = fresh_world["network"]
        before = network.queries_sent
        network.query(OP_IP_1, make_query("example.com", RRType.SOA))
        assert network.queries_sent == before + 1
        assert network.per_ip_queries[OP_IP_1] >= 1
        assert network.bytes_sent > 0 and network.bytes_received > 0

    def test_drop_behavior_times_out(self, fresh_world):
        network = fresh_world["network"]
        server = AuthoritativeServer()
        server.add_behavior(DropQueriesBehavior())
        network.register("10.0.0.1", server)
        with pytest.raises(NetworkTimeout):
            network.query("10.0.0.1", make_query("example.com", RRType.A))

    def test_selective_drop(self, fresh_world):
        network = fresh_world["network"]
        server = AuthoritativeServer()
        zone = Zone("d.test")
        zone.add("d.test", 300, SOA("ns1.d.test", "h.d.test", 1))
        server.add_zone(zone)
        server.add_behavior(DropQueriesBehavior(qtypes=[RRType.CDS]))
        network.register("10.0.0.2", server)
        with pytest.raises(NetworkTimeout):
            network.query("10.0.0.2", make_query("d.test", RRType.CDS))
        assert network.query("10.0.0.2", make_query("d.test", RRType.SOA)).rcode == Rcode.NOERROR

    def test_clock(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_query_cost_advances_clock(self):
        network = SimulatedNetwork(query_cost=0.01)
        server = AuthoritativeServer()
        zone = Zone("t.test")
        zone.add("t.test", 300, SOA("ns1.t.test", "h.t.test", 1))
        server.add_zone(zone)
        network.register("10.0.0.3", server)
        network.query("10.0.0.3", make_query("t.test", RRType.SOA))
        assert network.clock.now() == pytest.approx(0.01)

    def test_anycast_many_ips_one_server(self, fresh_world):
        # OP_IP_1 and OP_IP_2 are the same server object.
        network = fresh_world["network"]
        assert network.server_at(OP_IP_1) is network.server_at(OP_IP_2)
