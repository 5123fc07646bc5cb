"""Each answer is built once per zone content.

A server memoises the response wires it builds on the zone that answers
(:attr:`repro.dns.zone.Zone.answers`); materialised zones are frozen and
kept in the seed's plan, so every same-seed world and every server in it
answers from one zone object and one memo.  Nothing clears the memo by
hand: a zone edit replaces it, a copy shares it until either side is
edited, and a frozen zone cannot be edited.
"""

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rdata import A, SOA
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone, ZoneError
from repro.ecosystem import build_world, psl
from repro.ecosystem.generator import REGISTRY_IPS
from repro.ecosystem.spec import CdsScenario, StatusScenario
from repro.provisioning.engine import install_ds
from repro.server import AuthoritativeServer, LegacyUnknownTypeBehavior

SCALE, SEED = 5e-7, 42001


def small_zone() -> Zone:
    zone = Zone("memo.test")
    zone.add("memo.test", 300, SOA("ns1.memo.test", "h.memo.test", 1))
    zone.add("www.memo.test", 300, A("192.0.2.1"))
    return zone


def servers_of(world):
    return list({id(s): s for s in map(world.network.server_at, world.network.addresses())}.values())


class TestZoneMemo:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda zone: zone.add("mail.memo.test", 300, A("192.0.2.2")),
            lambda zone: zone.add_rrset(zone.get_rrset("www.memo.test", RRType.A)),
            lambda zone: zone.remove_rrset(Name.from_text("www.memo.test"), RRType.A),
        ],
        ids=["add", "add_rrset", "remove_rrset"],
    )
    def test_every_mutator_drops_the_memo(self, edit):
        zone = small_zone()
        memo = zone.answers
        memo[(b"query", False, ())] = b"answer"
        edit(zone)
        assert zone.answers is not memo and not zone.answers
        assert memo  # a copy still holding the old memo keeps its answers

    def test_a_copy_shares_the_memo_until_either_side_is_edited(self):
        zone = small_zone()
        zone.answers[(b"query", False, ())] = b"answer"
        clone, other = zone.copy(), zone.copy()
        assert clone.answers is zone.answers is other.answers
        clone.add("mail.memo.test", 300, A("192.0.2.2"))
        assert not clone.answers and zone.answers is other.answers
        zone.remove_rrset(Name.from_text("www.memo.test"), RRType.A)
        assert not zone.answers and other.answers == {(b"query", False, ()): b"answer"}

    def test_a_server_answers_the_edit_without_a_clear_call(self):
        zone = small_zone()
        server = AuthoritativeServer()
        server.add_zone(zone)
        wire = make_query("mail.memo.test", RRType.A, msg_id=5).to_wire()
        assert not Message.from_wire(server.answer_wire(wire)).answer
        assert zone.answers
        zone.add("mail.memo.test", 300, A("192.0.2.2"))
        assert Message.from_wire(server.answer_wire(wire)).answer
        assert server.memo_hits == 0

    def test_servers_with_other_behaviours_share_the_zone_not_its_answers(self):
        zone = small_zone()
        plain, legacy = AuthoritativeServer("plain"), AuthoritativeServer("legacy")
        plain.add_zone(zone)
        legacy.add_zone(zone)
        legacy.add_behavior(LegacyUnknownTypeBehavior(Rcode.SERVFAIL))
        wire = make_query("memo.test", RRType.CDS, msg_id=3).to_wire()
        for _ in range(2):
            assert Message.from_wire(plain.answer_wire(wire)).rcode == Rcode.NOERROR
            assert Message.from_wire(legacy.answer_wire(wire)).rcode == Rcode.SERVFAIL
        assert plain.memo_hits == legacy.memo_hits == 1 and len(zone.answers) == 2


@pytest.fixture(scope="module")
def worlds():
    return build_world(scale=SCALE, seed=SEED), build_world(scale=SCALE, seed=SEED)


class TestSeedSharedZones:
    def test_materialised_zones_are_frozen_and_shared(self, worlds):
        first, second = worlds
        apex = first.scan_list[0]
        host = first.specs[apex.to_text().rstrip(".")].ns_hosts[0]
        ip = first.plan.host_ips[first.plan.host_owner[host]][host][0]
        zone = first.network.server_at(ip).find_zone(apex)
        assert zone is second.network.server_at(ip).find_zone(apex)
        for edit in (
            lambda: zone.add(apex.child("x"), 300, A("192.0.2.9")),
            lambda: zone.remove_rrset(apex, RRType.SOA),
        ):
            with pytest.raises(ZoneError, match="frozen"):
                edit()
        plan = first.plan
        with pytest.raises(ZoneError, match="frozen"):
            plan.root_zone.remove_rrset(Name.from_text("."), RRType.SOA)

    def test_an_edit_to_one_worlds_registry_never_reaches_another(self):
        first, second = (build_world(scale=SCALE, seed=SEED) for _ in range(2))
        spec = next(
            spec
            for spec in first.specs.values()
            if spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.OK
        )
        owner = Name.from_text(spec.name)
        suffix = psl.registrable_part(owner)[1]
        query = make_query(owner, RRType.DS, msg_id=9)

        def served_ds(world):
            return world.network.query(REGISTRY_IPS[0], query).answer

        assert not served_ds(first) and not served_ds(second)
        shared = second.registry_zones[suffix].answers
        assert first.registry_zones[suffix].answers is shared
        assert second.network.server_at(REGISTRY_IPS[0]).memo_hits == 1
        first_scan = first.make_scanner().scan_zone(spec.name)
        cds = next(r.rrset for r in first_scan.cds_by_ns.values() if r.has_data)
        install_ds(first, spec.name, cds)
        assert served_ds(first)
        assert not served_ds(second)
        assert second.registry_zones[suffix].answers is shared

    def test_a_second_same_seed_scan_builds_no_answer_on_plain_servers(self, monkeypatch):
        first = build_world(scale=SCALE, seed=SEED)
        first.make_scanner().scan_many(first.scan_list)
        second = build_world(scale=SCALE, seed=SEED)
        built = []
        handle_query = AuthoritativeServer.handle_query

        def counted(server, query):
            built.append(server)
            return handle_query(server, query)

        monkeypatch.setattr(AuthoritativeServer, "handle_query", counted)
        second.make_scanner().scan_many(second.scan_list)
        plain = [server for server in servers_of(second) if not server.behaviors]
        assert sum(server.queries_handled for server in plain) > 1000
        assert [server for server in built if not server.behaviors] == []
        assert sum(server.memo_hits for server in plain) == sum(
            server.queries_handled for server in plain
        )


class TestMemoDifferential:
    """Every answer of a campaign, memoised or not, equals the answer a
    fresh replica computes without any memo, exchange by exchange in the
    campaign's order (so stateful behaviours count down alike)."""

    @staticmethod
    def fresh_wire(server, wire, tcp):
        query = Message.from_wire(wire)
        if any(behavior.should_drop(query) for behavior in server.behaviors):
            return None
        response = server.handle_query(query)
        if tcp:
            return response.to_wire()
        return response.to_wire(max_size=max(query.edns_payload, 512) if query.edns else 512)

    def test_memo_answers_equal_fresh_answers(self, monkeypatch):
        corpus = []
        answer_wire = AuthoritativeServer.answer_wire

        def recorded(server, wire, tcp=False):
            hits = server.memo_hits
            response = answer_wire(server, wire, tcp)
            corpus.append((server.server_id, wire, tcp, response, server.memo_hits > hits))
            return response

        monkeypatch.setattr(AuthoritativeServer, "answer_wire", recorded)
        campaign = run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))
        monkeypatch.undo()
        assert campaign.rechecked

        replica = {server.server_id: server for server in servers_of(build_world(scale=SCALE, seed=SEED))}
        kinds = {"plain": [0, 0], "pure": [0, 0], "stateful": [0, 0]}
        for server_id, wire, tcp, response, hit in corpus:
            server = replica[server_id]
            if not server.behaviors:
                kind = "plain"
            elif all(behavior.memo_key is not None for behavior in server.behaviors):
                kind = "pure"
            else:
                kind = "stateful"
            kinds[kind][0] += 1
            kinds[kind][1] += hit
            assert self.fresh_wire(server, wire, tcp) == response, (server_id, wire)
        assert kinds["plain"][1] > 1000 and kinds["pure"][1] > 0
        assert kinds["stateful"][0] > 0 and kinds["stateful"][1] == 0
