"""Edge cases across modules that the focused suites don't reach."""

import pytest

from repro.dns.message import Message, Question, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import A, CDS, NS, SOA
from repro.dns.rrset import RR, RRset
from repro.dns.types import Opcode, RClass, Rcode, RRType
from repro.dns.zone import Zone


class TestRRTypeEnum:
    def test_from_text_mnemonic(self):
        assert RRType.from_text("cds") == RRType.CDS
        assert RRType.from_text(" CDNSKEY ") == RRType.CDNSKEY

    def test_from_text_numeric(self):
        assert int(RRType.from_text("TYPE65000")) == 65000

    def test_from_text_unknown(self):
        with pytest.raises(ValueError):
            RRType.from_text("NOTATYPE")

    def test_make_out_of_range(self):
        with pytest.raises(ValueError):
            RRType.make(70000)

    def test_pseudo_member_name(self):
        assert RRType.make(65000).name == "TYPE65000"

    def test_rclass_make_unknown(self):
        assert RClass.make(200).name == "CLASS200"

    def test_rcode_make_unknown(self):
        assert Rcode.make(23).name == "RCODE23"

    def test_opcode_make_unknown(self):
        assert Opcode.make(7).name == "OPCODE7"


class TestRRAndQuestion:
    def test_rr_identity(self):
        rr1 = RR("x.test", 300, A("192.0.2.1"))
        rr2 = RR("X.TEST", 300, A("192.0.2.1"))
        assert rr1 == rr2
        assert hash(rr1) == hash(rr2)

    def test_rr_text(self):
        assert RR("x.test", 60, A("192.0.2.9")).to_text() == "x.test. 60 IN A 192.0.2.9"

    def test_question_hashable(self):
        a = Question("x.test", RRType.A)
        b = Question("X.test", RRType.A)
        assert a == b and hash(a) == hash(b)
        assert a != Question("x.test", RRType.NS)

    def test_rrset_bool_and_len(self):
        rrset = RRset("x.test", RRType.A, 300)
        assert not rrset and len(rrset) == 0
        rrset.add(A("192.0.2.1"))
        assert rrset and len(rrset) == 1

    def test_rrset_records_expansion(self):
        rrset = RRset("x.test", RRType.A, 300, [A("192.0.2.1"), A("192.0.2.2")])
        records = rrset.records()
        assert len(records) == 2
        assert all(record.ttl == 300 for record in records)

    def test_same_rdata_cross_type_false(self):
        a = RRset("x.test", RRType.A, 300, [A("192.0.2.1")])
        ns = RRset("x.test", RRType.NS, 300, [NS("ns.x.test")])
        assert not a.same_rdata_as(ns)


class TestMessageSectionHelpers:
    def make(self):
        query = make_query("x.test", RRType.A, msg_id=1)
        response = make_response(query)
        response.answer.append(RRset("x.test", RRType.A, 60, [A("192.0.2.1")]))
        response.answer.append(RRset("x.test", RRType.NS, 60, [NS("ns.x.test")]))
        return response

    def test_get_rrset_found(self):
        response = self.make()
        rrset = response.get_rrset(response.answer, Name.from_text("x.test"), RRType.A)
        assert rrset is not None and rrset.rdatas[0].address == "192.0.2.1"

    def test_get_rrset_missing(self):
        response = self.make()
        assert response.get_rrset(response.answer, Name.from_text("x.test"), RRType.MX) is None

    def test_find_rrsets_multiple(self):
        response = self.make()
        assert len(response.find_rrsets(response.answer, Name.from_text("x.test"), RRType.A)) == 1

    def test_repr_forms(self):
        response = self.make()
        assert "resp" in repr(response)
        assert "x.test" in repr(response.question)


class TestZoneMisc:
    def test_iter_rrsets_canonical(self):
        zone = Zone("it.test")
        zone.add("it.test", 300, SOA("ns1.it.test", "h.it.test", 1))
        zone.add("b.it.test", 300, A("192.0.2.2"))
        zone.add("a.it.test", 300, A("192.0.2.1"))
        owners = [rrset.name.to_text() for rrset in zone.iter_rrsets()]
        assert owners == ["it.test.", "a.it.test.", "b.it.test."]

    def test_len_counts_rrsets(self):
        zone = Zone("len.test")
        zone.add("len.test", 300, SOA("ns1.len.test", "h.len.test", 1))
        zone.add("len.test", 300, NS("ns1.len.test"))
        assert len(zone) == 2

    def test_node_rrsets(self):
        zone = Zone("node.test")
        zone.add("node.test", 300, SOA("ns1.node.test", "h.node.test", 1))
        zone.add("node.test", 300, NS("ns1.node.test"))
        assert len(zone.node_rrsets(Name.from_text("node.test"))) == 2

    def test_cds_at_apex_is_answerable(self):
        zone = Zone("apex.test")
        zone.add("apex.test", 300, SOA("ns1.apex.test", "h.apex.test", 1))
        zone.add("apex.test", 300, CDS(0, 0, 0, b"\x00"))
        result = zone.lookup(Name.from_text("apex.test"), RRType.CDS)
        assert result.rrset.rdatas[0].is_delete


class TestResolverStepHelpers:
    def test_find_delegation_below_direct(self, mini_world):
        from repro.resolver import IterativeResolver

        resolver = IterativeResolver(mini_world["network"], mini_world["root_ips"])
        step = resolver._run(  # the facades' own driver: one loop, these steps
            resolver.find_delegation_below_steps(
                Name.from_text("www.example.com"), Name.root(), mini_world["root_ips"]
            )
        )
        assert step is not None
        cut, ds_rrset, _, next_servers = step
        assert cut == Name.from_text("com")
        assert ds_rrset is not None  # com is signed
        assert next_servers

    def test_find_delegation_below_authoritative_end(self, mini_world):
        from repro.resolver import IterativeResolver
        from tests.helpers import OP_IP_1

        resolver = IterativeResolver(mini_world["network"], mini_world["root_ips"])
        step = resolver._run(
            resolver.find_delegation_below_steps(
                Name.from_text("www.example.com"), Name.from_text("example.com"), [OP_IP_1]
            )
        )
        assert step is None  # the operator answers authoritatively


class TestScannerResultViews:
    def test_rrqueryresult_flags(self):
        from repro.scanner.results import QueryStatus, RRQueryResult

        ok_empty = RRQueryResult(QueryStatus.OK, rcode=Rcode.NOERROR, rrset=None)
        assert ok_empty.answered and not ok_empty.has_data
        nx = RRQueryResult(QueryStatus.NXDOMAIN, rcode=Rcode.NXDOMAIN)
        assert nx.answered
        timeout = RRQueryResult(QueryStatus.TIMEOUT)
        assert not timeout.answered

    def test_zone_scan_result_keys(self):
        from repro.scanner.results import ZoneScanResult

        result = ZoneScanResult(zone=Name.from_text("k.test"))
        assert result.key() == "k.test."
        assert not result.any_cds_answer
        assert not result.has_signal


class TestAllocatorInternals:
    def test_minimum_overshoot_shaved(self):
        # Preserved minimums exceeding the target get balanced by
        # shaving the largest non-preserved cells.
        from repro.ecosystem.allocator import scale_cells
        from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario

        cells = [
            Cell("big", StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, 1_000_000),
        ] + [
            Cell(f"rare{i}", StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, 1, preserve=True)
            for i in range(5)
        ]
        scaled = scale_cells(cells, 3 / 1_000_005)
        assert sum(c.count for c in scaled) >= 5  # minimums kept
        by_op = {c.operator: c.count for c in scaled}
        for i in range(5):
            assert by_op.get(f"rare{i}", 0) == 1


class TestWorldApi:
    def test_scanner_config_carries_anycast(self):
        from repro.ecosystem import build_world

        world = build_world(scale=1e-6, seed=61)
        config = world.scanner_config()
        assert Name.from_text("ns.cloudflare.com") in config.anycast_ns_suffixes
        assert world.zone_count == len(world.scan_list)
