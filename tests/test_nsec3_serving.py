"""NSEC3-signed zones: serving and proof verification end to end."""

import pytest

from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dns.rdata import A, NS, SOA, TXT
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.dnssec import Algorithm, KeyPair, sign_zone, validate_rrset
from repro.dnssec.denial import verify_denial, verify_nodata_nsec3, verify_nxdomain_nsec3
from repro.dnssec.nsec import nsec3_hash_label, nsec3_label_to_hash
from repro.dnssec.validator import extract_rrsigs
from repro.server import AuthoritativeServer

APEX = Name.from_text("n3.test")


@pytest.fixture(scope="module")
def served():
    zone = Zone(APEX)
    zone.add(APEX, 300, SOA("ns1.n3.test", "h.n3.test", 1))
    zone.add(APEX, 300, NS("ns1.n3.test"))
    zone.add("alpha.n3.test", 300, A("192.0.2.1"))
    zone.add("bravo.n3.test", 300, A("192.0.2.2"))
    zone.add("papa.n3.test", 300, TXT(["x"]))
    key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"nsec3-serve")
    sign_zone(zone, [key], denial="nsec3")
    server = AuthoritativeServer()
    server.add_zone(zone)
    return zone, server, key


def nsec3_sets(response):
    return [r for r in response.authority if int(r.rrtype) == int(RRType.NSEC3)]


class TestHashLabels:
    def test_label_round_trip(self):
        label = nsec3_hash_label(APEX, b"\xca\xfe", 4)
        from repro.dnssec.nsec import nsec3_hash

        assert nsec3_label_to_hash(label) == nsec3_hash(APEX, b"\xca\xfe", 4)


class TestNsec3Zone:
    def test_chain_signed(self, served):
        zone, _, key = served
        nsec3_owners = [n for n in zone.names() if zone.get_rrset(n, RRType.NSEC3)]
        assert len(nsec3_owners) == 4  # apex, alpha, bravo, papa
        for owner in nsec3_owners:
            rrset = zone.get_rrset(owner, RRType.NSEC3)
            sigs = extract_rrsigs(zone.get_rrset(owner, RRType.RRSIG))
            assert validate_rrset(rrset, sigs, [key.dnskey()]).ok, owner

    def test_no_nsec_records(self, served):
        zone, _, _ = served
        assert all(zone.get_rrset(n, RRType.NSEC) is None for n in zone.names())

    def test_positive_answer_unaffected(self, served):
        _, server, key = served
        response = server.handle_query(make_query("alpha.n3.test", RRType.A))
        assert response.rcode == Rcode.NOERROR
        assert response.answer


class TestNsec3Proofs:
    def test_nxdomain_carries_verifiable_proof(self, served):
        _, server, _ = served
        response = server.handle_query(make_query("zulu.n3.test", RRType.A))
        assert response.rcode == Rcode.NXDOMAIN
        proof = nsec3_sets(response)
        assert proof
        result = verify_nxdomain_nsec3(Name.from_text("zulu.n3.test"), APEX, proof)
        assert result.proven, result.reason

    @pytest.mark.parametrize("qname", ["x.alpha.n3.test", "q.r.alpha.n3.test"])
    def test_nxdomain_below_an_existing_name_proves_its_closest_encloser(self, served, qname):
        # RFC 5155 §7.2.1: the encloser is alpha, not the apex, and the
        # covered name is the next-closer one, not the qname.
        _, server, _ = served
        response = server.handle_query(make_query(qname, RRType.A))
        assert response.rcode == Rcode.NXDOMAIN
        result = verify_nxdomain_nsec3(Name.from_text(qname), APEX, nsec3_sets(response))
        assert result.proven, result.reason
        assert "closest encloser alpha.n3.test." in result.reason

    def test_nodata_carries_verifiable_proof(self, served):
        _, server, _ = served
        response = server.handle_query(make_query("alpha.n3.test", RRType.TXT))
        assert response.rcode == Rcode.NOERROR and not response.answer
        proof = nsec3_sets(response)
        assert proof
        result = verify_nodata_nsec3(
            Name.from_text("alpha.n3.test"), RRType.TXT, APEX, proof
        )
        assert result.proven, result.reason

    def test_dispatch_detects_nsec3(self, served):
        _, server, _ = served
        response = server.handle_query(make_query("zulu.n3.test", RRType.A))
        result = verify_denial(
            Name.from_text("zulu.n3.test"), RRType.A, APEX, nsec3_sets(response), nxdomain=True
        )
        assert result.proven

    def test_forged_nxdomain_rejected(self, served):
        zone, _, _ = served
        all_nsec3 = [
            zone.get_rrset(n, RRType.NSEC3)
            for n in zone.names()
            if zone.get_rrset(n, RRType.NSEC3)
        ]
        # alpha exists: its hash matches an NSEC3 owner, so the
        # next-closer coverage check must fail.
        result = verify_nxdomain_nsec3(Name.from_text("alpha.n3.test"), APEX, all_nsec3)
        assert not result.proven

    def test_forged_nodata_rejected(self, served):
        zone, _, _ = served
        all_nsec3 = [
            zone.get_rrset(n, RRType.NSEC3)
            for n in zone.names()
            if zone.get_rrset(n, RRType.NSEC3)
        ]
        result = verify_nodata_nsec3(Name.from_text("alpha.n3.test"), RRType.A, APEX, all_nsec3)
        assert not result.proven
        assert "claims A exists" in result.reason

    def test_proofs_signed(self, served):
        _, server, key = served
        response = server.handle_query(make_query("zulu.n3.test", RRType.A))
        for rrset in nsec3_sets(response):
            sig_sets = [
                r
                for r in response.authority
                if int(r.rrtype) == int(RRType.RRSIG) and r.name == rrset.name
            ]
            assert sig_sets, rrset.name
            sigs = [
                s for s in sig_sets[0].rdatas if int(s.type_covered) == int(RRType.NSEC3)
            ]
            assert validate_rrset(rrset, sigs, [key.dnskey()]).ok
