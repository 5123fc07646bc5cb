"""Denial proofs search a zone's owners once.

An NXDOMAIN or wildcard answer carries the NSEC (or NSEC3) whose span
covers the queried name.  The server finds it with one bisect over the
owners holding that type, in canonical order, sorted once per zone
content (:meth:`repro.dns.zone.Zone.preceding`).  These tests compare
that search with a brute-force scan of every owner, kept here, for
every owner and for names that do not exist, in an NSEC zone and an
NSEC3 zone, and check that an edit or a copy never serves a stale order.
"""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import A, NS, SOA, TXT
from repro.dns.types import RRType
from repro.dns.zone import Zone
from repro.dnssec import Algorithm, KeyPair, sign_zone
from repro.dnssec.nsec import nsec3_hash, nsec3_label_to_hash
from repro.server import AuthoritativeServer

APEX = Name.from_text("proof.test")


def brute_nsec(zone, qname):
    """The NSEC of the canonically greatest owner at or before *qname*."""
    key = qname.canonical_key()
    best = None
    for name in zone.names():
        nsec = zone.get_rrset(name, RRType.NSEC)
        if nsec is not None and name.canonical_key() <= key:
            best = nsec
    return best


def brute_nsec3(zone, qname):
    """The NSEC3 with the greatest owner hash at or before *qname*'s
    hash; the greatest of all when none is (the chain wraps)."""
    param = zone.get_rrset(zone.origin, RRType.NSEC3PARAM).rdatas[0]
    target = nsec3_hash(qname, param.salt, param.iterations)
    chain = sorted(
        (
            (nsec3_label_to_hash(name.labels[0]), zone.get_rrset(name, RRType.NSEC3))
            for name in zone.names()
            if zone.get_rrset(name, RRType.NSEC3) is not None
        ),
        key=lambda pair: pair[0],
    )
    covering = [rrset for owner_hash, rrset in chain if owner_hash <= target]
    return covering[-1] if covering else chain[-1][1]


def build(denial):
    zone = Zone(APEX)
    zone.add(APEX, 300, SOA("ns1.proof.test", "h.proof.test", 1))
    zone.add(APEX, 300, NS("ns1.proof.test"))
    zone.add("ns1.proof.test", 300, A("192.0.2.53"))
    for label in ("alpha", "bravo", "mike", "papa", "zulu", "b.mike", "x.y.papa"):
        zone.add(f"{label}.proof.test", 300, A("192.0.2.1"))
    zone.add("*.wild.proof.test", 300, TXT(["wild"]))
    # A delegation with glue: the glue owner holds no NSEC.
    zone.add("sub.proof.test", 300, NS("ns.sub.proof.test"))
    zone.add("ns.sub.proof.test", 300, A("192.0.2.54"))
    key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=f"proof-{denial}".encode())
    sign_zone(zone, [key], denial=denial)
    return zone


def probes(zone):
    """Every owner, and names that do not exist around and below each."""
    names = [APEX.child("0"), APEX.child("zzzz"), APEX.child("*")]
    for owner in zone.names():
        names += [owner, owner.child("a"), owner.child("zzz"), owner.child("*")]
        if owner != APEX:
            label = owner.labels[0]
            parent = owner.parent()
            names += [parent.child(b"0" + label), parent.child(label + b"-x")]
    return names


@pytest.fixture(scope="module", params=["nsec", "nsec3"])
def signed(request):
    return request.param, build(request.param)


def covering(server, zone, denial, qname):
    if denial == "nsec":
        return server._covering_nsec(zone, qname), brute_nsec(zone, qname)
    return server._covering_nsec3(zone, qname), brute_nsec3(zone, qname)


def test_the_bisect_finds_what_a_full_scan_finds(signed):
    denial, zone = signed
    server = AuthoritativeServer()
    names = probes(zone)
    assert len(names) > 60
    for qname in names:
        found, expected = covering(server, zone, denial, qname)
        assert expected is not None, qname
        assert found is expected, qname


def test_the_nsec3_chain_wraps_and_an_nsec_zone_has_no_nsec3(signed):
    denial, zone = signed
    server = AuthoritativeServer()
    if denial == "nsec":
        assert server._covering_nsec3(zone, APEX.child("nope")) is None
        return
    assert server._covering_nsec(zone, APEX.child("nope")) is None
    param = zone.get_rrset(APEX, RRType.NSEC3PARAM).rdatas[0]
    hashes = [nsec3_hash(q, param.salt, param.iterations) for q in probes(zone)]
    first = min(
        nsec3_label_to_hash(n.labels[0]) for n in zone.names() if zone.get_rrset(n, RRType.NSEC3)
    )
    assert any(h < first for h in hashes), "no probe exercises the wrap-around"


def test_an_edit_or_a_copy_never_serves_a_stale_order(signed):
    denial, zone = signed
    rrtype = RRType.NSEC if denial == "nsec" else RRType.NSEC3
    server = AuthoritativeServer()
    names = probes(zone)
    before = [covering(server, zone, denial, q)[0] for q in names]  # warms the order
    copy = zone.copy()
    dropped = next(n for n in zone.names() if n != APEX and zone.get_rrset(n, rrtype))
    copy.remove_rrset(dropped, rrtype)
    for qname in names:
        found, expected = covering(server, copy, denial, qname)
        assert found is expected, qname
        assert found is None or found.name != dropped, qname
    assert [covering(server, zone, denial, q)[0] for q in names] == before
