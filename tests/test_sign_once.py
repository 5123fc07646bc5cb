"""Sign once.

An operator's servers share one materialised customer zone per
``(apex, content variant)``: the host only picks the CDS variant of an
INCONSISTENT zone and the signer of a MULTISIGNER one, so every other
zone is built and signed once however many of the operator's servers
are asked.  These tests pin what that sharing may and may not change.
"""

from dataclasses import replace

import pytest

import repro.ecosystem.generator as generator
from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dns.types import RRType
from repro.ecosystem import mutate
from repro.ecosystem.generator import secondary_keys, zone_keys
from repro.ecosystem.spec import CdsScenario
from repro.ecosystem.world import build_world

SCALE = 5e-7
SEED = 3
PLAIN = "godaddy-island-ok-none-3000069.com"
INCONSISTENT = "masshost-6-island-inconsistent-none-3000114.nl"
#: Its NS churn keeps ns1 (which moves from first to second place).
CHURNED = "googledomains-secure-ok-none-3000076.de"


@pytest.fixture
def world():
    return build_world(scale=SCALE, seed=SEED)


@pytest.fixture
def built(monkeypatch):
    """The ``(zone, host)`` of every customer-zone materialisation."""
    calls = []
    real = generator.materialize_customer_zone

    def counting(spec, host):
        calls.append((spec.name, host))
        return real(spec, host)

    monkeypatch.setattr(generator, "materialize_customer_zone", counting)
    return calls


def ask(world, host, zone, rrtype):
    ip = world.operators[world.plan.host_owner[host]].host_ips[host][0]
    return world.network.query(ip, make_query(zone, rrtype))


def answer(response, zone, rrtype):
    return response.get_rrset(response.answer, Name.from_text(zone), rrtype)


def signer_tags(response, zone, rrtype):
    sigs = answer(response, zone, RRType.RRSIG).rdatas
    return {sig.key_tag for sig in sigs if int(sig.type_covered) == int(rrtype)}


def two_servers(world, spec):
    """The zone is on two distinct servers of one operator."""
    owners = {world.plan.host_owner[host] for host in spec.ns_hosts}
    runtime = world.operators[spec.operator]
    servers = {id(runtime.server_for(host)) for host in spec.ns_hosts}
    return owners == {spec.operator} and len(servers) == len(spec.ns_hosts) == 2


class TestOneZonePerContent:
    def test_a_plain_zone_on_two_servers_is_signed_once(self, world, built):
        spec = world.specs[PLAIN]
        assert spec.is_signed and two_servers(world, spec)
        soas = [answer(ask(world, host, PLAIN, RRType.SOA), PLAIN, RRType.SOA)
                for host in spec.ns_hosts]  # fmt: skip
        assert soas[0] == soas[1]
        assert built == [(PLAIN, spec.ns_hosts[0])]

    def test_inconsistent_hosts_still_serve_different_cds(self, world, built):
        spec = world.specs[INCONSISTENT]
        assert spec.cds == CdsScenario.INCONSISTENT and two_servers(world, spec)
        cds = [set(answer(ask(world, host, INCONSISTENT, RRType.CDS), INCONSISTENT,
                          RRType.CDS).rdatas) for host in spec.ns_hosts]  # fmt: skip
        assert cds[0] != cds[1]
        assert len(built) == 2

    def test_multisigner_hosts_sign_with_their_own_keys(self, world, built):
        spec = world.specs[PLAIN]
        multi = world.specs[PLAIN] = replace(spec, cds=CdsScenario.MULTISIGNER)
        tags = [signer_tags(ask(world, host, PLAIN, RRType.DNSKEY), PLAIN, RRType.DNSKEY)
                for host in spec.ns_hosts]  # fmt: skip
        assert tags == [{zone_keys(multi).key_tag}, {secondary_keys(multi).key_tag}]
        assert len(built) == 2


class TestReplacedSpecs:
    def test_no_zone_built_from_a_replaced_spec_is_served(self, world, built):
        old = world.specs[CHURNED]
        for host in old.ns_hosts:
            assert ask(world, host, CHURNED, RRType.SOA).answer
        new = mutate.apply_event(world, "churn_ns", CHURNED)
        assert set(old.ns_hosts) & set(new.ns_hosts), "the churn keeps a host"
        for host in new.ns_hosts:
            soa = answer(ask(world, host, CHURNED, RRType.SOA), CHURNED, RRType.SOA)
            ns = answer(ask(world, host, CHURNED, RRType.NS), CHURNED, RRType.NS)
            assert soa.rdatas[0].serial == new.serial
            assert {rd.target for rd in ns} == {Name.from_text(h) for h in new.ns_hosts}
        assert len(built) == 2  # one zone per spec
