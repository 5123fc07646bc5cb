"""Unit tests for the cache, stub resolver, and iterative resolver."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.resolver import DnsCache, IterativeResolver, ResolutionError

from tests.helpers import OP_IP_1, OP_IP_2, ROOT_IP


class TestCache:
    def make(self):
        self.time = 0.0
        return DnsCache(now=lambda: self.time)

    def test_put_get(self):
        cache = self.make()
        rrset = RRset("a.test", RRType.A, 300, [A("192.0.2.1")])
        cache.put([rrset])
        got = cache.get(Name.from_text("a.test"), RRType.A)
        assert got and got[0].rdatas[0].address == "192.0.2.1"
        assert cache.hits == 1

    def test_expiry(self):
        cache = self.make()
        cache.put([RRset("a.test", RRType.A, 300, [A("192.0.2.1")])])
        self.time = 301
        assert cache.get(Name.from_text("a.test"), RRType.A) is None

    def test_negative(self):
        cache = self.make()
        cache.put_negative(Name.from_text("a.test"), RRType.AAAA, 60)
        assert cache.is_negative(Name.from_text("a.test"), RRType.AAAA)
        self.time = 61
        assert not cache.is_negative(Name.from_text("a.test"), RRType.AAAA)

    def test_positive_clears_negative(self):
        cache = self.make()
        name = Name.from_text("a.test")
        cache.put_negative(name, RRType.A, 60)
        cache.put([RRset(name, RRType.A, 300, [A("192.0.2.1")])])
        assert not cache.is_negative(name, RRType.A)

    def test_min_ttl_of_group(self):
        cache = self.make()
        cache.put(
            [
                RRset("a.test", RRType.A, 100, [A("192.0.2.1")]),
                RRset("a.test", RRType.A, 50, [A("192.0.2.2")]),
            ]
        )
        self.time = 75
        assert cache.get(Name.from_text("a.test"), RRType.A) is None

    def test_clear_and_len(self):
        cache = self.make()
        cache.put([RRset("a.test", RRType.A, 300, [A("192.0.2.1")])])
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


@pytest.fixture
def resolver(mini_world):
    return IterativeResolver(mini_world["network"], mini_world["root_ips"])


class TestIterative:
    def test_resolve_a_record(self, resolver):
        result = resolver.resolve("www.example.com", RRType.A)
        assert result.rcode == Rcode.NOERROR
        assert result.rrset(RRType.A).rdatas[0].address == "192.0.2.80"
        assert result.authoritative

    def test_nxdomain(self, resolver):
        result = resolver.resolve("nothere.example.com", RRType.A)
        assert result.rcode == Rcode.NXDOMAIN

    def test_nxdomain_tld_level(self, resolver):
        result = resolver.resolve("zone.nonexistenttld", RRType.A)
        assert result.rcode == Rcode.NXDOMAIN

    def test_resolve_addresses_uses_glue_chain(self, resolver):
        ips = resolver.resolve_addresses(Name.from_text("ns1.opdns.net"))
        assert OP_IP_1 in ips
        assert "2001:db8::10" in ips

    def test_cache_reduces_queries(self, mini_world):
        resolver = IterativeResolver(mini_world["network"], mini_world["root_ips"])
        network = mini_world["network"]
        resolver.resolve_addresses(Name.from_text("ns1.opdns.net"))
        before = network.queries_sent
        resolver.resolve_addresses(Name.from_text("ns1.opdns.net"))
        assert network.queries_sent == before  # fully cached

    def test_find_delegation_signed(self, resolver):
        delegation = resolver.find_delegation("example.com")
        assert delegation.parent == Name.from_text("com")
        assert delegation.nameserver_names == [
            Name.from_text("ns1.opdns.net"),
            Name.from_text("ns2.opdns.net"),
        ]
        assert delegation.ds_rrset is not None and len(delegation.ds_rrset) == 1
        assert delegation.ds_rrsigs is not None

    def test_find_delegation_unsigned(self, resolver):
        delegation = resolver.find_delegation("unsigned.com")
        assert delegation.ds_rrset is None
        assert delegation.nameserver_names  # NS present

    def test_find_delegation_island_has_no_ds(self, resolver):
        delegation = resolver.find_delegation("island.com")
        assert delegation.ds_rrset is None

    def test_find_delegation_nonexistent(self, resolver):
        with pytest.raises(ResolutionError):
            resolver.find_delegation("missing-zone.com")

    def test_resolve_cds_from_signal_zone(self, resolver):
        result = resolver.resolve("_dsboot.island.com._signal.ns1.opdns.net", RRType.CDS)
        assert result.rcode == Rcode.NOERROR
        assert result.rrset(RRType.CDS) is not None

    def test_resolution_error_when_everything_dark(self, mini_world):
        resolver = IterativeResolver(mini_world["network"], ["10.254.0.1"])
        with pytest.raises(ResolutionError):
            resolver.resolve("www.example.com", RRType.A)
