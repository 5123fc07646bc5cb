"""Unit/integration tests for the YoDNS-style scanner."""

import pytest

from repro.dns.name import Name
from repro.dns.types import RRType
from repro.scanner import (
    AnycastSamplingPolicy,
    QueryStatus,
    RateLimiter,
    Scanner,
    ScannerConfig,
)
from repro.scanner.results import make_signal_name
from repro.server.network import SimulatedClock

from tests.helpers import OP_IP_1


@pytest.fixture(scope="module")
def scanner(mini_world):
    return Scanner(mini_world["network"], mini_world["root_ips"])


@pytest.fixture(scope="module")
def island_result(scanner):
    return scanner.scan_zone("island.com")


class TestRateLimiter:
    def test_burst_then_wait(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=2)
        assert limiter.acquire("10.0.0.1") == 0.0
        assert limiter.acquire("10.0.0.1") == 0.0
        waited = limiter.acquire("10.0.0.1")
        assert waited > 0
        assert clock.now() == pytest.approx(waited)

    def test_per_ip_isolation(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=1, burst=1)
        limiter.acquire("10.0.0.1")
        assert limiter.acquire("10.0.0.2") == 0.0  # separate bucket

    def test_refill_over_time(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        limiter.acquire("10.0.0.1")
        clock.advance(1.0)
        assert limiter.acquire("10.0.0.1") == 0.0

    def test_sustained_rate(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=50)
        for _ in range(500):
            limiter.acquire("10.0.0.1")
        # 500 queries at 50 qps should take ~9-10 simulated seconds.
        assert 8.0 < clock.now() < 11.0

    def test_invalid_qps(self):
        with pytest.raises(ValueError):
            RateLimiter(SimulatedClock(), qps=0)


class TestSampling:
    def make_addresses(self):
        return {
            Name.from_text("asa.ns.cfdns.test"): ["1.1.1.1", "1.1.1.2", "1.1.1.3", "2606::1", "2606::2", "2606::3"],
            Name.from_text("bob.ns.cfdns.test"): ["1.0.0.1", "1.0.0.2", "1.0.0.3", "2606::11", "2606::12", "2606::13"],
        }

    def test_reduced_scan_takes_one_v4_one_v6(self):
        policy = AnycastSamplingPolicy([Name.from_text("ns.cfdns.test")], full_scan_fraction=0.0)
        pairs, sampled = policy.select(Name.from_text("any.example"), self.make_addresses())
        assert sampled
        assert len(pairs) == 2
        families = {":" in ip for _, ip in pairs}
        assert families == {True, False}

    def test_full_scan_fraction_one(self):
        policy = AnycastSamplingPolicy([Name.from_text("ns.cfdns.test")], full_scan_fraction=1.0)
        pairs, sampled = policy.select(Name.from_text("any.example"), self.make_addresses())
        assert not sampled
        assert len(pairs) == 12

    def test_non_anycast_never_sampled(self):
        policy = AnycastSamplingPolicy([Name.from_text("ns.cfdns.test")], full_scan_fraction=0.0)
        addresses = {Name.from_text("ns1.other.test"): ["10.0.0.1"]}
        pairs, sampled = policy.select(Name.from_text("any.example"), addresses)
        assert not sampled and len(pairs) == 1

    def test_mixed_operators_never_sampled(self):
        policy = AnycastSamplingPolicy([Name.from_text("ns.cfdns.test")], full_scan_fraction=0.0)
        addresses = self.make_addresses()
        addresses[Name.from_text("ns1.other.test")] = ["10.0.0.1"]
        _, sampled = policy.select(Name.from_text("any.example"), addresses)
        assert not sampled

    def test_deterministic_bucket(self):
        policy = AnycastSamplingPolicy([Name.from_text("ns.cfdns.test")], full_scan_fraction=0.05)
        zone = Name.from_text("some.example")
        assert policy.wants_full_scan(zone) == policy.wants_full_scan(zone)

    def test_bucket_fraction_roughly_respected(self):
        policy = AnycastSamplingPolicy([Name.from_text("ns.cfdns.test")], full_scan_fraction=0.05)
        full = sum(
            policy.wants_full_scan(Name.from_text(f"zone{i}.example")) for i in range(2000)
        )
        assert 40 <= full <= 180  # ~5 % of 2000, generous bounds


class TestSignalNames:
    def test_construction(self):
        name = make_signal_name(
            Name.from_text("example.co.uk"), Name.from_text("ns1.example.net")
        )
        assert name.to_text() == "_dsboot.example.co.uk._signal.ns1.example.net."

    def test_too_long_returns_none(self):
        zone = Name.from_text(".".join(["a" * 60] * 3) + ".example")
        ns = Name.from_text(".".join(["b" * 60] * 3) + ".example")
        assert make_signal_name(zone, ns) is None


class TestScanZone:
    def test_signed_zone(self, scanner):
        result = scanner.scan_zone("example.com")
        assert result.resolved
        assert result.ds.has_data
        assert result.dnskey.has_data
        assert result.dnskey.rrsigs  # RRSIG collected alongside
        assert not result.has_cds
        assert result.delegation_ns == [
            Name.from_text("ns1.opdns.net"),
            Name.from_text("ns2.opdns.net"),
        ]

    def test_unsigned_zone(self, scanner):
        result = scanner.scan_zone("unsigned.com")
        assert result.resolved
        assert not result.ds.has_data
        assert not result.dnskey.has_data

    def test_island_with_cds_and_signal(self, island_result):
        assert island_result.resolved
        assert not island_result.ds.has_data
        assert island_result.dnskey.has_data
        assert island_result.has_cds
        assert island_result.has_signal
        # CDS queried from every NS address (2 hosts x 2 address families).
        assert len(island_result.cds_by_ns) == 4

    def test_cds_consistent_across_ns(self, island_result):
        rrsets = [r.rrset for _, r in island_result.cds_rrsets() if r.has_data]
        assert len(rrsets) == 4
        assert all(rrsets[0].same_rdata_as(other) for other in rrsets[1:])

    def test_signal_scan_contents(self, island_result):
        assert len(island_result.signals) == 2
        scan = island_result.signals[0]
        assert scan.signal_zone_apex == Name.from_text("_signal.ns1.opdns.net")
        assert scan.any_cds
        assert not scan.zone_cuts
        chain_zones = [str(link.zone) for link in scan.chain]
        assert chain_zones == [".", "net.", "opdns.net.", "_signal.ns1.opdns.net."]
        # Every non-root link carries DS + DNSKEY.
        for link in scan.chain[1:]:
            assert link.ds_rrset is not None
            assert link.dnskey_rrset is not None

    def test_nonexistent_zone(self, scanner):
        result = scanner.scan_zone("doesnotexist.com")
        assert not result.resolved
        assert result.error

    def test_queries_are_counted(self, island_result):
        assert island_result.queries_used > 0

    def test_scan_many(self, scanner):
        results = scanner.scan_many(["example.com", "unsigned.com"])
        assert [r.zone.to_text() for r in results] == ["example.com.", "unsigned.com."]

    def test_scan_many_delegates_to_scan_iter(self, scanner):
        """scan_many is the eager twin of scan_iter: same skip semantics,
        same sink callback, same results in the same order."""
        zones = ["example.com", "unsigned.com", "island.com"]
        skip = {"unsigned.com."}
        sunk = []
        eager = scanner.scan_many(zones, skip=skip, sink=sunk.append)
        lazy = list(scanner.scan_iter(zones, skip=skip))
        assert [r.zone.to_text() for r in eager] == ["example.com.", "island.com."]
        assert sunk == eager
        assert [r.zone for r in lazy] == [r.zone for r in eager]
        assert [r.cds_by_ns for r in lazy] == [r.cds_by_ns for r in eager]

    def test_rate_limit_advances_clock(self, mini_world):
        # A cold scanner with a tiny rate limit must advance the clock.
        scanner = Scanner(mini_world["network"], mini_world["root_ips"])
        scanner.limiter = scanner.resolver.limiter = RateLimiter(mini_world["network"].clock, qps=5.0)
        before = mini_world["network"].clock.now()
        scanner.scan_zone("example.com")
        assert mini_world["network"].clock.now() > before

    def test_no_destination_sees_more_than_50_qps(self):
        # The sustained rate plus the initial burst (one bucket) bounds
        # every server's load from one scan machine.
        from repro.ecosystem import build_world

        world = build_world(scale=2e-6, seed=17)
        world.make_scanner().scan_many(world.scan_list[:60])
        worst = max(world.network.per_ip_queries.values())
        assert worst <= 50 * world.network.clock.now() + 50

    def test_classify_error_rcode(self, scanner):
        from repro.dns.message import Message, make_query, make_response
        from repro.dns.types import Rcode

        query = make_query("x.test", RRType.CDS)
        response = make_response(query, Rcode.SERVFAIL)
        result = scanner._classify(response, Name.from_text("x.test"), RRType.CDS)
        assert result.status == QueryStatus.ERROR
        assert result.rcode == Rcode.SERVFAIL
