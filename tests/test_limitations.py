"""Tests for the RFC 9615 limitations the paper lists (§2, "DS
Bootstrapping Limitations"): in-domain-only nameservers and signaling
names exceeding 255 octets."""

import pytest

from repro.core import SignalOutcome, assess_zone
from repro.dns import A, NS, Name, RRType, RRset, SOA, Zone
from repro.dnssec import Algorithm, KeyPair, ds_from_dnskey, sign_zone
from repro.dnssec.ds import cds_from_dnskey
from repro.scanner import Scanner
from repro.scanner.results import make_signal_name
from repro.server import AuthoritativeServer, SimulatedNetwork

ZONE = "selfhosted.com"
IN_NS = f"ns1.{ZONE}"


@pytest.fixture(scope="module")
def in_domain_world():
    """An island whose only NS lives inside the zone itself."""
    network = SimulatedNetwork()
    key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"selfhost")

    zone = Zone(ZONE)
    zone.add(ZONE, 3600, SOA(IN_NS, f"h.{ZONE}", 1))
    zone.add(ZONE, 3600, NS(IN_NS))
    zone.add(IN_NS, 3600, A("203.0.113.50"))
    cds = cds_from_dnskey(Name.from_text(ZONE), key.dnskey())
    zone.add_rrset(RRset(ZONE, RRType.CDS, 3600, [cds]))
    # The operator even publishes signaling RRs inside its own zone —
    # but they can never be authenticated: the chain to them runs
    # through the island itself.
    boot = Name.from_text(f"_dsboot.{ZONE}._signal.{IN_NS}")
    zone.add_rrset(RRset(boot, RRType.CDS, 3600, [cds]))
    sign_zone(zone, [key])

    com_key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"com-lim")
    com = Zone("com")
    com.add("com", 3600, SOA("a.nic.com", "h.nic.com", 1))
    com.add("com", 3600, NS("a.nic.com"))
    com.add("a.nic.com", 3600, A("192.5.6.40"))
    com.add(ZONE, 3600, NS(IN_NS))
    com.add(IN_NS, 3600, A("203.0.113.50"))  # glue — no DS: an island
    sign_zone(com, [com_key])

    root_key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"root-lim")
    root = Zone(".")
    root.add(".", 3600, SOA("a.root-servers.net", "h.example", 1))
    root.add(".", 3600, NS("a.root-servers.net"))
    root.add("a.root-servers.net", 3600, A("198.41.0.40"))
    root.add("com", 3600, NS("a.nic.com"))
    root.add("com", 3600, ds_from_dnskey(Name.from_text("com"), com_key.dnskey()))
    root.add("a.nic.com", 3600, A("192.5.6.40"))
    sign_zone(root, [root_key])

    for ip, server_zones in (
        ("198.41.0.40", [root]),
        ("192.5.6.40", [com]),
        ("203.0.113.50", [zone]),
    ):
        server = AuthoritativeServer(ip)
        for z in server_zones:
            server.add_zone(z)
        network.register(ip, server)
    return network


class TestInDomainNameservers:
    def test_signal_chain_cannot_be_secure(self, in_domain_world):
        scanner = Scanner(in_domain_world, ["198.41.0.40"])
        result = scanner.scan_zone(ZONE)
        assert result.resolved
        assert result.has_cds
        assert result.has_signal  # RRs exist...
        assessment = assess_zone(result)
        # ... but there is no extant DNSSEC chain to authenticate them:
        # the signaling zone hangs off the island itself.
        assert not assessment.signal.secure_and_valid
        assert assessment.signal_outcome == SignalOutcome.INCORRECT_SIGNAL_DNSSEC

    def test_chain_stops_at_the_island(self, in_domain_world):
        scanner = Scanner(in_domain_world, ["198.41.0.40"])
        result = scanner.scan_zone(ZONE)
        chain = result.signals[0].chain
        island_links = [link for link in chain if link.zone == Name.from_text(ZONE)]
        assert island_links and island_links[0].ds_rrset is None

    def test_zone_is_otherwise_bootstrappable_grade(self, in_domain_world):
        # The in-zone CDS itself is fine — only the *authentication*
        # channel is missing, exactly the paper's point.
        scanner = Scanner(in_domain_world, ["198.41.0.40"])
        assessment = assess_zone(scanner.scan_zone(ZONE))
        assert assessment.cds.present
        assert assessment.cds.consistent
        assert assessment.cds.matches_dnskey is True


class TestNameLengthLimit:
    LONG_ZONE = Name.from_text(".".join(["a" * 60] * 3) + ".com")
    LONG_NS = Name.from_text(".".join(["n" * 60] * 2) + ".net")

    def test_signal_name_construction_fails(self):
        assert make_signal_name(self.LONG_ZONE, self.LONG_NS) is None

    def test_scanner_flags_name_too_long(self, mini_world):
        scanner = Scanner(mini_world["network"], mini_world["root_ips"])
        scan = scanner._run(scanner._scan_signal(self.LONG_ZONE, self.LONG_NS))
        assert scan.name_too_long
        assert scan.signal_name is None
        assert not scan.any_cds

    def test_analysis_counts_it_as_uncovered(self, mini_world):
        from repro.core import analyze_signals
        from repro.scanner.results import ZoneScanResult

        scanner = Scanner(mini_world["network"], mini_world["root_ips"])
        result = ZoneScanResult(zone=self.LONG_ZONE, resolved=True)
        result.signals = [scanner._run(scanner._scan_signal(self.LONG_ZONE, self.LONG_NS))]
        report = analyze_signals(result, None)
        assert not report.any_signal
        assert report.per_ns[0].name_too_long
