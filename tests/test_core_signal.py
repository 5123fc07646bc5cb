"""Unit tests for RFC 9615 signal evaluation and chain validation.

Uses the mini world to obtain a genuinely valid baseline scan, then
mutates deep copies to exercise each failure branch.
"""

import copy

import pytest

from repro.core import (
    SignalOutcome,
    SignalZoneStatus,
    analyze_signals,
    assess_zone,
    validate_chain,
)
from repro.core.bootstrap import BootstrapEligibility
from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dnssec import cds_delete_rdata
from repro.dnssec.signer import corrupt_signature
from repro.scanner import Scanner
from repro.scanner.results import QueryStatus, RRQueryResult


@pytest.fixture(scope="module")
def island_scan(mini_world):
    scanner = Scanner(mini_world["network"], mini_world["root_ips"])
    return scanner.scan_zone("island.com")


@pytest.fixture
def scan(island_scan):
    return copy.deepcopy(island_scan)


def zone_cds(result):
    for _, response in sorted(result.cds_by_ns.items()):
        if response.has_data:
            return response.rrset
    return None


class TestValidateChain:
    def test_valid_chain_secure(self, island_scan):
        chain = island_scan.signals[0].chain
        assert validate_chain(chain, island_scan.signals[0].signal_zone_apex) == SignalZoneStatus.SECURE

    def test_empty_chain_unknown(self):
        assert validate_chain([]) == SignalZoneStatus.UNKNOWN

    def test_missing_ds_insecure(self, scan):
        chain = copy.deepcopy(scan.signals[0].chain)
        chain[2].ds_rrset = None
        assert validate_chain(chain) == SignalZoneStatus.INSECURE

    def test_corrupt_ds_sig_bogus(self, scan):
        chain = copy.deepcopy(scan.signals[0].chain)
        chain[1].ds_rrsigs = [corrupt_signature(s) for s in chain[1].ds_rrsigs]
        assert validate_chain(chain) == SignalZoneStatus.BOGUS

    def test_corrupt_dnskey_sig_bogus(self, scan):
        chain = copy.deepcopy(scan.signals[0].chain)
        chain[-1].dnskey_rrsigs = [corrupt_signature(s) for s in chain[-1].dnskey_rrsigs]
        assert validate_chain(chain) == SignalZoneStatus.BOGUS

    def test_chain_not_reaching_apex_insecure(self, scan):
        chain = scan.signals[0].chain[:-1]
        apex = scan.signals[0].signal_zone_apex
        assert validate_chain(chain, apex) == SignalZoneStatus.INSECURE

    def test_corrupt_root_anchor_bogus(self, scan):
        chain = copy.deepcopy(scan.signals[0].chain)
        chain[0].dnskey_rrsigs = [corrupt_signature(s) for s in chain[0].dnskey_rrsigs]
        assert validate_chain(chain) == SignalZoneStatus.BOGUS


class TestAnalyzeSignals:
    def test_baseline_acceptable(self, island_scan):
        report = analyze_signals(island_scan, zone_cds(island_scan))
        assert report.any_signal
        assert report.covered_all_ns
        assert report.no_zone_cuts
        assert report.consistent
        assert report.secure_and_valid
        assert report.matches_zone_cds is True
        assert not report.is_delete

    def test_no_signal(self, mini_world):
        scanner = Scanner(mini_world["network"], mini_world["root_ips"])
        result = scanner.scan_zone("example.com")
        report = analyze_signals(result, None)
        assert not report.any_signal

    def test_missing_on_one_ns_breaks_coverage(self, scan):
        # Wipe the CDS under ns2's signaling zone.
        for key in scan.signals[1].cds_by_ip:
            scan.signals[1].cds_by_ip[key] = RRQueryResult(
                QueryStatus.OK, rcode=Rcode.NOERROR, rrset=None
            )
        for key in scan.signals[1].cdnskey_by_ip:
            scan.signals[1].cdnskey_by_ip[key] = RRQueryResult(
                QueryStatus.OK, rcode=Rcode.NOERROR, rrset=None
            )
        report = analyze_signals(scan, zone_cds(scan))
        assert report.any_signal
        assert not report.covered_all_ns

    def test_inconsistent_within_signal_zone(self, scan):
        keys = sorted(scan.signals[0].cds_by_ip)
        first = scan.signals[0].cds_by_ip[keys[0]]
        delete_rrset = RRset(first.rrset.name, RRType.CDS, 3600, [cds_delete_rdata()])
        scan.signals[0].cds_by_ip[keys[0]] = RRQueryResult(
            QueryStatus.OK, rcode=Rcode.NOERROR, rrset=delete_rrset, rrsigs=first.rrsigs
        )
        report = analyze_signals(scan, zone_cds(scan))
        assert not report.consistent

    def test_zone_cut_detected(self, scan):
        scan.signals[0].zone_cuts = [Name.from_text("island.com._signal.ns1.opdns.net")]
        report = analyze_signals(scan, zone_cds(scan))
        assert not report.no_zone_cuts

    def test_bad_signal_sigs(self, scan):
        for signal in scan.signals:
            for key, response in signal.cds_by_ip.items():
                if response.has_data:
                    response.rrsigs = [corrupt_signature(s) for s in response.rrsigs]
        report = analyze_signals(scan, zone_cds(scan))
        assert not report.secure_and_valid

    def test_insecure_chain(self, scan):
        for signal in scan.signals:
            for link in signal.chain:
                if link.zone == Name.from_text("opdns.net"):
                    link.ds_rrset = None
        report = analyze_signals(scan, zone_cds(scan))
        assert not report.secure_and_valid

    def test_mismatch_with_zone(self, scan):
        delete_rrset = RRset(Name.from_text("island.com"), RRType.CDS, 3600, [cds_delete_rdata()])
        report = analyze_signals(scan, delete_rrset)
        assert report.matches_zone_cds is False

    def test_delete_in_signal(self, scan):
        for signal in scan.signals:
            for key, response in signal.cds_by_ip.items():
                if response.has_data:
                    response.rrset = RRset(
                        response.rrset.name, RRType.CDS, 3600, [cds_delete_rdata()]
                    )
        report = analyze_signals(scan, zone_cds(scan))
        assert report.is_delete

    def test_name_too_long_flagged(self, scan):
        scan.signals[0].signal_name = None
        scan.signals[0].name_too_long = True
        scan.signals[0].cds_by_ip = {}
        scan.signals[0].cdnskey_by_ip = {}
        report = analyze_signals(scan, zone_cds(scan))
        assert report.per_ns[0].name_too_long
        assert not report.covered_all_ns


class TestSignalOutcomes:
    def test_correct(self, island_scan):
        assessment = assess_zone(island_scan)
        assert assessment.signal_outcome == SignalOutcome.CORRECT
        assert assessment.eligibility == BootstrapEligibility.BOOTSTRAPPABLE

    def test_ns_coverage_outcome(self, scan):
        for key in scan.signals[1].cds_by_ip:
            scan.signals[1].cds_by_ip[key] = RRQueryResult(
                QueryStatus.OK, rcode=Rcode.NOERROR, rrset=None
            )
        for key in scan.signals[1].cdnskey_by_ip:
            scan.signals[1].cdnskey_by_ip[key] = RRQueryResult(
                QueryStatus.OK, rcode=Rcode.NOERROR, rrset=None
            )
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.INCORRECT_NS_COVERAGE

    def test_zone_cut_outcome(self, scan):
        scan.signals[0].zone_cuts = [Name.from_text("island.com._signal.ns1.opdns.net")]
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.INCORRECT_ZONE_CUT

    def test_signal_dnssec_outcome(self, scan):
        for signal in scan.signals:
            for key, response in signal.cds_by_ip.items():
                if response.has_data:
                    response.rrsigs = [corrupt_signature(s) for s in response.rrsigs]
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.INCORRECT_SIGNAL_DNSSEC

    def test_delete_request_outcome(self, scan):
        # Delete sentinel in the zone's own CDS (the Cloudflare pattern).
        for key, response in scan.cds_by_ns.items():
            if response.has_data:
                response.rrset = RRset(
                    response.rrset.name, RRType.CDS, 3600, [cds_delete_rdata()]
                )
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.CANNOT_DELETE_REQUEST

    def test_already_secured_outcome(self, mini_world, scan):
        # Graft a matching DS onto the scan: the zone becomes SECURE.
        from repro.dnssec import ds_from_dnskey

        key = mini_world["keys"]["island.com"]
        ds = ds_from_dnskey(Name.from_text("island.com"), key.dnskey())
        scan.ds = RRQueryResult(
            QueryStatus.OK,
            rcode=Rcode.NOERROR,
            rrset=RRset(Name.from_text("island.com"), RRType.DS, 3600, [ds]),
        )
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.ALREADY_SECURED

    def test_zone_invalid_outcome(self, scan):
        scan.dnskey.rrsigs = [corrupt_signature(s) for s in scan.dnskey.rrsigs]
        # In-zone CDS signature also becomes invalid against intent: but
        # zone invalidity takes precedence in the taxonomy.
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.CANNOT_ZONE_INVALID

    def test_cds_inconsistent_outcome(self, scan):
        # One NS serves a CDS for a different key — the multi-operator
        # coordination failure of §4.2.
        from repro.dnssec import Algorithm, KeyPair
        from repro.dnssec.ds import cds_from_dnskey

        stranger = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"stranger-cds")
        keys = sorted(scan.cds_by_ns)
        first = scan.cds_by_ns[keys[0]]
        other_cds = cds_from_dnskey(Name.from_text("island.com"), stranger.dnskey())
        scan.cds_by_ns[keys[0]] = RRQueryResult(
            QueryStatus.OK,
            rcode=Rcode.NOERROR,
            rrset=RRset(first.rrset.name, RRType.CDS, 3600, [other_cds]),
            rrsigs=first.rrsigs,
        )
        assessment = assess_zone(scan)
        assert assessment.signal_outcome == SignalOutcome.CANNOT_CDS_INCONSISTENT
