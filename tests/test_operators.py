"""Unit tests for operator attribution and the analysis pipeline glue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisPipeline, OperatorDB
from repro.core.operators import UNKNOWN_OPERATOR
from repro.dns.name import Name
from repro.scanner import Scanner


@pytest.fixture
def db():
    return OperatorDB(
        suffixes={
            "domaincontrol.com": "GoDaddy",
            "ns.cloudflare.com": "Cloudflare",
            "desec.io": "deSEC",
            "desec.org": "deSEC",
        },
        whitelabels={"seized.gov": "Cloudflare"},
    )


def names(*texts):
    return [Name.from_text(t) for t in texts]


def linear_deepest_match(suffixes, ns_host):
    """``identify_host`` as it was — try every suffix, keep the deepest
    that matches — kept as the reference for the suffix walk."""
    best = None
    for suffix, operator in suffixes.items():
        if ns_host.is_subdomain_of(suffix):
            if best is None or len(suffix) > best[0]:
                best = (len(suffix), operator)
    return best[1] if best else None


LABELS = st.sampled_from(["com", "COM", "cloudflare", "CloudFlare", "ns", "a", "gov", "seized"])
HOSTS = st.lists(LABELS, min_size=0, max_size=5).map(".".join)


class TestSuffixWalkAgainstLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(
        suffixes=st.dictionaries(HOSTS, st.sampled_from(["A", "B", "C"]), max_size=6),
        whitelabels=st.dictionaries(HOSTS, st.sampled_from(["W", "X"]), max_size=3),
        hosts=st.lists(HOSTS, min_size=1, max_size=8),
    )
    def test_walk_equals_deepest_linear_match(self, suffixes, whitelabels, hosts):
        db = OperatorDB(suffixes=suffixes, whitelabels=whitelabels)
        for host in hosts + list(suffixes) + list(whitelabels):
            name = Name.from_text(host)
            assert db.identify_host(name) == linear_deepest_match(db._suffixes, name), host

    def test_named_cases(self):
        db = OperatorDB(
            suffixes={"cloudflare.com": "Registrar", "ns.cloudflare.com": "Cloudflare", "gov": "Gov"},
            whitelabels={"seized.gov": "Cloudflare", "NS.cloudflare.com": "Alias"},
        )
        cases = {
            "asa.ns.cloudflare.com": "Alias",  # white-label shadows the equal suffix
            "ASA.Ns.CloudFlare.COM": "Alias",  # mixed case
            "www.cloudflare.com": "Registrar",  # nested: the shallower suffix
            "cloudflare.com": "Registrar",  # a host equal to a suffix
            "ns1.seized.gov": "Cloudflare",  # alias deeper than its parent suffix
            "ns1.other.gov": "Gov",
            "ns1.example.net": None,
        }
        for host, expected in cases.items():
            name = Name.from_text(host)
            assert db.identify_host(name) == expected == linear_deepest_match(db._suffixes, name)
        assert OperatorDB().identify_host(Name.from_text("ns1.example.net")) is None
        rooted = OperatorDB(suffixes={".": "Everyone", "com": "Com"})
        assert rooted.identify_host(Name.from_text("a.net")) == "Everyone"
        assert rooted.identify_host(Name.from_text("a.com")) == "Com"
        assert rooted.identify_host(Name.root()) == "Everyone"


class TestOperatorDB:
    def test_simple_suffix(self, db):
        assert db.identify_host(Name.from_text("ns41.domaincontrol.com")) == "GoDaddy"

    def test_no_match(self, db):
        assert db.identify_host(Name.from_text("ns1.random.net")) is None

    def test_deepest_suffix_wins(self):
        db = OperatorDB(suffixes={"example.com": "Generic", "dns.example.com": "Specific"})
        assert db.identify_host(Name.from_text("a.dns.example.com")) == "Specific"

    def test_whitelabel(self, db):
        # The US Government's seized.gov NSes are rebranded Cloudflare.
        attribution = db.identify(names("ns1.seized.gov", "ns2.seized.gov"))
        assert attribution.primary == "Cloudflare"
        assert not attribution.multi

    def test_single_operator_two_suffixes(self, db):
        # deSEC runs ns1.desec.io and ns2.desec.org — one operator.
        attribution = db.identify(names("ns1.desec.io", "ns2.desec.org"))
        assert attribution.primary == "deSEC"
        assert not attribution.multi

    def test_multi_operator(self, db):
        attribution = db.identify(names("asa.ns.cloudflare.com", "ns1.desec.io"))
        assert attribution.multi
        assert set(attribution.operators) == {"Cloudflare", "deSEC"}

    def test_unknown(self, db):
        attribution = db.identify(names("ns1.mystery.example", "ns2.mystery.example"))
        assert attribution.primary == UNKNOWN_OPERATOR
        assert not attribution.multi

    def test_known_plus_unknown_is_multi(self, db):
        attribution = db.identify(names("ns1.desec.io", "ns1.mystery.example"))
        assert attribution.multi
        assert UNKNOWN_OPERATOR in attribution.operators

    def test_case_insensitive(self, db):
        assert db.identify_host(Name.from_text("NS1.DESEC.IO")) == "deSEC"

    def test_empty_ns_list(self, db):
        assert db.identify([]).primary == UNKNOWN_OPERATOR


class TestPipelineAggregation:
    @pytest.fixture(scope="class")
    def report(self, mini_world):
        scanner = Scanner(mini_world["network"], mini_world["root_ips"])
        results = scanner.scan_many(
            ["example.com", "unsigned.com", "island.com", "broken.com", "missing.com"]
        )
        db = OperatorDB(suffixes={"opdns.net": "OpDNS"})
        return AnalysisPipeline(db).analyze(results)

    def test_totals(self, report):
        assert report.total_scanned == 5
        assert report.total_resolved == 4
        assert report.total_queries > 0

    def test_status_totals(self, report):
        from repro.core import DnssecStatus

        assert report.count("status", DnssecStatus.SECURE) == 1
        assert report.count("status", DnssecStatus.UNSIGNED) == 1
        assert report.count("status", DnssecStatus.ISLAND) == 1
        assert report.count("status", DnssecStatus.INVALID) == 1
        assert report.count("status", DnssecStatus.UNRESOLVED) == 1

    def test_operator_stats(self, report):
        assert report.count("table1", "OpDNS", "domains") == 4
        assert report.count("table1", "OpDNS", "secured") == 1
        assert report.count("table1", "OpDNS", "unsigned") == 1
        assert report.count("table1", "OpDNS", "islands") == 1
        assert report.count("table1", "OpDNS", "invalid") == 1
        assert report.count("table2", "OpDNS", "with_cds") == 1

    def test_signal_funnel(self, report):
        assert report.count("table3", "with_signal", "OpDNS") == 1
        assert report.count("table3", "potential", "OpDNS") == 1
        assert report.count("table3", "correct", "OpDNS") == 1
        assert report.count("table3", "incorrect", "OpDNS") == 0

    def test_islands_with_cds(self, report):
        assert report.count("§4.2", "islands_with_cds") == 1
        assert report.count("§4.2", "islands_cds_consistent") == 1
        assert report.count("§4.2", "islands_cds_inconsistent") == 0

    def test_top_operators(self, report):
        assert report.top_operators() == ["OpDNS"]
        assert report.top_cds_operators() == ["OpDNS"]
