"""Integration tests: generated worlds must reproduce their own ground
truth through the *real* scan + analysis pipeline."""

import pytest

from repro.core import AnalysisPipeline, DnssecStatus, SignalOutcome
from repro.core.bootstrap import BootstrapEligibility
from repro.dns.name import Name
from repro.dns.types import RRType
from repro.ecosystem import build_world
from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario
from repro.ecosystem.world import expected_classification

SCALE = 1 / 1_000_000  # ~290 zones: every taxonomy branch, fast tests


@pytest.fixture(scope="module")
def world():
    return build_world(scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def report(world):
    scanner = world.make_scanner()
    results = scanner.scan_many(world.scan_list)
    pipeline = AnalysisPipeline(world.operator_db)
    rep = pipeline.analyze(results)
    rep._results = results  # stash for other tests
    return rep


def spec_cell(spec):
    return Cell(
        operator=spec.operator,
        status=spec.status,
        cds=spec.cds,
        signal=spec.signal,
        count=1,
        secondary_operator=spec.secondary_operator,
        legacy_ns=spec.legacy_ns,
    )


class TestWorldStructure:
    def test_zone_count_matches_scale(self, world):
        # 287.6M * 1e-6 = 288 zones + the unresolved extras.
        assert 288 <= world.zone_count <= 300

    def test_specs_unique_names(self, world):
        assert len(world.specs) == len(world.scan_list)

    def test_root_resolves(self, world):
        from repro.dns.message import make_query

        resp = world.network.query("198.41.0.4", make_query(".", RRType.SOA))
        assert resp.answer

    def test_registry_signed(self, world):
        from repro.dns.message import make_query

        resp = world.network.query("198.41.0.4", make_query("com", RRType.NS))
        # Referral to com with DS (signed TLD).
        assert any(int(r.rrtype) == int(RRType.DS) for r in resp.authority)

    def test_operator_db_knows_cloudflare(self, world):
        assert (
            world.operator_db.identify_host(Name.from_text("asa.ns.cloudflare.com"))
            == "Cloudflare"
        )

    def test_anycast_suffix_configured(self, world):
        assert Name.from_text("ns.cloudflare.com") in world.anycast_ns_suffixes

    def test_deterministic_rebuild(self):
        w1 = build_world(scale=SCALE, seed=7)
        w2 = build_world(scale=SCALE, seed=7)
        assert sorted(w1.specs) == sorted(w2.specs)
        spec1 = w1.specs[next(iter(sorted(w1.specs)))]
        spec2 = w2.specs[next(iter(sorted(w2.specs)))]
        assert spec1 == spec2

    def test_seed_changes_names(self):
        w1 = build_world(scale=SCALE, seed=1)
        w2 = build_world(scale=SCALE, seed=2)
        assert sorted(w1.specs) != sorted(w2.specs)


class TestGroundTruth:
    def test_every_zone_classified_as_designed(self, world, report):
        by_zone = {a.zone.rstrip("."): a for a in report.assessments}
        mismatches = []
        for name, spec in world.specs.items():
            expected = expected_classification(spec_cell(spec))
            actual = by_zone[name]
            got = (actual.status, actual.eligibility, actual.signal_outcome)
            if got != expected:
                mismatches.append((name, expected, got))
        assert not mismatches, mismatches[:5]

    def test_status_totals_match_targets(self, world, report):
        for scenario, status in [
            (StatusScenario.SECURE, DnssecStatus.SECURE),
            (StatusScenario.UNSIGNED, DnssecStatus.UNSIGNED),
        ]:
            expected = world.targets.count_where(status=scenario)
            assert report.count("status", status) == expected

    def test_island_total(self, world, report):
        expected = world.targets.count_where(status=StatusScenario.ISLAND) + world.targets.count_where(
            status=StatusScenario.ISLAND_BADSIG
        )
        assert report.count("status", DnssecStatus.ISLAND) == expected

    def test_unresolved_zones_detected(self, world, report):
        expected = world.targets.count_where(status=StatusScenario.UNRESOLVED)
        assert report.count("status", DnssecStatus.UNRESOLVED) == expected
        assert expected >= 2

    def test_multi_operator_zones_counted(self, world, report):
        expected = sum(
            1 for spec in world.specs.values() if spec.secondary_operator is not None
        )
        assert report.count("zones", "multi_operator") == expected

    def test_legacy_cds_failures_counted(self, world, report):
        expected = sum(1 for spec in world.specs.values() if spec.legacy_ns)
        assert report.count("§4.2", "cds_query_failures") == expected

    def test_operator_attribution(self, world, report):
        cf_zones = [
            spec
            for spec in world.specs.values()
            if spec.operator == "Cloudflare" and spec.secondary_operator is None
        ]
        assert "Cloudflare" in report.tally("table1", "domains")
        assert report.count("table1", "Cloudflare", "domains") >= len(cf_zones)


class TestSignalFunnelGroundTruth:
    def test_funnel_matches_cells(self, world, report):
        from collections import Counter

        expected = Counter()
        for spec in world.specs.values():
            _, _, outcome = expected_classification(spec_cell(spec))
            if outcome != SignalOutcome.NO_SIGNAL:
                expected[outcome] += 1
        for outcome, count in expected.items():
            assert report.count("outcome", outcome) == count, outcome

    def test_zone_cut_zone_detected(self, world, report):
        cut_specs = [s for s in world.specs.values() if s.signal == SignalScenario.ZONE_CUT]
        assert cut_specs  # preserved at any scale
        by_zone = {a.zone.rstrip("."): a for a in report.assessments}
        for spec in cut_specs:
            assert by_zone[spec.name].signal_outcome == SignalOutcome.INCORRECT_ZONE_CUT

    def test_transient_recovers_on_rescan(self, world, report):
        transient = [
            s for s in world.specs.values() if s.signal == SignalScenario.SIG_TRANSIENT
        ]
        assert transient
        scanner = world.make_scanner()
        for spec in transient:
            rescan = scanner.scan_zone(spec.name)
            from repro.core import assess_zone

            assessment = assess_zone(rescan)
            assert assessment.signal_outcome == SignalOutcome.CORRECT, spec.name

    def test_cloudflare_sampling_applied(self, world, report):
        results = report._results
        cf_sampled = [
            r
            for r in results
            if r.sampled and world.specs.get(r.zone.to_text().rstrip("."), None)
        ]
        # Nearly all Cloudflare zones are scanned in reduced mode.
        cf_total = sum(
            1 for s in world.specs.values() if s.operator == "Cloudflare" and not s.secondary_operator
        )
        assert len(cf_sampled) >= cf_total * 0.7


class TestEligibilityGroundTruth:
    def test_bootstrappable_zones(self, world, report):
        expected = sum(
            1
            for spec in world.specs.values()
            if expected_classification(spec_cell(spec))[1] == BootstrapEligibility.BOOTSTRAPPABLE
        )
        assert report.count("eligibility", BootstrapEligibility.BOOTSTRAPPABLE) == expected

    def test_delete_islands(self, world, report):
        expected = sum(
            1
            for spec in world.specs.values()
            if spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.DELETE
        )
        assert report.count("eligibility", BootstrapEligibility.ISLAND_CDS_DELETE) == expected


# -- lazy operator zones ------------------------------------------------------


def materialised_operator_zones(world) -> set:
    """Apexes of the operator NS zones built so far."""
    return {apex for rt in world.builder.operators.values() for apex in rt.zones}


def operator_zones_of(world, specs) -> set:
    """The NS zones enclosing the nameserver hosts of *specs* — what a
    scan of those zones has to query.  DarkHost's addresses are dark, so
    no query ever reaches its servers."""
    builder = world.builder
    wanted = set()
    for spec in specs:
        for host in spec.ns_hosts:
            owner = builder.host_owner[host]
            if owner == "DarkHost":
                continue
            wanted.update(
                Name.from_text(zone)
                for zone in builder.profiles[owner].ns_zones
                if Name.from_text(host).is_subdomain_of(Name.from_text(zone))
            )
    return wanted


class TestLazyOperatorZones:
    def test_build_world_materialises_no_operator_zone(self):
        world = build_world(scale=SCALE, seed=3)
        total = sum(len(p.ns_zones) for p in world.builder.profiles.values())
        assert total >= len(world.builder.operators) > 100
        assert materialised_operator_zones(world) == set()

    def test_a_scan_materialises_only_the_zones_it_queries(self):
        world = build_world(scale=SCALE, seed=3)
        subset = world.scan_list[::12]
        world.make_scanner().scan_many(subset)
        specs = [world.specs[name.to_text().rstrip(".")] for name in subset]
        built = materialised_operator_zones(world)
        assert built == operator_zones_of(world, specs)
        total = sum(len(p.ns_zones) for p in world.builder.profiles.values())
        assert 0 < len(built) < total / 4

    def test_wire_campaign_materialises_the_same_zones_as_sim(self):
        # Over sockets the provider runs on the engine thread; what gets
        # built is still a function of what the scan asks for.
        from repro.campaign import CampaignConfig, run_campaign

        built = {}
        for transport, in_flight in (("sim", 1), ("wire", 8)):
            world = build_world(scale=1.3e-7, seed=3)
            config = CampaignConfig(recheck=False, transport=transport, in_flight=in_flight)
            run_campaign(config, world=world)
            built[transport] = materialised_operator_zones(world)
            assert built[transport] == operator_zones_of(world, world.specs.values())
        assert built["wire"] == built["sim"]

    def test_lazy_answers_equal_a_directly_materialised_zone(self):
        """Every operator server answers a fixed query set byte-for-byte
        like a server that was handed the finished zones up front."""
        from repro.dns.message import make_query
        from repro.ecosystem.generator import (
            materialize_operator_zone,
            materialize_signal_zone,
        )
        from repro.scenarios.spec import ScenarioSpec
        from repro.server.nameserver import AuthoritativeServer

        # Scenarios add NullSign, whose _signal delegations carry no DS.
        world = build_world(scale=SCALE, seed=3, scenarios=ScenarioSpec.default())
        builder = world.builder
        compared = denials = 0
        for name, runtime in builder.operators.items():
            profile = runtime.profile
            zones = []
            queries = []
            for zone_name in profile.ns_zones:
                apex = Name.from_text(zone_name)
                zones.append(materialize_operator_zone(zone_name, profile, runtime.host_ips))
                queries += [(apex, t) for t in (RRType.SOA, RRType.NS, RRType.DNSKEY, RRType.DS)]
                queries.append((apex.child("no-such-host"), RRType.A))
            for host in profile.hosts:
                queries += [(Name.from_text(host), t) for t in (RRType.A, RRType.AAAA)]
                if profile.publishes_signal:
                    signal = Name.from_text(f"_signal.{host}")
                    zones.append(
                        materialize_signal_zone(host, profile, builder.signal_index.get(host, []))
                    )
                    # DS at the signal apex is the parent side of the cut:
                    # answered from the operator zone, not the signal zone.
                    queries += [(signal, RRType.DS), (signal, RRType.SOA)]
                    denials += profile.signal_unsigned
            for server in runtime.all_servers():
                reference = AuthoritativeServer("reference")
                for zone in zones:
                    reference.add_zone(zone)
                # Same quirks (legacy SERVFAILs, ...) on both sides; the
                # stateful ones only act on _dsboot names, not queried here.
                reference.behaviors = server.behaviors
                for qname, qtype in queries:
                    for dnssec_ok in (True, False):
                        query = make_query(qname, qtype, dnssec_ok=dnssec_ok)
                        lazy = server.handle_query(query).to_wire()
                        assert lazy == reference.handle_query(query).to_wire(), (
                            name, qname, qtype, dnssec_ok,
                        )  # fmt: skip
                        compared += 1
            assert set(runtime.zones) == {Name.from_text(z) for z in profile.ns_zones}
        assert compared > 2000 and denials > 0


_ZONE_DIGEST_SCRIPT = """
import hashlib, sys
from repro.ecosystem import build_world
from repro.ecosystem.generator import materialize_customer_zone

world = build_world(scale=1e-6, seed=3)
digest = hashlib.sha256()
for name in sorted(world.specs)[::10]:
    spec = world.specs[name]
    for rrset in materialize_customer_zone(spec, spec.ns_hosts[0]).iter_rrsets():
        digest.update(rrset.canonical_wire())
print(digest.hexdigest())
"""


class TestZoneContentDeterminism:
    def test_zone_bytes_do_not_depend_on_the_hash_seed(self):
        """Same world seed ⇒ byte-identical zones in every process, not
        just within one (``hash(str)`` varies with PYTHONHASHSEED)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _ZONE_DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests
