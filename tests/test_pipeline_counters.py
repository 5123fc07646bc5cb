"""The §4.2 in-text counters, verified against generated ground truth."""

import pytest

from repro.core import AnalysisPipeline
from repro.ecosystem import build_world
from repro.ecosystem.spec import CdsScenario, SignalScenario, StatusScenario

SCALE = 2e-6  # every preserved taxonomy cell present


@pytest.fixture(scope="module")
def campaign():
    world = build_world(scale=SCALE, seed=31)
    scanner = world.make_scanner()
    results = scanner.scan_many(world.scan_list)
    report = AnalysisPipeline(world.operator_db).analyze(results)
    return world, report


def count_specs(world, **conditions):
    def match(spec):
        return all(getattr(spec, key) == value for key, value in conditions.items())

    return sum(1 for spec in world.specs.values() if match(spec))


class TestInTextCounters:
    def test_cds_in_unsigned(self, campaign):
        world, report = campaign
        expected = count_specs(
            world, status=StatusScenario.UNSIGNED, cds=CdsScenario.UNSIGNED_CDS
        ) + count_specs(world, status=StatusScenario.UNSIGNED, cds=CdsScenario.DELETE)
        assert report.count("§4.2", "cds_in_unsigned") == expected
        assert expected >= 2  # Canal Dominios + the misc population

    def test_cds_delete_unsigned(self, campaign):
        world, report = campaign
        expected = count_specs(world, status=StatusScenario.UNSIGNED, cds=CdsScenario.DELETE)
        assert report.count("§4.2", "cds_delete_unsigned") == expected

    def test_cds_delete_signed(self, campaign):
        world, report = campaign
        expected = count_specs(world, status=StatusScenario.SECURE, cds=CdsScenario.DELETE)
        assert report.count("§4.2", "cds_delete_signed") == expected
        assert expected >= 1  # the paper's 3 289, preserved

    def test_cds_delete_island(self, campaign):
        world, report = campaign
        expected = count_specs(world, status=StatusScenario.ISLAND, cds=CdsScenario.DELETE)
        assert report.count("§4.2", "cds_delete_island") == expected

    def test_cloudflare_dominates_delete_islands(self, campaign):
        world, report = campaign
        cf = report.count("§4.2", "cds_delete_island", "Cloudflare")
        expected_cf = count_specs(
            world,
            operator="Cloudflare",
            status=StatusScenario.ISLAND,
            cds=CdsScenario.DELETE,
        )
        assert cf == expected_cf

    def test_query_failures(self, campaign):
        world, report = campaign
        expected = sum(1 for spec in world.specs.values() if spec.legacy_ns)
        assert report.count("§4.2", "cds_query_failures") == expected
        assert expected >= 1

    def test_islands_with_cds_split(self, campaign):
        # ISLAND_BADSIG zones classify as islands too and publish CDS.
        world, report = campaign
        island_statuses = (StatusScenario.ISLAND, StatusScenario.ISLAND_BADSIG)
        with_cds = sum(
            1
            for spec in world.specs.values()
            if spec.status in island_statuses and spec.cds != CdsScenario.NONE
        )
        assert report.count("§4.2", "islands_with_cds") == with_cds
        inconsistent = sum(
            1
            for spec in world.specs.values()
            if spec.status in island_statuses and spec.cds == CdsScenario.INCONSISTENT
        )
        assert report.count("§4.2", "islands_cds_inconsistent") == inconsistent
        assert report.count("§4.2", "islands_cds_consistent") == with_cds - inconsistent

    def test_mismatch_and_badsig_counters(self, campaign):
        world, report = campaign
        mismatch = count_specs(world, status=StatusScenario.ISLAND, cds=CdsScenario.MISMATCH)
        badsig = count_specs(world, status=StatusScenario.ISLAND, cds=CdsScenario.BADSIG)
        # Zones whose *whole* signature set is corrupted also fail the
        # CDS signature check, so they join the bad-sigs counter.
        island_badsig = sum(
            1
            for spec in world.specs.values()
            if spec.status == StatusScenario.ISLAND_BADSIG and spec.cds != CdsScenario.NONE
        )
        # INCONSISTENT islands may also register a mismatch when the
        # representative answer happens to come from the divergent NS.
        inconsistent = count_specs(
            world, status=StatusScenario.ISLAND, cds=CdsScenario.INCONSISTENT
        )
        assert mismatch <= report.count("§4.2", "islands_cds_no_dnskey_match") <= mismatch + inconsistent
        assert report.count("§4.2", "islands_cds_bad_sigs") == badsig + island_badsig
        assert mismatch >= 1 and badsig >= 1  # the paper's 7 and 3

    def test_multi_operator_count(self, campaign):
        world, report = campaign
        expected = sum(
            1 for spec in world.specs.values() if spec.secondary_operator is not None
        )
        assert report.count("zones", "multi_operator") == expected

    def test_queries_accounted(self, campaign):
        world, report = campaign
        assert report.total_queries > 0
        assert report.total_queries <= world.network.queries_sent
