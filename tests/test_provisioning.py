"""Tests for the registry-side provisioning: acceptance policies, the
bootstrap engine, and RFC 8078 delete processing."""

import pytest

from repro.core import AnalysisPipeline, DnssecStatus, assess_zone
from repro.core.status import classify_status
from repro.dns import RRset, RRType
from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dnssec import Algorithm, KeyPair
from repro.dnssec.validator import validate_rrset
from repro.ecosystem import build_world, psl
from repro.ecosystem.generator import REGISTRY_IPS, registry_key
from repro.ecosystem.spec import CdsScenario, SignalScenario, StatusScenario
from repro.provisioning import (
    AcceptAfterDelayPolicy,
    AcceptFromInceptionPolicy,
    AcceptWithChallengePolicy,
    AuthenticatedBootstrapPolicy,
    BootstrapEngine,
    Decision,
)
from repro.provisioning.engine import install_ds, remove_ds
from repro.provisioning.policies import CDS_DISAGREEMENT, ZONE_UNSIGNED


@pytest.fixture(scope="module")
def world():
    return build_world(scale=1 / 1_000_000, seed=11)


@pytest.fixture(scope="module")
def assessments(world):
    scanner = world.make_scanner()
    results = {r.zone.to_text().rstrip("."): r for r in scanner.scan_many(world.scan_list)}
    return {name: assess_zone(result) for name, result in results.items()}, results


def pick(world, assessments, status, cds, signal=None):
    for name, spec in world.specs.items():
        if spec.status == status and spec.cds == cds:
            if signal is not None and spec.signal != signal:
                continue
            return assessments[0][name]
    pytest.skip(f"no zone with {status}/{cds} at this scale")


class TestAuthenticatedPolicy:
    def test_accepts_correct_signal(self, world, assessments):
        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.OK
        )
        decision = AuthenticatedBootstrapPolicy().evaluate(assessment)
        assert decision.decision == Decision.ACCEPT

    def test_rejects_unsigned(self, world, assessments):
        assessment = pick(world, assessments, StatusScenario.UNSIGNED, CdsScenario.NONE)
        decision = AuthenticatedBootstrapPolicy().evaluate(assessment)
        assert decision.decision == Decision.REJECT
        assert decision.reason == ZONE_UNSIGNED

    def test_rejects_delete(self, world, assessments):
        assessment = pick(world, assessments, StatusScenario.ISLAND, CdsScenario.DELETE)
        decision = AuthenticatedBootstrapPolicy().evaluate(assessment)
        assert decision.decision == Decision.REJECT
        assert "delete" in decision.reason

    def test_rejects_island_without_signal(self, world, assessments):
        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE
        )
        decision = AuthenticatedBootstrapPolicy().evaluate(assessment)
        assert decision.decision == Decision.REJECT
        assert "signal" in decision.reason

    def test_rejects_ns_coverage_violation(self, world, assessments):
        assessment = pick(
            world,
            assessments,
            StatusScenario.ISLAND,
            CdsScenario.OK,
            SignalScenario.NS_COVERAGE,
        )
        decision = AuthenticatedBootstrapPolicy().evaluate(assessment)
        assert decision.decision == Decision.REJECT

    def test_rejects_inconsistent_cds(self, world, assessments):
        assessment = pick(world, assessments, StatusScenario.ISLAND, CdsScenario.INCONSISTENT)
        decision = AuthenticatedBootstrapPolicy().evaluate(assessment)
        assert decision.decision == Decision.REJECT
        assert decision.reason == CDS_DISAGREEMENT


class TestUnauthenticatedPolicies:
    def test_delay_policy_defers_then_accepts(self, world, assessments):
        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE
        )
        policy = AcceptAfterDelayPolicy(hold_days=2)
        first = policy.evaluate(assessment)
        assert first.decision == Decision.DEFER
        policy.advance_days(1)
        assert policy.evaluate(assessment).decision == Decision.DEFER
        policy.advance_days(1)
        assert policy.evaluate(assessment).decision == Decision.ACCEPT

    def test_delay_policy_resets_on_change(self, world, assessments):
        import copy

        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE
        )
        policy = AcceptAfterDelayPolicy(hold_days=1)
        policy.evaluate(assessment)
        policy.advance_days(1)
        # The CDS changes (e.g. a hijacker or a rollover) — clock resets.
        changed = copy.deepcopy(assessment)
        key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"changed")
        from repro.dnssec.ds import cds_from_dnskey

        changed.cds.cds_rrset = RRset(
            Name.from_text(changed.zone),
            RRType.CDS,
            3600,
            [cds_from_dnskey(Name.from_text(changed.zone), key.dnskey())],
        )
        assert policy.evaluate(changed).decision == Decision.DEFER

    def test_delay_policy_rejects_broken_zone(self, world, assessments):
        assessment = pick(world, assessments, StatusScenario.UNSIGNED, CdsScenario.NONE)
        assert AcceptAfterDelayPolicy().evaluate(assessment).decision == Decision.REJECT

    def test_challenge_policy_deterministic(self, world, assessments):
        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE
        )
        policy = AcceptWithChallengePolicy(response_rate=0.5)
        first = policy.evaluate(assessment)
        assert first.decision == policy.evaluate(assessment).decision

    def test_challenge_response_rate_extremes(self, world, assessments):
        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE
        )
        assert (
            AcceptWithChallengePolicy(response_rate=1.0).evaluate(assessment).decision
            == Decision.ACCEPT
        )
        assert (
            AcceptWithChallengePolicy(response_rate=0.0).evaluate(assessment).decision
            == Decision.DEFER
        )

    def test_inception_policy_extremes(self, world, assessments):
        assessment = pick(
            world, assessments, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE
        )
        assert (
            AcceptFromInceptionPolicy(preconfigured_rate=1.0).evaluate(assessment).decision
            == Decision.ACCEPT
        )
        assert (
            AcceptFromInceptionPolicy(preconfigured_rate=0.0).evaluate(assessment).decision
            == Decision.REJECT
        )


class TestEngine:
    def test_authenticated_run_secures_correct_zones(self, world, assessments):
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        run = engine.run(results=list(assessments[1].values()))
        assert run.evaluated > 0
        assert run.accepted, "expected at least one RFC 9615-correct island"
        assert set(run.secured) == set(run.accepted)
        assert not run.failed_verification

    def test_accepted_zone_now_secure(self, world, assessments):
        # After the module-scoped engine runs above, re-scan one accepted
        # zone directly: the chain must validate.
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        run = engine.run(results=list(assessments[1].values()))
        zone = run.accepted[0].rstrip(".")
        scanner = world.make_scanner()
        status, _ = classify_status(scanner.scan_zone(zone))
        assert status == DnssecStatus.SECURE

    def test_candidates_short_circuit(self, world, assessments):
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        results = list(assessments[1].values())
        candidates = engine.candidates(results)
        # Secured zones are skipped (App. D: exclude extant DS).
        secured = {
            name
            for name, spec in world.specs.items()
            if spec.status == StatusScenario.SECURE
        }
        candidate_names = {c.zone.to_text().rstrip(".") for c in candidates}
        assert not candidate_names & secured

    def test_install_and_remove_ds(self, world):
        spec = next(
            spec
            for spec in world.specs.values()
            if spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.OK
        )
        scanner = world.make_scanner()
        before = scanner.scan_zone(spec.name)
        assessment = assess_zone(before)
        install_ds(world, spec.name, assessment.cds.cds_rrset)
        status, _ = classify_status(scanner.scan_zone(spec.name))
        assert status == DnssecStatus.SECURE
        remove_ds(world, spec.name)
        status, _ = classify_status(scanner.scan_zone(spec.name))
        assert status == DnssecStatus.ISLAND

    def test_ds_edit_round_trip(self, world):
        # Install then remove must leave the delegation's other
        # signatures exactly as found, and each edit drops the
        # registry's answer memo by itself.
        spec = next(
            spec
            for spec in world.specs.values()
            if spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.OK
        )
        owner = Name.from_text(spec.name)
        registry = world.registry_zones[psl.registrable_part(owner)[1]]
        sigs_before = registry.get_rrset(owner, RRType.RRSIG)
        assert all(int(sig.type_covered) != int(RRType.DS) for sig in sigs_before.rdatas)
        scanner = world.make_scanner()

        def served_ds():
            # The answer a resolver gets now, memo or not: no clear call.
            query = make_query(owner, RRType.DS, msg_id=7)
            return world.network.query(REGISTRY_IPS[0], query).answer

        cds_rrset = assess_zone(scanner.scan_zone(spec.name)).cds.cds_rrset
        assert not served_ds()
        assert registry.answers
        installed = install_ds(world, spec.name, cds_rrset)
        assert not registry.answers
        assert list(registry.get_rrset(owner, RRType.DS).rdatas) == installed
        assert list(served_ds()[0].rdatas) == installed
        sigs = registry.get_rrset(owner, RRType.RRSIG).rdatas
        assert len(sigs) == len(sigs_before.rdatas) + 1
        assert sum(int(sig.type_covered) == int(RRType.DS) for sig in sigs) == 1
        scanner.scan_zone(spec.name)
        assert registry.answers
        remove_ds(world, spec.name)
        assert not registry.answers
        assert not served_ds()
        assert registry.get_rrset(owner, RRType.DS) is None
        assert registry.get_rrset(owner, RRType.RRSIG) == sigs_before


class TestDenialAfterDsEdit:
    """RFC 4035 §5.4: the NSEC at a delegation proves which of NS and DS
    the parent holds, so a DS edit rebuilds its bitmap and re-signs it."""

    ZONE = "cloudflare-secure-ok-ok-1126004.org"

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(scale=5e-7, seed=42001)

    @staticmethod
    def nsec_at(world, zone):
        """The registry's NSEC at *zone* and its validity under the
        registry key."""
        owner = Name.from_text(zone)
        suffix = psl.registrable_part(owner)[1]
        registry = world.registry_zones[suffix]
        nsec = registry.get_rrset(owner, RRType.NSEC)
        sigs = registry.get_rrset(owner, RRType.RRSIG).rdatas
        return nsec, validate_rrset(nsec, sigs, [registry_key(suffix).dnskey()]).ok

    def test_a_removed_ds_is_denied_in_the_served_proof(self, world):
        before, _ = self.nsec_at(world, self.ZONE)
        assert RRType.DS in before.rdatas[0].types
        cds_rrset = assess_zone(world.make_scanner().scan_zone(self.ZONE)).cds.cds_rrset
        remove_ds(world, self.ZONE)
        response = world.network.query(REGISTRY_IPS[0], make_query(self.ZONE, RRType.DS))
        assert not response.answer
        (served,) = [r for r in response.authority if int(r.rrtype) == int(RRType.NSEC)]
        sigs = [
            sig
            for r in response.authority
            if int(r.rrtype) == int(RRType.RRSIG) and r.name == served.name
            for sig in r.rdatas
        ]
        assert RRType.DS not in served.rdatas[0].types
        assert validate_rrset(served, sigs, [registry_key("org").dnskey()]).ok
        # The bitmap keeps its length: no stored byte count moves.
        assert len(served.rdatas[0].to_wire()) == len(before.rdatas[0].to_wire())
        install_ds(world, self.ZONE, cds_rrset)
        after, valid = self.nsec_at(world, self.ZONE)
        assert RRType.DS in after.rdatas[0].types and valid
        assert after.rdatas[0].to_wire() == before.rdatas[0].to_wire()

    def test_an_install_on_an_island_is_asserted_in_the_bitmap(self, world):
        spec = next(
            spec
            for spec in world.specs.values()
            if spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.OK
        )
        owner = Name.from_text(spec.name)
        registry = world.registry_zones[spec.suffix]
        rows_before = [(r.rrtype, r.rdatas) for r in registry.node_rrsets(owner)]
        nsec, _ = self.nsec_at(world, spec.name)
        assert RRType.DS not in nsec.rdatas[0].types
        cds_rrset = assess_zone(world.make_scanner().scan_zone(spec.name)).cds.cds_rrset
        install_ds(world, spec.name, cds_rrset)
        nsec, valid = self.nsec_at(world, spec.name)
        assert RRType.DS in nsec.rdatas[0].types and valid
        # The agent's rollback restores the node byte for byte.
        remove_ds(world, spec.name)
        assert [(r.rrtype, r.rdatas) for r in registry.node_rrsets(owner)] == rows_before


class TestDeleteProcessing:
    def test_delete_request_converts_secure_to_island(self):
        # A fresh world: find the SECURE + CDS-delete population
        # (the paper's 3 289 zones with ignored delete requests).
        world = build_world(scale=1 / 1_000_000, seed=13)
        scanner = world.make_scanner()
        results = scanner.scan_many(world.scan_list)
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        run = engine.process_delete_requests(results)
        assert run.evaluated >= 1
        assert run.deleted, "expected at least one honoured delete request"
        # Each processed zone is now exactly a delete-request island.
        for zone in run.deleted:
            rescan = scanner.scan_zone(zone.rstrip("."))
            assessment = assess_zone(rescan)
            assert assessment.status == DnssecStatus.ISLAND
            assert assessment.cds.is_delete

    def test_dry_run_leaves_world_untouched(self):
        world = build_world(scale=1 / 1_000_000, seed=13)
        scanner = world.make_scanner()
        results = scanner.scan_many(world.scan_list)
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        run = engine.process_delete_requests(results, provision=False)
        for zone in run.deleted:
            status, _ = classify_status(scanner.scan_zone(zone.rstrip(".")))
            assert status == DnssecStatus.SECURE  # DS still in place

    def test_islands_with_delete_not_evaluated(self, world, assessments):
        # Islands have no DS — nothing to delete; they are skipped.
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        run = engine.process_delete_requests(assessments[1].values(), provision=False)
        island_deletes = {
            name
            for name, spec in world.specs.items()
            if spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.DELETE
        }
        evaluated_or_deleted = {z.rstrip(".") for z in run.deleted} | {
            z.rstrip(".") for z in run.refused
        }
        assert not (island_deletes & evaluated_or_deleted)

