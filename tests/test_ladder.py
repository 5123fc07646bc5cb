"""The acceptance ladder (:data:`repro.provisioning.policies.LADDER`).

Two boundaries replace what used to be three hand-written ladders: a
table test pins every rung in isolation, and a cross-taxonomy test ties
the ladder to the paper's Table 3 outcomes
(:func:`repro.core.bootstrap._signal_outcome`, deliberately separate
code) on a scanned world.
"""

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.core.bootstrap import BootstrapAssessment, BootstrapEligibility, SignalOutcome
from repro.core.cds import CdsReport
from repro.core.signal import SignalReport
from repro.core.status import DnssecStatus
from repro.dns.name import Name
from repro.dns.rdata import CDS
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dnssec.algorithms import Algorithm, DigestType
from repro.dnssec.validator import FailureReason
from repro.provisioning import AcceptAfterDelayPolicy, AuthenticatedBootstrapPolicy, Decision
from repro.provisioning.policies import (
    ALGORITHM_NOT_PERMITTED,
    CDS_DISAGREEMENT,
    CDS_SIGNATURE_INVALID,
    CHAIN_AUTHENTICATED,
    DELETE_REQUEST,
    DS_ALREADY_PRESENT,
    LADDER,
    NO_SIGNAL,
    SIGNAL_COVERAGE_GAP,
    SIGNAL_MISMATCH,
    SIGNAL_ZONE_CUT,
    UNAUTHENTICATED_CHAIN,
    ZONE_DNSSEC_INVALID,
    ZONE_UNSIGNED,
    ZONE_WENT_DARK,
    decide,
    first_failure,
)
from repro.scenarios import ScenarioSpec

OWNER = Name.from_text("child.example")


def cds_rrset(algorithm=Algorithm.ED25519, digest_type=DigestType.SHA256) -> RRset:
    rdata = CDS(4711, int(algorithm), int(digest_type), b"\x01" * 32)
    return RRset(OWNER, RRType.CDS, 3600, [rdata])


def clean_assessment(**cds_overrides) -> BootstrapAssessment:
    """A hand-built island that clears every rung."""
    cds = dict(present=True, matches_dnskey=True, sigs_valid=True, cds_rrset=cds_rrset())
    cds.update(cds_overrides)
    return BootstrapAssessment(
        zone="child.example.",
        status=DnssecStatus.ISLAND,
        status_detail=None,
        eligibility=BootstrapEligibility.BOOTSTRAPPABLE,
        cds=CdsReport(**cds),
        signal=SignalReport(
            any_signal=True, covered_all_ns=True, secure_and_valid=True, matches_zone_cds=True
        ),
        signal_outcome=SignalOutcome.CORRECT,
    )


def _set(path, value):
    def mutate(assessment):
        target = assessment
        *parents, leaf = path.split(".")
        for name in parents:
            target = getattr(target, name)
        setattr(target, leaf, value)

    return mutate


#: One mutation per rung, in ladder order, that breaks only that rung.
BREAK_ONE_RUNG = (
    _set("status", DnssecStatus.UNRESOLVED),
    _set("status", DnssecStatus.SECURE),
    _set("signal.any_signal", False),
    _set("signal.is_delete", True),
    _set("cds.is_delete", True),
    _set("cds.cds_rrset", cds_rrset(algorithm=Algorithm.RSASHA1)),
    _set("status", DnssecStatus.UNSIGNED),
    _set("status", DnssecStatus.INVALID),
    _set("cds.present", False),
    _set("cds.consistent", False),
    _set("signal.consistent", False),
    _set("cds.sigs_valid", False),
    _set("signal.no_zone_cuts", False),
    _set("signal.covered_all_ns", False),
    _set("signal.secure_and_valid", False),
    _set("signal.matches_zone_cds", False),
    _set("signal_outcome", SignalOutcome.CANNOT_ZONE_INVALID),
    _set("status_detail", FailureReason.BAD_SIGNATURE),
)


class TestLadderTable:
    def test_clean_assessment_is_accepted(self):
        assessment = clean_assessment()
        assert decide(assessment) == (True, CHAIN_AUTHENTICATED)
        assert first_failure(assessment, authenticated=False) is None

    def test_one_mutation_per_rung(self):
        assert len(BREAK_ONE_RUNG) == len(LADDER)

    @pytest.mark.parametrize("index", range(len(LADDER)))
    def test_each_rung_alone_yields_its_reason(self, index):
        reason, needs_signal_zone, _ = LADDER[index]
        assessment = clean_assessment()
        BREAK_ONE_RUNG[index](assessment)
        failing = [i for i, (_, _, fails) in enumerate(LADDER) if fails(assessment)]
        assert failing == [index]
        assert decide(assessment) == (False, reason)
        # The unauthenticated baseline skips exactly the signalling-zone rungs.
        expected = None if needs_signal_zone else reason
        assert first_failure(assessment, authenticated=False) == expected

    @pytest.mark.parametrize(
        "rrset",
        [cds_rrset(algorithm=Algorithm.RSASHA1), cds_rrset(digest_type=DigestType.SHA1)],
        ids=["rsasha1", "sha1-digest"],
    )
    def test_unauthenticated_policies_inherit_the_algorithm_rule(self, rrset):
        decision = AcceptAfterDelayPolicy().evaluate(clean_assessment(cds_rrset=rrset))
        assert (decision.decision, decision.reason) == (Decision.REJECT, ALGORITHM_NOT_PERMITTED)


#: Table 3 outcome -> the ladder's reason, for signal-publishing zones.
REASON_FOR_OUTCOME = {
    SignalOutcome.ALREADY_SECURED: DS_ALREADY_PRESENT,
    SignalOutcome.CANNOT_DELETE_REQUEST: DELETE_REQUEST,
    SignalOutcome.CANNOT_ZONE_UNSIGNED: ZONE_UNSIGNED,
    SignalOutcome.CANNOT_ZONE_INVALID: ZONE_DNSSEC_INVALID,
    SignalOutcome.CANNOT_CDS_INCONSISTENT: CDS_DISAGREEMENT,
    SignalOutcome.CANNOT_CDS_SIG_INVALID: CDS_SIGNATURE_INVALID,
    SignalOutcome.INCORRECT_ZONE_CUT: SIGNAL_ZONE_CUT,
    SignalOutcome.INCORRECT_NS_COVERAGE: SIGNAL_COVERAGE_GAP,
    SignalOutcome.INCORRECT_SIGNAL_DNSSEC: UNAUTHENTICATED_CHAIN,
    SignalOutcome.INCORRECT_MISMATCH: SIGNAL_MISMATCH,
    SignalOutcome.CORRECT: CHAIN_AUTHENTICATED,
}
#: The two places the taxonomies order their checks differently: an
#: island with bad signatures trips the ladder's CDS-signature rung
#: before its catch-all, and a downgrade CDS is named as such.
DOCUMENTED_EXCEPTIONS = {
    (SignalOutcome.CANNOT_ZONE_INVALID, CDS_SIGNATURE_INVALID),
    (SignalOutcome.CANNOT_CDS_SIG_INVALID, ALGORITHM_NOT_PERMITTED),
}


class TestCrossTaxonomy:
    @pytest.fixture(scope="class")
    def report(self):
        # Re-checked: the re-scan's signal report replaces the first
        # scan's together with the outcome derived from it.
        config = CampaignConfig(scale=5e-7, seed=3, recheck=True, scenarios=ScenarioSpec())
        return run_campaign(config).report

    def test_three_vocabularies_accept_the_same_zones(self, report):
        policy = AuthenticatedBootstrapPolicy()
        accepted = 0
        for assessment in report.assessments:
            correct = assessment.signal_outcome == SignalOutcome.CORRECT
            assert decide(assessment)[0] == correct, assessment.zone
            assert policy.evaluate(assessment).accepted == correct, assessment.zone
            accepted += correct
        assert accepted

    def test_outcome_to_reason_is_one_to_one(self, report):
        seen = set()
        for assessment, _, _, signal_operator, _ in report.verdicts:
            outcome, reason = assessment.signal_outcome, decide(assessment)[1]
            if outcome == SignalOutcome.NO_SIGNAL:
                assert reason in (ZONE_WENT_DARK, DS_ALREADY_PRESENT, NO_SIGNAL)
                continue
            seen.add((outcome, reason))
            if reason == ALGORITHM_NOT_PERMITTED:
                assert signal_operator == "DowngradeCo"
        expected = set(REASON_FOR_OUTCOME.items()) | DOCUMENTED_EXCEPTIONS
        assert seen <= expected
        assert DOCUMENTED_EXCEPTIONS <= seen
