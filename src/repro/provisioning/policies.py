"""Bootstrap acceptance policies (RFC 8078 §3, Appendix C of the paper,
and RFC 9615).

Each policy answers one question: *given what we can observe about a
child zone, may the parent install its CDS as DS?*  The paper's
Appendix C lists the pre-RFC 9615 proposals and their operational
problems; implementing them side by side makes the trade-offs
measurable (experiment ``A1-policies`` of :mod:`repro.experiments`).

The acceptance conditions themselves are one table, :data:`LADDER`, read
by one pure function, :func:`first_failure`.  Every policy first requires
its RFC 8078 §3 baseline rungs (CDS present, consistent across every
authoritative nameserver, not a delete sentinel, of a permitted
algorithm, matching a DNSKEY actually in the zone, and the zone
validating under the would-be DS); :func:`decide` — the parental agent,
``AuthenticatedBootstrapPolicy`` and the security table — walks all of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.bootstrap import BootstrapAssessment, SignalOutcome
from repro.core.status import DnssecStatus
from repro.dnssec.algorithms import Algorithm, DigestType


class Decision(enum.Enum):
    """Outcome of evaluating one zone under one policy."""

    ACCEPT = "accept"
    REJECT = "reject"
    DEFER = "defer"  # acceptable so far, but the policy needs more time/input


@dataclass
class BootstrapDecision:
    """A policy's verdict for one zone."""

    zone: str
    decision: Decision
    reason: str
    policy: str

    @property
    def accepted(self) -> bool:
        return self.decision == Decision.ACCEPT


# Stable reason codes: the agent ledger's contract, never renamed.
CHAIN_AUTHENTICATED = "chain_authenticated"  # the accept code
VERIFICATION_FAILED = "verification_failed"  # post-install re-scan not SECURE
ZONE_WENT_DARK = "zone_went_dark"
DS_ALREADY_PRESENT = "ds_already_present"
NO_SIGNAL = "no_signal"
DELETE_REQUEST = "delete_request"
ALGORITHM_NOT_PERMITTED = "algorithm_not_permitted"
ZONE_UNSIGNED = "zone_unsigned"
ZONE_DNSSEC_INVALID = "zone_dnssec_invalid"
NO_ZONE_CDS = "no_zone_cds"
CDS_DISAGREEMENT = "cds_disagreement"
CDS_SIGNATURE_INVALID = "cds_signature_invalid"
SIGNAL_ZONE_CUT = "signal_zone_cut"
SIGNAL_COVERAGE_GAP = "signal_coverage_gap"
UNAUTHENTICATED_CHAIN = "unauthenticated_chain"
SIGNAL_MISMATCH = "signal_mismatch"

# The repo's validator support matrix: a parent never provisions a DS it
# could not itself validate, which is also what stops an
# algorithm-downgrade CDS (e.g. RSASHA1) at the door.
PERMITTED_ALGORITHMS = frozenset(
    {int(Algorithm.RSASHA256), int(Algorithm.ECDSAP256SHA256), int(Algorithm.ED25519)}
)
PERMITTED_DIGEST_TYPES = frozenset({int(DigestType.SHA256), int(DigestType.SHA384)})


def _algorithm_refused(assessment: BootstrapAssessment) -> bool:
    """Some CDS/CDNSKEY rdata the zone publishes uses an algorithm (or,
    for CDS, a digest type) outside the permitted sets.  Delete
    sentinels (algorithm 0) never get here: the delete rungs run first."""
    cds = assessment.cds
    for rdata in cds.cds_rrset.rdatas if cds.cds_rrset is not None else ():
        if int(rdata.algorithm) not in PERMITTED_ALGORITHMS:
            return True
        if int(rdata.digest_type) not in PERMITTED_DIGEST_TYPES:
            return True
    for rdata in cds.cdnskey_rrset.rdatas if cds.cdnskey_rrset is not None else ():
        if int(rdata.algorithm) not in PERMITTED_ALGORITHMS:
            return True
    return False


#: The acceptance ladder: ``(reason_code, needs_signal_zone, fails)``
#: rungs in RFC 8078 §3 / RFC 9615 §4 order of precedence.  The first
#: rung whose ``fails(assessment)`` is true names the rejection; order
#: decides the recorded reason when several would fail.  The algorithm
#: rung sits as soon as the CDS is known not to be a delete request, so a
#: downgrade CDS is reported as such rather than as whichever
#: consistency check it would also trip.  Rungs with
#: ``needs_signal_zone`` read RFC 9615 signalling-zone evidence; the
#: rest are the RFC 8078 §3 baseline every policy shares.
LADDER: Tuple[Tuple[str, bool, Callable[[BootstrapAssessment], bool]], ...] = (
    (ZONE_WENT_DARK, False, lambda a: a.status == DnssecStatus.UNRESOLVED),
    (DS_ALREADY_PRESENT, False, lambda a: a.status == DnssecStatus.SECURE),
    (NO_SIGNAL, True, lambda a: not a.signal.any_signal),
    (DELETE_REQUEST, True, lambda a: a.signal.is_delete),
    (DELETE_REQUEST, False, lambda a: a.cds.present and a.cds.is_delete),
    (ALGORITHM_NOT_PERMITTED, False, _algorithm_refused),
    (ZONE_UNSIGNED, False, lambda a: a.status == DnssecStatus.UNSIGNED),
    (ZONE_DNSSEC_INVALID, False, lambda a: a.status == DnssecStatus.INVALID),
    (NO_ZONE_CDS, False, lambda a: not a.cds.present),
    (CDS_DISAGREEMENT, False, lambda a: not a.cds.consistent),
    (CDS_DISAGREEMENT, True, lambda a: not a.signal.consistent),
    (
        CDS_SIGNATURE_INVALID,
        False,
        lambda a: a.cds.sigs_valid is False or a.cds.matches_dnskey is False,
    ),
    (SIGNAL_ZONE_CUT, True, lambda a: not a.signal.no_zone_cuts),
    (SIGNAL_COVERAGE_GAP, True, lambda a: not a.signal.covered_all_ns),
    (UNAUTHENTICATED_CHAIN, True, lambda a: not a.signal.secure_and_valid),
    (SIGNAL_MISMATCH, True, lambda a: a.signal.matches_zone_cds is False),
    # Whatever else keeps the paper's Table 3 taxonomy from saying CORRECT.
    (ZONE_DNSSEC_INVALID, True, lambda a: a.signal_outcome != SignalOutcome.CORRECT),
    # An island whose own signatures are unhealthy would only become BOGUS.
    (ZONE_DNSSEC_INVALID, False, lambda a: a.status_detail is not None),
)


def first_failure(assessment: BootstrapAssessment, authenticated: bool = True) -> Optional[str]:
    """The reason code of the first rung *assessment* fails, or ``None``.

    ``authenticated=False`` walks only the RFC 8078 §3 rungs that need
    no signalling zone — the baseline of the unauthenticated App.-C
    policies.  Pure: a function of the assessment alone.
    """
    for reason, needs_signal_zone, fails in LADDER:
        if (authenticated or not needs_signal_zone) and fails(assessment):
            return reason
    return None


def decide(assessment: BootstrapAssessment) -> Tuple[bool, str]:
    """RFC 9615 acceptance: ``(accept, reason_code)``."""
    reason = first_failure(assessment)
    return reason is None, reason or CHAIN_AUTHENTICATED


class BootstrapPolicy:
    """Base class: the RFC 8078 §3 baseline checks every policy shares."""

    name = "baseline"

    def baseline(self, assessment: BootstrapAssessment) -> Optional[str]:
        """Return a rejection reason code, or ``None`` if the baseline holds."""
        return first_failure(assessment, authenticated=False)

    def evaluate(self, assessment: BootstrapAssessment) -> BootstrapDecision:
        raise NotImplementedError

    def _verdict(self, assessment, decision: Decision, reason: str) -> BootstrapDecision:
        return BootstrapDecision(
            zone=assessment.zone, decision=decision, reason=reason, policy=self.name
        )


class AuthenticatedBootstrapPolicy(BootstrapPolicy):
    """RFC 9615: accept iff the signaling-zone evidence authenticates the
    CDS — the only fully automated *and* authenticated policy."""

    name = "rfc9615-authenticated"

    def evaluate(self, assessment: BootstrapAssessment) -> BootstrapDecision:
        accept, reason = decide(assessment)
        return self._verdict(
            assessment, Decision.ACCEPT if accept else Decision.REJECT, reason
        )


class AcceptAfterDelayPolicy(BootstrapPolicy):
    """Appendix C "Accept after Delay": install the DS once the CDS has
    been observed unchanged for *hold_days* from multiple vantage points.

    Unauthenticated: an attacker controlling the path long enough wins —
    but no operator/owner interaction is needed.
    """

    name = "accept-after-delay"

    def __init__(self, hold_days: int = 3):
        self.hold_days = hold_days
        # zone → (first_seen_day, canonical CDS fingerprint)
        self._observations: dict[str, tuple[int, bytes]] = {}
        self._today = 0

    def advance_days(self, days: int = 1) -> None:
        self._today += days

    def _fingerprint(self, assessment: BootstrapAssessment) -> bytes:
        rrset = assessment.cds.cds_rrset or assessment.cds.cdnskey_rrset
        return rrset.canonical_wire() if rrset is not None else b""

    def evaluate(self, assessment: BootstrapAssessment) -> BootstrapDecision:
        reason = self.baseline(assessment)
        if reason is not None:
            self._observations.pop(assessment.zone, None)
            return self._verdict(assessment, Decision.REJECT, reason)
        fingerprint = self._fingerprint(assessment)
        seen = self._observations.get(assessment.zone)
        if seen is None or seen[1] != fingerprint:
            self._observations[assessment.zone] = (self._today, fingerprint)
            return self._verdict(
                assessment, Decision.DEFER, f"observing for {self.hold_days} days"
            )
        first_seen, _ = seen
        if self._today - first_seen >= self.hold_days:
            return self._verdict(
                assessment, Decision.ACCEPT, f"stable for {self._today - first_seen} days"
            )
        return self._verdict(
            assessment,
            Decision.DEFER,
            f"stable for {self._today - first_seen}/{self.hold_days} days",
        )


class AcceptWithChallengePolicy(BootstrapPolicy):
    """Appendix C "Accept with Challenge": the registrar hands the
    customer a token to publish in the zone; acceptance requires it.

    Models the paper's objection — most customers never act on the
    token — with a *response rate*: only that fraction of zones ever
    publish the challenge.
    """

    name = "accept-with-challenge"

    def __init__(self, response_rate: float = 0.1):
        self.response_rate = response_rate

    def customer_responds(self, zone: str) -> bool:
        """Deterministic per-zone stand-in for 'did the customer publish
        the token?' — a hash bucket of the zone name."""
        import hashlib

        digest = hashlib.sha256(b"challenge" + zone.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.response_rate

    def evaluate(self, assessment: BootstrapAssessment) -> BootstrapDecision:
        reason = self.baseline(assessment)
        if reason is not None:
            return self._verdict(assessment, Decision.REJECT, reason)
        if self.customer_responds(assessment.zone):
            return self._verdict(assessment, Decision.ACCEPT, "challenge token published")
        return self._verdict(
            assessment, Decision.DEFER, "waiting for customer to publish the token"
        )


class AcceptFromInceptionPolicy(BootstrapPolicy):
    """Appendix C "Accept from Inception": check CDS at registration
    time only.  Requires the operator to have configured the zone before
    registration, "which is often not the case" — modelled by a
    *preconfigured rate*."""

    name = "accept-from-inception"

    def __init__(self, preconfigured_rate: float = 0.05):
        self.preconfigured_rate = preconfigured_rate

    def preconfigured(self, zone: str) -> bool:
        import hashlib

        digest = hashlib.sha256(b"inception" + zone.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.preconfigured_rate

    def evaluate(self, assessment: BootstrapAssessment) -> BootstrapDecision:
        reason = self.baseline(assessment)
        if reason is not None:
            return self._verdict(assessment, Decision.REJECT, reason)
        if self.preconfigured(assessment.zone):
            return self._verdict(
                assessment, Decision.ACCEPT, "CDS served at registration time"
            )
        return self._verdict(
            assessment, Decision.REJECT, "zone was not configured before registration"
        )
