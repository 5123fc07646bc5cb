"""The registry-side bootstrap engine.

Runs one acceptance policy over a world's scan data, installs the
accepted CDS as signed DS RRsets in the live registry zones, and
re-scans to confirm the delegation chain now validates — turning the
paper's App.-D feasibility discussion ("only 1.2 M of 287.6 M domains
need to be scanned to this depth") into an executable experiment.

:func:`provision_zone` is the only install → re-scan → keep-or-roll-back
step (the parental agent calls it too) and :func:`replace_delegation`
the only code that edits a registry's delegation: its NS RRset, its DS
RRset, the DS signature and the NSEC that proves it.  A replayed event
reaches it through :func:`repro.ecosystem.mutate.follow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bootstrap import BootstrapAssessment, assess_zone
from repro.core.status import DnssecStatus, classify_status
from repro.dns.name import Name
from repro.dns.rdata import CDS, DS, NS, NSEC
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dns.zone import Zone
from repro.dnssec.ds import cds_to_ds
from repro.dnssec.nsec import nsec_types
from repro.dnssec.signer import sign_rrset
from repro.ecosystem import psl
from repro.ecosystem.generator import registry_key
from repro.ecosystem.world import World
from repro.provisioning.policies import (
    NO_ZONE_CDS,
    VERIFICATION_FAILED,
    BootstrapPolicy,
    Decision,
)
from repro.scanner.results import ZoneScanResult


@dataclass
class DeleteRun:
    """Outcome of processing RFC 8078 §4 delete requests (the "unAB"
    direction: the one registrar implementation the paper mentions)."""

    evaluated: int = 0
    deleted: List[str] = field(default_factory=list)  # DS removed
    refused: Dict[str, str] = field(default_factory=dict)  # zone → reason


@dataclass
class BootstrapRun:
    """Outcome of one engine pass."""

    policy: str
    evaluated: int = 0
    accepted: List[str] = field(default_factory=list)
    deferred: List[str] = field(default_factory=list)
    rejected: Dict[str, str] = field(default_factory=dict)  # zone → reason
    secured: List[str] = field(default_factory=list)  # verified post-install
    failed_verification: List[str] = field(default_factory=list)
    queries_used: int = 0


def replace_delegation(
    world: World,
    zone_name: str,
    ns: Optional[Sequence[NS]] = None,
    ds: Optional[Sequence[DS]] = None,
) -> None:
    """Replace the NS and the DS RRset at *zone_name*'s delegation (None
    keeps one; no DS rdatas remove the DS).  A DS edit also rebuilds the
    owner's NSEC type bitmap and re-signs both, keeping the owner's
    other signatures (a delegation's NS RRset is unsigned).  The edits
    drop the registry's answer memo (:attr:`~repro.dns.zone.Zone.answers`).

    Each RRset is replaced, never edited (a world's registries share
    theirs with the plan they were copied from), and re-added in the
    order a fresh build gives the node — DS, then NSEC, then RRSIG, the
    signatures in that type order — so an install undone by a removal
    leaves the registry byte for byte as it was.
    """
    owner = Name.from_text(zone_name)
    _, suffix = psl.registrable_part(owner)
    registry: Zone = world.registry_zones[suffix]
    if ns is not None:
        registry.remove_rrset(owner, RRType.NS)
        registry.add_rrset(RRset(owner, RRType.NS, 3600, ns))
    if ds is None:
        return
    registry.remove_rrset(owner, RRType.DS)
    if ds:
        registry.add_rrset(RRset(owner, RRType.DS, 3600, ds))
    nsec = registry.get_rrset(owner, RRType.NSEC)
    if nsec is not None:
        # RFC 4035 §5.4: the NSEC at an insecure delegation must deny DS.
        registry.remove_rrset(owner, RRType.NSEC)
        next_name = nsec.rdatas[0].next_name
        registry.add_rrset(
            RRset(owner, RRType.NSEC, nsec.ttl, [NSEC(next_name, nsec_types(registry, owner))])
        )
    old_sigs = registry.get_rrset(owner, RRType.RRSIG)
    registry.remove_rrset(owner, RRType.RRSIG)
    key = registry_key(suffix)
    sigs = []
    for rrset in registry.node_rrsets(owner):
        if int(rrset.rrtype) in (int(RRType.DS), int(RRType.NSEC)):
            sigs.append(sign_rrset(rrset, key, registry.origin))
        elif old_sigs is not None:
            sigs += [sig for sig in old_sigs if int(sig.type_covered) == int(rrset.rrtype)]
    if sigs:
        ttl = old_sigs.ttl if old_sigs is not None else 3600
        registry.add_rrset(RRset(owner, RRType.RRSIG, ttl, sigs))


def install_ds(world: World, zone_name: str, cds_rrset: RRset) -> List[DS]:
    """Install the DS records derived from *cds_rrset* into the registry
    zone for *zone_name*'s suffix, freshly signed; returns them."""
    ds_rdatas = [
        cds_to_ds(rd) for rd in cds_rrset.rdatas if isinstance(rd, CDS) and not rd.is_delete
    ]
    if not ds_rdatas:
        raise ValueError(f"no installable CDS for {zone_name}")
    replace_delegation(world, zone_name, ds=ds_rdatas)
    return ds_rdatas


def remove_ds(world: World, zone_name: str) -> None:
    """Process an RFC 8078 delete request: drop the DS at the parent."""
    replace_delegation(world, zone_name, ds=())


def provision_zone(
    world: World,
    scan: Callable[[str], ZoneScanResult],
    assessment: BootstrapAssessment,
) -> Tuple[Optional[str], List[DS]]:
    """The one per-zone step after an accept: install the zone's CDS as
    DS, re-scan with *scan*, keep it iff the chain is now SECURE.

    Returns ``(None, installed DS rdatas)``, or ``(reason_code, [])``
    with the parent left as it was found (RFC 8078 §3: never leave a
    broken delegation behind).
    """
    zone = assessment.zone.rstrip(".")
    if assessment.cds.cds_rrset is None:
        # Accepted on CDNSKEY alone: no digest to install yet.
        return NO_ZONE_CDS, []
    installed = install_ds(world, zone, assessment.cds.cds_rrset)
    if classify_status(scan(zone))[0] != DnssecStatus.SECURE:
        remove_ds(world, zone)
        return VERIFICATION_FAILED, []
    return None, installed


class BootstrapEngine:
    """Evaluate a policy over scan results and provision the registry."""

    def __init__(self, world: World, policy: BootstrapPolicy):
        self.world = world
        self.policy = policy
        self.scanner = world.make_scanner()

    def candidates(self, results: Iterable[ZoneScanResult]) -> List[ZoneScanResult]:
        """Registry short-circuit (App. D): skip zones that already have
        a DS — everything else is a candidate."""
        return [
            result
            for result in results
            if result.resolved and not (result.ds is not None and result.ds.has_data)
        ]

    def run(self, results: Iterable[ZoneScanResult], provision: bool = True) -> BootstrapRun:
        """Evaluate *results*, provision, and verify each install by re-scan.

        ``provision=False`` is a dry run: decisions are computed but the
        registry zones are left untouched (policy comparisons).
        """
        queries_before = self.world.network.queries_sent
        run = BootstrapRun(policy=self.policy.name)
        for result in self.candidates(results):
            assessment = assess_zone(result)
            decision = self.policy.evaluate(assessment)
            run.evaluated += 1
            if decision.decision == Decision.ACCEPT:
                self._provision(run, assessment, provision=provision)
            elif decision.decision == Decision.DEFER:
                run.deferred.append(decision.zone)
            else:
                run.rejected[decision.zone] = decision.reason
        run.queries_used = self.world.network.queries_sent - queries_before
        return run

    def _provision(self, run: BootstrapRun, assessment: BootstrapAssessment, provision: bool) -> None:
        zone = assessment.zone
        if not provision:
            run.accepted.append(zone)
            return
        failure, _ = provision_zone(self.world, self.scanner.scan_zone, assessment)
        if failure == NO_ZONE_CDS:
            run.rejected[zone] = failure
            return
        run.accepted.append(zone)
        if failure is not None:
            run.failed_verification.append(zone)
        else:
            run.secured.append(zone)

    # -- delete processing (RFC 8078 §4, the "unAB" side) ------------------

    def process_delete_requests(
        self, results: Iterable[ZoneScanResult], provision: bool = True
    ) -> DeleteRun:
        """Honour CDS delete sentinels on secured zones: remove the DS.

        The paper found 3 289 signed zones whose delete requests the
        registrar ignored; processing them turns each into exactly the
        Cloudflare-style secure island with a delete-request CDS.
        Requirements: the zone is currently SECURE, the delete CDS is
        consistent across every NS, and its signatures validate under
        the (still anchored) chain.
        """
        run = DeleteRun()
        for result in results:
            if result.ds is None or not result.ds.has_data:
                continue  # nothing to delete
            assessment = assess_zone(result)
            cds = assessment.cds
            if not (cds.present and cds.is_delete):
                continue
            run.evaluated += 1
            zone = assessment.zone
            if assessment.status != DnssecStatus.SECURE:
                run.refused[zone] = "zone is not validly secured"
                continue
            if not cds.consistent:
                run.refused[zone] = "delete request inconsistent between NSes"
                continue
            if cds.sigs_valid is False:
                run.refused[zone] = "delete request not validly signed"
                continue
            if provision:
                self.withdraw(zone)
            run.deleted.append(zone)
        return run

    def withdraw(self, zone: str) -> None:
        """Drop *zone*'s DS at the parent (an honoured delete, or undo)."""
        remove_ds(self.world, zone.rstrip("."))
