"""Longitudinal diffing of two stored campaigns.

The paper's headline story is change over time: zones that were
insecure islands get bootstrapped into the chain of trust, operators
turn signals on (and occasionally break them).  Given two stores —
typically the same world scanned at different epochs, or before/after a
registry provisioning pass — this module reports membership churn and
per-zone classification transitions, computed from the *stored* scan
records through the same ``assess_zone`` judgement the live pipeline
uses.  It is the §4.4/evolution analogue over real persisted runs, not
the synthetic curves in :mod:`repro.ecosystem.evolution`.

Memory: one small enum triple is kept per zone (never the scan records
themselves), so diffing scales with the zone count, not the archive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.bootstrap import (
    INCORRECT_OUTCOMES,
    BootstrapAssessment,
    SignalOutcome,
    assess_zone,
)
from repro.core.status import DnssecStatus
from repro.store.reader import StoreReader


@dataclass(frozen=True)
class ZoneClassification:
    """The per-zone verdict triple a diff compares."""

    status: DnssecStatus
    eligibility_value: str
    outcome: SignalOutcome

    @classmethod
    def of(cls, assessment: BootstrapAssessment) -> "ZoneClassification":
        """The triple kept of one ``assess_zone`` verdict."""
        return cls(
            status=assessment.status,
            eligibility_value=assessment.eligibility.value,
            outcome=assessment.signal_outcome,
        )


def classify_store(reader: StoreReader) -> Dict[str, ZoneClassification]:
    """Stream a store through ``assess_zone``; keep only the verdicts."""
    classes: Dict[str, ZoneClassification] = {}
    for result in reader.iter_results():
        assessment = assess_zone(result)
        classes[assessment.zone] = ZoneClassification.of(assessment)
    return classes


@dataclass
class CampaignDiff:
    """What changed between two stored campaigns."""

    old_root: str
    new_root: str
    old_zones: int = 0
    new_zones: int = 0
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    unchanged: int = 0
    changed: int = 0

    # (from → to) transition counters over zones present in both runs.
    status_transitions: Counter = field(default_factory=Counter)
    outcome_transitions: Counter = field(default_factory=Counter)

    # Named cohorts (zone lists, sorted) for the transitions the paper
    # narrates.
    unsigned_to_secured: List[str] = field(default_factory=list)
    bootstrapped: List[str] = field(default_factory=list)  # island → secured
    newly_secured: List[str] = field(default_factory=list)  # any → secured
    signal_regressions: List[str] = field(default_factory=list)  # correct → incorrect
    signal_repaired: List[str] = field(default_factory=list)  # incorrect → correct


def diff_stores(old: StoreReader, new: StoreReader) -> CampaignDiff:
    """Compare two stored campaigns zone by zone."""
    return diff_classifications(
        classify_store(old), classify_store(new), str(old.root), str(new.root)
    )


def diff_classifications(
    old_classes: Dict[str, ZoneClassification],
    new_classes: Dict[str, ZoneClassification],
    old_root: str = "",
    new_root: str = "",
) -> CampaignDiff:
    """Diff two classification maps directly.

    The monitoring plane uses this to compare *merged* views (each
    zone's latest verdict across a chain of delta campaigns) that no
    single store holds.
    """
    diff = CampaignDiff(
        old_root=old_root,
        new_root=new_root,
        old_zones=len(old_classes),
        new_zones=len(new_classes),
        added=sorted(set(new_classes) - set(old_classes)),
        removed=sorted(set(old_classes) - set(new_classes)),
    )
    for zone in sorted(set(old_classes) & set(new_classes)):
        before, after = old_classes[zone], new_classes[zone]
        if before == after:
            diff.unchanged += 1
            continue
        diff.changed += 1
        if before.status != after.status:
            diff.status_transitions[(before.status.value, after.status.value)] += 1
        if before.outcome != after.outcome:
            diff.outcome_transitions[(before.outcome.value, after.outcome.value)] += 1

        if after.status == DnssecStatus.SECURE and before.status != DnssecStatus.SECURE:
            diff.newly_secured.append(zone)
            if before.status == DnssecStatus.UNSIGNED:
                diff.unsigned_to_secured.append(zone)
            elif before.status == DnssecStatus.ISLAND:
                diff.bootstrapped.append(zone)
        if before.outcome == SignalOutcome.CORRECT and after.outcome in INCORRECT_OUTCOMES:
            diff.signal_regressions.append(zone)
        if before.outcome in INCORRECT_OUTCOMES and after.outcome == SignalOutcome.CORRECT:
            diff.signal_repaired.append(zone)
    return diff


def _render_transitions(title: str, counter: Counter) -> List[str]:
    lines = [f"{title}:"]
    if not counter:
        lines.append("  (none)")
        return lines
    for (before, after), count in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {before:>24} -> {after:<28} {count}")
    return lines


def render_diff(diff: CampaignDiff, examples: int = 5) -> str:
    """Human-readable longitudinal report."""
    lines = [
        f"campaign diff: {diff.old_root} -> {diff.new_root}",
        f"zones: {diff.old_zones} -> {diff.new_zones} "
        f"(+{len(diff.added)} added, -{len(diff.removed)} removed, "
        f"{diff.changed} reclassified, {diff.unchanged} unchanged)",
        "",
    ]
    lines.extend(_render_transitions("status transitions", diff.status_transitions))
    lines.append("")
    lines.extend(_render_transitions("signal-outcome transitions", diff.outcome_transitions))

    def cohort(label: str, zones: List[str]) -> None:
        if not zones:
            return
        shown = ", ".join(zones[:examples])
        more = f" (+{len(zones) - examples} more)" if len(zones) > examples else ""
        lines.append(f"{label}: {len(zones)} — {shown}{more}")

    lines.append("")
    cohort("secured via bootstrap (island -> secured)", diff.bootstrapped)
    cohort("unsigned -> secured", diff.unsigned_to_secured)
    cohort("signal regressions (correct -> incorrect)", diff.signal_regressions)
    cohort("signal repaired (incorrect -> correct)", diff.signal_repaired)
    return "\n".join(lines)
