"""DNSSEC deployment status classification (§4.1 of the paper).

Each resolved zone falls into exactly one of four classes:

* ``UNSIGNED``  — no DNSKEY published and no DS at the parent.
* ``SECURE``    — DS at the parent matches a published DNSKEY and the
  DNSKEY RRset (and apex data) validates.
* ``INVALID``   — a DS exists but the chain does not validate (missing
  DNSKEY, digest mismatch, expired/bogus signatures), or the zone's own
  signatures are broken.
* ``ISLAND``    — the zone is DNSSEC-signed but no DS exists at the
  parent (a *secure island*; resolvers treat it as unsigned, RFC 4035).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.dnssec.validator import FailureReason, validate_chain_link, validate_rrset
from repro.scanner.results import ZoneScanResult


class DnssecStatus(enum.Enum):
    """Figure 1 / Table 1 status classes."""

    UNRESOLVED = "unresolved"
    UNSIGNED = "unsigned"
    SECURE = "secure"
    INVALID = "invalid"
    ISLAND = "island"


class KeyTransitionState(enum.Enum):
    """Observable key-lifecycle state of a scanned zone (RFC 6781/7344).

    Inferred purely from the published DNSKEY and parent DS RRsets, the
    same way an external scanner would: a zone mid-rollover shows extra
    keys or extra/orphaned DS records that a single snapshot can still
    classify deterministically.
    """

    NONE = "none"
    PREPUBLISH = "prepublish"  # successor DNSKEY published, DS still old
    DOUBLE_DS = "double_ds"  # both generations in DNSKEY *and* DS
    ALGORITHM_ROLLOVER = "algorithm_rollover"  # DNSKEYs span algorithms
    STRANDED_KSK = "stranded_ksk"  # no DS matches any published DNSKEY
    DANGLING_DS = "dangling_ds"  # DS at the parent, no DNSKEY at all


def classify_transition(result: ZoneScanResult) -> KeyTransitionState:
    """Which key-transition window (if any) a snapshot catches.

    Decision order matters and is fixed: missing DNSKEY under a DS is
    always ``DANGLING_DS``; multiple algorithms always win over count
    heuristics (an algorithm roll necessarily double-publishes); a DS
    set matching *no* key is ``STRANDED_KSK`` regardless of key count.
    The order — not dict/set iteration — decides ties, so the label is
    stable across processes and hash seeds.
    """
    if not result.resolved:
        return KeyTransitionState.NONE
    has_ds = result.ds is not None and result.ds.has_data
    has_dnskey = result.dnskey is not None and result.dnskey.has_data
    if not has_dnskey:
        return KeyTransitionState.DANGLING_DS if has_ds else KeyTransitionState.NONE

    dnskeys = list(result.dnskey.rrset.rdatas)
    if len({int(key.algorithm) for key in dnskeys}) > 1:
        return KeyTransitionState.ALGORITHM_ROLLOVER

    if has_ds:
        from repro.dnssec.ds import ds_matches_dnskey

        matched_keys = {
            index
            for index, key in enumerate(dnskeys)
            for ds in result.ds.rrset.rdatas
            if ds_matches_dnskey(result.zone, ds, key)
        }
        if not matched_keys:
            return KeyTransitionState.STRANDED_KSK
        if len(dnskeys) > 1:
            if len(matched_keys) > 1:
                return KeyTransitionState.DOUBLE_DS
            return KeyTransitionState.PREPUBLISH
        return KeyTransitionState.NONE

    # Islands publish no parent DS; a double-published DNSKEY RRset is
    # the only transition signature a snapshot can see.
    if len(dnskeys) > 1:
        return KeyTransitionState.PREPUBLISH
    return KeyTransitionState.NONE


def classify_status(result: ZoneScanResult) -> Tuple[DnssecStatus, Optional[FailureReason]]:
    """Classify one scanned zone; returns (status, failure detail).

    The detail is the validator's failure reason for ``INVALID`` zones
    and for islands whose self-contained validation fails (the paper's
    distinction between islands and invalidly-signed zones with DS).
    """
    if not result.resolved:
        return DnssecStatus.UNRESOLVED, None
    has_ds = result.ds is not None and result.ds.has_data
    has_dnskey = result.dnskey is not None and result.dnskey.has_data

    if not has_dnskey:
        if has_ds:
            # Errant DS at the parent with no keys in the zone: resolvers
            # expecting a secure delegation will fail validation.
            return DnssecStatus.INVALID, FailureReason.NO_DNSKEY
        return DnssecStatus.UNSIGNED, None

    dnskeys = list(result.dnskey.rrset.rdatas)
    selfsig = validate_rrset(result.dnskey.rrset, result.dnskey.rrsigs, dnskeys)

    if has_ds:
        link = validate_chain_link(
            result.zone, result.ds.rrset, result.dnskey.rrset, result.dnskey.rrsigs
        )
        if link.ok:
            return DnssecStatus.SECURE, None
        return DnssecStatus.INVALID, link.reason

    # Signed zone without DS: a secure island regardless of internal
    # signature health (resolvers treat it as unsigned either way), but
    # surface broken self-signatures as the detail.
    if selfsig.ok:
        return DnssecStatus.ISLAND, None
    return DnssecStatus.ISLAND, selfsig.reason


def island_is_internally_valid(result: ZoneScanResult) -> bool:
    """Does an island's DNSKEY RRset validate under its own keys?

    Bootstrapping a zone whose own signatures are broken would only
    produce a BOGUS delegation; RFC 8078 §3 requires acceptance checks.
    """
    if result.dnskey is None or not result.dnskey.has_data:
        return False
    dnskeys = list(result.dnskey.rrset.rdatas)
    return bool(validate_rrset(result.dnskey.rrset, result.dnskey.rrsigs, dnskeys))
