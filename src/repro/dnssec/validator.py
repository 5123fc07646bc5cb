"""Signature and chain-of-trust validation (RFC 4035 §5).

The scanner's analysis needs exactly two operations:

* :func:`validate_rrset` — does any RRSIG over an RRset verify under a
  given DNSKEY set, inside its validity window?
* :func:`validate_chain_link` — does a parent-side DS RRset authenticate
  the child's DNSKEY RRset (one secure delegation step)?

Both return a :class:`ValidationResult` with a machine-readable
:class:`FailureReason` so the pipeline can bin misconfigurations the way
the paper does (expired vs. bogus vs. missing keys ...).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence

from repro.dns.name import Name
from repro.dns.rdata import DNSKEY, RRSIG, _DSBase
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dnssec.algorithms import SUPPORTED_ALGORITHMS, verify as algorithm_verify
from repro.dnssec.ds import ds_matches_dnskey
from repro.dnssec.signer import DEFAULT_INCEPTION
from repro.memo import table

# "now" for the deterministic worlds: 1 day after the default inception.
DEFAULT_VALIDATION_TIME = DEFAULT_INCEPTION + 86_400


class FailureReason(enum.Enum):
    """Why validation failed (or ``NONE`` when it succeeded)."""

    NONE = "none"
    NO_RRSIG = "no_rrsig"
    EXPIRED = "expired"
    NOT_YET_VALID = "not_yet_valid"
    NO_MATCHING_KEY = "no_matching_key"
    UNSUPPORTED_ALGORITHM = "unsupported_algorithm"
    BAD_SIGNATURE = "bad_signature"
    NO_MATCHING_DS = "no_matching_ds"
    NO_DNSKEY = "no_dnskey"


class ValidationResult:
    """Outcome of a validation attempt."""

    __slots__ = ("ok", "reason", "key_tag")

    def __init__(self, ok: bool, reason: FailureReason = FailureReason.NONE, key_tag: Optional[int] = None):
        self.ok = ok
        self.reason = reason
        self.key_tag = key_tag

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"<ValidationResult ok={self.ok} reason={self.reason.value}>"


# Memo of cryptographic verification outcomes keyed by the exact bytes
# fed to the algorithm: (algorithm, public key, signature, signed data) →
# bool.  Verification is a pure function of those bytes, and campaigns
# re-verify the same chain links constantly (every zone under a TLD
# revalidates the TLD's DNSKEY/DS link; anycast sampling re-fetches the
# same RRsets), so value-keyed caching collapses repeated public-key
# operations into a dict hit.
_VERIFY_MEMO = table(1 << 14)

_SUPPORTED_ALGORITHM_NUMBERS = frozenset(int(a) for a in SUPPORTED_ALGORITHMS)


def _verify_one(
    rrset: RRset,
    rrsig: RRSIG,
    dnskey: DNSKEY,
    now: int,
) -> ValidationResult:
    if now > rrsig.expiration:
        return ValidationResult(False, FailureReason.EXPIRED, rrsig.key_tag)
    if now < rrsig.inception:
        return ValidationResult(False, FailureReason.NOT_YET_VALID, rrsig.key_tag)
    if rrsig.algorithm not in _SUPPORTED_ALGORITHM_NUMBERS:
        return ValidationResult(False, FailureReason.UNSUPPORTED_ALGORITHM, rrsig.key_tag)
    owner_name = None
    owner_labels = len(rrset.name)
    if rrset.name.labels and rrset.name.labels[0] == b"*":
        owner_labels -= 1
    if rrsig.labels < owner_labels:
        # Wildcard expansion (RFC 4035 §5.3.2): the signed owner is
        # "*.<the rightmost `labels` labels of the query name>".
        owner_name = rrset.name.split(rrsig.labels).child("*")
    data = rrsig.rdata_to_sign() + rrset.canonical_wire(
        original_ttl=rrsig.original_ttl, owner_name=owner_name
    )
    memo_key = (rrsig.algorithm, dnskey.public_key, rrsig.signature, data)
    ok = _VERIFY_MEMO.get(memo_key)
    if ok is None:
        ok = _VERIFY_MEMO.put(
            memo_key, algorithm_verify(rrsig.algorithm, dnskey.public_key, rrsig.signature, data)
        )
    if ok:
        return ValidationResult(True, key_tag=rrsig.key_tag)
    return ValidationResult(False, FailureReason.BAD_SIGNATURE, rrsig.key_tag)


def validate_rrset(
    rrset: RRset,
    rrsigs: Iterable[RRSIG],
    dnskeys: Sequence[DNSKEY],
    now: int = DEFAULT_VALIDATION_TIME,
    signer: Optional[Name] = None,
) -> ValidationResult:
    """Validate *rrset* against any of *rrsigs* using *dnskeys*.

    Success requires one RRSIG that (a) covers the RRset type, (b) is
    within its validity window, (c) matches a zone key by tag+algorithm,
    and (d) cryptographically verifies.  The returned failure reason is
    the most specific obstacle encountered (RFC 4035 §5.3.3 spirit:
    one good signature suffices).
    """
    relevant = [
        sig
        for sig in rrsigs
        if int(sig.type_covered) == int(rrset.rrtype)
        and (signer is None or sig.signer_name == signer)
    ]
    if not relevant:
        return ValidationResult(False, FailureReason.NO_RRSIG)
    if not dnskeys:
        return ValidationResult(False, FailureReason.NO_DNSKEY)
    worst = ValidationResult(False, FailureReason.NO_MATCHING_KEY)
    # Reasons ordered least → most specific; keep the most telling failure.
    specificity = {
        FailureReason.NO_MATCHING_KEY: 0,
        FailureReason.UNSUPPORTED_ALGORITHM: 1,
        FailureReason.NOT_YET_VALID: 2,
        FailureReason.EXPIRED: 3,
        FailureReason.BAD_SIGNATURE: 4,
    }
    for rrsig in relevant:
        candidates = [
            key
            for key in dnskeys
            if key.key_tag() == rrsig.key_tag
            and key.algorithm == rrsig.algorithm
            and key.is_zone_key
        ]
        for key in candidates:
            result = _verify_one(rrset, rrsig, key, now)
            if result.ok:
                return result
            if specificity.get(result.reason, 0) >= specificity.get(worst.reason, 0):
                worst = result
    return worst


def extract_rrsigs(rrsig_rrset: Optional[RRset]) -> list[RRSIG]:
    """Pull the typed RRSIG rdatas out of an RRSIG RRset (may be ``None``)."""
    if rrsig_rrset is None:
        return []
    return [rdata for rdata in rrsig_rrset.rdatas if isinstance(rdata, RRSIG)]


def validate_chain_link(
    owner: Name,
    ds_rrset: Optional[RRset],
    dnskey_rrset: Optional[RRset],
    dnskey_rrsigs: Iterable[RRSIG],
    now: int = DEFAULT_VALIDATION_TIME,
) -> ValidationResult:
    """Validate one secure-delegation step: parent DS → child DNSKEY RRset.

    Success requires a DS whose digest matches a published DNSKEY *and*
    a DNSKEY RRset self-signature by that (or any DS-anchored) key.
    """
    if dnskey_rrset is None or not len(dnskey_rrset):
        return ValidationResult(False, FailureReason.NO_DNSKEY)
    dnskeys = [rd for rd in dnskey_rrset.rdatas if isinstance(rd, DNSKEY)]
    if ds_rrset is None or not len(ds_rrset):
        return ValidationResult(False, FailureReason.NO_MATCHING_DS)
    anchored = []
    for ds in ds_rrset.rdatas:
        if not isinstance(ds, _DSBase):
            continue
        for key in dnskeys:
            if ds_matches_dnskey(owner, ds, key):
                anchored.append(key)
    if not anchored:
        return ValidationResult(False, FailureReason.NO_MATCHING_DS)
    result = validate_rrset(dnskey_rrset, dnskey_rrsigs, anchored, now)
    if result.ok:
        return result
    # Fall back: any zone key may have signed the DNSKEY RRset as long as
    # at least one key is DS-anchored (multi-key deployments).
    full = validate_rrset(dnskey_rrset, dnskey_rrsigs, dnskeys, now)
    return full if full.ok else result


__all__ = [
    "DEFAULT_VALIDATION_TIME",
    "FailureReason",
    "ValidationResult",
    "extract_rrsigs",
    "validate_chain_link",
    "validate_rrset",
]
