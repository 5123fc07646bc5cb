"""RRset and zone signing (RFC 4034 §3, RFC 4035 §2).

``sign_rrset`` produces one RRSIG over an RRset; ``sign_zone`` publishes
DNSKEYs, builds the NSEC chain, and signs every authoritative RRset in a
zone — the operation a DNS operator's signer performs.  The ecosystem
generator uses the ``inception``/``expiration`` and corruption hooks to
fabricate the invalid-DNSSEC populations the paper measures.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.dns.name import Name
from repro.dns.rdata import RRSIG, rrsig_fields_wire
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dns.zone import Zone
from repro.dnssec.keys import KeyPair
from repro.dnssec.nsec import build_nsec_chain

# Default signature validity window, mirroring common operator practice
# (e.g. Cloudflare signs for a few days, knot/BIND default to 2-4 weeks).
RRSIG_VALIDITY = 14 * 24 * 3600
DEFAULT_INCEPTION = 1_700_000_000  # fixed epoch for deterministic worlds

# Types never covered by RRSIGs in an authoritative zone.
_UNSIGNED_TYPES = {int(RRType.RRSIG), int(RRType.OPT)}


def sign_rrset(
    rrset: RRset,
    key: KeyPair,
    signer_name: Optional[Name] = None,
    inception: int = DEFAULT_INCEPTION,
    expiration: Optional[int] = None,
    original_ttl: Optional[int] = None,
) -> RRSIG:
    """Sign *rrset* with *key*, returning the RRSIG rdata.

    *signer_name* defaults to the RRset owner (apex signing); the label
    count excludes a leading wildcard label per RFC 4034 §3.1.3.
    """
    if expiration is None:
        expiration = inception + RRSIG_VALIDITY
    if signer_name is None:
        signer_name = rrset.name
    ttl = rrset.ttl if original_ttl is None else original_ttl
    labels = len(rrset.name)
    if rrset.name.labels and rrset.name.labels[0] == b"*":
        labels -= 1
    algorithm = int(key.algorithm)
    to_sign = rrsig_fields_wire(
        rrset.rrtype, algorithm, labels, ttl, expiration, inception, key.key_tag, signer_name
    )
    signature = key.sign(to_sign + rrset.canonical_wire(original_ttl=ttl))
    return RRSIG(
        rrset.rrtype, algorithm, labels, ttl, expiration, inception, key.key_tag, signer_name,
        signature,
    )  # fmt: skip


def corrupt_signature(rrsig: RRSIG) -> RRSIG:
    """Flip a bit in the signature — fabricates a BOGUS RRset for the
    invalid-DNSSEC populations in the synthetic ecosystem."""
    sig = bytearray(rrsig.signature)
    if not sig:
        sig = bytearray(b"\x00")
    sig[0] ^= 0x01
    return RRSIG(
        rrsig.type_covered,
        rrsig.algorithm,
        rrsig.labels,
        rrsig.original_ttl,
        rrsig.expiration,
        rrsig.inception,
        rrsig.key_tag,
        rrsig.signer_name,
        bytes(sig),
    )


def _is_glue_or_below_cut(zone: Zone, name: Name, rrtype: RRType, cuts: frozenset) -> bool:
    if name in cuts and int(rrtype) not in (int(RRType.DS), int(RRType.NSEC)):
        return True  # delegation NS (and anything else at the cut) is unsigned
    # Any proper ancestor being a cut makes this glue.  Walking the
    # suffixes keeps signing O(names · labels) even in registry zones
    # with hundreds of thousands of delegations.
    for depth in range(len(zone.origin) + 1, len(name)):
        if name.split(depth) in cuts:
            return True
    return False


def sign_zone(
    zone: Zone,
    keys: Iterable[KeyPair],
    inception: int = DEFAULT_INCEPTION,
    expiration: Optional[int] = None,
    with_nsec: bool = True,
    denial: Optional[str] = None,
) -> None:
    """Sign *zone* in place.

    Publishes the DNSKEY RRset at the apex, builds the denial chain
    (``denial``: ``"nsec"`` — the default when ``with_nsec`` is true —
    or ``"nsec3"``), then attaches RRSIGs: KSKs sign the DNSKEY RRset,
    ZSKs sign all other authoritative data (if no ZSK is supplied, KSKs
    sign everything, a common single-key CSK deployment).
    Delegation NS RRsets and glue stay unsigned; DS RRsets at cuts are
    signed (RFC 4035 §2.2).
    """
    key_list: List[KeyPair] = list(keys)
    if not key_list:
        raise ValueError("sign_zone requires at least one key")
    if denial is None:
        denial = "nsec" if with_nsec else "none"
    if denial not in ("nsec", "nsec3", "none"):
        raise ValueError(f"unknown denial mode: {denial}")
    ksks = [key for key in key_list if key.is_ksk] or key_list
    zsks = [key for key in key_list if not key.is_ksk] or key_list

    zone.add_rrset(RRset(zone.origin, RRType.DNSKEY, 3600, [key.dnskey() for key in key_list]))

    if denial == "nsec":
        build_nsec_chain(zone)
    elif denial == "nsec3":
        from repro.dnssec.nsec import build_nsec3_chain

        build_nsec3_chain(zone)

    cuts = frozenset(zone.delegation_points())
    # One RRSIG RRset per owner, its signatures in the owner's type order.
    signatures: Dict[Name, RRset] = {}
    for rrset in list(zone.iter_rrsets()):
        if int(rrset.rrtype) in _UNSIGNED_TYPES:
            continue
        if _is_glue_or_below_cut(zone, rrset.name, rrset.rrtype, cuts):
            continue
        signers = ksks if int(rrset.rrtype) == int(RRType.DNSKEY) else zsks
        sig_rrset = signatures.get(rrset.name)
        if sig_rrset is None:
            sig_rrset = signatures[rrset.name] = RRset(rrset.name, RRType.RRSIG, rrset.ttl)
        for key in signers:
            sig_rrset.add(
                sign_rrset(rrset, key, zone.origin, inception, expiration)
            )
    for sig_rrset in signatures.values():
        zone.add_rrset(sig_rrset)
