"""Authenticated denial of existence: NSEC (RFC 4034 §4) and NSEC3 (RFC 5155).

The synthetic zones carry NSEC chains so that NODATA/NXDOMAIN answers from
the simulated servers are verifiable the same way YoDNS sees them in the
wild.  NSEC3 support exists for completeness and for zones modelled on
operators that deploy it.
"""

from __future__ import annotations

import base64
import hashlib
from typing import Dict, List, Sequence

from repro.dns.name import Name
from repro.dns.rdata import NSEC, NSEC3, NSEC3PARAM
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dns.zone import Zone

_B32HEX = b"0123456789ABCDEFGHIJKLMNOPQRSTUV"
_B32STD = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
_TO_B32HEX = bytes.maketrans(_B32STD, _B32HEX)


def _authoritative_names(zone: Zone) -> List[Name]:
    """Owner names the zone is authoritative for (cuts included — the NSEC
    at a cut proves the delegation's type set — glue excluded)."""
    cuts = frozenset(zone.delegation_points())
    names = []
    for name in zone.names():
        is_glue = any(
            name.split(depth) in cuts
            for depth in range(len(zone.origin) + 1, len(name))
        )
        if is_glue:
            continue
        names.append(name)
    return names


def _node_type_bitmap(
    zone: Zone, name: Name, extra: Sequence[RRType], cuts: frozenset = frozenset()
) -> List[RRType]:
    types = set(zone.node_types(name))
    if name in cuts:
        # At a delegation only NS, DS (if present) and NSEC appear in the
        # bitmap; the child's data is not authoritative here.
        types &= {RRType.NS, RRType.DS}
    types.update(extra)
    return sorted(types, key=int)


def nsec_types(zone: Zone, name: Name) -> List[RRType]:
    """The type bitmap :func:`build_nsec_chain` gives the NSEC at *name*,
    from the node as it is now (RFC 4034 §4.1.2)."""
    is_cut = name != zone.origin and zone.get_rrset(name, RRType.NS) is not None
    cuts = frozenset([name]) if is_cut else frozenset()
    return _node_type_bitmap(zone, name, [RRType.NSEC, RRType.RRSIG], cuts)


def build_nsec_chain(zone: Zone, ttl: int = 3600) -> None:
    """Add an NSEC chain covering every authoritative name, in place."""
    names = _authoritative_names(zone)
    if not names:
        return
    cuts = frozenset(zone.delegation_points())
    for i, name in enumerate(names):
        next_name = names[(i + 1) % len(names)]
        types = _node_type_bitmap(zone, name, [RRType.NSEC, RRType.RRSIG], cuts)
        zone.add_rrset(RRset(name, RRType.NSEC, ttl, [NSEC(next_name, types)]))


def nsec3_hash(name: Name, salt: bytes, iterations: int) -> bytes:
    """RFC 5155 §5 iterated SHA-1 hash of the canonical owner name."""
    digest = hashlib.sha1(name.to_canonical_wire() + salt).digest()
    for _ in range(iterations):
        digest = hashlib.sha1(digest + salt).digest()
    return digest


def nsec3_hash_label(name: Name, salt: bytes, iterations: int) -> bytes:
    """The Base32hex (no padding) label for a hashed owner name."""
    raw = base64.b32encode(nsec3_hash(name, salt, iterations))
    return raw.translate(_TO_B32HEX).rstrip(b"=").lower()


_FROM_B32HEX = bytes.maketrans(_B32HEX, _B32STD)


def nsec3_label_to_hash(label: bytes) -> bytes:
    """Decode a Base32hex NSEC3 owner label back to the raw hash."""
    padded = label.upper().translate(_FROM_B32HEX) + b"=" * (-len(label) % 8)
    return base64.b32decode(padded)


def build_nsec3_chain(
    zone: Zone,
    salt: bytes = b"",
    iterations: int = 0,
    ttl: int = 3600,
    opt_out: bool = False,
) -> None:
    """Add an NSEC3 chain (and NSEC3PARAM) covering the zone, in place."""
    flags = 0x01 if opt_out else 0x00
    zone.add_rrset(
        RRset(
            zone.origin,
            RRType.NSEC3PARAM,
            0,
            [NSEC3PARAM(1, 0, iterations, salt)],
        )
    )
    hashed: Dict[bytes, Name] = {}
    for name in _authoritative_names(zone):
        hashed[nsec3_hash(name, salt, iterations)] = name
    ordered = sorted(hashed)
    cuts = frozenset(zone.delegation_points())
    for i, digest in enumerate(ordered):
        name = hashed[digest]
        next_digest = ordered[(i + 1) % len(ordered)]
        owner_label = (
            base64.b32encode(digest).translate(_TO_B32HEX).rstrip(b"=").lower()
        )
        owner = zone.origin.child(owner_label)
        types = _node_type_bitmap(zone, name, [RRType.RRSIG], cuts)
        if name == zone.origin:
            types = sorted(set(types) | {RRType.NSEC3PARAM}, key=int)
        zone.add_rrset(
            RRset(
                owner,
                RRType.NSEC3,
                ttl,
                [NSEC3(1, flags, iterations, salt, next_digest, types)],
            )
        )
