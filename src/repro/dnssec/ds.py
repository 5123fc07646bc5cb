"""DS digests and the RFC 8078 delete sentinel.

The DS digest is computed over ``owner (canonical wire) || DNSKEY rdata``
(RFC 4034 §5.1.4).  The delete sentinel ``0 0 0 00`` (CDS) / ``0 3 0 AA==``
(CDNSKEY) signals "remove DNSSEC from the parent" (RFC 8078 §4).
"""

from __future__ import annotations

from repro.dns.name import Name
from repro.dns.rdata import CDNSKEY, CDS, DS, _DNSKEYBase, _DSBase
from repro.dnssec.algorithms import DigestType, digest_for


def ds_from_dnskey(
    owner: Name,
    dnskey: _DNSKEYBase,
    digest_type: DigestType = DigestType.SHA256,
    cls=DS,
) -> DS:
    """Compute the DS (or CDS, via *cls*) rdata for *dnskey* at *owner*."""
    hasher = digest_for(digest_type)
    hasher.update(owner.to_canonical_wire())
    hasher.update(dnskey.to_wire())
    return cls(dnskey.key_tag(), dnskey.algorithm, int(digest_type), hasher.digest())


def cds_from_dnskey(owner: Name, dnskey: _DNSKEYBase, digest_type: DigestType = DigestType.SHA256) -> CDS:
    """The CDS rdata a child publishes to request this DS at the parent."""
    return ds_from_dnskey(owner, dnskey, digest_type, cls=CDS)


def ds_matches_dnskey(owner: Name, ds: _DSBase, dnskey: _DNSKEYBase) -> bool:
    """True if *ds*'s digest matches *dnskey* at *owner*.

    Unknown digest types never match (the validator reports them
    separately); key-tag and algorithm fields must also agree.
    """
    if ds.key_tag != dnskey.key_tag() or ds.algorithm != dnskey.algorithm:
        return False
    try:
        digest_type = DigestType(ds.digest_type)
    except ValueError:
        return False
    computed = ds_from_dnskey(owner, dnskey, digest_type)
    return computed.digest == ds.digest


def cds_delete_rdata() -> CDS:
    """The RFC 8078 §4 CDS delete sentinel: ``CDS 0 0 0 00``."""
    return CDS(0, 0, 0, b"\x00")


def cdnskey_delete_rdata() -> CDNSKEY:
    """The RFC 8078 §4 CDNSKEY delete sentinel: ``CDNSKEY 0 3 0 AA==``."""
    return CDNSKEY(0, 3, 0, b"\x00")


def cds_to_ds(cds: CDS) -> DS:
    """Re-type a child's CDS as the DS the parent would install."""
    return DS(cds.key_tag, cds.algorithm, cds.digest_type, cds.digest)
