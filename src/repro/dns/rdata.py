"""Resource record data (RDATA) types.

Each class knows its wire codec, a textual presentation form, and a
*canonical* wire form for DNSSEC digests and signatures (RFC 4034 §6.2:
no compression; embedded names lowercased for the legacy types listed
there, as amended by RFC 6840 §5.1 which exempts RRSIG).

Unknown types round-trip via :class:`GenericRdata` (RFC 3597).
"""

from __future__ import annotations

import base64
import binascii
import ipaddress
from typing import ClassVar, Dict, List, Sequence, Tuple, Type

from repro.dns.name import Name
from repro.dns.types import RRType
from repro.dns.wire import WireError, WireReader, WireWriter

_REGISTRY: Dict[int, Type["Rdata"]] = {}


def register(cls: Type["Rdata"]) -> Type["Rdata"]:
    _REGISTRY[int(cls.rrtype)] = cls
    return cls


class Rdata:
    """Base class for typed RDATA.

    Subclasses are immutable value objects: equality and hashing are
    defined over the canonical wire form.
    """

    rrtype: ClassVar[RRType]

    # -- codec interface (overridden by subclasses) -----------------------

    def write_rdata(self, writer: WireWriter) -> None:
        raise NotImplementedError

    def write_canonical(self, writer: WireWriter) -> None:
        """Write the DNSSEC canonical form.  Default: same as wire form
        but without compression (subclasses with foldable names override)."""
        self.write_rdata(writer)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def wire_names(self) -> Tuple[Tuple[int, Name], ...]:
        """``(offset, name)`` for each domain name in :meth:`to_wire`: the
        compression targets a message registers when it splices the
        rdata in (they are written uncompressed, so they may be pointed at)."""
        return ()

    # -- helpers ------------------------------------------------------------

    # Rdata objects are immutable after __init__ (all field writes happen
    # in constructors), so the standalone wire and canonical forms can be
    # memoised per instance — equality, hashing, digests, and signature
    # input all reduce to one encode per object.

    def to_wire(self) -> bytes:
        wire = self.__dict__.get("_wire_form")
        if wire is None:
            writer = WireWriter(compress=False)
            self.write_rdata(writer)
            wire = writer.getvalue()
            self.__dict__["_wire_form"] = wire
        return wire

    def to_canonical_wire(self) -> bytes:
        wire = self.__dict__.get("_canonical_form")
        if wire is None:
            writer = WireWriter(compress=False)
            self.write_canonical(writer)
            wire = writer.getvalue()
            self.__dict__["_canonical_form"] = wire
        return wire

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rdata):
            return NotImplemented
        return (
            int(self.rrtype) == int(other.rrtype)
            and self.to_canonical_wire() == other.to_canonical_wire()
        )

    def __hash__(self) -> int:
        return hash((int(self.rrtype), self.to_canonical_wire()))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_text()}>"


def read_rdata(rrtype: RRType, reader: WireReader, rdlength: int) -> Rdata:
    """Decode *rdlength* octets at the reader into the typed rdata for
    *rrtype*, falling back to :class:`GenericRdata` for unknown types."""
    end = reader.position + rdlength
    cls = _REGISTRY.get(int(rrtype))
    if cls is None:
        rdata: Rdata = GenericRdata.read_generic(rrtype, reader, rdlength)
    else:
        rdata = cls.read_rdata(reader, rdlength)
    if reader.position != end:
        raise WireError(
            f"rdata length mismatch for {RRType.make(int(rrtype)).name}: "
            f"consumed {reader.position - (end - rdlength)} of {rdlength}"
        )
    return rdata


class GenericRdata(Rdata):
    """Opaque rdata for unknown types (RFC 3597)."""

    def __init__(self, rrtype: RRType, data: bytes):
        self._rrtype = RRType.make(int(rrtype))
        self.data = bytes(data)

    @property
    def rrtype(self) -> RRType:  # type: ignore[override]
        return self._rrtype

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_bytes(self.data)

    @classmethod
    def read_generic(cls, rrtype: RRType, reader: WireReader, rdlength: int) -> "GenericRdata":
        return cls(rrtype, reader.read_bytes(rdlength))

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"


class _Address(Rdata):
    """Shared implementation for the two address types.

    Only the packed octets are stored.  Text input is parsed (and so
    validated) once by ``__init__``; instances read from the wire are
    built straight from the octets; encoding never re-parses anything.
    The presentation form is derived on first use — most decoded
    addresses are glue re-read with every referral and never printed.
    """

    _ip_class: ClassVar[type]
    _octets: ClassVar[int]

    def __init__(self, address: str):
        self._packed = self._ip_class(address).packed

    @property
    def address(self) -> str:
        text = self.__dict__.get("_address")
        if text is None:
            text = self.__dict__["_address"] = str(self._ip_class(self._packed))
        return text

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_bytes(self._packed)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int):
        if rdlength != cls._octets:
            raise WireError(
                f"{cls.__name__} rdata must be {cls._octets} octets, got {rdlength}"
            )
        rdata = cls.__new__(cls)
        rdata._packed = bytes(reader.read_bytes(rdlength))
        return rdata

    def to_text(self) -> str:
        return self.address


@register
class A(_Address):
    """IPv4 address record."""

    rrtype = RRType.A
    _ip_class = ipaddress.IPv4Address
    _octets = 4


@register
class AAAA(_Address):
    """IPv6 address record."""

    rrtype = RRType.AAAA
    _ip_class = ipaddress.IPv6Address
    _octets = 16


class _SingleName(Rdata):
    """Shared implementation for rdata holding one domain name."""

    def __init__(self, target: Name | str):
        self.target = target if isinstance(target, Name) else Name.from_text(target)

    def write_rdata(self, writer: WireWriter) -> None:
        # Names in NS/CNAME/PTR rdata may be compressed in messages, but
        # we always emit uncompressed for determinism and simplicity.
        writer.write_name(self.target, compress=False)

    def write_canonical(self, writer: WireWriter) -> None:
        writer.write_bytes(self.target.to_canonical_wire())

    def wire_names(self) -> Tuple[Tuple[int, Name], ...]:
        return ((0, self.target),)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int):
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()


@register
class NS(_SingleName):
    """Nameserver delegation record."""

    rrtype = RRType.NS


@register
class CNAME(_SingleName):
    """Canonical-name alias record."""

    rrtype = RRType.CNAME


@register
class PTR(_SingleName):
    """Pointer record (reverse DNS)."""

    rrtype = RRType.PTR


@register
class SOA(Rdata):
    """Start-of-authority record."""

    rrtype = RRType.SOA

    def __init__(
        self,
        mname: Name | str,
        rname: Name | str,
        serial: int,
        refresh: int = 7200,
        retry: int = 3600,
        expire: int = 1209600,
        minimum: int = 3600,
    ):
        self.mname = mname if isinstance(mname, Name) else Name.from_text(mname)
        self.rname = rname if isinstance(rname, Name) else Name.from_text(rname)
        self.serial = serial
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_name(self.mname, compress=False)
        writer.write_name(self.rname, compress=False)
        for field in (self.serial, self.refresh, self.retry, self.expire, self.minimum):
            writer.write_u32(field)

    def write_canonical(self, writer: WireWriter) -> None:
        writer.write_bytes(self.mname.to_canonical_wire())
        writer.write_bytes(self.rname.to_canonical_wire())
        for field in (self.serial, self.refresh, self.retry, self.expire, self.minimum):
            writer.write_u32(field)

    def wire_names(self) -> Tuple[Tuple[int, Name], ...]:
        return ((0, self.mname), (self.mname.wire_length, self.rname))

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "SOA":
        mname = reader.read_name()
        rname = reader.read_name()
        serial = reader.read_u32()
        refresh = reader.read_u32()
        retry = reader.read_u32()
        expire = reader.read_u32()
        minimum = reader.read_u32()
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    def to_text(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


@register
class MX(Rdata):
    """Mail-exchanger record."""

    rrtype = RRType.MX

    def __init__(self, preference: int, exchange: Name | str):
        self.preference = preference
        self.exchange = exchange if isinstance(exchange, Name) else Name.from_text(exchange)

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_name(self.exchange, compress=False)

    def write_canonical(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_bytes(self.exchange.to_canonical_wire())

    def wire_names(self) -> Tuple[Tuple[int, Name], ...]:
        return ((2, self.exchange),)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "MX":
        return cls(reader.read_u16(), reader.read_name())

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange}"


@register
class TXT(Rdata):
    """Text record: one or more character-strings."""

    rrtype = RRType.TXT

    def __init__(self, strings: Sequence[bytes | str]):
        def to_bytes(item: bytes | str) -> bytes:
            data = item.encode("utf-8") if isinstance(item, str) else bytes(item)
            if len(data) > 255:
                raise ValueError("TXT character-string exceeds 255 octets")
            return data

        self.strings: Tuple[bytes, ...] = tuple(to_bytes(item) for item in strings)
        if not self.strings:
            raise ValueError("TXT requires at least one character-string")

    def write_rdata(self, writer: WireWriter) -> None:
        for chunk in self.strings:
            writer.write_u8(len(chunk))
            writer.write_bytes(chunk)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "TXT":
        if not rdlength:
            raise WireError("TXT rdata holds no character-string")
        end = reader.position + rdlength
        strings: List[bytes] = []
        while reader.position < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        return cls(strings)

    def to_text(self) -> str:
        return " ".join('"' + chunk.decode("utf-8", "replace") + '"' for chunk in self.strings)


class _DNSKEYBase(Rdata):
    """Shared codec for DNSKEY and CDNSKEY (RFC 4034 §2, RFC 7344 §3.2)."""

    def __init__(self, flags: int, protocol: int, algorithm: int, public_key: bytes):
        self.flags = flags
        self.protocol = protocol
        self.algorithm = algorithm
        self.public_key = bytes(public_key)

    @property
    def is_sep(self) -> bool:
        """Secure Entry Point (KSK) flag bit."""
        return bool(self.flags & 0x0001)

    @property
    def is_zone_key(self) -> bool:
        return bool(self.flags & 0x0100)

    @property
    def is_delete(self) -> bool:
        """RFC 8078 §4 delete sentinel: algorithm 0, zero-length key."""
        return self.algorithm == 0 and self.public_key in (b"", b"\x00")

    def key_tag(self) -> int:
        """RFC 4034 Appendix B key tag over the rdata wire form (memoised)."""
        tag = self.__dict__.get("_key_tag")
        if tag is None:
            data = self.to_wire()
            total = 0
            for i, octet in enumerate(data):
                total += octet if i % 2 else octet << 8
            total += (total >> 16) & 0xFFFF
            tag = total & 0xFFFF
            self.__dict__["_key_tag"] = tag
        return tag

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u16(self.flags)
        writer.write_u8(self.protocol)
        writer.write_u8(self.algorithm)
        writer.write_bytes(self.public_key)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int):
        if rdlength < 4:
            raise WireError("DNSKEY rdata too short")
        flags = reader.read_u16()
        protocol = reader.read_u8()
        algorithm = reader.read_u8()
        public_key = reader.read_bytes(rdlength - 4)
        return cls(flags, protocol, algorithm, public_key)

    def to_text(self) -> str:
        key = base64.b64encode(self.public_key).decode("ascii") if self.public_key else "AA=="
        return f"{self.flags} {self.protocol} {self.algorithm} {key}"


@register
class DNSKEY(_DNSKEYBase):
    """Public key used to sign zone data."""

    rrtype = RRType.DNSKEY

    FLAG_ZONE = 0x0100
    FLAG_SEP = 0x0001


@register
class CDNSKEY(_DNSKEYBase):
    """Child copy of DNSKEY for parent-side provisioning (RFC 7344)."""

    rrtype = RRType.CDNSKEY


class _DSBase(Rdata):
    """Shared codec for DS and CDS (RFC 4034 §5, RFC 7344 §3.1)."""

    def __init__(self, key_tag: int, algorithm: int, digest_type: int, digest: bytes):
        self.key_tag = key_tag
        self.algorithm = algorithm
        self.digest_type = digest_type
        self.digest = bytes(digest)

    @property
    def is_delete(self) -> bool:
        """RFC 8078 §4 delete sentinel: ``0 0 0 00``."""
        return (
            self.key_tag == 0
            and self.algorithm == 0
            and self.digest_type == 0
            and self.digest in (b"", b"\x00")
        )

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u16(self.key_tag)
        writer.write_u8(self.algorithm)
        writer.write_u8(self.digest_type)
        writer.write_bytes(self.digest)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int):
        if rdlength < 4:
            raise WireError("DS rdata too short")
        key_tag = reader.read_u16()
        algorithm = reader.read_u8()
        digest_type = reader.read_u8()
        digest = reader.read_bytes(rdlength - 4)
        return cls(key_tag, algorithm, digest_type, digest)

    def to_text(self) -> str:
        digest = self.digest.hex().upper() if self.digest else "00"
        return f"{self.key_tag} {self.algorithm} {self.digest_type} {digest}"


@register
class DS(_DSBase):
    """Delegation signer: digest of a child DNSKEY, lives in the parent."""

    rrtype = RRType.DS


@register
class CDS(_DSBase):
    """Child copy of desired DS for the parent (RFC 7344)."""

    rrtype = RRType.CDS


def rrsig_fields_wire(
    type_covered: int, algorithm: int, labels: int, original_ttl: int,
    expiration: int, inception: int, key_tag: int, signer_name: Name,
) -> bytes:  # fmt: skip
    """RRSIG rdata up to (not including) the Signature field.

    The signer name is written uncompressed and as stored: RFC 6840 §5.1
    does not case-fold it, and every name generated here is lowercase.
    """
    return (
        int(type_covered).to_bytes(2, "big")
        + bytes((algorithm, labels))
        + original_ttl.to_bytes(4, "big")
        + expiration.to_bytes(4, "big")
        + inception.to_bytes(4, "big")
        + key_tag.to_bytes(2, "big")
        + signer_name.to_wire()
    )


@register
class RRSIG(Rdata):
    """Signature over an RRset (RFC 4034 §3)."""

    rrtype = RRType.RRSIG

    def __init__(
        self,
        type_covered: RRType,
        algorithm: int,
        labels: int,
        original_ttl: int,
        expiration: int,
        inception: int,
        key_tag: int,
        signer_name: Name | str,
        signature: bytes,
    ):
        self.type_covered = RRType.make(int(type_covered))
        self.algorithm = algorithm
        self.labels = labels
        self.original_ttl = original_ttl
        self.expiration = expiration
        self.inception = inception
        self.key_tag = key_tag
        self.signer_name = (
            signer_name if isinstance(signer_name, Name) else Name.from_text(signer_name)
        )
        self.signature = bytes(signature)

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u16(int(self.type_covered))
        writer.write_u8(self.algorithm)
        writer.write_u8(self.labels)
        writer.write_u32(self.original_ttl)
        writer.write_u32(self.expiration)
        writer.write_u32(self.inception)
        writer.write_u16(self.key_tag)
        writer.write_name(self.signer_name, compress=False)
        writer.write_bytes(self.signature)

    def wire_names(self) -> Tuple[Tuple[int, Name], ...]:
        return ((18, self.signer_name),)

    def rdata_to_sign(self) -> bytes:
        """The RRSIG rdata with the Signature field omitted — the prefix
        of the data fed to the signature algorithm (RFC 4034 §3.1.8.1).
        Memoised: chain validation feeds the same RRSIG repeatedly."""
        cached = self.__dict__.get("_to_sign")
        if cached is None:
            cached = self.__dict__["_to_sign"] = rrsig_fields_wire(
                self.type_covered, self.algorithm, self.labels, self.original_ttl,
                self.expiration, self.inception, self.key_tag, self.signer_name,
            )  # fmt: skip
        return cached

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "RRSIG":
        start = reader.position
        type_covered = RRType.make(reader.read_u16())
        algorithm = reader.read_u8()
        labels = reader.read_u8()
        original_ttl = reader.read_u32()
        expiration = reader.read_u32()
        inception = reader.read_u32()
        key_tag = reader.read_u16()
        signer_name = reader.read_name()
        consumed = reader.position - start
        signature = reader.read_bytes(rdlength - consumed)
        return cls(
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer_name,
            signature,
        )

    def to_text(self) -> str:
        sig = base64.b64encode(self.signature).decode("ascii")
        return (
            f"{self.type_covered.name} {self.algorithm} {self.labels} "
            f"{self.original_ttl} {self.expiration} {self.inception} "
            f"{self.key_tag} {self.signer_name} {sig}"
        )


def _encode_type_bitmaps(types: Sequence[RRType]) -> bytes:
    """RFC 4034 §4.1.2 type bitmap encoding."""
    by_window: Dict[int, List[int]] = {}
    for rrtype in types:
        value = int(rrtype)
        by_window.setdefault(value >> 8, []).append(value & 0xFF)
    out = bytearray()
    for window in sorted(by_window):
        bitmap = bytearray(32)
        for low in by_window[window]:
            bitmap[low >> 3] |= 0x80 >> (low & 7)
        while bitmap and bitmap[-1] == 0:
            bitmap.pop()
        out.append(window)
        out.append(len(bitmap))
        out += bitmap
    return bytes(out)


def _decode_type_bitmaps(data: bytes) -> Tuple[RRType, ...]:
    types: List[RRType] = []
    pos = 0
    while pos < len(data):
        if pos + 2 > len(data):
            raise WireError("truncated type bitmap")
        window = data[pos]
        length = data[pos + 1]
        pos += 2
        if length == 0 or length > 32 or pos + length > len(data):
            raise WireError("malformed type bitmap window")
        for i in range(length):
            octet = data[pos + i]
            for bit in range(8):
                if octet & (0x80 >> bit):
                    types.append(RRType.make((window << 8) | (i << 3) | bit))
        pos += length
    return tuple(types)


@register
class NSEC(Rdata):
    """Authenticated denial of existence (RFC 4034 §4)."""

    rrtype = RRType.NSEC

    def __init__(self, next_name: Name | str, types: Sequence[RRType]):
        self.next_name = (
            next_name if isinstance(next_name, Name) else Name.from_text(next_name)
        )
        self.types = tuple(sorted({RRType.make(int(t)) for t in types}, key=int))

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_name(self.next_name, compress=False)
        writer.write_bytes(_encode_type_bitmaps(self.types))

    def write_canonical(self, writer: WireWriter) -> None:
        # RFC 6840 §5.1 also exempts NSEC's next name from folding, but we
        # generate lowercase names throughout, so both forms coincide.
        writer.write_name(self.next_name, compress=False)
        writer.write_bytes(_encode_type_bitmaps(self.types))

    def wire_names(self) -> Tuple[Tuple[int, Name], ...]:
        return ((0, self.next_name),)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "NSEC":
        start = reader.position
        next_name = reader.read_name()
        consumed = reader.position - start
        bitmap = reader.read_bytes(rdlength - consumed)
        return cls(next_name, _decode_type_bitmaps(bitmap))

    def to_text(self) -> str:
        return f"{self.next_name} " + " ".join(t.name for t in self.types)


@register
class NSEC3(Rdata):
    """Hashed authenticated denial of existence (RFC 5155 §3)."""

    rrtype = RRType.NSEC3

    def __init__(
        self,
        hash_algorithm: int,
        flags: int,
        iterations: int,
        salt: bytes,
        next_hashed: bytes,
        types: Sequence[RRType],
    ):
        self.hash_algorithm = hash_algorithm
        self.flags = flags
        self.iterations = iterations
        self.salt = bytes(salt)
        self.next_hashed = bytes(next_hashed)
        self.types = tuple(sorted({RRType.make(int(t)) for t in types}, key=int))

    @property
    def opt_out(self) -> bool:
        return bool(self.flags & 0x01)

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u8(self.hash_algorithm)
        writer.write_u8(self.flags)
        writer.write_u16(self.iterations)
        writer.write_u8(len(self.salt))
        writer.write_bytes(self.salt)
        writer.write_u8(len(self.next_hashed))
        writer.write_bytes(self.next_hashed)
        writer.write_bytes(_encode_type_bitmaps(self.types))

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "NSEC3":
        start = reader.position
        hash_algorithm = reader.read_u8()
        flags = reader.read_u8()
        iterations = reader.read_u16()
        salt = reader.read_bytes(reader.read_u8())
        next_hashed = reader.read_bytes(reader.read_u8())
        consumed = reader.position - start
        bitmap = reader.read_bytes(rdlength - consumed)
        return cls(hash_algorithm, flags, iterations, salt, next_hashed, _decode_type_bitmaps(bitmap))

    def to_text(self) -> str:
        salt = self.salt.hex().upper() if self.salt else "-"
        # The next-hashed owner is presented in Base32hex (RFC 5155 §3.3).
        b32 = base64.b32encode(self.next_hashed).decode("ascii")
        next_hash = (
            b32.translate(str.maketrans(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567", "0123456789ABCDEFGHIJKLMNOPQRSTUV"
            ))
            .rstrip("=")
            .lower()
        )
        return (
            f"{self.hash_algorithm} {self.flags} {self.iterations} {salt} "
            f"{next_hash} " + " ".join(t.name for t in self.types)
        )


@register
class NSEC3PARAM(Rdata):
    """NSEC3 parameters at the zone apex (RFC 5155 §4)."""

    rrtype = RRType.NSEC3PARAM

    def __init__(self, hash_algorithm: int, flags: int, iterations: int, salt: bytes):
        self.hash_algorithm = hash_algorithm
        self.flags = flags
        self.iterations = iterations
        self.salt = bytes(salt)

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u8(self.hash_algorithm)
        writer.write_u8(self.flags)
        writer.write_u16(self.iterations)
        writer.write_u8(len(self.salt))
        writer.write_bytes(self.salt)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "NSEC3PARAM":
        hash_algorithm = reader.read_u8()
        flags = reader.read_u8()
        iterations = reader.read_u16()
        salt = reader.read_bytes(reader.read_u8())
        return cls(hash_algorithm, flags, iterations, salt)

    def to_text(self) -> str:
        salt = self.salt.hex().upper() if self.salt else "-"
        return f"{self.hash_algorithm} {self.flags} {self.iterations} {salt}"


@register
class CSYNC(Rdata):
    """Child-to-parent synchronisation record (RFC 7477).

    Signals which of the child's RRsets (typically NS, and A/AAAA glue)
    the parent should copy into the delegation — the companion standard
    to CDS/CDNSKEY the paper names as future work.
    """

    rrtype = RRType.CSYNC

    FLAG_IMMEDIATE = 0x0001  # process without waiting for the serial
    FLAG_SOAMINIMUM = 0x0002  # require child SOA serial >= this serial

    def __init__(self, serial: int, flags: int, types: Sequence[RRType]):
        self.serial = serial
        self.flags = flags
        self.types = tuple(sorted({RRType.make(int(t)) for t in types}, key=int))

    @property
    def immediate(self) -> bool:
        return bool(self.flags & self.FLAG_IMMEDIATE)

    @property
    def soa_minimum(self) -> bool:
        return bool(self.flags & self.FLAG_SOAMINIMUM)

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_u32(self.serial)
        writer.write_u16(self.flags)
        writer.write_bytes(_encode_type_bitmaps(self.types))

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "CSYNC":
        if rdlength < 6:
            raise WireError("CSYNC rdata too short")
        serial = reader.read_u32()
        flags = reader.read_u16()
        bitmap = reader.read_bytes(rdlength - 6)
        return cls(serial, flags, _decode_type_bitmaps(bitmap))

    def to_text(self) -> str:
        return f"{self.serial} {self.flags} " + " ".join(t.name for t in self.types)


@register
class OPT(Rdata):
    """EDNS(0) pseudo-record rdata: raw option blob (RFC 6891)."""

    rrtype = RRType.OPT

    def __init__(self, options: bytes = b""):
        self.options = bytes(options)

    def write_rdata(self, writer: WireWriter) -> None:
        writer.write_bytes(self.options)

    @classmethod
    def read_rdata(cls, reader: WireReader, rdlength: int) -> "OPT":
        return cls(reader.read_bytes(rdlength))

    def to_text(self) -> str:
        return binascii.hexlify(self.options).decode("ascii") if self.options else ""
