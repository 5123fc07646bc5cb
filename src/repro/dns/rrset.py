"""Resource records and RRsets.

An :class:`RRset` groups all records sharing (name, class, type) and a TTL,
which is the unit DNSSEC signs.  :meth:`RRset.canonical_wire` produces the
RFC 4034 §3.1.8.1 form hashed by signature algorithms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.rdata import Rdata
from repro.dns.types import RClass, RRType


class RR:
    """A single resource record (a row in a zone file)."""

    __slots__ = ("name", "rrtype", "rclass", "ttl", "rdata")

    def __init__(
        self,
        name: Name | str,
        ttl: int,
        rdata: Rdata,
        rclass: RClass = RClass.IN,
        rrtype: Optional[RRType] = None,
    ):
        self.name = name if isinstance(name, Name) else Name.from_text(name)
        self.ttl = ttl
        self.rdata = rdata
        self.rclass = rclass
        self.rrtype = RRType.make(int(rrtype if rrtype is not None else rdata.rrtype))

    def to_text(self) -> str:
        return (
            f"{self.name.to_text()} {self.ttl} {self.rclass.name} "
            f"{self.rrtype.name} {self.rdata.to_text()}"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RR):
            return NotImplemented
        return (
            self.name == other.name
            and self.rrtype == other.rrtype
            and self.rclass == other.rclass
            and self.ttl == other.ttl
            and self.rdata == other.rdata
        )

    def __hash__(self) -> int:
        return hash((self.name, int(self.rrtype), int(self.rclass), self.ttl, self.rdata))

    def __repr__(self) -> str:
        return f"<RR {self.to_text()}>"


class RRset:
    """All records sharing (owner name, class, type); the DNSSEC signing unit."""

    __slots__ = ("name", "rrtype", "rclass", "ttl", "_rdatas")

    def __init__(
        self,
        name: Name | str,
        rrtype: RRType,
        ttl: int,
        rdatas: Iterable[Rdata] = (),
        rclass: RClass = RClass.IN,
    ):
        self.name = name if isinstance(name, Name) else Name.from_text(name)
        self.rrtype = RRType.make(int(rrtype))
        self.rclass = rclass
        self.ttl = ttl
        self._rdatas: List[Rdata] = []
        for rdata in rdatas:
            self.add(rdata)

    def add(self, rdata: Rdata) -> None:
        if int(rdata.rrtype) != int(self.rrtype):
            raise ValueError(
                f"rdata type {RRType.make(int(rdata.rrtype)).name} does not match "
                f"RRset type {self.rrtype.name}"
            )
        if rdata not in self._rdatas:
            self._rdatas.append(rdata)

    def union(self, rdatas: Iterable[Rdata]) -> "RRset":
        """A new RRset holding this one's records, then those of *rdatas*
        it lacks (name, type, class and TTL are this one's); this one is
        left as it is."""
        merged = RRset(self.name, self.rrtype, self.ttl, rclass=self.rclass)
        merged._rdatas = list(self._rdatas)
        for rdata in rdatas:
            merged.add(rdata)
        return merged

    @property
    def rdatas(self) -> Tuple[Rdata, ...]:
        return tuple(self._rdatas)

    def __len__(self) -> int:
        return len(self._rdatas)

    def __iter__(self) -> Iterator[Rdata]:
        return iter(self._rdatas)

    def __bool__(self) -> bool:
        return bool(self._rdatas)

    def records(self) -> List[RR]:
        """Expand into individual :class:`RR` objects."""
        return [RR(self.name, self.ttl, rdata, self.rclass) for rdata in self._rdatas]

    def same_rdata_as(self, other: "RRset") -> bool:
        """True if both RRsets carry the same rdata, order-insensitively.

        This is the consistency notion the scanner uses when comparing the
        answers of different nameservers: TTLs may differ, data must not.
        """
        if int(self.rrtype) != int(other.rrtype):
            return False
        ours = sorted(r.to_canonical_wire() for r in self._rdatas)
        theirs = sorted(r.to_canonical_wire() for r in other._rdatas)
        return ours == theirs

    def canonical_wire(
        self, original_ttl: Optional[int] = None, owner_name: Optional[Name] = None
    ) -> bytes:
        """RFC 4034 §3.1.8.1: each RR in canonical form (owner lowercased,
        original TTL, canonical rdata), sorted by rdata octet order.

        *owner_name* overrides the owner — used when validating answers
        synthesised from a wildcard, where the signed name is
        ``*.<closest encloser>`` rather than the query name (RFC 4035
        §5.3.2)."""
        ttl = self.ttl if original_ttl is None else original_ttl
        owner = (owner_name or self.name).to_canonical_wire()
        # The per-RR prefix (owner/type/class/ttl) is identical for every
        # record, so build it once and concatenate rdata bodies directly —
        # this runs inside every signature computation and verification.
        prefix = (
            owner
            + int(self.rrtype).to_bytes(2, "big")
            + int(self.rclass).to_bytes(2, "big")
            + ttl.to_bytes(4, "big")
        )
        chunks: List[bytes] = []
        for rdata in self._rdatas:
            body = rdata.to_canonical_wire()
            chunks.append(prefix + len(body).to_bytes(2, "big") + body)
        # Sorting the full RR wire form is equivalent to sorting by rdata
        # here because the prefix is identical.
        return b"".join(sorted(chunks))

    def to_text(self) -> str:
        return "\n".join(rr.to_text() for rr in self.records())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RRset):
            return NotImplemented
        return (
            self.name == other.name
            and int(self.rrtype) == int(other.rrtype)
            and self.ttl == other.ttl
            and self.same_rdata_as(other)
        )

    def __repr__(self) -> str:
        return f"<RRset {self.name} {self.rrtype.name} n={len(self)}>"
