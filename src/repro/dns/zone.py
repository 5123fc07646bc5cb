"""Authoritative zone container and lookup semantics.

A :class:`Zone` stores RRsets indexed by (owner name, type) and answers
the question an authoritative server must resolve for each query:
answer / delegation (referral) / NODATA / NXDOMAIN / CNAME — including
zone-cut awareness, which the RFC 9615 signal-zone analysis depends on.

A zone never changes an RRset it holds: :meth:`Zone.add_rrset` merges
copy-on-write and every other edit replaces or removes whole RRsets.
That is what lets :meth:`Zone.copy` share the RRset objects between a
zone and its copies — a world's registry zones are copies of one
signed plan (:mod:`repro.ecosystem.world`), and provisioning edits them
per world.

A zone also carries the wires the servers answering from it have built
(:attr:`Zone.answers`, filled by
:meth:`~repro.server.nameserver.AuthoritativeServer.answer_wire`), and
its owners in canonical order, per record type, for the denial
proofs' one bisect (:meth:`Zone.preceding`).  Neither needs invalidation by
hand: the two mutators replace them, a copy shares them until either
side is edited, and a :meth:`Zone.freeze`-d zone cannot be edited at
all.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.rdata import Rdata, SOA
from repro.dns.rrset import RRset
from repro.dns.types import RClass, RRType
from repro.memo import Memo


class ZoneError(ValueError):
    """Raised for structurally invalid zone contents or lookups."""


class LookupStatus(enum.Enum):
    """Outcome category of an in-zone lookup."""

    ANSWER = "answer"
    WILDCARD = "wildcard"  # answer synthesised from a * owner (RFC 1034 §4.3.3)
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    DELEGATION = "delegation"
    CNAME = "cname"
    NOT_IN_ZONE = "not_in_zone"


class LookupResult:
    """Result of :meth:`Zone.lookup`."""

    __slots__ = ("status", "rrset", "node_rrsets", "cut_name")

    def __init__(
        self,
        status: LookupStatus,
        rrset: Optional[RRset] = None,
        node_rrsets: Tuple[RRset, ...] = (),
        cut_name: Optional[Name] = None,
    ):
        self.status = status
        self.rrset = rrset
        self.node_rrsets = node_rrsets
        self.cut_name = cut_name

    def __repr__(self) -> str:
        return f"<LookupResult {self.status.value} rrset={self.rrset!r}>"


class Zone:
    """A DNS zone: an apex plus the records it is authoritative for.

    Records for names below a delegation point (other than glue) are
    rejected; the delegation NS RRset itself lives in this zone but is
    non-authoritative, matching RFC 1034 semantics.
    """

    def __init__(self, origin: Name | str):
        self.origin = origin if isinstance(origin, Name) else Name.from_text(origin)
        self._rrsets: Dict[Tuple[Name, int], RRset] = {}
        self._names: Dict[Name, List[int]] = {}
        # Every in-zone ancestor of every owner (for O(1) empty
        # non-terminal checks in big registry zones).
        self._interior: Dict[Name, int] = {}
        self._frozen = False
        self._edit()

    # -- mutation ------------------------------------------------------------

    def copy(self) -> "Zone":
        """A zone with the same records whose edits stay its own.

        O(owners): the index dicts are copied, the RRsets are shared, and
        so is the answer memo until either side is edited.
        """
        clone = Zone(self.origin)
        clone._rrsets = dict(self._rrsets)
        clone._names = {name: list(types) for name, types in self._names.items()}
        clone._interior = dict(self._interior)
        clone.answers = self.answers
        clone._chains = self._chains
        return clone

    def freeze(self) -> "Zone":
        """Refuse every later edit (a zone shared between worlds)."""
        self._frozen = True
        return self

    def _edit(self) -> None:
        if self._frozen:
            raise ZoneError(f"zone {self.origin} is frozen")
        # (query wire less its id, tcp, behaviour keys) → response wire
        # less its id: what servers answering from this content built.
        self.answers = Memo(1024)
        # rrtype → (canonical keys, owners) of the owners holding one.
        self._chains: Dict[int, Tuple[List[tuple], List[Name]]] = {}

    def add_rrset(self, rrset: RRset) -> None:
        """Add *rrset*, merging it into the owner's RRset of that type.

        The merge stores a new RRset (the held one keeps its records, the
        first TTL wins): a copy of this zone may share the held one.
        """
        if not rrset.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{rrset.name} is not within zone {self.origin}")
        self._edit()
        key = (rrset.name, int(rrset.rrtype))
        existing = self._rrsets.get(key)
        if existing is None:
            self._rrsets[key] = rrset
            if rrset.name not in self._names:
                for depth in range(len(self.origin), len(rrset.name)):
                    ancestor = rrset.name.split(depth)
                    self._interior[ancestor] = self._interior.get(ancestor, 0) + 1
            self._names.setdefault(rrset.name, []).append(int(rrset.rrtype))
        else:
            self._rrsets[key] = existing.union(rrset)

    def add(self, name: Name | str, ttl: int, rdata: Rdata) -> None:
        """Convenience: add a single record."""
        name = name if isinstance(name, Name) else Name.from_text(name)
        self.add_rrset(RRset(name, RRType.make(int(rdata.rrtype)), ttl, [rdata]))

    def remove_rrset(self, name: Name, rrtype: RRType) -> None:
        self._edit()
        key = (name, int(rrtype))
        if key in self._rrsets:
            del self._rrsets[key]
            self._names[name].remove(int(rrtype))
            if not self._names[name]:
                del self._names[name]
                for depth in range(len(self.origin), len(name)):
                    ancestor = name.split(depth)
                    remaining = self._interior.get(ancestor, 0) - 1
                    if remaining <= 0:
                        self._interior.pop(ancestor, None)
                    else:
                        self._interior[ancestor] = remaining

    # -- access ------------------------------------------------------------------

    def get_rrset(self, name: Name | str, rrtype: RRType) -> Optional[RRset]:
        name = name if isinstance(name, Name) else Name.from_text(name)
        return self._rrsets.get((name, int(rrtype)))

    def node_types(self, name: Name) -> Tuple[RRType, ...]:
        return tuple(RRType.make(t) for t in self._names.get(name, ()))

    def node_rrsets(self, name: Name) -> Tuple[RRset, ...]:
        return tuple(
            self._rrsets[(name, rrtype)] for rrtype in self._names.get(name, ())
        )

    def has_name(self, name: Name) -> bool:
        """True if *name* owns records or is an empty non-terminal."""
        return name in self._names or name in self._interior

    @property
    def soa(self) -> Optional[SOA]:
        rrset = self.get_rrset(self.origin, RRType.SOA)
        if rrset and rrset.rdatas:
            rdata = rrset.rdatas[0]
            return rdata if isinstance(rdata, SOA) else None
        return None

    def names(self) -> List[Name]:
        """All owner names, in RFC 4034 canonical order."""
        return sorted(self._names, key=lambda n: n.canonical_key())

    def preceding(self, rrtype: RRType, key: tuple, wrap: bool = False) -> Optional[RRset]:
        """The *rrtype* RRset of the last owner holding one whose
        canonical key is at or before *key*, or None; with *wrap*, the
        last owner holding one when no owner is before *key*.  One
        bisect: the owners holding *rrtype* are sorted once per zone
        content."""
        chain = self._chains.get(int(rrtype))
        if chain is None:
            owners = [n for n in self.names() if (n, int(rrtype)) in self._rrsets]
            chain = self._chains[int(rrtype)] = ([n.canonical_key() for n in owners], owners)
        keys, owners = chain
        index = bisect_right(keys, key)
        if index == 0 and not (wrap and owners):
            return None
        return self._rrsets[(owners[index - 1], int(rrtype))]

    def iter_rrsets(self) -> Iterator[RRset]:
        for name in self.names():
            for rrtype in self._names[name]:
                yield self._rrsets[(name, rrtype)]

    def __len__(self) -> int:
        return len(self._rrsets)

    # -- structure -----------------------------------------------------------------

    def delegation_points(self) -> List[Name]:
        """Names below the apex owning NS RRsets (zone cuts)."""
        return [
            name
            for (name, rrtype) in self._rrsets
            if rrtype == int(RRType.NS) and name != self.origin
        ]

    def find_cut(self, qname: Name) -> Optional[Name]:
        """The closest enclosing zone cut of *qname* within this zone, if any.

        Walks from just below the apex towards *qname* and returns the first
        name owning an NS RRset.
        """
        if not qname.is_subdomain_of(self.origin):
            return None
        for depth in range(len(self.origin) + 1, len(qname) + 1):
            candidate = qname.split(depth)
            if (candidate, int(RRType.NS)) in self._rrsets and candidate != self.origin:
                return candidate
        return None

    def is_authoritative_for(self, qname: Name) -> bool:
        """True if *qname* is in-zone and not beneath a delegation."""
        return qname.is_subdomain_of(self.origin) and self.find_cut(qname) is None

    # -- lookup ------------------------------------------------------------------------

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """Resolve one (qname, qtype) within this zone.

        Returns a :class:`LookupResult` whose status drives the
        authoritative server's response construction.
        """
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NOT_IN_ZONE)
        cut = self.find_cut(qname)
        if cut is not None and not (cut == qname and int(qtype) == int(RRType.DS)):
            # Queries at/below a cut are referrals — except a DS query at
            # the cut itself, which the parent answers authoritatively.
            return LookupResult(
                LookupStatus.DELEGATION,
                rrset=self._rrsets.get((cut, int(RRType.NS))),
                cut_name=cut,
            )
        exact = self._rrsets.get((qname, int(qtype)))
        if exact is not None:
            return LookupResult(
                LookupStatus.ANSWER, rrset=exact, node_rrsets=self.node_rrsets(qname)
            )
        cname = self._rrsets.get((qname, int(RRType.CNAME)))
        if cname is not None and int(qtype) != int(RRType.CNAME):
            return LookupResult(LookupStatus.CNAME, rrset=cname)
        if self.has_name(qname):
            return LookupResult(LookupStatus.NODATA, node_rrsets=self.node_rrsets(qname))
        return self._wildcard_lookup(qname, qtype)

    def _wildcard_lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """RFC 1034 §4.3.3: synthesise from ``*`` at the closest encloser."""
        for depth in range(len(qname) - 1, len(self.origin) - 1, -1):
            encloser = qname.split(depth)
            if not self.has_name(encloser):
                continue
            wildcard = encloser.child("*")
            if not self.has_name(wildcard):
                return LookupResult(LookupStatus.NXDOMAIN)
            exact = self._rrsets.get((wildcard, int(qtype)))
            if exact is not None:
                synthesized = RRset(qname, exact.rrtype, exact.ttl, exact.rdatas)
                return LookupResult(
                    LookupStatus.WILDCARD,
                    rrset=synthesized,
                    node_rrsets=self.node_rrsets(wildcard),
                    cut_name=wildcard,  # the source owner, for RRSIG lookup
                )
            cname = self._rrsets.get((wildcard, int(RRType.CNAME)))
            if cname is not None and int(qtype) != int(RRType.CNAME):
                synthesized = RRset(qname, cname.rrtype, cname.ttl, cname.rdatas)
                return LookupResult(LookupStatus.CNAME, rrset=synthesized, cut_name=wildcard)
            return LookupResult(LookupStatus.NODATA, node_rrsets=self.node_rrsets(wildcard))
        return LookupResult(LookupStatus.NXDOMAIN)

    # -- presentation -------------------------------------------------------------------

    def to_text(self) -> str:
        """Master-file-style dump (for debugging and examples)."""
        lines = [f"$ORIGIN {self.origin.to_text()}"]
        for rrset in self.iter_rrsets():
            lines.append(rrset.to_text())
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"<Zone {self.origin} rrsets={len(self._rrsets)}>"
