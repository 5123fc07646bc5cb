"""Operator-quirk behaviours layered onto authoritative servers.

Each behaviour models a real-world server pathology the paper observed:

* :class:`LegacyUnknownTypeBehavior` — pre-RFC 3597 servers that return
  an error instead of NODATA for unknown query types (the paper's 7.6 M
  domains whose nameservers "failed to respond, or returned an error"
  for CDS/CDNSKEY queries).
* :class:`AfternicParkingBehavior` — GoDaddy's Afternic parking NSes,
  which answer *every* query identically, creating "the illusion of a
  zone cut at every level of the DNS tree" (the ``desc.io`` incident).
* :class:`TransientFailureBehavior` — servers that intermittently
  SERVFAIL or time out (deSEC's transient scan failures in §4.4).
* :class:`DropQueriesBehavior` — servers that never answer.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, TYPE_CHECKING

from repro.dns.message import Message, make_response
from repro.dns.name import Name
from repro.dns.rdata import NS
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.nameserver import AuthoritativeServer


class ServerBehavior:
    """Hook points around the default answer algorithm.

    ``should_drop`` may swallow the query (the client is left to its
    timeout); ``intercept`` may return a complete response to
    short-circuit processing; ``postprocess`` may rewrite the computed
    response.

    A behaviour whose hooks are pure functions of the query (no
    countdown, no memory of earlier queries) sets ``memo_key`` to a
    value naming its content (never an ``id()``); a server carrying only
    such behaviours answers a repeated query from the memo of the zone
    that answers it (:attr:`~repro.dns.zone.Zone.answers`).
    """

    memo_key: Optional[tuple] = None

    def should_drop(self, query: Message) -> bool:
        return False

    def intercept(self, server: "AuthoritativeServer", query: Message) -> Optional[Message]:
        return None

    def postprocess(
        self, server: "AuthoritativeServer", query: Message, response: Message
    ) -> Message:
        return response


# Types a pre-2003 (pre-RFC 3597) server implementation knows about.
_ANCIENT_TYPES = {
    int(RRType.A),
    int(RRType.NS),
    int(RRType.CNAME),
    int(RRType.SOA),
    int(RRType.PTR),
    int(RRType.MX),
    int(RRType.TXT),
    int(RRType.AAAA),
}


class LegacyUnknownTypeBehavior(ServerBehavior):
    """Return an error for query types the (ancient) implementation does
    not know, instead of the NODATA that RFC 3597 requires."""

    def __init__(self, rcode: Rcode = Rcode.SERVFAIL):
        self.rcode = rcode
        self.memo_key = ("legacy", int(rcode))

    def intercept(self, server: "AuthoritativeServer", query: Message) -> Optional[Message]:
        if query.question is None:
            return None
        if int(query.question.rrtype) not in _ANCIENT_TYPES:
            return make_response(query, self.rcode)
        return None


class AfternicParkingBehavior(ServerBehavior):
    """Answer every query for any name with the same parking NS records.

    Because a response to an NS query at *any* depth looks like a
    delegation, scanners perceive a zone cut at every level — exactly the
    failure mode that disqualified ``copacabanasomostudestino.com.bo``'s
    signal chain in the paper.
    """

    def __init__(self, park_ns: Iterable[str] = ("ns1.namefind.com", "ns2.namefind.com")):
        self.park_ns = [NS(name) for name in park_ns]
        self.memo_key = ("parking", tuple(ns.target for ns in self.park_ns))

    def intercept(self, server: "AuthoritativeServer", query: Message) -> Optional[Message]:
        if query.question is None:
            return None
        response = make_response(query)
        response.authoritative = True
        if int(query.question.rrtype) == int(RRType.NS):
            response.answer.append(
                RRset(query.question.name, RRType.NS, 3600, list(self.park_ns))
            )
        # Any other type: NOERROR with empty answer (looks like NODATA
        # but without an SOA — thoroughly confusing, as in the wild).
        return response


class TransientFailureBehavior(ServerBehavior):
    """SERVFAIL the first *failures* queries for each listed name.

    Deterministic by construction: a rescan of the same name succeeds,
    reproducing the paper's "subsequent check of this zone succeeded"
    observations.
    """

    def __init__(self, names: Iterable[Name], failures: int = 1, rcode: Rcode = Rcode.SERVFAIL):
        self._remaining = {name: failures for name in names}
        self.rcode = rcode

    def intercept(self, server: "AuthoritativeServer", query: Message) -> Optional[Message]:
        if query.question is None:
            return None
        qname = query.question.name
        remaining = self._remaining.get(qname, 0)
        if remaining > 0:
            self._remaining[qname] = remaining - 1
            return make_response(query, self.rcode)
        return None


class CorruptSignaturesBehavior(ServerBehavior):
    """Serve bogus RRSIGs for listed names, a limited number of times.

    Models deSEC's transiently invalid signal-zone signatures (§4.4):
    the first scan sees validation failures, a re-check succeeds.
    The countdown makes it stateful, hence without a ``memo_key``: a
    memoised bogus answer would turn the transient fault into a
    permanent one.
    """

    def __init__(self, names: Iterable[Name], failures: int = 1):
        self._remaining = {name: failures for name in names}

    def postprocess(
        self, server: "AuthoritativeServer", query: Message, response: Message
    ) -> Message:
        if query.question is None:
            return response
        qname = query.question.name
        remaining = self._remaining.get(qname, 0)
        if remaining <= 0:
            return response
        self._remaining[qname] = remaining - 1
        from repro.dns.rdata import RRSIG
        from repro.dnssec.signer import corrupt_signature

        for section in (response.answer, response.authority):
            for index, rrset in enumerate(section):
                if int(rrset.rrtype) != int(RRType.RRSIG):
                    continue
                corrupted = RRset(
                    rrset.name,
                    RRType.RRSIG,
                    rrset.ttl,
                    [
                        corrupt_signature(rd) if isinstance(rd, RRSIG) else rd
                        for rd in rrset.rdatas
                    ],
                )
                section[index] = corrupted
        return response


class StripSignaturesBehavior(ServerBehavior):
    """Serve answers for listed names with every RRSIG removed.

    Models spoofed signal records (the scenario plane's SpoofSign
    operator): the data looks plausible but carries no proof of origin,
    exactly what an off-path injector can produce.  Unlike
    :class:`CorruptSignaturesBehavior` this is stateless and permanent —
    a rescan sees the same stripped answer on every layout, which is
    what keeps scenario worlds byte-identical across worker counts.
    """

    def __init__(self, names: Iterable[Name]):
        self.names = frozenset(names)
        self.memo_key = ("strip", self.names)

    def postprocess(
        self, server: "AuthoritativeServer", query: Message, response: Message
    ) -> Message:
        if query.question is None or query.question.name not in self.names:
            return response
        for section in (response.answer, response.authority):
            section[:] = [
                rrset for rrset in section if int(rrset.rrtype) != int(RRType.RRSIG)
            ]
        return response


class SyntheticCutBehavior(ServerBehavior):
    """Answer NS queries at specific names with a fabricated NS RRset.

    Creates the *illusion* of a zone cut (RFC 9615 forbids cuts inside
    signaling names) without actually delegating — the configuration
    error behind the paper's ``copacabanasomostudestino.com.bo`` case.
    """

    def __init__(self, names: Iterable[Name], park_ns: Iterable[str] = ("ns1.namefind.com", "ns2.namefind.com")):
        self.names = frozenset(names)
        self.park_ns = [NS(name) for name in park_ns]
        self.memo_key = ("cut", self.names, tuple(ns.target for ns in self.park_ns))

    def intercept(self, server: "AuthoritativeServer", query: Message) -> Optional[Message]:
        if query.question is None:
            return None
        if int(query.question.rrtype) != int(RRType.NS):
            return None
        if query.question.name not in self.names:
            return None
        response = make_response(query)
        response.authoritative = True
        response.answer.append(RRset(query.question.name, RRType.NS, 3600, list(self.park_ns)))
        return response


class DropQueriesBehavior(ServerBehavior):
    """Never answer (the client is left to its timeout).

    Models lame or firewalled nameservers; with *qtypes* set, only the
    listed query types are dropped (legacy middleboxes eating unknown
    types without even an error).
    """

    def __init__(self, qtypes: Optional[Iterable[RRType]] = None):
        self.qtypes: Optional[FrozenSet[int]] = (
            None if qtypes is None else frozenset(int(t) for t in qtypes)
        )
        self.memo_key = ("drop", self.qtypes)

    def should_drop(self, query: Message) -> bool:
        if self.qtypes is None:
            return True
        return query.question is not None and int(query.question.rrtype) in self.qtypes
