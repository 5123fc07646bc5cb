"""Authoritative nameserver answer logic (RFC 1034 §4.3.2, RFC 4035 §3).

An :class:`AuthoritativeServer` holds zones (directly or through a lazy
*zone provider*) and turns a query :class:`~repro.dns.message.Message`
into a response: answer, referral, NODATA, or NXDOMAIN — attaching
RRSIGs, NSEC proofs and DS records when the DO bit is set.

Operator quirks (legacy servers erroring on unknown types, parking
services answering everything, transient failures) are layered on via
:mod:`repro.server.behaviors` rather than forked server classes.

Each answer is built once per zone content: :meth:`answer_wire` keeps
the response wire on the zone that answers
(:attr:`~repro.dns.zone.Zone.answers`), and a zone edit drops it, so no
caller ever clears anything.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.dns.message import Message, decode_received, make_response
from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.zone import LookupStatus, Zone

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.behaviors import ServerBehavior

# A provider maps an apex name to a Zone (or None); lets worlds
# materialise zones lazily instead of keeping 10^5 signed zones resident.
ZoneProvider = Callable[[Name], Optional[Zone]]


class AuthoritativeServer:
    """Serves one or more zones authoritatively."""

    def __init__(self, server_id: str = "ns"):
        self.server_id = server_id
        self._zones: Dict[Name, Zone] = {}
        # (apexes, provider): the provider is asked for an apex its own
        # live container holds.
        self._providers: List[Tuple[Collection[Name], ZoneProvider]] = []
        self.behaviors: List["ServerBehavior"] = []
        self.queries_handled = 0
        self.memo_hits = 0  # answers served from a zone's memo

    # -- zone management ---------------------------------------------------

    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone

    def add_zone_provider(self, apexes: Collection[Name], provider: ZoneProvider) -> None:
        """Register a lazy provider claiming authority for the apexes in
        *apexes* — read live, so an apex the caller adds to it or drops
        from it (NS churn moving a customer zone between hosts) is
        served or refused from then on."""
        self._providers.append((apexes, provider))

    def add_behavior(self, behavior: "ServerBehavior") -> None:
        self.behaviors.append(behavior)

    def zone_apexes(self) -> List[Name]:
        return sorted(
            set(self._zones).union(*(apexes for apexes, _ in self._providers)),
            key=lambda n: n.canonical_key(),
        )

    def find_zone(self, qname: Name) -> Optional[Zone]:
        """The most specific zone this server is authoritative for that
        encloses *qname* (deepest-match wins, RFC 1034 §4.3.2 step 2).

        Walks the suffixes of *qname* from deepest to shallowest, so the
        cost is O(labels) even with hundreds of thousands of apexes.
        """
        for depth in range(len(qname), -1, -1):
            apex = qname.split(depth)
            zone = self._zones.get(apex)
            if zone is not None:
                return zone
            for apexes, provider in self._providers:
                if apex in apexes:
                    zone = provider(apex)
                    if zone is not None:
                        return zone
        return None

    # -- query handling -------------------------------------------------------

    def answer_wire(self, wire: bytes, tcp: bool = False) -> Optional[bytes]:
        """Answer one query *wire*: the response wire, or ``None`` when a
        behaviour drops the query and the client is left to its timeout.

        The one exchange step behind every transport — the simulated
        fabric calls it in memory, the socket engine calls it between a
        read and a write.  UDP responses are cut to the query's EDNS
        payload size (512 octets without EDNS, and never fewer: RFC 6891
        §6.2.5) and may come back with the TC bit; TCP carries them
        whole (RFC 7766).  The query is decoded through
        :func:`~repro.dns.message.decode_received`, once per process.

        The answer of a server whose behaviours (if any) all have a
        ``memo_key`` is a pure function of the query bytes and the zone
        that answers, so it is memoised on that zone
        (:attr:`~repro.dns.zone.Zone.answers`): every server and every
        world answering from the same zone object serves a repeat from
        the memo with the message id patched in.  A dropped query is
        never memoised.  Raises :class:`ValueError` if *wire* does not
        decode.
        """
        query = decode_received(wire)
        for behavior in self.behaviors:
            if behavior.should_drop(query):
                return None
        memo = None
        if query.question is not None:
            zone = self._answering_zone(query.question.name, int(query.question.rrtype))
            behaviours = tuple(behavior.memo_key for behavior in self.behaviors)
            if zone is not None and None not in behaviours:
                memo, key = zone.answers, (wire[2:], tcp, behaviours)
                hit = memo.get(key)
                if hit is not None:
                    self.queries_handled += 1
                    self.memo_hits += 1
                    return wire[:2] + hit
        response = self.handle_query(query)
        if tcp:
            response_wire = response.to_wire()
        else:
            payload = max(query.edns_payload, 512) if query.edns else 512
            response_wire = response.to_wire(max_size=payload)
        if memo is not None:
            memo.put(key, response_wire[2:])
        return response_wire

    def handle_query(self, query: Message) -> Message:
        """Answer one query message, running behaviour hooks around the
        default RFC answer algorithm."""
        self.queries_handled += 1
        for behavior in self.behaviors:
            short_circuit = behavior.intercept(self, query)
            if short_circuit is not None:
                return short_circuit
        response = self._answer(query)
        for behavior in self.behaviors:
            response = behavior.postprocess(self, query, response)
        return response

    def _answer(self, query: Message) -> Message:
        if query.question is None:
            return make_response(query, Rcode.FORMERR)
        qname = query.question.name
        qtype = RRType.make(int(query.question.rrtype))
        zone = self._answering_zone(qname, int(qtype))
        if zone is None:
            return make_response(query, Rcode.REFUSED)
        want_dnssec = query.dnssec_ok
        result = zone.lookup(qname, qtype)
        response = make_response(query)
        response.authoritative = True

        if result.status == LookupStatus.ANSWER:
            response.answer.append(result.rrset)
            if want_dnssec:
                self._attach_sigs(zone, response.answer, qname)
        elif result.status == LookupStatus.WILDCARD:
            response.answer.append(result.rrset)
            if want_dnssec:
                # The RRSIG lives at the wildcard owner; it is served
                # with the synthesised name (RFC 4035 §3.1.3.3), plus the
                # NSEC proving no closer match exists.
                self._attach_wildcard_sigs(zone, result, response)
        elif result.status == LookupStatus.CNAME:
            response.answer.append(result.rrset)
            if want_dnssec:
                self._attach_sigs(zone, response.answer, qname)
            self._chase_cname(zone, result.rrset, qtype, response, want_dnssec)
        elif result.status == LookupStatus.NODATA:
            self._attach_soa(zone, response, want_dnssec)
            if want_dnssec:
                self._attach_nsec(zone, qname, response)
        elif result.status == LookupStatus.NXDOMAIN:
            response.rcode = Rcode.NXDOMAIN
            self._attach_soa(zone, response, want_dnssec)
            if want_dnssec:
                self._attach_nxdomain_proof(zone, qname, response)
        elif result.status == LookupStatus.DELEGATION:
            response.authoritative = False
            self._attach_referral(zone, result.cut_name, response, want_dnssec)
        else:  # NOT_IN_ZONE — find_zone said yes but the zone disagrees
            response.rcode = Rcode.SERVFAIL
        return response

    def _answering_zone(self, qname: Name, qtype: int) -> Optional[Zone]:
        """The zone a query for (*qname*, *qtype*) is answered from."""
        zone = self.find_zone(qname)
        if (
            zone is not None
            and qtype == int(RRType.DS)
            and qname == zone.origin
            and not qname.is_root()
        ):
            # DS at a zone apex belongs to the parent side of the cut
            # (RFC 4035 §3.1.4.1): when we also host the parent zone,
            # answer from there.
            parent_zone = self.find_zone(qname.parent())
            if parent_zone is not None and parent_zone.origin != zone.origin:
                zone = parent_zone
        return zone

    # -- response assembly helpers --------------------------------------------------

    def _attach_sigs(self, zone: Zone, section: List[RRset], owner_hint: Name) -> None:
        """Append RRSIGs covering the RRsets already in *section*.

        Idempotent: RRsets that already have a covering RRSIG RRset in
        the section are skipped, so proof-assembly code may call this
        after each addition.
        """
        already_covered = set()
        for rrset in section:
            if int(rrset.rrtype) == int(RRType.RRSIG):
                for sig in rrset.rdatas:
                    already_covered.add((rrset.name, int(sig.type_covered)))
        for rrset in list(section):
            if int(rrset.rrtype) == int(RRType.RRSIG):
                continue
            if (rrset.name, int(rrset.rrtype)) in already_covered:
                continue
            sig_rrset = zone.get_rrset(rrset.name, RRType.RRSIG)
            if sig_rrset is None:
                continue
            covering = [
                sig
                for sig in sig_rrset.rdatas
                if int(sig.type_covered) == int(rrset.rrtype)
            ]
            if covering:
                section.append(
                    RRset(rrset.name, RRType.RRSIG, sig_rrset.ttl, covering)
                )
                already_covered.add((rrset.name, int(rrset.rrtype)))

    def _attach_wildcard_sigs(self, zone: Zone, result, response: Message) -> None:
        wildcard = result.cut_name
        synthesized = result.rrset
        sig_rrset = zone.get_rrset(wildcard, RRType.RRSIG)
        if sig_rrset is not None:
            covering = [
                sig
                for sig in sig_rrset.rdatas
                if int(sig.type_covered) == int(synthesized.rrtype)
            ]
            if covering:
                response.answer.append(
                    RRset(synthesized.name, RRType.RRSIG, sig_rrset.ttl, covering)
                )
        nsec = self._covering_nsec(zone, synthesized.name)
        if nsec is not None:
            response.authority.append(nsec)
            self._attach_sigs(zone, response.authority, synthesized.name)

    def _attach_soa(self, zone: Zone, response: Message, want_dnssec: bool) -> None:
        soa = zone.get_rrset(zone.origin, RRType.SOA)
        if soa is not None:
            response.authority.append(soa)
            if want_dnssec:
                self._attach_sigs(zone, response.authority, zone.origin)

    def _attach_nsec(self, zone: Zone, qname: Name, response: Message) -> None:
        nsec = zone.get_rrset(qname, RRType.NSEC)
        if nsec is not None:
            response.authority.append(nsec)
            self._attach_sigs(zone, response.authority, qname)
            return
        matching = self._matching_nsec3(zone, qname)
        if matching is not None:
            response.authority.append(matching)
            self._attach_sigs(zone, response.authority, matching.name)

    def _attach_nxdomain_proof(self, zone: Zone, qname: Name, response: Message) -> None:
        """Attach the NSEC covering the hole for *qname* (plus the one
        proving no wildcard, when distinct), or the NSEC3 equivalents."""
        covering = self._covering_nsec(zone, qname)
        if covering is None:
            self._attach_nsec3_nxdomain_proof(zone, qname, response)
            return
        response.authority.append(covering)
        wildcard = zone.origin.child("*")
        wild_cover = self._covering_nsec(zone, wildcard)
        if wild_cover is not None and wild_cover.name != covering.name:
            response.authority.append(wild_cover)
        self._attach_sigs(zone, response.authority, qname)

    # -- NSEC3 (RFC 5155 §7.2) ---------------------------------------------

    def _nsec3_params(self, zone: Zone):
        param_rrset = zone.get_rrset(zone.origin, RRType.NSEC3PARAM)
        if param_rrset is None or not len(param_rrset):
            return None
        param = param_rrset.rdatas[0]
        return param.salt, param.iterations

    def _matching_nsec3(self, zone: Zone, qname: Name) -> Optional[RRset]:
        """The NSEC3 whose owner hash matches *qname* (NODATA proofs)."""
        params = self._nsec3_params(zone)
        if params is None:
            return None
        from repro.dnssec.nsec import nsec3_hash_label

        owner = zone.origin.child(nsec3_hash_label(qname, *params))
        return zone.get_rrset(owner, RRType.NSEC3)

    def _covering_nsec3(self, zone: Zone, qname: Name) -> Optional[RRset]:
        """The NSEC3 whose hash span covers *qname* (NXDOMAIN proofs).
        Base32hex keeps hash order, so the hashed owners' canonical order
        is hash order; a hash before the first owner wraps to the last."""
        params = self._nsec3_params(zone)
        if params is None:
            return None
        from repro.dnssec.nsec import nsec3_hash_label

        hashed = zone.origin.child(nsec3_hash_label(qname, *params))
        return zone.preceding(RRType.NSEC3, hashed.canonical_key(), wrap=True)

    def _attach_nsec3_nxdomain_proof(self, zone: Zone, qname: Name, response: Message) -> None:
        """RFC 5155 §7.2.1: the NSEC3 matching the closest encloser (the
        deepest existing ancestor of *qname*), the one covering the
        next-closer name and the one covering the wildcard at the
        encloser."""
        encloser, closest = zone.origin, None
        for depth in range(len(qname) - 1, len(zone.origin) - 1, -1):
            closest = self._matching_nsec3(zone, qname.split(depth))
            if closest is not None:
                encloser = qname.split(depth)
                break
        covering = self._covering_nsec3(zone, qname.split(len(encloser) + 1))
        if covering is None:
            return
        response.authority.append(covering)
        wildcard_cover = self._covering_nsec3(zone, encloser.child("*"))
        if wildcard_cover is not None and wildcard_cover.name != covering.name:
            response.authority.append(wildcard_cover)
        if closest is not None and closest.name not in (
            covering.name,
            wildcard_cover.name if wildcard_cover else None,
        ):
            response.authority.append(closest)
        for rrset in list(response.authority):
            if int(rrset.rrtype) == int(RRType.NSEC3):
                self._attach_sigs(zone, response.authority, rrset.name)

    def _covering_nsec(self, zone: Zone, qname: Name) -> Optional[RRset]:
        return zone.preceding(RRType.NSEC, qname.canonical_key())

    def _attach_referral(
        self, zone: Zone, cut: Name, response: Message, want_dnssec: bool
    ) -> None:
        ns_rrset = zone.get_rrset(cut, RRType.NS)
        if ns_rrset is not None:
            response.authority.append(ns_rrset)
            # Glue: addresses for in-bailiwick NS targets.
            for ns in ns_rrset.rdatas:
                target = getattr(ns, "target", None)
                if target is None or not target.is_subdomain_of(zone.origin):
                    continue
                for addr_type in (RRType.A, RRType.AAAA):
                    glue = zone.get_rrset(target, addr_type)
                    if glue is not None:
                        response.additional.append(glue)
        if want_dnssec:
            ds_rrset = zone.get_rrset(cut, RRType.DS)
            if ds_rrset is not None:
                response.authority.append(ds_rrset)
                self._attach_sigs(zone, response.authority, cut)
            else:
                # Prove the delegation is insecure.
                nsec = zone.get_rrset(cut, RRType.NSEC)
                if nsec is not None:
                    response.authority.append(nsec)
                    self._attach_sigs(zone, response.authority, cut)

    def _chase_cname(
        self,
        zone: Zone,
        cname_rrset: RRset,
        qtype: RRType,
        response: Message,
        want_dnssec: bool,
        max_depth: int = 8,
    ) -> None:
        """Follow an in-zone CNAME chain, appending answers."""
        target = cname_rrset.rdatas[0].target
        for _ in range(max_depth):
            result = zone.lookup(target, qtype)
            if result.status == LookupStatus.ANSWER:
                response.answer.append(result.rrset)
                if want_dnssec:
                    self._attach_sigs(zone, response.answer, target)
                return
            if result.status == LookupStatus.CNAME:
                response.answer.append(result.rrset)
                if want_dnssec:
                    self._attach_sigs(zone, response.answer, target)
                target = result.rrset.rdatas[0].target
                continue
            return

    def __repr__(self) -> str:
        return f"<AuthoritativeServer {self.server_id} zones={len(self.zone_apexes())}>"
