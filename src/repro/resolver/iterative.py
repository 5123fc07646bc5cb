"""Iterative (recursive-resolver-style) resolution over the network fabric.

Walks the delegation tree from the root hints, following referrals and
glue, with a shared :class:`~repro.resolver.cache.DnsCache`.  Besides
ordinary lookups it exposes :meth:`IterativeResolver.find_delegation`,
which captures the *parent side* of a zone cut (NS + DS as served by the
registry) — the data the bootstrapping analysis compares against the
child's view.

The walk is written as step generators (the ``*_steps`` methods, see
:mod:`repro.sched`): every query goes out through the shared
:class:`~repro.resolver.exchange.Exchanger` as a yielded intent, so a
scan with many zones in flight drives them directly.  The public
``resolve`` / ``find_delegation`` / ``resolve_addresses`` are
synchronous facades that run those steps to completion on a loop of
their own.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Generator, List, Optional, Sequence

from repro.chaos.retry import ONE_IMMEDIATE_RETRY, RetryPolicy
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.resolver.cache import DnsCache
from repro.resolver.exchange import Exchanger
from repro.sched import FlightMap, run_steps
from repro.server.network import SimulatedNetwork

_MAX_REFERRALS = 32
_MAX_CNAME = 8
_MAX_GLUELESS_DEPTH = 8


class ResolutionError(Exception):
    """Resolution could not complete (lame servers, loops, timeouts)."""


class Resolution:
    """Final outcome of an iterative lookup."""

    __slots__ = ("rcode", "answers", "authority", "source_ip", "authoritative")

    def __init__(
        self,
        rcode: Rcode,
        answers: Sequence[RRset] = (),
        authority: Sequence[RRset] = (),
        source_ip: Optional[str] = None,
        authoritative: bool = False,
    ):
        self.rcode = rcode
        self.answers = list(answers)
        self.authority = list(authority)
        self.source_ip = source_ip
        self.authoritative = authoritative

    def rrset(self, rrtype: RRType) -> Optional[RRset]:
        for rrset in self.answers:
            if int(rrset.rrtype) == int(rrtype):
                return rrset
        return None

    def __repr__(self) -> str:
        return f"<Resolution {self.rcode.name} answers={len(self.answers)}>"


class Delegation:
    """The parent-side view of a zone cut."""

    __slots__ = ("zone", "parent", "ns_rrset", "ds_rrset", "ds_rrsigs", "glue", "parent_ips")

    def __init__(
        self,
        zone: Name,
        parent: Name,
        ns_rrset: Optional[RRset],
        ds_rrset: Optional[RRset],
        ds_rrsigs: Optional[RRset],
        glue: Dict[Name, List[str]],
        parent_ips: List[str],
    ):
        self.zone = zone
        self.parent = parent
        self.ns_rrset = ns_rrset
        self.ds_rrset = ds_rrset
        self.ds_rrsigs = ds_rrsigs
        self.glue = glue
        self.parent_ips = parent_ips

    @property
    def nameserver_names(self) -> List[Name]:
        if self.ns_rrset is None:
            return []
        return sorted(
            (rd.target for rd in self.ns_rrset.rdatas if hasattr(rd, "target")),
            key=lambda n: n.canonical_key(),
        )

    def __repr__(self) -> str:
        return f"<Delegation {self.zone} parent={self.parent} ns={len(self.nameserver_names)}>"


class IterativeResolver:
    """Resolves names by walking referrals from the root."""

    def __init__(
        self,
        network: SimulatedNetwork,
        root_ips: Sequence[str],
        cache: Optional[DnsCache] = None,
        limiter=None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.network = network
        self.root_ips = list(root_ips)
        # `cache or ...` would discard a shared cache: DnsCache defines
        # __len__, so a freshly created (empty) cache is falsy.
        self.cache = cache if cache is not None else DnsCache(now=network.clock.now)
        # Optional token bucket (see repro.scanner.ratelimit): when set,
        # every outgoing query is paced — the scanner shares its limiter
        # so *all* measurement traffic honours the per-NS budget.
        self.limiter = limiter
        # Per-address retry/backoff (repro.chaos).  The default is a
        # single attempt per address — the next address is the retry.
        self.retry = retry or replace(ONE_IMMEDIATE_RETRY, attempts=1)
        self.retry_attempts = 0
        self.retry_backoff_seconds = 0.0
        # The one retrying exchange step; a scanner built around this
        # resolver sends its own queries through the same object.
        self.exchange = Exchanger()
        # Single-flight address lookups (repro.sched): overlapping tasks
        # asking for the same hostname serialize, so each observes the
        # cache state a sequential caller in its position would have.
        self._flights = FlightMap()

    #: Namespaces this asker's backoff jitter stream (see Exchanger.ask).
    retry_key = "resolver/"

    # -- plumbing ----------------------------------------------------------

    def _run(self, steps: Generator):
        clock = self.limiter.clock if self.limiter is not None else self.network.clock
        return run_steps(clock, self.network, steps)

    def ask_steps(self, ips: Sequence[str], name: Name, rrtype: RRType) -> Generator:
        """Query the given server addresses in order until one answers;
        steps → ``(response, answering address)``.

        Each address is given the resolver's full retry budget
        (:attr:`retry`) before the walk moves on, and an address whose
        final attempt timed out is passed over — so the delegation walk
        converges under the same fault model as the scanner's queries."""
        last_error: Optional[Exception] = None
        for ip in ips:
            response, timeout = yield from self.exchange.ask(self, ip, name, rrtype)
            if timeout is None:
                return response, ip
            last_error = timeout
        raise ResolutionError(f"all servers failed for {name} {rrtype.name}: {last_error}")

    @staticmethod
    def _referral_cut(response: Message, qname: Name) -> Optional[RRset]:
        """The NS RRset of a referral response, if this is one."""
        if response.authoritative or response.rcode != Rcode.NOERROR:
            return None
        if response.answer:
            return None
        for rrset in response.authority:
            if int(rrset.rrtype) == int(RRType.NS) and qname.is_subdomain_of(rrset.name):
                return rrset
        return None

    @staticmethod
    def _glue_from(response: Message) -> Dict[Name, List[str]]:
        glue: Dict[Name, List[str]] = {}
        for rrset in response.additional:
            if int(rrset.rrtype) in (int(RRType.A), int(RRType.AAAA)):
                addresses = glue.setdefault(rrset.name, [])
                for rdata in rrset.rdatas:
                    if rdata.address not in addresses:
                        addresses.append(rdata.address)
        return glue

    # -- address resolution ------------------------------------------------------

    def resolve_addresses(self, hostname: Name, _depth: int = 0) -> List[str]:
        """All A+AAAA addresses for *hostname* (deterministic order)."""
        return self._run(self.resolve_addresses_steps(hostname, _depth))

    def resolve_addresses_steps(self, hostname: Name, _depth: int = 0) -> Generator:
        """Top-level lookups are single-flighted per hostname: a second
        in-flight task waits for the first, then resolves against the
        now-warm cache.  Nested lookups (``_depth > 0``, glueless-chain
        recursion) bypass the gate — two glueless chains may
        legitimately pass through each other's hostnames, and waiting
        there could cycle.
        """
        while not _depth:
            claim = yield from self._flights.claim(hostname)
            if claim is None:
                continue  # waited out another task's lookup; cache is warm
            with claim:
                return (yield from self._resolve_addresses_impl(hostname, 0))
        return (yield from self._resolve_addresses_impl(hostname, _depth))

    def _resolve_addresses_impl(self, hostname: Name, _depth: int) -> Generator:
        if _depth > _MAX_GLUELESS_DEPTH:
            return []
        addresses: List[str] = []
        for rrtype in (RRType.A, RRType.AAAA):
            cached = self.cache.get(hostname, rrtype)
            if cached is not None:
                for rrset in cached:
                    for rdata in rrset.rdatas:
                        if rdata.address not in addresses:
                            addresses.append(rdata.address)
                continue
            if self.cache.is_negative(hostname, rrtype):
                continue
            try:
                resolution = yield from self.resolve_steps(hostname, rrtype, _depth=_depth + 1)
            except ResolutionError:
                continue
            rrset = resolution.rrset(rrtype)
            if rrset is not None:
                self.cache.put([rrset])
                for rdata in rrset.rdatas:
                    if rdata.address not in addresses:
                        addresses.append(rdata.address)
            else:
                self.cache.put_negative(hostname, rrtype, 300)
        return addresses

    def _referred_servers(self, cut: RRset, response: Message, _depth: int = 0) -> Generator:
        """The addresses a referral points at: glue first, else resolved
        (at *_depth*, which bounds glueless-chain recursion)."""
        glue = self._glue_from(response)
        servers: List[str] = []
        for rdata in cut.rdatas:
            target = getattr(rdata, "target", None)
            if target is None:
                continue
            if target in glue:
                servers.extend(glue[target])
            else:
                servers.extend((yield from self.resolve_addresses_steps(target, _depth)))
        return servers

    # -- main walk ------------------------------------------------------------------

    def resolve(self, name: Name | str, rrtype: RRType, _depth: int = 0) -> Resolution:
        """Iteratively resolve (name, type) starting from the root."""
        return self._run(self.resolve_steps(name, rrtype, _depth))

    def resolve_steps(self, name: Name | str, rrtype: RRType, _depth: int = 0) -> Generator:
        qname = name if isinstance(name, Name) else Name.from_text(name)
        cname_budget = _MAX_CNAME
        current = qname
        collected: List[RRset] = []
        while True:
            resolution = yield from self._resolve_no_cname(current, rrtype, _depth)
            cname = resolution.rrset(RRType.CNAME)
            wanted = resolution.rrset(rrtype)
            if wanted is not None or cname is None or int(rrtype) == int(RRType.CNAME):
                resolution.answers = collected + resolution.answers
                return resolution
            collected.extend(resolution.answers)
            cname_budget -= 1
            if cname_budget <= 0:
                raise ResolutionError(f"CNAME chain too long for {qname}")
            current = cname.rdatas[0].target

    def _resolve_no_cname(self, qname: Name, rrtype: RRType, _depth: int) -> Generator:
        servers = list(self.root_ips)
        current_zone = Name.root()
        for _ in range(_MAX_REFERRALS):
            response, ip = yield from self.ask_steps(servers, qname, rrtype)
            if response.rcode == Rcode.NXDOMAIN:
                return Resolution(
                    Rcode.NXDOMAIN,
                    authority=response.authority,
                    source_ip=ip,
                    authoritative=response.authoritative,
                )
            if response.rcode != Rcode.NOERROR:
                raise ResolutionError(
                    f"{ip} answered {response.rcode.name} for {qname} {rrtype.name}"
                )
            cut = self._referral_cut(response, qname)
            if cut is None:
                return Resolution(
                    Rcode.NOERROR,
                    answers=response.answer,
                    authority=response.authority,
                    source_ip=ip,
                    authoritative=response.authoritative,
                )
            if not cut.name.is_proper_subdomain_of(current_zone):
                raise ResolutionError(f"upward referral from {ip} for {qname}")
            current_zone = cut.name
            servers = yield from self._referred_servers(cut, response, _depth + 1)
            if not servers:
                raise ResolutionError(f"no reachable nameservers below {cut.name}")
        raise ResolutionError(f"referral chain too long for {qname}")

    # -- delegation capture ----------------------------------------------------------

    def find_delegation(self, zone: Name | str) -> Delegation:
        """Capture the parent-side NS/DS for *zone*.

        Walks referrals until the parent hands out the referral for
        *zone* itself, then asks the same parent servers for the DS RRset
        (which the parent answers authoritatively, RFC 4035 §3.1.4.1).
        """
        return self._run(self.find_delegation_steps(zone))

    def find_delegation_steps(self, zone: Name | str) -> Generator:
        zone = zone if isinstance(zone, Name) else Name.from_text(zone)
        servers = list(self.root_ips)
        current_zone = Name.root()
        for _ in range(_MAX_REFERRALS):
            response, ip = yield from self.ask_steps(servers, zone, RRType.NS)
            cut = self._referral_cut(response, zone)
            if cut is not None and cut.name == zone:
                ds_rrset, ds_rrsigs = yield from self._ds_at_cut(zone, response, servers)
                return Delegation(
                    zone=zone,
                    parent=current_zone,
                    ns_rrset=cut,
                    ds_rrset=ds_rrset,
                    ds_rrsigs=ds_rrsigs,
                    glue=self._glue_from(response),
                    parent_ips=list(servers),
                )
            if cut is not None:
                current_zone = cut.name
                servers = yield from self._referred_servers(cut, response)
                if not servers:
                    raise ResolutionError(f"no reachable nameservers below {cut.name}")
                continue
            if response.rcode == Rcode.NXDOMAIN:
                raise ResolutionError(f"{zone} does not exist (NXDOMAIN from {ip})")
            # The server answered authoritatively: either it hosts the
            # parent and the NS RRset is the delegation (apex case), or
            # we've walked into the child already.
            raise ResolutionError(f"no delegation observed for {zone} at {ip}")
        raise ResolutionError(f"referral chain too long for {zone}")

    def find_delegation_below_steps(
        self, target: Name, current_zone: Name, servers: Sequence[str]
    ) -> Generator:
        """One step of a downward walk: ask *servers* (authoritative for
        *current_zone*) about *target* for the next cut.

        Steps → ``(cut_name, ds_rrset, ds_rrsigs, next_server_ips)`` when
        the servers hand out a referral, or ``None`` when they answer
        authoritatively (no further cut towards *target*).
        """
        response, _ = yield from self.ask_steps(servers, target, RRType.NS)
        cut = self._referral_cut(response, target)
        if cut is None:
            return None
        ds_rrset, ds_rrsigs = yield from self._ds_at_cut(cut.name, response, servers)
        next_servers = yield from self._referred_servers(cut, response)
        return cut.name, ds_rrset, ds_rrsigs, next_servers

    def _ds_at_cut(self, cut: Name, referral: Message, parent_ips: Sequence[str]) -> Generator:
        """``(DS RRset, its RRSIG RRset)`` for the zone cut *cut*: what
        rides along in the referral, else asked of the parent servers."""
        ds_rrset: Optional[RRset] = None
        ds_rrsigs: Optional[RRset] = None
        for rrset in referral.authority:
            if rrset.name == cut and int(rrset.rrtype) == int(RRType.DS):
                ds_rrset = rrset
            if rrset.name == cut and int(rrset.rrtype) == int(RRType.RRSIG):
                ds_rrsigs = rrset
        if ds_rrset is None:
            try:
                response, _ = yield from self.ask_steps(parent_ips, cut, RRType.DS)
                ds_rrset = response.get_rrset(response.answer, cut, RRType.DS)
                ds_rrsigs = response.get_rrset(response.answer, cut, RRType.RRSIG)
            except ResolutionError:
                pass
        return ds_rrset, ds_rrsigs
