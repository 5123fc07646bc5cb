"""A DNSSEC-validating resolver (RFC 4035 §4-5).

The consumer-side counterpart of the measurement pipeline: resolves a
name while building and validating the chain of trust from the root
trust anchor, and classifies the answer

* ``SECURE``   — unbroken chain of signed DS→DNSKEY links down to the
  answering zone, and the answer RRset validates;
* ``INSECURE`` — a delegation without DS breaks the chain (this is how
  the paper's *secure islands* appear to every resolver: signed, but
  treated as unsigned, RFC 4035 §5.2);
* ``BOGUS``    — a link or the answer fails cryptographic validation.

NSEC denial proofs for negative answers are not re-validated here (the
measurement pipeline never relies on them); negative answers inherit
the zone's chain status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import DNSKEY, RRSIG
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dnssec.validator import (
    DEFAULT_VALIDATION_TIME,
    validate_chain_link,
    validate_rrset,
)
from repro.resolver.iterative import IterativeResolver, ResolutionError
from repro.sched import run_steps
from repro.server.network import SimulatedNetwork


class SecurityStatus(enum.Enum):
    SECURE = "secure"
    INSECURE = "insecure"
    BOGUS = "bogus"
    INDETERMINATE = "indeterminate"  # resolution failed


@dataclass
class ValidatedResolution:
    """Answer plus the security judgement and the walked chain."""

    status: SecurityStatus
    rcode: Rcode
    answers: List[RRset] = field(default_factory=list)
    apex: Optional[Name] = None  # zone that answered
    chain_zones: List[Name] = field(default_factory=list)
    detail: str = ""

    @property
    def authenticated_data(self) -> bool:
        """The AD bit a validating resolver would set."""
        return self.status == SecurityStatus.SECURE

    def rrset(self, rrtype: RRType) -> Optional[RRset]:
        for rrset in self.answers:
            if int(rrset.rrtype) == int(rrtype):
                return rrset
        return None


class ValidatingResolver:
    """Iterative resolution with chain-of-trust validation."""

    def __init__(
        self,
        network: SimulatedNetwork,
        root_ips: Sequence[str],
        now: int = DEFAULT_VALIDATION_TIME,
    ):
        self.network = network
        self.resolver = IterativeResolver(network, root_ips)
        self.now = now

    # -- plumbing -----------------------------------------------------------

    def _query(self, ips: Sequence[str], qname: Name, qtype: RRType) -> Generator:
        """Steps → the first response from *ips*, or None if all fail."""
        try:
            response, _ = yield from self.resolver.ask_steps(ips, qname, qtype)
            return response
        except ResolutionError:
            return None

    @staticmethod
    def _covering(sig_rrset: Optional[RRset], rrtype: RRType) -> List[RRSIG]:
        """The RRSIGs of *sig_rrset* that cover *rrtype*."""
        return [
            rd
            for rd in (sig_rrset.rdatas if sig_rrset else [])
            if isinstance(rd, RRSIG) and int(rd.type_covered) == int(rrtype)
        ]

    def _rrset_with_sigs(
        self, response: Message, owner: Name, rrtype: RRType
    ) -> tuple[Optional[RRset], List[RRSIG]]:
        sig_rrset = response.get_rrset(response.answer, owner, RRType.RRSIG)
        return response.get_rrset(response.answer, owner, rrtype), self._covering(sig_rrset, rrtype)

    def _same_server_cut(self, qname: Name, current: Name, servers: Sequence[str]) -> Generator:
        """Steps → the next zone apex towards *qname* hosted on the same
        servers (no referral observed): a candidate owning an SOA."""
        for depth in range(len(current) + 1, len(qname) + 1):
            candidate = qname.split(depth)
            response = yield from self._query(servers, candidate, RRType.SOA)
            if response is None:
                continue
            soa = response.get_rrset(response.answer, candidate, RRType.SOA)
            if soa is None:
                continue
            # No referral carried the DS: ask the (shared) parent servers.
            ds = yield from self.resolver._ds_at_cut(candidate, response, servers)
            return (candidate, *ds, list(servers))
        return None

    # -- the walk -----------------------------------------------------------------

    def resolve(self, name: Name | str, rrtype: RRType) -> ValidatedResolution:
        """Resolve and validate (qname, qtype) from the root down."""
        return run_steps(self.network.clock, self.network, self.resolve_steps(name, rrtype))

    def resolve_steps(self, name: Name | str, rrtype: RRType) -> Generator:
        """:meth:`resolve` as a step generator (:mod:`repro.sched`): every
        query is a yielded intent, so the walk runs under any scan loop
        and over either transport."""
        qname = name if isinstance(name, Name) else Name.from_text(name)
        servers = list(self.resolver.root_ips)
        current = Name.root()
        chain_zones: List[Name] = [current]

        # Trust anchor: the root DNSKEY RRset must self-validate.
        response = yield from self._query(servers, current, RRType.DNSKEY)
        if response is None:
            return ValidatedResolution(
                SecurityStatus.INDETERMINATE, Rcode.SERVFAIL, detail="root unreachable"
            )
        root_keys, root_sigs = self._rrset_with_sigs(response, current, RRType.DNSKEY)
        if root_keys is None or not validate_rrset(
            root_keys, root_sigs, list(root_keys.rdatas), self.now
        ):
            return ValidatedResolution(
                SecurityStatus.BOGUS, Rcode.SERVFAIL, detail="root trust anchor invalid"
            )
        zone_keys: List[DNSKEY] = list(root_keys.rdatas)
        secure = True
        detail = ""

        for _ in range(24):
            try:
                step = yield from self.resolver.find_delegation_below_steps(qname, current, servers)
            except ResolutionError as exc:
                return ValidatedResolution(
                    SecurityStatus.INDETERMINATE, Rcode.SERVFAIL, detail=str(exc)
                )
            if step is not None and len(step[0]) > len(current) + 1:
                # A referral that skips labels (uk → example.co.uk): the
                # same servers may host a zone in between, whose keys —
                # not *current*'s — sign the DS.  Descend into it first.
                between = yield from self._same_server_cut(step[0].parent(), current, servers)
                step = between or step
            if step is None:
                # The same servers may host both sides of remaining cuts
                # (operator serving parent and child): probe for deeper
                # zone apexes by SOA ownership.
                deeper = yield from self._same_server_cut(qname, current, servers)
                if deeper is None:
                    break
                cut, ds_rrset, ds_rrsig_rrset, next_servers = deeper
            else:
                cut, ds_rrset, ds_rrsig_rrset, next_servers = step
            chain_zones.append(cut)
            if not next_servers:
                return ValidatedResolution(
                    SecurityStatus.INDETERMINATE,
                    Rcode.SERVFAIL,
                    detail=f"no servers below {cut}",
                )
            if secure:
                if ds_rrset is None or not len(ds_rrset):
                    # Unsigned delegation: everything below is insecure.
                    secure = False
                    detail = f"no DS at {cut} — insecure delegation"
                else:
                    ds_sigs = self._covering(ds_rrsig_rrset, RRType.DS)
                    if not validate_rrset(ds_rrset, ds_sigs, zone_keys, self.now):
                        return ValidatedResolution(
                            SecurityStatus.BOGUS,
                            Rcode.SERVFAIL,
                            chain_zones=chain_zones,
                            detail=f"DS RRset at {cut} fails validation",
                        )
                    key_response = yield from self._query(next_servers, cut, RRType.DNSKEY)
                    if key_response is None:
                        return ValidatedResolution(
                            SecurityStatus.INDETERMINATE,
                            Rcode.SERVFAIL,
                            detail=f"no DNSKEY answer from {cut}",
                        )
                    dnskeys, key_sigs = self._rrset_with_sigs(key_response, cut, RRType.DNSKEY)
                    link = validate_chain_link(cut, ds_rrset, dnskeys, key_sigs, self.now)
                    if not link.ok:
                        return ValidatedResolution(
                            SecurityStatus.BOGUS,
                            Rcode.SERVFAIL,
                            chain_zones=chain_zones,
                            detail=f"chain broken at {cut}: {link.reason.value}",
                        )
                    zone_keys = list(dnskeys.rdatas)
            current = cut
            servers = next_servers

        # Final authoritative answer.
        response = yield from self._query(servers, qname, rrtype)
        if response is None:
            return ValidatedResolution(
                SecurityStatus.INDETERMINATE, Rcode.SERVFAIL, detail="no final answer"
            )
        answers = list(response.answer)
        if response.rcode == Rcode.NXDOMAIN or not answers:
            return ValidatedResolution(
                SecurityStatus.SECURE if secure else SecurityStatus.INSECURE,
                response.rcode,
                answers=[],
                apex=current,
                chain_zones=chain_zones,
                detail=detail or "negative answer",
            )
        status = SecurityStatus.INSECURE
        if secure:
            wanted, sigs = self._rrset_with_sigs(response, qname, rrtype)
            if wanted is None:
                # CNAME chains etc.: validate what was returned at the owner.
                wanted = answers[0]
                _, sigs = self._rrset_with_sigs(response, wanted.name, wanted.rrtype)
            outcome = validate_rrset(wanted, sigs, zone_keys, self.now)
            status = SecurityStatus.SECURE if outcome.ok else SecurityStatus.BOGUS
            detail = "" if outcome.ok else f"answer fails validation: {outcome.reason.value}"
        return ValidatedResolution(
            status,
            response.rcode,
            answers=answers,
            apex=current,
            chain_zones=chain_zones,
            detail=detail,
        )
