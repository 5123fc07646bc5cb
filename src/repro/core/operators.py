"""DNS operator identification from nameserver hostnames (§3).

The paper attributes each domain to a DNS operator by the suffixes of
its authoritative NS hostnames (``*.domaincontrol.com`` → GoDaddy,
``*.ns.cloudflare.com`` → Cloudflare, ...), including white-label fronts
(``*.seized.gov`` is rebranded Cloudflare).  Ambiguous zones are tagged
``unknown``; zones whose NS hostnames map to several operators are
*multi-operator* setups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.name import Name

UNKNOWN_OPERATOR = "unknown"


@dataclass(frozen=True)
class OperatorAttribution:
    """Who runs the DNS for a zone."""

    primary: str  # single operator, or UNKNOWN_OPERATOR
    operators: Tuple[str, ...]  # all distinct operators seen
    multi: bool  # more than one operator authoritative

    @classmethod
    def single(cls, name: str) -> "OperatorAttribution":
        return cls(primary=name, operators=(name,), multi=False)


class OperatorDB:
    """Suffix-based operator lookup with white-label aliases."""

    def __init__(
        self,
        suffixes: Optional[Dict[str, str]] = None,
        whitelabels: Optional[Dict[str, str]] = None,
    ):
        self._suffixes: Dict[Name, str] = {}
        for suffix, operator in (suffixes or {}).items():
            self.add_suffix(suffix, operator)
        for suffix, operator in (whitelabels or {}).items():
            self.add_suffix(suffix, operator)

    def add_suffix(self, suffix: str | Name, operator: str) -> None:
        suffix = suffix if isinstance(suffix, Name) else Name.from_text(suffix)
        self._suffixes[suffix] = operator

    def identify_host(self, ns_host: Name) -> Optional[str]:
        """The operator for one NS hostname (deepest matching suffix)."""
        for depth in range(len(ns_host), -1, -1):
            operator = self._suffixes.get(ns_host.split(depth))
            if operator is not None:
                return operator
        return None

    def identify(self, ns_hosts: Iterable[Name]) -> OperatorAttribution:
        """Attribute a zone from its full NS hostname set.

        Zones with NS hostnames mapping to distinct operators are
        multi-operator; zones where no hostname matches are unknown.
        Zones mixing identified and unidentified hostnames count the
        unidentified part as an extra (unknown) operator — they are
        multi-operator with an unclear second party.
        """
        found: List[str] = []
        unknown = 0
        for host in ns_hosts:
            operator = self.identify_host(host)
            if operator is None:
                unknown += 1
            elif operator not in found:
                found.append(operator)
        if not found:
            return OperatorAttribution.single(UNKNOWN_OPERATOR)
        operators = tuple(sorted(found)) + ((UNKNOWN_OPERATOR,) if unknown else ())
        if len(operators) == 1:
            return OperatorAttribution.single(operators[0])
        # The primary is the operator of the first listed NS (the paper
        # attributes multi-operator zones to the operator that appears
        # to lead the setup), not an alphabetical accident.
        return OperatorAttribution(primary=found[0], operators=operators, multi=True)

    def __len__(self) -> int:
        return len(self._suffixes)
