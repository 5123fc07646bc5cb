"""Anycast nameserver sampling (§3 of the paper).

Cloudflare serves zones from a pool of a few anycasted addresses: a
typical zone has two NS hostnames, each with 3 IPv4 + 3 IPv6 addresses
(12 server addresses per zone), all of which are fronts for the same
backend fleet.  To finish scans in reasonable time the paper scans only
two addresses (one IPv4, one IPv6) for 95 % of Cloudflare-hosted
domains, and everything for the remaining 5 % as a consistency control.

:class:`AnycastSamplingPolicy` reproduces that policy deterministically:
zone-name hashing decides which zones fall into the 5 % full-scan bucket.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.dns.name import Name

DEFAULT_FULL_SCAN_FRACTION = 0.05
SAMPLING_SALT = b"repro-sampling"  # salts the full-scan bucket's zone-name hash


def _is_ipv6(address: str) -> bool:
    return ":" in address


class AnycastSamplingPolicy:
    """Selects which (ns_host, address) pairs to query for a zone."""

    def __init__(
        self,
        anycast_ns_suffixes: Iterable[Name] = (),
        full_scan_fraction: float = DEFAULT_FULL_SCAN_FRACTION,
    ):
        self.anycast_ns_suffixes = list(anycast_ns_suffixes)
        self.full_scan_fraction = full_scan_fraction
        self.zones_sampled = 0
        self.zones_full = 0

    def is_anycast_host(self, ns_host: Name) -> bool:
        return any(ns_host.is_subdomain_of(suffix) for suffix in self.anycast_ns_suffixes)

    def wants_full_scan(self, zone: Name) -> bool:
        """Deterministic 5 % bucket by zone-name hash."""
        digest = hashlib.sha256(SAMPLING_SALT + zone.to_canonical_wire()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < self.full_scan_fraction

    def select(
        self, zone: Name, ns_addresses: Dict[Name, List[str]]
    ) -> Tuple[List[Tuple[Name, str]], bool]:
        """Return the (ns_host, ip) pairs to query and whether sampling
        was applied (True = reduced scan)."""
        all_pairs = [
            (host, ip)
            for host in sorted(ns_addresses, key=lambda n: n.canonical_key())
            for ip in ns_addresses[host]
        ]
        anycast = all(self.is_anycast_host(host) for host in ns_addresses) and bool(ns_addresses)
        if not anycast or self.wants_full_scan(zone):
            if anycast:
                self.zones_full += 1
            return all_pairs, False
        # Reduced scan: one IPv4 and one IPv6 across the whole pool.
        chosen: List[Tuple[Name, str]] = []
        for want_v6 in (False, True):
            for host, ip in all_pairs:
                if _is_ipv6(ip) == want_v6:
                    chosen.append((host, ip))
                    break
        if not chosen:  # no addresses at all
            return all_pairs, False
        self.zones_sampled += 1
        return chosen, True
