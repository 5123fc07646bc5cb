"""DNS resolution: TTL cache and a full iterative resolver.

The scanner uses :class:`IterativeResolver` to walk the delegation tree
from the root — discovering each zone's parent-side NS/DS and the
addresses of every authoritative nameserver — exactly the dependency
resolution YoDNS performs.
"""

from repro.resolver.cache import DnsCache
from repro.resolver.iterative import Delegation, IterativeResolver, Resolution, ResolutionError

__all__ = [
    "Delegation",
    "DnsCache",
    "IterativeResolver",
    "Resolution",
    "ResolutionError",
]
