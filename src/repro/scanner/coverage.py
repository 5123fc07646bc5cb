"""Zone-list coverage and sampling bias (§3.1 of the paper).

The paper could not obtain zone files for some large ccTLDs (.de, .nl)
and fell back to names observed in Certificate Transparency logs,
"capturing a representative sample of between 43 % and 80 % of each
zone" (Sommese et al.).  This module makes that limitation measurable:

* :class:`UniformSampler` — the idealised representative sample;
* :class:`TlsWeightedSampler` — a CT-log-shaped sample: zones that run
  TLS (and, correlated, professional DNS hosting with DNSSEC) are more
  likely to appear in CT logs, overstating adoption;
* :func:`coverage_bias` — scan the sample and the full population and
  quantify the estimation error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

from repro.dns.name import Name


# Hash salts: each sampler draws its own deterministic stream.
UNIFORM_SALT = b"ctlog-uniform"
TLS_SALT = b"ctlog-tls"


def _bucket(salt: bytes, name: Name) -> float:
    digest = hashlib.sha256(salt + name.to_canonical_wire()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class UniformSampler:
    """Keep each zone with probability *fraction*, independent of its
    configuration — the best case the paper hopes CT logs approximate."""

    name = "uniform"

    def __init__(self, fraction: float):
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction

    def keeps(self, zone: Name, secured: bool) -> bool:
        return _bucket(UNIFORM_SALT, zone) < self.fraction


class TlsWeightedSampler:
    """CT-log-shaped inclusion: zones with professionally managed DNS
    (proxied by *secured*) are *weight*× more likely to show up,
    because running TLS correlates with running DNSSEC-capable hosting."""

    name = "tls-weighted"

    def __init__(self, fraction: float, weight: float = 2.0):
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction
        self.weight = weight

    def keeps(self, zone: Name, secured: bool) -> bool:
        probability = min(1.0, self.fraction * (self.weight if secured else 1.0))
        return _bucket(TLS_SALT, zone) < probability


@dataclass
class CoverageReport:
    """Full-population truth vs. the sample's estimate."""

    sampler: str
    suffix: str
    population: int
    sample_size: int
    true_secured_pct: float
    sampled_secured_pct: float

    @property
    def coverage(self) -> float:
        return self.sample_size / self.population if self.population else 0.0

    @property
    def bias_points(self) -> float:
        """Estimation error in percentage points (positive = overstated)."""
        return self.sampled_secured_pct - self.true_secured_pct


def coverage_bias(
    zones: Sequence[Name],
    is_secured: Callable[[Name], bool],
    sampler,
    suffix: str = "",
) -> CoverageReport:
    """Compare a sampler's adoption estimate against the full truth.

    *zones* is the full population (e.g. every zone of one ccTLD in a
    world); *is_secured* the per-zone ground truth or measured status.
    """
    population = list(zones)
    secured_flags = {zone: is_secured(zone) for zone in population}
    sample = [zone for zone in population if sampler.keeps(zone, secured_flags[zone])]

    def pct(group: Iterable[Name]) -> float:
        group = list(group)
        if not group:
            return 0.0
        return 100.0 * sum(secured_flags[z] for z in group) / len(group)

    return CoverageReport(
        sampler=sampler.name,
        suffix=suffix,
        population=len(population),
        sample_size=len(sample),
        true_secured_pct=pct(population),
        sampled_secured_pct=pct(sample),
    )


def per_suffix_zones(world) -> Dict[str, List[Name]]:
    """Group a world's scan list by public suffix."""
    from repro.ecosystem import psl

    out: Dict[str, List[Name]] = {}
    for name in world.scan_list:
        try:
            _, suffix = psl.registrable_part(name)
        except ValueError:
            continue
        out.setdefault(suffix, []).append(name)
    return out
