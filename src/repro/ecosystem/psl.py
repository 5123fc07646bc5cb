"""Embedded public-suffix subset and registrable-domain logic.

The paper scans zones directly under ICANN public suffixes from signed
TLDs.  We embed the suffixes our synthetic world uses (with weights that
loosely mirror the paper's data sources: CZDS gTLDs, AXFR ccTLDs, and
the privately obtained .uk/.sk), each of which gets a signed registry
zone in the generated world.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dns.name import Name

# suffix → relative weight in the synthetic population.
SUFFIX_WEIGHTS: Dict[str, int] = {
    "com": 44,
    "net": 9,
    "org": 8,
    "co.uk": 7,
    "de": 7,
    "ch": 6,
    "se": 5,
    "nl": 4,
    "eu": 4,
    "sk": 2,
    "nu": 1,
    "li": 1,
    "digital": 1,
    "bo": 1,
    "io": 1,
}

# Suffixes whose registries implement RFC 9615 processing at the time of
# the study (§2: .ch, .li, .swiss, .whoswho — we include the two we host).
AB_PROCESSING_SUFFIXES = ("ch", "li")


def registry_zone_names() -> List[str]:
    """All zones the registries must serve: the suffixes plus any bare
    parents needed to delegate multi-label suffixes (``co.uk`` → ``uk``)."""
    names = set(SUFFIX_WEIGHTS)
    for suffix in SUFFIX_WEIGHTS:
        parts = suffix.split(".")
        for i in range(1, len(parts)):
            names.add(".".join(parts[i:]))
    return sorted(names, key=lambda s: (len(s.split(".")), s))


def suffix_for_index(index: int) -> str:
    """Deterministic weighted suffix assignment by zone index."""
    total = sum(SUFFIX_WEIGHTS.values())
    slot = (index * 2654435761) % total  # Knuth multiplicative hash
    for suffix, weight in SUFFIX_WEIGHTS.items():
        if slot < weight:
            return suffix
        slot -= weight
    return "com"  # pragma: no cover - unreachable


def registrable_part(name: Name) -> Tuple[str, str]:
    """Split a registrable domain into (label, suffix) textually.

    Longest matching suffix wins, as with the real PSL.
    """
    text = name.to_text().rstrip(".")
    best = ""
    for suffix in SUFFIX_WEIGHTS:
        if text.endswith("." + suffix) and len(suffix) > len(best):
            best = suffix
    if not best:
        raise ValueError(f"{text} is not under a known public suffix")
    label = text[: -(len(best) + 1)]
    return label, best
