"""Operator infrastructure profiles.

Each operator in the population table gets a profile describing its
nameserver fleet: the NS-hostname zone(s), host pool, anycast shape,
whether it publishes RFC 9615 signaling zones, and its server quirks.
Profiles are calibrated to the paper's observations — Cloudflare's
anycast pool with 3×IPv4 + 3×IPv6 per hostname, deSEC's fixed
``ns1.desec.io``/``ns2.desec.org`` pair, the legacy hosters whose
servers error on CDS queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.operators import OperatorDB
from repro.ecosystem.paper_targets import TABLE1, TABLE2_EXTRA

_CLOUDFLARE_POOL = (
    "asa", "elliot", "bob", "cleo", "dora", "finn", "gina", "hugo", "iris", "jack", "kiki", "leon",
)


@dataclass(frozen=True)
class OperatorProfile:
    """How one DNS operator's serving infrastructure looks."""

    name: str
    ns_zones: Tuple[str, ...]  # zones the NS hostnames live in
    hosts: Tuple[str, ...]  # full NS hostnames (the pool)
    anycast: bool = False  # one shared backend fleet behind all hosts
    v4_per_host: int = 1
    v6_per_host: int = 1
    publishes_signal: bool = False
    signal_includes_delete: bool = False  # Cloudflare/Glauca do, deSEC doesn't
    signal_unsigned: bool = False  # signal zones exist but the operator
    # never secured their delegation (no DS for _signal.<host>), so the
    # chain of trust to every signal record is broken
    legacy: bool = False  # servers error on unknown query types
    known: bool = True  # appears in the operator database (suffix match)
    # Customer zones gravitate to these public suffixes (the §6
    # financial-incentive effect: Swiss hosters sell mostly .ch/.li).
    preferred_suffixes: Tuple[str, ...] = ()
    preferred_share: float = 0.7
    # Authenticated-denial flavour this operator's signer produces.
    denial_mode: str = "nsec"

    def host_pair(self, index: int) -> Tuple[str, str]:
        """Deterministic two-host assignment for the index-th zone."""
        pool = self.hosts
        if len(pool) == 1:
            return (pool[0], pool[0])
        first = index % len(pool)
        second = (first + 1) % len(pool)
        return (pool[first], pool[second])


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower()) or "op"


def _generic_profile(name: str, suffix: str = "net", pool: int = 4, **kwargs) -> OperatorProfile:
    slug = _slug(name)
    zone = f"{slug}-dns.{suffix}"
    hosts = tuple(f"ns{i + 1}.{zone}" for i in range(pool))
    return OperatorProfile(name=name, ns_zones=(zone,), hosts=hosts, **kwargs)


def build_profiles(adversarial: bool = False) -> Dict[str, OperatorProfile]:
    """All operator profiles keyed by operator name.

    With ``adversarial`` the scenario-plane operators join the roster:
    the honest-but-mid-rollover KeyCycle plus the hostile fleet a
    conformant RFC 9615 parental agent must reject (see
    :mod:`repro.scenarios`).  Off by default so non-scenario worlds and
    their operator databases are byte-identical to earlier builds.
    """
    profiles: Dict[str, OperatorProfile] = {}
    # Operators whose signers emit NSEC3 in the wild (BIND/Knot defaults
    # at big European hosters).
    nsec3_operators = {"OVH", "Gransy", "WebHouse", "INWX"}

    profiles["Cloudflare"] = OperatorProfile(
        name="Cloudflare",
        ns_zones=("cloudflare.com",),
        hosts=tuple(f"{word}.ns.cloudflare.com" for word in _CLOUDFLARE_POOL),
        anycast=True,
        v4_per_host=3,
        v6_per_host=3,
        publishes_signal=True,
        signal_includes_delete=True,
    )
    profiles["deSEC"] = OperatorProfile(
        name="deSEC",
        ns_zones=("desec.io", "desec.org"),
        hosts=("ns1.desec.io", "ns2.desec.org"),
        publishes_signal=True,
        signal_includes_delete=False,
    )
    profiles["Glauca"] = OperatorProfile(
        name="Glauca",
        ns_zones=("glauca.digital",),
        hosts=("ns1.glauca.digital", "ns2.glauca.digital"),
        publishes_signal=True,
        signal_includes_delete=True,
    )
    profiles["GoDaddy"] = OperatorProfile(
        name="GoDaddy",
        ns_zones=("domaincontrol.com",),
        hosts=tuple(f"ns{i + 1:02d}.domaincontrol.com" for i in range(8)),
    )
    # Unknown test setups: hosted on hostnames no suffix rule matches.
    profiles["indie"] = OperatorProfile(
        name="indie",
        ns_zones=("hobby-dns.org",),
        hosts=tuple(f"ns{i + 1}.hobby-dns.org" for i in range(2)),
        publishes_signal=True,
        signal_includes_delete=True,
        known=False,
    )

    for name in TABLE1:
        if name in profiles:
            continue
        profiles[name] = _generic_profile(
            name, pool=4, denial_mode="nsec3" if name in nsec3_operators else "nsec"
        )
    for name in TABLE2_EXTRA:
        swiss = TABLE2_EXTRA[name][2]
        profiles[name] = _generic_profile(
            name,
            suffix="ch" if swiss else "net",
            pool=2,
            preferred_suffixes=("ch", "li") if swiss else (),
            denial_mode="nsec3" if name in nsec3_operators else "nsec",
        )

    from repro.ecosystem.paper_targets import N_LEGACY_OPS, N_MASS_OPS

    profiles["Canal Dominios"] = _generic_profile("Canal Dominios", pool=2)
    for i in range(N_MASS_OPS):
        profiles[f"MassHost-{i + 1}"] = _generic_profile(f"MassHost-{i + 1}", pool=2)
    for i in range(N_LEGACY_OPS):
        profiles[f"LegacyHost-{i + 1}"] = _generic_profile(
            f"LegacyHost-{i + 1}", pool=2, legacy=True
        )
    # Dark infrastructure for unresolvable zones.
    profiles["DarkHost"] = _generic_profile("DarkHost", pool=2, known=False)

    if adversarial:
        # KeyCycle: an honest signal-publishing operator whose customer
        # zones are perpetually mid-key-transition.
        profiles["KeyCycle"] = _generic_profile(
            "KeyCycle", pool=2, publishes_signal=True, signal_includes_delete=True
        )
        # SpoofSign: serves signal records with their RRSIGs stripped
        # (the wire behavior is installed by generator.install_quirks).
        profiles["SpoofSign"] = _generic_profile(
            "SpoofSign", pool=2, publishes_signal=True
        )
        # NullSign: runs signal zones behind an insecure delegation.
        profiles["NullSign"] = _generic_profile(
            "NullSign", pool=2, publishes_signal=True, signal_unsigned=True
        )
        # SplitBrain: each NS answers with a different CDS RRset.
        profiles["SplitBrain"] = _generic_profile(
            "SplitBrain", pool=2, publishes_signal=True
        )
        # DowngradeCo: advertises deprecated-algorithm (RSASHA1) CDS.
        profiles["DowngradeCo"] = _generic_profile(
            "DowngradeCo", pool=2, publishes_signal=True
        )
        # Phantom: DarkHost-style unattributable NS hostnames that do
        # publish signals — but no suffix rule ties them to anyone.
        profiles["Phantom"] = _generic_profile(
            "Phantom", pool=2, publishes_signal=True, known=False
        )
    return profiles


def _ns_suffix(profile: OperatorProfile, zone: str) -> str:
    return "ns.cloudflare.com" if profile.name == "Cloudflare" else zone


def anycast_suffixes(profiles: Dict[str, OperatorProfile]) -> List[str]:
    """NS suffixes of the anycast operators (the scanner samples their zones)."""
    return [
        _ns_suffix(profile, zone)
        for profile in profiles.values()
        if profile.known and profile.anycast
        for zone in profile.ns_zones[:1]
    ]


def operator_db_config(
    profiles: Dict[str, OperatorProfile],
) -> Tuple[Dict[str, str], List[str]]:
    """(suffix → operator) mapping and the anycast suffix list."""
    suffixes = {
        _ns_suffix(profile, zone): profile.name
        for profile in profiles.values()
        if profile.known
        for zone in profile.ns_zones
    }
    return suffixes, anycast_suffixes(profiles)


def build_operator_db(
    adversarial: bool = False, profiles: Optional[Dict[str, OperatorProfile]] = None
) -> OperatorDB:
    """The NS-suffix attribution database every world carries.

    The profile catalogue is seed/scale-independent, so stored records
    are attributed without building a world: *adversarial* says whether
    the scenario operators join it (their suffixes only ever match
    scenario zones).  A world being built passes its own *profiles*.
    """
    if profiles is None:
        profiles = build_profiles(adversarial=adversarial)
    return OperatorDB(suffixes=operator_db_config(profiles)[0])
