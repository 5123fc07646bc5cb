"""World generation: from population cells to a servable Internet.

A world is planned, then assembled.  :class:`WorldPlan` is the part
that is a pure function of ``(cells, seed, adversarial)``: the operator
address plan, the zone specs, and the root and registry zones with
every operator and customer delegation in place, signed — built once
per key and kept in a one-entry per-process memo
(:func:`repro.ecosystem.world.world_plan`).  ``build_world`` assembles
each world from it with the plain steps at the end of this module
(:func:`serve_registries`, :func:`build_operator`, the customer and
signal providers, :func:`install_quirks`): network, servers, anycast
pools, legacy quirks, and lazy zone providers, so a world costs what a
scan touches — operator NS zones, RFC 9615 signaling zones and customer
zones are only built and signed when a query first reaches their apex,
and the plan keeps them frozen (:meth:`WorldPlan.zone`) for every world
of the seed.  The providers index zones by name and read each spec from
the world's spec table when asked, so that table is the only place a
world keeps a spec.
Each world serves :meth:`~repro.dns.zone.Zone.copy` copies of the
planned registries (provisioning re-signs them live); the copies share
the plan's RRsets, which no zone edit changes in place, and its answer
memo until they are edited.  Every key is
derived from a seed and every signature is deterministic, so both come
from a bounded per-process memo (:mod:`repro.dnssec.keys`): materialising
a zone again repeats no key derivation and no signature.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.rdata import A, AAAA, CDNSKEY, CDS, DS, NS, SOA, TXT
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.dnssec import Algorithm, KeyPair, ds_from_dnskey, sign_zone
from repro.dnssec.ds import cds_delete_rdata, cdnskey_delete_rdata, cds_from_dnskey
from repro.dnssec.signer import DEFAULT_INCEPTION, corrupt_signature, sign_rrset
from repro.ecosystem import psl
from repro.ecosystem.profiles import OperatorProfile
from repro.ecosystem.spec import CdsScenario, SignalScenario, StatusScenario, ZoneSpec
from repro.memo import Memo
from repro.scenarios.transitions import (
    ALGORITHM_ROLL_TARGET,
    KIND_ALGORITHM,
    PHASE_DANGLING,
    PHASE_DOUBLE_DS,
    PHASE_DOUBLE_SIG,
    PHASE_PREPUBLISH,
    PHASE_STRANDED,
)
from repro.server.behaviors import (
    CorruptSignaturesBehavior,
    LegacyUnknownTypeBehavior,
    StripSignaturesBehavior,
    SyntheticCutBehavior,
)
from repro.server.nameserver import AuthoritativeServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.ecosystem.world import World

ROOT_IP = "198.41.0.4"
REGISTRY_IPS = ("192.5.6.30", "2001:503:a83e::2:30")

_ZONE_TTL = 3600
#: Registry zones with at least this many RRsets are signed without an NSEC chain.
TLD_NSEC_LIMIT = 20_000


class _IpAllocator:
    def __init__(self):
        self._v4 = 0
        self._v6 = 0

    def v4(self) -> str:
        self._v4 += 1
        n = self._v4
        return f"10.{(n >> 16) & 255}.{(n >> 8) & 255}.{n & 255}"

    def v6(self) -> str:
        self._v6 += 1
        return f"fd00::{self._v6:x}"


# ZoneSpec.algorithm values → DNSSEC algorithms.  Only algorithms with
# seeded (deterministic) key generation may appear here.
_ALG_BY_NAME = {
    "": Algorithm.ED25519,
    "ed25519": Algorithm.ED25519,
    "ecdsap256": Algorithm.ECDSAP256SHA256,
}


def key_for(spec: ZoneSpec, generation: int, algorithm_name: str = "") -> KeyPair:
    """The deterministic KSK for one ``(generation, algorithm)`` slot.

    Generation 0 with the default algorithm keeps the historical
    ``"ksk"`` seed so worlds without rollovers are byte-identical to
    older builds; every other slot gets its own derived seed.
    """
    if generation == 0 and not algorithm_name:
        purpose = "ksk"
    elif not algorithm_name:
        purpose = f"ksk:g{generation}"
    else:
        purpose = f"ksk:g{generation}:{algorithm_name}"
    return KeyPair.generate(_ALG_BY_NAME[algorithm_name], ksk=True, seed=spec.seed(purpose))


def zone_keys(spec: ZoneSpec) -> KeyPair:
    """The (deterministic) KSK a signed variant of *spec* uses.

    Key rollovers (the monitoring plane's ``roll_key`` events) bump
    ``spec.key_generation``; generation 0 keeps the historical seed so
    worlds without rollovers are byte-identical to older builds.
    """
    return key_for(spec, spec.key_generation, spec.algorithm)


def successor_keys(spec: ZoneSpec) -> KeyPair:
    """The key a zone mid-rollover is transitioning *to*."""
    algorithm = spec.algorithm
    if spec.rollover_kind == KIND_ALGORITHM:
        algorithm = ALGORITHM_ROLL_TARGET.get(spec.algorithm, "ecdsap256")
    return key_for(spec, spec.key_generation + 1, algorithm)


def transition_keys(
    spec: ZoneSpec,
) -> Tuple[List[KeyPair], List[KeyPair], List[KeyPair], List[KeyPair]]:
    """Key roles during a rollover window.

    Returns ``(published, signing, parent_ds, cds)``: the DNSKEYs the
    zone publishes, the keys actually signing it, the keys the parent
    DS RRset names, and the keys the zone advertises in CDS/CDNSKEY.
    Empty ``published`` means the zone is unsigned (the dangling-DS
    mishap).  For a zone at rest all four are ``[zone_keys(spec)]``.
    """
    cur = zone_keys(spec)
    phase = spec.rollover_phase
    if not phase:
        return [cur], [cur], [cur], [cur]
    succ = successor_keys(spec)
    if phase == PHASE_PREPUBLISH:
        return [cur, succ], [cur], [cur], [cur]
    if phase == PHASE_DOUBLE_DS:
        return [cur, succ], [cur], [cur, succ], [cur, succ]
    if phase == PHASE_DOUBLE_SIG:
        return [cur, succ], [cur, succ], [cur, succ], [cur, succ]
    if phase == PHASE_STRANDED:
        return [succ], [succ], [cur], [succ]
    if phase == PHASE_DANGLING:
        return [], [], [cur], []
    raise ValueError(f"unknown rollover phase: {phase!r}")


def ghost_keys(spec: ZoneSpec) -> KeyPair:
    """A key that is *not* in the zone — for mismatching CDS / errant DS."""
    return KeyPair.generate(Algorithm.ED25519, ksk=True, seed=spec.seed("ghost"))


def delegation(spec: ZoneSpec) -> Tuple[List[NS], List[DS]]:
    """The NS and DS rdatas the parent holds for *spec*: one NS per
    distinct host; a DS for the phase's DS keys mid-rollover, for a key
    the zone lacks (errant DS), for its own key, or none (an island).
    The plan delegates every zone by it, and replay follows it."""
    ns = [NS(host) for host in dict.fromkeys(spec.ns_hosts)]
    if not spec.wants_parent_ds:
        return ns, []
    if spec.rollover_phase:
        keys = transition_keys(spec)[2]
    elif spec.status == StatusScenario.INVALID_ERRANT_DS:
        keys = [ghost_keys(spec)]
    else:
        keys = [zone_keys(spec)]
    owner = Name.from_text(spec.name)
    return ns, [ds_from_dnskey(owner, key.dnskey()) for key in keys]


def secondary_keys(spec: ZoneSpec) -> KeyPair:
    """The second operator's key in an RFC 8901 multi-signer setup."""
    return KeyPair.generate(Algorithm.ED25519, ksk=True, seed=spec.seed("ksk2"))


def signal_zone_key(host: str) -> KeyPair:
    return KeyPair.generate(Algorithm.ED25519, ksk=True, seed=f"signal:{host}".encode())


def registry_key(suffix: str) -> KeyPair:
    return KeyPair.generate(Algorithm.ED25519, ksk=True, seed=f"registry:{suffix}".encode())


def operator_zone_key(zone: str) -> KeyPair:
    return KeyPair.generate(Algorithm.ED25519, ksk=True, seed=f"opzone:{zone}".encode())


def _cds_set(spec: ZoneSpec, keys: List[KeyPair]) -> Tuple[List[CDS], List[CDNSKEY]]:
    owner = Name.from_text(spec.name)
    return (
        [cds_from_dnskey(owner, key.dnskey()) for key in keys],
        [key.cdnskey() for key in keys],
    )


def _downgraded_cds_pair(spec: ZoneSpec) -> Tuple[List[CDS], List[CDNSKEY]]:
    """CDS/CDNSKEY advertising the zone's key under RSASHA1 (5).

    The algorithm-downgrade a conformant parental agent must refuse
    (RFC 8624 forbids new RSASHA1 delegations): key material and key
    tag are the zone's real KSK, only the algorithm octet lies.
    """
    dnskey = zone_keys(spec).dnskey()
    downgraded = CDNSKEY(
        dnskey.flags, dnskey.protocol, int(Algorithm.RSASHA1), dnskey.public_key
    )
    owner = Name.from_text(spec.name)
    return [cds_from_dnskey(owner, downgraded)], [downgraded]


def customer_cds_rdatas(spec: ZoneSpec, variant: int) -> Tuple[List[CDS], List[CDNSKEY]]:
    """What CDS/CDNSKEY the zone publishes, per scenario and NS variant."""
    if spec.cds == CdsScenario.NONE:
        return [], []
    if spec.cds == CdsScenario.DELETE:
        return [cds_delete_rdata()], [cdnskey_delete_rdata()]
    if spec.cds == CdsScenario.DOWNGRADE:
        return _downgraded_cds_pair(spec)
    if spec.rollover_phase:
        # Mid-rollover, the zone advertises every key it wants DS for
        # (RFC 7344 §6.1: the CDS RRset *is* the desired DS RRset).
        return _cds_set(spec, transition_keys(spec)[3])
    if spec.cds == CdsScenario.MISMATCH or spec.cds == CdsScenario.UNSIGNED_CDS:
        return _cds_set(spec, [ghost_keys(spec)])
    if spec.cds == CdsScenario.INCONSISTENT and variant != 0:
        return _cds_set(spec, [ghost_keys(spec)])
    if spec.cds == CdsScenario.MULTISIGNER:
        # RFC 8901: every operator serves the *union* of both CDS sets.
        return _cds_set(spec, [zone_keys(spec), secondary_keys(spec)])
    return _cds_set(spec, [zone_keys(spec)])


def signal_cds_rdatas(spec: ZoneSpec) -> Tuple[List[CDS], List[CDNSKEY]]:
    """What the operator publishes for *spec* in its signaling zones
    (the primary operator's view: variant 0).

    A zone whose own CDS scenario is NONE can still signal (the paper's
    43 unsigned zones with signal RRs): the operator synthesizes CDS for
    the key it intends to use.
    """
    if spec.cds == CdsScenario.NONE:
        return _cds_set(spec, transition_keys(spec)[3])
    return customer_cds_rdatas(spec, variant=0)


def _ns_variant(spec: ZoneSpec, host: Optional[str]) -> int:
    if host is not None and host in spec.ns_hosts:
        return spec.ns_hosts.index(host)
    return 0


def _content_variant(spec: ZoneSpec, host: Optional[str]) -> int:
    """Which of *spec*'s zones *host* serves: the only part of the host
    :func:`materialize_customer_zone` reads.  An INCONSISTENT zone's
    first NS host serves other CDS than the rest; a MULTISIGNER zone's
    first host signs with the primary key, the rest with the secondary."""
    if spec.cds in (CdsScenario.INCONSISTENT, CdsScenario.MULTISIGNER):
        return min(_ns_variant(spec, host), 1)
    return 0


def materialize_customer_zone(spec: ZoneSpec, host: Optional[str]) -> Zone:
    """Build (and sign) the zone for *spec* as served by *host*."""
    origin = Name.from_text(spec.name)
    zone = Zone(origin)
    zone.add(origin, _ZONE_TTL, SOA(spec.ns_hosts[0], f"hostmaster.{spec.name}", spec.serial))
    for ns_host in spec.ns_hosts:
        zone.add(origin, _ZONE_TTL, NS(ns_host))
    # crc32, not hash(): str hashes vary with PYTHONHASHSEED, and the
    # same seed must yield byte-identical zones in every process.
    octet = (zlib.crc32(spec.name.encode()) & 0xFF) or 1
    zone.add(origin.child("www"), 300, A(f"192.0.2.{octet}"))
    zone.add(origin, _ZONE_TTL, TXT([f"synthetic zone {spec.name}"]))

    variant = _ns_variant(spec, host)
    cds_rdatas, cdnskey_rdatas = customer_cds_rdatas(spec, variant)
    if cds_rdatas:
        zone.add_rrset(RRset(origin, RRType.CDS, _ZONE_TTL, cds_rdatas))
    if cdnskey_rdatas:
        zone.add_rrset(RRset(origin, RRType.CDNSKEY, _ZONE_TTL, cdnskey_rdatas))

    if spec.is_signed and spec.rollover_phase:
        published, signing, _, _ = transition_keys(spec)
        if published:
            # Mid-rollover: publish every key in the window, sign with
            # the phase's signer set (both keys during an algorithm
            # roll, the incumbent during pre-publish / double-DS).
            zone.add_rrset(
                RRset(origin, RRType.DNSKEY, _ZONE_TTL, [k.dnskey() for k in published])
            )
            sign_zone(zone, signing, denial=spec.denial_mode)
        # No published keys: the dangling-DS mishap — the operator
        # unsigned the zone while the parent DS lives on.
    elif spec.is_signed:
        if spec.cds == CdsScenario.MULTISIGNER:
            # Both operators' DNSKEYs are published everywhere; each
            # operator's servers sign with their *own* key (RFC 8901
            # model 2: common DNSKEY RRset, distinct signers).
            keys = [zone_keys(spec), secondary_keys(spec)]
            dnskey_rrset = RRset(origin, RRType.DNSKEY, _ZONE_TTL, [k.dnskey() for k in keys])
            zone.add_rrset(dnskey_rrset)
            sign_zone(zone, [keys[min(variant, len(keys) - 1)]])
        else:
            sign_zone(zone, [zone_keys(spec)], denial=spec.denial_mode)
        if spec.status in (StatusScenario.INVALID_BADSIG, StatusScenario.ISLAND_BADSIG):
            _corrupt_all_signatures(zone)
        elif spec.cds == CdsScenario.BADSIG:
            _corrupt_cds_signature(zone, origin)
    return zone


def _corrupt_all_signatures(zone: Zone) -> None:
    for name in list(zone.names()):
        sig_rrset = zone.get_rrset(name, RRType.RRSIG)
        if sig_rrset is None:
            continue
        corrupted = RRset(
            name,
            RRType.RRSIG,
            sig_rrset.ttl,
            [corrupt_signature(sig) for sig in sig_rrset.rdatas],
        )
        zone.remove_rrset(name, RRType.RRSIG)
        zone.add_rrset(corrupted)


def _corrupt_cds_signature(zone: Zone, origin: Name) -> None:
    sig_rrset = zone.get_rrset(origin, RRType.RRSIG)
    if sig_rrset is None:
        return
    rewritten = []
    for sig in sig_rrset.rdatas:
        if int(sig.type_covered) in (int(RRType.CDS), int(RRType.CDNSKEY)):
            rewritten.append(corrupt_signature(sig))
        else:
            rewritten.append(sig)
    zone.remove_rrset(origin, RRType.RRSIG)
    zone.add_rrset(RRset(origin, RRType.RRSIG, sig_rrset.ttl, rewritten))


def signal_entry(spec: ZoneSpec) -> Tuple[str, Tuple[CDS, ...], Tuple[CDNSKEY, ...], bool]:
    """What :func:`materialize_signal_zone` reads of *spec*: its name,
    the CDS and CDNSKEY rdatas its operator signals for it, and whether
    their signatures are expired."""
    cds, cdnskey = signal_cds_rdatas(spec)
    return spec.name, tuple(cds), tuple(cdnskey), spec.signal == SignalScenario.SIG_EXPIRED


def materialize_signal_zone(
    host: str,
    profile: OperatorProfile,
    entries: List[ZoneSpec],
) -> Zone:
    """Build the ``_signal.<host>`` zone with one ``_dsboot`` node per
    customer zone signaling under this host."""
    origin = Name.from_text(f"_signal.{host}")
    key = signal_zone_key(host)
    zone = Zone(origin)
    zone.add(origin, _ZONE_TTL, SOA(profile.hosts[0], f"hostmaster.{host}", 1))
    for ns_host in profile.hosts[:2]:
        zone.add(origin, _ZONE_TTL, NS(ns_host))
    expired: List[Name] = []
    for name, cds_rdatas, cdnskey_rdatas, sig_expired in map(signal_entry, entries):
        if not cds_rdatas and not cdnskey_rdatas:
            continue
        boot = Name.from_text(f"_dsboot.{name}").concatenate(origin)
        if cds_rdatas:
            zone.add_rrset(RRset(boot, RRType.CDS, _ZONE_TTL, cds_rdatas))
        if cdnskey_rdatas:
            zone.add_rrset(RRset(boot, RRType.CDNSKEY, _ZONE_TTL, cdnskey_rdatas))
        if sig_expired:
            expired.append(boot)
    sign_zone(zone, [key])
    for boot in expired:
        _expire_signatures(zone, boot, key)
    return zone


def _expire_signatures(zone: Zone, name: Name, key: KeyPair) -> None:
    """Replace the RRSIGs at *name* with long-expired ones (the paper's
    forgotten personal test zone, §4.4)."""
    sig_rrset = zone.get_rrset(name, RRType.RRSIG)
    if sig_rrset is None:
        return
    zone.remove_rrset(name, RRType.RRSIG)
    fresh = RRset(name, RRType.RRSIG, sig_rrset.ttl)
    for rrtype in (RRType.CDS, RRType.CDNSKEY):
        covered = zone.get_rrset(name, rrtype)
        if covered is None:
            continue
        fresh.add(
            sign_rrset(
                covered,
                key,
                zone.origin,
                inception=DEFAULT_INCEPTION - 90 * 86_400,
                expiration=DEFAULT_INCEPTION - 30 * 86_400,
            )
        )
    if len(fresh):
        zone.add_rrset(fresh)


def materialize_operator_zone(
    zone_name: str, profile: OperatorProfile, host_ips: Dict[str, List[str]]
) -> Zone:
    """Build (and sign) one of an operator's NS zones: the addresses of
    its in-zone nameserver hosts and, for AB publishers, the ``_signal``
    delegations (with DS unless the operator leaves them unsigned)."""
    zone = Zone(zone_name)
    origin = Name.from_text(zone_name)
    in_zone_hosts = [
        host for host in profile.hosts if Name.from_text(host).is_subdomain_of(origin)
    ]
    zone.add(origin, _ZONE_TTL, SOA(profile.hosts[0], f"hostmaster.{zone_name}", 1))
    for ns_host in profile.hosts[:2]:
        zone.add(origin, _ZONE_TTL, NS(ns_host))
    for host in in_zone_hosts:
        for ip in host_ips[host]:
            rdata = AAAA(ip) if ":" in ip else A(ip)
            zone.add(host, _ZONE_TTL, rdata)
    if profile.publishes_signal:
        for host in in_zone_hosts:
            signal_origin = Name.from_text(f"_signal.{host}")
            for ns_host in profile.hosts[:2]:
                zone.add(signal_origin, _ZONE_TTL, NS(ns_host))
            if not profile.signal_unsigned:
                zone.add(
                    signal_origin,
                    _ZONE_TTL,
                    ds_from_dnskey(signal_origin, signal_zone_key(host).dnskey()),
                )
    sign_zone(zone, [operator_zone_key(zone_name)])
    return zone


@dataclass
class WorldPlan:
    """The seed-pure half of a world: a function of ``(cells, seed,
    adversarial)`` alone, built once per key and shared by every world
    built from it (:func:`repro.ecosystem.world.world_plan`).

    It holds the operator address plan, the zone specs with their host
    and signal indexes (by zone name), and the **signed** root and
    registry zones with every operator and customer delegation in
    place.  A world never edits it: ``build_world`` gives each world
    :meth:`~repro.dns.zone.Zone.copy` copies of the zones and its own
    copies of the spec table and the two indexes the monitoring plane
    edits.
    """

    profiles: Dict[str, OperatorProfile]
    host_owner: Dict[str, str] = field(default_factory=dict)
    # operator → host → addresses, allocated in profile order.
    host_ips: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    registry_zones: Dict[str, Zone] = field(default_factory=dict)
    root_zone: Zone = field(default_factory=lambda: Zone("."))
    specs: Dict[str, ZoneSpec] = field(default_factory=dict)
    # host → {apex → zone name}: the customer zones each host serves.
    zones_by_host: Dict[str, Dict[Name, str]] = field(default_factory=dict)
    # host → names of the zones signalling under it.
    signal_index: Dict[str, List[str]] = field(default_factory=dict)
    transient_names: Dict[str, List[Name]] = field(default_factory=dict)
    cut_names: Dict[str, List[Name]] = field(default_factory=dict)
    spoof_names: Dict[str, List[Name]] = field(default_factory=dict)
    # operator → its materialised zones, frozen.
    zones: Dict[str, Memo] = field(default_factory=dict)

    def zone(self, operator: str, key: object, build: Callable[[], Zone]) -> Zone:
        """*operator*'s materialised zone under *key*, built and frozen on
        a miss: customer zones are keyed ``(spec, content variant)``, NS
        zones by their name and signal zones by their host and the
        :func:`signal_entry` of each zone they list.  Every
        world of this plan, and every server in it, answers from the one
        zone and its one answer memo."""
        zones = self.zones.get(operator)
        if zones is None:
            zones = self.zones[operator] = Memo(512)
        zone = zones.get(key)
        if zone is None:
            zone = zones.put(key, build().freeze())
        return zone

    # -- registries ----------------------------------------------------------

    def build_registries(self) -> None:
        for name in psl.registry_zone_names():
            zone = Zone(name)
            zone.add(name, _ZONE_TTL, SOA(f"a.nic.{name}", f"hostmaster.nic.{name}", 1))
            for prefix in ("a", "b"):
                ns_host = f"{prefix}.nic.{name}"
                zone.add(name, _ZONE_TTL, NS(ns_host))
                zone.add(ns_host, _ZONE_TTL, A(REGISTRY_IPS[0]))
                zone.add(ns_host, _ZONE_TTL, AAAA(REGISTRY_IPS[1]))
            self.registry_zones[name] = zone
        # Delegate multi-label suffixes from their parents (co.uk ← uk).
        for name, zone in self.registry_zones.items():
            parts = name.split(".")
            if len(parts) == 1:
                continue
            parent = self.registry_zones[".".join(parts[1:])]
            for prefix in ("a", "b"):
                parent.add(name, _ZONE_TTL, NS(f"{prefix}.nic.{name}"))
            parent.add(
                name,
                _ZONE_TTL,
                ds_from_dnskey(Name.from_text(name), registry_key(name).dnskey()),
            )
        # Root: SOA, NS, and delegations for the top-level registries.
        self.root_zone.add(".", _ZONE_TTL, SOA("a.root-servers.net", "nstld.example", 1))
        self.root_zone.add(".", _ZONE_TTL, NS("a.root-servers.net"))
        self.root_zone.add("a.root-servers.net", _ZONE_TTL, A(ROOT_IP))
        for name in self.registry_zones:
            if "." in name:
                continue
            for prefix in ("a", "b"):
                self.root_zone.add(name, _ZONE_TTL, NS(f"{prefix}.nic.{name}"))
                self.root_zone.add(f"{prefix}.nic.{name}", _ZONE_TTL, A(REGISTRY_IPS[0]))
            self.root_zone.add(
                name,
                _ZONE_TTL,
                ds_from_dnskey(Name.from_text(name), registry_key(name).dnskey()),
            )

    def sign_registries(self) -> None:
        """Sign the registry and root zones (done last, after all
        delegations are in) and freeze them: worlds edit copies."""
        for name, zone in self.registry_zones.items():
            sign_zone(zone, [registry_key(name)], with_nsec=len(zone) < TLD_NSEC_LIMIT)
            zone.freeze()
        sign_zone(self.root_zone, [registry_key("root")], with_nsec=True)
        self.root_zone.freeze()

    # -- operators ----------------------------------------------------------------

    def plan_operators(self) -> None:
        """Allocate every operator host's addresses, in profile order,
        and delegate the operators' NS zones (with glue)."""
        ips = _IpAllocator()
        for name, profile in self.profiles.items():
            host_ips = self.host_ips[name] = {}
            for host in profile.hosts:
                self.host_owner[host] = name
                host_ips[host] = [ips.v4() for _ in range(profile.v4_per_host)]
                host_ips[host] += [ips.v6() for _ in range(profile.v6_per_host)]
            for zone_name in profile.ns_zones:
                self._delegate_operator_zone(zone_name, profile, host_ips)

    def _delegate_operator_zone(
        self, zone_name: str, profile: OperatorProfile, host_ips: Dict[str, List[str]]
    ) -> None:
        key = operator_zone_key(zone_name)
        _, suffix = psl.registrable_part(Name.from_text(zone_name))
        registry = self.registry_zones[suffix]
        origin = Name.from_text(zone_name)
        for ns_host in profile.hosts[:2]:
            registry.add(zone_name, _ZONE_TTL, NS(ns_host))
        registry.add(zone_name, _ZONE_TTL, ds_from_dnskey(origin, key.dnskey()))
        # Glue for in-bailiwick hosts.
        for host in profile.hosts:
            if not Name.from_text(host).is_subdomain_of(origin):
                continue
            for ip in host_ips[host]:
                rdata = AAAA(ip) if ":" in ip else A(ip)
                registry.add(host, _ZONE_TTL, rdata)

    def hosts(self, spec: ZoneSpec) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(serving, signalling)``: the hosts whose servers serve
        *spec*'s zone, and those whose ``_signal`` zone lists it — its
        own operator's hosts, when that operator publishes signals (the
        first host only for an NS-coverage gap)."""
        serving = tuple(dict.fromkeys(spec.ns_hosts))
        if spec.signal == SignalScenario.NONE or not self.profiles[spec.operator].publishes_signal:
            return serving, ()
        publishing = serving[:1] if spec.signal == SignalScenario.NS_COVERAGE else serving
        return serving, tuple(h for h in publishing if self.host_owner.get(h) == spec.operator)


@dataclass
class OperatorRuntime:
    """A built operator: its servers and bookkeeping."""

    profile: OperatorProfile
    servers: Dict[Optional[str], AuthoritativeServer] = field(default_factory=dict)
    host_ips: Dict[str, List[str]] = field(default_factory=dict)
    # NS zones materialised so far (apex → signed zone); empty until a
    # query reaches one of ``profile.ns_zones``.
    zones: Dict[Name, Zone] = field(default_factory=dict)

    def server_for(self, host: str) -> AuthoritativeServer:
        if self.profile.anycast:
            return self.servers[None]
        return self.servers[host]

    def all_servers(self) -> List[AuthoritativeServer]:
        return list(dict.fromkeys(self.servers.values()))


# -- world assembly ----------------------------------------------------------
#
# ``build_world`` runs these steps, in order, over a new world's own
# dicts.  No provider closure holds the world: a server that kept it
# would close a cycle and leave a dropped world to the cycle collector.


def serve_registries(world: "World") -> None:
    """Put the world's root and registry zones on their servers."""
    root_server = AuthoritativeServer("root")
    registry_server = AuthoritativeServer("registries")
    for zone in world.registry_zones.values():
        registry_server.add_zone(zone)
    root_server.add_zone(world.root_zone)
    world.network.register(ROOT_IP, root_server)
    for ip in REGISTRY_IPS:
        world.network.register(ip, registry_server)


def build_operator(world: "World", name: str, dark: bool = False) -> None:
    """Start operator *name*'s servers on its planned addresses (dark
    ones for *dark*) and serve its NS zones on demand.

    The plan delegated the NS zones (registry NS/DS/glue must land
    before the registries are signed).  Their bodies are a pure function
    of the profile and the planned addresses, so the plan builds and
    signs each the first time a query reaches its apex, for every world
    of the seed and all the operator's servers.
    """
    plan = world.plan
    profile = plan.profiles[name]
    runtime = world.operators[name] = OperatorRuntime(profile, host_ips=plan.host_ips[name])
    if profile.anycast:
        runtime.servers[None] = AuthoritativeServer(f"{name}-anycast")
    for host in profile.hosts:
        if not profile.anycast:
            runtime.servers[host] = AuthoritativeServer(f"{name}:{host}")
        server = runtime.server_for(host)
        for ip in runtime.host_ips[host]:
            if dark:
                world.network.register_dark(ip)
            else:
                world.network.register(ip, server)
    if profile.legacy:
        for server in runtime.all_servers():
            server.add_behavior(LegacyUnknownTypeBehavior(Rcode.SERVFAIL))

    names = {Name.from_text(zone_name): zone_name for zone_name in profile.ns_zones}
    zones = runtime.zones
    host_ips = runtime.host_ips

    def provider(apex: Name) -> Optional[Zone]:
        zone = zones.get(apex)
        if zone is None and apex in names:
            zone_name = names[apex]
            zone = zones[apex] = plan.zone(
                profile.name,
                zone_name,
                lambda: materialize_operator_zone(zone_name, profile, host_ips),
            )
        return zone

    for server in runtime.all_servers():
        server.add_zone_provider(names, provider)


def install_customer_providers(world: "World") -> None:
    """Attach a lazy customer-zone provider to every host's server.

    A host's provider maps an apex to a zone name and reads that zone's
    spec from ``world.specs`` when asked, so an event that replaces a
    spec edits that one table.  Each ``(spec, content variant)`` is
    materialised and signed once per plan, however many of the
    operator's servers and worlds are asked for it; a replaced spec is
    a new key."""
    plan, specs = world.plan, world.specs
    for host, zone_names in world.zones_by_host.items():
        owner = plan.host_owner.get(host)
        if owner is None:
            continue
        provider = _customer_provider(plan, specs, owner, zone_names, host)
        world.operators[owner].server_for(host).add_zone_provider(zone_names, provider)


def _customer_provider(
    plan: WorldPlan, specs: Dict[str, ZoneSpec], owner: str, zone_names: Dict[Name, str], host: str
) -> Callable[[Name], Optional[Zone]]:
    def provider(apex: Name) -> Optional[Zone]:
        name = zone_names.get(apex)
        if name is None:
            return None
        spec = specs[name]
        return plan.zone(
            owner,
            (spec, _content_variant(spec, host)),
            lambda: materialize_customer_zone(spec, host),
        )

    return provider


def install_signal_providers(world: "World") -> None:
    """Attach signaling-zone providers to every AB operator server: the
    ``_signal.<host>`` zone holds the specs, read from ``world.specs``,
    of the zones ``world.signal_index`` lists under *host*, and is kept
    under what it reads of them, so an event that leaves a zone's
    signal as it was (a serial bump, a DS install) keeps the zone."""
    plan, specs, signal_index = world.plan, world.specs, world.signal_index
    for runtime in world.operators.values():
        profile = runtime.profile
        if not profile.publishes_signal:
            continue
        apexes = {Name.from_text(f"_signal.{host}") for host in profile.hosts}
        cache: Dict[Name, Zone] = {}

        def provider(
            apex: Name,
            _profile: OperatorProfile = profile,
            _cache: Dict[Name, Zone] = cache,
        ) -> Optional[Zone]:
            zone = _cache.get(apex)
            if zone is None:
                host = apex.parent().to_text().rstrip(".")
                if apex.labels[0] != b"_signal" or host not in _profile.hosts:
                    return None
                entries = [specs[name] for name in signal_index.get(host, ())]
                zone = _cache[apex] = plan.zone(
                    _profile.name,
                    (host, tuple(map(signal_entry, entries))),
                    lambda: materialize_signal_zone(host, _profile, entries),
                )
            return zone

        for server in runtime.all_servers():
            server.add_zone_provider(apexes, provider)


def install_quirks(world: "World") -> None:
    """Attach the planned transient-signature, synthetic-cut and
    signature-stripping behaviours."""
    plan = world.plan
    for quirk_names, make in (
        (plan.transient_names, lambda names: CorruptSignaturesBehavior(names, failures=2)),
        (plan.cut_names, SyntheticCutBehavior),
        (plan.spoof_names, StripSignaturesBehavior),
    ):
        for operator, names in quirk_names.items():
            for server in world.operators[operator].all_servers():
                server.add_behavior(make(names))
