"""In-place evolution of a built world (the monitoring plane's substrate).

A :class:`~repro.ecosystem.world.World` is assembled once and then
normally frozen.  The continuous-monitoring plane needs the opposite: a
seeded stream of operator actions — adopting authenticated
bootstrapping, publishing/withdrawing CDS, getting bootstrapped into
the chain of trust, rolling keys, churning NS sets, filing RFC 8078
delete requests — applied *between* simulated epochs.

The trick that keeps this cheap: zones are materialised lazily, and the
provider closures capture the builder's spec maps and signal index *by
reference* (see :class:`~repro.ecosystem.generator.InfrastructureBuilder`).
Events are always applied to a freshly rebuilt world **before** any
query is served, and no invalidation machinery is needed: a replaced
spec names another materialised zone, a registry edit drops that zone's
answer memo by itself, and the world's signal zones are still
unbuilt — mutating the spec maps, the live registry zones (via
:mod:`repro.provisioning`), and the signal index is the whole job.

Every applied event bumps the zone's SOA serial, which is what the
delta campaigns' change feed (zone-serial / CSYNC-style) keys on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.chaos.retry import stable_unit
from repro.dns.name import Name
from repro.dns.rdata import NS
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dnssec.ds import cds_from_dnskey
from repro.ecosystem.generator import transition_keys, zone_keys
from repro.ecosystem.spec import CdsScenario, SignalScenario, StatusScenario, ZoneSpec
from repro.ecosystem.world import World
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.transitions import (
    ADVANCE_EVENT,
    ALGORITHM_ROLL_TARGET,
    KIND_ALGORITHM,
    KIND_DANGLING_DS,
    KIND_DOUBLE_DS,
    KIND_STRANDED_KSK,
    PHASE_FOR_KIND,
    RECOVERABLE_PHASES,
    choose_roll_kind,
)

# Fixed evaluation order: the first applicable kind whose hash clears
# its rate wins, so a zone sees at most one event per epoch and the
# event stream is a pure function of (monitor seed, epoch, zone name).
EVENT_KINDS: Tuple[str, ...] = (
    "adopt_signal",
    "publish_cds",
    "withdraw_cds",
    "bootstrap_ds",
    "roll_key",
    "churn_ns",
    "remove_ds",
)

_TTL = 3600


class MutationError(ValueError):
    """An event was applied to a spec it is not applicable to."""


def eligible(world: World, spec: ZoneSpec) -> bool:
    """Zones the event stream may touch at all.

    Single-operator, resolving, non-legacy zones in a *clean* state
    (plain island or secured, CDS absent or correct, signal absent or
    correct).  The deliberately broken taxonomy cells — bad signatures,
    mismatched CDS, transient quirks — are museum pieces: mutating them
    would consume their stateful server behaviours and break the
    delta-chain ≡ full-scan invariant.
    """
    if spec.secondary_operator is not None or spec.legacy_ns:
        return False
    if spec.rollover_phase:
        # Mid-rollover zones belong to the forced advance_rollover
        # event (or, for mishap phases, to nobody) until the window
        # closes — overlapping transitions would not replay cleanly.
        return False
    if spec.status not in (StatusScenario.ISLAND, StatusScenario.SECURE):
        return False
    if spec.cds not in (CdsScenario.NONE, CdsScenario.OK):
        return False
    if spec.signal not in (SignalScenario.NONE, SignalScenario.OK):
        return False
    return spec.operator in world.profiles


def applicable(world: World, spec: ZoneSpec, kind: str) -> bool:
    """Whether *kind* can fire for *spec* in its current replayed state."""
    if kind == ADVANCE_EVENT:
        # The forced window-closing event: fires for every zone in a
        # recoverable phase, bypassing the eligibility gate (which
        # excludes mid-rollover zones by design).
        return spec.rollover_phase in RECOVERABLE_PHASES
    if not eligible(world, spec):
        return False
    profile = world.profiles[spec.operator]
    if kind == "adopt_signal":
        return (
            spec.signal == SignalScenario.NONE
            and getattr(profile, "publishes_signal", False)
            and any(
                world.builder.host_owner.get(host) == spec.operator
                for host in spec.ns_hosts
            )
        )
    if kind == "publish_cds":
        return spec.cds == CdsScenario.NONE
    if kind == "withdraw_cds":
        return spec.cds == CdsScenario.OK
    if kind == "bootstrap_ds":
        return spec.status == StatusScenario.ISLAND and spec.cds == CdsScenario.OK
    if kind == "roll_key":
        return True
    if kind == "churn_ns":
        return spec.signal == SignalScenario.NONE and len(_churn_candidates(world, spec)) > 0
    if kind == "remove_ds":
        return spec.status == StatusScenario.SECURE
    raise MutationError(f"unknown event kind {kind!r}")


def apply_event(
    world: World, kind: str, zone: str, scenarios: Optional[ScenarioSpec] = None
) -> ZoneSpec:
    """Apply one event to *world*, returning the updated spec.

    Raises :class:`MutationError` when the event is not applicable —
    the event stream only emits applicable events, so hitting this
    means the caller replayed epochs out of order.  *scenarios* shapes
    the ``roll_key`` event: with transitions enabled it opens a
    hash-chosen rollover window instead of the conservative double-DS
    one.
    """
    spec = world.specs[zone]
    if not applicable(world, spec, kind):
        raise MutationError(f"event {kind} is not applicable to {zone}")
    return _APPLIERS[kind](world, spec, scenarios)


# -- per-kind application ----------------------------------------------------


def _replace_spec(world: World, spec: ZoneSpec, **changes) -> ZoneSpec:
    """Swap in an updated (serial-bumped) spec everywhere the old one
    is referenced: the world's spec table, every host's provider map,
    and the signal index."""
    new = replace(spec, serial=spec.serial + 1, **changes)
    world.specs[spec.name] = new
    builder = world.builder
    apex = Name.from_text(spec.name)
    for host in dict.fromkeys(new.ns_hosts):
        spec_map = builder.customer_spec_maps.get(host)
        if spec_map is not None and apex in spec_map:
            spec_map[apex] = new
    for entries in builder.signal_index.values():
        for i, entry in enumerate(entries):
            if entry.name == spec.name:
                entries[i] = new
    return new


def _adopt_signal(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    new = _replace_spec(world, spec, signal=SignalScenario.OK)
    builder = world.builder
    for host in dict.fromkeys(new.ns_hosts):
        if builder.host_owner.get(host) != new.operator:
            continue
        builder.signal_index.setdefault(host, []).append(new)
    return new


def _publish_cds(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    return _replace_spec(world, spec, cds=CdsScenario.OK)


def _withdraw_cds(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    return _replace_spec(world, spec, cds=CdsScenario.NONE)


def _keys_cds_rrset(spec: ZoneSpec, keys) -> RRset:
    owner = Name.from_text(spec.name)
    return RRset(
        owner, RRType.CDS, _TTL, [cds_from_dnskey(owner, key.dnskey()) for key in keys]
    )


def _own_cds_rrset(spec: ZoneSpec) -> RRset:
    """The CDS RRset the zone currently advertises (what an accept
    decision installs).  Mid-rollover this carries every key in the
    window — RFC 7344 §6.1: the CDS RRset *is* the desired DS RRset."""
    keys = transition_keys(spec)[3] or [zone_keys(spec)]
    return _keys_cds_rrset(spec, keys)


def _bootstrap_ds(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    from repro.provisioning.engine import install_ds

    new = _replace_spec(world, spec, status=StatusScenario.SECURE)
    install_ds(world, new.name, _own_cds_rrset(new))
    return new


def bootstrap_zone(world: World, zone: str) -> ZoneSpec:
    """Apply a parental-agent DS install to *zone* (no eligibility gate).

    Replay counterpart of an :class:`~repro.agent` accept decision: the
    agent verified the zone's live CDS at decision time, so replay
    installs the spec-derived DS unconditionally — exactly what
    ``_bootstrap_ds`` does for the operator-driven event, minus the
    seeded-rate gate.
    """
    return _bootstrap_ds(world, world.specs[zone])


def _roll_key(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    """Open a key-rollover window (RFC 7344 remove-then-add).

    The old behaviour was an atomic key swap — DNSKEY, CDS, and parent
    DS all flipped between epochs, a transition no real operator can
    perform.  Now the event *enters* a window: the spec records the
    transition kind and phase, the zone publishes and signs per the
    phase (see :func:`repro.ecosystem.generator.transition_keys`), and
    the forced ``advance_rollover`` event completes recoverable windows
    one epoch later.  Mishap kinds (stranded KSK, dangling DS) are
    terminal states the event stream never repairs.
    """
    from repro.provisioning.engine import install_ds

    kind = choose_roll_kind(scenarios, spec.name, spec.key_generation)
    if spec.status != StatusScenario.SECURE and kind in (
        KIND_STRANDED_KSK,
        KIND_DANGLING_DS,
    ):
        # Mishaps are parent-DS pathologies; an island has no DS to
        # strand or dangle, so degrade to the conservative window.
        kind = KIND_DOUBLE_DS
    new = _replace_spec(
        world, spec, rollover_kind=kind, rollover_phase=PHASE_FOR_KIND[kind]
    )
    if new.status == StatusScenario.SECURE:
        # The parent DS follows the phase's DS key set (both keys in a
        # double-DS window; unchanged for stranded/dangling mishaps).
        install_ds(world, new.name, _keys_cds_rrset(new, transition_keys(new)[2]))
    return new


def _advance_rollover(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    """Close a recoverable rollover window: the successor key becomes
    the incumbent and the parent DS (for secured zones) follows."""
    from repro.provisioning.engine import install_ds

    algorithm = spec.algorithm
    if spec.rollover_kind == KIND_ALGORITHM:
        algorithm = ALGORITHM_ROLL_TARGET.get(spec.algorithm, "ecdsap256")
    new = _replace_spec(
        world,
        spec,
        key_generation=spec.key_generation + 1,
        algorithm=algorithm,
        rollover_kind="",
        rollover_phase="",
    )
    if new.status == StatusScenario.SECURE:
        install_ds(world, new.name, _own_cds_rrset(new))
    return new


def _remove_ds(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    from repro.provisioning.engine import remove_ds

    new = _replace_spec(world, spec, status=StatusScenario.ISLAND)
    remove_ds(world, new.name)
    return new


def _churn_candidates(world: World, spec: ZoneSpec):
    """Hosts this zone may move to: same operator, and a host whose
    server already carries a customer provider map (so the moved apex
    resolves through the existing closure)."""
    builder = world.builder
    profile = world.profiles[spec.operator]
    return [
        host
        for host in profile.hosts
        if builder.host_owner.get(host) == spec.operator
        and host in builder.customer_spec_maps
    ]


def _churn_ns(world: World, spec: ZoneSpec, scenarios=None) -> ZoneSpec:
    builder = world.builder
    candidates = _churn_candidates(world, spec)
    old_hosts = tuple(dict.fromkeys(spec.ns_hosts))
    want = len(old_hosts)
    if want > len(candidates):
        # Not enough hosts to fill the NS set; record the (no-op) churn
        # by bumping the serial so the change feed stays honest.
        return _replace_spec(world, spec)
    start = int(stable_unit("monitor", "churn", spec.name, spec.serial) * len(candidates))
    new_hosts = tuple(candidates[(start + i) % len(candidates)] for i in range(want))

    new = _replace_spec(world, spec, ns_hosts=new_hosts)
    apex = Name.from_text(spec.name)
    for host in old_hosts:
        if host not in new_hosts:
            builder.customer_spec_maps[host].pop(apex, None)
    for host in new_hosts:
        builder.customer_spec_maps[host][apex] = new
        runtime = builder.operators[builder.host_owner[host]]
        runtime.server_for(host).claim_apex(apex)

    # Re-point the delegation (delegation NS RRsets are unsigned, so no
    # registry re-signing is needed; glue for operator hosts lives in
    # the operator's own ns_zones).
    registry = world.registry_zones[spec.suffix]
    owner = Name.from_text(spec.name)
    registry.remove_rrset(owner, RRType.NS)
    for host in new_hosts:
        registry.add(spec.name, _TTL, NS(host))
    return new


_APPLIERS = {
    "adopt_signal": _adopt_signal,
    "publish_cds": _publish_cds,
    "withdraw_cds": _withdraw_cds,
    "bootstrap_ds": _bootstrap_ds,
    "roll_key": _roll_key,
    "churn_ns": _churn_ns,
    "remove_ds": _remove_ds,
    ADVANCE_EVENT: _advance_rollover,
}
