"""In-place evolution of a built world (the monitoring plane's substrate).

A :class:`~repro.ecosystem.world.World` is assembled once and then
normally frozen.  The continuous-monitoring plane needs the opposite: a
seeded stream of operator actions — adopting authenticated
bootstrapping, publishing/withdrawing CDS, getting bootstrapped into
the chain of trust, rolling keys, churning NS sets, filing RFC 8078
delete requests — applied *between* simulated epochs.

An event is one spec write.  Its kind names a change of the zone's old
spec (:data:`CHANGES`); the new spec, serial bumped, goes to
``world.specs``, the one place a world keeps it, and :func:`follow`
brings the rest of the world along through the rules that planned it:
the parent's NS and DS rows
(:func:`~repro.ecosystem.generator.delegation`, written by the one
registry editor :func:`~repro.provisioning.engine.replace_delegation`)
and the host indexes
(:meth:`~repro.ecosystem.generator.WorldPlan.hosts`), each edited only
where the old and the new spec derive other rows.  So a replayed zone
is what a fresh plan of its spec would hold.

What keeps this cheap: zones are materialised lazily, and the servers'
providers index zones by name and read the spec when asked (see
:func:`~repro.ecosystem.generator.install_customer_providers`).  Events
are always applied to a freshly rebuilt world **before** any query is
served, and no invalidation machinery is needed: a replaced spec names
another materialised zone, and a registry edit drops that zone's answer
memo by itself.

Every applied event bumps the zone's SOA serial, which is what the
delta campaigns' change feed (zone-serial / CSYNC-style) keys on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.chaos.retry import stable_unit
from repro.dns.name import Name
from repro.ecosystem.generator import delegation
from repro.ecosystem.spec import CdsScenario, SignalScenario, StatusScenario, ZoneSpec
from repro.ecosystem.world import World
from repro.provisioning.engine import replace_delegation
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
    if kind == "adopt_signal":
        # Adopting must give the zone a host that signals for it.
        return spec.signal == SignalScenario.NONE and bool(
            world.plan.hosts(replace(spec, signal=SignalScenario.OK))[1]
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
    return _write(world, spec, CHANGES[kind](world, spec, scenarios))


def bootstrap_zone(world: World, zone: str) -> ZoneSpec:
    """Apply a parental-agent DS install to *zone* (no eligibility gate).

    Replay counterpart of an :class:`~repro.agent` accept decision: the
    agent verified the zone's live CDS at decision time, so replay
    secures the zone unconditionally — the ``bootstrap_ds`` change,
    minus the seeded-rate gate — and the parent follows with the DS
    the secured spec derives.
    """
    return _write(world, world.specs[zone], {"status": StatusScenario.SECURE})


def _write(world: World, old: ZoneSpec, changes: Dict[str, object]) -> ZoneSpec:
    """Store *old* with *changes* and its serial bumped in ``world.specs``,
    the only place a world keeps it, and let the rest of the world
    follow."""
    new = world.specs[old.name] = replace(old, serial=old.serial + 1, **changes)
    follow(world, old, new)
    return new


def follow(world: World, old: ZoneSpec, new: ZoneSpec) -> None:
    """Make what *world* derives from a zone's spec hold for *new*.

    The rows come from the rules that planned the world: the parent's
    NS and DS from :func:`~repro.ecosystem.generator.delegation`, edited
    through the one registry editor; the host indexes from
    :meth:`~repro.ecosystem.generator.WorldPlan.hosts`, which each host's
    server reads as its customer provider's apex map.  Only what *old* and
    *new* derive differently is edited, so an event that leaves the
    rows as they were keeps the registry's answer memo.
    """
    (old_ns, old_ds), (ns, ds) = delegation(old), delegation(new)
    if (old_ns, old_ds) != (ns, ds):
        replace_delegation(
            world, new.name, ns=None if ns == old_ns else ns, ds=None if ds == old_ds else ds
        )
    apex, plan = Name.from_text(new.name), world.plan
    (old_serving, old_signalling), (serving, signalling) = plan.hosts(old), plan.hosts(new)
    for host in _minus(old_serving, serving):
        world.zones_by_host[host].pop(apex, None)
    for host in _minus(serving, old_serving):
        world.zones_by_host[host][apex] = new.name
    for host in _minus(old_signalling, signalling):
        world.signal_index[host].remove(new.name)
    for host in _minus(signalling, old_signalling):
        world.signal_index.setdefault(host, []).append(new.name)


def _minus(hosts, others):
    return [host for host in hosts if host not in others]


# -- per-kind spec changes ---------------------------------------------------
#
# Each takes the world, the zone's old spec and the scenario spec, and
# returns the fields the event changes; ``_write`` bumps the serial.


def _set(**changes):
    return lambda world, spec, scenarios: changes


def _roll_key(world: World, spec: ZoneSpec, scenarios=None) -> Dict[str, object]:
    """Open a key-rollover window (RFC 7344 remove-then-add).

    No real operator swaps DNSKEY, CDS and parent DS between two epochs,
    so the event *enters* a window: the spec records the transition kind
    and phase, the zone publishes and signs per the phase (see
    :func:`repro.ecosystem.generator.transition_keys`), the parent DS of
    a secured zone follows the phase's DS key set (both keys in a
    double-DS window; unchanged for stranded/dangling mishaps), and the
    forced ``advance_rollover`` event completes recoverable windows one
    epoch later.  Mishap kinds (stranded KSK, dangling DS) are terminal
    states the event stream never repairs.
    """
    kind = choose_roll_kind(scenarios, spec.name, spec.key_generation)
    if spec.status != StatusScenario.SECURE and kind in (
        KIND_STRANDED_KSK,
        KIND_DANGLING_DS,
    ):
        # Mishaps are parent-DS pathologies; an island has no DS to
        # strand or dangle, so degrade to the conservative window.
        kind = KIND_DOUBLE_DS
    return {"rollover_kind": kind, "rollover_phase": PHASE_FOR_KIND[kind]}


def _advance_rollover(world: World, spec: ZoneSpec, scenarios=None) -> Dict[str, object]:
    """Close a recoverable rollover window: the successor key becomes
    the incumbent (and the parent DS of a secured zone follows)."""
    algorithm = spec.algorithm
    if spec.rollover_kind == KIND_ALGORITHM:
        algorithm = ALGORITHM_ROLL_TARGET.get(spec.algorithm, "ecdsap256")
    return {
        "key_generation": spec.key_generation + 1,
        "algorithm": algorithm,
        "rollover_kind": "",
        "rollover_phase": "",
    }


def _churn_candidates(world: World, spec: ZoneSpec):
    """Hosts this zone may move to: same operator, and a host whose
    server already carries a customer provider (so the moved apex
    resolves through the existing closure)."""
    host_owner = world.plan.host_owner
    return [
        host
        for host in world.profiles[spec.operator].hosts
        if host_owner.get(host) == spec.operator and host in world.zones_by_host
    ]


def _churn_ns(world: World, spec: ZoneSpec, scenarios=None) -> Dict[str, object]:
    candidates = _churn_candidates(world, spec)
    want = len(dict.fromkeys(spec.ns_hosts))
    if want > len(candidates):
        # Not enough hosts to fill the NS set; record the (no-op) churn
        # by bumping the serial so the change feed stays honest.
        return {}
    start = int(stable_unit("monitor", "churn", spec.name, spec.serial) * len(candidates))
    return {"ns_hosts": tuple(candidates[(start + i) % len(candidates)] for i in range(want))}


CHANGES = {
    "adopt_signal": _set(signal=SignalScenario.OK),
    "publish_cds": _set(cds=CdsScenario.OK),
    "withdraw_cds": _set(cds=CdsScenario.NONE),
    "bootstrap_ds": _set(status=StatusScenario.SECURE),
    "roll_key": _roll_key,
    "churn_ns": _churn_ns,
    "remove_ds": _set(status=StatusScenario.ISLAND),
    ADVANCE_EVENT: _advance_rollover,
}
