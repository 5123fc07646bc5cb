"""Replaying a monitored world to any epoch.

Events are a pure function of the spec, so a process needing "the world
as of week *e*" rebuilds from scratch and replays epochs 1..e.
Replaying (rather than caching a mutated world) matters for
correctness: some server behaviours are stateful and consumable (e.g.
transient-SERVFAIL quirks answer bogus a fixed number of times), so
every campaign must scan a *fresh* replica, exactly like the
from-scratch full scan it is compared against.

What keeps that affordable is that a rebuild pays for no seed-pure
work.  IPs, specs, delegations and the signed registries come from the
process's one-entry plan (:func:`repro.ecosystem.world.world_plan`):
each rebuilt world gets copies of the planned registries, which
provisioning and replay then edit live, so a same-seed rebuild
delegates and signs nothing and pays for its servers and providers.
An event that changes a zone writes its new spec to ``world.specs``,
the one place a world keeps it; the providers read it there when a
query arrives.
Keys and signatures come from a bounded per-process memo
(:mod:`repro.dnssec.keys`) as well.  Operator, signal and customer
zones are providers that sign on first query, and the zones they build
are frozen and kept in the plan, so a same-seed rebuild materialises
only what a replayed event changed.  Answers live on the zone that
answers them (:attr:`repro.dns.zone.Zone.answers`), so a rebuilt
world's servers serve unchanged zones from the answers an earlier world
built; what is fresh per world is its servers and their behaviours,
which keeps the consumable quirks above honest.  And a build happens
once per step: a delta epoch, a resume and
an agent pass each replay exactly one world — the epoch's event batch
is returned by :func:`scan_world` from the same replay the campaign
scans, never drawn from a second, throw-away world.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ecosystem.mutate import bootstrap_zone
from repro.ecosystem.world import World, build_world
from repro.monitor.events import Event, apply_epoch, changed_zones
from repro.monitor.spec import MonitorSpec
from repro.scenarios.spec import ScenarioSpec


def world_at_epoch(
    scale: float, seed: int, monitor: MonitorSpec, epoch: int
) -> Tuple[World, List[List[Event]]]:
    """Build the world and replay events through *epoch* (0 = pristine).

    Returns the evolved world and the per-epoch event history
    (``history[e - 1]`` holds epoch *e*'s events).

    Agent installs recorded in ``monitor.installs`` after epoch *e*'s
    scan are applied at the start of epoch ``e + 1`` — before that
    epoch's event batch — so the DS lands on exactly the world state
    the agent verified.  Installs recorded at or after the target epoch
    have not happened yet and are ignored.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    world = build_world(scale=scale, seed=seed, scenarios=monitor.scenarios)
    history: List[List[Event]] = []
    for e in range(1, epoch + 1):
        for zone in monitor.installs_at(e - 1):
            bootstrap_zone(world, zone)
        history.append(apply_epoch(world, monitor, e))
    return world, history


def scan_world(
    scale: float,
    seed: int,
    monitor: Optional[MonitorSpec] = None,
    epoch: Optional[int] = None,
    scenarios: Optional[ScenarioSpec] = None,
):
    """The world a campaign should scan, its scan-subset, and the event
    batch the replay applied to reach it: ``(world, subset, events)``.

    For plain campaigns (``epoch=None``) and the baseline epoch 0 the
    subset is None (scan everything); for delta epochs it is the sorted
    changed-zone list of the epoch's event batch, unioned with any
    agent installs from the previous epoch (securing a zone changes its
    delegation, so the next delta re-scans it and confirms the
    island → secured transition).  *events* is that batch (None for a
    plain campaign, empty at epoch 0): the monitor records it from the
    replay its campaign performs anyway instead of replaying again.
    Every campaign participant — the sequential runner, the parallel
    parent, each worker — goes through this one function, so they all
    agree on what week *epoch* looks like and which zones changed.
    """
    if epoch is None:
        return build_world(scale=scale, seed=seed, scenarios=scenarios), None, None
    world, history = world_at_epoch(scale, seed, monitor, epoch)
    if epoch == 0:
        return world, None, []
    from repro.dns.name import Name

    events = history[-1]
    changed = set(changed_zones(events)) | set(monitor.installs_at(epoch - 1))
    subset = sorted(
        (Name.from_text(zone) for zone in changed),
        key=lambda n: n.canonical_key(),
    )
    return world, subset, events
