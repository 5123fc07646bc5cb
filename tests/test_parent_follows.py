"""A replayed zone is what a fresh plan of its spec would hold.

An event is one spec write: ``mutate.follow`` then edits the parent's
delegation and the host indexes through the rules that planned the
world (``generator.delegation`` and ``WorldPlan.hosts``), and only
where the old and the new spec derive other rows.  These tests replay
a scenario timeline with agent installs and compare every zone's
registry rows and index entries with the rules applied to its replayed
spec; check that an event deriving the same rows keeps the registry's
answer memo; and that a signal zone is kept under what it reads, so an
install on a signalling zone keeps the host's served ``_signal`` zone.
"""

from collections import Counter

import pytest

from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.types import Rcode, RRType
from repro.ecosystem import build_world
from repro.ecosystem.generator import delegation, materialize_signal_zone
from repro.ecosystem.mutate import EVENT_KINDS, applicable, apply_event, bootstrap_zone
from repro.ecosystem.spec import SignalScenario, StatusScenario
from repro.monitor import MonitorSpec
from repro.monitor.timeline import world_at_epoch
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.transitions import ADVANCE_EVENT
from repro.server import AuthoritativeServer

SCALE, SEED = 1e-6, 41
EPOCHS = 8


def registry_rows(world, spec):
    """The NS and DS rdatas *world*'s registry holds at *spec*'s delegation."""
    registry = world.registry_zones[spec.suffix]
    owner = Name.from_text(spec.name)
    rows = [registry.get_rrset(owner, rrtype) for rrtype in (RRType.NS, RRType.DS)]
    return tuple(list(rrset.rdatas) if rrset is not None else [] for rrset in rows)


def planned_indexes(world):
    """The host indexes ``WorldPlan.hosts`` derives from the spec table."""
    serving, signalling = {}, {}
    for name, spec in world.specs.items():
        hosts, signal_hosts = world.plan.hosts(spec)
        for host in hosts:
            serving.setdefault(host, {})[Name.from_text(name)] = name
        for host in signal_hosts:
            signalling.setdefault(host, set()).add(name)
    return serving, signalling


@pytest.fixture(scope="module")
def timeline():
    """A scenario timeline with agent installs: the zones that were
    islands at epochs 0 and 3 (mid-rollover ones too), secured by the
    replay ledger one epoch later."""
    spec = MonitorSpec(seed=7, scenarios=ScenarioSpec()).scaled(20.0)
    installs = []
    for epoch in (0, 3):
        world, _ = world_at_epoch(SCALE, SEED, spec.with_installs(installs), epoch)
        islands = [n for n in sorted(world.specs) if world.specs[n].status == StatusScenario.ISLAND]
        installs += [(epoch, name) for name in islands[::7]]
    spec = spec.with_installs(installs)
    return [world_at_epoch(SCALE, SEED, spec, epoch) for epoch in (EPOCHS // 2, EPOCHS)], installs


def test_the_timeline_replays_every_kind_and_installs(timeline):
    worlds, installs = timeline
    _, history = worlds[-1]
    kinds = Counter(event.kind for events in history for event in events)
    assert set(kinds) == {*EVENT_KINDS, ADVANCE_EVENT}, kinds
    assert len({epoch for epoch, _ in installs}) == 2 and len(installs) > 4


def test_every_delegation_is_the_plan_rule_of_the_replayed_spec(timeline):
    worlds, _ = timeline
    for world, _ in worlds:
        for name, spec in world.specs.items():
            assert registry_rows(world, spec) == delegation(spec), name


def test_the_host_indexes_are_the_plan_rule_of_the_replayed_specs(timeline):
    worlds, _ = timeline
    for world, _ in worlds:
        serving, signalling = planned_indexes(world)
        assert {host: names for host, names in world.zones_by_host.items() if names} == serving
        held = {host: set(names) for host, names in world.signal_index.items() if names}
        assert held == signalling
        assert all(len(names) == len(set(names)) for names in world.signal_index.values())


def test_an_event_that_derives_the_same_rows_keeps_the_registry_memo():
    world = build_world(scale=SCALE, seed=SEED)
    kept = moved = 0
    for spec in list(world.specs.values()):
        for kind in ("publish_cds", "churn_ns"):
            if not applicable(world, world.specs[spec.name], kind):
                continue
            registry = world.registry_zones[spec.suffix]
            memo, rows = registry.answers, registry_rows(world, spec)
            new = apply_event(world, kind, spec.name)
            if registry_rows(world, new) == rows:
                assert registry.answers is memo, (kind, spec.name)
                kept += kind == "churn_ns"
            else:
                assert kind == "churn_ns" and new.ns_hosts != spec.ns_hosts
                assert registry.answers is not memo
                moved += 1
            break
    assert kept and moved


def served_signal_zone(world, host):
    server = world.operators[world.plan.host_owner[host]].server_for(host)
    return server.find_zone(Name.from_text(f"_signal.{host}"))


def test_an_install_keeps_the_hosts_served_signal_zone():
    pristine = build_world(scale=SCALE, seed=SEED)
    host, name = next(
        (host, name)
        for host, names in sorted(pristine.signal_index.items())
        for name in names
        if pristine.specs[name].status == StatusScenario.ISLAND
        and pristine.specs[name].signal == SignalScenario.OK
    )
    before = served_signal_zone(pristine, host)
    world = build_world(scale=SCALE, seed=SEED)
    bootstrap_zone(world, name)
    after = served_signal_zone(world, host)
    assert after is before

    profile = world.operators[world.plan.host_owner[host]].profile
    listed = [world.specs[n] for n in world.signal_index[host]]
    served, fresh = AuthoritativeServer("served"), AuthoritativeServer("fresh")
    served.add_zone(after)
    fresh.add_zone(materialize_signal_zone(host, profile, listed))
    apex = Name.from_text(f"_signal.{host}")
    queries = [(apex, RRType.SOA), (apex, RRType.DNSKEY)]
    for spec in listed:
        boot = Name.from_text(f"_dsboot.{spec.name}").concatenate(apex)
        queries += [(boot, RRType.CDS), (boot, RRType.CDNSKEY)]
    for qname, qtype in queries:
        query = make_query(qname, qtype, dnssec_ok=True).to_wire()
        assert served.answer_wire(query) == fresh.answer_wire(query), (qname, qtype)


def test_a_churned_zone_is_served_by_its_new_hosts_only():
    """A host's server reads its customer provider's apexes from the
    live host index: after NS churn the hosts that left refuse the apex
    and the hosts that joined answer for it."""
    world = build_world(scale=SCALE, seed=SEED)
    for spec in list(world.specs.values()):
        if not applicable(world, spec, "churn_ns"):
            continue
        new = apply_event(world, "churn_ns", spec.name)
        old_hosts, new_hosts = world.plan.hosts(spec)[0], world.plan.hosts(new)[0]
        left = [host for host in old_hosts if host not in new_hosts]
        joined = [host for host in new_hosts if host not in old_hosts]
        if left and joined:
            break
    else:
        pytest.fail("no churn moved a zone to other hosts")
    apex = Name.from_text(new.name)
    query = make_query(apex, RRType.SOA, dnssec_ok=True).to_wire()
    for hosts, rcode, zone in ((left, Rcode.REFUSED, None), (joined, Rcode.NOERROR, apex)):
        for host in hosts:
            server = world.operators[world.plan.host_owner[host]].server_for(host)
            found = server.find_zone(apex)
            assert (None if found is None else found.origin) == zone, host
            assert Message.from_wire(server.answer_wire(query)).rcode == rcode, host
