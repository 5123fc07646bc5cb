"""One copy of each spec per world.

A world keeps each zone's spec in ``world.specs`` and nowhere else:
the servers' providers index zones by name and read the spec from that
table when asked, so an event is one write to it.  These tests replay a
scenario monitor world through three epochs — every event kind plus an
agent install — then walk everything the world holds (containers,
object attributes and the providers' closures) for a
:class:`~repro.ecosystem.spec.ZoneSpec` outside ``world.specs``, and ask
every NS host of every changed zone for the SOA serial the table holds.
"""

import enum
import types
from collections import Counter

import pytest

import repro.ecosystem.world as world_module
from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dns.types import RRType
from repro.ecosystem.mutate import EVENT_KINDS
from repro.ecosystem.spec import CdsScenario, StatusScenario, ZoneSpec
from repro.monitor import MonitorSpec
from repro.monitor.events import changed_zones
from repro.monitor.timeline import world_at_epoch
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.transitions import ADVANCE_EVENT

SCALE = 1e-6
SEED = 41
EPOCHS = 3
#: Objects the walk does not enter: none of them can hold a spec.
ATOMS = (str, bytes, int, float, type(None), type, types.ModuleType, enum.Enum)


@pytest.fixture(scope="module")
def replayed():
    spec = MonitorSpec(seed=7, scenarios=ScenarioSpec.default()).scaled(20.0)
    pristine, _ = world_at_epoch(SCALE, SEED, spec, 0)
    installed = next(
        name
        for name in sorted(pristine.specs)
        if pristine.specs[name].status == StatusScenario.ISLAND
        and pristine.specs[name].cds == CdsScenario.OK
    )
    spec = MonitorSpec(
        seed=spec.seed, rates=spec.rates, installs=((0, installed),), scenarios=spec.scenarios
    )
    world, history = world_at_epoch(SCALE, SEED, spec, EPOCHS)
    changed = {installed}.union(*(changed_zones(events) for events in history))
    return world, history, sorted(changed)


def specs_held(root, skip):
    """The path of every ZoneSpec reachable from *root*, not through
    the objects in *skip*."""
    seen = {id(obj) for obj in skip}
    stack = [(root, "world")]
    found = []
    while stack:
        obj, path = stack.pop()
        if id(obj) in seen or isinstance(obj, ATOMS):
            continue
        seen.add(id(obj))
        if isinstance(obj, ZoneSpec):
            found.append(path)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                label = key if isinstance(key, str) else type(key).__name__
                stack += [(key, f"{path}<key>"), (value, f"{path}[{label}]")]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += [(item, f"{path}[]") for item in obj]
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append((cell.cell_contents, f"{path}<{obj.__name__} closure>"))
                except ValueError:  # an empty cell
                    pass
            stack += [(value, f"{path}<default>") for value in obj.__defaults__ or ()]
        elif isinstance(obj, types.MethodType):
            stack += [(obj.__self__, f"{path}.__self__"), (obj.__func__, path)]
        else:
            stack += [(value, f"{path}.{name}") for name, value in vars_of(obj)]
    return found


def vars_of(obj):
    attrs = list(getattr(obj, "__dict__", {}).items())
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                attrs.append((slot, getattr(obj, slot)))
    return attrs


def test_the_replay_applied_every_event_kind(replayed):
    _, history, changed = replayed
    kinds = Counter(event.kind for events in history for event in events)
    assert set(kinds) == {*EVENT_KINDS, ADVANCE_EVENT}, kinds
    assert len(changed) > 20


def test_no_container_but_the_spec_table_holds_a_spec(replayed):
    world, _, changed = replayed
    for name in changed:  # the providers have built and cached zones
        ask_soa(world, name)
    # The seed's plan is shared by every same-seed world and never edited.
    assert specs_held(world, skip=[world.specs, *world_module._PLAN.values()]) == []


def test_the_plan_and_the_world_index_zones_by_name(replayed):
    world, _, _ = replayed
    for owner in (world, world.plan):
        names = [n for by_apex in owner.zones_by_host.values() for n in by_apex.values()]
        names += [n for signalling in owner.signal_index.values() for n in signalling]
        assert names and all(isinstance(n, str) and n in world.specs for n in names)


def ask_soa(world, zone):
    """{NS host: the SOA serial it serves for *zone*}."""
    serials = {}
    for host in world.specs[zone].ns_hosts:
        ip = world.operators[world.plan.host_owner[host]].host_ips[host][0]
        response = world.network.query(ip, make_query(zone, RRType.SOA))
        soa = response.get_rrset(response.answer, Name.from_text(zone), RRType.SOA)
        serials[host] = soa.rdatas[0].serial
    return serials


def test_every_ns_host_serves_the_serial_of_the_spec_table(replayed):
    world, _, changed = replayed
    for name in changed:
        spec = world.specs[name]
        assert spec.serial > 1, name
        assert ask_soa(world, name) == dict.fromkeys(spec.ns_hosts, spec.serial), name
