"""A validator's second opinion on the population the scanner classified.

Two independently written chain walkers — the scanner's stored RRsets
through :func:`repro.core.status.classify_status`, and
:class:`repro.resolver.validating.ValidatingResolver` walking from the
root trust anchor — must agree on every zone of a scenario world: every
status class, every rollover phase, every adversarial operator.  This is
the in-repo form of "what would a validating resolver see of the zones
we counted" (ROADMAP, *Independent oracles* (b)).

No cell is excluded.  A cell the two walkers legitimately see
differently goes into ``EXCLUDED`` by cell slug with a one-line reason,
never behind a blanket skip; the one disagreement found when this file
was written (a DS under ``co.uk``, signed by a zone the ``uk`` servers
also host) was a resolver bug and is fixed.
"""

import pytest

from repro.core.status import DnssecStatus, classify_status
from repro.dns.types import RRType
from repro.ecosystem.world import build_world
from repro.resolver.validating import SecurityStatus, ValidatingResolver
from repro.scenarios import ScenarioSpec
from repro.sched import EventLoop
from repro.wire import WireNetwork

VERDICT = {
    DnssecStatus.SECURE: SecurityStatus.SECURE,
    DnssecStatus.INVALID: SecurityStatus.BOGUS,
    DnssecStatus.UNSIGNED: SecurityStatus.INSECURE,
    DnssecStatus.ISLAND: SecurityStatus.INSECURE,  # RFC 4035 §5.2: signed, treated as unsigned
    DnssecStatus.UNRESOLVED: SecurityStatus.INDETERMINATE,
}
# cell slug → why the two walkers may differ there.
EXCLUDED: dict = {}


def cell_slug(zone) -> str:
    """``<cell slug>-<index>.<suffix>.`` → the cell slug."""
    return zone.to_text().split(".")[0].rsplit("-", 1)[0]


@pytest.fixture(scope="module")
def world():
    return build_world(scale=1e-6, seed=21, scenarios=ScenarioSpec.default())


@pytest.fixture(scope="module")
def classified(world):
    """zone → the scanner-side status class."""
    scanner = world.make_scanner()
    return {
        result.zone: classify_status(result)[0] for result in scanner.scan_iter(world.scan_list)
    }


@pytest.fixture(scope="module")
def verdicts(world):
    """zone → the resolver's verdict for ``<zone> SOA``, one walk at a time."""
    resolver = ValidatingResolver(world.network, world.root_ips)
    return {zone: resolver.resolve(zone, RRType.SOA).status for zone in world.scan_list}


def test_every_zone_gets_the_verdict_its_status_class_maps_onto(world, classified, verdicts):
    disagreements = [
        (zone.to_text(), classified[zone].value, verdicts[zone].value)
        for zone in world.scan_list
        if cell_slug(zone) not in EXCLUDED and verdicts[zone] != VERDICT[classified[zone]]
    ]
    assert not disagreements
    # Every class is really in the population, the scenario cells included.
    assert set(classified.values()) == set(DnssecStatus)
    slugs = {cell_slug(zone) for zone in world.scan_list}
    assert any(slug.startswith("spoofsign-") for slug in slugs)
    assert any(slug.endswith("-strandedksk") for slug in slugs)
    assert set(EXCLUDED) <= slugs  # an exclusion that matches nothing is stale


def test_the_walk_runs_under_the_one_loop(world, verdicts):
    """``resolve_steps`` is sans-IO: sixteen walks in flight on one
    event loop reach the verdicts the blocking facade reaches."""
    resolver = ValidatingResolver(world.network, world.root_ips)
    loop = EventLoop(world.network.clock, max_in_flight=16, network=world.network)
    overlapped = loop.run(
        world.scan_list, lambda zone, task: resolver.resolve_steps(zone, RRType.SOA)
    )
    assert loop.in_flight_peak == 16
    assert [v.status for v in overlapped] == [verdicts[zone] for zone in world.scan_list]


def test_the_walk_runs_over_real_sockets(world, classified, verdicts):
    """The same generator over ``transport='wire'``: one zone per status
    class, asked over loopback UDP/TCP."""
    sample = {status: zone for zone, status in classified.items()}
    with WireNetwork(world.network) as wire:
        resolver = ValidatingResolver(wire, world.root_ips)
        for status, zone in sample.items():
            assert resolver.resolve(zone, RRType.SOA).status == verdicts[zone], status
        assert wire.io_blocks >= len(sample)  # exchanges that waited on a socket
