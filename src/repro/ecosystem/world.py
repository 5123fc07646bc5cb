"""World assembly and the ``build_world`` entry point.

A world is built in two halves.  The *plan*
(:class:`~repro.ecosystem.generator.WorldPlan`) is the seed-pure half —
zone specs, the operator address plan, and the signed root and
registry zones with every delegation in place — a function of ``(cells,
seed, adversarial)`` alone, so :func:`world_plan` keeps the last one in
a one-entry per-process memo.  The *assembly* runs on every build: a
:class:`World` gets :meth:`~repro.dns.zone.Zone.copy` copies of the
planned zones (copy-on-write, so a world's provisioning edits never
reach the plan or another world) and its own copies of the spec table
and the two name-only indexes the monitoring plane edits, then the
generator's assembly steps start its network, servers, behaviours,
providers and quirks over those dicts.  ``world.specs`` is the one
place a world keeps a spec: the providers read it when asked.  There
is one code path: a cold build plans, then assembles; a warm one only
assembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.core.bootstrap import BootstrapEligibility, SignalOutcome
from repro.core.operators import OperatorDB
from repro.core.status import DnssecStatus
from repro.dns.name import Name
from repro.dns.zone import Zone
from repro.ecosystem import psl
from repro.ecosystem.allocator import scale_cells
from repro.ecosystem import generator as generator_module
from repro.ecosystem.generator import OperatorRuntime, WorldPlan
from repro.ecosystem.paper_targets import PaperTargets, build_cells
from repro.ecosystem.profiles import (
    OperatorProfile,
    anycast_suffixes,
    build_operator_db,
    build_profiles,
)
from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario, ZoneSpec
from repro.memo import table
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.transitions import (
    KIND_DANGLING_DS,
    KIND_STRANDED_KSK,
    PHASE_FOR_KIND,
    scenario_cells,
)
from repro.server.network import SimulatedNetwork

# Zones in the input list that never resolved (the paper excludes them
# before computing percentages); our documented assumption at paper scale.
UNRESOLVED_PAPER_COUNT = 2_000_000

AB_PUBLISHING_OPERATORS = ("Cloudflare", "deSEC", "Glauca", "indie")


@dataclass
class World:
    """A fully built synthetic DNS ecosystem."""

    scale: float
    seed: int
    network: SimulatedNetwork
    root_ips: List[str]
    scan_list: List[Name]
    operator_db: OperatorDB
    anycast_ns_suffixes: List[Name]
    targets: PaperTargets
    plan: WorldPlan
    # What replay and provisioning edit: this world's copies of the
    # plan's root and registry zones (provisioning installs DS here),
    # its spec table (zone name → spec, the only copy of each), and
    # two name-only indexes the providers read — host → {apex → zone
    # name} and host → [names of the zones signalling under it].
    root_zone: Zone
    registry_zones: Dict[str, Zone]
    specs: Dict[str, ZoneSpec]
    zones_by_host: Dict[str, Dict[Name, str]]
    signal_index: Dict[str, List[str]]
    operators: Dict[str, OperatorRuntime] = field(default_factory=dict)

    @property
    def profiles(self) -> Dict[str, OperatorProfile]:
        return self.plan.profiles

    @property
    def zone_count(self) -> int:
        return len(self.scan_list)

    def scanner_config(self):
        """A ScannerConfig wired for this world's anycast pools."""
        from repro.scanner.yodns import ScannerConfig

        return ScannerConfig(anycast_ns_suffixes=list(self.anycast_ns_suffixes))

    def make_scanner(self, telemetry=None, retry=None, in_flight=1, network=None):
        """Build a scanner for this world.

        *network* overrides the transport the scanner queries through
        (default: this world's simulated fabric; pass a
        :class:`repro.wire.WireNetwork` to scan over real sockets).
        """
        from dataclasses import replace

        from repro.scanner.yodns import Scanner

        config = replace(self.scanner_config(), in_flight=in_flight)
        if retry is not None:
            config = replace(config, retry_policy=retry)
        return Scanner(
            network if network is not None else self.network,
            self.root_ips,
            config,
            telemetry=telemetry,
        )


# Operators whose NS hostnames are not in the operator database (the
# pipeline attributes their zones to "unknown", or to the known partner
# in a multi-operator setup).
UNKNOWN_PROFILE_OPERATORS = frozenset({"indie", "DarkHost", "Phantom"})


def attributed_operator(cell: Cell) -> str:
    """The operator name the pipeline will attribute a cell's zones to
    for the portfolio statistics (Tables 1 and 2).

    Multi-operator setups are ambiguous and tagged unknown, mirroring
    the paper's §3.1 methodology; so are zones whose NS hostnames match
    no suffix rule.
    """
    if cell.secondary_operator is not None:
        return "unknown"
    if cell.operator in UNKNOWN_PROFILE_OPERATORS:
        return "unknown"
    return cell.operator


def expected_classification(
    cell: Cell, after_recheck: bool = False
) -> Tuple[DnssecStatus, BootstrapEligibility, SignalOutcome]:
    """The classification the pipeline *should* produce for a cell's
    zones — the generator's ground truth, used by tests and reports."""
    if cell.rollover_kind in (KIND_STRANDED_KSK, KIND_DANGLING_DS):
        # Rollover mishaps: the declared status is what the operator
        # *intended*; what a scanner finds is a broken chain.
        return (
            DnssecStatus.INVALID,
            BootstrapEligibility.INVALID_DNSSEC,
            SignalOutcome.NO_SIGNAL,
        )
    status_map = {
        StatusScenario.UNSIGNED: DnssecStatus.UNSIGNED,
        StatusScenario.SECURE: DnssecStatus.SECURE,
        StatusScenario.INVALID_ERRANT_DS: DnssecStatus.INVALID,
        StatusScenario.INVALID_BADSIG: DnssecStatus.INVALID,
        StatusScenario.ISLAND: DnssecStatus.ISLAND,
        StatusScenario.ISLAND_BADSIG: DnssecStatus.ISLAND,
        StatusScenario.UNRESOLVED: DnssecStatus.UNRESOLVED,
    }
    status = status_map[cell.status]

    if status == DnssecStatus.UNRESOLVED:
        return status, BootstrapEligibility.UNRESOLVED, SignalOutcome.NO_SIGNAL
    if status == DnssecStatus.UNSIGNED:
        eligibility = BootstrapEligibility.UNSIGNED
    elif status == DnssecStatus.SECURE:
        eligibility = BootstrapEligibility.ALREADY_SECURED
    elif status == DnssecStatus.INVALID:
        eligibility = BootstrapEligibility.INVALID_DNSSEC
    elif cell.status == StatusScenario.ISLAND_BADSIG:
        eligibility = BootstrapEligibility.ISLAND_CDS_INVALID
    elif cell.cds == CdsScenario.NONE:
        eligibility = BootstrapEligibility.ISLAND_NO_CDS
    elif cell.cds == CdsScenario.DELETE:
        eligibility = BootstrapEligibility.ISLAND_CDS_DELETE
    elif cell.cds in (
        CdsScenario.MISMATCH,
        CdsScenario.BADSIG,
        CdsScenario.INCONSISTENT,
        CdsScenario.DOWNGRADE,
    ):
        eligibility = BootstrapEligibility.ISLAND_CDS_INVALID
    else:
        eligibility = BootstrapEligibility.BOOTSTRAPPABLE

    if cell.signal == SignalScenario.NONE:
        return status, eligibility, SignalOutcome.NO_SIGNAL
    if status == DnssecStatus.SECURE:
        outcome = SignalOutcome.ALREADY_SECURED
    elif cell.cds == CdsScenario.DELETE:
        outcome = SignalOutcome.CANNOT_DELETE_REQUEST
    elif status == DnssecStatus.UNSIGNED:
        outcome = SignalOutcome.CANNOT_ZONE_UNSIGNED
    elif cell.status == StatusScenario.ISLAND_BADSIG:
        outcome = SignalOutcome.CANNOT_ZONE_INVALID
    elif cell.cds == CdsScenario.INCONSISTENT:
        outcome = SignalOutcome.CANNOT_CDS_INCONSISTENT
    elif cell.cds in (CdsScenario.BADSIG, CdsScenario.MISMATCH, CdsScenario.DOWNGRADE):
        outcome = SignalOutcome.CANNOT_CDS_SIG_INVALID
    elif cell.signal == SignalScenario.ZONE_CUT:
        outcome = SignalOutcome.INCORRECT_ZONE_CUT
    elif cell.signal == SignalScenario.NS_COVERAGE:
        outcome = SignalOutcome.INCORRECT_NS_COVERAGE
    elif cell.signal in (
        SignalScenario.SIG_EXPIRED,
        SignalScenario.SPOOFED,
        SignalScenario.UNSIGNED_CHAIN,
    ):
        outcome = SignalOutcome.INCORRECT_SIGNAL_DNSSEC
    elif cell.signal == SignalScenario.SIG_TRANSIENT:
        outcome = (
            SignalOutcome.CORRECT if after_recheck else SignalOutcome.INCORRECT_SIGNAL_DNSSEC
        )
    else:
        outcome = SignalOutcome.CORRECT
    return status, eligibility, outcome


#: The one-entry plan memo: ``(cells, seed, adversarial)`` → plan.
_PLAN = table(1)


def world_plan(cells: List[Cell], seed: int, adversarial: bool) -> WorldPlan:
    """The plan of a world of *cells* at *seed*, built on a miss.

    A monitor rebuilds the same-seed world twice a week (the delta
    epoch, then the agent pass); each rebuild copies the planned
    registries instead of delegating and signing them again.
    """
    key = (tuple(cells), seed, adversarial)
    plan = _PLAN.get(key)
    if plan is None:
        # Drop the old plan before planning, so a process never holds
        # the plans of two seeds at once (peak RSS).
        _PLAN.make_room()
        plan = _PLAN.put(key, _plan_world(cells, seed, adversarial))
    return plan


def _plan_world(cells: List[Cell], seed: int, adversarial: bool) -> WorldPlan:
    plan = WorldPlan(profiles=build_profiles(adversarial=adversarial))
    plan.build_registries()
    plan.plan_operators()
    profiles = plan.profiles
    index = seed * 1_000_003  # offsets suffix/host assignment per seed
    for cell in cells:
        primary = profiles[cell.operator]
        secondary = profiles.get(cell.secondary_operator) if cell.secondary_operator else None
        for _ in range(cell.count):
            index += 1
            suffix = psl.suffix_for_index(index)
            if primary.preferred_suffixes:
                # §6: operators with TLD-bound incentives (Swiss hosters)
                # register most customer zones under those suffixes.
                if (index * 2654435761) % 100 < primary.preferred_share * 100:
                    preferred = primary.preferred_suffixes
                    suffix = preferred[index % len(preferred)]
            label = f"{cell.slug()}-{index % 10_000_000:07d}"
            name = f"{label}.{suffix}"
            if secondary is not None:
                hosts = (primary.host_pair(index)[0], secondary.host_pair(index)[0])
            else:
                hosts = primary.host_pair(index)
            spec = ZoneSpec(
                name=name,
                suffix=suffix,
                operator=cell.operator,
                status=cell.status,
                cds=cell.cds,
                signal=cell.signal,
                ns_hosts=hosts,
                secondary_operator=cell.secondary_operator,
                legacy_ns=cell.legacy_ns,
                denial_mode=primary.denial_mode,
                rollover_kind=cell.rollover_kind,
                rollover_phase=PHASE_FOR_KIND.get(cell.rollover_kind, ""),
            )
            plan.specs[name] = spec
            registry = plan.registry_zones[suffix]
            for rdata in chain(*generator_module.delegation(spec)):
                registry.add(name, 3600, rdata)
            apex = Name.from_text(name)
            serving, signalling = plan.hosts(spec)
            for host in serving:
                plan.zones_by_host.setdefault(host, {})[apex] = name
            for host in signalling:
                plan.signal_index.setdefault(host, []).append(name)
                boot = Name.from_text(f"_dsboot.{name}._signal.{host}")
                if spec.signal == SignalScenario.SIG_TRANSIENT:
                    plan.transient_names.setdefault(cell.operator, []).append(boot)
                if spec.signal == SignalScenario.ZONE_CUT:
                    plan.cut_names.setdefault(cell.operator, []).append(boot.parent())
                if spec.signal == SignalScenario.SPOOFED:
                    plan.spoof_names.setdefault(cell.operator, []).append(boot)
    plan.sign_registries()
    return plan


def build_world(
    scale: float = 1 / 10_000,
    seed: int = 1,
    cells_override: Optional[List[Cell]] = None,
    scenarios: Optional[ScenarioSpec] = None,
) -> World:
    """Build a complete synthetic DNS ecosystem at *scale*.

    ``scale=1/10_000`` yields 28 760 customer zones — enough to
    reproduce every percentage in the paper to quota-rounding accuracy
    while remaining scannable in well under a minute of CPU.
    *cells_override* substitutes a different paper-scale population
    (used by the longitudinal snapshots in
    :mod:`repro.ecosystem.evolution`).  *scenarios* appends the
    key-transition and adversarial cells of :mod:`repro.scenarios`
    after the scaled paper population, leaving the honest zones' labels
    and host assignments untouched.

    The seed-pure part comes from :func:`world_plan`; what is built here
    is this world's own: copies of the signed root and registries, of
    the spec table and of the two indexes the monitoring plane edits,
    then the network, servers, behaviours, providers and quirks.
    """
    cells = scale_cells(cells_override if cells_override is not None else build_cells(), scale)
    cells = cells + [
        Cell(
            operator="DarkHost",
            status=StatusScenario.UNRESOLVED,
            cds=CdsScenario.NONE,
            signal=SignalScenario.NONE,
            count=max(2, round(UNRESOLVED_PAPER_COUNT * scale)),
        )
    ]
    adversarial = scenarios is not None and scenarios.enabled
    if adversarial:
        cells = cells + scenario_cells(scenarios)

    plan = world_plan(cells, seed, adversarial)
    world = World(
        scale=scale,
        seed=seed,
        network=SimulatedNetwork(),
        root_ips=[generator_module.ROOT_IP],
        scan_list=sorted(
            (Name.from_text(name) for name in plan.specs), key=lambda n: n.canonical_key()
        ),
        operator_db=build_operator_db(profiles=plan.profiles),
        anycast_ns_suffixes=[Name.from_text(s) for s in anycast_suffixes(plan.profiles)],
        targets=PaperTargets(scale=scale, cells=list(cells)),
        plan=plan,
        root_zone=plan.root_zone.copy(),
        registry_zones={name: zone.copy() for name, zone in plan.registry_zones.items()},
        specs=dict(plan.specs),
        zones_by_host={host: dict(names) for host, names in plan.zones_by_host.items()},
        signal_index={host: list(names) for host, names in plan.signal_index.items()},
    )
    generator_module.serve_registries(world)
    for name in plan.profiles:
        generator_module.build_operator(world, name, dark=(name == "DarkHost"))
    generator_module.install_customer_providers(world)
    generator_module.install_signal_providers(world)
    generator_module.install_quirks(world)
    return world
