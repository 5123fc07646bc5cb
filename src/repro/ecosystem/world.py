"""World assembly and the ``build_world`` entry point.

A world is built in two halves.  The *plan*
(:class:`~repro.ecosystem.generator.WorldPlan`) is the seed-pure half —
zone specs, the operator address plan, and the signed root and
registry zones with every delegation in place — a function of ``(cells,
seed, adversarial)`` alone, so :func:`world_plan` keeps the last one in
a one-entry per-process memo.  The *assembly* runs on every build:
network, servers, behaviours, providers and quirks, with
:meth:`~repro.dns.zone.Zone.copy` copies of the planned zones
(copy-on-write, so a world's provisioning edits never reach the plan
or another world) and its own copies of the indexes the monitoring
plane mutates.  There is one code path: a cold build plans, then
assembles; a warm one only assembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.bootstrap import BootstrapEligibility, SignalOutcome
from repro.core.operators import OperatorDB
from repro.core.status import DnssecStatus
from repro.dns.name import Name
from repro.ecosystem import psl
from repro.ecosystem.allocator import scale_cells
from repro.ecosystem import generator as generator_module
from repro.ecosystem.generator import InfrastructureBuilder, WorldPlan
from repro.ecosystem.paper_targets import PaperTargets, build_cells
from repro.ecosystem.profiles import anycast_suffixes, build_operator_db, build_profiles
from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario, ZoneSpec
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
    specs: Dict[str, ZoneSpec]
    scan_list: List[Name]
    operator_db: OperatorDB
    anycast_ns_suffixes: List[Name]
    targets: PaperTargets
    profiles: Dict[str, object] = field(default_factory=dict)
    # suffix → registry Zone: this world's copies of the plan's, edited
    # live (provisioning installs DS here).
    registry_zones: Dict[str, object] = field(default_factory=dict)
    # The InfrastructureBuilder that assembled this world.  Its retained
    # spec-map / signal-index handles are captured by reference inside
    # the lazy zone providers, which is what lets the monitoring plane
    # (repro.ecosystem.mutate) evolve a freshly built world in place.
    builder: Optional[InfrastructureBuilder] = None

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
_PLAN: Dict[Tuple[Tuple[Cell, ...], int, bool], WorldPlan] = {}


def world_plan(cells: List[Cell], seed: int, adversarial: bool) -> WorldPlan:
    """The plan of a world of *cells* at *seed*, built on a miss.

    The memo holds one key: it is cleared before a miss is planned, so
    a process never holds the plans of two seeds.  A monitor rebuilds
    the same-seed world twice a week (the delta epoch, then the agent
    pass); each rebuild copies the planned registries instead of
    delegating and signing them again.
    """
    key = (tuple(cells), seed, adversarial)
    plan = _PLAN.get(key)
    if plan is None:
        _PLAN.clear()
        plan = _PLAN[key] = _plan_world(cells, seed, adversarial)
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
            plan.delegate_customer(spec)
            apex = Name.from_text(name)
            for host in dict.fromkeys(hosts):
                plan.specs_by_host.setdefault(host, {})[apex] = spec
            if spec.signal != SignalScenario.NONE and primary.publishes_signal:
                publish_hosts = list(dict.fromkeys(hosts))
                if spec.signal == SignalScenario.NS_COVERAGE and len(publish_hosts) > 1:
                    publish_hosts = publish_hosts[:1]
                for host in publish_hosts:
                    if plan.host_owner.get(host) != cell.operator:
                        continue  # the other operator does not publish
                    plan.signal_index.setdefault(host, []).append(spec)
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
    is this world's own: the network, servers, behaviours, providers
    and quirks, and copies of the signed registries and of every index
    the monitoring plane edits.
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
    profiles = plan.profiles
    network = SimulatedNetwork()
    builder = InfrastructureBuilder(network, plan)
    for name in profiles:
        builder.build_operator(name, dark=(name == "DarkHost"))
    builder.install_customer_provider(
        {host: dict(spec_map) for host, spec_map in plan.specs_by_host.items()}
    )
    builder.install_signal_providers(
        {host: list(entries) for host, entries in plan.signal_index.items()}
    )
    builder.install_quirks(plan.transient_names, plan.cut_names, plan.spoof_names)

    scan_list = sorted(
        (Name.from_text(name) for name in plan.specs), key=lambda n: n.canonical_key()
    )
    return World(
        scale=scale,
        seed=seed,
        network=network,
        root_ips=[generator_module.ROOT_IP],
        specs=dict(plan.specs),
        scan_list=scan_list,
        operator_db=build_operator_db(profiles=profiles),
        anycast_ns_suffixes=[Name.from_text(s) for s in anycast_suffixes(profiles)],
        targets=PaperTargets(scale=scale, cells=list(cells)),
        profiles=dict(profiles),
        registry_zones=builder.registry_zones,
        builder=builder,
    )
