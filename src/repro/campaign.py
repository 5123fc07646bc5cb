"""End-to-end measurement campaigns: build → scan → analyze → re-check.

This is the one-call orchestration used by the CLI, the examples, and
the benchmark harness.  It mirrors the paper's methodology, including
the re-check pass for zones whose signal errors might be transient
(§4.4: "following further checks, these were transient errors").

The campaign API is config-first: a frozen :class:`CampaignConfig`
carries every knob (scale, seed, store, workers, telemetry, …),
validates the mutually-exclusive combinations in one place, and
round-trips losslessly through the store manifest so a resume rebuilds
the exact configuration the campaign started with.
:func:`run_campaign` accepts a :class:`CampaignConfig` and nothing
else; the historical per-setting keyword form was retired when the
epoch-first monitoring API landed.

A campaign may also be one *epoch* of a continuous-monitoring timeline
(``epoch=...`` + ``monitor=...``): the world is rebuilt and replayed to
that simulated week, and for epochs past the baseline only the zones
the week's events touched are scanned — a delta campaign.  The
orchestration lives in :class:`repro.monitor.Monitor`; the config layer
here only knows how to reproduce the world and the changed subset.

Campaigns can run fully in memory (the default, results returned as a
list) or against a :mod:`repro.store` warehouse (``store_dir=...``):
results are then committed shard-by-shard as the scan proceeds, a
killed campaign resumes from its manifest via :func:`resume_campaign`,
and the report is computed by streaming the store back through the
pipeline — the same store-then-analyse discipline as the paper's
6.5 TiB archive.  With ``telemetry=True`` the campaign additionally
streams deterministic counters/spans/progress events into
``<store>/events/`` (see :mod:`repro.obs`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Union

from repro.chaos import ChaosConfig, RetryPolicy
from repro.core.bootstrap import INCORRECT_OUTCOMES, SignalOutcome, assess_zone
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.ecosystem.world import World, build_world
from repro.monitor.spec import MonitorSpec
from repro.scenarios.spec import ScenarioSpec
from repro.obs.events import events_path
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, as_telemetry
from repro.reports.table3 import apply_recheck
from repro.scanner.fleet import MachineReport
from repro.scanner.results import ZoneScanResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.events import Event


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines one measurement campaign.

    Frozen so a config can be hashed, reused, and recorded without
    surprise mutation.  ``validate()`` centralises the combination
    rules; ``manifest_config()`` / ``from_manifest()`` give a lossless
    round-trip through a store manifest (the manifest's own top-level
    seed/scale/num_shards/compress fields carry those four).
    """

    scale: float = 1 / 100_000
    seed: int = 1
    recheck: bool = True
    use_sources: bool = False
    store_dir: Optional[Path] = None
    checkpoint_every: Optional[int] = None
    num_shards: Optional[int] = None
    compress: bool = True
    stop_after: Optional[int] = None
    workers: Optional[int] = None
    # Concurrent in-flight zones per scan machine (repro.sched): None →
    # the legacy serial scan loop; N >= 1 overlaps up to N zones on a
    # deterministic event loop.  Composes with workers=M — every worker
    # process runs its own loop.  Reports are byte-identical either
    # way; only the simulated campaign duration drops.
    in_flight: Optional[int] = None
    # False (default) → zero-overhead NullTelemetry; True → a fresh
    # hub; or pass a configured Telemetry instance directly.
    telemetry: Union[bool, Telemetry] = False
    # Fault injection (repro.chaos): None → fault-free network.  A
    # chaotic campaign implies a retry policy (see effective_retry) so
    # the differential convergence invariant holds by construction.
    chaos: Optional[ChaosConfig] = None
    # Scanner/resolver retry policy; None → the legacy single-retry
    # behaviour (or the chaos default when chaos is enabled).
    retry: Optional[RetryPolicy] = None
    # Transport: "sim" moves messages through the in-memory fabric;
    # "wire" (repro.wire) hosts the authoritative fleet on real loopback
    # sockets and scans over asyncio UDP/TCP.  Wire mode promises the
    # same analysis tables at the same seed/scale — not the same event
    # streams or simulated durations (real I/O reorders the schedule).
    transport: str = "sim"
    # Paced replay for the wire engine: 0.0 (default) collapses every
    # simulated wait to "now" (run flat out); N > 0 plays simulated
    # seconds back at N× wall speed through the ClockBridge.  Wire-only:
    # the in-memory fabric has no wall clock to pace against.
    time_scale: float = 0.0
    # Monitoring-plane leaf: which simulated week this campaign observes
    # (0 = baseline full scan, >= 1 = delta over the changed subset) and
    # the seeded event stream that evolves the world between weeks.
    # Both or neither; requires a store; the orchestration loop lives in
    # repro.monitor.Monitor.
    epoch: Optional[int] = None
    parent_epoch: Optional[int] = None
    monitor: Optional[MonitorSpec] = None
    # Key-transition / adversarial-operator plane for *plain* campaigns
    # (repro.scenarios).  Epoch campaigns carry scenarios inside the
    # monitor spec instead, so every replaying participant agrees on
    # the scenario population; validate() rejects setting both.
    scenarios: Optional[ScenarioSpec] = None

    def __post_init__(self):
        if self.store_dir is not None and not isinstance(self.store_dir, Path):
            object.__setattr__(self, "store_dir", Path(self.store_dir))
        if self.epoch is not None and self.epoch > 0 and self.parent_epoch is None:
            object.__setattr__(self, "parent_epoch", self.epoch - 1)

    def effective_retry(self) -> Optional[RetryPolicy]:
        """The retry policy the campaign actually runs with: the
        configured one, or the chaos default when chaos is on (a chaotic
        scan without retries cannot converge)."""
        if self.retry is not None:
            return self.retry
        if self.chaos is not None and self.chaos.enabled:
            return RetryPolicy.default()
        return None

    def validate(self, world: Optional[World] = None) -> None:
        """Reject impossible combinations (one place, one message each)."""
        if self.in_flight is not None and self.in_flight < 1:
            raise ValueError(f"in_flight must be >= 1 (got {self.in_flight})")
        if self.chaos is not None and self.chaos.enabled and self.chaos.max_consecutive:
            retry = self.effective_retry()
            if retry is None or retry.attempts <= self.chaos.max_consecutive:
                raise ValueError(
                    "chaos convergence needs retry attempts > chaos.max_consecutive "
                    f"(got attempts={retry.attempts if retry else 1}, "
                    f"max_consecutive={self.chaos.max_consecutive})"
                )
        if self.workers is not None:
            if self.store_dir is None:
                raise ValueError("workers=N requires a store (store_dir=...)")
            if world is not None:
                raise ValueError(
                    "workers=N rebuilds the world per process; pass scale/seed, not world"
                )
            if self.stop_after is not None:
                raise ValueError("stop_after is not supported with workers=N")
        elif self.stop_after is not None and self.store_dir is None:
            raise ValueError("stop_after requires a store (store_dir=...)")
        if self.transport not in ("sim", "wire"):
            raise ValueError(f"transport must be 'sim' or 'wire' (got {self.transport!r})")
        if self.transport == "wire":
            if self.chaos is not None and self.chaos.enabled:
                raise ValueError(
                    "transport='wire' is incompatible with chaos: the fault plane "
                    "injects into the simulated fabric, not real sockets"
                )
            if self.workers is not None:
                raise ValueError(
                    "transport='wire' runs single-process (one shared socket "
                    "engine); combine with in_flight=N for concurrency"
                )
        if self.time_scale < 0:
            raise ValueError(f"time_scale must be >= 0 (got {self.time_scale})")
        if self.time_scale and self.transport != "wire":
            raise ValueError(
                "time_scale paces the wire engine's clock bridge; it requires "
                "transport='wire'"
            )
        if self.epoch is not None:
            if self.epoch < 0:
                raise ValueError(f"epoch must be >= 0 (got {self.epoch})")
            if self.monitor is None:
                raise ValueError("epoch=N requires a monitor spec (monitor=MonitorSpec(...))")
            if self.store_dir is None:
                raise ValueError("epoch campaigns require a store (store_dir=...)")
            if world is not None:
                raise ValueError(
                    "epoch campaigns replay the world from the monitor spec; "
                    "pass scale/seed, not world"
                )
            if self.recheck:
                raise ValueError(
                    "epoch campaigns require recheck=False: re-check outcomes are "
                    "not persisted in store records, so a rechecked delta chain "
                    "could not render identically to a from-scratch scan"
                )
            if self.use_sources:
                raise ValueError(
                    "epoch campaigns scan the change feed, not an acquired "
                    "source list (use_sources must be False)"
                )
            expected_parent = None if self.epoch == 0 else self.epoch - 1
            if self.parent_epoch != expected_parent:
                raise ValueError(
                    f"epoch {self.epoch} must chain onto parent_epoch "
                    f"{expected_parent} (got {self.parent_epoch})"
                )
        elif self.monitor is not None:
            raise ValueError("monitor=... requires epoch=N (which week to observe)")
        if self.scenarios is not None and self.monitor is not None:
            raise ValueError(
                "scenarios ride the monitor spec for epoch campaigns "
                "(use MonitorSpec(scenarios=...), not CampaignConfig.scenarios)"
            )

    # -- manifest round-trip ----------------------------------------------

    def manifest_config(self) -> Dict[str, Any]:
        """The ``config`` dict recorded in the store manifest.

        Keys with default values are omitted (except the two the
        analysis layer always reads), so the stored dict stays minimal
        and byte-stable across versions.
        """
        config: Dict[str, Any] = {
            "recheck": self.recheck,
            "use_sources": self.use_sources,
        }
        if self.workers is not None:
            config["workers"] = self.workers
        if self.in_flight is not None:
            config["in_flight"] = self.in_flight
        if self.checkpoint_every is not None:
            config["checkpoint_every"] = self.checkpoint_every
        if self.telemetry:
            config["telemetry"] = True
        if self.chaos is not None:
            config["chaos"] = self.chaos.to_dict()
        if self.retry is not None:
            config["retry"] = self.retry.to_dict()
        if self.transport != "sim":
            config["transport"] = self.transport
        if self.time_scale:
            config["time_scale"] = self.time_scale
        if self.monitor is not None:
            config["monitor"] = self.monitor.to_dict()
        if self.scenarios is not None:
            config["scenarios"] = self.scenarios.to_dict()
        return config

    @classmethod
    def from_manifest(cls, manifest, store_dir: Optional[Path] = None) -> "CampaignConfig":
        """Rebuild the config a stored campaign was started with."""
        config = manifest.config
        chaos = config.get("chaos")
        retry = config.get("retry")
        return cls(
            epoch=getattr(manifest, "epoch", None),
            parent_epoch=getattr(manifest, "parent_epoch", None),
            monitor=MonitorSpec.from_dict(config.get("monitor")),
            scenarios=ScenarioSpec.from_dict(config.get("scenarios")),
            scale=manifest.scale,
            seed=manifest.seed,
            recheck=bool(config.get("recheck", True)),
            use_sources=bool(config.get("use_sources", False)),
            store_dir=Path(store_dir) if store_dir is not None else None,
            checkpoint_every=config.get("checkpoint_every"),
            num_shards=manifest.num_shards,
            compress=manifest.compress,
            workers=config.get("workers"),
            in_flight=config.get("in_flight"),
            telemetry=bool(config.get("telemetry", False)),
            chaos=ChaosConfig.from_dict(chaos) if chaos is not None else None,
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
            transport=config.get("transport", "sim"),
            time_scale=float(config.get("time_scale", 0.0)),
        )


_CONFIG_FIELDS = frozenset(f.name for f in fields(CampaignConfig))


@dataclass
class CampaignResult:
    """Everything a campaign produces."""

    world: World
    results: List[ZoneScanResult]
    report: AnalysisReport
    rechecked: Dict[str, SignalOutcome]
    # Set for store-backed campaigns; ``results`` is then empty — the
    # records live in the store and stream back via StoreReader.
    store_dir: Optional[Path] = None
    # Set for parallel campaigns: one entry per worker process, with
    # that machine's zone/query counts and simulated clock.
    machines: Optional[List["MachineReport"]] = None
    # Set when the campaign ran with telemetry enabled: the (closed)
    # hub, with all counters and in-memory events still attached.
    telemetry: Optional[Telemetry] = None
    # Set for epoch campaigns: the event batch the world replay applied
    # to reach this epoch (empty at the baseline).  The monitor records
    # it from here, so an epoch costs one world build, not two.
    events: Optional[List["Event"]] = None

    @property
    def simulated_duration(self) -> float:
        """Seconds of simulated wall-clock the scan consumed (rate
        limits included) — the analogue of the paper's month-long scan.

        For a parallel campaign this is the slowest machine's clock (the
        fleet model of App. D); otherwise the shared world clock."""
        if self.machines:
            return max(machine.duration for machine in self.machines)
        return self.world.network.clock.now()


def _scan_list(world: World, use_sources: bool):
    if use_sources:
        from repro.scanner.sources import compile_scan_list

        return compile_scan_list(world).names
    return world.scan_list


def _recheck_pass(
    scanner,
    report: AnalysisReport,
    double_check: FrozenSet[str] = frozenset(),
    telemetry=NULL_TELEMETRY,
) -> Dict[str, SignalOutcome]:
    """The §4.4 re-check: rescan zones with incorrect signal outcomes.

    *double_check* names zones whose stored result came from a previous
    process (a resumed campaign).  Their first, transiently-failing
    observation was consumed in *that* process's world; the resumed
    world is fresh, so these zones get one extra rescan — the same
    observation budget (initial scan + re-check) every other zone has —
    which keeps a resumed report identical to an uninterrupted one.
    """
    with telemetry.span("recheck") as span:
        suspicious = [
            assessment.zone
            for assessment in report.assessments
            if assessment.signal_outcome in INCORRECT_OUTCOMES
        ]
        updates: Dict[str, SignalOutcome] = {}
        for zone in suspicious:
            rescan = scanner.scan_zone(zone)
            outcome = assess_zone(rescan).signal_outcome
            if outcome in INCORRECT_OUTCOMES and zone in double_check:
                rescan = scanner.scan_zone(zone)
                outcome = assess_zone(rescan).signal_outcome
            updates[zone] = outcome
        apply_recheck(report, updates)
        resolved = {
            zone: outcome
            for zone, outcome in updates.items()
            if outcome not in INCORRECT_OUTCOMES
        }
        span["suspicious"] = len(suspicious)
        span["resolved"] = len(resolved)
    return resolved


def run_campaign(config: Optional[CampaignConfig] = None, /, world=None, **legacy) -> CampaignResult:
    """Run one full measurement campaign.

    Takes a :class:`CampaignConfig` and nothing else::

        run_campaign(CampaignConfig(scale=1e-4, seed=7, telemetry=True))

    A pre-built *world* may accompany the config for sequential
    campaigns (parallel and epoch campaigns rebuild worlds per
    process).  The historical per-setting keyword form is gone;
    stray keywords raise a :class:`TypeError` naming the
    :class:`CampaignConfig` field to use instead.

    With ``recheck=True``, zones classified with incorrect signal zones
    are scanned a second time and the report updated with the outcome —
    transient server failures (deSEC's bogus-signature episodes) resolve
    to CORRECT, persistent misconfigurations stay put.

    With ``use_sources=True`` the scan list is *acquired* the way the
    paper acquired it (§3: CZDS dumps, AXFR, private arrangements,
    CT-log sampling) instead of taken from the generator's ground truth
    — CT-log-only ccTLDs are then scanned partially.

    With ``store_dir`` set, every result is persisted to a sharded
    campaign store as it is scanned (checkpointed every
    *checkpoint_every* records) instead of being kept in memory, and
    the report is computed by streaming the store.  ``stop_after``
    aborts the scan after N zones with the store left in-progress —
    the programmatic stand-in for a crash; finish it later with
    :func:`resume_campaign`.

    With ``workers=N`` (N >= 1, requires ``store_dir``) the scan is
    executed by N independent processes, each owning a shard-bucket
    range of the zone list — see :mod:`repro.parallel`.  The resulting
    report is byte-identical to the sequential one at the same
    seed/scale.

    With ``telemetry=True`` (or a :class:`repro.obs.Telemetry`
    instance) the campaign emits deterministic counters, simulated-clock
    spans, and progress events — streamed into ``<store>/events/`` for
    store-backed campaigns, kept on ``result.telemetry.events``
    otherwise.
    """
    if legacy:
        known = sorted(set(legacy) & _CONFIG_FIELDS)
        if known:
            hints = ", ".join(f"CampaignConfig({name}=...)" for name in known)
            raise TypeError(
                "run_campaign() no longer accepts individual settings as "
                f"keyword arguments; pass {hints} instead"
            )
        raise TypeError(
            f"run_campaign() got unexpected keyword arguments: {', '.join(sorted(legacy))}"
        )
    if config is None:
        config = CampaignConfig()
    elif not isinstance(config, CampaignConfig):
        raise TypeError(
            "run_campaign() takes a CampaignConfig as its only positional argument"
        )
    config.validate(world=world)
    return _run_validated(config, world)


def _replay_epoch(config: CampaignConfig):
    """The replayed world for ``config.epoch``, the changed-zone scan
    subset for delta epochs (None at epoch 0: scan everything), and the
    epoch's applied event batch.

    Events are applied to a freshly rebuilt world *before* any query is
    served, so every materialisation cache is still cold — exactly the
    state a from-scratch scan of the same week would see.
    """
    from repro.monitor.timeline import scan_world

    return scan_world(config.scale, config.seed, monitor=config.monitor, epoch=config.epoch)


def _run_validated(config: CampaignConfig, world: Optional[World]) -> CampaignResult:
    if config.workers is not None:
        from repro.parallel import run_parallel_campaign

        return run_parallel_campaign(
            store_dir=config.store_dir,
            scale=config.scale,
            seed=config.seed,
            workers=config.workers,
            recheck=config.recheck,
            use_sources=config.use_sources,
            num_shards=config.num_shards,
            compress=config.compress,
            checkpoint_every=config.checkpoint_every,
            telemetry=config.telemetry,
            chaos=config.chaos,
            retry=config.effective_retry(),
            in_flight=config.in_flight,
            manifest_config=config.manifest_config(),
            epoch=config.epoch,
            parent_epoch=config.parent_epoch,
            monitor=config.monitor,
            scenarios=config.scenarios,
        )

    scan_override = events = None
    if config.epoch is not None:
        world, scan_override, events = _replay_epoch(config)
    telemetry = as_telemetry(config.telemetry)
    if world is None:
        world = build_world(scale=config.scale, seed=config.seed, scenarios=config.scenarios)
    if config.chaos is not None and config.chaos.enabled:
        world.network.install_chaos(config.chaos)
    # Campaigns never mutate zones mid-run, so repeated identical queries
    # can be served from cached response wires.
    world.network.enable_response_cache()
    telemetry.bind_clock(world.network.clock)
    wire_network = _wire_network(config, world)
    scanner = world.make_scanner(
        telemetry=telemetry,
        retry=config.effective_retry(),
        in_flight=config.in_flight,
        network=wire_network,
    )
    try:
        return _run_scan(
            config, world, scanner, telemetry, scan_override=scan_override, events=events
        )
    finally:
        if wire_network is not None:
            wire_network.close()


def _wire_network(config: CampaignConfig, world: World):
    """Stand up the live socket fleet for ``transport='wire'`` (None
    for the simulated fabric)."""
    if config.transport != "wire":
        return None
    from repro.wire import WireNetwork

    return WireNetwork(world.network, time_scale=config.time_scale).start()


def _run_scan(
    config: CampaignConfig, world: World, scanner, telemetry, scan_override=None, events=None
) -> CampaignResult:
    # *scan_override* narrows the campaign to an explicit zone list —
    # the delta-epoch change feed; *events* is the batch behind it.
    scan_list = scan_override if scan_override is not None else _scan_list(world, config.use_sources)

    if config.store_dir is None:
        results = []
        for result in scanner.scan_iter(scan_list):
            results.append(result)
            if telemetry.enabled:
                telemetry.maybe_progress(len(results), len(scan_list))
        pipeline = AnalysisPipeline(world.operator_db)
        report = pipeline.analyze(results)
        rechecked: Dict[str, SignalOutcome] = {}
        if config.recheck:
            rechecked = _recheck_pass(scanner, report, telemetry=telemetry)
        return CampaignResult(
            world=world,
            results=results,
            report=report,
            rechecked=rechecked,
            telemetry=_seal(telemetry, scanner),
        )

    # -- store-backed campaign: persist-as-you-scan ------------------------
    from repro.store import DEFAULT_CHECKPOINT_EVERY, DEFAULT_NUM_SHARDS, CampaignStore
    from repro.store.reader import StoreReader

    store = CampaignStore.create(
        config.store_dir,
        seed=world.seed,
        scale=world.scale,
        num_shards=config.num_shards or DEFAULT_NUM_SHARDS,
        compress=config.compress,
        zones_total=len(scan_list),
        config=config.manifest_config(),
        checkpoint_every=config.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
        telemetry=telemetry,
        epoch=config.epoch,
        parent_epoch=config.parent_epoch,
    )
    if telemetry.enabled:
        telemetry.open_sink(events_path(store.root))
    interrupted = False
    scanned = 0
    with store:
        for result in scanner.scan_iter(scan_list, sink=store.append):
            scanned += 1
            if telemetry.enabled:
                telemetry.maybe_progress(scanned, len(scan_list))
            if config.stop_after is not None and scanned >= config.stop_after:
                interrupted = True
                break
    if interrupted:
        # The context manager checkpointed whatever was buffered; the
        # manifest stays in-progress, exactly like a crash after the
        # last checkpoint.
        reader = StoreReader(store.root)
        report = AnalysisPipeline(world.operator_db).analyze(reader.iter_results())
        return CampaignResult(
            world=world,
            results=[],
            report=report,
            rechecked={},
            store_dir=store.root,
            telemetry=_seal(telemetry, scanner),
            events=events,
        )
    store.complete()

    reader = StoreReader(store.root)
    report = reader.reanalyze(world.operator_db)
    rechecked = {}
    if config.recheck:
        rechecked = _recheck_pass(scanner, report, telemetry=telemetry)
    return CampaignResult(
        world=world,
        results=[],
        report=report,
        rechecked=rechecked,
        store_dir=store.root,
        telemetry=_seal(telemetry, scanner),
        events=events,
    )


def _seal(telemetry, scanner) -> Optional[Telemetry]:
    """Final counter snapshot + flush + close; None when disabled."""
    if not telemetry.enabled:
        return None
    telemetry.capture_scanner(scanner)
    telemetry.flush_counters()
    telemetry.close()
    return telemetry


def resume_campaign(
    store_dir: Path,
    world: Optional[World] = None,
    checkpoint_every: Optional[int] = None,
    workers: Optional[int] = None,
    telemetry=None,
    chaos: Optional[ChaosConfig] = None,
    retry: Optional[RetryPolicy] = None,
    in_flight: Optional[int] = None,
) -> CampaignResult:
    """Finish an interrupted store-backed campaign.

    Opens the manifest, rebuilds the world at the recorded seed/scale,
    skips every zone already persisted, scans only the remainder
    (checkpointing as it goes), marks the store complete, and produces
    the report by streaming the whole store — byte-identical to the
    report of an uninterrupted campaign at the same seed/scale.

    Campaigns started with ``workers=N`` are resumed in parallel
    automatically (the worker count is recorded in the manifest); pass
    ``workers`` explicitly to repartition the remainder across a
    different number of processes, or to parallelise the remainder of a
    campaign that began sequentially.  Any subset of crashed workers is
    tolerated — completed worker stores are skipped wholesale.

    Campaigns started with telemetry resume with telemetry: the flag
    round-trips through the manifest (:meth:`CampaignConfig.from_manifest`),
    and the resumed process appends to the same event stream.  Likewise
    a chaotic campaign resumes chaotic — the :class:`ChaosConfig` and
    :class:`RetryPolicy` round-trip losslessly through the manifest, so
    the resumed remainder sees the same per-query fault stream the
    uninterrupted campaign would have.
    """
    from repro.store import DEFAULT_CHECKPOINT_EVERY, CampaignStore, StoreError

    root = Path(store_dir)
    # The store is opened exactly once; both the parallel and the
    # sequential route work from this one loaded manifest.
    store = CampaignStore.open(
        root, checkpoint_every=checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    )
    stored = CampaignConfig.from_manifest(store.manifest, store_dir=root)
    if chaos is not None or retry is not None or in_flight is not None:
        # Explicit overrides (the CLI's --chaos/--retries/--in-flight on
        # resume) replace the recorded model for the rest of the scan.
        from dataclasses import replace as _replace

        stored = _replace(
            stored,
            chaos=chaos if chaos is not None else stored.chaos,
            retry=retry if retry is not None else stored.retry,
            in_flight=in_flight if in_flight is not None else stored.in_flight,
        )
        stored.validate()

    if workers is not None or stored.workers:
        if world is not None:
            raise ValueError(
                "parallel resume rebuilds the world per process; do not pass world"
            )
        from repro.parallel import resume_parallel_campaign

        return resume_parallel_campaign(
            root,
            workers=workers,
            checkpoint_every=checkpoint_every,
            telemetry=telemetry,
            store=store,
            chaos=chaos,
            retry=retry,
            in_flight=in_flight,
        )

    from repro.store.reader import StoreReader

    manifest = store.manifest
    hub = as_telemetry(telemetry if telemetry is not None else stored.telemetry)
    store.telemetry = hub
    if hub.enabled:
        hub.open_sink(events_path(root))
    scan_override = events = None
    if stored.epoch is not None:
        # A delta campaign resumes into the same epoch: replay the world
        # to the recorded week and re-derive the changed subset (the
        # event stream is a pure function of the stored monitor spec).
        if world is not None:
            raise ValueError(
                "epoch campaigns replay the world from the stored monitor "
                "spec; do not pass world"
            )
        world, scan_override, events = _replay_epoch(stored)
    elif world is None:
        world = build_world(
            scale=manifest.scale, seed=manifest.seed, scenarios=stored.scenarios
        )
    elif (world.seed, world.scale) != (manifest.seed, manifest.scale):
        raise StoreError(
            f"world (seed={world.seed}, scale={world.scale:g}) does not match "
            f"the store's campaign (seed={manifest.seed}, scale={manifest.scale:g})"
        )
    if stored.chaos is not None and stored.chaos.enabled:
        world.network.install_chaos(stored.chaos)
    world.network.enable_response_cache()
    hub.bind_clock(world.network.clock)
    wire_network = _wire_network(stored, world)
    scanner = world.make_scanner(
        telemetry=hub,
        retry=stored.effective_retry(),
        in_flight=stored.in_flight,
        network=wire_network,
    )
    scan_list = (
        scan_override if scan_override is not None else _scan_list(world, stored.use_sources)
    )

    try:
        done = frozenset(store.completed_zones())
        if not manifest.complete:
            scanned = 0
            remaining = len(scan_list) - len(done)
            with store:
                for _ in scanner.scan_iter(scan_list, skip=done, sink=store.append):
                    scanned += 1
                    if hub.enabled:
                        hub.maybe_progress(scanned, remaining)
            store.complete()

        reader = StoreReader(store.root)
        report = reader.reanalyze(world.operator_db)
        rechecked: Dict[str, SignalOutcome] = {}
        if stored.recheck:
            rechecked = _recheck_pass(scanner, report, double_check=done, telemetry=hub)
        return CampaignResult(
            world=world,
            results=[],
            report=report,
            rechecked=rechecked,
            store_dir=store.root,
            telemetry=_seal(hub, scanner),
            events=events,
        )
    finally:
        if wire_network is not None:
            wire_network.close()
