"""End-to-end measurement campaigns: build → scan → analyze → re-check.

This is the one-call orchestration used by the CLI, the examples, and
the benchmark harness.  It mirrors the paper's methodology, including
the re-check pass for zones whose signal errors might be transient
(§4.4: "following further checks, these were transient errors").

A frozen :class:`CampaignConfig` is the only thing that travels: it
carries every setting, validates the combinations in one place, and
round-trips losslessly through the store manifest.  One executor
(:func:`_execute`) runs it: *open* the telemetry hub and the store,
*scan*, then *close* — re-analyse what was scanned, :func:`recheck_pass`,
:func:`seal`.  A layout differs in its scan step only.  *Run* is
"create the store, skip nothing"; *resume* is "rebuild the config from
the manifest, open the store, skip what it holds"; ``workers=N`` hands
the open store to :func:`repro.parallel.engine.scan_with_workers`, whose
worker processes are each :func:`prepare` + :func:`scan_into` on their
own store with their buckets' zones — and whose parent, too, gets its
world and scanner from :func:`prepare`.  The paper's scan ran for a
month on several machines, so interrupted, resumed and split is the
normal case — and it is the same code as the uninterrupted one.

A campaign may be one *epoch* of a continuous-monitoring timeline
(``epoch=...`` + ``monitor=...``): the world is replayed to that
simulated week and, past the baseline, only the zones the week's events
touched are scanned (:func:`repro.monitor.timeline.scan_world`; the
loop itself lives in :class:`repro.monitor.Monitor`).  It may run in
memory (results returned as a list) or against a :mod:`repro.store`
warehouse (``store_dir=...``): results are committed shard-by-shard as
the scan proceeds and the report is computed by streaming the store
back through the pipeline — the store-then-analyse discipline of the
paper's 6.5 TiB archive.  With ``telemetry=True`` it streams
deterministic counters/spans/progress events (:mod:`repro.obs`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Container, Dict, List, Optional, Union

from repro.chaos import ChaosConfig, RetryPolicy
from repro.core.bootstrap import INCORRECT_OUTCOMES, SignalOutcome, assess_zone
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.ecosystem.world import World
from repro.monitor.spec import MonitorSpec
from repro.monitor.timeline import scan_world
from repro.scenarios.spec import ScenarioSpec
from repro.obs.events import stream_path
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, as_telemetry
from repro.scanner.results import ZoneScanResult
from repro.store import DEFAULT_CHECKPOINT_EVERY, DEFAULT_NUM_SHARDS, CampaignStore, StoreError
from repro.store.manifest import load_manifest, save_manifest
from repro.store.reader import StoreReader

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.events import Event
    from repro.parallel.engine import MachineReport


# Settings since removed that never changed what a campaign recorded
# (``time_scale`` paced the scan against the wall clock): a store that
# recorded one resumes whatever its value.
_IGNORED_ON_RESUME = frozenset({"time_scale"})


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
    store_dir: Optional[Path] = None
    checkpoint_every: Optional[int] = None
    num_shards: Optional[int] = None
    compress: bool = True
    stop_after: Optional[int] = None
    workers: Optional[int] = None
    # Zones in flight per scan machine (repro.sched): 1 is the serial
    # scan; N > 1 overlaps up to N zones on the deterministic event
    # loop.  Composes with workers=M — every worker process runs its
    # own loop.  Reports are byte-identical either way; only the
    # simulated campaign duration drops.
    in_flight: int = 1
    # False (default) → zero-overhead NullTelemetry; True → a fresh
    # hub; or pass a configured Telemetry instance directly.
    telemetry: Union[bool, Telemetry] = False
    # Fault injection (repro.chaos): None → fault-free network.  A
    # chaotic campaign implies a retry policy (see effective_retry) so
    # the differential convergence invariant holds by construction.
    chaos: Optional[ChaosConfig] = None
    # Scanner/resolver retry policy; None → one immediate re-attempt
    # (or the chaos default when chaos is enabled).
    retry: Optional[RetryPolicy] = None
    # Transport: "sim" moves messages through the in-memory fabric;
    # "wire" (repro.wire) hosts the authoritative fleet on real loopback
    # sockets and scans over non-blocking UDP/TCP that the scan loop
    # itself services (one thread, one selector).  Wire mode promises the
    # same analysis tables at the same seed/scale — not the same event
    # streams or simulated durations (real I/O reorders the schedule).
    transport: str = "sim"
    # Monitoring-plane leaf: which simulated week this campaign observes
    # (0 = baseline full scan, >= 1 = delta over the changed subset, the
    # previous week being its parent) and the seeded event stream that
    # evolves the world between weeks.  Both or neither; requires a
    # store; the orchestration loop lives in repro.monitor.Monitor.
    epoch: Optional[int] = None
    monitor: Optional[MonitorSpec] = None
    # Key-transition / adversarial-operator plane for *plain* campaigns
    # (repro.scenarios).  Epoch campaigns carry scenarios inside the
    # monitor spec instead, so every replaying participant agrees on
    # the scenario population; validate() rejects setting both.
    scenarios: Optional[ScenarioSpec] = None

    def __post_init__(self):
        if self.store_dir is not None and not isinstance(self.store_dir, Path):
            object.__setattr__(self, "store_dir", Path(self.store_dir))

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
        if self.in_flight < 1:
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
            from repro.parallel.partition import bucket_ranges

            bucket_ranges(self.num_shards or DEFAULT_NUM_SHARDS, self.workers)  # N <= shards
        elif self.stop_after is not None and self.store_dir is None:
            raise ValueError("stop_after requires a store (store_dir=...)")
        if self.transport not in ("sim", "wire"):
            raise ValueError(f"transport must be 'sim' or 'wire' (got {self.transport!r})")
        if self.transport == "wire" and self.workers is not None:
            raise ValueError(
                "transport='wire' runs single-process (one shared socket "
                "engine); combine with in_flight=N for concurrency"
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

        Keys with default values are omitted (except ``recheck``, which
        is always recorded), so the stored dict stays minimal and
        byte-stable across versions.
        """
        config: Dict[str, Any] = {"recheck": self.recheck}
        if self.workers is not None:
            config["workers"] = self.workers
        if self.in_flight != 1:
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
        if self.monitor is not None:
            config["monitor"] = self.monitor.to_dict()
        if self.scenarios is not None:
            config["scenarios"] = self.scenarios.to_dict()
        return config

    @classmethod
    def from_manifest(cls, manifest, store_dir: Optional[Path] = None) -> "CampaignConfig":
        """Rebuild the config a stored campaign was started with.

        A recorded setting that is no longer a field is accepted at its
        old default (false/null), or at any value if it never changed
        what was scanned (:data:`_IGNORED_ON_RESUME`), and refused
        otherwise: the campaign ran on something this version cannot
        rebuild — a different scan list, say — and a resume would mix
        two populations in one store.
        """
        config = manifest.config
        known = {f.name for f in fields(cls)} | _IGNORED_ON_RESUME
        removed = sorted(key for key, value in config.items() if value and key not in known)
        if removed:
            raise StoreError(
                f"the campaign was started with {', '.join(removed)}, which this "
                "version no longer supports; it cannot be resumed"
            )
        chaos = config.get("chaos")
        retry = config.get("retry")
        return cls(
            epoch=manifest.epoch,
            monitor=MonitorSpec.from_dict(config.get("monitor")),
            scenarios=ScenarioSpec.from_dict(config.get("scenarios")),
            scale=manifest.scale,
            seed=manifest.seed,
            recheck=bool(config.get("recheck", True)),
            store_dir=Path(store_dir) if store_dir is not None else None,
            checkpoint_every=config.get("checkpoint_every"),
            num_shards=manifest.num_shards,
            compress=manifest.compress,
            workers=config.get("workers"),
            in_flight=config.get("in_flight", 1),
            telemetry=bool(config.get("telemetry", False)),
            chaos=ChaosConfig.from_dict(chaos) if chaos is not None else None,
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
            transport=config.get("transport", "sim"),
        )


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
    # The campaign's own cost, frozen when it returns (the world stays
    # live: later re-scans and provisioning advance ``world.network``).
    queries_sent: int = field(init=False)  # worker machines' scans included
    bytes_moved: int = field(init=False)  # sent + received, this process's fabric only
    # Simulated seconds the scan consumed, rate limits included — the
    # paper's month-long scan; the slowest machine's for a parallel campaign.
    simulated_duration: float = field(init=False)

    def __post_init__(self):
        network, machines = self.world.network, self.machines or ()
        self.queries_sent = network.queries_sent + sum(m.queries for m in machines)
        self.bytes_moved = network.bytes_sent + network.bytes_received
        self.simulated_duration = max([m.duration for m in machines] or [network.clock.now()])


# -- the executor's pieces: prepare, stores, scan into a sink, re-check -------


def prepare(config: CampaignConfig, world: Optional[World] = None, telemetry=NULL_TELEMETRY):
    """Turn a config (plus an optional pre-built world) into what a scan
    needs: ``(world, scanner, scan list, events)``.

    Every participant that scans — a fresh run, a resume, each parallel
    worker — comes through here, so a campaign setting reaches the
    world and the scanner in exactly one place.  Without a *world* the
    config's own is built (and, for an epoch campaign, replayed to that
    week: the scan list is then the week's change feed and *events* the
    batch behind it).
    """
    subset = events = None
    if world is None:
        world, subset, events = scan_world(
            config.scale,
            config.seed,
            monitor=config.monitor,
            epoch=config.epoch,
            scenarios=config.scenarios,
        )
    # The zones to scan: a delta epoch's change feed, or the generator's
    # ground truth.
    zones = world.scan_list if subset is None else subset
    if config.chaos is not None and config.chaos.enabled:
        world.network.install_chaos(config.chaos)
    telemetry.bind_clock(world.network.clock)
    network = None
    if config.transport == "wire":
        from repro.wire import WireNetwork

        network = WireNetwork(world.network).start()
    scanner = world.make_scanner(
        telemetry=telemetry,
        retry=config.effective_retry(),
        in_flight=config.in_flight,
        network=network,
    )
    return world, scanner, zones, events


def open_store(
    config: CampaignConfig, root: Path, telemetry, create: Optional[Dict[str, Any]] = None
) -> CampaignStore:
    """Open the store at *root* — or, given the manifest fields of a new
    one in *create* (``config``, ``epoch``, ``zones_total``, …), create
    it.  The one place a campaign's checkpoint cadence, shard count and
    compression reach a store."""
    cadence = config.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    if create is None:
        return CampaignStore.open(root, checkpoint_every=cadence, telemetry=telemetry)
    return CampaignStore.create(
        root,
        seed=config.seed,
        scale=config.scale,
        num_shards=config.num_shards or DEFAULT_NUM_SHARDS,
        compress=config.compress,
        checkpoint_every=cadence,
        telemetry=telemetry,
        **create,
    )


def record_total(store: CampaignStore, zones) -> None:
    """Note the scan list's length in a root store, which is created
    before the world that knows it is built."""
    if store.manifest.zones_total is None:
        store.manifest.zones_total = len(zones)
        save_manifest(store.root, store.manifest)


def scan_into(
    scanner, zones, store=None, skip: Container[str] = frozenset(),
    stop_after: Optional[int] = None, each: Optional[Callable[[int, int], None]] = None,
) -> List[ZoneScanResult]:
    """Scan every zone of *zones* not in *skip* (dotted names), in order.

    With a *store*, results are persisted as they are scanned and the
    store is completed at the end; without one they are returned.  A
    run is this call with nothing to skip, a resume skips what the
    store already holds, a worker passes its buckets' zones and its own
    store.  *stop_after* aborts after N zones with the store left in
    progress — whatever was buffered is checkpointed, exactly like a
    crash just after a checkpoint.  *each* is called with ``(scanned,
    total)`` after every zone.
    """
    telemetry = scanner.telemetry
    todo = [zone for zone in zones if zone.to_text() not in skip]
    results: List[ZoneScanResult] = []
    with store if store is not None else nullcontext():
        sink = store.append if store is not None else results.append
        for scanned, _ in enumerate(scanner.scan_iter(todo, sink=sink), start=1):
            if telemetry.enabled:
                telemetry.maybe_progress(scanned, len(todo))
            if each is not None:
                each(scanned, len(todo))
            if stop_after is not None and scanned >= stop_after:
                return results
    if store is not None:
        store.complete()
    return results


def recheck_pass(
    scanner,
    report: AnalysisReport,
    double_check: Container[str] = frozenset(),
) -> Dict[str, SignalOutcome]:
    """The §4.4 re-check: rescan zones with incorrect signal outcomes.

    A zone whose outcome changes gets a revised verdict — the first
    scan's, with the rescan's signal report and outcome — and the
    report swaps the zone's contribution (:meth:`AnalysisReport.revise`).

    *double_check* names zones whose stored result came from a previous
    process (a resumed campaign, a parallel worker).  Their first,
    transiently-failing observation was consumed in *that* process's
    world; this world is fresh, so these zones get one extra rescan —
    the same observation budget (initial scan + re-check) every other
    zone has — which keeps such a report identical to an uninterrupted
    sequential one.
    """
    with scanner.telemetry.span("recheck") as span:
        suspicious = [
            index
            for index, verdict in enumerate(report.verdicts)
            if verdict.assessment.signal_outcome in INCORRECT_OUTCOMES
        ]
        resolved = {}  # zone -> the re-scan's outcome, if no longer incorrect
        for index in suspicious:
            verdict = report.verdicts[index]
            zone = verdict.assessment.zone
            rescan = assess_zone(scanner.scan_zone(zone))
            if rescan.signal_outcome in INCORRECT_OUTCOMES and zone in double_check:
                rescan = assess_zone(scanner.scan_zone(zone))
            if rescan.signal_outcome != verdict.assessment.signal_outcome:
                # The signal report travels with the outcome derived from
                # it, so the acceptance ladder and Table 3 read the same
                # evidence; everything else is the first scan's.
                assessment = replace(
                    verdict.assessment, signal=rescan.signal, signal_outcome=rescan.signal_outcome
                )
                report.revise(index, verdict._replace(assessment=assessment))
            if rescan.signal_outcome not in INCORRECT_OUTCOMES:
                resolved[zone] = rescan.signal_outcome
        span["suspicious"] = len(suspicious)
        span["resolved"] = len(resolved)
    return resolved


def seal(telemetry, scanner=None) -> Optional[Telemetry]:
    """Final counter snapshot, then end the session; None when disabled."""
    if not telemetry.enabled:
        return None
    if scanner is not None:
        telemetry.capture_scanner(scanner)
    telemetry.end_session()
    return telemetry


def _execute(
    config: CampaignConfig, world: Optional[World], resume: bool, faults=None
) -> CampaignResult:
    """Run a validated config to the end, in three steps.

    *Open*: the telemetry hub, then the store the config names — opened
    if *resume*, else created — streaming events into it.  *Scan*: this
    process scans whatever the store does not hold yet, or, with
    ``workers=N``, worker processes do (:func:`repro.parallel.engine.
    scan_with_workers`; *faults* is its testing hook).  *Close*: analyse
    what was scanned, re-check, seal.  A layout differs in its scan step
    only.
    """
    telemetry = as_telemetry(config.telemetry)
    store = None
    if config.store_dir is not None:
        if world is not None and (world.seed, world.scale) != (config.seed, config.scale):
            raise StoreError(
                f"world (seed={world.seed}, scale={world.scale:g}) does not match "
                f"the store's campaign (seed={config.seed}, scale={config.scale:g})"
            )
        recorded = None if resume else dict(config=config.manifest_config(), epoch=config.epoch)
        store = open_store(config, config.store_dir, telemetry, create=recorded)
        if telemetry.enabled:
            telemetry.open_sink(stream_path(store.root))

    scanner = None
    try:
        results: List[ZoneScanResult] = []
        if config.workers is not None:
            from repro.parallel.engine import scan_with_workers

            step = scan_with_workers(config, store, telemetry, faults)
            world, scanner, events, machines, done = step
        else:
            world, scanner, zones, events = prepare(config, world, telemetry)
            machines, done = None, frozenset()
            if store is not None:
                record_total(store, zones)
                done = frozenset(store.completed_zones())
            if store is None or not store.manifest.complete:
                results = scan_into(scanner, zones, store, skip=done, stop_after=config.stop_after)

        if store is None:
            report = AnalysisPipeline(world.operator_db).analyze(results)
        else:
            report = StoreReader(store.root).reanalyze(world.operator_db)
        rechecked: Dict[str, SignalOutcome] = {}
        interrupted = store is not None and not store.manifest.complete  # stop_after
        if config.recheck and not interrupted:
            rechecked = recheck_pass(scanner, report, double_check=done)
        # A parent that only merged has no scan of its own to report.
        scanned = machines is None or config.recheck
        return CampaignResult(
            world=world,
            results=results,
            report=report,
            rechecked=rechecked,
            store_dir=store.root if store is not None else None,
            machines=machines,
            telemetry=seal(telemetry, scanner if scanned else None),
            events=events,
        )
    finally:
        if scanner is not None and scanner.network is not world.network:
            scanner.network.close()  # the wire fleet's sockets


def run_campaign(config: Optional[CampaignConfig] = None, /, world=None) -> CampaignResult:
    """Run one full measurement campaign.

    Takes a :class:`CampaignConfig` and nothing else::

        run_campaign(CampaignConfig(scale=1e-4, seed=7, telemetry=True))

    A pre-built *world* may accompany the config for sequential
    campaigns (parallel and epoch campaigns rebuild worlds per
    process).

    With ``recheck=True``, zones classified with incorrect signal zones
    are scanned a second time and the report updated with the outcome —
    transient server failures (deSEC's bogus-signature episodes) resolve
    to CORRECT, persistent misconfigurations stay put.

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
    if config is None:
        config = CampaignConfig()
    elif not isinstance(config, CampaignConfig):
        raise TypeError(
            "run_campaign() takes a CampaignConfig as its only positional argument"
        )
    config.validate(world=world)
    return _execute(config, world, resume=False)


def resume_campaign(
    store_dir: Path,
    workers: Optional[int] = None,
    telemetry=None,
    chaos: Optional[ChaosConfig] = None,
    retry: Optional[RetryPolicy] = None,
    in_flight: Optional[int] = None,
) -> CampaignResult:
    """Finish an interrupted store-backed campaign.

    Rebuilds the :class:`CampaignConfig` the campaign was started with
    from its manifest, and runs it again — on the world that config
    rebuilds — with every zone already persisted skipped: only the
    remainder is scanned (checkpointing as it goes at the recorded
    cadence), the store is marked complete, and the report is produced
    by streaming the whole store — byte-identical to the report of an
    uninterrupted campaign at the same seed/scale.  Everything recorded
    resumes as started: worker count, checkpoint cadence, telemetry
    (the resumed process appends to the same event stream), the fault
    model and retry policy (so the remainder sees the per-query fault
    stream the uninterrupted campaign would have), transport, epoch.

    The keyword arguments override the recorded setting for the rest of
    the scan; the merged config is validated as a whole, exactly as
    :func:`run_campaign` would, before anything is touched.  ``workers``
    repartitions the remainder across a different number of processes,
    or parallelises the remainder of a campaign that began sequentially;
    any subset of crashed workers is tolerated — completed worker stores
    are skipped wholesale.
    """
    root = Path(store_dir)
    overrides = dict(
        workers=workers,
        telemetry=telemetry,
        chaos=chaos,
        retry=retry,
        in_flight=in_flight,
    )
    config = replace(
        CampaignConfig.from_manifest(load_manifest(root), store_dir=root),
        **{name: value for name, value in overrides.items() if value is not None},
    )
    config.validate()
    return _execute(config, None, resume=True)
