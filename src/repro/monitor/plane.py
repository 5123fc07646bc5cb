"""The continuous-monitoring plane: epoch-based delta campaigns.

The paper's scan is a snapshot; deployment measurement is a *process* —
operators keep adopting authenticated bootstrapping, rolling keys, and
churning NS sets after any single scan completes.  :class:`Monitor`
turns the one-shot campaign machinery into that process: a timeline of
simulated weeks in which a seeded event stream evolves the world
(:mod:`repro.monitor.events`), a zone-serial/CSYNC-style change feed
flags the mutated zones, and each week only those zones are re-scanned
into a fresh per-epoch store.

Layout under one monitor root::

    <root>/monitor.json             the MonitorConfig (identity, rates)
    <root>/epochs/e0000/            epoch 0: baseline full-scan store
    <root>/epochs/e0001/            epoch 1: delta store (changed zones)
    <root>/epochs/eNNNN/monitor_events.json   the week's applied events
    <root>/events/monitor.jsonl     timeline telemetry (epoch spans)

The core invariant — enforced by the differential tests and CI — is
that a chain of delta campaigns renders **byte-identical** final tables
to a from-scratch full scan of the final world state, across serial,
``workers=N``, ``in_flight=N``, and kill-and-resume execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.agent.actions import ledger_path, read_ledger, secured_pairs
from repro.campaign import CampaignConfig, CampaignResult, resume_campaign, run_campaign
from repro.core.bootstrap import assess_zone
from repro.core.operators import OperatorDB
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.ecosystem.profiles import build_operator_db
from repro.monitor.diff import EpochDiff
from repro.monitor.events import Event
from repro.monitor.layout import (
    EPOCH_EVENTS_FILENAME,
    EPOCHS_DIR,
    MONITOR_FORMAT_VERSION,
    MONITOR_STATE_FILENAME,
    completed_epochs,
    epoch_dir,
    list_epoch_dirs,
)
from repro.monitor.spec import MonitorSpec
from repro.obs.events import stream_path
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.scanner.serialize import result_from_obj
from repro.store.diff import ZoneClassification, diff_classifications
from repro.store.manifest import load_manifest, manifest_path
from repro.store.reader import StoreReader
from repro.store.shards import write_atomic


# The per-epoch execution settings: MonitorConfig fields that are handed,
# name for name, to every epoch's CampaignConfig leaf.  ``monitor.json``,
# the epoch leaf and ``repro-dnssec monitor init`` all read this tuple.
EPOCH_SETTINGS = (
    "workers",
    "in_flight",
    "transport",
    "telemetry",
    "checkpoint_every",
    "num_shards",
    "compress",
)


class MonitorError(RuntimeError):
    """Monitor-plane misuse or damaged monitor state."""


@dataclass(frozen=True)
class MonitorConfig:
    """Identity and per-epoch execution settings of one monitor root.

    The campaign-level knobs (workers, in_flight, transport, …) are the
    defaults every epoch's :class:`~repro.campaign.CampaignConfig` leaf
    is built from; scale/seed/monitor are the timeline's *identity* and
    are persisted in ``monitor.json`` so a later process advances the
    same world the earlier ones observed.
    """

    root: Path
    scale: float = 1 / 100_000
    seed: int = 1
    monitor: MonitorSpec = MonitorSpec()
    workers: Optional[int] = None
    in_flight: int = 1
    transport: str = "sim"
    telemetry: bool = False
    checkpoint_every: Optional[int] = None
    num_shards: Optional[int] = None
    compress: bool = True

    def __post_init__(self):
        if not isinstance(self.root, Path):
            object.__setattr__(self, "root", Path(self.root))

    def to_dict(self) -> Dict[str, Any]:
        """The persisted form (everything but the root it lives in)."""
        return {
            "version": MONITOR_FORMAT_VERSION,
            "scale": self.scale,
            "seed": self.seed,
            "monitor": self.monitor.to_dict(),
            **{name: getattr(self, name) for name in EPOCH_SETTINGS},
        }

    @classmethod
    def from_dict(cls, root: Path, obj: Dict[str, Any]) -> "MonitorConfig":
        version = obj.get("version")
        if version != MONITOR_FORMAT_VERSION:
            raise MonitorError(f"unsupported monitor.json version {version!r}")
        known = {f.name for f in fields(cls)} - {"root", "monitor"}
        # Unset (null) settings take the default — an older monitor.json
        # recorded a serial scan as ``"in_flight": null``.
        settings = {key: obj[key] for key in known if obj.get(key) is not None}
        return cls(
            root=Path(root),
            monitor=MonitorSpec.from_dict(obj.get("monitor")) or MonitorSpec(),
            **settings,
        )


@dataclass
class EpochResult:
    """One :meth:`Monitor.run_epoch` / :meth:`Monitor.resume` outcome."""

    epoch: int
    store_dir: Path
    events: List[Event]
    zones_scanned: int
    campaign: CampaignResult
    complete: bool = True
    agent: Optional[Any] = None  # AgentRun when an agent acted on this epoch

    @property
    def simulated_duration(self) -> float:
        return self.campaign.simulated_duration


@dataclass
class EpochStatus:
    """Bookkeeping line for one epoch store."""

    epoch: int
    complete: bool
    records: int
    zones_total: Optional[int]
    events: Optional[int]  # applied events, when recorded


@dataclass
class MonitorStatus:
    root: Path
    scale: float
    seed: int
    epochs: List[EpochStatus] = field(default_factory=list)

    @property
    def last_complete(self) -> Optional[int]:
        done = [e.epoch for e in self.epochs if e.complete]
        return max(done) if done else None

    @property
    def in_progress(self) -> Optional[int]:
        open_epochs = [e.epoch for e in self.epochs if not e.complete]
        return open_epochs[0] if open_epochs else None

    def render(self) -> str:
        lines = [
            f"monitor at {self.root}",
            f"world: scale={self.scale:g} seed={self.seed}",
        ]
        if not self.epochs:
            lines.append("no epochs yet (run `repro monitor advance`)")
            return "\n".join(lines)
        for status in self.epochs:
            state = "complete" if status.complete else "IN PROGRESS"
            total = f"/{status.zones_total}" if status.zones_total is not None else ""
            events = f", {status.events} events" if status.events is not None else ""
            kind = "baseline" if status.epoch == 0 else "delta"
            lines.append(
                f"  epoch {status.epoch}: {state}, {kind}, "
                f"{status.records}{total} zones{events}"
            )
        return "\n".join(lines)


class Monitor:
    """Epoch-first orchestration over one monitor root.

    Typical use::

        monitor = Monitor.init(MonitorConfig(root, scale=1e-4, seed=7))
        monitor.run_epoch()          # epoch 0: baseline full scan
        monitor.run_until(weeks=4)   # delta campaigns for weeks 1..4
        report = monitor.analyze()   # merged view of the latest epoch
        print(monitor.diff().diff.changed)
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        self.root = config.root
        self._hub = None
        # ``(epoch, verdicts)`` of the newest epoch classifications() folded.
        self._folded: Tuple[int, Dict[str, ZoneClassification]] = (-1, {})

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def init(cls, config: MonitorConfig) -> "Monitor":
        """Create a fresh monitor root (refuses to clobber one)."""
        root = Path(config.root)
        if (root / MONITOR_STATE_FILENAME).exists():
            raise MonitorError(f"{root} already holds a monitor")
        root.mkdir(parents=True, exist_ok=True)
        (root / EPOCHS_DIR).mkdir(exist_ok=True)
        write_atomic(
            root / MONITOR_STATE_FILENAME,
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        return cls(config)

    @classmethod
    def open(cls, root: Path) -> "Monitor":
        """Open an existing monitor root."""
        root = Path(root)
        state = root / MONITOR_STATE_FILENAME
        if not state.exists():
            raise MonitorError(f"no monitor at {root} (missing {MONITOR_STATE_FILENAME})")
        try:
            obj = json.loads(state.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MonitorError(f"monitor.json at {root} is not valid JSON: {exc}") from exc
        return cls(MonitorConfig.from_dict(root, obj))

    # -- epoch bookkeeping -------------------------------------------------

    def epoch_dir(self, epoch: int) -> Path:
        return epoch_dir(self.root, epoch)

    def epochs(self) -> List[int]:
        """Every epoch with a store on disk, in order."""
        return [
            e for e in list_epoch_dirs(self.root) if manifest_path(self.epoch_dir(e)).exists()
        ]

    def completed_epochs(self) -> List[int]:
        return completed_epochs(self.root)

    def in_progress_epoch(self) -> Optional[int]:
        for epoch in self.epochs():
            if not load_manifest(self.epoch_dir(epoch)).complete:
                return epoch
        return None

    def next_epoch(self) -> int:
        existing = self.epochs()
        return (existing[-1] + 1) if existing else 0

    # -- running -----------------------------------------------------------

    def run_epoch(
        self, stop_after: Optional[int] = None, agent=None
    ) -> EpochResult:
        """Advance the timeline by one epoch.

        Epoch 0 is the baseline full scan; every later epoch replays the
        event stream one week forward and re-scans only the changed
        zones.  *stop_after* aborts the epoch's scan after N zones with
        the store left in progress (the programmatic crash stand-in);
        finish it with :meth:`resume`.

        With an *agent* (:class:`repro.agent.Agent`), the agent acts on
        the epoch once its scan completes: verified DS installs enter
        the replay ledger, so the next epoch's change feed re-scans
        those zones and confirms the island → secured transition.
        """
        in_progress = self.in_progress_epoch()
        if in_progress is not None:
            raise MonitorError(
                f"epoch {in_progress} is still in progress; resume() it before advancing"
            )
        epoch = self.next_epoch()
        config = self._campaign_config(epoch, stop_after=stop_after)
        hub = self._telemetry()
        with hub.span("epoch", epoch=epoch) as span:
            campaign = run_campaign(config)
            # The week's batch comes from the replay the campaign just
            # performed — one world build per epoch.
            events = campaign.events
            self._write_events(epoch, events)
            manifest = load_manifest(self.epoch_dir(epoch))
            span["events"] = len(events)
            span["zones"] = manifest.records
            span["complete"] = manifest.complete
        return self._finish_epoch(epoch, events, campaign, manifest, agent)

    def resume(self, agent=None) -> EpochResult:
        """Finish the in-progress epoch (after a kill or ``stop_after``)."""
        epoch = self.in_progress_epoch()
        if epoch is None:
            raise MonitorError("no epoch is in progress; nothing to resume")
        # The epoch's manifest recorded this root's settings when it began.
        campaign = resume_campaign(self.epoch_dir(epoch))
        events = self._read_events(epoch)
        if events is None:
            # Killed before the batch was recorded: the resumed campaign
            # replayed the same week, so its batch is the missing file.
            events = campaign.events
            self._write_events(epoch, events)
        manifest = load_manifest(self.epoch_dir(epoch))
        self._telemetry().event("epoch_resumed", epoch=epoch, zones=manifest.records)
        return self._finish_epoch(epoch, events, campaign, manifest, agent)

    def _finish_epoch(self, epoch, events, campaign, manifest, agent) -> EpochResult:
        """The one epilogue of :meth:`run_epoch` and :meth:`resume`: an
        epoch is accounted for by the process that completes it — never
        by one that stopped short — so the folded timeline stream counts
        exactly the complete epoch stores, however the timeline was
        split into processes and kills."""
        agent_run = None
        if manifest.complete:
            hub = self._telemetry()
            hub.count("monitor.epochs")
            hub.count("monitor.events_applied", len(events))
            hub.count("monitor.zones_rescanned", manifest.records)
            hub.flush_counters()
            if agent is not None:
                # Idempotent: zones a killed run already recorded for
                # this epoch are skipped, so a crash between scan and
                # agent (or mid-agent) resumes into the same ledger bytes.
                agent_run = self._run_agent(agent, epoch)
        return EpochResult(
            epoch=epoch,
            store_dir=self.epoch_dir(epoch),
            events=events,
            zones_scanned=manifest.records,
            campaign=campaign,
            complete=manifest.complete,
            agent=agent_run,
        )

    def run_until(self, weeks: int, agent=None) -> List[EpochResult]:
        """Run epochs (baseline included) until week *weeks* is observed."""
        if weeks < 0:
            raise ValueError("weeks must be >= 0")
        results = []
        if self.in_progress_epoch() is not None:
            results.append(self.resume(agent=agent))
        while self.next_epoch() <= weeks:
            results.append(self.run_epoch(agent=agent))
        return results

    # -- reading back ------------------------------------------------------

    def status(self) -> MonitorStatus:
        status = MonitorStatus(
            root=self.root, scale=self.config.scale, seed=self.config.seed
        )
        for epoch in self.epochs():
            manifest = load_manifest(self.epoch_dir(epoch))
            events = self._read_events(epoch)
            status.epochs.append(
                EpochStatus(
                    epoch=epoch,
                    complete=manifest.complete,
                    records=manifest.records,
                    zones_total=manifest.zones_total,
                    events=len(events) if events is not None else None,
                )
            )
        return status

    def operator_db(self) -> OperatorDB:
        """The NS-suffix attribution database (world-free — profiles
        only), for re-analysing stored records.  Scenario-enabled
        monitors attribute the adversarial operators too."""
        scenarios = self.config.monitor.scenarios
        return build_operator_db(adversarial=scenarios is not None and scenarios.enabled)

    def _merged(self, epoch: int, since: int = -1):
        """``(zone, result)`` for each zone's newest stored record in
        epochs *since*+1..*epoch* of a verified chain: they are walked
        newest epoch first and a zone already seen is superseded, so each
        epoch store is read once and only the records kept are rebuilt."""
        seen: Set[str] = set()
        for e in range(epoch, since, -1):
            for obj in StoreReader(self.epoch_dir(e)).iter_objects():
                zone = obj["zone"]
                if zone not in seen:
                    seen.add(zone)
                    yield zone, result_from_obj(obj)

    def classifications(self, epoch: Optional[int] = None) -> Dict[str, ZoneClassification]:
        """Each zone's verdict as of *epoch* (default: latest complete).

        A fold onto the newest epoch already folded: only the stores
        above it are read, and each zone they do not hold keeps its
        folded verdict — sound because a completed epoch store never
        changes.  The order is the full merge's (*epoch*'s zones, then
        each older epoch's unseen ones); an epoch older than the fold is
        merged in full."""
        epoch = self._resolve_epoch(epoch)
        folded, memo = self._folded if self._folded[0] <= epoch else (-1, {})
        classes = {
            zone: ZoneClassification.of(assess_zone(result))
            for zone, result in self._merged(epoch, since=folded)
        }
        for zone, verdict in memo.items():
            classes.setdefault(zone, verdict)
        if epoch >= self._folded[0]:
            self._folded = (epoch, classes)
        return dict(classes)

    def analyze(self, epoch: Optional[int] = None) -> AnalysisReport:
        """The merged analysis report as of *epoch* (default: latest
        complete) — computed over each zone's newest stored record, so a
        chain of deltas analyses exactly like one full scan."""
        merged = self._merged(self._resolve_epoch(epoch))
        return AnalysisPipeline(self.operator_db()).analyze(result for _, result in merged)

    def diff(self, old: Optional[int] = None, new: Optional[int] = None) -> EpochDiff:
        """Epoch-over-epoch diff of merged views (default: the last
        completed epoch against its parent)."""
        new = self._resolve_epoch(new)
        if old is None:
            if new == 0:
                raise MonitorError("epoch 0 has no parent to diff against")
            old = new - 1
        if not 0 <= old < new:
            raise MonitorError(f"cannot diff epoch {old} -> {new}")
        diff = diff_classifications(
            self.classifications(old),
            self.classifications(new),
            old_root=f"epoch {old}",
            new_root=f"epoch {new}",
        )
        events: List[Event] = []
        rescanned = 0
        for e in range(old + 1, new + 1):
            events.extend(self._read_events(e) or [])
            rescanned += load_manifest(self.epoch_dir(e)).records
        return EpochDiff(
            old_epoch=old,
            new_epoch=new,
            diff=diff,
            events=events,
            zones_rescanned=rescanned,
        )

    # -- internals ---------------------------------------------------------

    def _campaign_config(self, epoch: int, stop_after: Optional[int] = None) -> CampaignConfig:
        return CampaignConfig(
            scale=self.config.scale,
            seed=self.config.seed,
            recheck=False,
            store_dir=self.epoch_dir(epoch),
            stop_after=stop_after,
            epoch=epoch,
            monitor=self._composed_spec(),
            **{name: getattr(self.config, name) for name in EPOCH_SETTINGS},
        )

    def _composed_spec(self) -> MonitorSpec:
        """The base spec plus every verified agent install on record.

        ``monitor.json`` keeps the pristine configured spec; installs
        live in the agent ledger and are composed in here, the single
        point where specs are handed to campaigns and replays.  The
        composed spec is frozen into each epoch's store manifest, so
        resume paths (which rebuild from the manifest alone) see the
        same world without re-reading the ledger.  Replay ignores
        installs at or after the target epoch, so late ledger entries
        never disturb earlier epochs.
        """
        ledger = read_ledger(ledger_path(self.root))
        if not ledger:
            return self.config.monitor
        return self.config.monitor.with_installs(secured_pairs(ledger))

    def _run_agent(self, agent, epoch: int):
        """Let *agent* act on a completed epoch, streaming its counters
        to ``events/agent.jsonl`` (per-session additive, like the query
        plane's stream)."""
        hub = Telemetry() if self.config.telemetry else NULL_TELEMETRY
        run = agent.run(self, epoch=epoch, telemetry=hub)
        hub.end_session(stream_path(self.root, "agent"))
        return run

    def _events_file(self, epoch: int) -> Path:
        return self.epoch_dir(epoch) / EPOCH_EVENTS_FILENAME

    def _write_events(self, epoch: int, events: List[Event]) -> None:
        payload = [event.to_dict() for event in events]
        write_atomic(self._events_file(epoch), json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def _read_events(self, epoch: int) -> Optional[List[Event]]:
        path = self._events_file(epoch)
        if not path.exists():
            return None
        return [
            Event(epoch=item["epoch"], kind=item["kind"], zone=item["zone"])
            for item in json.loads(path.read_text(encoding="utf-8"))
        ]

    def _resolve_epoch(self, epoch: Optional[int]) -> int:
        """*epoch* (default: the newest complete), once epochs 0..epoch
        are verified complete and gap-free — one manifest load each."""
        completed = completed_epochs(self.root, through=epoch)
        if not completed:
            raise MonitorError("no completed epochs yet")
        if epoch is None:
            epoch = completed[-1]
        if epoch not in completed:
            raise MonitorError(f"epoch {epoch} is not a completed epoch of this monitor")
        missing = sorted(set(range(epoch + 1)) - set(completed))
        if missing:
            raise MonitorError(
                f"delta chain to epoch {epoch} is broken: missing epochs {missing}"
            )
        return epoch

    def _telemetry(self):
        if not self.config.telemetry:
            return NULL_TELEMETRY
        if self._hub is None:
            self._hub = Telemetry(wall_clock=True)
            self._hub.open_sink(stream_path(self.root, "monitor"))
        return self._hub
