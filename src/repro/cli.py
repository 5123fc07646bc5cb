"""Command line interface: one front door to scan → store → analyse → re-check.

The CLI is two tables.  ``FLAGS`` declares the shared option vocabulary
once — spelling, argparse keywords, help text and, where a flag feeds a
campaign setting, the :class:`~repro.campaign.CampaignConfig` field it
sets and its converter.  ``COMMANDS`` has one row per leaf verb: path,
help, flag rows (its own arguments inline), handler.  ``build_parser``
is a loop over them, :func:`_settings` is the one place parsed flags
become config keyword arguments, and ``main`` maps every exception a
handler lets escape to one line on stderr and an exit code (``ERRORS``)::

    repro-dnssec campaign run --scale 1e-5 --artifact all
    repro-dnssec campaign run --store ./campaign --workers 4
    repro-dnssec campaign resume --store ./campaign
    repro-dnssec campaign stats --store ./campaign
    repro-dnssec monitor init --store ./monitor --scale 1e-5
    repro-dnssec monitor advance --store ./monitor --epochs 3
    repro-dnssec monitor diff --store ./monitor
    repro-dnssec experiments --scale 1e-4 --out docs/experiments

Adding a campaign setting is a ``CampaignConfig`` field plus a ``FLAGS``
row (``tests/test_cli.py`` fails until every field has a flag or a
recorded reason); adding a verb is a handler plus a ``COMMANDS`` row
(and a section in ``docs/cli.md``, which a test holds to the tables).
"""

from __future__ import annotations

import argparse
import operator
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import experiments
from repro.agent import (
    Agent,
    AgentError,
    compute_convergence,
    ledger_path,
    read_ledger,
    render_convergence,
)
from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.chaos import ChaosConfig, RetryPolicy
from repro.core import DnssecStatus, assess_zone
from repro.ecosystem.profiles import build_operator_db
from repro.ecosystem.world import build_world
from repro.monitor import Monitor, MonitorConfig, MonitorError, MonitorSpec, render_epoch_diff
from repro.monitor.plane import EPOCH_SETTINGS
from repro.obs import Telemetry, as_telemetry, collect_stats, render_stats, stream_path
from repro.parallel import ParallelCampaignError
from repro.query import (
    QueryError,
    QueryService,
    build_index,
    index_dir,
    indexed_stores,
    verify_snapshot,
)
from repro.reports import ARTIFACTS, check_shapes, compute_table3, render_artifacts
from repro.reports.dashboard import zone_status_dashboard
from repro.scanner import serialize
from repro.scenarios import ScenarioSpec
from repro.store import StoreError, StoreReader, diff_stores, render_diff
from repro.store.manifest import is_adversarial

# -- the flag vocabulary -------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """One argument: its spellings and argparse keywords, plus — where it
    feeds a campaign setting — the ``CampaignConfig`` field it sets and
    the converter from the parsed value to the field's."""

    strings: Tuple[str, ...]
    kwargs: Dict[str, Any]
    field: Optional[str] = None
    convert: Optional[Callable[[Any], Any]] = None

    @property
    def dest(self) -> str:
        return self.strings[0].lstrip("-").replace("-", "_")

    def but(self, **kwargs) -> "Flag":
        """This row with some argparse keywords (help, default, required)
        replaced — for a verb on which the same flag reads differently."""
        return replace(self, kwargs={**self.kwargs, **kwargs})

    def setting(self, args: argparse.Namespace):
        value = getattr(args, self.dest)
        return value if self.convert is None else self.convert(value)


def flag(*strings: str, field: Optional[str] = None, convert=None, **kwargs) -> Flag:
    return Flag(strings, kwargs, field, convert)


def _or_none(value):
    """0 / False on the command line → "not set" (``None``) in the config."""
    return value or None


def _spec(cls):
    """argparse type for ``--chaos`` / ``--retries`` / ``--scenarios``:
    'off', 'default', or 'field=value,...' through ``cls.from_spec``,
    whose ``ValueError`` message becomes the usage error."""

    def parse(value: str):
        try:
            return cls.from_spec(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_IN_FLIGHT_HELP = (
    "overlap up to N zones per scan machine on the deterministic "
    "event loop (repro.sched); 1 is the serial scan, and the report is "
    "byte-identical to it for any N — only the simulated duration drops"
)

# One row per shared flag, keyed by its argparse dest.
FLAGS: Dict[str, Flag] = {
    row.dest: row
    for row in (
        flag("--scale", type=float, default=1e-5, field="scale",
             help="population scale relative to the paper's 287.6M zones (default 1e-5)"),
        flag("--seed", type=int, default=1, field="seed", help="world seed (default 1)"),
        flag("--store", required=True, field="store_dir", help="campaign store directory"),
        flag("--no-recheck", action="store_true", field="recheck", convert=operator.not_,
             help="skip the transient re-check pass"),
        flag("--shards", type=int, default=None, field="num_shards", help="zone-hash buckets"),
        flag("--checkpoint-every", type=int, default=None, field="checkpoint_every",
             help="records per durable commit"),
        flag("--no-gzip", action="store_true", field="compress", convert=operator.not_,
             help="store plain JSONL shards"),
        flag("--stop-after", type=int, default=0, field="stop_after", convert=_or_none,
             help="abort after N zones, leaving the store resumable (crash stand-in)"),
        flag("--telemetry", action="store_true", field="telemetry",
             help="stream deterministic telemetry events into <store>/events/"),
        flag("--workers", type=int, default=0, field="workers", convert=_or_none,
             help="scan with N worker processes (same report, less wall-clock)"),
        flag("--in-flight", type=int, default=1, metavar="N", field="in_flight",
             help=_IN_FLIGHT_HELP),
        flag("--transport", choices=("sim", "wire"), default="sim", field="transport",
             help="message transport: 'sim' moves wire-format messages through "
             "the in-memory fabric; 'wire' (repro.wire) hosts the authoritative "
             "fleet on real loopback sockets and scans over non-blocking UDP/TCP "
             "serviced by the scan loop itself (one thread, one selector) — "
             "same analysis tables, real I/O"),
        flag("--scenarios", type=_spec(ScenarioSpec), default=None, metavar="SPEC",
             field="scenarios",
             help="key-transition & adversarial operator plane (repro.scenarios): "
             "'default', or 'seed=2,intensity=4,mishap=0.3,transitions=false,...' "
             "(seeded; worlds are identical across layouts and resume)"),
        flag("--chaos", type=_spec(ChaosConfig), default=None, metavar="SPEC", field="chaos",
             help="inject faults: 'default', or 'loss=0.1,servfail=0.05,...' "
             "(seeded and replayable; the report still matches the fault-free run)"),
        flag("--retries", type=_spec(RetryPolicy), default=None, metavar="SPEC", field="retry",
             help="retry/backoff policy: 'default', a max attempt count, or "
             "'attempts=4,base=0.25,...' (implied by --chaos)"),
    )
}


def _shared(names: str) -> Tuple[Flag, ...]:
    return tuple(FLAGS[name] for name in names.split())


_WORLD = _shared("scale seed")
_MONITOR_ROOT = FLAGS["store"].but(help="monitor root directory")


def _settings(args: argparse.Namespace) -> Dict[str, Any]:
    """``CampaignConfig`` keyword arguments from a parsed command line:
    every flag of the verb that feeds a field, converted.  The one place
    a campaign setting crosses from the CLI into a config."""
    return {row.field: row.setting(args) for row in args.row.flags if row.field}


# -- what handlers share -------------------------------------------------------


def _heartbeat_printer(stats: dict) -> None:
    """Live worker-liveness line (parallel runs with --telemetry)."""
    worker = stats.get("worker", stats.get("index", "?"))
    if stats.get("heartbeat"):
        done, total = stats.get("zones_done", 0), stats.get("zones_total", "?")
        print(f"  [w{worker:02d}] {done}/{total} zones", flush=True)
    elif "duration" in stats:
        print(
            f"  [w{worker:02d}] finished: {stats.get('zones', '?')} zones, "
            f"{stats.get('queries', '?')} queries",
            flush=True,
        )


def _live_hub() -> Telemetry:
    """The hub behind ``campaign run|resume --telemetry``: streams the
    campaign's events and prints worker liveness as it goes."""
    hub = Telemetry()
    hub.on_heartbeat = _heartbeat_printer
    return hub


@contextmanager
def _query_session(args: argparse.Namespace):
    """A telemetry hub for one query verb; the session's counters are
    appended to the store's query stream once the verb has run (a
    ``QueryError`` leaves the stream untouched and exits 2)."""
    hub = Telemetry()
    yield hub
    hub.end_session(stream_path(args.store, "query"))


# -- campaign run|resume|stats -------------------------------------------------


def _print_artifacts(campaign, artifact: str) -> None:
    rendered = render_artifacts(campaign.report, campaign.world.targets)
    wanted = ARTIFACTS if artifact == "all" else (artifact,)
    print("\n\n".join(rendered[name] for name in wanted))
    print(
        f"\nScanned {campaign.report.total_scanned} zones "
        f"({campaign.queries_sent} queries, "
        f"{campaign.simulated_duration:.0f}s simulated scan time, "
        f"{len(campaign.rechecked)} transient failures resolved on re-check)"
    )
    for machine in campaign.machines or ():
        print(
            f"  machine {machine.index}: {machine.zones} zones, "
            f"{machine.queries} queries, {machine.duration:.0f}s"
        )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """One campaign, in-memory or store-backed.

    Without ``--store`` the campaign runs in memory and prints the
    selected report artifacts; with ``--store`` results are persisted
    shard-by-shard and the store summary is printed.
    """
    settings = _settings(args)
    if args.telemetry:
        settings["telemetry"] = _live_hub()
    if args.store is None:
        with ExitStack() as stack:
            if args.workers:
                # Parallel execution needs a store for the workers to commit
                # into; the report itself is byte-identical to the sequential
                # one, so a throwaway directory is all we need.
                tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-campaign-"))
                settings["store_dir"] = Path(tmp) / "store"
            campaign = run_campaign(CampaignConfig(**settings))
        _print_artifacts(campaign, args.artifact)
        return 0
    try:
        campaign = run_campaign(CampaignConfig(**settings))
    except ParallelCampaignError as exc:
        print(exc)
        print(f"\nfinish with: repro-dnssec campaign resume --store {args.store}")
        return 1
    summary = StoreReader(args.store).summary()
    print(summary.render())
    if summary.status != "complete":
        print(
            f"\ncampaign interrupted; finish with: "
            f"repro-dnssec campaign resume --store {args.store}"
        )
    else:
        print(f"\n{len(campaign.rechecked)} transient failures resolved on re-check")
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Finish an interrupted campaign from its manifest.

    Campaigns started with ``--workers`` resume in parallel with the
    recorded worker count; ``--workers`` here overrides it (any subset
    of crashed workers is tolerated — finished shares are skipped).
    A flag left unset (``None``) keeps the campaign's recorded setting.
    """
    settings = _settings(args)
    settings["telemetry"] = _live_hub() if args.telemetry else None
    campaign = resume_campaign(**settings)
    print(StoreReader(args.store).summary().render())
    print(f"\n{len(campaign.rechecked)} transient failures resolved on re-check")
    return 0


def cmd_campaign_stats(args: argparse.Namespace) -> int:
    """Render a campaign telemetry report from a store's event streams."""
    print(render_stats(collect_stats(args.store)))
    return 0


# -- monitor init|advance|status|diff (repro.monitor) --------------------------


def cmd_monitor_init(args: argparse.Namespace) -> int:
    """Create a monitor root: an evolving world observed week by week."""
    settings = _settings(args)
    spec = MonitorSpec(seed=args.monitor_seed, scenarios=settings["scenarios"])
    if args.event_rate_scale != 1.0:
        spec = spec.scaled(args.event_rate_scale)
    config = MonitorConfig(
        root=args.store,
        monitor=spec,
        **{name: settings[name] for name in ("scale", "seed", *EPOCH_SETTINGS)},
    )
    print(Monitor.init(config).status().render())
    print(f"\nadvance with: repro-dnssec monitor advance --store {args.store}")
    return 0


def cmd_monitor_advance(args: argparse.Namespace) -> int:
    """Advance the monitor by N simulated weeks (delta campaigns).

    An interrupted epoch is resumed first and counts as one of the N.
    """
    monitor = Monitor.open(args.store)
    agent = Agent() if args.agent else None
    results = []
    try:
        epoch = monitor.in_progress_epoch()
        if epoch is not None:
            print(f"resuming interrupted epoch {epoch} ...")
            results.append(monitor.resume(agent=agent))
        while len(results) < args.epochs:
            results.append(monitor.run_epoch(agent=agent))
    except MonitorError as exc:
        # Not a usage error (the root opened): the timeline itself failed.
        print(f"monitor advance failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        kind = "baseline (full scan)" if result.epoch == 0 else "delta"
        print(
            f"epoch {result.epoch}: {kind}, scanned {result.zones_scanned} zones, "
            f"{len(result.events)} events applied, "
            f"{result.simulated_duration:.0f}s simulated"
        )
        if result.agent is not None:
            print(
                f"  agent: {result.agent.considered} considered, "
                f"{len(result.agent.secured)} secured, "
                f"{len(result.agent.rejected)} rejected"
            )
    print(monitor.status().render())
    return 0


def cmd_monitor_status(args: argparse.Namespace) -> int:
    print(Monitor.open(args.store).status().render())
    return 0


def cmd_monitor_diff(args: argparse.Namespace) -> int:
    """Epoch-over-epoch classification diff (merged views, not raw stores)."""
    monitor = Monitor.open(args.store)
    epoch_diff = monitor.diff(old=args.old, new=args.new)
    print(render_epoch_diff(epoch_diff))
    if not args.checks:
        return 0
    # Shape checks over the new epoch's merged view: a failure names
    # the diverging epoch/table pair (see repro.reports.compare).
    report = monitor.analyze(epoch=epoch_diff.new_epoch)
    checks = check_shapes(report, compute_table3(report), epoch=epoch_diff.new_epoch)
    print()
    for check in checks:
        print(check)
    failed = [c for c in checks if not c.passed]
    print(f"\n{len(checks) - len(failed)}/{len(checks)} shape checks passed")
    return 1 if failed else 0


# -- agent run|status|actions: the parental agent (repro.agent) ----------------


def cmd_agent_run(args: argparse.Namespace) -> int:
    """Act on a completed epoch: re-authenticate, provision, verify."""
    monitor = Monitor.open(args.store)
    telemetry = as_telemetry(args.telemetry)
    run = Agent().run(monitor, epoch=args.epoch, telemetry=telemetry)
    telemetry.end_session(stream_path(monitor.root, "agent"))
    print(
        f"epoch {run.epoch}: {run.considered} zones considered, "
        f"{len(run.secured)} secured, {len(run.rejected)} rejected, "
        f"{run.skipped} already recorded"
    )
    for zone in run.secured:
        print(f"  secured {zone}")
    if run.actions:
        print(f"\nledger: {args.store}/agent/actions.jsonl")
    return 0


def cmd_agent_status(args: argparse.Namespace) -> int:
    """The convergence report over the recorded actions ledger."""
    ledger = read_ledger(ledger_path(Monitor.open(args.store).root))
    if ledger:
        print(render_convergence(compute_convergence(ledger)))
    else:
        print("no agent actions recorded yet")
    return 0


def cmd_agent_actions(args: argparse.Namespace) -> int:
    """Dump ledger entries (canonical JSON lines, filterable)."""
    for action in read_ledger(ledger_path(Monitor.open(args.store).root)):
        if args.epoch in (None, action.epoch) and args.action in (None, action.action):
            print(action.to_line())
    return 0


# -- one-shot inspection commands ----------------------------------------------


def cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate the paper's artefacts and run their shape checks."""
    return experiments.main(args.scale, args.only, args.out)


def cmd_audit(args: argparse.Namespace) -> int:
    world = build_world(scale=args.scale, seed=args.seed)
    scanner = world.make_scanner()
    zone = args.zone or world.scan_list[0].to_text()
    result = scanner.scan_zone(zone)
    assessment = assess_zone(result)
    print(f"zone:            {assessment.zone}")
    print(f"status:          {assessment.status.value}")
    if assessment.status_detail:
        print(f"status detail:   {assessment.status_detail.value}")
    print(f"eligibility:     {assessment.eligibility.value}")
    print(f"signal outcome:  {assessment.signal_outcome.value}")
    print(f"CDS present:     {assessment.cds.present}")
    print(f"CDS consistent:  {assessment.cds.consistent}")
    print(f"CDS delete:      {assessment.cds.is_delete}")
    for entry in assessment.signal.per_ns:
        print(
            f"signal @ {entry.ns_host}: present={entry.present} "
            f"chain={entry.chain_status.value} sigs_valid={entry.sigs_valid} "
            f"cut={entry.has_zone_cut}"
        )
    return 0


# -- store status|diff|reanalyze: the campaign warehouse -----------------------


def cmd_store_status(args: argparse.Namespace) -> int:
    """Inspect a campaign store (existence always checked; --verify
    re-hashes every shard against its manifest digest)."""
    reader = StoreReader(args.store, verify_digests=args.verify)
    print(reader.summary().render())
    if args.verify:
        print("integrity: all shard digests verified")
    return 0


def cmd_store_diff(args: argparse.Namespace) -> int:
    """Longitudinal comparison of two stored campaigns."""
    print(render_diff(diff_stores(StoreReader(args.old), StoreReader(args.new))))
    return 0


def cmd_store_reanalyze(args: argparse.Namespace) -> int:
    """Stream a stored campaign back through the analysis pipeline."""
    report = StoreReader(args.store, verify_digests=args.verify).reanalyze()
    print(f"analysed {report.total_scanned} stored results")
    for status, count in sorted(report.tally("status").items(), key=lambda kv: -kv[1]):
        print(f"  {status.value:<12} {count}")
    for outcome, count in sorted(report.tally("outcome").items(), key=lambda kv: -kv[1]):
        if outcome.value != "no_signal":
            print(f"  signal:{outcome.value:<28} {count}")
    return 0


# -- query index|get|list|dashboard|verify|serve (repro.query) -----------------


def cmd_query_index(args: argparse.Namespace) -> int:
    """Compact a campaign store — or each complete epoch store of a
    monitor root — into its query snapshot.

    Operators are attributed from the profile catalogue — no world is
    built; each store's own manifest says whether the adversarial
    scenario operators belong to it."""
    with _query_session(args) as hub:
        for store in indexed_stores(args.store):
            db = None if args.no_operators else build_operator_db(is_adversarial(store))
            snapshot = build_index(store, operator_db=db, telemetry=hub)
            print(
                f"indexed {snapshot.records} zones into {snapshot.num_buckets} buckets "
                f"under {index_dir(store)}"
            )
    return 0


def cmd_query_get(args: argparse.Namespace) -> int:
    """Point lookup: one zone's status view (or full record with --full)."""
    with _query_session(args) as hub, QueryService(args.store, telemetry=hub) as service:
        view = service.zone_status(args.zone)
        if view is not None and args.full:
            record = service.zone_record(args.zone)
        stale = service.check_stale()
    if view is None:
        print(f"zone {args.zone} is not in the snapshot")
        return 1
    print(serialize.result_to_line(record) if args.full else view.render())
    if stale:
        print(
            "(snapshot is stale: the store has newer records — rebuild "
            f"with: repro-dnssec query index --store {args.store})"
        )
    return 0


def cmd_query_list(args: argparse.Namespace) -> int:
    """Enumerate zones by status class or operator (a meta-row scan)."""
    with _query_session(args) as hub, QueryService(args.store, telemetry=hub) as service:
        if args.status:
            zones = service.zones_with_status(args.status)
            label = f"status={args.status}"
        elif args.operator:
            zones = service.zones_for_operator(args.operator)
            label = f"operator={args.operator}"
            if not zones:
                # Names come only from attribution: no zone means no such operator.
                print(f"no zone in the snapshot is attributed to operator {args.operator!r}")
                return 1
        else:
            counts = service.report().tally("status")
            for status, count in sorted(counts.items(), key=lambda kv: -kv[1]):
                print(f"  {status.value:<12} {count}")
            print(f"{sum(counts.values())} zones indexed")
            return 0
    shown = zones if args.limit == 0 else zones[: args.limit]
    for zone in shown:
        print(zone)
    if len(zones) > len(shown):
        print(f"... {len(zones)} zones total ({label})")
    return 0


def cmd_query_dashboard(args: argparse.Namespace) -> int:
    """Per-operator deployment dashboard from the snapshot's meta rows."""
    with _query_session(args) as hub, QueryService(args.store, telemetry=hub) as service:
        print(zone_status_dashboard(service, limit=args.limit))
    return 0


def cmd_query_verify(args: argparse.Namespace) -> int:
    """Re-hash every snapshot file against its recorded digest."""
    try:
        snapshot = verify_snapshot(args.store)
    except QueryError as exc:
        # The verb's verdict, not a usage error: exit 1, as for a failed check.
        print(f"snapshot verification failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"snapshot OK: {snapshot.records} zones, {snapshot.num_buckets} buckets, "
        "all digests verified"
    )
    return 0


def cmd_query_serve(args: argparse.Namespace) -> int:
    """Serve lookups for zone names read line-by-line from stdin."""
    with _query_session(args) as hub, QueryService(args.store, telemetry=hub) as service:
        print(service.summary())
        print("reading zone names from stdin (one per line) ...", flush=True)
        served = 0
        for line in sys.stdin:
            zone = line.strip()
            if not zone:
                continue
            view = service.zone_status(zone)
            if view is None:
                print(f"{zone}\tNXDOMAIN")
            else:
                print(
                    f"{view.zone}\t{view.status}\t{view.eligibility}\t"
                    f"{view.outcome}\t{view.operator}"
                )
            served += 1
    print(f"served {served} lookups", flush=True)
    return 0


# -- the command table ---------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One leaf verb.  *failure* replaces the ``ERRORS`` message prefix
    where the verb has always named what it could not do."""

    path: Tuple[str, ...]
    help: str
    handler: Callable[[argparse.Namespace], int]
    flags: Tuple[Flag, ...] = ()
    failure: Optional[str] = None


def command(path: str, help: str, handler, *flags: Flag, failure=None) -> Command:
    return Command(tuple(path.split()), help, handler, flags, failure)


# Help line of each command family (a path prefix shared by several verbs).
FAMILIES: Dict[str, str] = {
    "campaign": "run, resume, and inspect scan campaigns",
    "monitor": "continuous monitoring: epoch-based delta campaigns",
    "agent": "the RFC 9615 parental agent: provision DS for verified signals",
    "store": "sharded campaign warehouse (checkpoint/resume/diff)",
    "query": "read-serving plane: indexed per-zone status lookups",
}

# One row per leaf verb, in `--help` order; a verb's own arguments are
# flag(...) rows inline, in the order its usage line shows them.
COMMANDS: Tuple[Command, ...] = (
    command("campaign run", "run one campaign (in-memory report, or persisted with --store)",
            cmd_campaign_run,
            FLAGS["store"].but(required=False, help="persist results into this store"), *_WORLD,
            flag("--artifact", choices=(*ARTIFACTS, "all"), default="all"),
            *_shared("no_recheck shards checkpoint_every no_gzip stop_after telemetry workers "
                     "in_flight transport scenarios chaos retries")),
    command("campaign resume", "finish an interrupted campaign from its manifest",
            cmd_campaign_resume,
            FLAGS["store"],
            FLAGS["workers"].but(
                help="resume with N worker processes (default: the campaign's recorded count)"),
            FLAGS["telemetry"].but(
                help="stream telemetry for the resumed remainder (implied when the "
                "campaign was started with --telemetry)"),
            FLAGS["in_flight"].but(
                default=None,
                help=_IN_FLIGHT_HELP + " (default: the campaign's recorded value)"),
            *_shared("chaos retries")),
    command("campaign stats", "render a campaign telemetry report from a store",
            cmd_campaign_stats, FLAGS["store"], failure="cannot read campaign telemetry"),
    command("monitor init", "create a monitor root over an evolving world",
            cmd_monitor_init,
            FLAGS["store"].but(help="monitor root directory to create"), *_WORLD,
            flag("--monitor-seed", type=int, default=1,
                 help="seed for the operator-behaviour event stream (default 1)"),
            flag("--event-rate-scale", type=float, default=1.0,
                 help="multiply every per-zone weekly event rate (tiny test worlds "
                 "need >1 to see events at all)"),
            *_shared("shards checkpoint_every no_gzip"),
            FLAGS["telemetry"].but(
                help="stream monitor.* counters and per-epoch spans into <root>/events/"),
            FLAGS["workers"].but(help="scan each epoch with N worker processes"),
            *_shared("in_flight transport scenarios"),
            failure="cannot initialise monitor"),
    command("monitor advance", "advance the monitor by N simulated weeks",
            cmd_monitor_advance, _MONITOR_ROOT,
            flag("--epochs", type=int, default=1,
                 help="how many epochs to advance (an interrupted epoch is resumed "
                 "first and counts as one)"),
            flag("--agent", action="store_true",
                 help="run the RFC 9615 parental agent after each completed epoch "
                 "(verified installs feed the next epoch's change feed)")),
    command("monitor status", "per-epoch completion and event summary",
            cmd_monitor_status, _MONITOR_ROOT),
    command("monitor diff", "epoch-over-epoch classification diff",
            cmd_monitor_diff, _MONITOR_ROOT,
            flag("--old", type=int, default=None, help="earlier epoch (default: new - 1)"),
            flag("--new", type=int, default=None, help="later epoch (default: last complete)"),
            flag("--checks", action="store_true",
                 help="also run the paper shape checks on the new epoch's merged view "
                 "(failures name the diverging epoch/table)"),
            failure="monitor diff failed"),
    command("agent run", "act on a completed epoch (re-authenticate, provision, verify)",
            cmd_agent_run, _MONITOR_ROOT,
            flag("--epoch", type=int, default=None,
                 help="completed epoch to act on (default: newest complete)"),
            FLAGS["telemetry"].but(help="append agent.* counters to <root>/events/agent.jsonl")),
    command("agent status", "convergence report over the actions ledger",
            cmd_agent_status, _MONITOR_ROOT),
    command("agent actions", "dump ledger entries as canonical JSON lines",
            cmd_agent_actions, _MONITOR_ROOT,
            flag("--epoch", type=int, default=None, help="only this epoch's decisions"),
            flag("--action", choices=("secured", "rejected"), default=None,
                 help="only decisions with this outcome")),
    command("experiments", "regenerate every paper artefact and run its shape checks",
            cmd_experiments,
            FLAGS["scale"].but(default=1e-4, help="population scale (default 1e-4, calibrated)"),
            flag("--only", metavar="IDS", help="comma-separated ids (default: all)"),
            flag("--out", default="experiments", metavar="DIR")),
    command("audit", "audit one zone's AB readiness", cmd_audit, *_WORLD,
            flag("--zone", help="zone name (defaults to the first in the world)")),
    command("store status", "inspect a campaign store", cmd_store_status, FLAGS["store"],
            flag("--verify", action="store_true",
                 help="re-hash every shard against the manifest")),
    command("store diff", "longitudinal diff of two stored campaigns", cmd_store_diff,
            flag("--old", required=True, help="earlier campaign store"),
            flag("--new", required=True, help="later campaign store")),
    command("store reanalyze", "stream a stored campaign through the pipeline",
            cmd_store_reanalyze, FLAGS["store"], flag("--verify", action="store_true")),
    command("query index", "compact a store into its query snapshot",
            cmd_query_index, FLAGS["store"],
            flag("--no-operators", action="store_true",
                 help="skip operator attribution (zones attribute to 'unknown')"),
            failure="cannot index store"),
    command("query get", "point lookup for one zone", cmd_query_get, FLAGS["store"],
            flag("zone", help="zone name (with or without trailing dot)"),
            flag("--full", action="store_true", help="print the full archived record as JSON")),
    command("query list", "enumerate zones by status class or operator",
            cmd_query_list, FLAGS["store"],
            flag("--status", choices=[status.value for status in DnssecStatus],
                 help="status class (e.g. island, secure)"),
            flag("--operator", help="operator name (e.g. Cloudflare)"),
            flag("--limit", type=int, default=50, help="0 = all")),
    command("query dashboard", "per-operator deployment dashboard",
            cmd_query_dashboard, FLAGS["store"], flag("--limit", type=int, default=20, help="0 = all")),
    command("query verify", "re-hash the snapshot against its digests",
            cmd_query_verify, FLAGS["store"]),
    command("query serve", "answer zone lookups read from stdin",
            cmd_query_serve, FLAGS["store"], failure="cannot serve"),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser the two tables describe: one sub-parser per path prefix
    (families first seen, in table order), one argument per flag row."""
    root = argparse.ArgumentParser(
        prog="repro-dnssec",
        description="Reproduce 'Measuring the Deployment of DNSSEC Bootstrapping "
        "Using Authenticated Signals' (IMC 2025) on a synthetic DNS ecosystem.",
    )
    parsers: Dict[Tuple[str, ...], argparse.ArgumentParser] = {(): root}
    choosers: Dict[Tuple[str, ...], Any] = {}
    for row in COMMANDS:
        for depth in range(len(row.path)):
            family, path = row.path[:depth], row.path[: depth + 1]
            if path in parsers:
                continue
            if family not in choosers:
                choosers[family] = parsers[family].add_subparsers(
                    dest="_".join((*family, "command")), required=True
                )
            help = row.help if path == row.path else FAMILIES[" ".join(path)]
            parsers[path] = choosers[family].add_parser(path[-1], help=help)
        for each in row.flags:
            parsers[row.path].add_argument(*each.strings, **each.kwargs)
        parsers[row.path].set_defaults(row=row)
    return root


# What a handler may let escape → (stderr message prefix, exit code); the
# first matching row wins.  Exit 2 is "you asked for something that cannot
# be done" (no such store, a refused flag combination), 1 "it ran and the
# answer is no".  Anything not listed is a bug and keeps its traceback.
ERRORS: Tuple[Tuple[type, str, int], ...] = (
    (AgentError, "agent run failed", 1),
    (MonitorError, "cannot open monitor", 2),
    (QueryError, "query failed", 2),
    (StoreError, "cannot read campaign store", 2),
    (ValueError, "invalid campaign configuration", 2),  # CampaignConfig.validate()
)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.row.handler(args)
    except tuple(kind for kind, _, _ in ERRORS) as exc:
        prefix, code = next((p, c) for kind, p, c in ERRORS if isinstance(exc, kind))
        print(f"{args.row.failure or prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
