"""Command line interface: regenerate the paper's tables and figures.

Canonical command families::

    repro-dnssec campaign run --scale 1e-5 --artifact all
    repro-dnssec campaign run --store ./campaign --workers 4
    repro-dnssec campaign resume --store ./campaign
    repro-dnssec campaign stats --store ./campaign
    repro-dnssec monitor init --store ./monitor --scale 1e-5
    repro-dnssec monitor advance --store ./monitor --epochs 3
    repro-dnssec monitor diff --store ./monitor
    repro-dnssec experiments --scale 1e-4 --out docs/experiments

Every subcommand spells its store flag ``--store`` (``--dir`` is
accepted as a synonym) and shares the ``--workers`` / ``--in-flight`` /
``--transport`` / ``--chaos`` / ``--retries`` vocabulary.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.ecosystem.world import build_world
from repro.reports import ARTIFACTS, check_shapes, compute_table3, render_artifacts


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1e-5,
        help="population scale relative to the paper's 287.6M zones (default 1e-5)",
    )
    parser.add_argument("--seed", type=int, default=1, help="world seed (default 1)")


def _add_store(
    parser: argparse.ArgumentParser, required: bool = True, help: Optional[str] = None
) -> None:
    """The uniform store flag: ``--store``, with ``--dir`` kept as a
    compatible synonym for scripts written against the old spelling."""
    parser.add_argument(
        "--store",
        "--dir",
        dest="store",
        required=required,
        help=help or "campaign store directory",
    )


def _add_workers(parser: argparse.ArgumentParser, help: Optional[str] = None) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=help or "scan with N worker processes (same report, less wall-clock)",
    )


def _chaos_spec(value: str):
    """argparse type for --chaos: 'off', 'default', or 'field=value,...'."""
    from repro.chaos import ChaosConfig

    try:
        return ChaosConfig.from_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _retry_spec(value: str):
    """argparse type for --retries: 'off', 'default', N, or 'field=value,...'."""
    from repro.chaos import RetryPolicy

    try:
        return RetryPolicy.from_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_chaos(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos",
        type=_chaos_spec,
        default=None,
        metavar="SPEC",
        help="inject faults: 'default', or 'loss=0.1,servfail=0.05,...' "
        "(seeded and replayable; the report still matches the fault-free run)",
    )
    parser.add_argument(
        "--retries",
        type=_retry_spec,
        default=None,
        metavar="SPEC",
        help="retry/backoff policy: 'default', a max attempt count, or "
        "'attempts=4,base=0.25,...' (implied by --chaos)",
    )


def _scenario_spec(value: str):
    """argparse type for --scenarios: 'off', 'default', or 'field=value,...'."""
    from repro.scenarios import ScenarioSpec

    try:
        return ScenarioSpec.from_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_scenarios(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenarios",
        type=_scenario_spec,
        default=None,
        metavar="SPEC",
        help="key-transition & adversarial operator plane (repro.scenarios): "
        "'default', or 'seed=2,intensity=4,mishap=0.3,transitions=false,...' "
        "(seeded; worlds are identical across layouts and resume)",
    )


def _add_in_flight(parser: argparse.ArgumentParser, default: Optional[int] = 1) -> None:
    parser.add_argument(
        "--in-flight",
        type=int,
        default=default,
        metavar="N",
        help="overlap up to N zones per scan machine on the deterministic "
        "event loop (repro.sched); 1 is the serial scan, and the report is "
        "byte-identical to it for any N — only the simulated duration drops"
        + ("" if default else " (default: the campaign's recorded value)"),
    )


def _add_transport(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transport",
        choices=("sim", "wire"),
        default="sim",
        help="message transport: 'sim' moves wire-format messages through "
        "the in-memory fabric; 'wire' (repro.wire) hosts the authoritative "
        "fleet on real loopback sockets and scans over non-blocking UDP/TCP "
        "serviced by the scan loop itself (one thread, one selector) — "
        "same analysis tables, real I/O",
    )


# -- canonical campaign family ----------------------------------------------


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


def _campaign_config(args: argparse.Namespace, store_dir, telemetry):
    from repro.campaign import CampaignConfig

    return CampaignConfig(
        scale=args.scale,
        seed=args.seed,
        recheck=not args.no_recheck,
        store_dir=store_dir,
        checkpoint_every=args.checkpoint_every,
        num_shards=args.shards,
        compress=not args.no_gzip,
        stop_after=args.stop_after or None,
        workers=args.workers or None,
        in_flight=args.in_flight,
        telemetry=telemetry,
        chaos=args.chaos,
        retry=args.retries,
        transport=args.transport,
        scenarios=args.scenarios,
    )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """One campaign, in-memory or store-backed.

    Without ``--store`` the campaign runs in memory and prints the
    selected report artifacts; with ``--store`` results are persisted
    shard-by-shard and the store summary is printed.
    """
    from repro.campaign import run_campaign
    from repro.parallel import ParallelCampaignError

    telemetry: object = False
    if args.telemetry:
        from repro.obs import Telemetry

        telemetry = Telemetry()
        telemetry.on_heartbeat = _heartbeat_printer

    store = args.store
    if store is None:
        if args.workers:
            # Parallel execution needs a store for the workers to commit
            # into; the report itself is byte-identical to the sequential
            # one, so a throwaway directory is all we need.
            import tempfile
            from pathlib import Path

            with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
                campaign = run_campaign(_campaign_config(args, Path(tmp) / "store", telemetry))
        else:
            campaign = run_campaign(_campaign_config(args, None, telemetry))
        _print_artifacts(campaign, args.artifact)
        return 0

    try:
        config = _campaign_config(args, store, telemetry)
        config.validate()
    except ValueError as exc:
        print(f"invalid campaign configuration: {exc}", file=sys.stderr)
        return 2
    try:
        campaign = run_campaign(config)
    except ParallelCampaignError as exc:
        print(exc)
        print(f"\nfinish with: repro-dnssec campaign resume --store {store}")
        return 1
    from repro.store import StoreReader

    summary = StoreReader(store).summary()
    print(summary.render())
    if summary.status != "complete":
        print(
            f"\ncampaign interrupted; finish with: "
            f"repro-dnssec campaign resume --store {store}"
        )
    else:
        print(f"\n{len(campaign.rechecked)} transient failures resolved on re-check")
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Finish an interrupted campaign from its manifest.

    Campaigns started with ``--workers`` resume in parallel with the
    recorded worker count; ``--workers`` here overrides it (any subset
    of crashed workers is tolerated — finished shares are skipped).
    """
    from repro.campaign import resume_campaign
    from repro.store import StoreReader

    telemetry = None
    if args.telemetry:
        from repro.obs import Telemetry

        telemetry = Telemetry()
        telemetry.on_heartbeat = _heartbeat_printer
    campaign = resume_campaign(
        args.store,
        workers=args.workers or None,
        telemetry=telemetry,
        chaos=args.chaos,
        retry=args.retries,
        in_flight=args.in_flight,
    )
    print(StoreReader(args.store).summary().render())
    print(f"\n{len(campaign.rechecked)} transient failures resolved on re-check")
    return 0


def cmd_campaign_stats(args: argparse.Namespace) -> int:
    """Render a campaign telemetry report from a store's event streams."""
    from repro.obs import collect_stats, render_stats
    from repro.store import StoreError

    try:
        stats = collect_stats(args.store)
    except StoreError as exc:
        print(f"cannot read campaign telemetry: {exc}", file=sys.stderr)
        return 2
    print(render_stats(stats))
    return 0


# -- continuous monitoring (repro.monitor) -----------------------------------


def cmd_monitor_init(args: argparse.Namespace) -> int:
    """Create a monitor root: an evolving world observed week by week."""
    from repro.monitor import Monitor, MonitorConfig, MonitorError, MonitorSpec

    spec = MonitorSpec(seed=args.monitor_seed, scenarios=getattr(args, "scenarios", None))
    if args.event_rate_scale != 1.0:
        spec = spec.scaled(args.event_rate_scale)
    config = MonitorConfig(
        root=args.store,
        scale=args.scale,
        seed=args.seed,
        monitor=spec,
        workers=args.workers or None,
        in_flight=args.in_flight,
        transport=args.transport,
        telemetry=args.telemetry,
        checkpoint_every=args.checkpoint_every,
        num_shards=args.shards,
        compress=not args.no_gzip,
    )
    try:
        monitor = Monitor.init(config)
    except MonitorError as exc:
        print(f"cannot initialise monitor: {exc}", file=sys.stderr)
        return 2
    print(monitor.status().render())
    print(f"\nadvance with: repro-dnssec monitor advance --store {args.store}")
    return 0


def cmd_monitor_advance(args: argparse.Namespace) -> int:
    """Advance the monitor by N simulated weeks (delta campaigns).

    An interrupted epoch is resumed first and counts as one of the N.
    """
    from repro.monitor import Monitor, MonitorError

    try:
        monitor = Monitor.open(args.store)
    except MonitorError as exc:
        print(f"cannot open monitor: {exc}", file=sys.stderr)
        return 2
    agent = None
    if getattr(args, "agent", False):
        from repro.agent import Agent

        agent = Agent()
    remaining = args.epochs
    results = []
    try:
        if monitor.in_progress_epoch() is not None:
            epoch = monitor.in_progress_epoch()
            print(f"resuming interrupted epoch {epoch} ...")
            results.append(monitor.resume(agent=agent))
            remaining -= 1
        while remaining > 0:
            results.append(monitor.run_epoch(agent=agent))
            remaining -= 1
    except MonitorError as exc:
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
    from repro.monitor import Monitor, MonitorError

    try:
        monitor = Monitor.open(args.store)
    except MonitorError as exc:
        print(f"cannot open monitor: {exc}", file=sys.stderr)
        return 2
    print(monitor.status().render())
    return 0


def cmd_monitor_diff(args: argparse.Namespace) -> int:
    """Epoch-over-epoch classification diff (merged views, not raw stores)."""
    from repro.monitor import Monitor, MonitorError, render_epoch_diff

    try:
        monitor = Monitor.open(args.store)
        epoch_diff = monitor.diff(old=args.old, new=args.new)
    except MonitorError as exc:
        print(f"monitor diff failed: {exc}", file=sys.stderr)
        return 2
    print(render_epoch_diff(epoch_diff))
    if args.checks:
        # Shape checks over the new epoch's merged view: a failure names
        # the diverging epoch/table pair (see repro.reports.compare).
        report = monitor.analyze(epoch=epoch_diff.new_epoch)
        checks = check_shapes(
            report, compute_table3(report), epoch=epoch_diff.new_epoch
        )
        print()
        for check in checks:
            print(check)
        failed = [c for c in checks if not c.passed]
        print(f"\n{len(checks) - len(failed)}/{len(checks)} shape checks passed")
        return 1 if failed else 0
    return 0


# -- the parental agent: repro-dnssec agent run|status|actions ---------------


def _open_monitor(store):
    from repro.monitor import Monitor, MonitorError

    try:
        return Monitor.open(store), None
    except MonitorError as exc:
        return None, exc


def cmd_agent_run(args: argparse.Namespace) -> int:
    """Act on a completed epoch: re-authenticate, provision, verify."""
    from repro.agent import Agent, AgentError
    from repro.obs import as_telemetry, stream_path

    monitor, error = _open_monitor(args.store)
    if monitor is None:
        print(f"cannot open monitor: {error}", file=sys.stderr)
        return 2
    telemetry = as_telemetry(args.telemetry)
    try:
        run = Agent().run(monitor, epoch=args.epoch, telemetry=telemetry)
    except AgentError as exc:
        print(f"agent run failed: {exc}", file=sys.stderr)
        return 1
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
    from repro.agent import compute_convergence, ledger_path, read_ledger, render_convergence

    monitor, error = _open_monitor(args.store)
    if monitor is None:
        print(f"cannot open monitor: {error}", file=sys.stderr)
        return 2
    ledger = read_ledger(ledger_path(monitor.root))
    if not ledger:
        print("no agent actions recorded yet")
        return 0
    print(render_convergence(compute_convergence(ledger)))
    return 0


def cmd_agent_actions(args: argparse.Namespace) -> int:
    """Dump ledger entries (canonical JSON lines, filterable)."""
    from repro.agent import ledger_path, read_ledger

    monitor, error = _open_monitor(args.store)
    if monitor is None:
        print(f"cannot open monitor: {error}", file=sys.stderr)
        return 2
    for action in read_ledger(ledger_path(monitor.root)):
        if args.epoch is not None and action.epoch != args.epoch:
            continue
        if args.action is not None and action.action != args.action:
            continue
        print(action.to_line())
    return 0


# -- one-shot inspection commands -------------------------------------------


def cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate the paper's artefacts and run their shape checks."""
    from repro import experiments

    return experiments.main(args.scale, args.only, args.out)


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.core import assess_zone

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


def cmd_scan(args: argparse.Namespace) -> int:
    """Scan a world and dump the raw results as JSON lines.

    Results stream straight from the scanner to disk (gzipped when the
    output path ends in ``.gz``) — nothing is held in memory.
    """
    from repro.scanner.serialize import dump_results, open_results_write

    world = build_world(scale=args.scale, seed=args.seed)
    scanner = world.make_scanner()
    zones = world.scan_list[: args.limit] if args.limit else world.scan_list
    with open_results_write(args.output) as fp:
        count = dump_results(scanner.scan_iter(zones), fp)
    print(
        f"scanned {count} zones ({world.network.queries_sent} queries) -> {args.output}"
    )
    return 0


def _print_report_summary(report) -> None:
    print(f"analysed {report.total_scanned} stored results")
    for status, count in sorted(report.status_counts.items(), key=lambda kv: -kv[1]):
        print(f"  {status.value:<12} {count}")
    for outcome, count in sorted(report.outcome_counts.items(), key=lambda kv: -kv[1]):
        if outcome.value != "no_signal":
            print(f"  signal:{outcome.value:<28} {count}")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Re-analyse stored scan results offline (no network, no world).

    Streams the file through the pipeline in O(1) memory; gzip input is
    auto-detected, truncated trailing lines (crash artefacts) are
    skipped and counted unless ``--strict``.
    """
    from repro.core import AnalysisPipeline
    from repro.scanner.serialize import LoadStats, load_results_path

    stats = LoadStats()
    report = AnalysisPipeline().analyze(
        load_results_path(args.input, strict=args.strict, stats=stats)
    )
    _print_report_summary(report)
    if stats.skipped:
        print(f"  (skipped {stats.skipped} corrupt record(s))")
    return 0


# -- campaign warehouse ------------------------------------------------------


def cmd_store_status(args: argparse.Namespace) -> int:
    """Inspect a campaign store (existence always checked; --verify
    re-hashes every shard against its manifest digest)."""
    from repro.store import StoreReader

    reader = StoreReader(args.store, verify_digests=args.verify)
    print(reader.summary().render())
    if args.verify:
        print("integrity: all shard digests verified")
    return 0


def cmd_store_diff(args: argparse.Namespace) -> int:
    """Longitudinal comparison of two stored campaigns."""
    from repro.store import StoreReader, diff_stores, render_diff

    diff = diff_stores(StoreReader(args.old), StoreReader(args.new))
    print(render_diff(diff))
    return 0


def cmd_store_reanalyze(args: argparse.Namespace) -> int:
    """Stream a stored campaign back through the analysis pipeline."""
    from repro.store import StoreReader

    report = StoreReader(args.store, verify_digests=args.verify).reanalyze()
    _print_report_summary(report)
    return 0


# -- read-serving plane (repro.query) ----------------------------------------


def _campaign_operator_db(store_dir=None):
    """The same operator DB every world carries — the profile catalogue
    is seed/scale-independent, so no world build is needed to attribute
    operators during an index build.  When *store_dir* is given, the
    manifest decides whether the adversarial scenario operators join
    the catalogue (their suffixes only ever match scenario zones)."""
    from repro.core.operators import OperatorDB
    from repro.ecosystem.profiles import build_profiles, operator_db_config

    adversarial = False
    if store_dir is not None:
        try:
            from pathlib import Path

            from repro.store.manifest import load_manifest

            config = load_manifest(Path(store_dir)).config
            monitor = config.get("monitor") or {}
            adversarial = (
                config.get("scenarios") is not None
                or monitor.get("scenarios") is not None
            )
        except Exception:
            adversarial = False
    suffixes, _ = operator_db_config(build_profiles(adversarial=adversarial))
    return OperatorDB(suffixes=suffixes)


def cmd_query_index(args: argparse.Namespace) -> int:
    """Compact a campaign store into its query snapshot."""
    from repro.obs import Telemetry, stream_path
    from repro.query import build_index
    from repro.store import StoreError

    telemetry = Telemetry()
    operator_db = None if args.no_operators else _campaign_operator_db(args.store)
    try:
        snapshot = build_index(args.store, operator_db=operator_db, telemetry=telemetry)
    except StoreError as exc:
        print(f"cannot index store: {exc}", file=sys.stderr)
        return 2
    telemetry.end_session(stream_path(args.store, "query"))
    print(
        f"indexed {snapshot.records} zones into {snapshot.num_buckets} buckets "
        f"under {args.store}/index"
    )
    return 0


def cmd_query_get(args: argparse.Namespace) -> int:
    """Point lookup: one zone's status view (or full record with --full)."""
    from repro.obs import Telemetry, stream_path
    from repro.query import QueryError, QueryService
    from repro.scanner.serialize import result_to_line

    telemetry = Telemetry()
    try:
        with QueryService(args.store, telemetry=telemetry) as service:
            view = service.zone_status(args.zone)
            if view is not None and args.full:
                record = service.zone_record(args.zone)
            stale = service.check_stale()
    except QueryError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    telemetry.end_session(stream_path(args.store, "query"))
    if view is None:
        print(f"zone {args.zone} is not in the snapshot")
        return 1
    if args.full:
        print(result_to_line(record))
    else:
        print(view.render())
    if stale:
        print(
            "(snapshot is stale: the store has newer records — rebuild "
            f"with: repro-dnssec query index --store {args.store})"
        )
    return 0


def cmd_query_list(args: argparse.Namespace) -> int:
    """Enumerate zones by status class or operator (columnar scan)."""
    from repro.obs import Telemetry, stream_path
    from repro.query import QueryError, QueryService

    telemetry = Telemetry()
    try:
        with QueryService(args.store, telemetry=telemetry) as service:
            if args.status:
                zones = service.zones_with_status(args.status)
                label = f"status={args.status}"
            elif args.operator:
                zones = service.zones_for_operator(args.operator)
                label = f"operator={args.operator}"
            else:
                counts = service.status_counts()
                for status, count in sorted(counts.items(), key=lambda kv: -kv[1]):
                    print(f"  {status:<12} {count}")
                print(f"{sum(counts.values())} zones indexed")
                telemetry.end_session(stream_path(args.store, "query"))
                return 0
    except QueryError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    telemetry.end_session(stream_path(args.store, "query"))
    shown = zones if args.limit == 0 else zones[: args.limit]
    for zone in shown:
        print(zone)
    if len(zones) > len(shown):
        print(f"... {len(zones)} zones total ({label})")
    return 0


def cmd_query_dashboard(args: argparse.Namespace) -> int:
    """Per-operator deployment dashboard from the columnar sidecars."""
    from repro.obs import Telemetry, stream_path
    from repro.query import QueryError, QueryService
    from repro.reports.dashboard import zone_status_dashboard

    telemetry = Telemetry()
    try:
        with QueryService(args.store, telemetry=telemetry) as service:
            print(zone_status_dashboard(service, limit=args.limit))
    except QueryError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    telemetry.end_session(stream_path(args.store, "query"))
    return 0


def cmd_query_verify(args: argparse.Namespace) -> int:
    """Re-hash every snapshot file against its recorded digest."""
    from repro.query import QueryError, verify_snapshot

    try:
        snapshot = verify_snapshot(args.store)
    except QueryError as exc:
        print(f"snapshot verification failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"snapshot OK: {snapshot.records} zones, {snapshot.num_buckets} buckets, "
        "all digests verified"
    )
    return 0


def cmd_query_serve(args: argparse.Namespace) -> int:
    """Serve lookups for zone names read line-by-line from stdin."""
    from repro.obs import Telemetry, stream_path
    from repro.query import QueryError, QueryService

    telemetry = Telemetry()
    try:
        service = QueryService(args.store, telemetry=telemetry)
    except QueryError as exc:
        print(f"cannot serve: {exc}", file=sys.stderr)
        return 2
    with service:
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
    telemetry.end_session(stream_path(args.store, "query"))
    print(f"served {served} lookups", flush=True)
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    """Play registry: run an acceptance policy and provision DS RRsets."""
    from collections import Counter

    from repro.provisioning import (
        AcceptAfterDelayPolicy,
        AcceptFromInceptionPolicy,
        AcceptWithChallengePolicy,
        AuthenticatedBootstrapPolicy,
        BootstrapEngine,
    )

    policies = {
        "rfc9615": AuthenticatedBootstrapPolicy,
        "delay": AcceptAfterDelayPolicy,
        "challenge": AcceptWithChallengePolicy,
        "inception": AcceptFromInceptionPolicy,
    }
    world = build_world(scale=args.scale, seed=args.seed)
    engine = BootstrapEngine(world, policies[args.policy]())
    run = engine.run()
    print(f"policy:    {run.policy}")
    print(f"evaluated: {run.evaluated}")
    print(f"accepted:  {len(run.accepted)}")
    print(f"secured:   {len(run.secured)} (verified by re-scan)")
    print(f"deferred:  {len(run.deferred)}")
    print(f"rejected:  {len(run.rejected)}")
    for reason, count in Counter(run.rejected.values()).most_common(8):
        print(f"  {count:>6}  {reason}")
    return 0


def cmd_list_zones(args: argparse.Namespace) -> int:
    world = build_world(scale=args.scale, seed=args.seed)
    for name in world.scan_list[: args.limit]:
        spec = world.specs[name.to_text().rstrip(".")]
        print(f"{name.to_text():<70} {spec.operator:<18} {spec.status.value}")
    print(f"... {world.zone_count} zones total")
    return 0


# -- parser ------------------------------------------------------------------


def _add_campaign_run_options(parser: argparse.ArgumentParser) -> None:
    """The full campaign-run vocabulary."""
    _add_common(parser)
    parser.add_argument("--artifact", choices=(*ARTIFACTS, "all"), default="all")
    parser.add_argument(
        "--no-recheck", action="store_true", help="skip the transient re-check pass"
    )
    parser.add_argument("--shards", type=int, default=None, help="zone-hash buckets")
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, help="records per durable commit"
    )
    parser.add_argument("--no-gzip", action="store_true", help="store plain JSONL shards")
    parser.add_argument(
        "--stop-after",
        type=int,
        default=0,
        help="abort after N zones, leaving the store resumable (crash stand-in)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="stream deterministic telemetry events into <store>/events/",
    )
    _add_workers(parser)
    _add_in_flight(parser)
    _add_transport(parser)
    _add_scenarios(parser)
    _add_chaos(parser)


def _add_campaign_resume_options(parser: argparse.ArgumentParser) -> None:
    _add_workers(
        parser,
        help="resume with N worker processes (default: the campaign's recorded count)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="stream telemetry for the resumed remainder (implied when the "
        "campaign was started with --telemetry)",
    )
    _add_in_flight(parser, default=None)
    _add_chaos(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dnssec",
        description="Reproduce 'Measuring the Deployment of DNSSEC Bootstrapping "
        "Using Authenticated Signals' (IMC 2025) on a synthetic DNS ecosystem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -- canonical: repro-dnssec campaign run|resume|stats
    campaign = sub.add_parser(
        "campaign", help="run, resume, and inspect scan campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="run one campaign (in-memory report, or persisted with --store)"
    )
    _add_store(campaign_run, required=False, help="persist results into this store")
    _add_campaign_run_options(campaign_run)
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="finish an interrupted campaign from its manifest"
    )
    _add_store(campaign_resume)
    _add_campaign_resume_options(campaign_resume)
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_stats = campaign_sub.add_parser(
        "stats", help="render a campaign telemetry report from a store"
    )
    _add_store(campaign_stats)
    campaign_stats.set_defaults(func=cmd_campaign_stats)

    # -- canonical: repro-dnssec monitor init|advance|status|diff
    monitor = sub.add_parser(
        "monitor", help="continuous monitoring: epoch-based delta campaigns"
    )
    monitor_sub = monitor.add_subparsers(dest="monitor_command", required=True)

    monitor_init = monitor_sub.add_parser(
        "init", help="create a monitor root over an evolving world"
    )
    _add_store(monitor_init, help="monitor root directory to create")
    _add_common(monitor_init)
    monitor_init.add_argument(
        "--monitor-seed",
        type=int,
        default=1,
        help="seed for the operator-behaviour event stream (default 1)",
    )
    monitor_init.add_argument(
        "--event-rate-scale",
        type=float,
        default=1.0,
        help="multiply every per-zone weekly event rate (tiny test worlds "
        "need >1 to see events at all)",
    )
    monitor_init.add_argument("--shards", type=int, default=None, help="zone-hash buckets")
    monitor_init.add_argument(
        "--checkpoint-every", type=int, default=None, help="records per durable commit"
    )
    monitor_init.add_argument(
        "--no-gzip", action="store_true", help="store plain JSONL shards"
    )
    monitor_init.add_argument(
        "--telemetry",
        action="store_true",
        help="stream monitor.* counters and per-epoch spans into <root>/events/",
    )
    _add_workers(monitor_init, help="scan each epoch with N worker processes")
    _add_in_flight(monitor_init)
    _add_transport(monitor_init)
    _add_scenarios(monitor_init)
    monitor_init.set_defaults(func=cmd_monitor_init)

    monitor_advance = monitor_sub.add_parser(
        "advance", help="advance the monitor by N simulated weeks"
    )
    _add_store(monitor_advance, help="monitor root directory")
    monitor_advance.add_argument(
        "--epochs",
        type=int,
        default=1,
        help="how many epochs to advance (an interrupted epoch is resumed "
        "first and counts as one)",
    )
    monitor_advance.add_argument(
        "--agent",
        action="store_true",
        help="run the RFC 9615 parental agent after each completed epoch "
        "(verified installs feed the next epoch's change feed)",
    )
    monitor_advance.set_defaults(func=cmd_monitor_advance)

    monitor_status = monitor_sub.add_parser(
        "status", help="per-epoch completion and event summary"
    )
    _add_store(monitor_status, help="monitor root directory")
    monitor_status.set_defaults(func=cmd_monitor_status)

    monitor_diff = monitor_sub.add_parser(
        "diff", help="epoch-over-epoch classification diff"
    )
    _add_store(monitor_diff, help="monitor root directory")
    monitor_diff.add_argument(
        "--old", type=int, default=None, help="earlier epoch (default: new - 1)"
    )
    monitor_diff.add_argument(
        "--new", type=int, default=None, help="later epoch (default: last complete)"
    )
    monitor_diff.add_argument(
        "--checks",
        action="store_true",
        help="also run the paper shape checks on the new epoch's merged view "
        "(failures name the diverging epoch/table)",
    )
    monitor_diff.set_defaults(func=cmd_monitor_diff)

    # -- canonical: repro-dnssec agent run|status|actions
    agent = sub.add_parser(
        "agent", help="the RFC 9615 parental agent: provision DS for verified signals"
    )
    agent_sub = agent.add_subparsers(dest="agent_command", required=True)

    agent_run = agent_sub.add_parser(
        "run", help="act on a completed epoch (re-authenticate, provision, verify)"
    )
    _add_store(agent_run, help="monitor root directory")
    agent_run.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="completed epoch to act on (default: newest complete)",
    )
    agent_run.add_argument(
        "--telemetry",
        action="store_true",
        help="append agent.* counters to <root>/events/agent.jsonl",
    )
    agent_run.set_defaults(func=cmd_agent_run)

    agent_status = agent_sub.add_parser(
        "status", help="convergence report over the actions ledger"
    )
    _add_store(agent_status, help="monitor root directory")
    agent_status.set_defaults(func=cmd_agent_status)

    agent_actions = agent_sub.add_parser(
        "actions", help="dump ledger entries as canonical JSON lines"
    )
    _add_store(agent_actions, help="monitor root directory")
    agent_actions.add_argument(
        "--epoch", type=int, default=None, help="only this epoch's decisions"
    )
    agent_actions.add_argument(
        "--action",
        choices=("secured", "rejected"),
        default=None,
        help="only decisions with this outcome",
    )
    agent_actions.set_defaults(func=cmd_agent_actions)

    experiments = sub.add_parser(
        "experiments", help="regenerate every paper artefact and run its shape checks"
    )
    experiments.add_argument(
        "--scale", type=float, default=1e-4, help="population scale (default 1e-4, calibrated)"
    )
    experiments.add_argument("--only", metavar="IDS", help="comma-separated ids (default: all)")
    experiments.add_argument("--out", default="experiments", metavar="DIR")
    experiments.set_defaults(func=cmd_experiments)

    audit = sub.add_parser("audit", help="audit one zone's AB readiness")
    _add_common(audit)
    audit.add_argument("--zone", help="zone name (defaults to the first in the world)")
    audit.set_defaults(func=cmd_audit)

    list_zones = sub.add_parser("list-zones", help="list generated zones")
    _add_common(list_zones)
    list_zones.add_argument("--limit", type=int, default=25)
    list_zones.set_defaults(func=cmd_list_zones)

    scan = sub.add_parser("scan", help="scan and store raw results (JSON lines)")
    _add_common(scan)
    scan.add_argument("--output", default="scan-results.jsonl")
    scan.add_argument("--limit", type=int, default=0, help="scan only the first N zones")
    scan.set_defaults(func=cmd_scan)

    analyze = sub.add_parser("analyze", help="re-analyse stored scan results offline")
    analyze.add_argument("--input", default="scan-results.jsonl")
    analyze.add_argument(
        "--strict", action="store_true", help="raise on corrupt records instead of skipping"
    )
    analyze.set_defaults(func=cmd_analyze)

    store = sub.add_parser(
        "store", help="sharded campaign warehouse (checkpoint/resume/diff)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_status = store_sub.add_parser("status", help="inspect a campaign store")
    _add_store(store_status)
    store_status.add_argument(
        "--verify", action="store_true", help="re-hash every shard against the manifest"
    )
    store_status.set_defaults(func=cmd_store_status)

    store_diff = store_sub.add_parser(
        "diff", help="longitudinal diff of two stored campaigns"
    )
    store_diff.add_argument("--old", required=True, help="earlier campaign store")
    store_diff.add_argument("--new", required=True, help="later campaign store")
    store_diff.set_defaults(func=cmd_store_diff)

    store_reanalyze = store_sub.add_parser(
        "reanalyze", help="stream a stored campaign through the pipeline"
    )
    _add_store(store_reanalyze)
    store_reanalyze.add_argument("--verify", action="store_true")
    store_reanalyze.set_defaults(func=cmd_store_reanalyze)

    query = sub.add_parser(
        "query", help="read-serving plane: indexed per-zone status lookups"
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)

    query_index = query_sub.add_parser(
        "index", help="compact a store into its query snapshot"
    )
    _add_store(query_index)
    query_index.add_argument(
        "--no-operators",
        action="store_true",
        help="skip operator attribution (zones attribute to 'unknown')",
    )
    query_index.set_defaults(func=cmd_query_index)

    query_get = query_sub.add_parser("get", help="point lookup for one zone")
    _add_store(query_get)
    query_get.add_argument("zone", help="zone name (with or without trailing dot)")
    query_get.add_argument(
        "--full", action="store_true", help="print the full archived record as JSON"
    )
    query_get.set_defaults(func=cmd_query_get)

    query_list = query_sub.add_parser(
        "list", help="enumerate zones by status class or operator"
    )
    _add_store(query_list)
    query_list.add_argument("--status", help="status class (e.g. island, secure)")
    query_list.add_argument("--operator", help="operator name (e.g. Cloudflare)")
    query_list.add_argument("--limit", type=int, default=50, help="0 = unlimited")
    query_list.set_defaults(func=cmd_query_list)

    query_dashboard = query_sub.add_parser(
        "dashboard", help="per-operator deployment dashboard"
    )
    _add_store(query_dashboard)
    query_dashboard.add_argument("--limit", type=int, default=20)
    query_dashboard.set_defaults(func=cmd_query_dashboard)

    query_verify = query_sub.add_parser(
        "verify", help="re-hash the snapshot against its digests"
    )
    _add_store(query_verify)
    query_verify.set_defaults(func=cmd_query_verify)

    query_serve = query_sub.add_parser(
        "serve", help="answer zone lookups read from stdin"
    )
    _add_store(query_serve)
    query_serve.set_defaults(func=cmd_query_serve)

    bootstrap = sub.add_parser("bootstrap", help="run a registry acceptance policy")
    _add_common(bootstrap)
    bootstrap.add_argument(
        "--policy",
        choices=("rfc9615", "delay", "challenge", "inception"),
        default="rfc9615",
    )
    bootstrap.set_defaults(func=cmd_bootstrap)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
