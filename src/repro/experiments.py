"""The paper's evaluation as one table: every artefact EXPERIMENTS.md
and DESIGN.md §4 cite is a row of :data:`EXPERIMENTS` behind one verb::

    repro-dnssec experiments [--scale S] [--only T1,M2] [--out DIR]

A row is ``(id, artefact, run)``; ``run(ctx)`` returns the artefact's
text (written to ``<out>/<artefact>.txt``) and the paper-shape
assertions that guard it, as the :class:`~repro.reports.ShapeCheck`
rows ``monitor diff --checks`` already prints.  The shared campaign
(``seed=1, recheck=True`` at ``--scale``) is built at most once, and
only if a selected row reads it; rows that edit its world undo the
edit, rows with their own world keep their constants.  Checks that only
hold once rare-case preservation stops distorting the population are
emitted at ``scale >= 9e-5`` — computed from ``--scale``, set by no one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import provisioning, reports
from repro.campaign import CampaignConfig, CampaignResult, run_campaign, scan_into
from repro.core import assess_zone
from repro.core.bootstrap import SignalOutcome
from repro.core.feasibility import estimate_feasibility, render_feasibility
from repro.core.status import DnssecStatus, classify_status
from repro.ecosystem.evolution import measure_trend
from repro.ecosystem.paper_targets import NO_DNSSEC_OPERATORS, TABLE1, TABLE3, TOTAL_DOMAINS
from repro.parallel.partition import bucket_ranges
from repro.parallel.worker import scan_machine
from repro.provisioning.engine import remove_ds
from repro.reports import ShapeCheck
from repro.reports.table3 import AB_COLUMNS
from repro.scanner import coverage
from repro.scanner.yodns import Scanner, ScannerConfig
from repro.store import DEFAULT_NUM_SHARDS

FULL_FIDELITY_SCALE = 9e-5


class Context:
    """What the rows of one ``experiments`` invocation share."""

    def __init__(self, scale: float):
        self.scale = scale
        self.full_fidelity = scale >= FULL_FIDELITY_SCALE

    @cached_property
    def campaign(self) -> CampaignResult:
        return run_campaign(CampaignConfig(scale=self.scale, seed=1, recheck=True))

    @cached_property
    def artifacts(self) -> Dict[str, str]:
        return reports.render_artifacts(self.campaign.report, self.campaign.world.targets)


class Checks(List[ShapeCheck]):
    """The shape checks of one row, stamped with its artefact."""

    def __init__(self, artefact: str):
        super().__init__()
        self.artefact = artefact

    def __call__(self, name: str, passed: bool, detail: str) -> None:
        self.append(ShapeCheck(name, bool(passed), detail, table=self.artefact))

    def band(self, name: str, low: float, value: float, high: float, paper: str) -> None:
        self(name, low <= value <= high, f"{value:.4g} in [{low:g}, {high:g}] (paper: {paper})")


@dataclass(frozen=True)
class Experiment:
    id: str
    artefact: str  # written to <out>/<artefact>.txt
    run: Callable[[Context], Tuple[str, List[ShapeCheck]]]


# -- T1-T3, F1, S6, checks: the campaign's report ----------------------------


def _table1(ctx: Context):
    rows = reports.compute_table1(ctx.campaign.report)
    by_name = {row.operator: row for row in rows}
    check = Checks("table1")
    check("cloudflare-second-largest", rows[1].operator == "Cloudflare", f"#2: {rows[1].operator}")
    if ctx.full_fidelity:

        def share(operator: str, column: str) -> float:
            return getattr(by_name[operator], column) / by_name[operator].domains

        refusers = [by_name[name] for name in NO_DNSSEC_OPERATORS & set(by_name)]
        check(
            "no-dnssec-operators-secure-nothing",
            all(row.secured == 0 and row.islands == 0 for row in refusers),
            f"{len(refusers)} operators offer no DNSSEC (errant-DS invalids only)",
        )
        check.band("godaddy-secures-under-1-percent", 0, share("GoDaddy", "secured"), 0.01, "0.2 %")
        check.band("google-default-on", 0.40, share("Google Domains", "secured"), 0.50, "45.3 %")
        if "OVH" in by_name:
            check.band("ovh-default-on", 0.38, share("OVH", "secured"), 0.50, "43.9 %")
        check.band("wix-island-experiment", 0.13, share("WIX", "islands"), 0.19, "15.7 %")
        check.band("cloudflare-islands", 0.01, share("Cloudflare", "islands"), 0.03, "1.6 %")
        intruders = [row.operator for row in rows if row.operator not in TABLE1]
        check("top20-is-the-papers", not intruders, f"not in the paper's top 20: {intruders}")
    return ctx.artifacts["table1"], check


def _table2(ctx: Context):
    report = ctx.campaign.report
    rows = reports.compute_table2(report)
    check = Checks("table2")
    check("cds-publishers-found", bool(rows), f"{len(rows)} operators publish CDS")
    if ctx.full_fidelity:
        by_name = {row.operator: row for row in rows}
        check.band("cloudflare-cds-small-share", 0, by_name["Cloudflare"].pct, 10, "4.4 %")
        specialists = [row.operator for row in rows if row.pct > 60]
        check("cds-driven-by-specialists", len(specialists) >= 3, f"> 60 %: {specialists}")
        failing = report.count("§4.2", "cds_query_failures") / report.total_resolved
        check("cds-query-failures", failing > 0.01, f"{failing:.1%} of zones (paper: 2.6 %)")
        for name, row, paper in (
            ("cds-in-unsigned", "cds_in_unsigned", "2 854"),
            ("cds-delete-islands", "cds_delete_island", "165.5 k"),
            ("cds-delete-still-signed", "cds_delete_signed", "3 289"),
        ):
            count = report.count("§4.2", row)
            check(name, count >= 1, f"{count} (paper: {paper})")
        with_cds = report.count("§4.2", "islands_with_cds")
        consistent = report.count("§4.2", "islands_cds_consistent")
        check(
            "island-cds-consistent",
            with_cds > 0 and consistent / with_cds > 0.9,
            f"{consistent}/{with_cds} islands with CDS agree across NSes (paper: 99.7 %)",
        )
    return ctx.artifacts["table2"], check


def _table3(ctx: Context):
    campaign = ctx.campaign
    data = reports.compute_table3(campaign.report)
    expected = reports.compute_table3(reports.expected_report(campaign.world.targets))
    check = Checks("table3")
    populations = {name: data.columns[name].with_signal for name in AB_COLUMNS}
    check("ab-operators-have-signal-zones", all(populations.values()), f"{populations}")
    broken = [
        name
        for name, f in data.columns.items()
        if f.with_signal != f.already_secured + f.cannot + f.potential
        or f.potential != f.incorrect + f.correct
    ]
    check("funnel-adds-up", not broken, f"columns whose funnel does not sum: {broken}")
    off = [
        f"{name}.{cell}"
        for name, funnel in data.columns.items()
        for cell in ("with_signal", "correct", "incorrect", "cannot_delete", "cannot_invalid")
        if getattr(funnel, cell) != getattr(expected.columns[name], cell)
    ]
    check("funnel-equals-scaled-expectation", not off, f"cells off the ground truth: {off}")
    if ctx.full_fidelity:
        # Preservation keeps every rare invalid and incorrect cell alive
        # while the common ones scale down: the measured ratios are lower
        # bounds, and hold at paper scale because the funnel is exact (above).
        deletes, cannot = data.total("cannot_delete"), data.total("cannot")
        check("deletes-dominate-cannot", deletes / cannot > 0.5, f"{deletes}/{cannot}")
        correct, potential = data.total("correct"), data.total("potential")
        check("ab-mostly-correct", correct / potential >= 0.7, f"{correct}/{potential} correct")
        paper = sum(TABLE3["correct"]) / sum(TABLE3["potential"])
        check("ab-correct-at-paper-scale", paper >= 0.999, f"{paper:.2%} (paper: 99.9 %)")
        desec, cf = (data.columns[name].cannot_delete for name in ("deSEC", "Cloudflare"))
        check("only-cloudflare-signals-deletes", desec == 0 < cf, f"deSEC {desec}, Cloudflare {cf}")
        resolved = len(campaign.rechecked)
        check("recheck-resolves-transients", resolved >= 1, f"{resolved} resolved on re-check")
    return ctx.artifacts["table3"], check


def _figure1(ctx: Context):
    data = reports.compute_figure1(ctx.campaign.report)
    check = Checks("figure1")
    parts = (
        data.island_without_cds
        + data.island_invalid_cds
        + data.island_cds_delete
        + data.possible_to_bootstrap
    )
    check(
        "breakdown-adds-up",
        data.total == data.unsigned + data.with_dnssec and data.islands == parts,
        f"total {data.total}, islands {data.islands} = {parts}",
    )
    if ctx.full_fidelity:
        check.band("islands-about-1-percent", 0.008, data.islands / data.total, 0.014, "1.1 %")
        check(
            "most-islands-have-no-cds",
            data.island_without_cds > data.possible_to_bootstrap,
            f"{data.island_without_cds} without CDS, {data.possible_to_bootstrap} bootstrappable",
        )
    return ctx.artifacts["figure1"], check


def _shape_checks(ctx: Context):
    campaign = ctx.campaign
    table3 = reports.compute_table3(campaign.report)
    checks = reports.check_shapes(campaign.report, table3, campaign.world.targets)
    return "\n".join(str(check) for check in checks), checks if ctx.full_fidelity else []


def _tld(ctx: Context):
    by_suffix = {row.suffix: row for row in reports.compute_tld_report(ctx.campaign.report)}
    check = Checks("s6_tld")
    missing = [suffix for suffix in ("com", "ch", "li") if suffix not in by_suffix]
    check("incentive-tlds-populated", not missing, f"missing: {missing}")
    if ctx.full_fidelity:
        # Strongest in the small .li zone, where the Swiss specialists are
        # visible; diluted by .ch's size, still positive in the two combined.
        com, ch, li = (by_suffix[suffix] for suffix in ("com", "ch", "li"))
        both = 100.0 * (ch.with_cds + li.with_cds) / (ch.domains + li.domains)
        versus = f"% vs .com {com.cds_pct:.2f} %"
        check("li-publishes-more-cds", li.cds_pct > com.cds_pct * 1.3, f"{li.cds_pct:.2f} {versus}")
        check("ch-li-publish-more-cds", both > com.cds_pct * 1.05, f"{both:.2f} {versus}")
        secured = f".li {li.secured_pct:.2f} % vs .com {com.secured_pct:.2f} %"
        check("li-secures-more", li.secured_pct > com.secured_pct, secured)
    return ctx.artifacts["tld"], check


# -- M1-M3: the methodology of §3 and App. D --------------------------------


def _sampling(ctx: Context):
    """Re-scan sampled anycast zones (2 of 12 addresses) exhaustively."""
    campaign = ctx.campaign
    world = campaign.world
    sampled = [r for r in campaign.results if r.sampled and r.resolved][:40]
    config = ScannerConfig(
        anycast_ns_suffixes=list(world.anycast_ns_suffixes), full_scan_fraction=1.0
    )
    scanner = Scanner(world.network, world.root_ips, config)
    pairs = [(before, scanner.scan_zone(before.zone)) for before in sampled]

    def verdict(result):
        assessment = assess_zone(result)
        return assessment.status, assessment.eligibility, assessment.signal_outcome

    differ = [a.zone.to_text() for a, b in pairs if verdict(a) != verdict(b)]
    check = Checks("m1_sampling")
    check("sampled-zones-found", bool(sampled), f"{len(sampled)} sampled anycast zones")
    check(
        "exhaustive-scans-see-more",
        all(not b.sampled and len(b.cds_by_ns) >= len(a.cds_by_ns) for a, b in pairs),
        "every re-scan queried every address",
    )
    check("sampling-changes-no-classification", not differ, f"differing zones: {differ}")
    text = (
        f"validated {len(sampled)} sampled anycast zones against exhaustive "
        f"scans: {len(differ)} classification differences (paper: no inconsistencies)"
    )
    return text, check


def _query_volume(ctx: Context):
    """The campaign's frozen cost (never the live network) and App. D."""
    campaign = ctx.campaign
    report = campaign.report
    resolved = [r for r in campaign.results if r.resolved]
    per_zone = sum(r.queries_used for r in resolved) / len(resolved)
    total = report.total_scanned
    signalling = total - report.count("outcome", SignalOutcome.NO_SIGNAL)
    share = signalling / total
    bytes_per_query = campaign.bytes_moved / max(1, campaign.queries_sent)
    feasibility = estimate_feasibility(report, bytes_per_query)
    saved = feasibility.savings_vs_exhaustive

    check = Checks("m2_query_volume")
    check.band("queries-per-zone", 5, per_zone, 80, "~20 per NS, ~40 per 2-NS zone")
    if ctx.full_fidelity:
        check("deep-scans-are-rare", share < 0.02, f"{share:.2%} carry signal RRs (paper: 0.43 %)")
    for strategy, floor in (("short_circuit", 0.5), ("signal_only", 0.8)):
        saving = saved[strategy]
        check(f"{strategy}-saves-queries", saving > floor, f"{saving:.1%} fewer than exhaustive")
    text = (
        f"queries per resolved zone: {per_zone:.1f}\n"
        f"total queries: {campaign.queries_sent}\n"
        f"bytes moved: {campaign.bytes_moved}\n"
        f"simulated scan duration: {campaign.simulated_duration:.0f}s at 50 qps/NS\n"
        f"zones needing deep (signal) scans: {signalling}/{total} "
        f"({100 * share:.2f} %; paper: 1.2M/287.6M = 0.43 %)\n\n"
        "registry-strategy feasibility (App. D):\n"
        + render_feasibility(feasibility, campaign.world.scale)
    )
    return text, check


# M3's own world: fixed and small, one replica per machine of each fleet size.
FLEET_SCALE, FLEET_SEED, FLEET_SIZES = 2e-6, 29, (1, 2, 4)


def machine_runs(config: CampaignConfig, machines: int) -> List[Tuple[int, float]]:
    """``(zones, simulated seconds)`` of each machine a ``workers=machines``
    campaign spawns, scanned here on a fresh world replica and own clock."""
    config = replace(config, num_shards=config.num_shards or DEFAULT_NUM_SHARDS)
    runs = []
    for buckets in bucket_ranges(config.num_shards, machines):
        _, scanner, clock, zones = scan_machine(config, buckets)
        scan_into(scanner, zones)
        runs.append((len(zones), clock.now()))
    return runs


def fleet_table(runs: Dict[int, List[Tuple[int, float]]]):
    """M3 from each fleet size's machine runs; days are priced per zone scanned."""
    took = {size: max(duration for _, duration in machines) for size, machines in runs.items()}
    [(zones, _)] = runs[1]
    days = took[1] / zones * TOTAL_DOMAINS / 86_400

    check = Checks("m3_fleet")
    check("more-machines-finish-sooner", took[1] > took[2] > took[4], f"{took}")
    check("four-machines-halve-it", took[4] < took[1] * 0.5, f"{took[1] / took[4]:.2f}x at 4")
    check("one-machine-needs-a-fleet", days > 35, f"~{days:,.0f} days alone (paper: a month)")
    lines = [f"{'machines':>8} {'sim duration (s)':>17} {'speedup':>8}"]
    for size, duration in took.items():
        lines.append(f"{size:>8} {duration:>17.1f} {took[1] / duration:>8.2f}x")
    lines.append(
        f"\none machine at 50 qps/NS would need ~{days:,.0f} days for "
        f"287.6M zones; the paper finished in 'just over a month' with a fleet "
        f"(≈{days / 35:,.0f} machines at this per-zone cost)"
    )
    return "\n".join(lines), check


def _fleet(ctx: Context):
    """Simulated duration against fleet size, at the paper's population."""
    config = CampaignConfig(scale=FLEET_SCALE, seed=FLEET_SEED)
    return fleet_table({size: machine_runs(config, size) for size in FLEET_SIZES})


# -- A1: the App. C acceptance policies --------------------------------------


def _policies(ctx: Context):
    """Every acceptance policy the IETF debated, dry-run over one scan."""
    campaign = ctx.campaign

    def dry_run(policy):
        engine = provisioning.BootstrapEngine(campaign.world, policy)
        return engine.run(campaign.results, provision=False)

    delay = provisioning.AcceptAfterDelayPolicy(hold_days=3)
    runs = {"rfc9615": dry_run(provisioning.AuthenticatedBootstrapPolicy())}
    day_zero = dry_run(delay)
    delay.advance_days(3)
    runs["delay"] = dry_run(delay)
    runs["challenge-10pct"] = dry_run(provisioning.AcceptWithChallengePolicy(0.10))
    runs["inception-5pct"] = dry_run(provisioning.AcceptFromInceptionPolicy(0.05))
    accepted = {name: len(run.accepted) for name, run in runs.items()}

    check = Checks("a1_policies")
    check(
        "rfc9615-accepts-a-subset-of-delay",
        set(runs["rfc9615"].accepted) <= set(runs["delay"].accepted),
        f"{accepted['rfc9615']} authenticated, {accepted['delay']} after the hold",
    )
    held = len(day_zero.deferred)
    check(
        "delay-accepts-nothing-on-day-zero",
        not day_zero.accepted and held > 0,
        f"{len(day_zero.accepted)} accepted, {held} deferred",
    )
    gated = max(accepted["challenge-10pct"], accepted["inception-5pct"])
    check("gates-add-conditions-not-candidates", gated <= accepted["delay"], f"{accepted}")
    if ctx.full_fidelity:
        check("ab-deployment-space-is-real", accepted["rfc9615"] > 0, f"{accepted['rfc9615']}")
        reasons = sorted(set(runs["rfc9615"].rejected.values()))
        check("rejections-name-the-signal", any("signal" in r for r in reasons), f"{reasons}")
    lines = [f"{'policy':<22} {'evaluated':>9} {'accepted':>9} {'deferred':>9} {'rejected':>9}"]
    for name, run in runs.items():
        lines.append(
            f"{name:<22} {run.evaluated:>9} {len(run.accepted):>9} "
            f"{len(run.deferred):>9} {len(run.rejected):>9}"
        )
    lines.append(f"(accept-after-delay first pass deferred {held} zones for the 3-day hold)")
    return "\n".join(lines), check


def _provisioning(ctx: Context):
    """Install → verify SECURE → undo: the shared world stays as scanned."""
    campaign = ctx.campaign
    policy = provisioning.AuthenticatedBootstrapPolicy()
    engine = provisioning.BootstrapEngine(campaign.world, policy)
    run = engine.run(campaign.results)
    stuck = []
    for zone in run.secured:
        remove_ds(campaign.world, zone.rstrip("."))
        if classify_status(engine.scanner.scan_zone(zone.rstrip(".")))[0] != DnssecStatus.ISLAND:
            stuck.append(zone)
    # The "unAB" direction, dry: honour delete requests on secured zones.
    deletes = engine.process_delete_requests(campaign.results, provision=False)

    check = Checks("a1_provisioning")
    check("zones-accepted", bool(run.accepted), f"{len(run.accepted)} accepted")
    check(
        "every-acceptance-verifies-secure",
        set(run.secured) == set(run.accepted) and not run.failed_verification,
        f"{len(run.secured)} SECURE, {len(run.failed_verification)} failed verification",
    )
    check("undo-restores-the-islands", not stuck, f"not an ISLAND again: {stuck}")
    check(
        "delete-requests-honoured",
        deletes.evaluated >= 1 and bool(deletes.deleted),
        f"{len(deletes.deleted)}/{deletes.evaluated} (paper: 3 289 ignored)",
    )
    text = (
        f"RFC 9615 provisioning: {len(run.accepted)} zones accepted, "
        f"{len(run.secured)} verified SECURE after DS installation "
        f"({run.queries_used} queries incl. verification re-scans)\n"
        f"RFC 8078 delete processing (dry run): {deletes.evaluated} secured zones "
        f"with delete requests, {len(deletes.deleted)} would be honoured "
        f"(the paper found 3 289 such ignored requests)"
    )
    return text, check


# -- S31, S5: coverage bias and the related-work trajectory ------------------


def _coverage(ctx: Context):
    """.de adoption re-estimated from a uniform and a TLS-skewed sample."""
    campaign = ctx.campaign
    status = {a.zone: a.status for a in campaign.report.assessments}
    groups = coverage.per_suffix_zones(campaign.world)
    # .de stands in for the ccTLDs whose zone files were unavailable.
    zones = groups.get("de") or max(groups.values(), key=len)

    def secured(zone) -> bool:
        return status.get(zone.to_text()) == DnssecStatus.SECURE

    uniform, weighted = (
        coverage.coverage_bias(zones, secured, sampler, suffix="de")
        for sampler in (coverage.UniformSampler(0.6), coverage.TlsWeightedSampler(0.4, weight=3.0))
    )
    check = Checks("s31_coverage")
    check.band("coverage-in-the-papers-band", 0.4, uniform.coverage, 0.8, "43-80 %")
    if ctx.full_fidelity:
        check.band("fair-sample-barely-moves", -2.0, uniform.bias_points, 2.0, "assumed 0")
        skew = f"{weighted.bias_points:+.2f} vs {uniform.bias_points:+.2f} points"
        check("tls-skew-overstates-adoption", weighted.bias_points > uniform.bias_points, skew)
    lines = [f"{'sampler':<14} {'coverage':>9} {'true %':>7} {'sampled %':>10} {'bias (pts)':>11}"]
    for rep in (uniform, weighted):
        lines.append(
            f"{rep.sampler:<14} {100 * rep.coverage:>8.1f}% {rep.true_secured_pct:>7.2f} "
            f"{rep.sampled_secured_pct:>10.2f} {rep.bias_points:>+11.2f}"
        )
    return "\n".join(lines), check


TREND_SCALE_CAP = 5e-6  # S5 builds and scans four snapshot worlds of its own


def _trend(ctx: Context):
    """The §5 comparison with Chung et al. (2017): ~0.8 % → ~5.5 %."""
    trend = measure_trend(scale=min(ctx.scale, TREND_SCALE_CAP), seed=1)
    first, last = trend[0], trend[-1]  # 2017, 2025
    secured = [point.secured_pct for point in trend]
    check = Checks("s5_trend")
    check("adoption-grows-monotonically", secured == sorted(secured), f"{secured}")
    check.band("chung-2017", 0, first.secured_pct, 1.5, "0.6-1.0 %")
    check.band("this-paper-2025", 4.0, last.secured_pct, 7.0, "5.5 %")
    signals = f"{first.with_signal} signal zones in 2017, {last.with_signal} in 2025"
    check("signals-appear-late", first.with_signal == 0 < last.with_signal, signals)
    lines = [
        f"{'year':<6} {'secured %':>9} {'invalid %':>9} {'islands %':>9} {'signal':>7}  source"
    ]
    for point in trend:
        lines.append(
            f"{point.year:<6} {point.secured_pct:>9.2f} {point.invalid_pct:>9.2f} "
            f"{point.islands_pct:>9.2f} {point.with_signal:>7}  {point.source}"
        )
    return "\n".join(lines), check


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("T1", "table1", _table1),
    Experiment("T2", "table2", _table2),
    Experiment("T3", "table3", _table3),
    Experiment("F1", "figure1", _figure1),
    Experiment("checks", "shape_checks", _shape_checks),
    Experiment("M1", "m1_sampling", _sampling),
    Experiment("M2", "m2_query_volume", _query_volume),
    Experiment("M3", "m3_fleet", _fleet),
    Experiment("A1-policies", "a1_policies", _policies),
    Experiment("A1-provisioning", "a1_provisioning", _provisioning),
    Experiment("S31", "s31_coverage", _coverage),
    Experiment("S5", "s5_trend", _trend),
    Experiment("S6", "s6_tld", _tld),
)


def select(only: Optional[str]) -> List[Experiment]:
    """The rows ``--only`` names, in that order; KeyError on an unknown id."""
    by_id = {experiment.id: experiment for experiment in EXPERIMENTS}
    return list(EXPERIMENTS) if only is None else [by_id[i.strip()] for i in only.split(",")]


def run_experiments(ctx: Context, rows: List[Experiment], out: Path) -> List[str]:
    """Run *rows*, write each artefact under *out*, print every check;
    returns the ids of the rows with a failing check."""
    out.mkdir(parents=True, exist_ok=True)
    failed: List[str] = []
    every: List[ShapeCheck] = []
    for row in rows:
        text, checks = row.run(ctx)
        path = out / f"{row.artefact}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"{row.id} -> {path}", *checks, sep="\n  ")
        every += checks
        if not all(check.passed for check in checks):
            failed.append(row.id)
    passed = sum(check.passed for check in every)
    print(f"\n{passed}/{len(every)} shape checks passed at scale {ctx.scale:g}")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return failed


def main(scale: float, only: Optional[str], out: str) -> int:
    try:
        rows = select(only)
    except KeyError as exc:
        known = ", ".join(experiment.id for experiment in EXPERIMENTS)
        print(f"unknown experiment {exc} (known: {known})", file=sys.stderr)
        return 2
    return 1 if run_experiments(Context(scale), rows, Path(out)) else 0
