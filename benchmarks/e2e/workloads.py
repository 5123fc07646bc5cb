"""The four closed-loop workloads of the end-to-end benchmark.

A workload is a sequence of *groups*: ``setup`` builds a group's inputs
from the seed (timed as one ``setup_s`` sample) and ``unit`` then runs a
fixed amount of work through the program's public API, timing each phase
and checking the outputs against ground truth outside the timed phases.
One client, closed loop: the next call is made when the previous one
returned.  Scales are fixed here and are not tuned per change.

Timed phases call only names in ``repro.__all__``, ``repro.store.__all__``
and ``repro.reports.__all__``; set-up and checking additionally use
``repro.monitor.MonitorSpec`` and the generator's ground truth
``repro.ecosystem.world.expected_classification``.
"""

from __future__ import annotations

import random
import shutil
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro import (
    Agent,
    CampaignConfig,
    Monitor,
    MonitorConfig,
    QueryService,
    build_index,
    build_world,
    run_campaign,
)
from repro.ecosystem.world import expected_classification
from repro.monitor import MonitorSpec
from repro.reports import (
    compute_figure1,
    compute_table1,
    compute_table2,
    compute_table3,
    render_figure1,
    render_table1,
    render_table2,
    render_table3,
)
from repro.store import CampaignStore, StoreReader


@dataclass
class Unit:
    """What one timed unit did: phase seconds, work counts, check results."""

    phases: Dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0  # process CPU seconds inside the timed phases
    host: float = 1.0  # the harness's reference loop beside this unit ÷ its nominal time
    # Deterministic work counts: the same seed must give the same counts
    # on every run, traced or not, so a timing difference is never a
    # workload difference.
    counts: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, float] = field(default_factory=dict)  # reported, not compared
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    # Set on traced units: spans are recorded inside timed phases only,
    # so checking and bookkeeping never show up in a layer's numbers.
    tracer: Any = None

    @contextmanager
    def timed(self, phase: str):
        if self.tracer is not None:
            self.tracer.active = True
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu
            if self.tracer is not None:
                self.tracer.active = False

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _world_seed(seed: int, group: int) -> int:
    return seed * 1000 + group


def _render_tables(report) -> str:
    return "\n".join(
        (
            render_table1(compute_table1(report)),
            render_table2(compute_table2(report)),
            render_table3(compute_table3(report)),
            render_figure1(compute_figure1(report)),
        )
    )


def _verdict(assessment) -> tuple:
    return (assessment.status, assessment.eligibility, assessment.signal_outcome)


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class Workload:
    name = ""
    scale = 0.0
    units_per_group = 1
    # Groups run and thrown away first: the process-wide memos (interned
    # names, key and signature caches, lazy imports) fill during the
    # first campaign, and a month-long scan runs with them full.
    warmup_groups = 1
    # Phases whose time zones_per_s divides by.
    zone_phases: tuple = ()

    def __init__(self, scale_divisor: float = 1.0):
        self.scale = self.scale / scale_divisor

    def setup(self, seed: int, group: int, workdir: Path) -> Any:
        raise NotImplementedError

    def unit(self, state: Any, index: int, unit: Unit) -> None:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass


class SimCampaign(Workload):
    """Serial in-memory campaign over the simulated fabric, then the
    paper's tables: codec, server, resolver, scanner, crypto and analysis
    do the work; store, sched, wire, query, monitor and agent do none."""

    name = "sim_campaign"
    scale = 5e-7  # 146 zones per campaign
    zone_phases = ("campaign",)
    config: Dict[str, Any] = {}

    def setup(self, seed, group, workdir):
        return build_world(scale=self.scale, seed=_world_seed(seed, group))

    def unit(self, world, index, unit):
        with unit.timed("campaign"):
            campaign = run_campaign(CampaignConfig(recheck=True, **self.config), world=world)
        with unit.timed("render"):
            tables = _render_tables(campaign.report)

        cells = {cell.slug(): cell for cell in world.targets.cells}
        verdicts = {a.zone.rstrip("."): _verdict(a) for a in campaign.report.assessments}
        for name in world.specs:
            cell = cells[name.split(".")[0].rsplit("-", 1)[0]]
            expected = expected_classification(cell, after_recheck=True)
            unit.expect(verdicts.get(name) == expected, f"{name}: {verdicts.get(name)} != {expected}")
        unit.counts = {
            "zones": len(campaign.results),
            "rechecked": len(campaign.rechecked),
            "tables_crc": zlib.crc32(tables.encode()),
        }
        if not self.config:
            # Query counts over sockets depend on completion order.
            unit.counts["queries_sent"] = world.network.queries_sent


class WireCampaign(SimCampaign):
    """The same campaign over loopback UDP/TCP with 16 zones in flight:
    both sides encode and decode, tasks park on the socket engine.
    Loopback, not a real link."""

    name = "wire_campaign"
    scale = 1.25e-7  # 38 zones per campaign
    # The socket path's batching settles only in the third campaign of a
    # process (the first ones coalesce more queries per send).
    warmup_groups = 2
    config = {"transport": "wire", "in_flight": 16}


class MonitorAgent(Workload):
    """Weekly delta epochs, each followed by an RFC 9615 agent pass:
    ~5 % of the population is re-scanned, so world rebuild and replay,
    monitor, agent, provisioning and small-store overheads dominate."""

    name = "monitor_agent"
    scale = 5e-7  # 146 zones monitored
    units_per_group = 3
    zone_phases = ("delta_epoch",)
    event_rate_scale = 20.0  # ~5 % of the zones change per simulated week

    def setup(self, seed, group, workdir):
        world_seed = _world_seed(seed, group)
        monitor = Monitor.init(
            MonitorConfig(
                root=workdir / f"monitor-{group}",
                scale=self.scale,
                seed=world_seed,
                monitor=MonitorSpec(seed=world_seed + 1).scaled(self.event_rate_scale),
            )
        )
        baseline = monitor.run_epoch()
        first = Agent().run(monitor)
        return {
            "monitor": monitor,
            "population": baseline.zones_scanned,
            "secured": first.secured,
            "ok": baseline.complete,
        }

    def unit(self, state, index, unit):
        monitor = state["monitor"]
        with unit.timed("delta_epoch"):
            epoch = monitor.run_epoch()
        with unit.timed("agent_pass"):
            run = Agent().run(monitor)

        unit.expect(state["ok"] and epoch.complete, f"epoch {epoch.epoch} incomplete")
        for action in run.actions:
            unit.expect(
                action.reason != "verification_failed",
                f"{action.zone}: verification failed at epoch {epoch.epoch}",
            )
        # A zone the agent secured last week must scan SECURE now — unless
        # this week's events changed it again (a remove_ds makes it an
        # island once more, and rightly so).
        touched = {event.zone.rstrip(".") for event in epoch.events}
        confirm = [zone for zone in state["secured"] if zone.rstrip(".") not in touched]
        if confirm:
            classes = monitor.classifications(epoch=epoch.epoch)
            for zone in confirm:
                verdict = classes.get(zone.rstrip(".") + ".")
                unit.expect(
                    verdict is not None and verdict.status.name == "SECURE",
                    f"{zone}: secured at epoch {epoch.epoch - 1}, not SECURE after",
                )
        state["secured"] = run.secured
        unit.counts = {
            "zones": state["population"],
            "epoch": epoch.epoch,
            "delta_zones": epoch.zones_scanned,
            "events": len(epoch.events),
            "considered": run.considered,
            "secured": len(run.secured),
            "rejected": len(run.rejected),
        }

    def teardown(self, state):
        shutil.rmtree(state["monitor"].root, ignore_errors=True)


class ArchiveQuery(Workload):
    """Archive a scanned campaign, re-analyse it from disk, index it and
    serve lookups — no DNS message is sent.  The store is used both ways
    (write beside read beside index beside serve), and lookups run cold
    (fresh service per sweep, every lookup misses the LRU) and hot (one
    service, Zipf picks over a working set smaller than the LRU)."""

    name = "archive_query"
    scale = 1e-6  # 290 zones archived
    units_per_group = 4
    zone_phases = ("store_write", "store_read", "index")
    cold_sweeps = 20
    hot_lookups = 50_000

    def setup(self, seed, group, workdir):
        world_seed = _world_seed(seed, group)
        world = build_world(scale=self.scale, seed=world_seed)
        campaign = run_campaign(CampaignConfig(recheck=False), world=world)
        return {
            "world": world,
            "results": campaign.results,
            "tables": _render_tables(campaign.report),
            "truth": {
                a.zone: (a.status.value, a.eligibility.value, a.signal_outcome.value)
                for a in campaign.report.assessments
            },
            "root": workdir / f"archive-{group}",
            "seed": world_seed,
        }

    def unit(self, state, index, unit):
        world, results, truth = state["world"], state["results"], state["truth"]
        root = state["root"] / f"u{index}"
        rng = random.Random(state["seed"] * 100 + index)
        zones = sorted(truth)
        sweeps = []
        for sweep in range(self.cold_sweeps):
            names = zones + [f"absent-{sweep}-{i}.example." for i in range(len(zones) // 10)]
            rng.shuffle(names)
            sweeps.append(names)
        ranked = zones[:]
        rng.shuffle(ranked)
        picks = rng.choices(
            ranked, weights=[1.0 / rank for rank in range(1, len(ranked) + 1)], k=self.hot_lookups
        )

        clock = time.perf_counter
        with unit.timed("store_write"):
            store = CampaignStore.create(
                root, seed=world.seed, scale=world.scale, zones_total=len(results)
            )
            for result in results:
                store.append(result)
            store.complete()
        with unit.timed("store_read"):
            report = StoreReader(root).reanalyze(world.operator_db)
        with unit.timed("index"):
            build_index(root, operator_db=world.operator_db)
        latencies: List[float] = []
        cold_views = []
        with unit.timed("lookup_cold"):
            for names in sweeps:
                with QueryService(root) as service:
                    for name in names:
                        start = clock()
                        view = service.zone_status(name)
                        latencies.append(clock() - start)
                        cold_views.append(view)
        with unit.timed("lookup_hot"):
            with QueryService(root) as service:
                lookup = service.zone_status
                hot_views = [lookup(name) for name in picks]

        unit.expect(_render_tables(report) == state["tables"], "re-analysed tables differ")
        cold_names = [name for names in sweeps for name in names]
        unit.attempted += len(cold_names) + len(picks)
        for name, view in zip(cold_names + picks, cold_views + hot_views):
            got = None if view is None else (view.status, view.eligibility, view.outcome)
            if got != truth.get(name):
                unit.failures.append(f"lookup {name}: {got} != {truth.get(name)}")
        unit.samples["lookup_cold_us"] = [seconds * 1e6 for seconds in latencies]
        unit.counts = {
            "zones": len(results),
            "records_written": len(results),
            "zones_reanalyzed": report.total_scanned,
            "lookups_cold": len(cold_names),
            "lookups_hot": len(picks),
        }
        unit.info = {
            "store_bytes": _tree_bytes(root) - _tree_bytes(root / "index"),
            "index_bytes": _tree_bytes(root / "index"),
        }
        shutil.rmtree(root)

    def teardown(self, state):
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (SimCampaign, WireCampaign, MonitorAgent, ArchiveQuery)}
