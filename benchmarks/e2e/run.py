#!/usr/bin/env python3
"""One closed-loop benchmark for the whole reproduction.

    python3 benchmarks/e2e/run.py --workload sim_campaign --seed 42 --seconds 10 --trace 0

runs one workload in this process, prints every metric by name with its
unit, checks the outputs against ground truth and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all four workloads, each run in a fresh
subprocess, several times over, and prints medians and spreads; with
``--sets 2`` it does so twice, interleaved, and fails when the two sets
disagree by more than a metric's bound.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
RESULTS = HERE / "results"
DEFAULT_SEED = 42
DEFAULT_SECONDS = 12

# name → (unit, better, bound).  BENCHMARK.json repeats this table for the
# driver; test_contract.py keeps the two equal.  Every workload reports
# every end-to-end metric, so a metric here is one all four workloads have.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "zones_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

# Phase figures of single workloads, measured on untraced units.  They
# cannot be end-to-end metrics of the driver's contract (three of the
# four workloads have no such phase), so they are printed by every run
# and exported as per-layer metrics: phase → (metric, unit, kind).
PHASE_FIGURES: Dict[str, Tuple[str, str, str]] = {
    "delta_epoch": ("monitor.delta_epoch_s", "s", "seconds"),
    "agent_pass": ("agent.pass_s", "s", "seconds"),
    "store_write": ("store.write_zones_per_s", "1/s", "zones"),
    "store_read": ("store.read_zones_per_s", "1/s", "zones"),
    "index": ("query.index_zones_per_s", "1/s", "zones"),
    "lookup_hot": ("query.lookup_hot_per_s", "1/s", "lookups_hot"),
}

LAYER_UNITS: Dict[str, str] = {
    "ecosystem.build_world_calls": "count",
    "ecosystem.build_world_s": "s",
    "ecosystem.replay_s": "s",
    "dns.from_wire_calls": "count",
    "dns.from_wire_s": "s",
    "dns.to_wire_calls": "count",
    "dns.to_wire_s": "s",
    "dns.decoded_bytes": "B",
    "dnssec.validate_calls": "count",
    "dnssec.validate_s": "s",
    "dnssec.sign_calls": "count",
    "dnssec.sign_s": "s",
    "server.queries": "count",
    "server.handle_calls": "count",
    "server.handle_s": "s",
    "server.fabric_self_s": "s",
    "server.response_cache_hit_ratio": "ratio",
    "server.timeouts": "count",
    "resolver.calls": "count",
    "resolver.self_s": "s",
    "resolver.cache_hit_ratio": "ratio",
    "scanner.zones": "count",
    "scanner.self_s": "s",
    "scanner.queries_per_zone": "count",
    "scanner.memo_hit_ratio": "ratio",
    "scanner.ratelimit_waits": "count",
    "sched.events": "count",
    "sched.tasks": "count",
    "sched.gate_waits": "count",
    "sched.in_flight_peak": "count",
    "wire.fleet_start_s": "s",
    "wire.query_wait_s": "s",
    "wire.queries": "count",
    "wire.batches": "count",
    "wire.batch_mean": "count",
    "wire.io_waits": "count",
    "wire.wall_timeouts": "count",
    "wire.response_cache_hit_ratio": "ratio",
    "store.append_calls": "count",
    "store.write_s": "s",
    "store.checkpoints": "count",
    "store.bytes_on_disk": "B",
    "store.records_read": "count",
    "store.read_s": "s",
    "store.write_zones_per_s": "1/s",
    "store.read_zones_per_s": "1/s",
    "core.zones_analyzed": "count",
    "core.analyze_s": "s",
    "reports.render_s": "s",
    "query.index_s": "s",
    "query.index_bytes": "B",
    "query.index_zones_per_s": "1/s",
    "query.service_open_s": "s",
    "query.lookups": "count",
    "query.cache_hit_ratio": "ratio",
    "query.lookup_cold_p50_us": "us",
    "query.lookup_cold_p99_us": "us",
    "query.lookup_cold_p999_us": "us",
    "query.lookup_hot_per_s": "1/s",
    "monitor.epochs": "count",
    "monitor.run_epoch_s": "s",
    "monitor.self_s": "s",
    "monitor.delta_epoch_s": "s",
    "monitor.rescan_fraction": "ratio",
    "monitor.events_applied": "count",
    "agent.passes": "count",
    "agent.run_s": "s",
    "agent.self_s": "s",
    "agent.pass_s": "s",
    "agent.considered": "count",
    "agent.secured": "count",
    "agent.rejected": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.targets_unresolved": "count",
    # … followed by one "<layer>.share" per layer, see per_layer_units().
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric with its unit, in the order it is printed."""
    from tracer import LAYERS

    units = dict(LAYER_UNITS)
    units.update({f"{layer}.share": "ratio" for layer in LAYERS})
    return units


def _import_program():
    """Put the checkout's ``src`` on the path and import the harness parts."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {src / 'repro'} is missing")
    for entry in (str(src), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import tracer
    import workloads

    return tracer, workloads


# -- statistics ---------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(len(ranked) * fraction))]


# What reference_loop() takes on the 2-core box this was written on while
# its host is quiet.  Only ratios to it are used, so on other hardware
# every time scales by one constant.
REFERENCE_SECONDS = 0.032


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop (ints, bytes, tuples, a dict, a
    join; no ``repro`` code) takes right now: the host's speed."""
    start = time.perf_counter()
    data = bytes(range(256)) * 4
    table = {}
    total = 0
    for _ in range(330):
        for i in range(0, len(data) - 4, 4):
            value = (data[i] << 8) | data[i + 1]
            table[(value, data[i + 2])] = data[i : i + 4]
            total += value
        total += len(",".join(map(str, list(table)[:64])))
    return time.perf_counter() - start


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


# -- one workload, this process -------------------------------------------------


@contextmanager
def pinned_to_quietest_cpu():
    """Pin this process (and the threads it starts) to the one CPU that
    runs a fixed loop fastest right now; yields that CPU's number.

    The figures are per core by design (the socket workload's threads
    share the interpreter lock anyway).  On a shared host a neighbour
    takes a core away for minutes at a time: unpinned, the socket
    campaign then runs 1.5–2× slower while the serial ones barely
    notice; pinned to the free core it does not move.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)

    def probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return statistics.median(reference_loop() for _ in range(3))

    try:
        best = min(sorted(allowed), key=probe)
        os.sched_setaffinity(0, {best})
        yield best
    finally:
        os.sched_setaffinity(0, allowed)


class Pass:
    """The measured units of one kind (untraced or traced) in a run."""

    def __init__(self):
        self.setups: List[float] = []  # seconds at reference speed
        self.units: List[Any] = []
        self.keys: List[tuple] = []  # (group, index) of each unit

    @property
    def wall(self) -> float:
        """Seconds actually spent in timed phases (the run's budget)."""
        return sum(sum(unit.phases.values()) for unit in self.units)

    @property
    def reference_wall(self) -> float:
        return sum(sum(unit.phases.values()) / unit.host for unit in self.units)


def _counter(obj, path: str, missing: List[str]):
    """A public counter read by dotted attribute path; None if it is gone."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            missing.append(path)
            return None
    return obj() if callable(obj) else obj


class LayerCounters:
    """Public counters of the instances the tracer saw, summed over the
    traced units (read when each unit ends, then the instances are let go)."""

    SCANNER = {
        "dns_cache_hits": "cache.hits",
        "dns_cache_misses": "cache.misses",
        "address_hits": "address_cache_hits",
        "address_misses": "address_cache_misses",
        "signal_hits": "signal_cache_hits",
        "signal_misses": "signal_cache_misses",
        "chain_hits": "chain_cache_hits",
        "chain_misses": "chain_cache_misses",
        "ratelimit_waits": "limiter.waits",
        "sched_tasks": "sched_tasks",
        "sched_events": "sched_events",
        "sched_gate_waits": "sched_gate_waits",
    }
    FABRIC = {
        "fabric_queries": "queries_sent",
        "fabric_cache_hits": "response_cache_hits",
        "fabric_timeouts": "timeouts",
    }

    def __init__(self):
        self.totals: Dict[str, float] = {}
        self.missing: List[str] = []
        self.in_flight_peak = 0

    def _add(self, name: str, value) -> None:
        if value is not None:
            self.totals[name] = self.totals.get(name, 0) + value

    def absorb(self, tracer) -> None:
        for scanner in tracer.kept.get(("scanner", "scan_zone"), {}).values():
            for name, path in self.SCANNER.items():
                self._add(name, _counter(scanner, path, self.missing))
            peak = _counter(scanner, "sched_in_flight_peak", self.missing) or 0
            self.in_flight_peak = max(self.in_flight_peak, peak)
        for network in tracer.kept.get(("server", "fabric"), {}).values():
            for name, path in self.FABRIC.items():
                self._add(name, _counter(network, path, self.missing))
        for network in tracer.kept.get(("wire", "fleet_start"), {}).values():
            self._add("wire_timeouts", _counter(network, "timeouts", self.missing))
            for name, value in (_counter(network, "wire_counters", self.missing) or {}).items():
                self._add(name, value)
        tracer.drop_kept()

    def get(self, name: str) -> float:
        return self.totals.get(name, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def phase_figures(units: List[Any]) -> Dict[str, float]:
    """The per-phase figures of single workloads, from untraced units,
    at reference speed like the end-to-end metrics."""
    figures: Dict[str, float] = {}
    for phase, (name, _, kind) in PHASE_FIGURES.items():
        timed = [unit for unit in units if phase in unit.phases]
        if not timed:
            continue
        if kind == "seconds":
            figures[name] = statistics.median(unit.phases[phase] / unit.host for unit in timed)
        else:
            figures[name] = statistics.median(
                unit.counts[kind] / unit.phases[phase] * unit.host for unit in timed
            )
    cold = [unit for unit in units if "lookup_cold_us" in unit.samples]
    if cold:
        for name, fraction in (("p50", 0.50), ("p99", 0.99)):
            figures[f"query.lookup_cold_{name}_us"] = statistics.median(
                percentile(unit.samples["lookup_cold_us"], fraction) / unit.host for unit in cold
            )
        pooled = [us / unit.host for unit in cold for us in unit.samples["lookup_cold_us"]]
        figures["query.lookup_cold_p999_us"] = percentile(pooled, 0.999)
    return figures


def end_to_end_metrics(workload, measured: Pass, peak_rss_mb: float) -> Dict[str, float]:
    units = measured.units
    return {
        "setup_s": statistics.median(measured.setups),
        "wall_s": statistics.median(sum(unit.phases.values()) / unit.host for unit in units),
        "zones_per_s": statistics.median(
            unit.counts["zones"]
            / sum(unit.phases[phase] for phase in workload.zone_phases)
            * unit.host
            for unit in units
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(
    tracer, counters: LayerCounters, untraced: Pass, traced: Pass
) -> Dict[str, Optional[float]]:
    """Every per-layer metric.  Seconds and counts are per traced unit, so
    they do not depend on how many units fitted into the run; a layer's
    ``*_s`` is its busy (CPU, self) time unless it names a wait or a run."""
    stats = tracer.stats()
    broken = tracer.unresolved_keys()
    n = max(1, len(traced.units))

    def stat(layer: str, key: str, field: str) -> Optional[float]:
        if (layer, key) in broken:
            return None
        entry = stats.get((layer, key))
        return getattr(entry, field) / n if entry is not None else 0.0

    def total(*parts: Optional[float]) -> Optional[float]:
        return None if any(part is None for part in parts) else sum(parts)

    units = traced.units

    def count(name: str) -> float:
        return sum(unit.counts.get(name, 0) for unit in units) / n

    def info(name: str) -> float:
        return sum(unit.info.get(name, 0) for unit in units) / n

    c = counters.get
    zones_scanned = stat("scanner", "scan_zone", "calls")
    queries = c("fabric_queries") + c("wire.queries")
    memo_hits = c("address_hits") + c("signal_hits") + c("chain_hits")
    memo_all = memo_hits + c("address_misses") + c("signal_misses") + c("chain_misses")
    lookups = stat("query", "lookup", "calls")
    misses = stat("query", "lookup_miss", "calls")

    out: Dict[str, Optional[float]] = {
        "ecosystem.build_world_calls": stat("ecosystem", "build_world", "calls"),
        "ecosystem.build_world_s": stat("ecosystem", "build_world", "busy_s"),
        "ecosystem.replay_s": stat("ecosystem", "replay", "busy_s"),
        "dns.from_wire_calls": stat("dns", "from_wire", "calls"),
        "dns.from_wire_s": stat("dns", "from_wire", "busy_s"),
        "dns.to_wire_calls": stat("dns", "to_wire", "calls"),
        "dns.to_wire_s": stat("dns", "to_wire", "busy_s"),
        "dns.decoded_bytes": stat("dns", "from_wire", "items"),
        "dnssec.validate_calls": stat("dnssec", "validate", "calls"),
        "dnssec.validate_s": stat("dnssec", "validate", "busy_s"),
        "dnssec.sign_calls": stat("dnssec", "sign", "calls"),
        "dnssec.sign_s": stat("dnssec", "sign", "busy_s"),
        "server.queries": queries / n,
        "server.handle_calls": stat("server", "handle", "calls"),
        "server.handle_s": stat("server", "handle", "busy_s"),
        "server.fabric_self_s": stat("server", "fabric", "busy_s"),
        "server.response_cache_hit_ratio": _ratio(c("fabric_cache_hits"), c("fabric_queries")),
        "server.timeouts": (c("fabric_timeouts") + c("wire_timeouts")) / n,
        "resolver.calls": stat("resolver", "resolve", "calls"),
        "resolver.self_s": stat("resolver", "resolve", "busy_s"),
        "resolver.cache_hit_ratio": _ratio(
            c("dns_cache_hits"), c("dns_cache_hits") + c("dns_cache_misses")
        ),
        "scanner.zones": zones_scanned,
        "scanner.self_s": stat("scanner", "scan_zone", "busy_s"),
        "scanner.queries_per_zone": (
            None if zones_scanned is None else _ratio(queries / n, zones_scanned)
        ),
        "scanner.memo_hit_ratio": _ratio(memo_hits, memo_all),
        "scanner.ratelimit_waits": c("ratelimit_waits") / n,
        "sched.events": c("sched_events") / n,
        "sched.tasks": c("sched_tasks") / n,
        "sched.gate_waits": c("sched_gate_waits") / n,
        "sched.in_flight_peak": counters.in_flight_peak,
        "wire.fleet_start_s": stat("wire", "fleet_start", "total_s"),
        "wire.query_wait_s": stat("wire", "query_wait", "self_s"),
        "wire.queries": c("wire.queries") / n,
        "wire.batches": c("wire.batches") / n,
        "wire.batch_mean": _ratio(c("wire.batched_queries"), c("wire.batches")),
        "wire.io_waits": c("wire.io_waits") / n,
        "wire.wall_timeouts": c("wire.wall_timeouts") / n,
        "wire.response_cache_hit_ratio": _ratio(c("wire.response_cache_hits"), c("wire.queries")),
        "store.append_calls": stat("store", "append", "calls"),
        "store.write_s": total(
            stat("store", "write", "busy_s"),
            stat("store", "append", "busy_s"),
            stat("store", "checkpoint", "busy_s"),
        ),
        "store.checkpoints": stat("store", "checkpoint", "calls"),
        "store.bytes_on_disk": info("store_bytes"),
        "store.records_read": stat("store", "read", "items"),
        "store.read_s": stat("store", "read", "busy_s"),
        "core.zones_analyzed": stat("core", "analyze", "items"),
        "core.analyze_s": stat("core", "analyze", "busy_s"),
        "reports.render_s": stat("reports", "render", "busy_s"),
        "query.index_s": stat("query", "index", "busy_s"),
        "query.index_bytes": info("index_bytes"),
        "query.service_open_s": stat("query", "service_open", "busy_s"),
        "query.lookups": lookups,
        "query.cache_hit_ratio": (
            None if lookups is None or misses is None else _ratio(lookups - misses, lookups)
        ),
        "monitor.epochs": stat("monitor", "run_epoch", "calls"),
        "monitor.run_epoch_s": stat("monitor", "run_epoch", "total_s"),
        "monitor.self_s": total(
            stat("monitor", "run_epoch", "busy_s"), stat("monitor", "world_at_epoch", "busy_s")
        ),
        "monitor.rescan_fraction": _ratio(count("delta_zones"), count("zones")),
        "monitor.events_applied": count("events"),
        "agent.passes": stat("agent", "run", "calls"),
        "agent.run_s": stat("agent", "run", "total_s"),
        "agent.self_s": stat("agent", "run", "busy_s"),
        "agent.considered": count("considered"),
        "agent.secured": count("secured"),
        "agent.rejected": count("rejected"),
    }
    out.update(phase_figures(untraced.units))

    # Shares are of the process's CPU seconds inside the traced phases:
    # each layer's busy seconds, plus what no span covers (the socket
    # engine's loop, thread hand-offs, campaign glue), make up the whole.
    layer_busy = tracer.layer_busy_seconds()
    unattributed = max(0.0, sum(unit.cpu_s for unit in units) - sum(layer_busy.values()))
    whole = sum(layer_busy.values()) + unattributed
    for layer, seconds in layer_busy.items():
        out[f"{layer}.share"] = _ratio(seconds, whole)
    out["trace.unattributed_share"] = _ratio(unattributed, whole)
    out["trace.overhead_share"] = _ratio(traced.reference_wall, untraced.reference_wall) - 1.0
    out["trace.targets_unresolved"] = len(tracer.unresolved) + len(set(counters.missing))
    # A phase figure of another workload reads 0 here: this one has no such phase.
    return {name: out.get(name, 0.0) for name in per_layer_units()}


def run_workload(args) -> int:
    """Measure one workload in this process; the driver's entry point."""
    with pinned_to_quietest_cpu() as cpu:
        return _run_pinned(args, cpu)


def _run_pinned(args, cpu: Optional[int]) -> int:
    tracer_module, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](scale_divisor=2.0 if args.smoke else 1.0)
    tracing = bool(args.trace)
    tracer = tracer_module.Tracer(alias_modules=("workloads",)) if tracing else None
    counters = LayerCounters()
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=args.workdir or RESULTS))

    untraced, traced = Pass(), Pass()
    peak_rss_mb = None
    attempted = 0
    failures: List[str] = []
    seen_counts: Dict[tuple, Dict[str, int]] = {}
    warmups = 0 if args.smoke else workload.warmup_groups
    units_per_group = 1 if args.smoke else workload.units_per_group

    def run_group(group: int, into: Optional[Pass], trace: bool, label: str) -> None:
        nonlocal attempted
        # The reference loop runs at every boundary; what lies between two
        # samples is scaled by their mean (see "Reference speed" in README).
        before = reference_loop()
        start = time.perf_counter()
        state = workload.setup(args.seed, group, workdir / label)
        setup_seconds = time.perf_counter() - start
        after = reference_loop()
        if into is not None:
            into.setups.append(setup_seconds * 2 * REFERENCE_SECONDS / (before + after))
        try:
            for index in range(1 if into is None else units_per_group):
                unit = workloads.Unit(tracer=tracer if trace else None)
                before = after
                if trace:
                    with tracer.installed():
                        workload.unit(state, index, unit)
                    counters.absorb(tracer)
                else:
                    workload.unit(state, index, unit)
                after = reference_loop()
                unit.host = (before + after) / 2 / REFERENCE_SECONDS
                attempted += unit.attempted
                failures.extend(unit.failures)
                # Same seed ⇒ same work: the traced and the untraced pass
                # over one group must agree on every count.
                attempted += 1
                expected = seen_counts.setdefault((group, index), unit.counts)
                if expected != unit.counts:
                    failures.append(f"work differs at {(group, index)}: {expected} != {unit.counts}")
                if into is not None:
                    into.units.append(unit)
                    into.keys.append((group, index))
                    if not tracing and untraced.wall >= args.seconds:
                        break  # a traced run ends on a whole group: its passes pair up
        finally:
            workload.teardown(state)

    try:
        for group in range(warmups):
            run_group(group, None, False, "warmup")
        group = warmups
        while True:
            if tracing:
                # Alternate which pass goes first so that drift in the
                # host's speed does not read as tracing overhead.
                order = [(untraced, False), (traced, True)]
                for into, trace in order if group % 2 == 0 else reversed(order):
                    run_group(group, into, trace, "traced" if trace else "untraced")
            else:
                run_group(group, untraced, False, "untraced")
            group += 1
            if peak_rss_mb is None:
                # Taken once the warm-up and one measured group are done, so
                # that it does not depend on how many units the host's speed
                # let into the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if untraced.wall + traced.wall >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = phase_figures(untraced.units)
    if tracing:
        values = layer_metrics(tracer, counters, untraced, traced)
        units_of = per_layer_units()
        trace_path = RESULTS / f"{workload.name}.trace.json"
        body = {"workload": workload.name, "seed": args.seed, **tracer.dump()}
        trace_path.write_text(json.dumps(body, separators=(",", ":")) + "\n")
    else:
        values = end_to_end_metrics(workload, untraced, peak_rss_mb)
        units_of = {name: END_TO_END[name][0] for name in values}

    print(f"workload {workload.name}  seed {args.seed}  scale {workload.scale:g}  pinned to cpu {cpu}")
    print(
        f"  {len(untraced.units)} untraced + {len(traced.units)} traced units in "
        f"{group - warmups} groups after {warmups} warm-up; timed "
        f"{untraced.wall + traced.wall:.2f} s; host at "
        f"{statistics.median(unit.host for unit in untraced.units):.2f}x the reference loop's time"
        + ("; loopback sockets, not a real link" if workload.name == "wire_campaign" else "")
    )
    for name, value in values.items():
        shown = "n/a (target unresolved)" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown} {units_of[name]}")
    if not tracing:
        for name, value in figures.items():
            print(f"  {name:<34} {value:.6g} {LAYER_UNITS[name]}  (phase figure)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")

    if args.detail:
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": int(tracing),
            "counts": {f"{g}.{i}": seen_counts[(g, i)] for g, i in untraced.keys},
            "setups": untraced.setups,
            "units": [unit.phases for unit in untraced.units],
            "hosts": [unit.host for unit in untraced.units],
            "figures": figures,
        }
        Path(args.detail).write_text(json.dumps(detail) + "\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            # A metric whose target no longer resolves reads 0 here (the
            # driver wants numbers) and trace.targets_unresolved says so.
            name: {"value": 0.0 if value is None else value, "unit": units_of[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


# -- all workloads, fresh subprocesses ------------------------------------------


def fingerprint() -> Dict[str, Any]:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or commit  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_1min": os.getloadavg()[0],
    }


def _child(args, workload: str, trace: int, workdir: Path) -> Dict[str, Any]:
    """One run in a fresh subprocess; its parsed last line plus its detail."""
    detail_path = workdir / f"detail-{workload}-{trace}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail", str(detail_path), "--workdir", str(workdir),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if args.verbose or done.returncode:
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"run.py: {workload} printed no result (exit {done.returncode})")
    result["returncode"] = done.returncode
    result["detail"] = json.loads(detail_path.read_text()) if detail_path.exists() else {}
    return result


def run_all(args) -> int:
    """Every workload, ``--repeats`` fresh subprocesses each per set."""
    _, workloads = _import_program()
    names = list(workloads.WORKLOADS)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-all-", dir=args.workdir or RESULTS))
    machine = fingerprint()
    ok = True
    # runs[set][workload] = list of child results
    runs: List[Dict[str, List[Dict[str, Any]]]] = [
        {name: [] for name in names} for _ in range(args.sets)
    ]
    traced: Dict[str, Dict[str, Any]] = {}
    try:
        for _ in range(args.repeats):
            for name in names:
                for which in range(args.sets):  # interleaved: A-set run, B-set run, …
                    runs[which][name].append(_child(args, name, 0, workdir))
        if args.trace:
            for name in names:
                traced[name] = _child(args, name, 1, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report: Dict[str, Any] = {
        "machine": machine, "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "sets": args.sets, "workloads": {},
    }  # fmt: skip
    for name in names:
        print(f"\n== {name} ==")
        every = [result for which in range(args.sets) for result in runs[which][name]]
        every += [traced[name]] if name in traced else []
        failed = sum(result["failed"] for result in every)
        attempted = sum(result["attempted"] for result in every)
        print(f"  failed_share                       {failed / attempted:.6g} ({failed}/{attempted})")
        ok &= failed == 0 and all(result["returncode"] == 0 for result in every)
        counts = [result["detail"].get("counts", {}) for result in every]
        shared = set.intersection(*(set(c) for c in counts)) if counts else set()
        for key in sorted(shared):
            if any(c[key] != counts[0][key] for c in counts):
                print(f"  WORK DIFFERS between runs of one seed at unit {key}")
                ok = False
        entry: Dict[str, Any] = {"failed": failed, "attempted": attempted, "metrics": {}}
        for metric, (unit, better, bound) in END_TO_END.items():
            medians = []
            for which in range(args.sets):
                values = [r["metrics"][metric]["value"] for r in runs[which][name]]
                medians.append(statistics.median(values))
                entry["metrics"].setdefault(metric, []).append(
                    {"median": medians[-1], "spread": spread(values), "values": values}
                )
            line = f"  {metric:<34} " + "  ".join(f"{m:.6g}" for m in medians) + f" {unit}"
            line += f"  spread {entry['metrics'][metric][0]['spread']:.1%}"
            if args.sets == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if better == "higher":
                    worse = -worse
                line += f"  B vs A {worse:+.1%} worse (bound {bound:.0%})"
                if worse > bound:
                    line += "  EXCEEDS BOUND"
                    ok = False
            print(line)
        for which, label in zip(range(args.sets), "AB"):
            figures: Dict[str, List[float]] = {}
            for result in runs[which][name]:
                for metric, value in result["detail"].get("figures", {}).items():
                    figures.setdefault(metric, []).append(value)
            for metric, values in figures.items():
                print(
                    f"  {metric:<34} {statistics.median(values):.6g} {LAYER_UNITS[metric]}"
                    f"  spread {spread(values):.1%}  (phase figure, set {label})"
                )
                entry.setdefault("figures", {}).setdefault(metric, []).append(
                    {"median": statistics.median(values), "spread": spread(values)}
                )
        if name in traced:
            entry["layers"] = {k: v["value"] for k, v in traced[name]["metrics"].items()}
            for metric, value in entry["layers"].items():
                if value:
                    print(f"  {metric:<34} {value:.6g} {LAYER_UNITS.get(metric, 'ratio')}")
        report["workloads"][name] = entry
    (RESULTS / "latest.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {RESULTS / 'latest.json'}; " + ("all checks passed" if ok else "CHECKS FAILED"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument(
        "--smoke", action="store_true", help="halved scales, no warm-up, one unit: CI only"
    )
    parser.add_argument("--workdir", type=Path, help="scratch directory (default: results/)")
    parser.add_argument("--detail", help="also write this run's samples to this file")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0  # one group per workload
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict-of-set iteration orders must not differ between runs.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
