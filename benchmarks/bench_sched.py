"""Experiment S1 — concurrent scan scheduling (repro.sched).

Runs the same scan with ``in_flight`` ∈ {1, 8, 64} over a network with
a 50 ms per-query RTT (``SimulatedNetwork.query_cost``) and records the
*simulated campaign duration* — the paper's scan-duration metric.  The
serial scanner pays every RTT and every rate-limit wait end to end;
the event loop overlaps them across zones, so the campaign collapses
toward its critical path: the per-IP rate-limit floor on the busiest
registry server plus the longest single-zone chain.

The acceptance bar is a >= 5x lower simulated duration at in_flight=64
than at in_flight=1 (the serial scan) with the same query count —
concurrency is a pure scheduling optimisation, pinned byte-for-byte by
tests/test_sched.py.

Wall-clock time is recorded for the artifact but only loosely
asserted: the loop resumes one step generator at a time on the calling
thread (determinism by construction), so concurrency buys *simulated*
time, not CPU parallelism.  Scale is controlled by
``REPRO_BENCH_SCHED_SCALE`` (default 1e-6, the differential-golden
scale).
"""

import os
import time

from conftest import save_artifact

from repro.ecosystem.world import build_world

SCHED_SCALE = float(os.environ.get("REPRO_BENCH_SCHED_SCALE", "1e-6"))
SCHED_SEED = 41
QUERY_COST = 0.05  # 50 ms RTT: the WAN latency the paper's fleet paid
IN_FLIGHT = (1, 8, 64)
SPEEDUP_FLOOR = 5.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scan(in_flight):
    world = build_world(scale=SCHED_SCALE, seed=SCHED_SEED)
    world.network.query_cost = QUERY_COST
    scanner = world.make_scanner(in_flight=in_flight)
    start = time.perf_counter()
    results = list(scanner.scan_iter(world.scan_list))
    wall = time.perf_counter() - start
    return {
        "zones": len(results),
        "simulated": world.network.clock.now(),
        "wall": wall,
        "queries": world.network.queries_sent,
        "sched_events": scanner.sched_events,
        "in_flight_peak": scanner.sched_in_flight_peak,
    }


def test_sched_throughput(benchmark, results_dir):
    runs = {}

    def run_all():
        for n in IN_FLIGHT:
            runs[n] = _scan(n)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    cores = usable_cores()
    base = runs[1]
    lines = [
        f"{base['zones']} zones at scale {SCHED_SCALE:g}, seed {SCHED_SEED}, "
        f"query RTT {QUERY_COST * 1000:.0f} ms, {cores} usable core(s)",
        f"{'in_flight':>9} {'campaign (sim s)':>16} {'speedup':>8} "
        f"{'wall (s)':>9} {'queries':>8} {'events':>8}",
    ]
    metrics = {
        "zones": base["zones"],
        "seed": SCHED_SEED,
        "query_cost": QUERY_COST,
        "cores": cores,
        "in_flight": {},
    }
    for label in IN_FLIGHT:
        run = runs[label]
        speedup = base["simulated"] / run["simulated"]
        lines.append(
            f"{str(label):>9} {run['simulated']:>16.1f} {speedup:>7.2f}x "
            f"{run['wall']:>9.2f} {run['queries']:>8} {run['sched_events']:>8}"
        )
        metrics["in_flight"][str(label)] = {
            "campaign_seconds_simulated": run["simulated"],
            "campaign_speedup_vs_serial": speedup,
            "wall_seconds": run["wall"],
            "queries": run["queries"],
            "sched_events": run["sched_events"],
            "in_flight_peak": run["in_flight_peak"],
        }
    metrics["sched_scale"] = SCHED_SCALE
    # ISSUE contract: the artifact is BENCH_sched.json.
    save_artifact(results_dir, "sched.txt", "\n".join(lines), metrics=metrics)

    # Concurrency changed the schedule, never the work: every run
    # scanned the same zones with the same total query volume.
    assert all(run["zones"] == base["zones"] for run in runs.values())
    assert all(run["queries"] == base["queries"] for run in runs.values())
    # The acceptance bar: 64 in-flight zones overlap enough RTT and
    # rate-limit wait to cut the campaign >= 5x.
    assert runs[64]["simulated"] <= runs[1]["simulated"] / SPEEDUP_FLOOR, metrics
    # More overlap never lengthens the campaign.
    assert runs[64]["simulated"] <= runs[8]["simulated"] * 1.25, metrics
    # Wall clock: one runnable task at a time means concurrency costs
    # bounded scheduling overhead, it does not multiply runtime.
    assert runs[64]["wall"] < runs[1]["wall"] * 5, metrics
