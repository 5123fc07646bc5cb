"""Experiment w1 — wire-engine throughput and table identity.

Runs the same campaign twice at one (seed, scale): once through the
in-memory simulated fabric and once through :mod:`repro.wire` — the
authoritative fleet live on loopback sockets, the scanner issuing real
UDP/TCP queries on the scan loop's own thread.  Records wall-clock zones/second for both
transports against the PR-1 parallel baseline (86.8 z/s), and verifies
the wire contract: **identical analysis tables**.

The 10× headline target assumes ZDNS-class conditions — compiled hot
path or many cores behind the socket pool.  On a single-core pure-Python
box the wire transport pays the socket round-trips the simulated fabric
skips, so the honest outcome here is the measured ratio, whatever it is;
the JSON twin records both target and actuals.

Usage::

    python benchmarks/bench_wire.py [--scale 2e-5] [--seed 42] [--in-flight 16]
                                    [--profile results/wire.pstats]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import CampaignConfig, run_campaign  # noqa: E402
from repro.reports.figure1 import compute_figure1, render_figure1  # noqa: E402
from repro.reports.table1 import compute_table1, render_table1  # noqa: E402
from repro.reports.table2 import compute_table2, render_table2  # noqa: E402
from repro.reports.table3 import compute_table3, render_table3  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: zones per wall-clock second of the PR-1 parallel baseline
#: (benchmarks/results/BENCH_p1_parallel.json, scale 2e-5, one core).
BASELINE_ZPS = 86.8

#: The ZDNS-class headline target this experiment tracks progress toward.
TARGET_RATIO = 10.0


def rendered_tables(campaign) -> dict:
    report = campaign.report
    return {
        "table1": render_table1(compute_table1(report)),
        "table2": render_table2(compute_table2(report)),
        "table3": render_table3(compute_table3(report)),
        "figure1": render_figure1(compute_figure1(report)),
    }


def run_one(transport: str, scale: float, seed: int, in_flight, profile_path=None):
    config = CampaignConfig(
        scale=scale,
        seed=seed,
        recheck=True,
        transport=transport,
        in_flight=in_flight,
    )
    profiler = None
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    campaign = run_campaign(config)
    wall = time.perf_counter() - t0
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(str(profile_path))
    zones = len(campaign.world.scan_list)
    return campaign, zones, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=2e-5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--in-flight", type=int, default=16)
    parser.add_argument("--profile", type=pathlib.Path, default=None,
                        help="dump a cProfile .pstats of the wire run here")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="BENCH_wire.json destination directory "
                        "(default benchmarks/results)")
    args = parser.parse_args(argv)
    results_dir = args.output or RESULTS_DIR
    results_dir.mkdir(parents=True, exist_ok=True)

    sim, zones, sim_wall = run_one("sim", args.scale, args.seed, args.in_flight)
    sim_zps = zones / sim_wall
    print(f"sim : {zones} zones in {sim_wall:.2f}s wall = {sim_zps:.1f} z/s")

    wire, _, wire_wall = run_one(
        "wire", args.scale, args.seed, args.in_flight, profile_path=args.profile
    )
    wire_zps = zones / wire_wall
    print(f"wire: {zones} zones in {wire_wall:.2f}s wall = {wire_zps:.1f} z/s")

    identical = rendered_tables(sim) == rendered_tables(wire)
    print(f"tables identical across transports: {identical}")

    payload = {
        "scale": args.scale,
        "seed": args.seed,
        "zones": zones,
        "in_flight": args.in_flight,
        "baseline_zones_per_wall_second": BASELINE_ZPS,
        "target_ratio": TARGET_RATIO,
        "target_zones_per_wall_second": BASELINE_ZPS * TARGET_RATIO,
        "sim_zones_per_wall_second": round(sim_zps, 1),
        "wire_zones_per_wall_second": round(wire_zps, 1),
        "zones_per_wall_second": round(wire_zps, 1),
        "sim_ratio_vs_baseline": round(sim_zps / BASELINE_ZPS, 2),
        "wire_ratio_vs_baseline": round(wire_zps / BASELINE_ZPS, 2),
        "tables_identical": identical,
    }
    path = results_dir / "BENCH_wire.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[metrics saved to {path}]")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
