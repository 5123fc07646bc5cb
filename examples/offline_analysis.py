#!/usr/bin/env python3
"""Store-then-analyse: the paper's 6.5 TiB workflow in miniature.

The authors stored every DNS message and analysed offline (App. D).
This example scans a world, dumps the raw results to JSON lines,
then re-analyses the stored file with *no world and no network* —
and shows the two analyses agree exactly.

Run:  python examples/offline_analysis.py
"""

import io
import os
import tempfile

from repro.core import AnalysisPipeline
from repro.ecosystem import build_world
from repro.scanner.serialize import dump_results, load_objects, result_from_obj


def main() -> None:
    world = build_world(scale=1 / 1_000_000, seed=8)
    scanner = world.make_scanner()
    print(f"scanning {world.zone_count} zones ...")
    results = scanner.scan_many(world.scan_list)

    live_report = AnalysisPipeline(world.operator_db).analyze(results)

    with tempfile.NamedTemporaryFile(
        "w", suffix=".jsonl", delete=False, encoding="utf-8"
    ) as fp:
        path = fp.name
        count = dump_results(results, fp)
    size = os.path.getsize(path)
    print(f"stored {count} scan records -> {path} ({size / 1024:.0f} KiB)")
    paper_scale = size / world.zone_count * 287_600_000
    print(f"(extrapolated to 287.6M zones: ~{paper_scale / 2**40:.1f} TiB; "
          f"the paper stored 6.5 TiB of full DNS messages)")

    with open(path, encoding="utf-8") as fp:
        stored = [result_from_obj(obj) for obj in load_objects(fp)]
    offline_report = AnalysisPipeline(world.operator_db).analyze(stored)

    print("\nlive vs offline analysis:")
    agree = True
    for status, live_count in sorted(live_report.tally("status").items(), key=lambda kv: kv[0].value):
        offline_count = offline_report.count("status", status)
        marker = "==" if live_count == offline_count else "!="
        agree &= live_count == offline_count
        print(f"  {status.value:<12} {live_count:>6} {marker} {offline_count:<6}")
    for outcome, live_count in sorted(live_report.tally("outcome").items(), key=lambda kv: kv[0].value):
        offline_count = offline_report.count("outcome", outcome)
        agree &= live_count == offline_count
    print("\nanalyses agree exactly" if agree else "\nMISMATCH — this is a bug")
    os.unlink(path)


if __name__ == "__main__":
    main()
