#!/usr/bin/env python3
"""Quickstart: build a tiny synthetic DNS ecosystem, scan it YoDNS-style,
and classify every zone's DNSSEC bootstrapping status.

Run:  python examples/quickstart.py
"""

from repro.core import AnalysisPipeline
from repro.ecosystem import build_world


def main() -> None:
    # A 1-per-million scale world: ~290 zones covering every scenario in
    # the paper — secure, unsigned, invalid, secure islands, CDS delete
    # requests, RFC 9615 signal zones with every misconfiguration class.
    world = build_world(scale=1 / 1_000_000, seed=42)
    print(f"built a world with {world.zone_count} zones "
          f"({len(world.network.addresses())} server addresses)\n")

    # Scan every zone: parent-side DS, per-NS CDS/CDNSKEY, signal zones.
    scanner = world.make_scanner()
    results = scanner.scan_many(world.scan_list)

    # Classify: DNSSEC status, CDS correctness, RFC 9615 acceptance.
    pipeline = AnalysisPipeline(world.operator_db)
    report = pipeline.analyze(results)

    print("DNSSEC status across the population:")
    for status, count in sorted(report.tally("status").items(), key=lambda kv: -kv[1]):
        print(f"  {status.value:<12} {count:>6}  ({100 * count / report.total_scanned:.1f} %)")

    print("\nBootstrapping eligibility (Figure 1 classes):")
    for eligibility, count in sorted(report.tally("eligibility").items(), key=lambda kv: -kv[1]):
        print(f"  {eligibility.value:<22} {count:>6}")

    print("\nRFC 9615 signal outcomes (Table 3 classes):")
    for outcome, count in sorted(report.tally("outcome").items(), key=lambda kv: -kv[1]):
        if outcome.value == "no_signal":
            continue
        print(f"  {outcome.value:<28} {count:>6}")

    print(f"\nscan used {world.network.queries_sent} DNS queries "
          f"({world.network.queries_sent / max(1, report.total_scanned):.1f} per zone), "
          f"{world.network.clock.now():.0f}s of simulated time under the 50 qps/NS limit")


if __name__ == "__main__":
    main()
