#!/usr/bin/env python3
"""A registry deploys RFC 9615: scan, accept, provision, measure.

Plays the role the paper's App. D sketches: a registry that processes
authenticated bootstrapping signals for its unsecured delegations.  The
script scans a synthetic world, runs the RFC 9615 acceptance policy,
installs the accepted DS RRsets, and shows the DNSSEC deployment rate
before and after — then contrasts with the unauthenticated
accept-after-delay policy of RFC 8078.

Run:  python examples/registry_bootstrap.py
"""

from collections import Counter

from repro.core import AnalysisPipeline
from repro.core.status import DnssecStatus
from repro.ecosystem import build_world
from repro.provisioning import (
    AcceptAfterDelayPolicy,
    AuthenticatedBootstrapPolicy,
    BootstrapEngine,
)


def deployment_rate(world) -> float:
    scanner = world.make_scanner()
    results = scanner.scan_many(world.scan_list)
    report = AnalysisPipeline(world.operator_db).analyze(results)
    return report.count("status", DnssecStatus.SECURE) / report.total_resolved, results


def main() -> None:
    world = build_world(scale=1 / 500_000, seed=9)
    print(f"world: {world.zone_count} zones\n")

    before, results = deployment_rate(world)
    print(f"DNSSEC deployment before bootstrapping: {100 * before:.2f} % "
          f"(paper measures 5.5 %)")

    print("\n--- RFC 9615 authenticated bootstrapping ---")
    engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
    run = engine.run(results)
    print(f"candidates evaluated: {run.evaluated}")
    print(f"accepted + verified secure: {len(run.secured)}")
    reasons = Counter(run.rejected.values())
    print("top rejection reasons:")
    for reason, count in reasons.most_common(5):
        print(f"  {count:>5}  {reason}")

    after, results_after = deployment_rate(world)
    print(f"\nDNSSEC deployment after AB: {100 * after:.2f} % "
          f"(+{100 * (after - before):.2f} points)")
    print("the paper's takeaway holds: the AB deployment space is real but small —")
    print("the primary barrier is DNSSEC adoption itself, not AB adoption.")

    print("\n--- RFC 8078 accept-after-delay (unauthenticated) for comparison ---")
    delay = AcceptAfterDelayPolicy(hold_days=3)
    engine2 = BootstrapEngine(world, delay)
    first = engine2.run(results_after)
    print(f"day 0: {len(first.accepted)} accepted, {len(first.deferred)} held for observation")
    delay.advance_days(3)
    second = engine2.run(results_after)
    print(f"day 3: {len(second.accepted)} accepted "
          f"(every well-formed island, but without cryptographic assurance)")


if __name__ == "__main__":
    main()
