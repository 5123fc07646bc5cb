#!/usr/bin/env python3
"""Reproduce the paper's evaluation: Tables 1-3, Figure 1, the per-TLD
and security tables, and the shape checks, at a configurable scale.

Run:  python examples/reproduce_paper.py [scale]

*scale* defaults to 1e-5 (2 876 zones, ~30 s).  Use 1e-4 for the
full-fidelity setting (28 760 zones); `repro-dnssec experiments` then
also regenerates the methodology checks and ablations of EXPERIMENTS.md.
"""

import sys

from repro.campaign import CampaignConfig, run_campaign
from repro.reports import check_shapes, compute_table3, render_artifacts


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-5
    print(f"running a measurement campaign at scale {scale:g} "
          f"(~{287_600_000 * scale:,.0f} zones) ...\n")
    campaign = run_campaign(CampaignConfig(scale=scale, seed=1, recheck=True))
    report = campaign.report
    print("\n\n".join(render_artifacts(report, campaign.world.targets).values()))

    print("\nShape checks against the paper's narrative:")
    checks = check_shapes(report, compute_table3(report))
    for check in checks:
        print(f"  {check}")
    passed = sum(check.passed for check in checks)
    print(f"\n{passed}/{len(checks)} checks passed "
          f"(small scales distort the rare-case checks; use 1e-4 for all)")
    print(f"re-check pass resolved {len(campaign.rechecked)} transient signal failures")
    print(f"simulated scan duration: {campaign.simulated_duration / 3600:.2f} hours "
          f"(the paper's full-scale scan ran for over a month)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
