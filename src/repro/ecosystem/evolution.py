"""Longitudinal ecosystem snapshots (§5's related-work comparison).

The paper situates its measurement against Chung et al. (2017): DNSSEC
deployment grew from 0.6–1.0 % to 5.5 %, while validation failures fell
from >2 % to 0.2 %.  This module makes that trajectory executable:
calibrated world snapshots for 2017/2020/2023/2025 whose headline rates
follow the published data points, scanned and analysed with the same
pipeline — so the related-work table regenerates the same way the
2025 tables do.

Historical calibration points (documented sources):

* 2017 — Chung et al., USENIX Security: 0.6–1.0 % signed (we use
  0.8 %), "upwards of 2 %" of signed zones failing validation; CDS
  (RFC 7344, 2014) essentially undeployed; no AB.
* 2020 — interpolation anchored on Verisign scoreboard trends and the
  Google Domains default-DNSSEC rollout: ~2.4 % signed; CDS appearing.
* 2023 — continued growth (~4.2 %); Cloudflare ships its CDS/AB
  machinery; RFC 9615 still a draft.
* 2025 — the paper's measurement (delegates to the full cell table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ecosystem.allocator import scale_cells
from repro.ecosystem.paper_targets import TOTAL_DOMAINS, build_cells
from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario


@dataclass(frozen=True)
class Snapshot:
    """One point on the deployment trajectory."""

    year: int
    secure_rate: float  # share of zones fully secured
    island_rate: float  # signed-but-no-DS share
    invalid_rate: float  # broken-DNSSEC share
    cds_share_of_secured: float  # secured zones also publishing CDS
    ab_signal_zones: int  # zones with RFC 9615 signal RRs (paper scale)
    source: str


SNAPSHOTS: List[Snapshot] = [
    Snapshot(
        2017,
        secure_rate=0.008,
        island_rate=0.004,
        invalid_rate=0.02 * 0.01 + 0.0002,  # "upwards of 2 % of signed zones"
        cds_share_of_secured=0.0,
        ab_signal_zones=0,
        source="Chung et al. 2017 (USENIX Security): 0.6-1.0 % signed, >2 % of signed failing",
    ),
    Snapshot(
        2020,
        secure_rate=0.024,
        island_rate=0.007,
        invalid_rate=0.0012,
        cds_share_of_secured=0.25,
        ab_signal_zones=0,
        source="interpolated: Verisign scoreboard trend + Google Domains default-on",
    ),
    Snapshot(
        2023,
        secure_rate=0.042,
        island_rate=0.010,
        invalid_rate=0.0006,
        cds_share_of_secured=0.45,
        ab_signal_zones=250_000,
        source="interpolated: Cloudflare CDS/AB machinery live, RFC 9615 draft",
    ),
    Snapshot(
        2025,
        secure_rate=0.0549,
        island_rate=0.0109,
        invalid_rate=0.0022,
        cds_share_of_secured=0.55,
        ab_signal_zones=1_237_451,
        source="the paper (this reproduction's full cell table)",
    ),
]


def snapshot_for(year: int) -> Snapshot:
    for snapshot in SNAPSHOTS:
        if snapshot.year == year:
            return snapshot
    raise ValueError(f"no snapshot for {year}; available: {[s.year for s in SNAPSHOTS]}")


def historical_cells(year: int) -> List[Cell]:
    """Population cells for a historical snapshot.

    2025 returns the paper-calibrated table; earlier years use a
    simplified operator mix (the big hosters plus a tail) with the
    snapshot's headline rates.
    """
    snapshot = snapshot_for(year)
    if year == 2025:
        return build_cells()

    cells: List[Cell] = []
    total = TOTAL_DOMAINS
    secure = round(total * snapshot.secure_rate)
    islands = round(total * snapshot.island_rate)
    invalid = round(total * snapshot.invalid_rate)
    unsigned = total - secure - islands - invalid

    secured_with_cds = round(secure * snapshot.cds_share_of_secured)
    ab = snapshot.ab_signal_zones
    ab = min(ab, secured_with_cds + islands)

    operators = ["GoDaddy", "Cloudflare", "Namecheap", "Google Domains", "OVH"]
    mass = [f"MassHost-{i + 1}" for i in range(12)]

    def spread(count: int, ops: List[str], status, cds, signal=SignalScenario.NONE):
        share = count // len(ops)
        for i, op in enumerate(ops):
            amount = share if i < len(ops) - 1 else count - share * (len(ops) - 1)
            if amount > 0:
                cells.append(Cell(op, status, cds, signal, amount))

    # AB signal zones (2023+) live on Cloudflare, over secured zones
    # (pre-RFC 9615 deployments signalled for already-secured domains).
    ab_secured = min(ab, secured_with_cds)
    if ab_secured:
        cells.append(
            Cell("Cloudflare", StatusScenario.SECURE, CdsScenario.OK, SignalScenario.OK, ab_secured, preserve=True)
        )
    spread(secured_with_cds - ab_secured, operators, StatusScenario.SECURE, CdsScenario.OK)
    spread(secure - secured_with_cds, operators + mass, StatusScenario.SECURE, CdsScenario.NONE)
    ab_islands = ab - ab_secured
    if ab_islands:
        cells.append(
            Cell("Cloudflare", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.OK, ab_islands, preserve=True)
        )
    spread(islands - ab_islands, operators + mass, StatusScenario.ISLAND, CdsScenario.NONE)
    spread(invalid, operators, StatusScenario.INVALID_BADSIG, CdsScenario.NONE)
    spread(unsigned, operators + mass, StatusScenario.UNSIGNED, CdsScenario.NONE)
    return cells


def build_historical_world(year: int, scale: float, seed: int = 1):
    """A scannable world for a historical snapshot (2025 = build_world)."""
    from repro.ecosystem.world import build_world

    if year == 2025:
        return build_world(scale=scale, seed=seed)
    return build_world(scale=scale, seed=seed, cells_override=historical_cells(year))


@dataclass
class TrendPoint:
    year: int
    secured_pct: float
    invalid_pct: float
    islands_pct: float
    with_signal: int
    source: str


def measure_trend(scale: float = 1 / 1_000_000, seed: int = 1, years: Optional[List[int]] = None) -> List[TrendPoint]:
    """Scan every snapshot and return the measured trajectory."""
    from repro.core import AnalysisPipeline, DnssecStatus
    from repro.core.bootstrap import SignalOutcome

    points: List[TrendPoint] = []
    for year in years or [s.year for s in SNAPSHOTS]:
        world = build_historical_world(year, scale, seed)
        scanner = world.make_scanner()
        results = scanner.scan_many(world.scan_list)
        report = AnalysisPipeline(world.operator_db).analyze(results)
        resolved = report.total_resolved or 1
        with_signal = report.total_scanned - report.count("outcome", SignalOutcome.NO_SIGNAL)
        points.append(
            TrendPoint(
                year=year,
                secured_pct=100 * report.count("status", DnssecStatus.SECURE) / resolved,
                invalid_pct=100 * report.count("status", DnssecStatus.INVALID) / resolved,
                islands_pct=100 * report.count("status", DnssecStatus.ISLAND) / resolved,
                with_signal=with_signal,
                source=snapshot_for(year).source,
            )
        )
    return points
