"""Scaling the paper-size population down to a runnable world.

Hierarchical largest-remainder (Hamilton) apportionment:

1. the grand total is split across the *status classes* (unsigned /
   secure / invalid / island / ...), so the Figure-1 marginals survive
   any scale exactly up to integer rounding;
2. each status total is then split across its cells.

Without step 1, populations fragmented into many small cells (the
long-tail hosters) would systematically lose mass to the few huge cells
at small scales.  Cells flagged ``preserve`` (taxonomy-critical
rarities: the single zone-cut error, the mismatched CDS handful, ...)
are guaranteed at least one zone so every branch of the
misconfiguration taxonomy remains represented.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.ecosystem.spec import Cell


def _largest_remainder(
    quotas: Sequence[float], target: int, minimums: Sequence[int]
) -> List[int]:
    """Integer apportionment of *target* across quotas, honouring
    per-entry minimums."""
    counts = [max(math.floor(q), m) for q, m in zip(quotas, minimums)]
    assigned = sum(counts)
    if assigned < target:
        order = sorted(
            range(len(quotas)),
            key=lambda i: (quotas[i] - math.floor(quotas[i]), quotas[i]),
            reverse=True,
        )
        index = 0
        while assigned < target:
            counts[order[index % len(order)]] += 1
            assigned += 1
            index += 1
    elif assigned > target:
        # Minimums overshot: shave the largest entries that can spare.
        order = sorted(range(len(quotas)), key=lambda i: counts[i], reverse=True)
        for i in order:
            if assigned == target:
                break
            spare = counts[i] - max(1 if minimums[i] else 0, minimums[i])
            take = min(spare, assigned - target, max(0, counts[i] - minimums[i]))
            if counts[i] - take < minimums[i]:
                take = counts[i] - minimums[i]
            counts[i] -= max(0, take)
            assigned -= max(0, take)
    return counts


def scale_cells(cells: Sequence[Cell], scale: float) -> List[Cell]:
    """Scale cell counts by *scale*, preserving status marginals."""
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    if scale == 1:
        return list(cells)
    grand_target = round(sum(cell.count for cell in cells) * scale)

    # Pass 1: per-status totals.
    by_status: Dict[object, List[int]] = {}
    for index, cell in enumerate(cells):
        by_status.setdefault(cell.status, []).append(index)
    statuses = list(by_status)
    status_quotas = [
        sum(cells[i].count for i in by_status[s]) * scale for s in statuses
    ]
    status_minimums = [
        sum(1 for i in by_status[s] if cells[i].preserve) for s in statuses
    ]
    status_totals = _largest_remainder(status_quotas, grand_target, status_minimums)

    # Pass 2: cells within each status.
    counts: List[int] = [0] * len(cells)
    for status, total in zip(statuses, status_totals):
        indices = by_status[status]
        group_count = sum(cells[i].count for i in indices)
        quotas = [cells[i].count / group_count * total for i in indices]
        minimums = [1 if cells[i].preserve else 0 for i in indices]
        group_counts = _largest_remainder(quotas, total, minimums)
        for i, count in zip(indices, group_counts):
            counts[i] = count

    return [replace(cell, count=count) for cell, count in zip(cells, counts) if count > 0]
