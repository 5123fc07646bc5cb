"""Unit and property tests for the quota allocator and paper targets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecosystem.allocator import scale_cells
from repro.ecosystem.paper_targets import (
    BOOTSTRAPPABLE,
    INVALID_TOTAL,
    ISLAND_TOTAL,
    SECURE_TOTAL,
    TOTAL_DOMAINS,
    UNSIGNED_TOTAL,
    build_cells,
)
from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario


def make_cell(count, preserve=False, op="X"):
    return Cell(
        operator=op,
        status=StatusScenario.UNSIGNED,
        cds=CdsScenario.NONE,
        signal=SignalScenario.NONE,
        count=count,
        preserve=preserve,
    )


class TestScaleCells:
    def test_identity_at_scale_one(self):
        cells = [make_cell(10), make_cell(20)]
        assert scale_cells(cells, 1) == cells

    def test_total_preserved(self):
        cells = [make_cell(1000, op="a"), make_cell(2000, op="b"), make_cell(7000, op="c")]
        scaled = scale_cells(cells, 0.1)
        assert sum(c.count for c in scaled) == 1000

    def test_proportions_roughly_preserved(self):
        cells = [make_cell(9000, op="a"), make_cell(1000, op="b")]
        scaled = {c.operator: c.count for c in scale_cells(cells, 0.01)}
        assert scaled["a"] == 90
        assert scaled["b"] == 10

    def test_preserved_cells_survive(self):
        cells = [make_cell(1_000_000, op="big"), make_cell(1, preserve=True, op="rare")]
        scaled = {c.operator: c.count for c in scale_cells(cells, 1e-6)}
        assert scaled.get("rare", 0) >= 1

    def test_unpreserved_rare_cells_may_vanish(self):
        cells = [make_cell(1_000_000, op="big"), make_cell(1, op="rare")]
        scaled = {c.operator: c.count for c in scale_cells(cells, 1e-6)}
        assert "rare" not in scaled

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scale_cells([make_cell(10)], 0)
        with pytest.raises(ValueError):
            scale_cells([make_cell(10)], 1.5)

    def test_scaled_cells_keep_every_other_field(self):
        """Regression: cells were rebuilt field by field and a rollover
        cell came back with no rollover kind."""
        from dataclasses import replace

        from repro.scenarios.transitions import KIND_DOUBLE_DS

        rollover = replace(make_cell(500, op="roll"), rollover_kind=KIND_DOUBLE_DS, legacy_ns=True)
        scaled = {c.operator: c for c in scale_cells([make_cell(500, op="a"), rollover], 0.1)}
        assert scaled["roll"] == replace(rollover, count=50)

    def test_zero_count_cells_dropped(self):
        cells = [make_cell(100, op="a"), make_cell(3, op="b")]
        scaled = scale_cells(cells, 0.01)
        assert all(c.count > 0 for c in scaled)

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=30),
        scale_million=st.integers(min_value=1, max_value=1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_total_and_bounds(self, counts, scale_million):
        scale = scale_million / 1_000_000
        cells = [make_cell(c, op=f"op{i}") for i, c in enumerate(counts)]
        scaled = scale_cells(cells, scale)
        assert sum(c.count for c in scaled) == round(sum(counts) * scale)
        by_op = {c.operator: c.count for c in scaled}
        for i, count in enumerate(counts):
            got = by_op.get(f"op{i}", 0)
            # Largest-remainder result never strays more than 1 from the
            # exact quota (plus redistribution slack of 1).
            assert abs(got - count * scale) <= 2

    @given(scale_inv=st.sampled_from([100, 1000, 10_000, 100_000, 1_000_000]))
    @settings(max_examples=5, deadline=None)
    def test_property_paper_cells_scale(self, scale_inv):
        cells = build_cells()
        scaled = scale_cells(cells, 1 / scale_inv)
        assert sum(c.count for c in scaled) == round(TOTAL_DOMAINS / scale_inv)
        # Every preserved taxonomy branch remains populated.
        preserved_keys = {
            (c.operator, c.status, c.cds, c.signal) for c in cells if c.preserve
        }
        scaled_keys = {(c.operator, c.status, c.cds, c.signal) for c in scaled}
        assert preserved_keys <= scaled_keys


class TestPaperCells:
    @pytest.fixture(scope="class")
    def cells(self):
        return build_cells()

    def test_grand_total(self, cells):
        assert sum(c.count for c in cells) == TOTAL_DOMAINS

    def test_status_totals(self, cells):
        def total(*statuses):
            return sum(c.count for c in cells if c.status in statuses)

        assert total(StatusScenario.SECURE) == SECURE_TOTAL
        assert total(StatusScenario.UNSIGNED) == UNSIGNED_TOTAL
        assert (
            total(StatusScenario.INVALID_ERRANT_DS, StatusScenario.INVALID_BADSIG)
            == INVALID_TOTAL
        )
        assert total(StatusScenario.ISLAND, StatusScenario.ISLAND_BADSIG) == ISLAND_TOTAL

    def test_bootstrappable_total(self, cells):
        bootstrappable = sum(
            c.count
            for c in cells
            if c.status == StatusScenario.ISLAND and c.cds == CdsScenario.OK
        )
        assert bootstrappable == BOOTSTRAPPABLE

    def test_signal_population_matches_table3(self, cells):
        from repro.ecosystem.paper_targets import TABLE3

        total_signal = sum(c.count for c in cells if c.signal != SignalScenario.NONE)
        assert total_signal == sum(TABLE3["with_signal"])

    def test_no_negative_cells(self, cells):
        assert all(c.count > 0 for c in cells)

    def test_rare_taxonomy_cells_preserved_flagged(self, cells):
        rare = [c for c in cells if c.signal == SignalScenario.ZONE_CUT]
        assert rare and all(c.preserve for c in rare)
        expired = [c for c in cells if c.signal == SignalScenario.SIG_EXPIRED]
        assert expired and all(c.preserve for c in expired)
