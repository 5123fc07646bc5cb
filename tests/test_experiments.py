"""The experiments table: its ids and artefacts are the documented ones,
every campaign-backed row writes the same bytes whatever ran before it,
and a failed shape check fails the command by name."""

import re
from pathlib import Path

import pytest

from repro import experiments
from repro.cli import main
from repro.experiments import EXPERIMENTS, Context, Experiment, run_experiments, select
from repro.reports import ShapeCheck

ROOT = Path(__file__).resolve().parent.parent
# M3 and S5 build worlds of their own (CI's experiments job pins them).
CAMPAIGN_ROWS = [row for row in EXPERIMENTS if row.id not in ("M3", "S5")]


def written(out: Path, rows) -> dict:
    return {row.id: (out / f"{row.artefact}.txt").read_bytes() for row in rows}


@pytest.fixture(scope="module")
def ctx():
    return Context(1e-6)


@pytest.fixture(scope="module")
def full_run(ctx, tmp_path_factory):
    """The campaign-backed rows in table order — the first thing the
    module's one campaign sees."""
    out = tmp_path_factory.mktemp("table-order")
    run_experiments(ctx, CAMPAIGN_ROWS, out)
    return written(out, CAMPAIGN_ROWS)


def test_ids_and_artefacts_are_the_documented_ones():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 4. Experiment index")[1].split("## 5.")[0]
    cells = [line.split("|")[-2] for line in section.splitlines() if line.startswith("| ")]
    documented = {token for cell in cells[1:] for token in re.findall(r"`([^`]+)`", cell)}
    assert documented == {row.id for row in EXPERIMENTS}
    cited = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for row in EXPERIMENTS:
        assert f"{row.artefact}.txt" in cited, row.id
        assert (ROOT / "docs" / "experiments" / f"{row.artefact}.txt").is_file(), row.id


def test_reversed_order_writes_the_same_bytes(ctx, full_run, tmp_path):
    run_experiments(ctx, CAMPAIGN_ROWS[::-1], tmp_path)
    assert written(tmp_path, CAMPAIGN_ROWS) == full_run


@pytest.mark.parametrize("row", CAMPAIGN_ROWS, ids=lambda row: row.id)
def test_row_alone_writes_the_full_runs_bytes(ctx, full_run, tmp_path, row):
    run_experiments(ctx, select(row.id), tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == [f"{row.artefact}.txt"]
    assert written(tmp_path, [row])[row.id] == full_run[row.id]


def test_a_failing_check_exits_1_and_names_the_row(monkeypatch, tmp_path, capsys):
    def doomed(ctx):
        return "text", [ShapeCheck("never-holds", False, "by construction", table="table1")]

    monkeypatch.setattr(experiments, "EXPERIMENTS", (Experiment("T1", "table1", doomed),))
    assert main(["experiments", "--scale", "1e-6", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] never-holds" in out and "FAILED: T1" in out
    assert (tmp_path / "table1.txt").read_text() == "text\n"


def test_an_unknown_id_exits_2(tmp_path, capsys):
    assert main(["experiments", "--only", "T1,nope", "--out", str(tmp_path)]) == 2
    assert "unknown experiment 'nope'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
