"""One copy of each verdict, one attribution rule, store below query.

A zone's verdict is computed by :func:`repro.core.pipeline.zone_verdict`
alone: the query index keeps it once per zone (in its meta rows, with
no second column copy beside them), the "multi-operator → unknown" rule
is written once, and the store layer never reaches up into the query
layer that indexes it.  Text and file-system checks only, except for
indexing the hand-built mini world once.
"""

from pathlib import Path

from repro.core.operators import OperatorDB
from repro.query import build_index
from repro.scanner import Scanner
from repro.store import CampaignStore

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_an_index_keeps_no_column_copy(mini_world, tmp_path):
    scanner = Scanner(mini_world["network"], mini_world["root_ips"])
    root = tmp_path / "store"
    store = CampaignStore.create(root, seed=99, scale=1.0, checkpoint_every=2)
    for result in scanner.scan_many(["example.com", "island.com"]):
        store.append(result)
    store.complete()
    build_index(root, operator_db=OperatorDB(suffixes={"opdns.net": "OpDNS"}))
    assert (root / "index" / "snapshot.json").exists()
    assert not (root / "index" / "columns").exists()


def test_one_attribution_rule():
    rules = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "UNKNOWN_OPERATOR if" in line
    ]
    assert len(rules) == 1, rules


def test_store_is_below_query():
    upward = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "store").rglob("*.py"))
        if "repro.query" in path.read_text(encoding="utf-8")
    ]
    assert not upward, f"store modules naming repro.query: {upward}"
