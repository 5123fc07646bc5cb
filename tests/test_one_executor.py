"""One executor: a layout differs in its scan step only.

The report is assembled and re-checked in exactly one place, for every
layout; what is left of the parallel parent is a scan step (it neither
reads the store back, nor re-checks, nor builds the result); one
function lists a store's zones; the never-called index-builder plumbing
stays gone.  Text checks only.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _lines(root, suffixes=(".py",)):
    """``(path, line)`` for every line of the *suffixes* files under *root*."""
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.suffix not in suffixes or path == Path(__file__):
            continue
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            yield path, line


def _count(pattern, root=SRC):
    return sum(1 for _, line in _lines(root) if re.search(pattern, line))


def test_one_campaign_result_is_built():
    assert _count(r"CampaignResult\(") == 1


def test_recheck_pass_has_one_call_site():
    calls = [
        line
        for _, line in _lines(SRC)
        if "recheck_pass(" in line and "def recheck_pass(" not in line
    ]
    assert len(calls) == 1, calls


def test_the_parallel_parent_is_a_scan_step():
    engine = (SRC / "parallel" / "engine.py").read_text(encoding="utf-8")
    assert not re.findall(r"StoreReader|recheck_pass|CampaignResult|seal", engine)


def test_one_stored_zone_lister():
    listers = {
        path
        for root in (SRC / "store", SRC / "parallel")
        for path, line in _lines(root)
        if '["zone"]' in line
    }
    assert len(listers) == 1, sorted(map(str, listers))


def test_the_index_builder_plumbing_stays_gone():
    found = [
        f"{path.relative_to(ROOT)}: {line.strip()}"
        for top in ("src", "tests", "benchmarks", "examples", "docs")
        for path, line in _lines(ROOT / top, suffixes=(".py", ".md"))
        if re.search(r"track_locations|read_record_at", line)
    ]
    assert not found
