"""One acceptance ladder, one provisioning step.

The RFC 9615 signal conditions are read by the analysis that derives
them and by the ladder table, nowhere else; registry DS edits go
through the provisioning engine (and the replay mutations); the agent
spells no rung of its own.  Text checks only.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SIGNAL_CONDITIONS = re.compile(r"covered_all_ns|no_zone_cuts|secure_and_valid|matches_zone_cds")
CONDITION_READERS = {"core/signal.py", "core/bootstrap.py", "provisioning/policies.py"}

DS_EDITS = re.compile(r"\b(install_ds|remove_ds)\(")
DS_EDITORS = {"provisioning/engine.py", "ecosystem/mutate.py"}

LADDER_RUNGS = re.compile(
    r"DnssecStatus|\.cds\.|\.signal\.|is_delete|sigs_valid|matches_dnskey|any_signal|status_detail"
)


def _matches(pattern, allowed=frozenset(), under=""):
    """``path:line: text`` for every line under src/repro/*under* that
    *pattern* finds, outside the *allowed* files."""
    return [
        f"{name}:{number}: {line.strip()}"
        for path in sorted((SRC / under).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for name in [path.relative_to(SRC).as_posix()]
        if name not in allowed
        for number, line in enumerate(path.read_text(encoding="utf-8", errors="replace").splitlines(), 1)
        if pattern.search(line)
    ]


def test_signal_conditions_are_read_by_the_analysis_and_the_ladder_only():
    assert not _matches(SIGNAL_CONDITIONS, CONDITION_READERS)


def test_registry_ds_edits_go_through_the_engine():
    assert not _matches(DS_EDITS, DS_EDITORS)


def test_the_agent_spells_no_rung_of_its_own():
    assert not _matches(LADDER_RUNGS, under="agent")
