"""One acceptance ladder, one provisioning step.

The RFC 9615 signal conditions are read by the analysis that derives
them and by the ladder table, nowhere else; registry DS edits go
through the provisioning engine, and replay reaches a registry only
through the engine's one editor, called once; the agent spells no rung
of its own.  Text and ``ast`` checks only.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SIGNAL_CONDITIONS = re.compile(r"covered_all_ns|no_zone_cuts|secure_and_valid|matches_zone_cds")
CONDITION_READERS = {"core/signal.py", "core/bootstrap.py", "provisioning/policies.py"}

DS_EDITS = re.compile(r"\b(install_ds|remove_ds)\(")
DS_EDITORS = {"provisioning/engine.py"}
REGISTRY_EDITOR = "replace_delegation"
REGISTRY_REACH = re.compile(r"\b(registry_zones|add_rrset|remove_rrset)\b")

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


def test_replay_edits_a_registry_through_the_engine_once():
    """``ecosystem/mutate.py`` reaches no registry zone itself, and calls
    the engine's registry editor in exactly one place: ``follow``."""
    text = (SRC / "ecosystem" / "mutate.py").read_text(encoding="utf-8")
    assert not REGISTRY_REACH.findall(text)
    tree = ast.parse(text)
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == REGISTRY_EDITOR
    ]
    assert callers == ["follow"]


def test_the_agent_spells_no_rung_of_its_own():
    assert not _matches(LADDER_RUNGS, under="agent")
