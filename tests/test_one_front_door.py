"""One front door: the CLI is two tables, a setting is declared once.

The parser is a loop over ``FLAGS`` / ``COMMANDS``, so each of its two
argparse calls has exactly one call site; ``--store`` has no alias, so
no workflow may spell one; and one module spells "the operator DB of a
profile catalogue".  Pure text, the same four checks CI's "One front
door" step ran as greps.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI_SOURCES = sorted((ROOT / "src" / "repro").glob("cli*.py"))


def lines_with(paths, needle):
    return [
        f"{path.relative_to(ROOT)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if needle in line
    ]


@pytest.mark.parametrize("call", ["add_parser(", "add_argument("])
def test_the_parser_is_built_by_one_call_site_each(call):
    assert CLI_SOURCES
    assert len(lines_with(CLI_SOURCES, call)) == 1, lines_with(CLI_SOURCES, call)


def test_no_workflow_spells_a_store_alias():
    alias = re.compile(r"--dir\b")
    spelled = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / ".github" / "workflows").rglob("*"))
        if path.is_file()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if alias.search(line)
    ]
    assert not spelled


def test_one_module_builds_the_operator_db_of_a_catalogue():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    callers = {
        str(path.relative_to(ROOT))
        for path in sources
        if "operator_db_config(" in path.read_text()
    }
    assert callers <= {"src/repro/ecosystem/profiles.py"}, callers
