"""Code with a job: what no loop path reaches stays gone.

``tests/test_import_graph.py`` holds every module to a caller; this
file holds the names deleted with code that had no job, and the verbs
whose jobs ``campaign``, ``store`` and ``experiments`` do.  Pure text
plus one parser build: the two checks CI's "Code with a job" step ran
as a grep over the tree and over ``repro-dnssec --help``.
"""

import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "examples", "docs", "README.md", "DESIGN.md", ".claude")

DELETED = re.compile(
    r"RolloverEngine|analyze_csync|CsyncReport|run_parallel_campaign|partition_zones"
    r"|load_results_path|dump_results_path|iter_bucket"
    # The world is assembled by plain functions over its own dicts, and
    # world.specs is the one place it keeps a spec.
    r"|InfrastructureBuilder|customer_spec_maps|\bworld\.builder\b"
    # A committed segment is read one way, strictly; a server reads its
    # providers' own apex maps.
    r"|LoadStats|load_results|\biter_shard\b|claim_apex|_provider_apexes"
    # A received message is decoded through one process-wide memo, and
    # query templates are one process-wide table: no per-world copy.
    r"|\b_QUERIES\b|QUERY_MEMO_MAX|\bDECODE_MEMO_MAX\b|network\._decoded|self\._templates"
    # Every memo table is a repro.memo.Memo that carries its own bound:
    # no eviction helper, bound constant or hit counter beside it.
    r"|\b_remember\b|SEED_MEMO_MAX|_VERIFY_MEMO_LIMIT|_RDATA_MEMO_LIMIT|RDATA_MEMO_MAX"
    r"|_TEMPLATE_CACHE_MAX|_INTERN_LIMIT|RECEIVED_MEMO_MAX|\bTEXT_HITS\b|\bRDATA_HITS\b"
    r"|ANSWER_MEMO_MAX|ZONE_MEMO_MAX"
)

#: Not verbs: the JSONL side channel, the one-policy bootstrap and
#: list-zones.
GONE_VERBS = ("scan", "analyze", "bootstrap", "list-zones")


def searched_files():
    for entry in SEARCHED:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file() and "__pycache__" not in file.parts and file != Path(__file__):
                yield file


def test_no_deleted_name_is_spelled():
    spelled = [
        f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
        for file in searched_files()
        for number, line in enumerate(file.read_text(errors="ignore").splitlines(), 1)
        if DELETED.search(line)
    ]
    assert not spelled, "\n".join(spelled)


def test_the_deleted_verbs_are_not_commands():
    parser = build_parser()
    verbs = "|".join(map(re.escape, GONE_VERBS))
    listed = re.compile(rf"^ +({verbs}) |[{{,]({verbs})[,}}]", re.MULTILINE)
    assert not listed.search(parser.format_help()), parser.format_help()
    commands = {
        name
        for action in parser._actions
        if action.choices and not action.option_strings
        for name in action.choices
    }
    assert commands and not commands & set(GONE_VERBS), commands
