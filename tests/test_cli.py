"""Tests for the command line interface."""

import re
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig
from repro.cli import COMMANDS, FAMILIES, FLAGS, build_parser, main
from repro.monitor.plane import EPOCH_SETTINGS
from repro.store import load_manifest

SCALE_ARGS = ["--scale", "0.000001", "--seed", "2"]
VERBS = [pytest.param(row, id="-".join(row.path)) for row in COMMANDS]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_defaults(self):
        args = build_parser().parse_args(["campaign", "run"])
        assert args.scale == 1e-5
        assert args.artifact == "all"

    def test_bad_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--artifact", "table9"])


class TestCommands:
    def test_audit_default_zone(self, capsys):
        rc = main(["audit", *SCALE_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status:" in out and "signal outcome:" in out

    def test_report_single_artifact(self, capsys):
        rc = main(["campaign", "run", *SCALE_ARGS, "--artifact", "figure1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Table 1" not in out

    def test_report_all(self, capsys):
        rc = main(["campaign", "run", *SCALE_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        for artefact in ("Table 1", "Table 2", "Table 3", "Figure 1"):
            assert artefact in out


class TestStoreCommands:
    def test_init_interrupt_status_resume_diff_reanalyze(self, capsys, tmp_path):
        """The full warehouse lifecycle through the CLI."""
        store_a = str(tmp_path / "a")
        rc = main(
            ["campaign", "run", *SCALE_ARGS, "--store", store_a, "--stop-after", "25",
             "--checkpoint-every", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "status:    in-progress" in out
        assert "campaign resume" in out

        rc = main(["store", "status", "--store", store_a, "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "25/" in out
        assert "all shard digests verified" in out

        rc = main(["campaign", "resume", "--store", store_a])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status:    complete" in out

        rc = main(["store", "reanalyze", "--store", store_a])
        assert rc == 0
        assert "analysed" in capsys.readouterr().out

        store_b = str(tmp_path / "b")
        rc = main(["campaign", "run", *SCALE_ARGS, "--store", store_b])
        assert rc == 0
        capsys.readouterr()
        rc = main(["store", "diff", "--old", store_a, "--new", store_b])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign diff" in out
        assert "+0 added, -0 removed" in out


@pytest.fixture(scope="module")
def indexed_store(tmp_path_factory):
    """A campaign store with its query snapshot built."""
    store = str(tmp_path_factory.mktemp("cli-query") / "store")
    assert main(["campaign", "run", "--scale", "5e-7", "--seed", "41", "--store", store]) == 0
    assert main(["query", "index", "--store", store]) == 0
    return store


class TestQueryCommands:
    def test_list_by_status(self, indexed_store, capsys):
        capsys.readouterr()
        assert main(["query", "list", "--store", indexed_store, "--status", "island"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("status", ["islands", "bogus"])
    def test_list_rejects_an_unknown_status(self, indexed_store, status, capsys):
        # Table 1's header says "islands"; the class is "island".  A typo
        # used to print nothing and exit 0.
        with pytest.raises(SystemExit) as stop:
            main(["query", "list", "--store", indexed_store, "--status", status])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "invalid choice" in err


class TestUserErrors:
    """What the user got wrong is one line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "--stop-after", "5"],
            ["campaign", "run", "--transport", "wire", "--workers", "2"],
            ["campaign", "resume", "--store", "{missing}"],
            ["store", "status", "--store", "{missing}"],
        ],
        ids=["stop-after-without-store", "wire-with-workers", "resume-missing", "status-missing"],
    )
    def test_exit_2_one_line_no_traceback(self, argv, tmp_path, capsys):
        assert main([arg.format(missing=tmp_path / "missing") for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1


# -- the tables ----------------------------------------------------------------


@pytest.mark.parametrize("row", VERBS)
def test_every_verb_prints_help(row, capsys):
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args([*row.path, "--help"])
    assert stop.value.code == 0
    assert "--help" in capsys.readouterr().out


# CampaignConfig fields no command-line flag sets, and why.
NOT_A_FLAG = {
    "epoch": "set per epoch by Monitor; `monitor advance` is the way in",
    "monitor": "assembled by `monitor init` from --monitor-seed/--event-rate-scale/--scenarios",
}


def test_every_campaign_setting_has_a_flag_or_a_reason():
    fed = {row.field for command in COMMANDS for row in command.flags if row.field}
    assert fed | set(NOT_A_FLAG) == {f.name for f in fields(CampaignConfig)}
    assert not fed & set(NOT_A_FLAG)
    # A verb may reword a shared flag; it may not re-route or re-convert it.
    for command in COMMANDS:
        for row in command.flags:
            if row.field:
                shared = FLAGS[row.dest]
                assert (row.strings, row.field, row.convert) == (
                    shared.strings,
                    shared.field,
                    shared.convert,
                ), (command.path, row.dest)
    # The epoch settings are campaign settings under the same names.
    assert set(EPOCH_SETTINGS) <= fed


@pytest.fixture(scope="module")
def monitor_root(tmp_path_factory):
    """A monitor root with every epoch setting given on the command line
    (wire and workers exclude each other; workers takes the converter
    path), advanced through the baseline and one delta epoch."""
    root = tmp_path_factory.mktemp("cli-monitor") / "mon"
    assert main([
        "monitor", "init", "--store", str(root), "--scale", "5e-7", "--seed", "41",
        "--monitor-seed", "7", "--event-rate-scale", "40",
        "--workers", "2", "--in-flight", "3", "--telemetry",
        "--checkpoint-every", "32", "--shards", "8", "--no-gzip",
    ]) == 0
    assert main(["monitor", "advance", "--store", str(root), "--epochs", "2"]) == 0
    return root


class TestMonitorVerbs:
    GIVEN = {
        "workers": 2, "in_flight": 3, "transport": "sim", "telemetry": True,
        "checkpoint_every": 32, "num_shards": 8, "compress": False,
    }

    def test_epoch_settings_reach_the_epoch_0_manifest(self, monitor_root):
        assert set(self.GIVEN) == set(EPOCH_SETTINGS)
        manifest = load_manifest(monitor_root / "epochs" / "e0000")
        leaf = CampaignConfig.from_manifest(manifest)
        assert {name: getattr(leaf, name) for name in EPOCH_SETTINGS} == self.GIVEN
        assert leaf.epoch == 0 and not leaf.recheck

    def test_status(self, monitor_root, capsys):
        assert main(["monitor", "status", "--store", str(monitor_root)]) == 0
        out = capsys.readouterr().out
        assert "epoch 0: complete, baseline" in out
        assert "epoch 1: complete, delta" in out

    def test_diff(self, monitor_root, capsys):
        assert main(["monitor", "diff", "--store", str(monitor_root)]) == 0
        assert "epoch 0" in capsys.readouterr().out
        assert main(["monitor", "diff", "--store", str(monitor_root), "--old", "1", "--new", "0"]) == 2
        assert "monitor diff failed: cannot diff epoch 1 -> 0" in capsys.readouterr().err

    def test_diff_checks(self, monitor_root, capsys):
        rc = main(["monitor", "diff", "--store", str(monitor_root), "--checks"])
        out = capsys.readouterr().out
        passed, total = map(
            int, re.search(r"(\d+)/(\d+) shape checks passed", out).groups()
        )
        assert "(table1, epoch 1)" in out
        assert rc == (0 if passed == total else 1)


# -- docs/cli.md is held to the tables -----------------------------------------

CLI_DOC = Path(__file__).resolve().parent.parent / "docs" / "cli.md"
PATHS = {row.path for row in COMMANDS}


def _verb(words):
    """The leaf path a ``repro-dnssec <words...>`` mention names."""
    path = tuple(words[:2]) if words[0] in FAMILIES else tuple(words[:1])
    assert path in PATHS, f"docs/cli.md names `{' '.join(words[:2])}`, which is no verb"
    return path


@lru_cache(maxsize=None)
def _synopses():
    """{leaf path: its synopsis text} from the fenced blocks of docs/cli.md."""
    found, path, fenced = {}, None, False
    for line in CLI_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, path = not fenced, None
        elif fenced and line.startswith("repro-dnssec "):
            path = _verb(line.split()[1:])
            found[path] = found.get(path, "") + line
        elif fenced and path and line[:1].isspace():
            found[path] += line
    return found


@pytest.mark.parametrize("row", VERBS)
def test_docs_spell_every_verb_and_flag(row):
    synopsis = _synopses().get(row.path)
    assert synopsis, f"docs/cli.md has no synopsis for `{' '.join(row.path)}`"
    spelled = set(re.findall(r"--[a-z][a-z-]*", synopsis))
    wanted = {s for each in row.flags for s in each.strings if s.startswith("--")}
    assert wanted == spelled


def test_docs_name_no_verb_the_table_lacks():
    text = CLI_DOC.read_text(encoding="utf-8")
    assert "--dir" not in text
    mentions = re.findall(r"repro-dnssec[ \t]+([a-z][a-z-]*)(?:[ \t]+([a-z][a-z-]*))?", text)
    assert len(mentions) > len(COMMANDS)
    for words in mentions:
        _verb([w for w in words if w])
