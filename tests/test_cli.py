"""Tests for the command line interface."""

import pytest

from repro.cli import build_parser, main

SCALE_ARGS = ["--scale", "0.000001", "--seed", "2"]


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
    def test_list_zones(self, capsys):
        rc = main(["list-zones", *SCALE_ARGS, "--limit", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "zones total" in out

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

    def test_scan_then_analyze(self, capsys, tmp_path):
        out_file = str(tmp_path / "results.jsonl")
        rc = main(["scan", *SCALE_ARGS, "--output", out_file, "--limit", "20"])
        assert rc == 0
        assert "scanned 20 zones" in capsys.readouterr().out
        rc = main(["analyze", "--input", out_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analysed 20 stored results" in out

    def test_bootstrap_rfc9615(self, capsys):
        rc = main(["bootstrap", *SCALE_ARGS, "--policy", "rfc9615"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy:    rfc9615-authenticated" in out
        assert "secured:" in out

    def test_bootstrap_delay_defers(self, capsys):
        rc = main(["bootstrap", *SCALE_ARGS, "--policy", "delay"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accepted:  0" in out  # day-zero pass only observes

    def test_scan_gzip_output_then_analyze(self, capsys, tmp_path):
        out_file = str(tmp_path / "results.jsonl.gz")
        rc = main(["scan", *SCALE_ARGS, "--output", out_file, "--limit", "10"])
        assert rc == 0
        capsys.readouterr()
        assert open(out_file, "rb").read(2) == b"\x1f\x8b"
        rc = main(["analyze", "--input", out_file])
        assert rc == 0
        assert "analysed 10 stored results" in capsys.readouterr().out


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

        rc = main(["store", "status", "--dir", store_a, "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "25/" in out
        assert "all shard digests verified" in out

        rc = main(["campaign", "resume", "--store", store_a])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status:    complete" in out

        rc = main(["store", "reanalyze", "--dir", store_a])
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
