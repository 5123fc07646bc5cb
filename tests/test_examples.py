"""Smoke tests: every shipped example must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    script = EXAMPLES / name
    assert script.exists(), script
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "DNSSEC status across the population" in out
        assert "RFC 9615 signal outcomes" in out

    def test_bootstrap_audit(self):
        out = run_example("bootstrap_audit.py")
        assert "verdict: correct" in out
        assert "validation: secure" in out

    def test_live_udp_demo(self):
        out = run_example("live_udp_demo.py")
        assert "SECURE" in out
        assert "NXDOMAIN" in out

    def test_registry_bootstrap(self):
        out = run_example("registry_bootstrap.py")
        assert "RFC 9615 authenticated bootstrapping" in out
        assert "accepted + verified secure:" in out

    def test_offline_analysis(self):
        out = run_example("offline_analysis.py")
        assert "analyses agree exactly" in out

    def test_reproduce_paper_tiny_scale(self):
        out = run_example("reproduce_paper.py", "1e-6")
        for artefact in ("Table 1", "Table 2", "Table 3", "Figure 1"):
            assert artefact in out
        assert "checks passed" in out
