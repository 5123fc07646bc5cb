"""The benchmark's own contract: BENCHMARK.json and the harness agree,
every declared metric is printed once per workload with a unit, the trace
targets still resolve, and a wrong expectation fails the command.

Collected by the existing ``pytest benchmarks`` smoke step; the smoke run
uses halved scales, one unit per workload and no warm-up, so its numbers
mean nothing — only their names, units and the checks do.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def test_manifest_matches_harness(manifest):
    _, workloads = run._import_program()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in manifest["workloads"])

    end_to_end = {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    }
    assert end_to_end == run.END_TO_END
    assert end_to_end["setup_s"][:2] == ("s", "lower")
    assert max(bound for _, _, bound in end_to_end.values()) == end_to_end["setup_s"][2] <= 0.25
    assert len(manifest["end_to_end"]) <= 16

    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert len(manifest["per_layer"]) == len(per_layer) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in manifest["per_layer"])

    names = [w["name"] for w in manifest["workloads"]] + list(end_to_end) + list(per_layer)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(unit) for unit in list(per_layer.values()))
    assert all(
        m["better"] in ("lower", "higher") for m in manifest["end_to_end"] + manifest["per_layer"]
    )


def test_trace_targets_resolve():
    tracer, _ = run._import_program()
    assert tracer.Tracer().resolve_all() == []


def test_unresolvable_target_is_counted_not_fatal():
    tracer_module, _ = run._import_program()
    gone = tracer_module.Target("dns", "from_wire", "repro.dns.message:Message.no_such_method")
    tracer = tracer_module.Tracer(targets=[gone])
    with tracer.installed():
        pass
    assert tracer.unresolved == [gone.path]
    assert tracer.unresolved_keys() == {("dns", "from_wire")}


def _metric_lines(block: str):
    """``name value unit`` lines of one run's printed table."""
    found = []
    for line in block.splitlines():
        parts = line.split()
        if "(phase figure)" in line:
            continue  # printed beside the end-to-end table, exported per layer
        if line.startswith("  ") and len(parts) >= 3 and NAME.fullmatch(parts[0]):
            try:
                float(parts[1])
            except ValueError:
                continue
            found.append((parts[0], parts[2]))
    return found


def test_smoke_prints_every_metric_once(manifest):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "1", "--trace", "--verbose"],
        capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    runs, _, summary = done.stdout.partition("\n== ")
    assert "all checks passed" in summary
    blocks = ["workload " + block for block in runs.split("workload ")[1:]]
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    seen = set()
    for block in blocks:
        name = block.split()[1]
        traced = " 0 traced units" not in block
        seen.add((name, traced))
        lines = _metric_lines(block)
        printed = dict(lines)
        assert len(printed) == len(lines), f"{name}: a metric is printed twice"
        declared = per_layer if traced else end_to_end
        missing = {k: v for k, v in declared.items() if printed.get(k) != v}
        assert not missing, f"{name} (traced={traced}) lacks {sorted(missing)[:5]}"
    assert seen == {(w["name"], traced) for w in manifest["workloads"] for traced in (False, True)}


def test_wrong_expectation_fails_the_command(monkeypatch, capsys):
    _, workloads = run._import_program()
    truth = workloads.expected_classification
    monkeypatch.setattr(
        workloads,
        "expected_classification",
        lambda cell, after_recheck=False: truth(cell, after_recheck)[::-1],
    )
    code = run.main(["--workload", "sim_campaign", "--smoke", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
