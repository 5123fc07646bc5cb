"""One value, one constant: a setting no caller sets is not a setting.

A campaign setting is a :class:`~repro.campaign.CampaignConfig` field
only while some caller sets it to more than one value; a value the code
can work out (an epoch's parent) is worked out.  These guards hold the
config to its field list, keep the validation instant out of the
analysis API, and keep the deleted §3 zone-list acquisition path gone.
Pure ``ast`` and text, except the one manifest-refusal test.
"""

import ast
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.store import StoreError
from repro.store.manifest import load_manifest, manifest_path

ROOT = Path(__file__).resolve().parent.parent

CONFIG_FIELDS = {
    "scale",
    "seed",
    "recheck",
    "store_dir",
    "checkpoint_every",
    "num_shards",
    "compress",
    "stop_after",
    "workers",
    "in_flight",
    "telemetry",
    "chaos",
    "retry",
    "transport",
    "epoch",
    "monitor",
    "scenarios",
}

# Names of the deleted acquisition path (the acquired-scan-list switch,
# its list compiler, and the registry's zone-transfer export).
GONE = ("use_sources", "compile_scan_list", "allow_axfr", "_answer_axfr")


def test_campaign_config_has_exactly_its_fields():
    assert {f.name for f in fields(CampaignConfig)} == CONFIG_FIELDS


def test_no_analysis_function_takes_a_validation_instant():
    """Signatures are validated at ``DEFAULT_VALIDATION_TIME``; only the
    validator and the validating resolver (under ``dnssec`` and
    ``resolver``) take a ``now``, for vectors with their own clocks."""
    offenders = []
    for package in ("core", "store", "query"):
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    if any(argument.arg == "now" for argument in arguments):
                        offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not offenders, offenders


def test_the_acquisition_path_stays_deleted():
    found = []
    for top in ("src", "tests", "examples", "docs"):
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or path.suffix not in (".py", ".md", ".txt", ".yml"):
                continue
            if path.resolve() == Path(__file__).resolve():
                continue
            text = path.read_text(encoding="utf-8")
            found += [f"{path.relative_to(ROOT)}: {name}" for name in GONE if name in text]
    assert not found, found


def _record_setting(root, key, value):
    manifest = json.loads(manifest_path(root).read_text(encoding="utf-8"))
    manifest["config"][key] = value
    manifest_path(root).write_text(json.dumps(manifest), encoding="utf-8")


@pytest.fixture
def interrupted(tmp_path):
    root = tmp_path / "store"
    run_campaign(CampaignConfig(scale=1.25e-7, seed=3, recheck=False, store_dir=root, stop_after=4))
    return root


def test_a_campaign_that_scanned_an_acquired_list_is_not_resumed(interrupted):
    """Its scan list came from a path that no longer exists: finishing it
    with the generator's list would mix two populations in one store."""
    _record_setting(interrupted, "use_sources", True)
    before = manifest_path(interrupted).read_bytes()
    with pytest.raises(StoreError, match="use_sources"):
        resume_campaign(interrupted)
    assert manifest_path(interrupted).read_bytes() == before


def test_a_removed_setting_at_its_old_default_still_resumes(interrupted):
    _record_setting(interrupted, "use_sources", False)
    resume_campaign(interrupted)
    assert load_manifest(interrupted).complete
