"""Shared campaign fixture for the benchmark harness.

One full measurement campaign (build → scan → analyze → re-check) is run
per session and shared by the per-table benchmarks; its scale is
controlled with ``REPRO_BENCH_SCALE`` (default 1e-4 = 28 760 zones, the
full-fidelity setting whose percentages match the paper to rounding).
Set e.g. ``REPRO_BENCH_SCALE=2e-6`` for a quick smoke run.
"""

import json
import os
import pathlib
from typing import Any, Dict, Optional

import pytest

from repro.campaign import CampaignConfig, run_campaign

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1e-4"))
FULL_FIDELITY = SCALE >= 9e-5

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def campaign():
    return run_campaign(CampaignConfig(scale=SCALE, seed=1, recheck=True))


@pytest.fixture(scope="session")
def full_fidelity():
    return FULL_FIDELITY


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def campaign_store(campaign, tmp_path_factory):
    """The session campaign persisted once into a sharded store — shared
    by the read/resume benchmarks in bench_store.py."""
    from repro.store import CampaignStore

    root = tmp_path_factory.mktemp("campaign-store")
    store = CampaignStore.create(
        root,
        seed=campaign.world.seed,
        scale=campaign.world.scale,
        zones_total=len(campaign.results),
    )
    for result in campaign.results:
        store.append(result)
    store.complete()
    return root


def save_metrics(results_dir: pathlib.Path, stem: str, metrics: Dict[str, Any]) -> None:
    """Write the machine-readable twin of a benchmark artifact:
    ``BENCH_<stem>.json`` with the experiment's headline numbers, so
    downstream tooling can track throughput without parsing the .txt."""
    payload = {"experiment": stem, "scale": SCALE, **metrics}
    path = results_dir / f"BENCH_{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[metrics saved to {path}]")


def save_artifact(
    results_dir: pathlib.Path,
    name: str,
    text: str,
    metrics: Optional[Dict[str, Any]] = None,
) -> None:
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    if metrics is not None:
        save_metrics(results_dir, pathlib.Path(name).stem, metrics)
