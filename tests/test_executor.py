"""The one campaign executor: run ≡ resume ≡ worker.

A :class:`CampaignConfig` is the only thing that travels, so (a) every
recorded setting must still be in force after a resume, (b) resume
overrides are validated together with the recorded settings, (c)
every scan-affecting field must reach a spawned worker's world, scanner
and store — and the parallel parent's, which comes through the same
``prepare`` — and (d) a layout differs in its scan step only: every
layout opens and closes the same way.  The first two tests fail at the
commit that still had five hand-threaded copies of the executor.
"""

import pickle
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

import repro.monitor.timeline as timeline_module
import repro.parallel.engine as engine_module
import repro.parallel.worker as worker_module
from repro.campaign import CampaignConfig, open_store, resume_campaign, run_campaign
from repro.chaos import ChaosConfig, RetryPolicy
from repro.monitor import MonitorSpec
from repro.monitor.timeline import scan_world
from repro.obs.events import stream_path
from repro.obs.telemetry import as_telemetry
from repro.parallel import (
    ParallelCampaignError,
    WorkerSpec,
    run_worker,
    worker_dir,
    zones_for_buckets,
)
from repro.reports import render_artifacts
from repro.scenarios import ScenarioSpec
from repro.store.manifest import load_manifest, manifest_path
from tests.helpers import run_with_faults

SCALE = 5e-7
SEED = 3


class TestResumeHonoursTheRecordedCadence:
    def test_sequential_resume_commits_like_the_uninterrupted_run(self, tmp_path):
        config = CampaignConfig(
            scale=SCALE, seed=SEED, recheck=False, checkpoint_every=10,
            store_dir=tmp_path / "full",
        )
        run_campaign(config)
        # stop_after is a multiple of the cadence, so commit boundaries
        # of the two halves line up with the uninterrupted run's.
        killed = replace(config, store_dir=tmp_path / "killed", stop_after=40)
        run_campaign(killed)
        resume_campaign(killed.store_dir)  # no arguments: all from the manifest

        full = load_manifest(config.store_dir)
        resumed = load_manifest(killed.store_dir)
        assert resumed.complete and resumed.records == full.records
        assert len(resumed.shards) == len(full.shards)
        assert len(full.shards) > full.records // 10  # really cadence 10, not 256

    def test_explicit_override_still_wins(self, tmp_path):
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, recheck=False, checkpoint_every=10,
                store_dir=root, stop_after=40,
            )
        )
        assert "telemetry" not in load_manifest(root).config
        resumed = resume_campaign(root, telemetry=True)
        # The remainder streamed telemetry although the campaign began without.
        assert resumed.telemetry is not None
        assert stream_path(root).exists()

    def test_killed_workers_resume_at_the_recorded_cadence(self, tmp_path):
        config = CampaignConfig(
            scale=SCALE, seed=SEED, recheck=False, checkpoint_every=10, workers=2,
            store_dir=tmp_path / "full",
        )
        run_campaign(config)
        killed = replace(config, store_dir=tmp_path / "killed")
        with pytest.raises(ParallelCampaignError):
            # 20 zones = two whole commits, then a hard exit.
            run_with_faults(killed, faults={0: 20})
        resume_campaign(killed.store_dir)

        full = load_manifest(config.store_dir)
        resumed = load_manifest(killed.store_dir)
        assert resumed.complete and resumed.records == full.records
        assert [(s.bucket, s.records) for s in resumed.shards] == [
            (s.bucket, s.records) for s in full.shards
        ]


class TestResumeOverridesAreValidatedAsAWhole:
    def test_workers_on_a_wire_store_is_refused_before_anything_moves(self, tmp_path):
        root = tmp_path / "store"
        config = CampaignConfig(
            scale=SCALE, seed=SEED, recheck=False, store_dir=root, stop_after=5,
            transport="wire", in_flight=4,
        )
        run_campaign(config)
        recorded = manifest_path(root).read_bytes()
        with pytest.raises(ValueError) as at_run:
            replace(config, workers=2, stop_after=None).validate()
        with pytest.raises(ValueError) as at_resume:
            resume_campaign(root, workers=2)
        assert str(at_resume.value) == str(at_run.value)
        assert manifest_path(root).read_bytes() == recorded
        assert not worker_dir(root, 0).parent.exists()
        # The recorded combination itself still resumes, over the wire.
        resumed = resume_campaign(root)
        assert load_manifest(root).complete
        assert load_manifest(root).config["transport"] == "wire"
        assert resumed.report.total_scanned == load_manifest(root).records


# -- every scan-affecting CampaignConfig field reaches a worker --------------

BUCKETS = (0, 1, 2, 3)
PLAIN = CampaignConfig(
    scale=SCALE,
    seed=SEED,
    checkpoint_every=7,
    num_shards=8,
    compress=False,
    workers=2,
    in_flight=4,
    telemetry=True,
    chaos=ChaosConfig.default(seed=5),
    retry=RetryPolicy(attempts=6),
    scenarios=ScenarioSpec.default(),
)
EPOCH = CampaignConfig(
    scale=SCALE,
    seed=SEED,
    recheck=False,
    workers=2,
    epoch=1,
    monitor=MonitorSpec(seed=7).scaled(20.0),
)


def _delta_subset(config):
    return scan_world(config.scale, config.seed, monitor=config.monitor, epoch=config.epoch)[1]


# field → (which config carries a non-default value, what the worker's
# world / scanner / zones / store must then show).
OBSERVED = {
    "scale": (PLAIN, lambda c, w: w.world.scale == c.scale),
    "seed": (PLAIN, lambda c, w: w.world.seed == c.seed),
    "checkpoint_every": (PLAIN, lambda c, w: w.store.checkpoint_every == 7),
    "num_shards": (PLAIN, lambda c, w: w.store.manifest.num_shards == 8),
    "compress": (PLAIN, lambda c, w: w.store.manifest.compress is False),
    "in_flight": (PLAIN, lambda c, w: w.scanner.config.in_flight == 4),
    "telemetry": (PLAIN, lambda c, w: w.scanner.telemetry.enabled),
    "chaos": (
        PLAIN,
        lambda c, w: w.world.network.chaos.config == c.chaos.derive("worker", BUCKETS[0]),
    ),
    "retry": (PLAIN, lambda c, w: w.scanner.retry == c.retry.derive("worker", BUCKETS[0])),
    "scenarios": (PLAIN, lambda c, w: "SpoofSign" in w.world.profiles),
    "epoch": (EPOCH, lambda c, w: w.events is not None),
    "monitor": (
        EPOCH,
        lambda c, w: w.zones == zones_for_buckets(_delta_subset(c), w.store.manifest.num_shards, BUCKETS),
    ),
}
# Fields a worker has no use for, and why.
NOT_A_WORKERS_BUSINESS = {
    "recheck": "the parent re-checks, from the merged store",
    "store_dir": "the root store; a worker writes WorkerSpec.store_dir",
    "workers": "the parent partitions; a worker sees WorkerSpec.buckets",
    "stop_after": "validate() rejects it with workers=N",
    "transport": "validate() rejects 'wire' with workers=N",
}


def test_every_config_field_is_threaded_or_accounted_for():
    names = {f.name for f in fields(CampaignConfig)}
    assert set(OBSERVED) | set(NOT_A_WORKERS_BUSINESS) == names
    assert not set(OBSERVED) & set(NOT_A_WORKERS_BUSINESS)
    defaults = CampaignConfig()
    for name, (config, _) in OBSERVED.items():
        assert getattr(config, name) != getattr(defaults, name), name


@pytest.fixture(scope="module")
def seen_by_worker(tmp_path_factory):
    """Run one worker inline per config (once), noting what the executor
    steps handed it."""
    cache = {}

    def run(config):
        if id(config) not in cache:
            cache[id(config)] = _run_one_worker(config, tmp_path_factory.mktemp("executor"))
        return cache[id(config)]

    return run


def _run_one_worker(config, root):
    config = replace(config, store_dir=root)
    config.validate()
    spec = WorkerSpec(
        index=0,
        buckets=BUCKETS,
        store_dir=str(worker_dir(root, 0)),
        skip_roots=(),
        crash_after=None,
        # What the parent resolves before spawning (see engine.scan_with_workers).
        config=replace(config, num_shards=config.num_shards or 16, telemetry=bool(config.telemetry)),
    )
    assert pickle.loads(pickle.dumps(spec)) == spec
    seen = SimpleNamespace()
    real_prepare, real_scan_into = worker_module.prepare, worker_module.scan_into

    def prepare(*args, **kwargs):
        seen.world, seen.scanner, zones, seen.events = real_prepare(*args, **kwargs)
        return seen.world, seen.scanner, zones, seen.events

    def scan_into(scanner, zones, store, **kwargs):
        assert scanner is seen.scanner
        seen.zones, seen.store = zones, store
        return real_scan_into(scanner, zones[:2], store, **kwargs)  # two zones: keep it quick

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worker_module, "prepare", prepare)
        patch.setattr(worker_module, "scan_into", scan_into)
        run_worker(pickle.loads(pickle.dumps(spec)))
    return seen


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_worker_observes_the_field(name, seen_by_worker):
    config, check = OBSERVED[name]
    assert check(config, seen_by_worker(config)), name


# -- the parallel parent comes through prepare() too -------------------------

# field → what the parent's world / scanner / scan list must show.
PARENT_OBSERVED = {
    "scale": (PLAIN, lambda c, p: p.world.scale == c.scale),
    "seed": (PLAIN, lambda c, p: p.world.seed == c.seed),
    "in_flight": (PLAIN, lambda c, p: p.scanner.config.in_flight == 4),
    "telemetry": (PLAIN, lambda c, p: p.scanner.telemetry is p.telemetry and p.telemetry.enabled),
    "chaos": (PLAIN, lambda c, p: p.world.network.chaos.config == c.chaos.derive("recheck")),
    "retry": (PLAIN, lambda c, p: p.scanner.retry == c.retry),
    "scenarios": (PLAIN, lambda c, p: "SpoofSign" in p.world.profiles),
    "epoch": (EPOCH, lambda c, p: p.events is not None),
    "monitor": (EPOCH, lambda c, p: p.zones == _delta_subset(c)),
}
# Fields the parent's scan step has no use for, and why.
NOT_THE_SCAN_STEPS_BUSINESS = {
    "recheck": "read by the close in _execute, on the scanner checked here",
    "store_dir": "the open: the root store is open before the scan step starts",
    "checkpoint_every": "the open (open_store); the parent appends nothing",
    "num_shards": "the open; the scan step reads the manifest's",
    "compress": "the open; the parent writes no segment",
    "workers": "the partition (bucket_ranges), not the world or the scanner",
    "stop_after": "validate() rejects it with workers=N",
    "transport": "validate() rejects 'wire' with workers=N",
}


def test_every_config_field_reaches_the_parent_or_is_accounted_for():
    names = {f.name for f in fields(CampaignConfig)}
    assert set(PARENT_OBSERVED) | set(NOT_THE_SCAN_STEPS_BUSINESS) == names
    assert not set(PARENT_OBSERVED) & set(NOT_THE_SCAN_STEPS_BUSINESS)
    # What the sequential close reads off its scanner is observed, not excused.
    assert {"retry", "chaos", "in_flight", "telemetry"} <= set(PARENT_OBSERVED)


@pytest.fixture(scope="module")
def seen_by_parent(tmp_path_factory):
    """Run the parent's scan step on a finished (empty) store — nothing
    to spawn — noting what prepare() was handed and what it built."""
    cache = {}

    def run(config):
        if id(config) not in cache:
            config = replace(config, store_dir=tmp_path_factory.mktemp("parent") / "store")
            config.validate()
            telemetry = as_telemetry(config.telemetry)
            store = open_store(config, config.store_dir, telemetry, create={})
            store.complete()
            seen = SimpleNamespace(telemetry=telemetry)

            def prepare(*args, **kwargs):
                seen.world, seen.scanner, seen.zones, seen.events = real_prepare(*args, **kwargs)
                return seen.world, seen.scanner, seen.zones, seen.events

            real_prepare = engine_module.prepare
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine_module, "prepare", prepare)
                returned = engine_module.scan_with_workers(config, store, telemetry)
            assert returned[:3] == (seen.world, seen.scanner, seen.events)
            cache[id(config)] = seen
        return cache[id(config)]

    return run


@pytest.mark.parametrize("name", sorted(PARENT_OBSERVED))
def test_parent_observes_the_field(name, seen_by_parent):
    config, check = PARENT_OBSERVED[name]
    assert check(config, seen_by_parent(config)), name


def test_workers_are_spawned_before_the_parent_builds_its_world(tmp_path, monkeypatch):
    """The overlap: the parent's world build runs while the workers scan."""
    order = []

    def logged(label, real):
        def wrapper(*args, **kwargs):
            order.append(label)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(engine_module, "_spawn_workers", logged("spawn", engine_module._spawn_workers))
    monkeypatch.setattr(timeline_module, "build_world", logged("build", timeline_module.build_world))
    run_campaign(
        CampaignConfig(scale=1.3e-7, seed=SEED, recheck=False, workers=2, store_dir=tmp_path / "s")
    )
    assert order == ["spawn", "build"]


# -- one close: every layout ends in the same report and manifest ------------

BASE = CampaignConfig(scale=SCALE, seed=SEED, checkpoint_every=8)


def _serial(root):
    return run_campaign(replace(BASE, store_dir=root))


def _stopped_then_resumed(root):
    run_campaign(replace(BASE, store_dir=root, stop_after=40))
    return resume_campaign(root)


def _workers(root):
    return run_campaign(replace(BASE, store_dir=root, workers=2))


def _workers_killed_then_resumed_with_three(root):
    with pytest.raises(ParallelCampaignError):
        run_with_faults(replace(BASE, store_dir=root, workers=2), faults={0: 20})
    return resume_campaign(root, workers=3)


def _sequential_start_finished_by_workers(root):
    run_campaign(replace(BASE, store_dir=root, stop_after=40))
    return resume_campaign(root, workers=2)


# layout → (how to run it, the worker count its manifest must end up recording)
LAYOUTS = {
    "serial": (_serial, None),
    "stop_after-resume": (_stopped_then_resumed, None),
    "workers2": (_workers, 2),
    "workers2-killed-resume-workers3": (_workers_killed_then_resumed_with_three, 3),
    "sequential-start-finish-workers2": (_sequential_start_finished_by_workers, 2),
}


@pytest.fixture(scope="module")
def in_memory():
    return run_campaign(BASE)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_layout_closes_the_same_way(layout, in_memory, tmp_path):
    run, workers = LAYOUTS[layout]
    campaign = run(tmp_path / "store")
    assert render_artifacts(campaign.report) == render_artifacts(in_memory.report)
    assert campaign.rechecked == in_memory.rechecked and campaign.rechecked
    assert campaign.report.total_scanned == in_memory.report.total_scanned
    manifest = load_manifest(campaign.store_dir)
    assert manifest.complete and manifest.records == manifest.zones_total
    assert manifest.config == replace(BASE, workers=workers).manifest_config()
    assert (campaign.machines is not None) == (workers is not None)
