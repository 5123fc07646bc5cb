"""Tests for the continuous-monitoring plane (:mod:`repro.monitor`).

The golden differential invariant: a chain of delta campaigns renders
byte-identical final tables to a from-scratch full scan of the final
world state — across serial execution, ``workers=2``, and
kill-and-resume.  Everything else here (event determinism, manifest
round-trips, diffs, the epoch-aware query plane) supports that claim.
"""

import json
import shutil
import sys

import pytest

from repro.agent import Agent
import repro.ecosystem.world as world_module
from repro.campaign import CampaignConfig, run_campaign
from repro.ecosystem.mutate import bootstrap_zone
from repro.monitor import (
    Monitor,
    MonitorConfig,
    MonitorError,
    MonitorSpec,
    render_epoch_diff,
)
from repro.monitor.events import events_for_epoch
from repro.monitor.layout import EPOCH_EVENTS_FILENAME
from repro.monitor.timeline import scan_world, world_at_epoch
from repro.parallel import ParallelCampaignError
from repro.query import QueryService, build_index, index_dir
from repro.query.service import QueryError
from repro.reports import render_artifacts
from repro.store.manifest import load_manifest
from repro.store.reader import StoreReader
from tests.helpers import run_with_faults


SCALE = 1e-6
SEED = 41
# Tiny worlds need boosted rates for the weekly event hashes to clear.
SPEC = MonitorSpec(seed=7).scaled(20.0)
WEEKS = 3


def dotted(zone: str) -> str:
    """Event zones are bare names; stored/merged keys are absolute."""
    return zone if zone.endswith(".") else zone + "."


def monitor_config(root, **overrides) -> MonitorConfig:
    settings = dict(root=root, scale=SCALE, seed=SEED, monitor=SPEC)
    settings.update(overrides)
    return MonitorConfig(**settings)


def merged_artifacts(monitor: Monitor, epoch=None) -> dict:
    return render_artifacts(monitor.analyze(epoch=epoch))


def full_scan_artifacts(epoch: int, tmp_path) -> dict:
    """Ground truth: scan the week-*epoch* world from scratch — from a
    cold plan too, so a plan that leaked an edit cannot corrupt both
    sides of a differential alike."""
    world_module._PLAN.clear()
    world, _ = world_at_epoch(SCALE, SEED, SPEC, epoch)
    campaign = run_campaign(
        CampaignConfig(
            scale=SCALE, seed=SEED, recheck=False, store_dir=tmp_path / f"full-e{epoch}"
        ),
        world=world,
    )
    return render_artifacts(campaign.report)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The module's shared sequential delta chain: baseline + 3 deltas."""
    root = tmp_path_factory.mktemp("monitor") / "mon"
    monitor = Monitor.init(monitor_config(root))
    results = monitor.run_until(weeks=WEEKS)
    return monitor, results


class TestEventStream:
    def test_events_are_a_pure_function_of_the_spec(self):
        batches = []
        for _ in range(2):
            world, _ = world_at_epoch(SCALE, SEED, SPEC, 0)
            batches.append(events_for_epoch(world, SPEC, 1))
        assert batches[0] == batches[1]
        assert batches[0], "boosted rates must actually fire events"

    def test_epochs_produce_distinct_batches(self):
        world, history = world_at_epoch(SCALE, SEED, SPEC, WEEKS)
        assert len(history) == WEEKS
        assert all(history), "every week must fire at least one event"
        assert len({tuple(batch) for batch in history}) == WEEKS

    def test_scan_world_subset_is_the_change_feed(self):
        _, subset, replayed = scan_world(SCALE, SEED, monitor=SPEC, epoch=1)
        world, _ = world_at_epoch(SCALE, SEED, SPEC, 0)
        events = events_for_epoch(world, SPEC, 1)
        assert replayed == events
        assert sorted(n.to_text() for n in subset) == sorted({dotted(e.zone) for e in events})

    def test_plain_and_baseline_scan_everything(self):
        _, subset, events = scan_world(SCALE, SEED)
        assert subset is None and events is None
        _, subset, events = scan_world(SCALE, SEED, monitor=SPEC, epoch=0)
        assert subset is None and events == []


class TestDeltaChain:
    def test_chain_runs_baseline_then_deltas(self, chain):
        monitor, results = chain
        assert [r.epoch for r in results] == list(range(WEEKS + 1))
        assert all(r.complete for r in results)
        baseline, deltas = results[0], results[1:]
        assert not baseline.events
        for delta in deltas:
            assert delta.events, f"epoch {delta.epoch} applied no events"
            # The re-scan budget the event rates are calibrated against.
            assert delta.zones_scanned < 0.30 * baseline.zones_scanned

    def test_delta_stores_hold_exactly_the_changed_zones(self, chain):
        monitor, results = chain
        for delta in results[1:]:
            stored = set(StoreReader(delta.store_dir).zones())
            assert stored == {dotted(e.zone) for e in delta.events}

    def test_golden_differential_final_epoch(self, chain, tmp_path):
        monitor, _ = chain
        assert merged_artifacts(monitor) == full_scan_artifacts(WEEKS, tmp_path)

    def test_golden_differential_intermediate_epoch(self, chain, tmp_path):
        monitor, _ = chain
        assert merged_artifacts(monitor, epoch=1) == full_scan_artifacts(1, tmp_path)

    def test_workers_chain_matches_sequential(self, chain, tmp_path):
        sequential_monitor, _ = chain
        root = tmp_path / "mon-par"
        monitor = Monitor.init(monitor_config(root, workers=2))
        results = monitor.run_until(weeks=WEEKS)
        assert [r.epoch for r in results] == list(range(WEEKS + 1))
        assert merged_artifacts(monitor) == merged_artifacts(sequential_monitor)

    def test_epoch_worlds_replay_identically(self, chain):
        # A second process rebuilding the week-N world sees the same
        # zones the chain's stores recorded.
        monitor, results = chain
        world, subset, _ = scan_world(SCALE, SEED, monitor=SPEC, epoch=WEEKS)
        assert sorted(n.to_text() for n in subset) == sorted(
            {dotted(e.zone) for e in results[-1].events}
        )


class TestKillAndResume:
    def test_interrupted_delta_epoch_resumes_into_the_same_epoch(self, chain, tmp_path):
        sequential_monitor, _ = chain
        root = tmp_path / "mon-kill"
        monitor = Monitor.init(monitor_config(root))
        monitor.run_epoch()  # baseline

        partial = monitor.run_epoch(stop_after=2)
        assert partial.epoch == 1 and not partial.complete
        assert monitor.in_progress_epoch() == 1

        # Mid-epoch, the manifest already pins the epoch identity.
        manifest = load_manifest(monitor.epoch_dir(1))
        assert not manifest.complete
        assert (manifest.epoch, manifest.parent_epoch) == (1, 0)
        stored = CampaignConfig.from_manifest(manifest, store_dir=monitor.epoch_dir(1))
        assert stored.epoch == 1
        assert stored.monitor == SPEC
        assert stored.recheck is False

        with pytest.raises(MonitorError, match="in progress"):
            monitor.run_epoch()

        # A fresh process (Monitor.open) finishes the week.
        resumed = Monitor.open(root).resume()
        assert resumed.epoch == 1 and resumed.complete

        monitor.run_until(weeks=WEEKS)
        assert merged_artifacts(monitor) == merged_artifacts(sequential_monitor)

    def test_run_until_finishes_an_open_epoch_first(self, tmp_path):
        root = tmp_path / "mon"
        monitor = Monitor.init(monitor_config(root))
        monitor.run_epoch()
        monitor.run_epoch(stop_after=1)
        results = monitor.run_until(weeks=2)
        assert [r.epoch for r in results] == [1, 2]
        assert all(r.complete for r in results)

    def test_resume_without_open_epoch_is_an_error(self, chain):
        monitor, _ = chain
        with pytest.raises(MonitorError, match="nothing to resume"):
            monitor.resume()


class TestOneWorldPerEpoch:
    """A delta epoch, an agent pass and a resume each build exactly one
    world: the week's event batch is taken from the replay the campaign
    performs, never from a second, throw-away world."""

    LAYOUTS = {
        "serial": {},
        "workers": {"workers": 2},
        "wire": {"transport": "wire", "in_flight": 8},
    }

    @pytest.fixture
    def world_builds(self, monkeypatch):
        """Counts ``build_world`` calls in this process, whichever
        module-level alias they go through."""
        from repro.ecosystem import world as world_module

        real = world_module.build_world
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and module.__dict__.get("build_world") is real:
                monkeypatch.setattr(module, "build_world", counting)
        return calls

    @staticmethod
    def replayed_independently(monitor: Monitor, epoch: int):
        """The batch separating *epoch* from its parent, derived the
        long way round: parent world, then the agent's installs, then
        the week's draws."""
        spec = monitor._composed_spec()
        world, _ = world_at_epoch(SCALE, SEED, spec, epoch - 1)
        for zone in spec.installs_at(epoch - 1):
            bootstrap_zone(world, zone)
        return events_for_epoch(world, spec, epoch)

    @staticmethod
    def interrupt_next_epoch(monitor: Monitor):
        """Start the next epoch and leave it in progress with no
        events.json — what a kill before the batch is recorded leaves.
        Returns the epoch and the deleted file's bytes (None when the
        kill came before it was ever written)."""
        epoch = monitor.next_epoch()
        if monitor.config.workers is None:
            monitor.run_epoch(stop_after=1)
            events_file = monitor.epoch_dir(epoch) / EPOCH_EVENTS_FILENAME
            recorded = events_file.read_bytes()
            events_file.unlink()
            return epoch, recorded
        config = monitor._campaign_config(epoch)
        with pytest.raises(ParallelCampaignError):
            run_with_faults(config, faults={0: 1, 1: 1})
        return epoch, None

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_one_build_per_epoch_agent_pass_and_resume(self, layout, tmp_path, world_builds):
        root = tmp_path / "mon"
        monitor = Monitor.init(monitor_config(root, **self.LAYOUTS[layout]))
        baseline = monitor.run_epoch(agent=Agent())
        assert baseline.agent.secured, "the replay needs an install to apply"

        del world_builds[:]
        delta = monitor.run_epoch()
        assert len(world_builds) == 1
        Agent().run(monitor)
        assert len(world_builds) == 2

        events_file = monitor.epoch_dir(1) / EPOCH_EVENTS_FILENAME
        assert delta.events and delta.events == self.replayed_independently(monitor, 1)
        assert json.loads(events_file.read_text()) == [e.to_dict() for e in delta.events]

        interrupted, recorded = self.interrupt_next_epoch(monitor)
        events_file = monitor.epoch_dir(interrupted) / EPOCH_EVENTS_FILENAME
        assert not events_file.exists()
        del world_builds[:]
        resumed = Monitor.open(root).resume()
        assert len(world_builds) == 1
        assert resumed.complete and resumed.events
        assert resumed.events == self.replayed_independently(monitor, interrupted)
        assert json.loads(events_file.read_text()) == [e.to_dict() for e in resumed.events]
        assert recorded is None or events_file.read_bytes() == recorded


class TestLifecycle:
    def test_init_refuses_to_clobber(self, chain):
        monitor, _ = chain
        with pytest.raises(MonitorError, match="already holds a monitor"):
            Monitor.init(monitor.config)

    def test_open_requires_a_monitor_root(self, tmp_path):
        with pytest.raises(MonitorError, match="no monitor at"):
            Monitor.open(tmp_path / "nowhere")

    def test_config_round_trips_through_monitor_json(self, chain):
        monitor, _ = chain
        reopened = Monitor.open(monitor.root)
        assert reopened.config == monitor.config
        assert reopened.config.monitor == SPEC

    def test_status_reports_every_epoch(self, chain):
        monitor, _ = chain
        status = monitor.status()
        assert [e.epoch for e in status.epochs] == list(range(WEEKS + 1))
        assert status.last_complete == WEEKS
        assert status.in_progress is None
        rendered = status.render()
        assert "baseline" in rendered and "delta" in rendered

    def test_an_interrupted_event_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        """Regression: `monitor_events.json` was written in place, so a
        kill mid-write left half a JSON document that nothing ever
        rewrote, and every later `status` / `diff` failed on it."""
        import os

        from repro.monitor.events import Event

        monitor = Monitor.init(monitor_config(tmp_path / "mon"))
        monitor.epoch_dir(1).mkdir(parents=True)
        before = [Event(epoch=1, kind="adopt_signal", zone="a.com")]
        monitor._write_events(1, before)
        path = monitor.epoch_dir(1) / EPOCH_EVENTS_FILENAME
        recorded = path.read_bytes()

        def killed(*args):
            raise KeyboardInterrupt("killed mid-write")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            monitor._write_events(1, before * 50)
        monkeypatch.undo()
        assert path.read_bytes() == recorded
        assert path.with_name(path.name + ".tmp").exists()  # the kill came after the temp file
        assert Monitor.open(monitor.root)._read_events(1) == before


class TestEpochDiff:
    def test_default_diff_is_last_epoch_against_parent(self, chain):
        monitor, results = chain
        diff = monitor.diff()
        assert (diff.old_epoch, diff.new_epoch) == (WEEKS - 1, WEEKS)
        assert diff.zones_rescanned == results[-1].zones_scanned
        assert {e.zone for e in diff.events} == {e.zone for e in results[-1].events}
        assert diff.diff.changed or diff.diff.unchanged

    def test_diff_spanning_epochs_accumulates(self, chain):
        monitor, results = chain
        diff = monitor.diff(old=0, new=WEEKS)
        assert len(diff.events) == sum(len(r.events) for r in results[1:])
        assert diff.zones_rescanned == sum(r.zones_scanned for r in results[1:])

    def test_changed_cohorts_are_within_the_event_set(self, chain):
        # Only zones the event stream touched can change verdict; the
        # named transition cohorts must therefore sit inside the event set.
        monitor, _ = chain
        diff = monitor.diff(old=0, new=WEEKS)
        touched = {dotted(e.zone) for e in diff.events}
        cohorts = (
            diff.diff.unsigned_to_secured
            + diff.diff.bootstrapped
            + diff.diff.newly_secured
            + diff.diff.signal_regressions
            + diff.diff.signal_repaired
        )
        for zone in cohorts:
            assert dotted(zone) in touched
        assert diff.diff.changed <= len(touched)

    def test_render_mentions_the_epochs(self, chain):
        monitor, _ = chain
        text = render_epoch_diff(monitor.diff())
        assert f"epoch {WEEKS - 1} -> epoch {WEEKS}" in text
        assert "zones re-scanned" in text

    def test_epoch_zero_has_no_parent(self, chain):
        monitor, _ = chain
        with pytest.raises(MonitorError, match="no parent"):
            monitor.diff(new=0)


class TestEpochQueryPlane:
    @pytest.fixture(scope="class")
    def indexed(self, chain):
        monitor, results = chain
        info = build_index(monitor.root)
        return monitor, results, info

    def test_build_index_recurses_and_returns_newest(self, indexed):
        monitor, _, info = indexed
        assert info.epoch == WEEKS
        for epoch in monitor.completed_epochs():
            assert build_index(monitor.epoch_dir(epoch)).epoch == epoch

    def test_zone_status_answers_as_of_an_epoch(self, indexed):
        monitor, results, _ = indexed
        merged_now = monitor.classifications()
        merged_then = monitor.classifications(epoch=0)
        with QueryService(monitor.root) as service:
            for zone in sorted(merged_now)[:20]:
                view = service.zone_status(zone)
                assert view is not None
                assert view.status == merged_now[zone].status.value
            # Pinned to the baseline, changed zones answer with their
            # week-0 verdict, not the latest one.
            for event in results[1].events:
                view = service.zone_status(event.zone, epoch=0)
                assert view is not None
                assert view.status == merged_then[dotted(event.zone)].status.value

    def test_enumerations_point_at_the_merged_view(self, indexed):
        monitor, _, _ = indexed
        with QueryService(monitor.root) as service:
            with pytest.raises(QueryError, match="monitor root"):
                service.iter_status()
            with pytest.raises(QueryError, match="monitor root"):
                service.report()

    def test_unindexed_newer_epoch_is_stale_not_fatal(self, tmp_path):
        """An epoch completed after the last build is what an append is
        to a plain store: invisible until re-indexed, reported stale,
        never an error while some gap-free run of epochs is indexed."""
        monitor = Monitor.init(monitor_config(tmp_path / "mon"))
        monitor.run_until(weeks=1)
        build_index(monitor.root)
        newest = monitor.run_epoch()
        assert newest.epoch == 2 and newest.events
        changed = sorted({dotted(event.zone) for event in newest.events})
        merged_then = monitor.classifications(epoch=1)
        with QueryService(monitor.root) as service:
            assert service.check_stale()
            stale = {zone: service.zone_status(zone) for zone in changed}
            assert "as of epoch 1" in service.summary()
        for zone, view in stale.items():
            then = merged_then.get(zone)
            assert (view and view.status) == (then and then.status.value), zone

        build_index(monitor.root)
        with QueryService(monitor.root) as service:
            assert not service.check_stale()
            assert {zone: service.zone_status(zone, epoch=1) for zone in changed} == stale

        # A hole at the baseline leaves nothing gap-free to serve.
        shutil.rmtree(index_dir(monitor.epoch_dir(0)))
        with pytest.raises(QueryError, match="no query index"):
            QueryService(monitor.root)

    def test_cli_index_attributes_operators_like_the_monitor(self, tmp_path):
        """Regression: `query index` on a scenario monitor root asked the
        root — which has no manifest — whether the adversarial operators
        belong, and indexed their zones as `unknown`."""
        from repro.cli import main
        from repro.core.pipeline import zone_verdict

        root = str(tmp_path / "mon")
        world = ["--scale", "2.5e-7", "--seed", "41", "--scenarios", "default"]
        assert main(["monitor", "init", "--store", root, *world]) == 0
        assert main(["monitor", "advance", "--store", root]) == 0
        assert main(["query", "index", "--store", root]) == 0
        monitor = Monitor.open(root)
        db = monitor.operator_db()
        operators = set()
        with QueryService(root) as service:
            for result in StoreReader(monitor.epoch_dir(0)).iter_results():
                verdict = zone_verdict(result, db)
                view = service.zone_status(result.zone.to_text())
                assert (view.operator, view.signal_operator) == (
                    verdict.operator,
                    verdict.signal_operator,
                ), view.zone
                operators.add(verdict.operator)
        assert "SpoofSign" in operators

    def test_plain_store_rejects_foreign_epochs(self, indexed, chain):
        monitor, _, _ = indexed
        store = monitor.epoch_dir(0)
        with QueryService(store) as service:
            assert service.snapshot.epoch == 0
            with pytest.raises(QueryError, match="not epoch 2"):
                service.zone_status("example.", epoch=2)
