"""Tests for the sharded campaign warehouse (:mod:`repro.store`):
write→resume→reanalyze round trips, crash safety, and longitudinal
diffing."""

import copy
import json
from dataclasses import replace

import pytest

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.core import assess_zone
from repro.reports import render_artifacts
from repro.scanner import Scanner
from repro.scanner.serialize import result_from_obj, result_to_obj
from repro.store import (
    CampaignStore,
    ShardCorruption,
    StoreError,
    StoreReader,
    diff_stores,
    load_manifest,
    shard_for_zone,
)
from repro.store.shards import stored_zones

SCALE = 1e-6
SEED = 41

MINI_ZONES = ["example.com", "unsigned.com", "island.com", "broken.com", "missing.com"]


@pytest.fixture(scope="module")
def mini_results(mini_world):
    """Every ZoneScanResult edge shape: resolved+signalled (island),
    plain unsigned, invalid (broken), unresolved/error-only (missing),
    plus synthetic anycast-sampled and name-too-long-signal variants."""
    scanner = Scanner(mini_world["network"], mini_world["root_ips"])
    results = scanner.scan_many(MINI_ZONES)

    sampled_obj = copy.deepcopy(result_to_obj(results[0]))
    sampled_obj["zone"] = "anycast-sampled.com."
    sampled_obj["sampled"] = True
    results.append(result_from_obj(sampled_obj))

    toolong_obj = copy.deepcopy(result_to_obj(results[2]))
    toolong_obj["zone"] = "far-too-long-for-a-signal.com."
    toolong_obj["signals"] = [
        {
            "ns_host": "ns1.opdns.net.",
            "signal_name": None,
            "name_too_long": True,
            "cds_by_ip": {},
            "cdnskey_by_ip": {},
            "signal_zone_apex": None,
            "zone_cuts": [],
            "chain": [],
            "error": "signaling name exceeds 255 octets",
        }
    ]
    results.append(result_from_obj(toolong_obj))
    return results


def fill_store(root, results, checkpoint_every=3, complete=True, **kwargs):
    store = CampaignStore.create(
        root, seed=99, scale=1.0, checkpoint_every=checkpoint_every, **kwargs
    )
    for result in results:
        store.append(result)
    if complete:
        store.complete()
    else:
        store.checkpoint()
    return store


class TestShardRouting:
    def test_stable_and_in_range(self):
        for shards in (1, 4, 16, 64):
            for zone in ("example.com.", "a.b.c.example.org.", "x" * 60 + ".net."):
                bucket = shard_for_zone(zone, shards)
                assert 0 <= bucket < shards
                assert bucket == shard_for_zone(zone, shards)  # deterministic

    def test_case_insensitive(self):
        assert shard_for_zone("Example.COM.", 16) == shard_for_zone("example.com.", 16)

    def test_spreads_buckets(self):
        buckets = {shard_for_zone(f"zone-{i}.com.", 16) for i in range(200)}
        assert len(buckets) > 8


class TestWriteResumeReanalyze:
    """The satellite round-trip requirement: every edge shape survives a
    store write → (interrupt) → resume-style reopen → reanalyze cycle."""

    def test_round_trip_all_edge_shapes(self, mini_results, tmp_path):
        root = tmp_path / "store"
        # Interrupt before completion: committed data must already be safe.
        fill_store(root, mini_results, complete=False)

        reopened = CampaignStore.open(root)
        assert reopened.completed_zones() == {
            r.zone.to_text() for r in mini_results
        }
        reopened.complete()

        reader = StoreReader(root, verify_digests=True)
        restored = {r.zone.to_text(): r for r in reader.iter_results()}
        assert set(restored) == {r.zone.to_text() for r in mini_results}
        for original in mini_results:
            back = restored[original.zone.to_text()]
            assert back.resolved == original.resolved
            assert back.error == original.error
            assert back.sampled == original.sampled
            assert len(back.signals) == len(original.signals)
            a, b = assess_zone(original), assess_zone(back)
            assert (a.status, a.eligibility, a.signal_outcome) == (
                b.status,
                b.eligibility,
                b.signal_outcome,
            ), original.zone

    def test_name_too_long_signal_survives(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results)
        reader = StoreReader(root)
        back = {r.zone.to_text(): r for r in reader.iter_results()}
        signal = back["far-too-long-for-a-signal.com."].signals[0]
        assert signal.name_too_long is True
        assert signal.signal_name is None
        sampled = back["anycast-sampled.com."]
        assert sampled.sampled is True

    def test_reanalyze_streams_whole_store(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results)
        report = StoreReader(root).reanalyze()
        assert report.total_scanned == len(mini_results)

    def test_records_route_to_their_hash_bucket(self, mini_results, tmp_path):
        root = tmp_path / "store"
        store = fill_store(root, mini_results, num_shards=4)
        seen = set()
        for bucket in range(store.manifest.num_shards):
            for zone in stored_zones(root, store.manifest, {bucket}):
                assert shard_for_zone(zone, 4) == bucket
                seen.add(zone)
        assert seen == {r.zone.to_text() for r in mini_results}

    def test_plain_jsonl_store(self, mini_results, tmp_path):
        root = tmp_path / "plain"
        store = fill_store(root, mini_results, compress=False)
        for info in store.manifest.shards:
            first = (root / info.path).read_bytes()[:1]
            assert first == b"{"
        assert len(list(StoreReader(root).iter_results())) == len(mini_results)


class TestCrashSafety:
    """The manifest must never reference a partial shard, whatever the
    kill point."""

    def test_kill_mid_shard_write(self, mini_results, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = fill_store(root, mini_results[:3], complete=False)
        records_before = store.manifest.records

        import repro.store.checkpoint as checkpoint_module

        real_write_shard = checkpoint_module.write_shard

        def torn_write(root_, bucket, sequence, results, compress=True, **kwargs):
            # Write half the temp bytes, then die.
            from repro.store.shards import SHARD_DIR, shard_filename

            name = shard_filename(bucket, sequence, compress)
            (root_ / SHARD_DIR / (name + ".tmp")).write_bytes(b'{"zone": "trunc')
            raise OSError("killed mid-write")

        monkeypatch.setattr(checkpoint_module, "write_shard", torn_write)
        for result in mini_results[3:]:
            store._buffers.setdefault(0, []).append(result)
            store._buffered += 1
        with pytest.raises(OSError):
            store.checkpoint()
        monkeypatch.setattr(checkpoint_module, "write_shard", real_write_shard)

        # On-disk truth is unchanged and fully valid.
        manifest = load_manifest(root, verify_digests=True)
        assert manifest.records == records_before
        tmp_debris = list((root / "shards").glob("*.tmp"))
        assert tmp_debris, "expected the torn temp file to be left behind"

        # Reopening sweeps the debris; the unpersisted zones are simply
        # not in the completed set and get rescanned on resume.
        reopened = CampaignStore.open(root)
        assert reopened.swept_orphans == len(tmp_debris)
        assert not list((root / "shards").glob("*.tmp"))
        assert reopened.completed_zones() == {
            r.zone.to_text() for r in mini_results[:3]
        }

    def test_kill_between_shard_commit_and_manifest(
        self, mini_results, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        store = fill_store(root, mini_results[:3], complete=False)

        import repro.store.checkpoint as checkpoint_module

        def no_save(root_, manifest_):
            raise OSError("killed before manifest rewrite")

        monkeypatch.setattr(checkpoint_module, "save_manifest", no_save)
        with pytest.raises(OSError):
            for result in mini_results[3:]:
                store.append(result)  # auto-checkpoint fires mid-loop
            store.checkpoint()
        monkeypatch.undo()

        # Segments exist on disk but the manifest does not name them.
        manifest = load_manifest(root, verify_digests=True)
        stored = {
            r.zone.to_text() for r in StoreReader(root).iter_results()
        }
        assert stored == {r.zone.to_text() for r in mini_results[:3]}

        # The sweep removes the orphan segments; re-appending the lost
        # zones completes the store with nothing duplicated.
        reopened = CampaignStore.open(root)
        assert reopened.swept_orphans > 0
        for result in mini_results[3:]:
            reopened.append(result)
        reopened.complete()
        reader = StoreReader(root, verify_digests=True)
        zones = [r.zone.to_text() for r in reader.iter_results()]
        assert sorted(zones) == sorted(r.zone.to_text() for r in mini_results)
        assert len(zones) == len(set(zones))


class TestManifestValidation:
    def test_missing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign store"):
            load_manifest(tmp_path / "nowhere")

    def test_create_refuses_existing(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results)
        with pytest.raises(StoreError, match="already holds"):
            CampaignStore.create(root, seed=1, scale=1.0)

    def test_missing_shard_detected(self, mini_results, tmp_path):
        root = tmp_path / "store"
        store = fill_store(root, mini_results)
        (root / store.manifest.shards[0].path).unlink()
        with pytest.raises(StoreError, match="missing shard"):
            load_manifest(root)

    def test_digest_mismatch_detected(self, mini_results, tmp_path):
        root = tmp_path / "store"
        store = fill_store(root, mini_results, compress=False)
        target = root / store.manifest.shards[0].path
        corrupted = bytearray(target.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0xFF
        target.write_bytes(bytes(corrupted))
        load_manifest(root)  # existence-only open still succeeds
        with pytest.raises(ShardCorruption):
            load_manifest(root, verify_digests=True)

    def test_append_after_complete_refused(self, mini_results, tmp_path):
        root = tmp_path / "store"
        store = fill_store(root, mini_results)
        with pytest.raises(StoreError, match="complete"):
            store.append(mini_results[0])

    def test_summary_counts(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results, checkpoint_every=2)
        summary = StoreReader(root).summary()
        assert summary.records == len(mini_results)
        assert summary.status == "complete"
        assert summary.segments >= 3  # several checkpoints happened
        assert summary.bytes_on_disk > 0


@pytest.fixture(scope="module")
def campaign_stores(tmp_path_factory):
    """One uninterrupted store-backed campaign, one killed-and-resumed
    one, and one plain in-memory run — all at the same seed/scale."""
    root = tmp_path_factory.mktemp("campaign-stores")
    full = run_campaign(
        CampaignConfig(
            scale=SCALE, seed=SEED, store_dir=root / "full", checkpoint_every=32
        )
    )
    partial = run_campaign(
        CampaignConfig(
            scale=SCALE,
            seed=SEED,
            store_dir=root / "interrupted",
            checkpoint_every=32,
            stop_after=70,
        )
    )
    resumed = resume_campaign(root / "interrupted")
    memory = run_campaign(CampaignConfig(scale=SCALE, seed=SEED))
    return {
        "root": root,
        "full": full,
        "partial": partial,
        "resumed": resumed,
        "memory": memory,
    }


class TestCampaignResume:
    """Acceptance: a campaign killed partway and resumed from its store
    produces a report byte-identical to an uninterrupted run."""

    def test_interrupted_store_is_partial_and_resumable(self, campaign_stores):
        partial = campaign_stores["partial"]
        assert partial.report.total_scanned == 70
        manifest = load_manifest(campaign_stores["root"] / "interrupted")
        assert manifest.complete  # the resume finished it
        assert manifest.records == campaign_stores["full"].report.total_scanned

    def test_resumed_report_byte_identical_to_uninterrupted(self, campaign_stores):
        resumed, full = campaign_stores["resumed"], campaign_stores["full"]
        assert render_artifacts(resumed.report) == render_artifacts(full.report)
        assert resumed.rechecked == full.rechecked
        assert resumed.report.tally("status") == full.report.tally("status")
        assert resumed.report.tally("outcome") == full.report.tally("outcome")

    def test_store_backed_matches_in_memory(self, campaign_stores):
        full, memory = campaign_stores["full"], campaign_stores["memory"]
        assert render_artifacts(full.report) == render_artifacts(memory.report)
        assert full.rechecked == memory.rechecked

    def test_store_backed_results_not_materialised(self, campaign_stores):
        assert campaign_stores["full"].results == []
        assert campaign_stores["full"].store_dir is not None
        assert campaign_stores["memory"].store_dir is None
        assert len(campaign_stores["memory"].results) > 0

    def test_resume_rejects_mismatched_world(self, campaign_stores):
        # A resume takes no world: it rebuilds the one its manifest
        # records, so a foreign population cannot finish the store.
        from repro.ecosystem.world import build_world

        other = build_world(scale=SCALE, seed=SEED + 1)
        with pytest.raises(TypeError, match="world"):
            resume_campaign(campaign_stores["root"] / "full", world=other)

    def test_stop_after_requires_store(self):
        with pytest.raises(ValueError, match="stop_after"):
            run_campaign(CampaignConfig(scale=SCALE, seed=SEED, stop_after=5))


class TestDiff:
    def test_membership_churn(self, mini_results, tmp_path):
        fill_store(tmp_path / "old", mini_results[:4])
        fill_store(tmp_path / "new", mini_results[1:])
        diff = diff_stores(StoreReader(tmp_path / "old"), StoreReader(tmp_path / "new"))
        assert diff.removed == [mini_results[0].zone.to_text()]
        assert sorted(diff.added) == sorted(r.zone.to_text() for r in mini_results[4:])
        assert diff.unchanged == 3
        assert diff.changed == 0

    def test_provisioning_epoch_transitions(self, tmp_path):
        """Two stored campaigns over the same world, before and after a
        registry provisioning pass: the diff must report exactly the
        bootstrapped islands as island→secure transitions."""
        from repro.ecosystem.world import build_world
        from repro.provisioning import AuthenticatedBootstrapPolicy, BootstrapEngine

        world = build_world(scale=SCALE, seed=7)
        config = CampaignConfig(scale=SCALE, seed=7, recheck=False)  # the store records the world's
        run_campaign(replace(config, store_dir=tmp_path / "epoch1"), world=world)
        engine = BootstrapEngine(world, AuthenticatedBootstrapPolicy())
        outcome = engine.run(engine.scanner.scan_many(world.scan_list))
        assert outcome.secured, "provisioning should secure at least one island"
        run_campaign(replace(config, store_dir=tmp_path / "epoch2"), world=world)

        diff = diff_stores(
            StoreReader(tmp_path / "epoch1"), StoreReader(tmp_path / "epoch2")
        )
        assert not diff.added and not diff.removed
        secured = {zone if zone.endswith(".") else zone + "." for zone in outcome.secured}
        assert set(diff.bootstrapped) == secured
        assert diff.status_transitions[("island", "secure")] == len(secured)
        # Bootstrapped zones flip to already_secured signal outcomes.
        moved_to_secured = sum(
            count
            for (_, after), count in diff.outcome_transitions.items()
            if after == "already_secured"
        )
        assert moved_to_secured == len(secured)

    def test_render_diff_mentions_cohorts(self, mini_results, tmp_path):
        from repro.store import render_diff

        fill_store(tmp_path / "old", mini_results[:4])
        fill_store(tmp_path / "new", mini_results[1:])
        text = render_diff(
            diff_stores(StoreReader(tmp_path / "old"), StoreReader(tmp_path / "new"))
        )
        assert "campaign diff" in text
        assert "+3 added" in text
        assert "-1 removed" in text


class TestReaderHardening:
    """The zone lister, damaged-store reporting, and non-strict
    corruption streaming."""

    def test_zones_streams_only_the_zone_field(self, mini_results, tmp_path, monkeypatch):
        """zones() must not reconstruct records: poison the full decoder
        and the listing still works (and matches the full decode)."""
        root = tmp_path / "store"
        fill_store(root, mini_results)
        expected = {r.zone.to_text() for r in mini_results}
        reader = StoreReader(root)
        assert reader.zones() == expected

        import repro.scanner.serialize as serialize

        def poisoned(obj):
            raise AssertionError("zones() reconstructed a full record")

        monkeypatch.setattr(serialize, "result_from_obj", poisoned)
        assert StoreReader(root).zones() == expected

    def test_stored_zones_reads_only_the_wanted_buckets(self, mini_results, tmp_path, monkeypatch):
        """The one lister: ``buckets=`` opens those buckets' segments and
        no others, and is the unfiltered listing cut by the shard hash."""
        import repro.store.shards as shards_module

        store = fill_store(tmp_path / "store", mini_results, checkpoint_every=2, num_shards=4)
        manifest = store.manifest
        everything = stored_zones(store.root, manifest)
        assert everything == {r.zone.to_text() for r in mini_results}
        assert store.completed_zones() == StoreReader(store.root).zones() == everything

        opened = []
        real_open = shards_module.open_results_read
        monkeypatch.setattr(
            shards_module, "open_results_read", lambda path: opened.append(path) or real_open(path)
        )
        wanted = {info.bucket for info in manifest.shards[:1]} | {3}
        mine = stored_zones(store.root, manifest, buckets=wanted)
        assert mine == {z for z in everything if shard_for_zone(z, 4) in wanted}
        assert mine and mine != everything
        assert sorted(opened) == sorted(
            str(store.root / info.path) for info in manifest.shards if info.bucket in wanted
        )
        assert stored_zones(store.root, load_manifest(store.root), wanted) == mine

    @pytest.mark.parametrize("damage", ['{"zone": "torn.exam', '{"resolved": true}', "[1, 2]"])
    def test_stored_zones_names_a_damaged_committed_shard(self, mini_results, tmp_path, damage):
        """Committed segments are atomic, so a line the object reader
        cannot use is disk damage: ``ShardCorruption`` naming the shard,
        not a skipped line and not a bare decode error."""
        store = fill_store(tmp_path / "store", mini_results, compress=False)
        victim = store.manifest.shards[0]
        with open(store.root / victim.path, "a", encoding="utf-8") as fp:
            fp.write(damage + "\n")
        with pytest.raises(ShardCorruption, match=victim.path):
            stored_zones(store.root, store.manifest)

    def test_summary_reports_damaged_store(self, mini_results, tmp_path):
        """A shard vanishing *after* the reader opened (load_manifest
        guards open time) must surface as a damaged-store report naming
        the path, not a bare FileNotFoundError."""
        root = tmp_path / "store"
        store = fill_store(root, mini_results)
        reader = StoreReader(root)
        victim = store.manifest.shards[0].path
        (root / victim).unlink()
        with pytest.raises(StoreError, match=f"damaged.*{victim}"):
            reader.summary()

    def test_iter_results_nonstrict_skips_corruption(self, mini_results, tmp_path):
        """A corrupt line inside a committed plain segment: strict
        streaming raises, non-strict skips it and counts it in
        LoadStats."""
        from repro.scanner.serialize import LoadStats

        root = tmp_path / "plain"
        store = fill_store(root, mini_results, compress=False)
        victim_info = store.manifest.shards[0]
        victim = root / victim_info.path
        lines = victim.read_text().splitlines(keepends=True)
        lines.insert(1, '{"zone": "truncated-mid-wri\n')
        victim.write_text("".join(lines))

        reader = StoreReader(root)
        with pytest.raises(json.JSONDecodeError):
            list(reader.iter_results(strict=True))

        stats = LoadStats()
        restored = list(reader.iter_results(strict=False, stats=stats))
        assert stats.skipped == 1
        assert stats.records == len(mini_results)
        assert {r.zone.to_text() for r in restored} == {
            r.zone.to_text() for r in mini_results
        }


class TestEpochManifest:
    """Monitoring plane: epoch identity rides the manifest losslessly,
    and stores written by plain campaigns stay byte-stable (no epoch
    keys appear unless the campaign was one)."""

    def test_plain_manifest_serialises_without_epoch_keys(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results)
        obj = json.loads((root / "manifest.json").read_text())
        assert "epoch" not in obj and "parent_epoch" not in obj
        manifest = load_manifest(root)
        assert manifest.epoch is None and manifest.parent_epoch is None

    def test_epoch_identity_round_trips(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results, epoch=3)
        manifest = load_manifest(root)
        assert (manifest.epoch, manifest.parent_epoch) == (3, 2)
        obj = json.loads((root / "manifest.json").read_text())
        assert (obj["epoch"], obj["parent_epoch"]) == (3, 2)

    def test_baseline_epoch_has_no_parent(self, mini_results, tmp_path):
        root = tmp_path / "store"
        fill_store(root, mini_results, epoch=0)
        manifest = load_manifest(root)
        assert manifest.epoch == 0 and manifest.parent_epoch is None

    def test_config_resumes_an_epoch_campaign_from_its_manifest(self, tmp_path):
        from repro.monitor import MonitorSpec

        spec = MonitorSpec(seed=7).scaled(20.0)
        root = tmp_path / "e0001"
        run_campaign(
            CampaignConfig(
                scale=SCALE,
                seed=SEED,
                recheck=False,
                store_dir=root,
                stop_after=2,
                epoch=1,
                monitor=spec,
            )
        )
        manifest = load_manifest(root)
        assert not manifest.complete
        assert (manifest.epoch, manifest.parent_epoch) == (1, 0)

        rebuilt = CampaignConfig.from_manifest(manifest, store_dir=root)
        assert rebuilt.epoch == 1
        assert rebuilt.monitor == spec
        assert rebuilt.manifest_config() == manifest.config

        resumed = resume_campaign(root)
        final = load_manifest(root)
        assert final.complete
        assert (final.epoch, final.parent_epoch) == (1, 0)
        assert resumed.report is not None
