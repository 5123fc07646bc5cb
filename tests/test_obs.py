"""Tests for the deterministic telemetry bus and the CampaignConfig façade.

The load-bearing claim of :mod:`repro.obs` mirrors the store's: telemetry
is *deterministic*.  Two campaigns at the same seed/scale/workers write
byte-identical event streams, so telemetry can be diffed across epochs
exactly like results — and enabling it never changes the report.
"""

import json

import pytest

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.cli import main
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    campaign_event_streams,
    events_path,
    iter_campaign_events,
    read_events,
)
from repro.store.manifest import load_manifest

from tests.test_parallel import rendered_artifacts

SCALE = 1e-6
SEED = 41


def stream_bytes(root) -> dict:
    """origin -> raw stream bytes for every event stream under *root*."""
    return {origin: path.read_bytes() for origin, path in campaign_event_streams(root)}


@pytest.fixture(scope="module")
def plain():
    """Telemetry-off baseline campaign."""
    return run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))


@pytest.fixture(scope="module")
def telemetered(tmp_path_factory):
    """One store-backed, telemetry-enabled campaign shared by the module."""
    root = tmp_path_factory.mktemp("obs") / "store"
    campaign = run_campaign(
        CampaignConfig(scale=SCALE, seed=SEED, store_dir=root, telemetry=True)
    )
    return campaign


class TestHub:
    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.event("anything", foo=1)
        with NULL_TELEMETRY.span("s") as span:
            span["field"] = 1  # discarded, not an error
        NULL_TELEMETRY.flush_counters()
        assert NULL_TELEMETRY.enabled is False

    def test_events_are_sequenced_and_stamped(self):
        hub = Telemetry()
        hub.event("a")
        hub.event("b")
        assert [e["seq"] for e in hub.events] == [0, 1]
        assert all(e["t"] == 0.0 for e in hub.events)  # unbound clock

    def test_wall_clock_is_opt_in(self):
        hub = Telemetry()
        hub.event("a")
        assert "wall" not in hub.events[0]
        walled = Telemetry(wall_clock=True)
        walled.event("a")
        assert "wall" in walled.events[0]

    def test_flush_counters_emits_single_sorted_event(self):
        hub = Telemetry()
        hub.count("b", 2)
        hub.count("a")
        hub.count("b")
        hub.flush_counters()
        (event,) = [e for e in hub.events if e["kind"] == "counters"]
        assert event["counters"] == {"a": 1, "b": 3}
        assert list(event["counters"]) == ["a", "b"]

    def test_live_signals_are_never_recorded(self):
        hub = Telemetry()
        seen = []
        hub.on_heartbeat = seen.append
        hub.live(worker=3, zones_done=10)
        assert seen == [{"worker": 3, "zones_done": 10}]
        assert hub.events == []


class TestDeterminism:
    def test_sequential_streams_byte_identical(self, telemetered, tmp_path):
        again = run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, store_dir=tmp_path / "store", telemetry=True
            )
        )
        first = stream_bytes(telemetered.store_dir)
        second = stream_bytes(again.store_dir)
        assert first.keys() == second.keys() == {""}
        assert first == second
        assert len(first[""]) > 0

    def test_parallel_streams_byte_identical(self, tmp_path_factory):
        roots = []
        for attempt in ("a", "b"):
            root = tmp_path_factory.mktemp(f"par-{attempt}") / "store"
            run_campaign(
                CampaignConfig(
                    scale=SCALE, seed=SEED, store_dir=root, workers=4, telemetry=True
                )
            )
            roots.append(root)
        first, second = stream_bytes(roots[0]), stream_bytes(roots[1])
        # One stream per worker plus the parent's own.
        assert set(first) == {"", *(f"workers/w{i:02d}" for i in range(4))}
        assert first == second

    def test_telemetry_does_not_change_the_report(self, telemetered, plain):
        assert rendered_artifacts(telemetered) == rendered_artifacts(plain)
        assert telemetered.rechecked == plain.rechecked

    def test_merged_read_order_is_origin_then_seq(self, telemetered):
        previous = None
        for origin, event in iter_campaign_events(telemetered.store_dir):
            key = (origin, event["seq"])
            assert previous is None or key > previous
            previous = key


class TestCounters:
    def test_network_counters_match_the_fabric(self, telemetered):
        counters = telemetered.telemetry.counters
        network = telemetered.world.network
        # Sequential campaign: scan + recheck all ran on the one world
        # network, and the final capture snapshots it.
        assert counters["net.queries"] == network.queries_sent
        assert counters["net.bytes_sent"] == network.bytes_sent
        assert counters["net.timeouts"] == network.timeouts

    def test_cache_effectiveness_is_observed(self, telemetered):
        counters = telemetered.telemetry.counters
        assert counters["cache.address.hits"] > 0
        assert counters["cache.address.misses"] > 0
        assert counters["cache.dns.misses"] > 0
        assert counters["cache.chain.misses"] > 0
        assert counters["ratelimit.waits"] > 0

    def test_store_commits_are_counted(self, telemetered):
        counters = telemetered.telemetry.counters
        manifest = load_manifest(telemetered.store_dir)
        assert counters["store.segments"] == len(manifest.shards)
        assert counters["store.records"] == manifest.records
        assert counters["store.checkpoints"] >= 1

    def test_span_inventory(self, telemetered):
        events = read_events(events_path(telemetered.store_dir))
        spans = [e for e in events if e["kind"] == "span"]
        names = {e["name"] for e in spans}
        assert {"scan_zone", "chain_validate", "segment_commit", "recheck"} <= names
        scan_spans = [e for e in spans if e["name"] == "scan_zone"]
        assert len(scan_spans) == telemetered.report.total_scanned
        assert all(e["t1"] >= e["t0"] for e in spans)

    def test_progress_reaches_the_total(self, telemetered):
        events = read_events(events_path(telemetered.store_dir))
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress
        assert progress[-1]["done"] == progress[-1]["total"] == telemetered.report.total_scanned


class TestCampaignConfig:
    def test_validation_errors_in_one_place(self, tmp_path):
        with pytest.raises(ValueError, match="store_dir"):
            CampaignConfig(workers=2).validate()
        with pytest.raises(ValueError, match="world"):
            CampaignConfig(workers=2, store_dir=tmp_path / "s").validate(world=object())
        with pytest.raises(ValueError, match="stop_after"):
            CampaignConfig(workers=2, store_dir=tmp_path / "s", stop_after=5).validate()
        with pytest.raises(ValueError, match="stop_after"):
            CampaignConfig(stop_after=5).validate()

    def test_round_trip_through_a_real_manifest(self, telemetered):
        manifest = load_manifest(telemetered.store_dir)
        rebuilt = CampaignConfig.from_manifest(manifest, store_dir=telemetered.store_dir)
        assert rebuilt.scale == SCALE
        assert rebuilt.seed == SEED
        assert rebuilt.recheck is True
        assert rebuilt.use_sources is False
        assert rebuilt.telemetry is True
        assert rebuilt.num_shards == manifest.num_shards
        assert rebuilt.store_dir == telemetered.store_dir
        # A config built from the manifest serializes back to the same dict.
        assert rebuilt.manifest_config() == manifest.config

    def test_config_form_is_deterministic(self, plain):
        config_form = run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))
        assert rendered_artifacts(config_form) == rendered_artifacts(plain)

    def test_takes_a_config_and_nothing_else(self):
        with pytest.raises(TypeError, match="positional"):
            run_campaign(1e-6)
        with pytest.raises(TypeError, match="unexpected"):
            run_campaign(CampaignConfig(), seed=2)

    def test_resume_reads_config_from_manifest(self, tmp_path):
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, store_dir=root, stop_after=5, telemetry=True
            )
        )
        assert load_manifest(root).config.get("telemetry") is True
        resumed = resume_campaign(root)
        # The resumed half kept emitting into the same stream.
        assert resumed.telemetry is not None
        events = read_events(events_path(root))
        assert any(e["kind"] == "counters" for e in events)


class TestCli:
    def test_stats_renders_a_report(self, telemetered, capsys):
        assert main(["campaign", "stats", "--store", str(telemetered.store_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign telemetry" in out
        assert "query volume" in out
        assert "hit rate" in out
        assert "scan_zone" in out

    def test_stats_on_missing_store_fails(self, tmp_path, capsys):
        assert main(["campaign", "stats", "--store", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "cannot read campaign telemetry" in err

    def test_stats_without_events_says_so(self, tmp_path, capsys):
        run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, store_dir=tmp_path / "store", recheck=False
            )
        )
        assert main(["campaign", "stats", "--store", str(tmp_path / "store")]) == 0
        assert "no telemetry events recorded" in capsys.readouterr().out

    def test_store_init_rejects_invalid_combination(self, tmp_path, capsys):
        rc = main(
            [
                "campaign", "run",
                "--store", str(tmp_path / "s"),
                "--workers", "2",
                "--stop-after", "5",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid campaign configuration" in err
        assert "stop_after is not supported" in err

    def test_stream_is_valid_jsonl(self, telemetered):
        raw = events_path(telemetered.store_dir).read_text(encoding="utf-8")
        for line in raw.strip().splitlines():
            event = json.loads(line)
            assert "kind" in event and "seq" in event
