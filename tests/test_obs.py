"""Tests for the deterministic telemetry bus and the CampaignConfig façade.

The load-bearing claim of :mod:`repro.obs` mirrors the store's: telemetry
is *deterministic*.  Two campaigns at the same seed/scale/workers write
byte-identical event streams, so telemetry can be diffed across epochs
exactly like results — and enabling it never changes the report.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.cli import main
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    campaign_event_streams,
    fold_stream,
    read_events,
    stream_path,
)
from repro.obs.stats import collect_stats, render_stats
from repro.reports import render_artifacts
from repro.store.manifest import load_manifest


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
        assert render_artifacts(telemetered.report) == render_artifacts(plain.report)
        assert telemetered.rechecked == plain.rechecked

    def test_merged_read_order_is_origin_then_seq(self, telemetered):
        previous = None
        for origin, path in campaign_event_streams(telemetered.store_dir):
            for event in read_events(path):
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
        events = read_events(stream_path(telemetered.store_dir))
        spans = [e for e in events if e["kind"] == "span"]
        names = {e["name"] for e in spans}
        assert {"scan_zone", "chain_validate", "segment_commit", "recheck"} <= names
        scan_spans = [e for e in spans if e["name"] == "scan_zone"]
        assert len(scan_spans) == telemetered.report.total_scanned
        assert all(e["t1"] >= e["t0"] for e in spans)

    def test_progress_reaches_the_total(self, telemetered):
        events = read_events(stream_path(telemetered.store_dir))
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
        assert rebuilt.telemetry is True
        assert rebuilt.num_shards == manifest.num_shards
        assert rebuilt.store_dir == telemetered.store_dir
        # A config built from the manifest serializes back to the same dict.
        assert rebuilt.manifest_config() == manifest.config

    def test_config_form_is_deterministic(self, plain):
        config_form = run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))
        assert render_artifacts(config_form.report) == render_artifacts(plain.report)

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
        events = read_events(stream_path(root))
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
        raw = stream_path(telemetered.store_dir).read_text(encoding="utf-8")
        for line in raw.strip().splitlines():
            event = json.loads(line)
            assert "kind" in event and "seq" in event


# ---------------------------------------------------------------------------
# The stream contract: sessions, the one fold, the one renderer
# ---------------------------------------------------------------------------

FOLD_SCALE = 5e-7
FOLD_SEED = 3

# `render_stats` output recorded from the last commit that still had one
# collector per plane (17112ec), at FOLD_SCALE/FOLD_SEED: what the single
# collector + renderer must reproduce byte for byte where nothing was wrong.
PARENT_SERIAL = """\
campaign telemetry: {root}
status:    complete
campaign:  seed=3 scale=5e-07
zones:     146/146 persisted
events:    230 across 1 stream(s)

query volume
  queries:      7 121 (48.8/zone)
  bytes:        528 877 sent, 2 470 609 received
  timeouts:     32
  truncations:  0 (0 TCP fallbacks, 0 TCP queries)
  rate limit:   1 049 waits, 21.0s waited (simulated)

cache         hits  misses  hit rate
------------  ----  ------  --------
dns             19     343      5.2%
addresses      395     170     69.9%
signal zones   142     160     47.0%
chains          81      79     50.6%

span (simulated)  count  total   mean    max
----------------  -----  -----  -----  -----
chain_validate       79   3.3s   42ms  180ms
recheck               1  280ms  280ms  280ms
scan_zone           146  1m25s  580ms  1m04s
segment_commit        1    0ms    0ms    0ms

checkpoints: 1 commits, 16 segments (~146 records/commit)"""

PARENT_CHAOS = """\
campaign telemetry: {root}
status:    complete
campaign:  seed=3 scale=5e-07
zones:     146/146 persisted
events:    230 across 1 stream(s)

query volume
  queries:      9 086 (62.2/zone)
  bytes:        689 086 sent, 2 571 470 received
  timeouts:     805
  truncations:  201 (201 TCP fallbacks, 201 TCP queries)
  rate limit:   0 waits, 0ms waited (simulated)

cache         hits  misses  hit rate
------------  ----  ------  --------
dns             19     343      5.2%
addresses      395     170     69.9%
signal zones   142     160     47.0%
chains          81      79     50.6%

span (simulated)  count   total   mean    max
----------------  -----  ------  -----  -----
chain_validate       79   3m26s   2.6s  18.6s
recheck               1   56.6s  56.6s  56.6s
scan_zone           146  36m25s  15.0s  1m51s
segment_commit        1     0ms    0ms    0ms

fault injection (9 086 decisions)
fault                         injected
----------------------------  --------
brownout                            61
latency                          4 489
loss                               698
servfail                           432
tcp_loss                             5
truncation                         201
(suppressed by fairness cap)       193
  retries:      1 357 scanner + 426 resolver attempts, 9m03s backoff (simulated)
  abandoned:    0 queries dead after full retry budget

checkpoints: 1 commits, 16 segments (~146 records/commit)"""

PARENT_QUERY = """\
campaign telemetry: {root}
status:    complete
campaign:  seed=3 scale=5e-07
zones:     146/146 persisted
events:    0 across 0 stream(s)

query plane (2 session(s))
  lookups:      2 (0 negative)
  cache:        0 hits, 2 misses (0.0%)
  index seeks:  10 (5.0/uncached lookup)
  bytes read:   596
  enumerations: 0"""

PARENT_MONITOR = """\
campaign telemetry: {root}
status:    monitor (3 epoch store(s))
campaign:  seed=3 scale=5e-07
zones:     161/146 persisted
events:    57 across 2 stream(s)

monitor timeline
  epochs run:       3
  events applied:   14
  zones re-scanned: 161

span   count  total  mean  max
-----  -----  -----  ----  ---
epoch      3    0ms   0ms  0ms

parental agent (3 session(s))
  considered:   72 zones across 3 epoch(s)
  secured:      2 DS provisioned and verified
  rejected:     70
  re-scans:     74 (0 rollbacks, RFC 8078 s3)

decision reason        zones
---------------------  -----
cds_signature_invalid     21
signal_coverage_gap       12
cds_disagreement           9
ds_already_present         7
delete_request             6
unauthenticated_chain      6
zone_unsigned              6
signal_zone_cut            3
chain_authenticated        2"""


def rendered(root) -> str:
    return render_stats(collect_stats(root)).replace(str(root), "{root}")


def session_counters(path) -> list:
    """The final ``counters`` payload of each session, found the slow way."""
    sessions, previous = [], None
    for event in read_events(path):
        if previous is None or event["seq"] <= previous:
            sessions.append({})
        previous = event["seq"]
        if event["kind"] == "counters":
            sessions[-1] = event["counters"]
    return sessions


@pytest.fixture(scope="module")
def fold_monitor_spec():
    from repro.monitor import MonitorSpec

    return MonitorSpec(seed=7).scaled(20.0)


class TestFold:
    def test_resumed_campaign_sums_its_sessions(self, tmp_path):
        root = tmp_path / "store"
        config = CampaignConfig(
            scale=FOLD_SCALE, seed=FOLD_SEED, store_dir=root, telemetry=True, recheck=False
        )
        run_campaign(replace(config, stop_after=20))
        resume_campaign(root)
        per_session = [c["net.queries"] for c in session_counters(stream_path(root))]
        assert per_session == [1146, 6098]
        fold = fold_stream(stream_path(root))
        assert fold.sessions == 2
        assert fold.counters["net.queries"] == 7244 == sum(per_session)
        stats = collect_stats(root)
        assert stats.sessions == {"stream": 2}
        assert stats.counters["store.segments"] == len(load_manifest(root).shards)
        assert "queries:      7 244 " in render_stats(stats)

    def test_monitor_split_over_three_processes_keeps_its_invariants(
        self, tmp_path, fold_monitor_spec
    ):
        from repro.monitor import Monitor, MonitorConfig

        root = tmp_path / "mon"
        Monitor.init(
            MonitorConfig(
                root=root, scale=FOLD_SCALE, seed=FOLD_SEED, telemetry=True,
                monitor=fold_monitor_spec,
            )
        ).run_epoch()
        interrupted = Monitor.open(root).run_epoch(stop_after=2)
        assert not interrupted.complete
        third = Monitor.open(root)
        third.resume()
        third.run_epoch()

        manifests = [load_manifest(third.epoch_dir(e)) for e in third.completed_epochs()]
        batches = [
            json.loads((third.epoch_dir(e) / "monitor_events.json").read_text())
            for e in third.completed_epochs()
        ]
        fold = fold_stream(stream_path(root, "monitor"))
        assert fold.sessions == 3
        assert fold.counters["monitor.epochs"] == len(manifests) == 3
        assert fold.counters["monitor.zones_rescanned"] == sum(m.records for m in manifests)
        assert fold.counters["monitor.events_applied"] == sum(len(b) for b in batches)
        # The killed process accounted for nothing; the one that finished
        # the epoch accounted for all of it.
        assert [c.get("monitor.epochs", 0) for c in session_counters(
            stream_path(root, "monitor"))] == [1, 0, 2]

    def test_peaks_fold_by_max_and_volumes_by_sum(self, tmp_path):
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=FOLD_SCALE, seed=FOLD_SEED, store_dir=root, telemetry=True,
                workers=2, in_flight=16,
            )
        )
        workers = [
            fold_stream(path).counters
            for origin, path in campaign_event_streams(root)
            if origin.startswith("workers/")
        ]
        assert len(workers) == 2
        counters = collect_stats(root).counters
        for peak in ("sched.in_flight_peak", "sched.queue_peak"):
            assert counters[peak] == max(w[peak] for w in workers) <= 16
        assert counters["sched.tasks"] == sum(w["sched.tasks"] for w in workers)
        parent = fold_stream(stream_path(root)).counters
        assert counters["net.queries"] == parent["net.queries"] + sum(
            w["net.queries"] for w in workers
        )

    def test_query_sessions_accumulate(self, tmp_path, capsys):
        root = self._indexed_store(tmp_path)
        assert main(["campaign", "stats", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "query plane (2 session(s))" in out
        assert "lookups:      2 (0 negative)" in out

    @staticmethod
    def _indexed_store(tmp_path):
        """A telemetry-less store, indexed through the API, then two
        ``query get`` CLI sessions."""
        from repro.query import build_index
        from repro.store.reader import StoreReader

        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(scale=FOLD_SCALE, seed=FOLD_SEED, store_dir=root, recheck=False)
        )
        build_index(root)
        zone = sorted(StoreReader(root).zones())[0]
        for _ in range(2):
            assert main(["query", "get", "--store", str(root), zone]) == 0
        return root

    def test_torn_tail_is_skipped_on_read_and_cut_on_append(self, tmp_path):
        path = stream_path(tmp_path, "query")
        first = Telemetry()
        first.count("query.lookups", 3)
        first.end_session(path)
        intact = path.read_bytes()
        with open(path, "ab") as fp:
            fp.write(b'{"kind": "counters", "counters": {"query.look')  # killed mid-write
        assert fold_stream(path).counters == {"query.lookups": 3}
        second = Telemetry()
        second.count("query.lookups", 4)
        second.end_session(path)
        assert path.read_bytes().startswith(intact + b'{"counters": {"query.lookups": 4}')
        fold = fold_stream(path)
        assert (fold.sessions, fold.counters) == (2, {"query.lookups": 7})
        # Only the unterminated tail is forgiven.
        path.write_bytes(b"not json\n" + intact)
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_a_session_that_emits_nothing_creates_no_file(self, tmp_path):
        path = stream_path(tmp_path, "agent")
        Telemetry().end_session(path)
        NULL_TELEMETRY.end_session(path)
        assert not path.exists() and not path.parent.exists()


class TestRenderedLiterals:
    """Byte-for-byte against the per-plane collectors this PR replaced."""

    def test_serial_campaign(self, tmp_path):
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(scale=FOLD_SCALE, seed=FOLD_SEED, store_dir=root, telemetry=True)
        )
        assert rendered(root) == PARENT_SERIAL

    def test_chaos_campaign(self, tmp_path):
        from repro.chaos import ChaosConfig

        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=FOLD_SCALE, seed=FOLD_SEED, store_dir=root, telemetry=True,
                chaos=ChaosConfig.default(),
            )
        )
        assert rendered(root) == PARENT_CHAOS

    def test_store_with_two_query_sessions(self, tmp_path, capsys):
        root = TestFold._indexed_store(tmp_path)
        assert rendered(root) == PARENT_QUERY

    def test_monitor_root_with_agent(self, tmp_path, fold_monitor_spec):
        from repro.agent import Agent
        from repro.monitor import Monitor, MonitorConfig

        root = tmp_path / "mon"
        monitor = Monitor.init(
            MonitorConfig(
                root=root, scale=FOLD_SCALE, seed=FOLD_SEED, telemetry=True,
                monitor=fold_monitor_spec,
            )
        )
        monitor.run_until(2, agent=Agent())
        stats = collect_stats(root)
        assert stats.sessions == {"monitor": 1, "agent": 3}
        assert rendered(root) == PARENT_MONITOR
