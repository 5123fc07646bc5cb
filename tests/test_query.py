"""Tests for the read-serving plane (:mod:`repro.query`): differential
correctness against the full re-analysis, byte-identical snapshots
across store layouts, bounded point-lookup cost, cache behaviour,
stale-but-consistent serving, and the CLI surface."""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.cli import main as cli_main
from repro.core.operators import OperatorDB
from repro.core.pipeline import zone_verdict
from repro.obs import Telemetry
from repro.query import (
    QueryError,
    QueryService,
    build_index,
    load_snapshot,
    verify_snapshot,
    zone_key64,
)
from repro.query.snapshot import PIN_FILENAME, index_dir, manifest_generation
from repro.reports import (
    compute_figure1,
    compute_table1,
    compute_table2,
    compute_table3,
    render_figure1,
    render_table1,
    render_table2,
    render_table3,
)
from repro.scanner import Scanner
from repro.scanner.serialize import result_from_obj, result_to_obj
from repro.store import CampaignStore, StoreReader, load_manifest

SCALE = 1e-6
SEED = 41

MINI_ZONES = ["example.com", "unsigned.com", "island.com", "broken.com", "missing.com"]
MINI_DB = OperatorDB(suffixes={"opdns.net": "OpDNS"})

# `query dashboard` on the seed-41 serial store of `layout_stores`.
DASHBOARD = """\
operator dashboard: {root}
zones:     290 indexed, 9 bootstrappable (3.1%)
operator        domains  unsigned  secure  island  invalid  CDS  bootstr.     %
--------------  -------  --------  ------  ------  -------  ---  --------  ----
GoDaddy              54        52       1       1        0    2         1  1.85
Cloudflare           29        25       1       3        0    4         1  3.45
Google Domains       10         5       5       0        0    5         0     0
Namecheap            10         9       1       0        0    0         0     0
Hostinger             6         6       0       0        0    0         0     0
WIX                   6         5       1       0        0    1         0     0
AfterNIC              5         5       0       0        0    0         0     0
deSEC                 5         0       0       5        0    5         3  60.0
HiChina               4         4       0       0        0    0         0     0
AWS                   3         3       0       0        0    0         0     0
GName                 3         3       0       0        0    0         0     0
Glauca                3         0       0       3        0    3         1  33.3
MassHost-3            3         3       0       0        0    2         0     0
MassHost-4            3         1       1       1        0    2         0     0
MassHost-5            3         1       0       2        0    2         0     0
NameBright            3         3       0       0        0    0         0     0
OVH                   3         1       2       0        0    0         0     0
BlueHost              2         2       0       0        0    0         0     0
MassHost-6            2         1       0       1        0    1         0     0
NameSilo              2         2       0       0        0    0         0     0
unknown              14         1       1      10        0   11         3  21.4
"""


@pytest.fixture(scope="module")
def mini_store(mini_world, tmp_path_factory):
    """A small completed store + its index, with operator attribution."""
    scanner = Scanner(mini_world["network"], mini_world["root_ips"])
    results = scanner.scan_many(MINI_ZONES)
    root = tmp_path_factory.mktemp("query-mini") / "store"
    store = CampaignStore.create(root, seed=99, scale=1.0, checkpoint_every=2)
    for result in results:
        store.append(result)
    store.complete()
    build_index(root, operator_db=MINI_DB)
    return {"root": root, "results": results}


@pytest.fixture(scope="module")
def layout_stores(tmp_path_factory):
    """The same campaign persisted three ways: serially, by two worker
    processes, and through a kill + resume — identical record sets over
    different segment layouts."""
    root = tmp_path_factory.mktemp("query-layouts")
    serial = run_campaign(
        CampaignConfig(
            scale=SCALE, seed=SEED, store_dir=root / "serial", checkpoint_every=32
        )
    )
    run_campaign(
        CampaignConfig(
            scale=SCALE,
            seed=SEED,
            store_dir=root / "workers",
            checkpoint_every=32,
            workers=2,
        )
    )
    run_campaign(
        CampaignConfig(
            scale=SCALE,
            seed=SEED,
            store_dir=root / "resumed",
            checkpoint_every=32,
            stop_after=70,
        )
    )
    resume_campaign(root / "resumed")
    return {"root": root, "campaign": serial}


def _index_bytes(store_root: Path):
    """index-relative path → file bytes, excluding the layout pin."""
    base = index_dir(store_root)
    return {
        path.relative_to(base).as_posix(): path.read_bytes()
        for path in sorted(base.rglob("*"))
        if path.is_file() and path.name != PIN_FILENAME
    }


class TestIndexBuild:
    def test_snapshot_metadata(self, mini_store):
        snapshot = load_snapshot(mini_store["root"])
        assert snapshot.records == len(mini_store["results"])
        assert snapshot.num_buckets == 16
        assert snapshot.operators_attributed
        assert snapshot.pinned_generation is not None
        # One copy of each zone's verdict: the meta rows, no sidecars.
        assert sorted(p.name for p in index_dir(mini_store["root"]).iterdir()) == [
            "buckets", PIN_FILENAME, "snapshot.json"
        ]

    def test_verify_snapshot_passes(self, mini_store):
        verify_snapshot(mini_store["root"])

    def test_verify_detects_tampering(self, mini_store, tmp_path):
        import shutil

        root = tmp_path / "tampered"
        shutil.copytree(mini_store["root"], root)
        snapshot = load_snapshot(root)
        populated = next(b for b in snapshot.buckets if b["records"])
        victim = index_dir(root) / populated["meta"]
        victim.write_bytes(victim.read_bytes()[:-2] + b"X\n")
        with pytest.raises(QueryError, match="digest"):
            verify_snapshot(root)

    def test_rebuild_is_deterministic(self, mini_store):
        before = _index_bytes(mini_store["root"])
        build_index(mini_store["root"], operator_db=MINI_DB)
        assert _index_bytes(mini_store["root"]) == before

    def test_missing_index_is_reported(self, tmp_path):
        with pytest.raises(QueryError, match="no query index"):
            QueryService(tmp_path)


class TestLayoutInvariance:
    """Acceptance: the snapshot is a pure function of the record set —
    serial, parallel, and kill/resume stores index byte-identically."""

    def test_index_byte_identical_across_layouts(self, layout_stores):
        root = layout_stores["root"]
        world = layout_stores["campaign"].world
        reference = None
        for layout in ("serial", "workers", "resumed"):
            build_index(root / layout, operator_db=world.operator_db)
            files = _index_bytes(root / layout)
            if reference is None:
                reference = files
            else:
                assert files == reference, f"layout {layout} diverged"
        assert reference  # something was actually compared

    def test_pins_differ_by_layout(self, layout_stores):
        # The pin is the one deliberately layout-specific file.
        root = layout_stores["root"]
        generations = {
            manifest_generation(load_manifest(root / layout))
            for layout in ("serial", "workers", "resumed")
        }
        assert len(generations) == 3

    def test_differential_against_full_reanalysis(self, layout_stores):
        """Every indexed answer equals the full-scan ground truth, on
        every layout — and Tables 1–3 and Figure 1 folded from the meta
        rows equal those of the full re-analysis."""
        root = layout_stores["root"]
        db = layout_stores["campaign"].world.operator_db
        reader = StoreReader(root / "serial")
        report = reader.reanalyze(db)
        truth = {a.zone: a for a in report.assessments}
        verdicts = {
            r.zone.to_text(): zone_verdict(r, db)
            for r in reader.iter_results()
        }
        artefacts = [
            (compute_table1, render_table1),
            (compute_table2, render_table2),
            (compute_table3, render_table3),
            (compute_figure1, render_figure1),
        ]
        for layout in ("serial", "workers", "resumed"):
            build_index(root / layout, operator_db=db)
            with QueryService(root / layout) as service:
                assert service.snapshot.records == len(truth)
                for zone, assessment in truth.items():
                    view = service.zone_status(zone)
                    assert view is not None, f"{zone} missing from {layout} index"
                    assert view.status == assessment.status.value
                    assert view.eligibility == assessment.eligibility.value
                    assert view.outcome == assessment.signal_outcome.value
                    assert view.operator == verdicts[zone].operator
                    assert view.signal_operator == verdicts[zone].signal_operator
                folded = service.report()
                assert folded.tally("status") == report.tally("status")
                for compute, render in artefacts:
                    assert render(compute(folded)) == render(compute(report)), compute.__name__


class TestPointLookups:
    def test_lookup_cost_is_logarithmic_not_linear(self, layout_stores):
        """Acceptance: point lookups never full-scan — seeks stay within
        the binary-search bound and bytes read stay near the row size,
        per lookup, pinned via the query.* counters."""
        root = layout_stores["root"] / "serial"
        manifest = load_manifest(root)
        # Worst-case bucket population bounds the bisect depth.
        per_bucket = {}
        for zone in StoreReader(root).zones():
            from repro.store import shard_for_zone

            bucket = shard_for_zone(zone, manifest.num_shards)
            per_bucket[bucket] = per_bucket.get(bucket, 0) + 1
        max_seeks = math.ceil(math.log2(max(per_bucket.values()))) + 2

        telemetry = Telemetry()
        with QueryService(root, telemetry=telemetry) as service:
            zones = sorted(StoreReader(root).zones())[:50]
            last = {"query.index_seeks": 0.0, "query.bytes_read": 0.0}
            for zone in zones:
                assert service.zone_status(zone) is not None
                seeks = telemetry.counters["query.index_seeks"] - last["query.index_seeks"]
                bytes_read = (
                    telemetry.counters["query.bytes_read"] - last["query.bytes_read"]
                )
                assert seeks <= max_seeks, f"{zone}: {seeks} seeks"
                assert bytes_read < 4096, f"{zone}: {bytes_read} bytes"
                last = dict(telemetry.counters)
        assert telemetry.counters["query.lookups"] == len(zones)
        assert telemetry.counters["query.cache_misses"] == len(zones)

    def test_cache_and_negative_cache(self, mini_store):
        telemetry = Telemetry()
        with QueryService(mini_store["root"], telemetry=telemetry) as service:
            first = service.zone_status("island.com")
            second = service.zone_status("island.com.")  # same zone, dotted
            assert first == second
            assert telemetry.counters["query.cache_hits"] == 1
            assert telemetry.counters["query.cache_misses"] == 1

            assert service.zone_status("no-such-zone.test") is None
            seeks_after_miss = telemetry.counters["query.index_seeks"]
            assert service.zone_status("no-such-zone.test") is None
            # The negative answer was cached: no further index traffic.
            assert telemetry.counters["query.index_seeks"] == seeks_after_miss
            assert telemetry.counters["query.negative"] == 2

    def test_cache_eviction_is_lru(self, mini_store):
        with QueryService(mini_store["root"], cache_size=2) as service:
            service.zone_status("example.com")
            service.zone_status("unsigned.com")
            service.zone_status("island.com")  # evicts example.com
            assert len(service._cache) == 2
            assert "example.com." not in service._cache
            assert "island.com." in service._cache

    def test_zone_record_round_trips(self, mini_store):
        by_zone = {r.zone.to_text(): r for r in mini_store["results"]}
        with QueryService(mini_store["root"]) as service:
            for zone, original in by_zone.items():
                record = service.zone_record(zone)
                # Snapshot records are canonical: execution accounting
                # (queries_used, layout-dependent) is zeroed; everything
                # measured about the zone round-trips exactly.
                expected = result_to_obj(original)
                expected["queries_used"] = 0
                assert result_to_obj(record) == expected
            assert service.zone_record("absent.example") is None

    def test_key64_is_stable(self):
        # Pinned: the on-disk index format depends on this value.
        assert zone_key64("example.com.") == zone_key64("EXAMPLE.COM.")
        assert zone_key64("example.com.") != zone_key64("example.org.")


class TestEnumerations:
    def test_status_tally_matches_reanalysis(self, mini_store):
        report = StoreReader(mini_store["root"]).reanalyze(MINI_DB)
        with QueryService(mini_store["root"]) as service:
            folded = service.report()
            assert folded.tally("status") == report.tally("status")
            assert folded.verdicts == []

    def test_operator_scan(self, mini_store):
        with QueryService(mini_store["root"]) as service:
            opdns = service.zones_for_operator("OpDNS")
            unknown = service.zones_for_operator("unknown")
            assert set(opdns) | set(unknown) == {z + "." for z in MINI_ZONES}
            assert "missing.com." in unknown  # unresolved → no NS to attribute

    @pytest.mark.parametrize("store", ["mini", "serial", "workers", "resumed"])
    def test_enumeration_equals_lookup(self, store, mini_store, layout_stores):
        """An enumerated view is the point lookup's view — signal
        operator and record location included — on every layout."""
        if store == "mini":
            root = mini_store["root"]
        else:
            root = layout_stores["root"] / store
            build_index(root, operator_db=layout_stores["campaign"].world.operator_db)
        with QueryService(root) as service:
            views = list(service.iter_status())
            assert len(views) == service.snapshot.records
            for view in views:
                assert view == service.zone_status(view.zone)
                assert (view.signal_operator is not None) == view.has_signal
                data = index_dir(root) / service.snapshot.bucket_files(view.bucket).data
                with open(data, "rb") as fp:
                    fp.seek(view.offset)
                    stored = json.loads(fp.read(view.length))
                assert stored["zone"] == view.zone
                assert result_to_obj(service.zone_record(view.zone)) == stored

    def test_iter_status_covers_every_zone(self, mini_store):
        with QueryService(mini_store["root"]) as service:
            views = list(service.iter_status())
        assert {v.zone for v in views} == {z + "." for z in MINI_ZONES}
        by_zone = {v.zone: v for v in views}
        assert by_zone["island.com."].status == "island"
        assert by_zone["island.com."].has_cds
        assert by_zone["missing.com."].resolved is False


class TestStaleServing:
    def test_snapshot_serves_while_store_grows(self, mini_world, tmp_path):
        scanner = Scanner(mini_world["network"], mini_world["root_ips"])
        results = scanner.scan_many(MINI_ZONES)
        root = tmp_path / "store"
        store = CampaignStore.create(root, seed=99, scale=1.0, checkpoint_every=2)
        for result in results:
            store.append(result)
        store.complete()
        build_index(root, operator_db=MINI_DB)

        with QueryService(root) as service:
            assert not service.check_stale()
            before = service.zone_status("island.com")

            # A campaign appends and commits while the service is open.
            writer = CampaignStore.open(root, checkpoint_every=1)
            writer.reopen_in_progress()
            obj = copy.deepcopy(result_to_obj(results[0]))
            obj["zone"] = "late-arrival.com."
            writer.append(result_from_obj(obj))
            writer.checkpoint()

            # Stale-but-consistent: pinned answers unchanged, new zone
            # invisible, staleness detectable.
            assert service.check_stale()
            assert service.zone_status("island.com") == before
            assert service.zone_status("late-arrival.com") is None
            assert service.snapshot.records == len(results)

        # A rebuild picks the new record up.
        build_index(root, operator_db=MINI_DB)
        with QueryService(root) as service:
            assert not service.check_stale()
            assert service.zone_status("late-arrival.com") is not None
            assert service.snapshot.records == len(results) + 1


class TestQueryCli:
    def test_index_get_list_verify(self, mini_store, capsys, tmp_path):
        import shutil

        root = str(tmp_path / "cli-store")
        shutil.copytree(mini_store["root"], root)

        assert cli_main(["query", "index", "--store", root, "--no-operators"]) == 0
        assert "indexed" in capsys.readouterr().out

        assert cli_main(["query", "get", "--store", root, "island.com"]) == 0
        out = capsys.readouterr().out
        assert "island" in out and "bootstrappable" in out

        assert cli_main(["query", "get", "--store", root, "nope.example"]) == 1
        assert "not in the snapshot" in capsys.readouterr().out

        assert cli_main(["query", "get", "--store", root, "island.com", "--full"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["zone"] == "island.com."

        assert cli_main(["query", "list", "--store", root, "--status", "island"]) == 0
        assert "island.com." in capsys.readouterr().out

        assert cli_main(["query", "verify", "--store", root]) == 0
        assert "snapshot OK" in capsys.readouterr().out

        # Query telemetry accumulated across sessions shows up in stats.
        assert cli_main(["campaign", "stats", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "query plane" in out
        assert "lookups" in out

    def test_dashboard(self, mini_store, capsys):
        assert cli_main(["query", "dashboard", "--store", str(mini_store["root"])]) == 0
        out = capsys.readouterr().out
        assert "operator dashboard" in out
        assert "OpDNS" in out  # the attributed operator has a row

    def test_dashboard_limit_zero_shows_every_operator(self, mini_store, capsys):
        """``--limit 0`` means all, as it does for ``query list``."""
        store = str(mini_store["root"])
        assert cli_main(["query", "dashboard", "--store", store, "--limit", "0"]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[4:]]
        assert rows == ["OpDNS", "unknown"]

    def test_dashboard_text_is_pinned(self, layout_stores, capsys):
        """The dashboard's exact text for the serial store: the Table 1
        ordering, then ``unknown``; ``--limit 3`` keeps the first three
        named rows."""
        root = layout_stores["root"] / "serial"
        build_index(root, operator_db=layout_stores["campaign"].world.operator_db)
        expected = DASHBOARD.format(root=root).splitlines()
        assert cli_main(["query", "dashboard", "--store", str(root)]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert cli_main(["query", "dashboard", "--store", str(root), "--limit", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == expected[:7] + expected[-1:]

    def test_list_unknown_operator_is_an_error(self, mini_store, capsys):
        store = str(mini_store["root"])
        assert cli_main(["query", "list", "--store", store, "--operator", "OpDSN"]) == 1
        assert capsys.readouterr().out == (
            "no zone in the snapshot is attributed to operator 'OpDSN'\n"
        )
        assert cli_main(["query", "list", "--store", store, "--operator", "OpDNS"]) == 0
        assert "island.com." in capsys.readouterr().out

    def test_serve_reads_stdin(self, mini_store, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("island.com\nno-such.example\n\n")
        )
        assert cli_main(["query", "serve", "--store", str(mini_store["root"])]) == 0
        out = capsys.readouterr().out
        assert "island.com.\tisland" in out
        assert "no-such.example\tNXDOMAIN" in out
        assert "served 2 lookups" in out

    def test_get_without_index_fails_cleanly(self, tmp_path, capsys):
        root = tmp_path / "empty-store"
        CampaignStore.create(root, seed=1, scale=1e-6).complete()
        assert cli_main(["query", "get", "--store", str(root), "x.com"]) == 2
        assert "no query index" in capsys.readouterr().err


class TestTopLevelApi:
    def test_promoted_names(self):
        import repro

        assert repro.QueryService is QueryService
        assert repro.build_index is build_index
