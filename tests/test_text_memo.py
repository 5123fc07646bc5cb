"""Decode once, on the read side — the text twin of ``test_decode_memo``.

The store's text codec answers a repeated name text
(:meth:`Name.from_text`) and a repeated ``(type, rdata text)``
(:mod:`repro.scanner.serialize`) from two bounded tables, and three
readers work on the stored JSON objects instead of rebuilt records.
These tests pin what that sharing may and may not change: every table
entry equals a fresh parse, the bound changes nothing a user can see,
and the object stream is the record stream.  The monitor's merged
verdicts are a fold over those objects: a warm pass reads and rebuilds
only the newest epoch's store, and equals the full merge.
"""

import gc
import json
import re
from pathlib import Path

import pytest

import repro.dns.name as name_module
import repro.dns.zonefile as zonefile
import repro.monitor.layout as layout_module
import repro.monitor.plane as plane_module
import repro.scanner.serialize as serialize
import repro.store.reader as reader_module
import repro.store.shards as shards_module
from repro.campaign import CampaignConfig, run_campaign
from repro.core.bootstrap import assess_zone
from repro.core.pipeline import AnalysisPipeline
from repro.dns.name import Name
from repro.dns.zonefile import parse_rdata
from repro.memo import clear_all
from repro.monitor import Monitor
from repro.query import build_index
from repro.query.snapshot import canonical_record_line
from repro.reports import render_artifacts
from repro.scenarios import ScenarioSpec
from repro.store.diff import ZoneClassification, diff_classifications
from repro.store.manifest import load_manifest
from repro.store.reader import StoreReader

from tests.test_monitor import WEEKS, monitor_config
from tests.test_query import _index_bytes

SCALE = 1e-6
SEED = 21


def stored_lines(root: Path):
    reader = StoreReader(root)
    for info in reader._ordered_shards():
        with serialize.open_results_read(str(root / info.path)) as fp:
            for line in fp:
                yield line.rstrip("\n")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """The 312-zone scenario world of ``test_oracle``, archived."""
    root = tmp_path_factory.mktemp("memo") / "store"
    campaign = run_campaign(
        CampaignConfig(
            scale=SCALE, seed=SEED, scenarios=ScenarioSpec.default(), store_dir=str(root)
        )
    )
    return root, campaign.world.operator_db


@pytest.fixture(scope="module")
def monitor(tmp_path_factory):
    """Baseline + 3 delta epochs (the chain ``test_monitor`` uses)."""
    root = tmp_path_factory.mktemp("memo-monitor") / "mon"
    monitor = Monitor.init(monitor_config(root))
    monitor.run_until(weeks=WEEKS)
    return monitor


@pytest.fixture(scope="module")
def weeks_five(tmp_path_factory):
    """A 74-zone world watched for five weeks: the root of epochs 0..5."""
    root = tmp_path_factory.mktemp("memo-fold") / "mon"
    Monitor.init(monitor_config(root, scale=2.5e-7)).run_until(weeks=5)
    return root


@pytest.fixture
def unbounded(monkeypatch):
    """Empty tables that never evict, so every distinct text a read
    parsed is still there to be checked."""
    for table in (name_module._INTERNED, name_module._BY_TEXT, serialize._RDATA_MEMO):
        monkeypatch.setattr(table, "bound", 1 << 30)
    clear_all()


@pytest.fixture
def hits(monkeypatch):
    """For every name text and every ``(type, rdata text)`` looked up,
    in order, whether its table answered it without a parse."""
    seen = {"name": [], "rdata": []}
    from_text, rdata_from_text = Name.from_text.__func__, serialize._rdata_from_text

    def name(cls, text):
        seen["name"].append(text in name_module._BY_TEXT)
        return from_text(cls, text)

    def rdata(rrtype, text):
        seen["rdata"].append((rrtype, text) in serialize._RDATA_MEMO)
        return rdata_from_text(rrtype, text)

    monkeypatch.setattr(Name, "from_text", classmethod(name))
    monkeypatch.setattr(serialize, "_rdata_from_text", rdata)
    return seen


class TestSharedObjectsStayAsParsed:
    def test_every_memoised_rdata_equals_a_fresh_parse(self, store, unbounded, hits):
        root, db = store
        StoreReader(root).reanalyze(db)
        memo = serialize._RDATA_MEMO
        assert len(memo) > 1000
        for (rrtype, text), cached in memo.items():
            fresh = parse_rdata(rrtype, text)
            assert type(cached) is type(fresh)
            assert cached.to_canonical_wire() == fresh.to_canonical_wire()
            assert cached.to_text() == fresh.to_text()
        # Most of what a store spells, it has spelled before.
        assert sum(hits["rdata"]) / len(hits["rdata"]) > 0.5

    def test_every_tabled_name_equals_a_fresh_name(self, store, unbounded, hits):
        root, db = store
        StoreReader(root).reanalyze(db)
        table = name_module._BY_TEXT
        assert len(table) > 1000
        for text, cached in table.items():
            bare = text.strip().rstrip(".")
            labels = tuple(part.encode("ascii") for part in bare.split(".")) if bare else ()
            fresh = Name(labels)
            assert cached == fresh
            assert cached.labels == fresh.labels  # case preserved
            assert cached.to_text() == fresh.to_text()
        assert sum(hits["name"]) / len(hits["name"]) > 0.5

    def test_case_variants_stay_two_entries(self, unbounded):
        upper, lower = Name.from_text("Example.COM."), Name.from_text("example.com.")
        assert upper == lower
        assert upper.labels == (b"Example", b"COM") and lower.labels == (b"example", b"com")
        assert Name.from_text("Example.COM.") is upper
        assert {"Example.COM.", "example.com."} <= set(name_module._BY_TEXT)

    def test_no_reference_cycle_survives_a_store_read(self, store):
        root, db = store
        gc.collect()
        gc.disable()
        try:
            report = StoreReader(root).reanalyze(db)
            assert report.total_scanned > 300
            del report
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOneParsePerText:
    """A store read parses each distinct text once, in one place.
    Counts, not timings: both repeat exactly for a given store."""

    def test_each_distinct_text_is_parsed_once(self, store, monkeypatch):
        root, _ = store
        reader = StoreReader(root)
        pairs, texts = set(), set()

        def walk(obj):
            if isinstance(obj, dict):
                if "rdata" in obj:
                    pairs.update((obj["type"], text) for text in obj["rdata"])
                for key, value in obj.items():
                    if key.endswith("rrsigs"):
                        pairs.update(("RRSIG", text) for text in value)
                    else:
                        walk(value)
            elif isinstance(obj, list):
                for value in obj:
                    walk(value)

        walk(list(reader.iter_objects()))
        calls = {"split": 0, "init": 0}
        split, init = zonefile._split_preserving_quotes, Name.__init__
        from_text = Name.from_text.__func__

        def counted_split(line):
            calls["split"] += 1
            return split(line)

        def counted_init(self, labels=()):
            calls["init"] += 1
            init(self, labels)

        def seen_text(cls, text):
            texts.add(text)
            return from_text(cls, text)

        monkeypatch.setattr(zonefile, "_split_preserving_quotes", counted_split)
        monkeypatch.setattr(Name, "__init__", counted_init)
        monkeypatch.setattr(Name, "from_text", classmethod(seen_text))
        clear_all()
        records = sum(1 for _ in reader.iter_results())
        assert records > 300 and pairs
        assert calls["split"] <= len(pairs), "an rdata text was tokenised twice"
        assert calls["init"] <= len(texts), "a name text was built twice"

    def test_one_tokeniser_and_one_record_parser(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        # One tokeniser under dns/ (no second parser kept beside it) …
        found = {
            match
            for path in (src / "dns").rglob("*.py")
            for match in re.findall(
                r"def (?:_split|\w*tokeni[sz]e)\w*|shlex", path.read_text(encoding="utf-8")
            )
        }
        assert found == {"def _split_preserving_quotes"}
        # … and record lines are parsed in scanner/serialize.py only.
        assert "json.loads(" not in (src / "store" / "shards.py").read_text(encoding="utf-8")


class TestTheBoundIsInvisible:
    def test_tables_of_eight_change_no_output(self, store, monitor, monkeypatch):
        root, db = store
        clear_all()
        tables = render_artifacts(StoreReader(root).reanalyze(db))
        build_index(root, operator_db=db)
        index = _index_bytes(root)
        verdicts = monitor.classifications()

        for table in (name_module._INTERNED, name_module._BY_TEXT, serialize._RDATA_MEMO):
            monkeypatch.setattr(table, "bound", 8)
        clear_all()
        for _ in StoreReader(root).iter_results():
            assert len(name_module._BY_TEXT) <= 8
            assert len(name_module._INTERNED) <= 8
            assert len(serialize._RDATA_MEMO) <= 8
        assert render_artifacts(StoreReader(root).reanalyze(db)) == tables
        build_index(root, operator_db=db)
        assert _index_bytes(root) == index
        # A fresh monitor: the fixture's would answer from its fold and
        # re-derive nothing under the small tables.
        assert Monitor.open(monitor.root).classifications() == verdicts
        assert len(name_module._BY_TEXT) <= 8 and len(serialize._RDATA_MEMO) <= 8


class TestTheObjectStreamIsTheRecordStream:
    def test_stored_object_is_the_canonical_record_line(self, store):
        root, _ = store
        lines = list(stored_lines(root))
        assert len(lines) > 300
        for line in lines:
            # Round-trip identity through the memoised codec …
            assert serialize.result_to_line(serialize.result_from_obj(json.loads(line))) == line
            # … so the index's data line need not be re-derived.
            obj = json.loads(line)
            expected = canonical_record_line(serialize.result_from_obj(obj))
            obj["queries_used"] = 0
            assert json.dumps(obj, separators=(",", ":")) == expected

    def test_object_stream_equals_record_stream(self, store):
        root, _ = store
        reader = StoreReader(root)
        objects = list(reader.iter_objects())
        assert [obj["zone"] for obj in objects] == [
            result.zone.to_text() for result in reader.iter_results()
        ]
        assert {obj["zone"] for obj in objects} == reader.zones()

    def test_merge_rebuilds_only_what_it_keeps(self, monitor, monkeypatch):
        built = []
        real = serialize.result_from_obj

        def counting(obj):
            built.append(obj["zone"])
            return real(obj)

        monkeypatch.setattr(shards_module, "result_from_obj", counting)
        newest = monitor.completed_epochs()[-1]
        merged = dict(monitor._merged(newest))
        stored = sum(
            len(list(StoreReader(monitor.epoch_dir(e)).iter_objects()))
            for e in monitor.completed_epochs()
        )
        assert len(built) == len(merged) < stored  # superseded records exist, none was rebuilt

    def test_merged_views_equal_the_rebuild_everything_merge(self, monitor):
        def reference_merged(epoch):
            """The merge as it was: rebuild every record, then drop the
            superseded ones."""
            seen = set()
            for e in reversed(range(epoch + 1)):
                for result in StoreReader(monitor.epoch_dir(e)).iter_results():
                    zone = result.zone.to_text()
                    if zone not in seen:
                        seen.add(zone)
                        yield zone, result

        def reference_classes(epoch):
            return {
                zone: ZoneClassification.of(assess_zone(result))
                for zone, result in reference_merged(epoch)
            }

        epochs = monitor.completed_epochs()
        reference = {epoch: list(reference_classes(epoch).items()) for epoch in epochs}
        for epoch in epochs:
            assert list(monitor.classifications(epoch).items()) == reference[epoch]
            report = AnalysisPipeline(monitor.operator_db()).analyze(
                result for _, result in reference_merged(epoch)
            )
            assert render_artifacts(monitor.analyze(epoch)) == render_artifacts(report)
        # The fold gives the full merge, dict order included, whatever
        # order the epochs are asked in and whatever the fold holds.
        ascending, descending = Monitor.open(monitor.root), Monitor.open(monitor.root)
        for epoch in epochs:
            assert list(ascending.classifications(epoch).items()) == reference[epoch]
            assert list(Monitor.open(monitor.root).classifications(epoch).items()) == reference[epoch]
        for epoch in reversed(epochs):
            assert list(descending.classifications(epoch).items()) == reference[epoch]
        ascending.classifications().clear()  # the caller's copy, not the fold
        assert list(ascending.classifications().items()) == reference[epochs[-1]]

        old, new = epochs[-2:]
        expected = diff_classifications(
            reference_classes(old), reference_classes(new), f"epoch {old}", f"epoch {new}"
        )
        assert monitor.diff().diff == expected
        expected = diff_classifications(
            reference_classes(0), reference_classes(new), "epoch 0", f"epoch {new}"
        )
        assert Monitor.open(monitor.root).diff(old=0, new=new).diff == expected


class TestAPassReadsItsDelta:
    """An agent pass asks for the epoch after the one it last asked for:
    the fold answers it from the newest epoch's store alone."""

    @pytest.mark.parametrize("epoch", [2, 5])
    def test_warm_pass_scans_the_chain_once(self, weeks_five, epoch, monkeypatch):
        loaded = []

        def counting(root, *args, **kwargs):
            loaded.append(Path(root).name)
            return load_manifest(root, *args, **kwargs)

        for module in (layout_module, plane_module, reader_module):
            monkeypatch.setattr(module, "load_manifest", counting)
        monitor = Monitor.open(weeks_five)
        monitor.classifications(epoch - 1)
        loaded.clear()
        monitor.classifications(epoch)
        # One manifest per chain epoch, then the one store the fold reads.
        assert loaded == [f"e{e:04d}" for e in range(epoch + 1)] + [f"e{epoch:04d}"]

    def test_warm_pass_rebuilds_only_the_newest_store(self, weeks_five, monkeypatch):
        built = []
        real = serialize.result_from_obj

        def counting(obj):
            built.append(obj["zone"])
            return real(obj)

        monkeypatch.setattr(shards_module, "result_from_obj", counting)
        monitor = Monitor.open(weeks_five)
        monitor.classifications(0)
        for epoch in range(1, 6):
            built.clear()
            monitor.classifications(epoch)
            stored = [obj["zone"] for obj in StoreReader(monitor.epoch_dir(epoch)).iter_objects()]
            assert built == stored
