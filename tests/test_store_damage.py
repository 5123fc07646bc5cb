"""A damaged committed segment is one report, whoever reads it.

A segment is written to a temp file, fsynced and renamed before the
manifest names it, so no reader ever meets a torn line: a line that is
not a record is disk damage.  Every consumer of a store reads segments
through ``shards.iter_shard_objects`` and so raises ``ShardCorruption``
naming the segment — the library calls below, and the CLI verbs over
them, which exit 2 with that path on stderr and no traceback.
"""

import gzip
import json
import shutil

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.cli import main
from repro.monitor import Monitor
from repro.query import build_index
from repro.store import ShardCorruption, StoreReader, load_manifest
from repro.store.shards import stored_zones

SCALE, SEED = "5e-7", "41"

#: Three ways a committed line can be damaged: torn, valid JSON lacking
#: the record keys, and JSON that is not an object.
DAMAGE = {
    "torn": '{"zone": "torn.exam',
    "half": '{"zone": "half.example.", "resolved": true}',
    "list": "[1, 2]",
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A plain-segment campaign store and a plain-segment monitor with a
    baseline and one delta epoch."""
    base = tmp_path_factory.mktemp("damage")
    store = base / "store"
    run_campaign(
        CampaignConfig(scale=float(SCALE), seed=int(SEED), store_dir=store, compress=False)
    )
    monitor = base / "monitor"
    world = ["--scale", SCALE, "--seed", SEED, "--monitor-seed", "7", "--no-gzip"]
    assert main(["monitor", "init", "--store", str(monitor), *world]) == 0
    assert main(["monitor", "advance", "--store", str(monitor), "--epochs", "2"]) == 0
    return store, monitor


def damaged(pristine, tmp_path, kind, line):
    """A copy of the pristine *kind* (``store`` or ``monitor``) with
    *line* appended to its first committed segment (the monitor's
    baseline epoch's); returns ``(root, segment path)``."""
    store, monitor = pristine
    root = tmp_path / kind
    shutil.copytree(store if kind == "store" else monitor, root)
    epoch = root if kind == "store" else root / "epochs" / "e0000"
    victim = min(load_manifest(epoch).shards, key=lambda info: info.sequence)
    with open(epoch / victim.path, "a", encoding="utf-8") as fp:
        fp.write(line + "\n")
    return root, victim.path


LIBRARY = {
    "iter_results": ("store", lambda root: list(StoreReader(root).iter_results())),
    "iter_objects": ("store", lambda root: list(StoreReader(root).iter_objects())),
    "stored_zones": ("store", lambda root: stored_zones(root, load_manifest(root))),
    "build_index": ("store", build_index),
    "monitor_analyze": ("monitor", lambda root: Monitor.open(root).analyze()),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("consumer", sorted(LIBRARY))
def test_every_reader_names_the_damaged_segment(pristine, tmp_path, consumer, damage):
    kind, read = LIBRARY[consumer]
    root, segment = damaged(pristine, tmp_path, kind, DAMAGE[damage])
    with pytest.raises(ShardCorruption, match=segment):
        read(root)


def cli_args(root, pristine_store):
    return {
        "store reanalyze": ["store", "reanalyze", "--store", str(root)],
        "store diff": ["store", "diff", "--old", str(root), "--new", str(pristine_store)],
        "query index": ["query", "index", "--store", str(root)],
        "campaign resume": ["campaign", "resume", "--store", str(root)],
        "monitor diff": ["monitor", "diff", "--store", str(root)],
    }


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize(
    "verb", ["store reanalyze", "store diff", "query index", "campaign resume", "monitor diff"]
)
def test_every_verb_exits_2_naming_the_damaged_segment(pristine, tmp_path, capsys, verb, damage):
    kind = "monitor" if verb.startswith("monitor") else "store"
    root, segment = damaged(pristine, tmp_path, kind, DAMAGE[damage])
    capsys.readouterr()
    assert main(cli_args(root, pristine[0])[verb]) == 2
    err = capsys.readouterr().err
    assert segment in err and "corrupt record" in err, err
    assert "Traceback" not in err


def bad_rdata_record(root):
    """A record of the store (or baseline epoch) at *root* with every key
    present but an SOA rdata that does not parse, as one JSON line."""
    records = [
        json.loads(line)
        for info in load_manifest(root).shards
        for line in (root / info.path).read_text().splitlines()
    ]
    record = next(obj for obj in records if obj["soa"] and obj["soa"]["rrset"])
    record["zone"] = "bad-rdata.example."
    record["soa"]["rrset"]["rdata"] = ["ns1.example. admin.example. 1 2 3 4"]
    return json.dumps(record)


def test_a_record_that_does_not_rebuild_names_its_segment(pristine, tmp_path, capsys):
    """Every record key present, but an rdata that does not parse: the
    rebuild fails, and that is damage to the segment too — for every
    consumer that rebuilds, each through the one rebuild step."""
    store, monitor = pristine
    root, segment = damaged(pristine, tmp_path, "store", bad_rdata_record(store))
    names = f"{segment}: zone bad-rdata.example. does not rebuild"
    with pytest.raises(ShardCorruption, match=names):
        list(StoreReader(root).iter_results())
    with pytest.raises(ShardCorruption, match=names):
        build_index(root)
    line = bad_rdata_record(monitor / "epochs" / "e0000")
    monitor_root, monitor_segment = damaged(pristine, tmp_path, "monitor", line)
    with pytest.raises(ShardCorruption, match=f"{monitor_segment}: zone bad-rdata.example."):
        Monitor.open(monitor_root).analyze()
    capsys.readouterr()
    for verb in ("store reanalyze", "query index", "monitor diff"):
        kind = "monitor" if verb.startswith("monitor") else "store"
        args = cli_args(monitor_root if kind == "monitor" else root, store)[verb]
        assert main(args) == 2, verb
        err = capsys.readouterr().err
        assert (monitor_segment if kind == "monitor" else segment) in err, (verb, err)
        assert "bad-rdata.example." in err and "Traceback" not in err, (verb, err)


def test_a_torn_gzip_segment_names_its_segment(pristine, tmp_path):
    """Bytes that do not decompress are damage as well."""
    root, segment = damaged(pristine, tmp_path, "store", "")
    blob = gzip.compress((root / segment).read_bytes())
    (root / segment).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ShardCorruption, match=segment):
        list(StoreReader(root).iter_objects())
