"""Tests for scan-result JSON serialisation (store-then-analyse)."""

import gzip
import io
import json

import pytest

import repro.scanner.serialize as serialize_module
from repro.core import assess_zone
from repro.dns.types import RRType
from repro.scanner import Scanner
from repro.scanner.serialize import (
    LoadStats,
    dump_results,
    load_results,
    open_results_read,
    open_results_write,
    result_from_obj,
    result_to_line,
    result_to_obj,
    rrset_from_obj,
    rrset_to_obj,
)


@pytest.fixture(scope="module")
def results(mini_world):
    scanner = Scanner(mini_world["network"], mini_world["root_ips"])
    return scanner.scan_many(
        ["example.com", "unsigned.com", "island.com", "broken.com", "missing.com"]
    )


class TestRRsetRoundTrip:
    def test_none(self):
        assert rrset_to_obj(None) is None
        assert rrset_from_obj(None) is None

    def test_cds_rrset(self, results):
        island = next(r for r in results if r.zone.to_text() == "island.com.")
        for _, response in island.cds_rrsets():
            if response.has_data:
                obj = rrset_to_obj(response.rrset)
                back = rrset_from_obj(obj)
                assert back.same_rdata_as(response.rrset)
                assert back.ttl == response.rrset.ttl
                return
        pytest.fail("no CDS data found")


class TestResultRoundTrip:
    @pytest.mark.parametrize("index", range(5))
    def test_full_round_trip(self, results, index):
        original = results[index]
        back = result_from_obj(result_to_obj(original))
        assert back.zone == original.zone
        assert back.resolved == original.resolved
        assert back.error == original.error
        assert back.delegation_ns == original.delegation_ns
        assert back.queries_used == original.queries_used
        assert sorted(back.cds_by_ns) == sorted(original.cds_by_ns)
        assert len(back.signals) == len(original.signals)

    def test_assessment_identical_after_round_trip(self, results):
        """The crucial property: offline re-analysis of stored results
        yields exactly the classifications of the live analysis."""
        for original in results:
            back = result_from_obj(result_to_obj(original))
            a = assess_zone(original)
            b = assess_zone(back)
            assert (a.status, a.eligibility, a.signal_outcome) == (
                b.status,
                b.eligibility,
                b.signal_outcome,
            ), original.zone

    def test_signal_chain_survives(self, results):
        island = next(r for r in results if r.zone.to_text() == "island.com.")
        back = result_from_obj(result_to_obj(island))
        assert [link.zone for link in back.signals[0].chain] == [
            link.zone for link in island.signals[0].chain
        ]
        # Signatures survive byte-exactly (validation depends on it).
        original_sig = island.signals[0].chain[-1].dnskey_rrsigs[0]
        restored_sig = back.signals[0].chain[-1].dnskey_rrsigs[0]
        assert restored_sig.signature == original_sig.signature


class TestStreamFormat:
    def test_dump_and_load(self, results):
        buffer = io.StringIO()
        count = dump_results(results, buffer)
        assert count == len(results)
        buffer.seek(0)
        loaded = list(load_results(buffer))
        assert [r.zone for r in loaded] == [r.zone for r in results]

    def test_blank_lines_ignored(self, results):
        buffer = io.StringIO()
        dump_results(results[:1], buffer)
        buffer.write("\n\n")
        dump_results(results[1:2], buffer)
        buffer.seek(0)
        assert len(list(load_results(buffer))) == 2

    def test_one_json_object_per_line(self, results):
        buffer = io.StringIO()
        dump_results(results, buffer)
        lines = [line for line in buffer.getvalue().splitlines() if line]
        for line in lines:
            json.loads(line)

    def test_dump_accepts_generator(self, results):
        """Streaming contract: any iterable works, nothing materialised."""
        buffer = io.StringIO()
        count = dump_results((r for r in results), buffer)
        assert count == len(results)


class TestCorruptionTolerance:
    """A crash mid-write truncates the final line; loading must survive."""

    def _truncated_stream(self, results):
        buffer = io.StringIO()
        dump_results(results, buffer)
        text = buffer.getvalue()
        # Chop the last record in half, as a killed writer would.
        return text[: len(text) - len(text.splitlines()[-1]) // 2 - 1]

    def test_truncated_final_line_skipped_with_counter(self, results):
        stats = LoadStats()
        loaded = list(load_results(io.StringIO(self._truncated_stream(results)), stats=stats))
        assert len(loaded) == len(results) - 1
        assert stats.skipped == 1
        assert stats.records == len(results) - 1

    def test_strict_flag_restores_raise(self, results):
        with pytest.raises(json.JSONDecodeError):
            list(load_results(io.StringIO(self._truncated_stream(results)), strict=True))

    def test_valid_json_with_missing_keys_is_skipped(self, results):
        buffer = io.StringIO()
        dump_results(results[:1], buffer)
        buffer.write('{"zone": "half.example.", "resolved": true}\n')
        buffer.seek(0)
        stats = LoadStats()
        assert len(list(load_results(buffer, stats=stats))) == 1
        assert stats.skipped == 1


class TestRdataMemoKeepsErrors:
    """A repeated ``(type, rdata text)`` is parsed once; a parse that
    raises must raise every time and leave nothing behind."""

    BAD = [
        ("DS", "12345 13 2 zz"),  # bad hex
        ("SOA", "ns1.example. admin.example. 1 2 3 4"),  # 6 fields
    ]

    @pytest.mark.parametrize("rrtype,text", BAD)
    def test_a_bad_rdata_raises_again_and_stores_nothing(self, rrtype, text):
        obj = {"name": "example.com.", "type": rrtype, "ttl": 300, "rdata": [text]}
        for _ in range(3):
            with pytest.raises(ValueError):
                rrset_from_obj(obj)
        assert (RRType.from_text(rrtype), text) not in serialize_module._RDATA_MEMO

    def test_a_good_rdata_is_shared(self):
        obj = {"name": "example.com.", "type": "A", "ttl": 300, "rdata": ["192.0.2.7"]}
        first, second = rrset_from_obj(obj), rrset_from_obj(obj)
        assert first.rdatas[0] is second.rdatas[0]
        assert first is not second  # RRsets are mutable and never shared

    def test_bad_record_is_skipped_each_time_and_good_ones_are_unaffected(self, results):
        good = next(r for r in results if r.soa is not None and r.soa.rrset)
        line = result_to_line(good)
        bad = json.loads(line)
        bad["soa"]["rrset"]["rdata"][0] = "ns1.example. admin.example. 1 2 3 4"
        stream = "\n".join([json.dumps(bad), line, json.dumps(bad), line]) + "\n"
        stats = LoadStats()
        loaded = list(load_results(io.StringIO(stream), stats=stats))
        assert (stats.records, stats.skipped) == (2, 2)
        assert [result_to_line(result) for result in loaded] == [line, line]
        with pytest.raises(ValueError):
            list(load_results(io.StringIO(stream), strict=True))


def dump_file(path, results, compress):
    """Write *results* to *path* the way a store shard is written."""
    with open_results_write(str(path), compress=compress) as fp:
        return dump_results(results, fp)


def load_file(path, **kwargs):
    """Read a results file back the way a store shard is read."""
    with open_results_read(str(path)) as fp:
        return list(load_results(fp, **kwargs))


class TestGzipSupport:
    def test_compressed_write_round_trips(self, results, tmp_path):
        path = tmp_path / "results.jsonl.gz"
        count = dump_file(path, results, compress=True)
        assert count == len(results)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = load_file(path)
        assert [r.zone for r in loaded] == [r.zone for r in results]

    def test_read_autodetects_by_magic_not_suffix(self, results, tmp_path):
        """A gzipped file without the .gz suffix still loads."""
        path = tmp_path / "results.jsonl"
        dump_file(path, results, compress=True)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert len(load_file(path)) == len(results)

    def test_plain_write_stays_plain(self, results, tmp_path):
        path = tmp_path / "results.jsonl.gz"
        dump_file(path, results, compress=False)
        json.loads(path.read_text().splitlines()[0])
        assert len(load_file(path)) == len(results)

    def test_compressed_output_is_deterministic(self, results, tmp_path):
        """mtime-free framing: equal records -> equal bytes (digests
        recorded in store manifests rely on this)."""
        a, b = tmp_path / "a.gz", tmp_path / "b.gz"
        dump_file(a, results, compress=True)
        dump_file(b, results, compress=True)
        assert a.read_bytes() == b.read_bytes()

    def test_torn_gzip_stream_raises(self, results, tmp_path):
        """A gzip member truncated mid-flush is a transport-level error,
        not a skippable line — it raises in both modes.  (Store shards
        never hit this: segments are committed atomically.)"""
        path = tmp_path / "torn.jsonl.gz"
        payload = io.StringIO()
        dump_results(results, payload)
        blob = gzip.compress(payload.getvalue().encode())
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises((EOFError, OSError)):
            load_file(path, strict=True)
