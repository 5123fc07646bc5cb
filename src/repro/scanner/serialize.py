"""JSON (de)serialisation of scan results.

The paper stored every DNS message it collected (6.5 TiB, App. D) and
analysed offline.  This module provides the same store-then-analyse
workflow: a scan campaign can be dumped to JSON lines and re-analysed
later without re-scanning — rdata round-trips through the master-file
presentation format.

Streaming semantics: :func:`dump_results` consumes any iterable (a
generator works — nothing is materialised) and :func:`load_results` is
a generator, so a store→re-analyse cycle runs in O(1) memory.  Files
may be gzip-compressed; readers auto-detect by magic bytes, writers
compress when asked to (see :func:`open_results_write`).

Decode once: a read parses each distinct name text once
(:meth:`Name.from_text`'s table) and each distinct ``(type, rdata text)``
once (``_RDATA_MEMO``, ``_RDATA_MEMO_LIMIT`` entries, cleared when full).
Both are immutable value objects, so records share them and their
memoised wire forms; the ``RRset`` around each is built per record.

Crash tolerance: a process killed mid-write leaves a truncated final
line.  By default :func:`load_results` skips undecodable lines with a
warning (counted in :class:`LoadStats`); ``strict=True`` restores the
raise-on-corruption behaviour.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
from dataclasses import dataclass
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, TextIO

logger = logging.getLogger(__name__)

GZIP_MAGIC = b"\x1f\x8b"

from repro.dns.name import Name
from repro.dns.rdata import RRSIG
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.zonefile import parse_rdata
from repro.scanner.results import (
    ChainLink,
    QueryStatus,
    RRQueryResult,
    SignalScan,
    ZoneScanResult,
)


# (rrtype, text) -> Rdata for the origin-independent parse only this
# codec makes; a parse that raises stores nothing.
_RDATA_MEMO_LIMIT = 1 << 12
_RDATA_MEMO: Dict[Any, Any] = {}
RDATA_HITS = 0  # parses answered from _RDATA_MEMO


def _rdata_from_text(rrtype: RRType, text: str):
    global RDATA_HITS
    rdata = _RDATA_MEMO.get((rrtype, text))
    if rdata is None:
        rdata = parse_rdata(rrtype, text)
        if len(_RDATA_MEMO) >= _RDATA_MEMO_LIMIT:
            _RDATA_MEMO.clear()
        _RDATA_MEMO[(rrtype, text)] = rdata
    else:
        RDATA_HITS += 1
    return rdata


def rrset_to_obj(rrset: Optional[RRset]) -> Optional[Dict[str, Any]]:
    if rrset is None:
        return None
    return {
        "name": rrset.name.to_text(),
        "type": rrset.rrtype.name,
        "ttl": rrset.ttl,
        "rdata": [rd.to_text() for rd in rrset.rdatas],
    }


def rrset_from_obj(obj: Optional[Dict[str, Any]]) -> Optional[RRset]:
    if obj is None:
        return None
    rrtype = RRType.from_text(obj["type"])
    rrset = RRset(Name.from_text(obj["name"]), rrtype, obj["ttl"])
    for text in obj["rdata"]:
        rrset.add(_rdata_from_text(rrtype, text))
    return rrset


def _rrsigs_to_obj(rrsigs: List[RRSIG]) -> List[str]:
    return [sig.to_text() for sig in rrsigs]


def _rrsigs_from_obj(items: List[str]) -> List[RRSIG]:
    return [_rdata_from_text(RRType.RRSIG, text) for text in items]


def query_result_to_obj(result: Optional[RRQueryResult]) -> Optional[Dict[str, Any]]:
    if result is None:
        return None
    return {
        "status": result.status.value,
        "rcode": int(result.rcode) if result.rcode is not None else None,
        "rrset": rrset_to_obj(result.rrset),
        "rrsigs": _rrsigs_to_obj(result.rrsigs),
    }


def query_result_from_obj(obj: Optional[Dict[str, Any]]) -> Optional[RRQueryResult]:
    if obj is None:
        return None
    return RRQueryResult(
        status=QueryStatus(obj["status"]),
        rcode=Rcode.make(obj["rcode"]) if obj["rcode"] is not None else None,
        rrset=rrset_from_obj(obj["rrset"]),
        rrsigs=_rrsigs_from_obj(obj["rrsigs"]),
    )


def _chain_to_obj(chain: List[ChainLink]) -> List[Dict[str, Any]]:
    return [
        {
            "zone": link.zone.to_text(),
            "ds": rrset_to_obj(link.ds_rrset),
            "ds_rrsigs": _rrsigs_to_obj(link.ds_rrsigs),
            "dnskey": rrset_to_obj(link.dnskey_rrset),
            "dnskey_rrsigs": _rrsigs_to_obj(link.dnskey_rrsigs),
        }
        for link in chain
    ]


def _chain_from_obj(items: List[Dict[str, Any]]) -> List[ChainLink]:
    return [
        ChainLink(
            zone=Name.from_text(item["zone"]),
            ds_rrset=rrset_from_obj(item["ds"]),
            ds_rrsigs=_rrsigs_from_obj(item["ds_rrsigs"]),
            dnskey_rrset=rrset_from_obj(item["dnskey"]),
            dnskey_rrsigs=_rrsigs_from_obj(item["dnskey_rrsigs"]),
        )
        for item in items
    ]


def _signal_to_obj(scan: SignalScan) -> Dict[str, Any]:
    return {
        "ns_host": scan.ns_host.to_text(),
        "signal_name": scan.signal_name.to_text() if scan.signal_name else None,
        "name_too_long": scan.name_too_long,
        "cds_by_ip": {k: query_result_to_obj(v) for k, v in scan.cds_by_ip.items()},
        "cdnskey_by_ip": {k: query_result_to_obj(v) for k, v in scan.cdnskey_by_ip.items()},
        "signal_zone_apex": scan.signal_zone_apex.to_text() if scan.signal_zone_apex else None,
        "zone_cuts": [name.to_text() for name in scan.zone_cuts],
        "chain": _chain_to_obj(scan.chain),
        "error": scan.error,
    }


def _signal_from_obj(obj: Dict[str, Any]) -> SignalScan:
    return SignalScan(
        ns_host=Name.from_text(obj["ns_host"]),
        signal_name=Name.from_text(obj["signal_name"]) if obj["signal_name"] else None,
        name_too_long=obj["name_too_long"],
        cds_by_ip={k: query_result_from_obj(v) for k, v in obj["cds_by_ip"].items()},
        cdnskey_by_ip={k: query_result_from_obj(v) for k, v in obj["cdnskey_by_ip"].items()},
        signal_zone_apex=(
            Name.from_text(obj["signal_zone_apex"]) if obj["signal_zone_apex"] else None
        ),
        zone_cuts=[Name.from_text(text) for text in obj["zone_cuts"]],
        chain=_chain_from_obj(obj["chain"]),
        error=obj["error"],
    )


def result_to_obj(result: ZoneScanResult) -> Dict[str, Any]:
    """Serialise one scan result to a JSON-compatible dict."""
    return {
        "zone": result.zone.to_text(),
        "resolved": result.resolved,
        "error": result.error,
        "parent": result.parent.to_text() if result.parent else None,
        "delegation_ns": [name.to_text() for name in result.delegation_ns],
        "ds": query_result_to_obj(result.ds),
        "soa": query_result_to_obj(result.soa),
        "child_ns": query_result_to_obj(result.child_ns),
        "dnskey": query_result_to_obj(result.dnskey),
        "ns_addresses": {
            host.to_text(): list(ips) for host, ips in result.ns_addresses.items()
        },
        "sampled": result.sampled,
        "cds_by_ns": {k: query_result_to_obj(v) for k, v in result.cds_by_ns.items()},
        "cdnskey_by_ns": {k: query_result_to_obj(v) for k, v in result.cdnskey_by_ns.items()},
        "signals": [_signal_to_obj(scan) for scan in result.signals],
        "queries_used": result.queries_used,
    }


def result_from_obj(obj: Dict[str, Any]) -> ZoneScanResult:
    """Rebuild a scan result from :func:`result_to_obj` output."""
    return ZoneScanResult(
        zone=Name.from_text(obj["zone"]),
        resolved=obj["resolved"],
        error=obj["error"],
        parent=Name.from_text(obj["parent"]) if obj["parent"] else None,
        delegation_ns=[Name.from_text(text) for text in obj["delegation_ns"]],
        ds=query_result_from_obj(obj["ds"]),
        soa=query_result_from_obj(obj["soa"]),
        child_ns=query_result_from_obj(obj["child_ns"]),
        dnskey=query_result_from_obj(obj["dnskey"]),
        ns_addresses={
            Name.from_text(host): list(ips) for host, ips in obj["ns_addresses"].items()
        },
        sampled=obj["sampled"],
        cds_by_ns={k: query_result_from_obj(v) for k, v in obj["cds_by_ns"].items()},
        cdnskey_by_ns={k: query_result_from_obj(v) for k, v in obj["cdnskey_by_ns"].items()},
        signals=[_signal_from_obj(item) for item in obj["signals"]],
        queries_used=obj["queries_used"],
    )


def result_to_line(result: ZoneScanResult) -> str:
    """The canonical one-line JSON encoding of one record (no newline).

    Shard segments, the index snapshot's re-packed bucket files, and any
    other JSONL consumer all write this exact encoding, so equal records
    are equal bytes wherever they land — the property the store's
    content digests and the query index's byte-identical determinism
    both rest on.  ASCII-only (``ensure_ascii``), so character offsets
    equal byte offsets.
    """
    return json.dumps(result_to_obj(result), separators=(",", ":"))


def dump_results(
    results: Iterable[ZoneScanResult],
    fp: TextIO,
) -> int:
    """Write results as JSON lines; returns the record count.

    *results* may be any iterable, including a generator — records are
    written as they arrive, nothing is held back.
    """
    count = 0
    for result in results:
        fp.write(result_to_line(result))
        fp.write("\n")
        count += 1
    return count


@dataclass
class LoadStats:
    """Counters filled in by :func:`load_results`."""

    records: int = 0
    skipped: int = 0  # corrupt or truncated lines that were not parseable


def _load_lines(fp: TextIO, strict: bool, stats: Optional[LoadStats], decode) -> Iterator[Any]:
    if stats is None:
        stats = LoadStats()
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            item = decode(line)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            if strict:
                raise
            stats.skipped += 1
            logger.warning(
                "skipping corrupt scan record at line %d (%d skipped so far)",
                lineno,
                stats.skipped,
            )
            continue
        stats.records += 1
        yield item


def load_objects(
    fp: TextIO, strict: bool = False, stats: Optional[LoadStats] = None
) -> Iterator[Dict[str, Any]]:
    """:func:`load_results` short of :func:`result_from_obj`: the records'
    JSON objects, under the same strict / skip / *stats* rules — for a
    reader that needs one field, or rebuilds only the records it keeps."""
    return _load_lines(fp, strict, stats, json.loads)


def load_results(
    fp: TextIO,
    strict: bool = False,
    stats: Optional[LoadStats] = None,
) -> Iterator[ZoneScanResult]:
    """Stream results back from JSON lines.

    A crash mid-write leaves a truncated final line; by default such
    undecodable lines are skipped with a warning (and counted in
    *stats* when given).  With ``strict=True`` corruption raises, as the
    original loader did.
    """
    return _load_lines(fp, strict, stats, lambda line: result_from_obj(json.loads(line)))


# -- gzip-aware file access -------------------------------------------------


class _OwningTextWrapper(io.TextIOWrapper):
    """TextIOWrapper that also closes the raw file under a GzipFile
    (GzipFile never closes a fileobj it was handed)."""

    def __init__(self, buffer, raw: BinaryIO, **kwargs):
        super().__init__(buffer, **kwargs)
        self._raw_file = raw

    def close(self) -> None:
        try:
            super().close()
        finally:
            if not self._raw_file.closed:
                self._raw_file.close()


def open_results_read(path: str) -> TextIO:
    """Open a results file for reading, auto-detecting gzip compression
    by magic bytes (the ``.gz`` suffix is not required)."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def open_results_write(path: str, compress: bool) -> TextIO:
    """Open a results file for writing, gzipped when *compress* is true.

    Compressed output is deterministic (``mtime=0``, no embedded
    filename) so equal record streams produce byte-identical files —
    shard content digests depend on it.
    """
    if not compress:
        return open(path, "w", encoding="utf-8", newline="\n")
    raw = open(path, "wb")
    try:
        zfp = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        return _OwningTextWrapper(zfp, raw, encoding="utf-8", newline="\n")
    except Exception:
        raw.close()
        raise

