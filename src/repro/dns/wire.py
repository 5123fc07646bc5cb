"""Low-level DNS wire-format reader and writer.

``WireWriter`` supports RFC 1035 §4.1.4 name compression; ``WireReader``
follows compression pointers with loop protection.  Rdata codecs and the
message codec are built on these primitives.

This module is the single hottest code in a campaign (profiles put the
codec at ~70% of scan wall time), so the primitives avoid ``struct`` in
favour of direct byte arithmetic, the reader memoises decoded names per
message offset (owner names repeat via compression pointers), and
encoders can borrow a per-thread scratch buffer instead of allocating a
fresh ``bytearray`` per message (:func:`borrow_buffer`).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.dns.name import MAX_NAME_LENGTH, Name

_POINTER_MASK = 0xC0
_MAX_POINTER_HOPS = 64


class WireError(ValueError):
    """Raised on malformed wire-format data."""


_scratch = threading.local()


def borrow_buffer() -> bytearray:
    """Borrow a reusable per-thread ``bytearray`` for message encoding.

    Callers must pair with :func:`return_buffer` (try/finally) and must
    copy the contents out (``WireWriter.getvalue`` does) before
    returning it.  Borrowing is reentrancy-safe: nested borrows hand out
    distinct buffers.
    """
    pool = getattr(_scratch, "pool", None)
    if pool:
        buf = pool.pop()
        del buf[:]
        return buf
    return bytearray()


def return_buffer(buf: bytearray) -> None:
    """Return a buffer obtained from :func:`borrow_buffer` to the pool."""
    pool = getattr(_scratch, "pool", None)
    if pool is None:
        pool = []
        _scratch.pool = pool
    if len(pool) < 8:
        pool.append(buf)


class WireWriter:
    """Accumulates wire-format octets with optional name compression."""

    def __init__(self, compress: bool = True, buffer: Optional[bytearray] = None):
        self._buf = bytearray() if buffer is None else buffer
        self._compress = compress
        # Maps a tuple of folded labels (a name suffix) to its offset.
        self._offsets: Dict[Tuple[bytes, ...], int] = {}

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    # -- primitives ------------------------------------------------------

    def write_u8(self, value: int) -> None:
        self._buf.append(value)

    def write_u16(self, value: int) -> None:
        self._buf += value.to_bytes(2, "big")

    def write_u32(self, value: int) -> None:
        self._buf += value.to_bytes(4, "big")

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def write_at_u16(self, offset: int, value: int) -> None:
        """Patch a 16-bit field written earlier (e.g. RDLENGTH)."""
        self._buf[offset : offset + 2] = value.to_bytes(2, "big")

    # -- names --------------------------------------------------------------

    def write_name(self, name: Name, compress: Optional[bool] = None) -> None:
        """Write *name*, compressing against previously written names
        when compression is enabled (never inside rdata of DNSSEC types —
        callers pass ``compress=False`` there per RFC 3597 §4)."""
        use_compression = self._compress if compress is None else compress
        buf = self._buf
        offsets = self._offsets
        base = len(buf)
        layout = name.suffix_layout()
        if use_compression:
            labels = name.labels
            for k in range(len(layout)):
                pointer = offsets.get(layout[k][0])
                if pointer is None:
                    continue
                # Suffix k is already in the message: emit the labels
                # before it (registering their suffixes, exactly as the
                # uncompressed path would) then a pointer.
                for j in range(k):
                    suffix, rel = layout[j]
                    offset = base + rel
                    # Offsets beyond 14 bits cannot be pointer targets.
                    if offset < 0x4000:
                        offsets.setdefault(suffix, offset)
                    label = labels[j]
                    buf.append(len(label))
                    buf += label
                buf.append(0xC0 | (pointer >> 8))
                buf.append(pointer & 0xFF)
                return
        # No compression hit (or compression disabled): emit the memoised
        # uncompressed form and register every suffix as a pointer target.
        buf += name.to_wire()
        if base < 0x4000:
            for suffix, rel in layout:
                offset = base + rel
                if offset >= 0x4000:
                    break
                offsets.setdefault(suffix, offset)

    def splice_rdata(self, wire: bytes, names: Tuple[Tuple[int, Name], ...]) -> None:
        """Write RDLENGTH and a pre-encoded rdata *wire*, registering the
        ``(offset, name)`` pairs embedded in it as pointer targets —
        exactly what writing those names with ``compress=False`` does."""
        buf = self._buf
        buf += len(wire).to_bytes(2, "big")
        base = len(buf)
        buf += wire
        offsets = self._offsets
        for rel, name in names:
            start = base + rel
            if start >= 0x4000:
                break
            for suffix, srel in name.suffix_layout():
                offset = start + srel
                if offset >= 0x4000:
                    break
                offsets.setdefault(suffix, offset)


class WireReader:
    """Sequential reader over a full DNS message buffer."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._pos = offset
        # Offset → decoded Name starting at that offset.  Compression
        # pointers make owner names repeat constantly; the memo turns the
        # second and later reads of a name into one dict hit.
        self._names: Dict[int, Name] = {}

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def seek(self, offset: int) -> None:
        if not 0 <= offset <= len(self._data):
            raise WireError(f"seek out of range: {offset}")
        self._pos = offset

    # -- primitives ----------------------------------------------------

    def read_u8(self) -> int:
        data = self._data
        pos = self._pos
        if pos >= len(data):
            raise WireError("truncated data: wanted 1, have 0")
        self._pos = pos + 1
        return data[pos]

    def read_u16(self) -> int:
        data = self._data
        pos = self._pos
        if pos + 2 > len(data):
            raise WireError(f"truncated data: wanted 2, have {len(data) - pos}")
        self._pos = pos + 2
        return (data[pos] << 8) | data[pos + 1]

    def read_u32(self) -> int:
        data = self._data
        pos = self._pos
        if pos + 4 > len(data):
            raise WireError(f"truncated data: wanted 4, have {len(data) - pos}")
        self._pos = pos + 4
        return (
            (data[pos] << 24) | (data[pos + 1] << 16) | (data[pos + 2] << 8) | data[pos + 3]
        )

    def read_bytes(self, count: int) -> bytes:
        data = self._data
        pos = self._pos
        end = pos + count
        if end > len(data):
            raise WireError(f"truncated data: wanted {count}, have {len(data) - pos}")
        self._pos = end
        return data[pos:end]

    # -- names -------------------------------------------------------------

    def read_name(self) -> Name:
        """Read a possibly-compressed name starting at the current offset.

        The reader position advances past the name as it appears in the
        stream (pointers are followed without moving the main cursor).
        Decoded names are memoised by offset and interned, so repeated
        owners resolve without re-walking labels or re-folding case."""
        data = self._data
        dlen = len(data)
        memo = self._names
        labels: List[bytes] = []
        # Offsets we walk through, with the number of labels collected
        # before reaching each — every one names a suffix of the result.
        starts: List[Tuple[int, int]] = []
        pos = self._pos
        jumped = False
        hops = 0
        total = 1
        while True:
            if pos >= dlen:
                raise WireError("truncated name")
            length = data[pos]
            kind = length & _POINTER_MASK
            if kind == _POINTER_MASK:
                if pos + 1 >= dlen:
                    raise WireError("truncated compression pointer")
                target = ((length & ~_POINTER_MASK) << 8) | data[pos + 1]
                if not jumped:
                    self._pos = pos + 2
                    jumped = True
                if target >= pos:
                    raise WireError("forward compression pointer")
                hops += 1
                if hops > _MAX_POINTER_HOPS:
                    raise WireError("compression pointer loop")
                tail = memo.get(target)
                if tail is not None:
                    total += tail.wire_length - 1
                    if total > MAX_NAME_LENGTH:
                        raise WireError("name exceeds 255 octets")
                    name = tail if not labels else Name.intern(tuple(labels) + tail.labels)
                    break
                starts.append((target, len(labels)))
                pos = target
            elif kind:
                raise WireError(f"unsupported label type: 0x{length:02x}")
            elif length == 0:
                if not jumped:
                    self._pos = pos + 1
                name = Name.intern(tuple(labels))
                break
            else:
                end = pos + 1 + length
                if end > dlen:
                    raise WireError("truncated label")
                total += length + 1
                if total > MAX_NAME_LENGTH:
                    raise WireError("name exceeds 255 octets")
                if not labels and not starts:
                    starts.append((pos, 0))
                labels.append(data[pos + 1 : end])
                pos = end
        for offset, skip in starts:
            if offset not in memo:
                memo[offset] = name if skip == 0 else Name.intern(name.labels[skip:])
        return name
