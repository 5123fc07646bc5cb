"""DNS messages: header, question, sections, EDNS(0), and the wire codec.

The codec is section-oriented: records are grouped back into RRsets on
decode (same owner/class/type), which is the granularity the scanner and
validator operate at.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from repro.dns.name import Name
from repro.dns.rdata import read_rdata
from repro.dns.rrset import RRset
from repro.dns.types import (
    EDNS_FLAG_DO,
    FLAG_AA,
    FLAG_AD,
    FLAG_CD,
    FLAG_QR,
    FLAG_RA,
    FLAG_RD,
    FLAG_TC,
    MAX_UDP_PAYLOAD,
    Opcode,
    RClass,
    Rcode,
    RRType,
)
from repro.dns.wire import WireError, WireReader, WireWriter, borrow_buffer, return_buffer
from repro.memo import table

EDNS_VERSION = 0
_HEADER = struct.Struct("!6H")
_TYPE_CLASS = struct.Struct("!HH")
_TYPE_CLASS_TTL = struct.Struct("!HHI")
_RR_FIXED = struct.Struct("!HHIH")  # type, class, TTL, RDLENGTH

# (type, rdata wire) → the Rdata decoded from it; rdata are immutable
# and shared between every message that carried the same bytes.  The
# same records come back from every server of a zone, so a campaign
# decodes each distinct ``(type, rdata bytes)`` about six times over.
_RDATA_MEMO = table(1024)

# Received bytes less the message id → the Message decoded from them.
# Queries and responses never share a key: the QR bit is inside it.
# Every world of a seed asks the same servers the same questions, so
# it catches repeats across rebuilt worlds as well as within one scan.
_RECEIVED = table(2048)


class Question:
    """The question section entry: (qname, qtype, qclass)."""

    __slots__ = ("name", "rrtype", "rclass")

    def __init__(self, name: Name | str, rrtype: RRType, rclass: RClass = RClass.IN):
        self.name = name if isinstance(name, Name) else Name.from_text(name)
        self.rrtype = RRType.make(int(rrtype))
        self.rclass = rclass

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Question):
            return NotImplemented
        return (
            self.name == other.name
            and int(self.rrtype) == int(other.rrtype)
            and int(self.rclass) == int(other.rclass)
        )

    def __hash__(self) -> int:
        return hash((self.name, int(self.rrtype), int(self.rclass)))

    def __repr__(self) -> str:
        return f"<Question {self.name} {self.rrtype.name}>"


class Message:
    """A DNS message with typed sections.

    ``answer``, ``authority`` and ``additional`` are lists of
    :class:`RRset`.  EDNS(0) state is carried as attributes rather than a
    synthetic OPT RRset; the codec (de)materialises the OPT record.
    """

    def __init__(
        self,
        msg_id: int = 0,
        flags: int = 0,
        question: Optional[Question] = None,
    ):
        self.id = msg_id
        self.flags = flags
        self.opcode = Opcode.QUERY
        self.rcode = Rcode.NOERROR
        self.question = question
        self.answer: List[RRset] = []
        self.authority: List[RRset] = []
        self.additional: List[RRset] = []
        self.edns = False
        self.edns_payload = MAX_UDP_PAYLOAD
        self.edns_flags = 0
        self.edns_version = EDNS_VERSION

    # -- flag accessors ----------------------------------------------------

    def _flag(self, mask: int) -> bool:
        return bool(self.flags & mask)

    def _set_flag(self, mask: int, value: bool) -> None:
        self.flags = (self.flags | mask) if value else (self.flags & ~mask)

    @property
    def is_response(self) -> bool:
        return self._flag(FLAG_QR)

    @is_response.setter
    def is_response(self, value: bool) -> None:
        self._set_flag(FLAG_QR, value)

    @property
    def authoritative(self) -> bool:
        return self._flag(FLAG_AA)

    @authoritative.setter
    def authoritative(self, value: bool) -> None:
        self._set_flag(FLAG_AA, value)

    @property
    def truncated(self) -> bool:
        return self._flag(FLAG_TC)

    @truncated.setter
    def truncated(self, value: bool) -> None:
        self._set_flag(FLAG_TC, value)

    @property
    def recursion_desired(self) -> bool:
        return self._flag(FLAG_RD)

    @recursion_desired.setter
    def recursion_desired(self, value: bool) -> None:
        self._set_flag(FLAG_RD, value)

    @property
    def recursion_available(self) -> bool:
        return self._flag(FLAG_RA)

    @recursion_available.setter
    def recursion_available(self, value: bool) -> None:
        self._set_flag(FLAG_RA, value)

    @property
    def authenticated_data(self) -> bool:
        return self._flag(FLAG_AD)

    @authenticated_data.setter
    def authenticated_data(self, value: bool) -> None:
        self._set_flag(FLAG_AD, value)

    @property
    def checking_disabled(self) -> bool:
        return self._flag(FLAG_CD)

    @checking_disabled.setter
    def checking_disabled(self, value: bool) -> None:
        self._set_flag(FLAG_CD, value)

    @property
    def dnssec_ok(self) -> bool:
        """The EDNS DO bit: the querier wants DNSSEC records."""
        return self.edns and bool(self.edns_flags & EDNS_FLAG_DO)

    @dnssec_ok.setter
    def dnssec_ok(self, value: bool) -> None:
        if value:
            self.edns = True
            self.edns_flags |= EDNS_FLAG_DO
        else:
            self.edns_flags &= ~EDNS_FLAG_DO

    # -- section helpers -------------------------------------------------------

    def find_rrsets(
        self, section: Sequence[RRset], name: Name, rrtype: RRType
    ) -> List[RRset]:
        return [
            rrset
            for rrset in section
            if rrset.name == name and int(rrset.rrtype) == int(rrtype)
        ]

    def get_rrset(self, section: Sequence[RRset], name: Name, rrtype: RRType) -> Optional[RRset]:
        found = self.find_rrsets(section, name, rrtype)
        return found[0] if found else None

    # -- codec -------------------------------------------------------------------

    def to_wire(self, max_size: Optional[int] = None) -> bytes:
        """Encode; if *max_size* is given and exceeded, re-encode with the
        answer sections dropped and TC set (UDP truncation semantics)."""
        wire = self._encode()
        if max_size is not None and len(wire) > max_size:
            truncated = Message(self.id, self.flags, self.question)
            truncated.opcode = self.opcode
            truncated.rcode = self.rcode
            truncated.truncated = True
            truncated.edns = self.edns
            truncated.edns_flags = self.edns_flags
            truncated.edns_payload = self.edns_payload
            wire = truncated._encode()
        return wire

    def _encode(self) -> bytes:
        buf = borrow_buffer()
        try:
            return self._encode_into(WireWriter(compress=True, buffer=buf))
        finally:
            return_buffer(buf)

    def _encode_into(self, writer: WireWriter) -> bytes:
        flags = self.flags & ~0x7800 & ~0x000F
        flags |= (int(self.opcode) & 0xF) << 11
        flags |= int(self.rcode) & 0xF
        answer_rrs = sum(map(len, self.answer))
        authority_rrs = sum(map(len, self.authority))
        additional_rrs = sum(map(len, self.additional)) + (1 if self.edns else 0)
        writer.write_bytes(_HEADER.pack(
            self.id, flags, 1 if self.question else 0, answer_rrs, authority_rrs, additional_rrs
        ))  # fmt: skip
        question = self.question
        if question:
            writer.write_name(question.name)
            writer.write_bytes(_TYPE_CLASS.pack(int(question.rrtype), int(question.rclass)))
        for section in (self.answer, self.authority, self.additional):
            for rrset in section:
                self._encode_rrset(writer, rrset)
        if self.edns:
            self._encode_opt(writer)
        return writer.getvalue()

    def _encode_rrset(self, writer: WireWriter, rrset: RRset) -> None:
        # One type/class/TTL header per RRset; each rdata is spliced in
        # from its memoised standalone wire form.  The encoder never
        # compresses inside rdata, so only the owner name is compressed.
        header = _TYPE_CLASS_TTL.pack(int(rrset.rrtype), int(rrset.rclass), rrset.ttl)
        for rdata in rrset:
            writer.write_name(rrset.name)
            writer.write_bytes(header)
            writer.splice_rdata(rdata.to_wire(), rdata.wire_names())

    def _encode_opt(self, writer: WireWriter) -> None:
        ttl = ((self.rcode >> 4) << 24) | (self.edns_version << 16) | self.edns_flags
        # Root owner name, then an empty rdata.
        writer.write_bytes(b"\x00" + _RR_FIXED.pack(int(RRType.OPT), self.edns_payload, ttl, 0))

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        reader = WireReader(data)
        msg = cls()
        msg.id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack(reader.read_bytes(12))
        msg.flags = flags & ~0x7800 & ~0x000F
        msg.opcode = Opcode.make((flags >> 11) & 0xF)
        rcode_low = flags & 0xF
        if qdcount > 1:
            raise WireError(f"unsupported qdcount: {qdcount}")
        if qdcount:
            qname = reader.read_name()
            qtype, qclass = _TYPE_CLASS.unpack(reader.read_bytes(4))
            msg.question = Question(qname, qtype, RClass.make(qclass))
        msg.answer = cls._read_section(reader, ancount, msg)
        msg.authority = cls._read_section(reader, nscount, msg)
        msg.additional = cls._read_section(reader, arcount, msg)
        msg.rcode = Rcode.make((0 if not msg.edns else (msg._ext_rcode_high << 4)) | rcode_low)
        return msg

    _ext_rcode_high = 0

    @classmethod
    def _read_section(cls, reader: WireReader, count: int, msg: "Message") -> List[RRset]:
        rrsets: List[RRset] = []
        # (name, type, class) → RRset: same-first-appearance order as the
        # old linear scan, but O(1) grouping for multi-record sections.
        index: dict = {}
        opt_value = int(RRType.OPT)
        for _ in range(count):
            name = reader.read_name()
            rtype_raw, rclass_raw, ttl, rdlength = _RR_FIXED.unpack(reader.read_bytes(10))
            if rtype_raw == opt_value:
                msg.edns = True
                msg.edns_payload = rclass_raw
                msg._ext_rcode_high = (ttl >> 24) & 0xFF
                msg.edns_version = (ttl >> 16) & 0xFF
                msg.edns_flags = ttl & 0xFFFF
                reader.read_bytes(rdlength)
                continue
            start = reader.position
            chunk = reader.read_bytes(rdlength)  # all rdlength octets, or WireError
            rdata = _RDATA_MEMO.get((rtype_raw, chunk))
            if rdata is None:
                reader.seek(start)
                rdata = read_rdata(RRType.make(rtype_raw), reader, rdlength)
                # Only rdata that re-encodes to exactly these bytes may
                # stand for them: no compression pointers, no normalising.
                wire = rdata.to_wire()
                if wire == chunk:
                    _RDATA_MEMO.put((rtype_raw, wire), rdata)
            key = (name, rtype_raw, rclass_raw)
            rrset = index.get(key)
            if rrset is not None:
                rrset.add(rdata)
                rrset.ttl = min(rrset.ttl, ttl)
            else:
                rclass = RClass.IN if rclass_raw == 1 else RClass.make(rclass_raw)
                rrset = RRset(name, rtype_raw, ttl, [rdata], rclass)
                index[key] = rrset
                rrsets.append(rrset)
        return rrsets

    def with_id(self, msg_id: int) -> "Message":
        """A view of this message under another id.  Everything else —
        the section lists and their RRsets — is shared with the
        original, so neither may be mutated."""
        view = Message.__new__(Message)
        view.__dict__.update(self.__dict__)
        view.id = msg_id
        return view

    def __repr__(self) -> str:
        q = f" {self.question.name} {self.question.rrtype.name}" if self.question else ""
        return (
            f"<Message id={self.id} {'resp' if self.is_response else 'query'}"
            f" rcode={self.rcode.name}{q} an={len(self.answer)}"
            f" au={len(self.authority)} ad={len(self.additional)}>"
        )


def decode_received(wire: bytes) -> Message:
    """Decode *wire*, a query or response that was received, once per
    process: a repeat of the same bytes (less the message id) is a view
    of the Message decoded the first time, under the id *wire* carries.
    Received messages are therefore shared between every receiver —
    every server and asker of every world — and must not be mutated.
    Bytes that do not decode raise :class:`WireError` and are not
    remembered."""
    key = wire[2:]
    msg = _RECEIVED.get(key)
    if msg is not None:
        return msg.with_id((wire[0] << 8) | wire[1])
    return _RECEIVED.put(key, Message.from_wire(wire))


def received_before(wire: bytes) -> bool:
    """Whether :func:`decode_received` would answer *wire* without a parse."""
    return wire[2:] in _RECEIVED


def make_query(
    name: Name | str,
    rrtype: RRType,
    msg_id: int = 0,
    dnssec_ok: bool = True,
    recursion_desired: bool = False,
) -> Message:
    """Build a standard query, EDNS-enabled with the DO bit by default
    (the scanner always wants RRSIGs back)."""
    msg = Message(msg_id=msg_id, question=Question(name, rrtype))
    msg.recursion_desired = recursion_desired
    msg.edns = True
    msg.dnssec_ok = dnssec_ok
    return msg


def make_response(query: Message, rcode: Rcode = Rcode.NOERROR) -> Message:
    """Start a response mirroring the query's id/question/EDNS state."""
    msg = Message(msg_id=query.id, question=query.question)
    msg.is_response = True
    msg.opcode = query.opcode
    msg.rcode = rcode
    msg.recursion_desired = query.recursion_desired
    if query.edns:
        msg.edns = True
        msg.edns_flags = query.edns_flags & EDNS_FLAG_DO
    return msg
