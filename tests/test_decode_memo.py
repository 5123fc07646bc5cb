"""Decode once, encode once.

The client epilogue (:meth:`SimulatedNetwork.inbound`, shared by the
fabric and the socket transport) memoises decoded responses on the
received bytes, and :meth:`Message.from_wire` memoises each decoded
rdata on its ``(type, bytes)``.  Decoded messages and rdata are
therefore *shared* between askers; these tests pin what that sharing
may and may not change.  The encoder splices each rdata's memoised wire
form; it must write the bytes the per-field encoder wrote.
"""

import pytest

import repro.dns.message as message_module
import repro.server.network as network_module
from repro.campaign import CampaignConfig, run_campaign
from repro.dns.message import Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import A, NS, SOA, read_rdata
from repro.dns.types import RRType
from repro.dns.wire import WireError, WireReader, WireWriter
from repro.dns.zone import Zone
from repro.server import AuthoritativeServer
from repro.server.network import DECODE_MEMO_MAX, SimulatedNetwork

from tests.helpers import OP_IP_1, ROOT_IP, build_mini_world

SCALE = 5e-7
SEED = 3
#: `queries_sent` of the seed-3 campaign before any response was shared
#: (the figure `tests/test_obs.py` renders as "7 121").
QUERIES_SENT = 7121


def section_rows(section):
    """A section as plain, order-sensitive rows."""
    return [
        (rrset.name, int(rrset.rrtype), int(rrset.rclass), rrset.ttl, rrset.rdatas)
        for rrset in section
    ]


def assert_same_message(ours: Message, fresh: Message) -> None:
    for field in ("flags", "opcode", "rcode", "question", "edns", "edns_payload",
                  "edns_flags", "edns_version"):  # fmt: skip
        assert getattr(ours, field) == getattr(fresh, field), field
    for section in ("answer", "authority", "additional"):
        assert section_rows(getattr(ours, section)) == section_rows(getattr(fresh, section))


def reference_wire(msg: Message) -> bytes:
    """The encoder before rdata were spliced: every field of every
    record written in turn, each rdata through its ``write_rdata``."""
    writer = WireWriter(compress=True)
    flags = msg.flags & ~0x7800 & ~0x000F
    flags |= ((int(msg.opcode) & 0xF) << 11) | (int(msg.rcode) & 0xF)
    sections = (msg.answer, msg.authority, msg.additional)
    counts = [sum(len(rrset) for rrset in section) for section in sections]
    for value in (msg.id, flags, 1 if msg.question else 0, *counts[:2], counts[2] + msg.edns):
        writer.write_u16(value)
    if msg.question:
        writer.write_name(msg.question.name)
        writer.write_u16(int(msg.question.rrtype))
        writer.write_u16(int(msg.question.rclass))
    for section in sections:
        for rrset in section:
            for rdata in rrset:
                writer.write_name(rrset.name)
                writer.write_u16(int(rrset.rrtype))
                writer.write_u16(int(rrset.rclass))
                writer.write_u32(rrset.ttl)
                at = len(writer)
                writer.write_u16(0)
                rdata.write_rdata(writer)
                writer.write_at_u16(at, len(writer) - at - 2)
    if msg.edns:
        writer.write_u8(0)
        writer.write_u16(int(RRType.OPT))
        writer.write_u16(msg.edns_payload)
        writer.write_u32(((msg.rcode >> 4) << 24) | (msg.edns_version << 16) | msg.edns_flags)
        writer.write_u16(0)
    return writer.getvalue()


@pytest.fixture(scope="module")
def recorded():
    """One seed-3 campaign with the memo unbounded, so that *every*
    distinct response it decoded is still there to be checked, and
    every response message its servers built."""
    built = []
    handle_query = AuthoritativeServer.handle_query

    def recording(server, query):
        built.append(handle_query(server, query))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "DECODE_MEMO_MAX", 1 << 30)
        patch.setattr(AuthoritativeServer, "handle_query", recording)
        return run_campaign(CampaignConfig(scale=SCALE, seed=SEED)), built


@pytest.fixture(scope="module")
def campaign(recorded):
    return recorded[0]


class TestSharedMessagesStayAsDecoded:
    def test_every_cached_message_equals_a_fresh_decode(self, campaign):
        # Nobody who was handed a shared Message (or a view of one)
        # appended to a section, re-ordered it or mutated an RRset.
        decoded = campaign.world.network._decoded
        assert len(decoded) > 1000
        for key, cached in decoded.items():
            assert_same_message(cached, Message.from_wire(b"\x00\x00" + key))

    def test_every_answer_encodes_as_the_reference_encoder_did(self, recorded):
        campaign, built = recorded
        # A repeat is served from the zone's answer memo, not rebuilt:
        # the corpus is every distinct response (3 704 at seed 3, the
        # same set the servers built before the memo shared answers).
        assert len({response.to_wire()[2:] for response in built}) > 3600
        for response in built:
            assert response.to_wire() == reference_wire(response)
        # Decoded responses hold memoised rdata: their wire form is the
        # bytes they were admitted with.
        for cached in campaign.world.network._decoded.values():
            assert cached.to_wire() == reference_wire(cached)

    def test_every_memoised_rdata_is_still_what_its_bytes_say(self, campaign):
        memo = message_module._RDATA_MEMO
        assert memo
        for (rtype, wire), rdata in memo.items():
            assert rdata.to_wire() is wire
            assert read_rdata(RRType.make(rtype), WireReader(wire), len(wire)) == rdata

    def test_the_campaign_asked_what_it_always_asked(self, campaign):
        network = campaign.world.network
        assert network.queries_sent == QUERIES_SENT
        assert network.decode_hits + len(network._decoded) == (
            network.queries_sent - network.timeouts
        )

    def test_hit_ratio_at_the_shipped_bound(self):
        # Reuse is temporally local: the small bound keeps most of it.
        network = run_campaign(CampaignConfig(scale=SCALE, seed=SEED)).world.network
        assert network.queries_sent == QUERIES_SENT
        assert network.decode_hits / network.queries_sent >= 0.40
        assert len(network._decoded) <= DECODE_MEMO_MAX


class TestInbound:
    def test_hit_and_miss_both_carry_the_id_on_the_wire(self):
        world = build_mini_world()
        network = world["network"]
        first = network.query(OP_IP_1, make_query("example.com", RRType.SOA, msg_id=0x1234))
        assert (first.id, network.decode_hits) == (0x1234, 0)
        second = network.query(OP_IP_1, make_query("example.com", RRType.SOA, msg_id=0xBEEF))
        assert (second.id, network.decode_hits) == (0xBEEF, 1)
        # A view: the first asker's message kept its id, the content is shared.
        assert first.id == 0x1234
        assert second is not first and second.answer is first.answer
        assert_same_message(second, first)

    def test_bytes_and_truncations_are_counted_per_response(self):
        network = SimulatedNetwork()
        response = make_response(make_query("big.example", RRType.TXT, msg_id=7))
        response.truncated = True
        wire = response.to_wire()
        for msg_id in (7, 8, 9):
            reply = network.inbound(msg_id.to_bytes(2, "big") + wire[2:])
            assert reply.truncated and reply.id == msg_id
        assert network.decode_hits == 2
        assert network.truncations == 3
        assert network.bytes_received == 3 * len(wire)

    def test_the_memo_is_bounded_and_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(network_module, "DECODE_MEMO_MAX", 4)
        network = SimulatedNetwork()
        for index in range(10):
            query = make_query(f"n{index}.example", RRType.A, msg_id=index)
            network.inbound(make_response(query).to_wire())
            assert len(network._decoded) <= 4
        assert network.decode_hits == 0

    def test_undecodable_bytes_are_not_remembered(self):
        network = SimulatedNetwork()
        for _ in range(2):
            with pytest.raises(WireError):
                network.inbound(b"\x00\x01\x80")
        assert not network._decoded and network.decode_hits == 0

    def test_root_referral_reads_the_same_through_a_view(self):
        # The referral path reads all three sections (NS cut, DS, glue).
        network = build_mini_world()["network"]
        query = make_query("example.com", RRType.A)
        first = network.query(ROOT_IP, query)
        second = network.query(ROOT_IP, query)
        assert network.decode_hits == 1
        assert section_rows(second.authority) == section_rows(first.authority)
        assert section_rows(second.additional) == section_rows(first.additional)
        assert second.additional


class TestCompiledAnswers:
    def test_a_tcp_referral_past_the_pointer_limit(self):
        # 600 in-bailiwick NS and their glue: the glue owners compress
        # against NS targets spliced below offset 0x4000 and are written
        # whole past it, where no pointer can reach.
        zone = Zone("example")
        zone.add("example", 300, SOA("ns.example", "h.example", 1))
        zone.add("example", 300, NS("ns.example"))
        for index in range(600):
            host = f"ns{index}.big.example"
            zone.add("big.example", 300, NS(host))
            zone.add(host, 300, A(f"10.0.{index >> 8}.{index & 0xFF}"))
        server = AuthoritativeServer()
        server.add_zone(zone)
        query = make_query("www.big.example", RRType.A, msg_id=9, dnssec_ok=False)
        wire = server.answer_wire(query.to_wire(), tcp=True)
        assert len(wire) > 0x4000
        reply = Message.from_wire(wire)
        assert len(reply.additional) == 600
        assert reference_wire(reply) == reply.to_wire() == wire

    @pytest.mark.parametrize("base", range(0x3FFA, 0x4002))
    def test_a_splice_registers_what_writing_the_name_did(self, base):
        # A name spliced across offset 0x4000 registers only the
        # suffixes a pointer can reach; a later name shows which.
        target, probe = Name.from_text("a.host.example"), Name.from_text("b.host.example")
        spliced, written = WireWriter(), WireWriter()
        for writer in (spliced, written):
            writer.write_bytes(bytes(base - 2))
        spliced.splice_rdata(target.to_wire(), ((0, target),))
        written.write_u16(target.wire_length)
        written.write_name(target, compress=False)
        for writer in (spliced, written):
            writer.write_name(probe)
        assert spliced.getvalue() == written.getvalue()


def _response(qname: str, rtype: int, rdata: bytes, rdlength=None) -> bytes:
    """One-answer response wire: the question, then a record owned by it
    (a pointer to offset 12) carrying *rdata* raw."""
    header = bytes.fromhex("0000 8400 0001 0001 0000 0000")
    question = Name.from_text(qname).to_wire() + rtype.to_bytes(2, "big") + b"\x00\x01"
    length = len(rdata) if rdlength is None else rdlength
    record = b"\xc0\x0c" + rtype.to_bytes(2, "big") + b"\x00\x01" + (300).to_bytes(4, "big")
    return header + question + record + length.to_bytes(2, "big") + rdata


class TestHostileBytesAgainstTheRdataMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(message_module, "_RDATA_MEMO", {})

    @pytest.mark.parametrize("rtype, fixed, signature, field", [
        (int(RRType.NS), b"", b"", "target"),
        (int(RRType.RRSIG), bytes(18), b"\x01", "signer_name"),
    ], ids=["NS", "RRSIG"])  # fmt: skip
    def test_a_compressed_name_is_never_taken_from_the_memo(self, rtype, fixed, signature, field):
        # Same rdata bytes (a pointer to the qname), different targets.
        rdata = fixed + b"\xc0\x0c" + signature
        names = [
            getattr(Message.from_wire(_response(qname, rtype, rdata)).answer[0].rdatas[0], field)
            for qname in ("a.example", "b.example")
        ]
        assert names == [Name.from_text("a.example"), Name.from_text("b.example")]
        assert not message_module._RDATA_MEMO

    def test_a_short_tail_equal_to_a_memoised_rdata_is_still_truncated(self):
        txt = int(RRType.TXT)
        Message.from_wire(_response("t.example", txt, b"\x03abc"))
        assert (txt, b"\x03abc") in message_module._RDATA_MEMO
        with pytest.raises(WireError):
            Message.from_wire(_response("t.example", txt, b"\x03abc", rdlength=10))

    def test_a_malformed_rdata_raises_every_time_and_is_not_remembered(self):
        for _ in range(3):
            with pytest.raises(WireError):
                Message.from_wire(_response("a.example", int(RRType.A), b"\x0a\x00\x00\x01\x02"))
        assert not message_module._RDATA_MEMO

    def test_the_memo_is_bounded_and_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(message_module, "RDATA_MEMO_MAX", 4)
        sizes = []
        for index in range(6):
            rdata = bytes((10, 0, 0, index))
            reply = Message.from_wire(_response("a.example", int(RRType.A), rdata))
            assert reply.answer[0].rdatas[0] == A(f"10.0.0.{index}")
            sizes.append(len(message_module._RDATA_MEMO))
        assert sizes == [1, 2, 3, 4, 1, 2]
