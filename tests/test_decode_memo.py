"""Decode once.

The client epilogue (:meth:`SimulatedNetwork.inbound`, shared by the
fabric and the socket transport) memoises decoded responses on the
received bytes.  Decoded messages are therefore *shared* between
askers; these tests pin what that sharing may and may not change.
"""

import pytest

import repro.server.network as network_module
from repro.campaign import CampaignConfig, run_campaign
from repro.dns.message import Message, make_query, make_response
from repro.dns.types import RRType
from repro.dns.wire import WireError
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


@pytest.fixture(scope="module")
def campaign():
    """One seed-3 campaign with the memo unbounded, so that *every*
    distinct response it decoded is still there to be checked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "DECODE_MEMO_MAX", 1 << 30)
        return run_campaign(CampaignConfig(scale=SCALE, seed=SEED))


class TestSharedMessagesStayAsDecoded:
    def test_every_cached_message_equals_a_fresh_decode(self, campaign):
        # Nobody who was handed a shared Message (or a view of one)
        # appended to a section, re-ordered it or mutated an RRset.
        decoded = campaign.world.network._decoded
        assert len(decoded) > 1000
        for key, cached in decoded.items():
            assert_same_message(cached, Message.from_wire(b"\x00\x00" + key))

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
