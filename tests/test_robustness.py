"""Robustness tests: fuzzing the server with arbitrary queries, packet
loss during scans, and malformed-wire resilience."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, RetryPolicy
from repro.dns.message import Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import TXT
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.dns.wire import WireError
from repro.scanner import Scanner
from repro.scanner.yodns import ScannerConfig
from repro.server.network import NetworkTimeout

from tests.helpers import OP_IP_1, ROOT_IP, build_mini_world

LABEL_CHARS = string.ascii_lowercase + string.digits + "-_"
labels = st.text(LABEL_CHARS, min_size=1, max_size=20).map(str.encode)
names = st.lists(labels, min_size=0, max_size=5).map(Name)
qtypes = st.sampled_from(
    [RRType.A, RRType.AAAA, RRType.NS, RRType.SOA, RRType.CDS, RRType.CDNSKEY,
     RRType.DNSKEY, RRType.DS, RRType.TXT, RRType.CNAME, RRType.make(65280)]
)


@pytest.fixture(scope="module")
def world():
    return build_mini_world()


@pytest.fixture(scope="module")
def responses(world) -> list:
    """Referral with glue, NXDOMAIN proof, DNSKEY/CDS answers, NODATA."""
    return [
        world["network"].server_at(ip).answer_wire(make_query(name, qtype).to_wire(), tcp=True)
        for ip, name, qtype in (
            (ROOT_IP, "example.com", RRType.A),
            (OP_IP_1, "nope.example.com", RRType.A),
            (OP_IP_1, "example.com", RRType.DNSKEY),
            (OP_IP_1, "island.com", RRType.CDS),
            (OP_IP_1, "example.com", RRType.TXT),
        )
    ]


class TestAuthoritySectionFaults:
    """The client memoises whatever `from_wire` accepts and hands it to
    every later asker, so a fault anywhere in a response — also in a
    section the first asker never reads — must be refused there."""

    @pytest.fixture(scope="class")
    def nxdomain(self, responses):
        """``(wire, offset of the first authority record)``; that record
        is the SOA, its owner a compression pointer."""
        wire = responses[1]
        message = Message.from_wire(wire)
        assert message.rcode == Rcode.NXDOMAIN and not message.answer
        start = 12
        while wire[start]:
            start += 1 + wire[start]
        start += 5  # root label, qtype, qclass
        assert wire[start] & 0xC0 == 0xC0
        assert wire[start + 2 : start + 4] == int(RRType.SOA).to_bytes(2, "big")
        return wire, start

    def test_truncated_rr_header(self, nxdomain):
        wire, start = nxdomain
        for keep in (start + 1, start + 2, start + 2 + 9):
            with pytest.raises(WireError):
                Message.from_wire(wire[:keep])

    def test_rdlength_overrun(self, nxdomain):
        wire, start = nxdomain
        damaged = bytearray(wire)
        damaged[start + 10 : start + 12] = b"\xff\xff"
        with pytest.raises(WireError):
            Message.from_wire(bytes(damaged))

    def test_count_beyond_the_buffer(self, nxdomain):
        wire, _ = nxdomain
        damaged = bytearray(wire)
        damaged[8:10] = b"\x00\xff"  # nscount
        with pytest.raises(WireError):
            Message.from_wire(bytes(damaged))

    def test_bad_rdata_behind_sound_framing(self, nxdomain):
        wire, start = nxdomain
        damaged = bytearray(wire)
        # One octet less of SOA rdata, rdlength adjusted to match: every
        # record still starts where the previous one ends.
        rdlength = int.from_bytes(damaged[start + 10 : start + 12], "big")
        damaged[start + 10 : start + 12] = (rdlength - 1).to_bytes(2, "big")
        del damaged[start + 12 + rdlength - 1]
        with pytest.raises(WireError):
            Message.from_wire(bytes(damaged))

    def test_empty_txt_rdata_is_a_wire_error(self):
        response = make_response(make_query("t.example", RRType.TXT))
        response.authority.append(RRset("t.example", RRType.TXT, 60, [TXT(["x"])]))
        wire = bytearray(response.to_wire())
        at = wire.index(b"\x00\x02\x01x")  # rdlength 2, one 1-octet string
        wire[at : at + 4] = b"\x00\x00"
        with pytest.raises(WireError, match="TXT"):
            Message.from_wire(bytes(wire))


class TestQueryFuzzing:
    @given(name=names, qtype=qtypes, msg_id=st.integers(0, 0xFFFF), do=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_server_never_crashes_and_responses_decode(self, world, name, qtype, msg_id, do):
        query = make_query(name, qtype, msg_id=msg_id, dnssec_ok=do)
        for ip in (ROOT_IP, OP_IP_1):
            response = world["network"].query(ip, query)
            # Whatever happens, the wire round trip succeeded (the fabric
            # decodes the response) and basic invariants hold:
            assert response.id == msg_id
            assert response.is_response
            assert isinstance(response.rcode, Rcode)
            # An authoritative positive answer always carries the qname.
            for rrset in response.answer:
                assert rrset.name.is_subdomain_of(Name.root())

    @given(data=st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_crash_decoder(self, data):
        try:
            Message.from_wire(data)
        except WireError:
            pass  # the only way to say no; any other exception is a bug

    @given(
        which=st.integers(0, 4),
        edits=st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 255)), min_size=1, max_size=3),
        cut=st.one_of(st.none(), st.integers(0, 4095)),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_responses_raise_only_wire_error(self, responses, which, edits, cut):
        # Random bytes rarely get past the header; damaged *valid*
        # responses reach the section and rdata decoders.
        wire = bytearray(responses[which])
        for position, value in edits:
            wire[position % len(wire)] = value
        if cut is not None:
            del wire[cut % len(wire) :]
        try:
            Message.from_wire(bytes(wire))
        except WireError:
            pass

    @given(name=names, qtype=qtypes)
    @settings(max_examples=60, deadline=None)
    def test_scanner_classification_total(self, world, name, qtype):
        # query_one must always return a classified result, never raise.
        scanner = Scanner(world["network"], world["root_ips"])
        result = scanner.query_one(OP_IP_1, name, qtype)
        assert result.status is not None


class TestPacketLoss:
    """Packet loss via the chaos plane."""

    def test_scan_survives_moderate_loss(self):
        world = build_mini_world()
        network = world["network"]
        plane = network.install_chaos(ChaosConfig(loss=0.15, seed=3))
        scanner = Scanner(
            network,
            world["root_ips"],
            ScannerConfig(retry_policy=RetryPolicy.default()),
        )
        result = scanner.scan_zone("example.com")
        # Retries absorb moderate loss for the key fields.
        assert result.resolved
        assert result.dnskey is not None
        assert plane.faults.get("loss", 0) > 0

    def test_total_loss_yields_clean_failure(self):
        world = build_mini_world()
        # max_consecutive=0 lifts the fairness bound: *every* packet is
        # lost, so the scan must fail cleanly, not hang or crash.
        world["network"].install_chaos(ChaosConfig(loss=1.0, max_consecutive=0))
        scanner = Scanner(world["network"], world["root_ips"])
        result = scanner.scan_zone("example.com")
        assert not result.resolved
        assert result.error

    def test_network_timeout_accounting(self):
        world = build_mini_world()
        network = world["network"]
        network.install_chaos(ChaosConfig(loss=1.0, max_consecutive=0))
        with pytest.raises(NetworkTimeout):
            network.query(OP_IP_1, make_query("example.com", RRType.A))
        assert network.timeouts == 1


class TestAmplification:
    def test_response_sizes_bounded_by_edns(self, world):
        # No UDP response may exceed the client's advertised buffer.
        for qname, qtype in [
            ("example.com", RRType.DNSKEY),
            ("example.com", RRType.NS),
            ("island.com", RRType.CDS),
        ]:
            query = make_query(qname, qtype, msg_id=5)
            response = world["network"].query(OP_IP_1, query)
            assert len(response.to_wire()) <= query.edns_payload or response.truncated
