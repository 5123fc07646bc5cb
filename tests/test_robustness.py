"""Robustness tests: fuzzing the server with arbitrary queries, packet
loss during scans, and malformed-wire resilience."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, RetryPolicy
from repro.dns.message import Message, make_query
from repro.dns.name import Name
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
            pass  # rejecting malformed input is the correct outcome
        except ValueError:
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
