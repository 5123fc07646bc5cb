"""Tests for the CSYNC (RFC 7477) rdata type."""

from repro.dns.rdata import CSYNC, read_rdata
from repro.dns.types import RRType
from repro.dns.wire import WireReader


class TestCsyncRdata:
    def test_wire_round_trip(self):
        rdata = CSYNC(2025070600, CSYNC.FLAG_IMMEDIATE, [RRType.NS, RRType.A])
        wire = rdata.to_wire()
        back = read_rdata(RRType.CSYNC, WireReader(wire), len(wire))
        assert back == rdata
        assert back.immediate and not back.soa_minimum

    def test_flags(self):
        rdata = CSYNC(1, CSYNC.FLAG_SOAMINIMUM, [RRType.NS])
        assert rdata.soa_minimum and not rdata.immediate

    def test_text(self):
        assert CSYNC(7, 3, [RRType.NS]).to_text() == "7 3 NS"

    def test_types_sorted(self):
        rdata = CSYNC(1, 0, [RRType.AAAA, RRType.NS, RRType.A])
        assert rdata.types == (RRType.A, RRType.NS, RRType.AAAA)

