"""Unit tests for typed rdata codecs."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import (
    A,
    AAAA,
    CDNSKEY,
    CDS,
    CNAME,
    DNSKEY,
    DS,
    GenericRdata,
    MX,
    NS,
    NSEC,
    NSEC3,
    NSEC3PARAM,
    RRSIG,
    SOA,
    TXT,
    read_rdata,
)
from repro.dns.types import RRType
from repro.dns.wire import WireError, WireReader


def round_trip(rdata):
    wire = rdata.to_wire()
    reader = WireReader(wire)
    decoded = read_rdata(RRType.make(int(rdata.rrtype)), reader, len(wire))
    assert decoded == rdata
    return decoded


class TestAddressRecords:
    def test_a_round_trip(self):
        assert round_trip(A("192.0.2.55")).address == "192.0.2.55"

    def test_a_bad_length(self):
        with pytest.raises(WireError):
            read_rdata(RRType.A, WireReader(b"\x01\x02\x03"), 3)

    def test_aaaa_round_trip(self):
        assert round_trip(AAAA("2001:db8::1")).address == "2001:db8::1"

    def test_a_text(self):
        assert A("198.51.100.1").to_text() == "198.51.100.1"

    def test_wire_decoded_addresses_re_encode_the_same_octets(self):
        for rdata, octets in (
            (A("10.1.2.3"), bytes([10, 1, 2, 3])),
            (AAAA("fd00::1f"), bytes([0xFD] + [0] * 14 + [0x1F])),
        ):
            decoded = round_trip(rdata)
            assert decoded.to_wire() == rdata.to_wire() == octets
            assert decoded.to_text() == rdata.to_text()
            assert hash(decoded) == hash(rdata)

    def test_text_addresses_are_validated_and_normalised(self):
        for bad in (lambda: A("300.1.1.1"), lambda: A("fd00::1"), lambda: AAAA("10.0.0.1")):
            with pytest.raises(ValueError):
                bad()
        assert AAAA("FD00:0:0::1F").address == "fd00::1f"

    def test_aaaa_bad_length(self):
        with pytest.raises(WireError):
            read_rdata(RRType.AAAA, WireReader(b"\x00" * 4), 4)


class TestNameRecords:
    def test_ns(self):
        ns = round_trip(NS("ns1.desec.io"))
        assert ns.target == Name.from_text("ns1.desec.io")

    def test_cname(self):
        assert round_trip(CNAME("target.example.org")).target == Name.from_text(
            "target.example.org"
        )

    def test_canonical_lowercases_target(self):
        assert NS("NS1.Example.COM").to_canonical_wire() == NS("ns1.example.com").to_wire()

    def test_soa_round_trip(self):
        soa = round_trip(SOA("ns1.example.com", "hostmaster.example.com", 2024010101))
        assert soa.serial == 2024010101
        assert soa.minimum == 3600

    def test_mx(self):
        mx = round_trip(MX(10, "mail.example.com"))
        assert mx.preference == 10


class TestTXT:
    def test_round_trip(self):
        txt = round_trip(TXT(["hello", "world"]))
        assert txt.strings == (b"hello", b"world")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TXT([])

    def test_oversize_string_rejected(self):
        with pytest.raises(ValueError):
            TXT(["x" * 256])

    def test_text_rendering(self):
        assert TXT(["a b"]).to_text() == '"a b"'


class TestDNSKEY:
    def test_round_trip(self):
        key = round_trip(DNSKEY(257, 3, 15, b"\x01" * 32))
        assert key.is_sep and key.is_zone_key

    def test_key_tag_known_vector(self):
        # Key tag algorithm sanity: stable across calls and sensitive to content.
        key1 = DNSKEY(256, 3, 15, b"\x01" * 32)
        key2 = DNSKEY(256, 3, 15, b"\x02" * 32)
        assert key1.key_tag() == key1.key_tag()
        assert key1.key_tag() != key2.key_tag()
        assert 0 <= key1.key_tag() <= 0xFFFF

    def test_cdnskey_delete_flag(self):
        sentinel = CDNSKEY(0, 3, 0, b"\x00")
        assert sentinel.is_delete
        assert not CDNSKEY(257, 3, 15, b"\x01" * 32).is_delete

    def test_too_short(self):
        with pytest.raises(WireError):
            read_rdata(RRType.DNSKEY, WireReader(b"\x01\x02"), 2)


class TestDS:
    def test_round_trip(self):
        ds = round_trip(DS(12345, 15, 2, bytes(range(32))))
        assert ds.key_tag == 12345

    def test_cds_delete_sentinel(self):
        assert CDS(0, 0, 0, b"\x00").is_delete
        assert CDS(0, 0, 0, b"").is_delete
        assert not CDS(1, 0, 0, b"\x00").is_delete
        assert not CDS(0, 0, 0, b"\x01").is_delete

    def test_text(self):
        assert CDS(0, 0, 0, b"\x00").to_text() == "0 0 0 00"


class TestRRSIG:
    def make(self):
        return RRSIG(
            RRType.A,
            15,
            2,
            300,
            1_700_600_000,
            1_700_000_000,
            4242,
            "example.com",
            b"\xde\xad" * 32,
        )

    def test_round_trip(self):
        sig = round_trip(self.make())
        assert sig.type_covered == RRType.A
        assert sig.key_tag == 4242
        assert sig.signer_name == Name.from_text("example.com")

    def test_rdata_to_sign_excludes_signature(self):
        sig = self.make()
        prefix = sig.rdata_to_sign()
        assert not prefix.endswith(sig.signature)
        assert sig.to_wire() == prefix + sig.signature


class TestNSEC:
    def test_round_trip(self):
        nsec = round_trip(
            NSEC("next.example.com", [RRType.A, RRType.RRSIG, RRType.NSEC, RRType.CAA])
        )
        assert RRType.CAA in nsec.types

    def test_types_sorted_and_deduped(self):
        nsec = NSEC("x.example", [RRType.NSEC, RRType.A, RRType.A])
        assert nsec.types == (RRType.A, RRType.NSEC)

    def test_high_window_types(self):
        nsec = round_trip(NSEC("x.example", [RRType.CAA]))  # type 257 → window 1
        assert nsec.types == (RRType.CAA,)


class TestNSEC3:
    def test_round_trip(self):
        nsec3 = round_trip(
            NSEC3(1, 1, 10, b"\xab\xcd", b"\x11" * 20, [RRType.A, RRType.NS])
        )
        assert nsec3.opt_out
        assert nsec3.iterations == 10

    def test_param_round_trip(self):
        param = round_trip(NSEC3PARAM(1, 0, 0, b""))
        assert param.salt == b""


class TestGeneric:
    def test_unknown_type_round_trip(self):
        blob = b"\x00\x01\x02\x03"
        reader = WireReader(blob)
        rdata = read_rdata(RRType.make(65280), reader, len(blob))
        assert isinstance(rdata, GenericRdata)
        assert rdata.data == blob
        assert rdata.to_wire() == blob

    def test_rfc3597_text(self):
        rdata = GenericRdata(RRType.make(65280), b"\xab\xcd")
        assert rdata.to_text() == "\\# 2 abcd"

    def test_length_mismatch_detected(self):
        # SOA rdata truncated relative to declared rdlength.
        soa = SOA("a.example", "b.example", 1)
        wire = soa.to_wire()
        with pytest.raises(WireError):
            read_rdata(RRType.SOA, WireReader(wire + b"\x00"), len(wire) + 1)


class TestEquality:
    def test_cross_type_not_equal(self):
        assert DS(1, 15, 2, b"\x00" * 32) != CDS(1, 15, 2, b"\x00" * 32)

    def test_hashable(self):
        assert len({A("192.0.2.1"), A("192.0.2.1"), A("192.0.2.2")}) == 2
