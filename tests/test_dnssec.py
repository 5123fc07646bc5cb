"""Unit tests for the DNSSEC engine: keys, signing, DS, validation."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import CDS, DNSKEY, DS, TXT, A
from repro.dns.rdata import NS, SOA
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dns.zone import Zone
from repro.dnssec import (
    Algorithm,
    DigestType,
    KeyPair,
    cds_delete_rdata,
    cdnskey_delete_rdata,
    ds_from_dnskey,
    ds_matches_dnskey,
    sign_rrset,
    sign_zone,
    validate_chain_link,
    validate_rrset,
)
from cryptography.hazmat.primitives.asymmetric import ec

from repro.dnssec.algorithms import UnsupportedAlgorithm, generate_private_key, sign, verify
from repro.dnssec.signer import DEFAULT_INCEPTION, corrupt_signature
from repro.dnssec.validator import (
    DEFAULT_VALIDATION_TIME,
    FailureReason,
    extract_rrsigs,
)


OWNER = Name.from_text("example.ch")


@pytest.fixture(scope="module")
def keys():
    return {
        "ksk": KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"test-ksk"),
        "zsk": KeyPair.generate(Algorithm.ED25519, seed=b"test-zsk"),
    }


def make_txt_rrset():
    return RRset(OWNER, RRType.TXT, 300, [TXT(["payload"])])


class TestKeyPair:
    def test_deterministic_from_seed(self):
        k1 = KeyPair.generate(Algorithm.ED25519, seed=b"s")
        k2 = KeyPair.generate(Algorithm.ED25519, seed=b"s")
        assert k1.dnskey() == k2.dnskey()
        assert k1.key_tag == k2.key_tag

    def test_different_seeds_differ(self):
        assert (
            KeyPair.generate(Algorithm.ED25519, seed=b"a").dnskey()
            != KeyPair.generate(Algorithm.ED25519, seed=b"b").dnskey()
        )

    def test_ecdsa_deterministic(self):
        k1 = KeyPair.generate(Algorithm.ECDSAP256SHA256, seed=b"e")
        k2 = KeyPair.generate(Algorithm.ECDSAP256SHA256, seed=b"e")
        assert k1.dnskey() == k2.dnskey()

    def test_ecdsa_signs_rfc6979_known_answer(self):
        """RFC 6979 §A.2.5: P-256, SHA-256, message "sample" — the nonce
        and so the whole signature follow from key and message."""
        x = int("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721", 16)
        r = "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"
        s = "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"
        private_key = ec.derive_private_key(x, ec.SECP256R1())
        signature = sign(Algorithm.ECDSAP256SHA256, private_key, b"sample")
        assert signature.hex().upper() == r + s
        public = KeyPair(Algorithm.ECDSAP256SHA256, private_key).public_key_wire
        assert verify(Algorithm.ECDSAP256SHA256, public, signature, b"sample")

    def test_ksk_flag(self, keys):
        assert keys["ksk"].is_ksk
        assert not keys["zsk"].is_ksk
        assert keys["ksk"].dnskey().is_sep

    def test_cdnskey_mirrors_dnskey(self, keys):
        dnskey = keys["ksk"].dnskey()
        cdnskey = keys["ksk"].cdnskey()
        assert cdnskey.public_key == dnskey.public_key
        assert cdnskey.key_tag() == dnskey.key_tag()

    def test_ed25519_key_is_32_bytes(self, keys):
        assert len(keys["zsk"].public_key_wire) == 32

    def test_unsupported_generate(self):
        with pytest.raises(UnsupportedAlgorithm):
            generate_private_key(Algorithm.ED448)


class TestSignValidate:
    @pytest.mark.parametrize(
        "algorithm",
        [Algorithm.ED25519, Algorithm.ECDSAP256SHA256, Algorithm.RSASHA256],
    )
    def test_round_trip_all_algorithms(self, algorithm):
        seed = b"alg-test" if algorithm != Algorithm.RSASHA256 else None
        key = KeyPair.generate(algorithm, ksk=True, seed=seed)
        rrset = make_txt_rrset()
        rrsig = sign_rrset(rrset, key)
        result = validate_rrset(rrset, [rrsig], [key.dnskey()])
        assert result.ok
        assert result.key_tag == key.key_tag

    def test_wrong_key_fails(self, keys):
        rrset = make_txt_rrset()
        rrsig = sign_rrset(rrset, keys["zsk"])
        other = KeyPair.generate(Algorithm.ED25519, seed=b"other")
        result = validate_rrset(rrset, [rrsig], [other.dnskey()])
        assert not result.ok
        assert result.reason == FailureReason.NO_MATCHING_KEY

    def test_tampered_data_fails(self, keys):
        rrset = make_txt_rrset()
        rrsig = sign_rrset(rrset, keys["zsk"])
        tampered = RRset(OWNER, RRType.TXT, 300, [TXT(["changed"])])
        result = validate_rrset(tampered, [rrsig], [keys["zsk"].dnskey()])
        assert result.reason == FailureReason.BAD_SIGNATURE

    def test_corrupt_signature_fails(self, keys):
        rrset = make_txt_rrset()
        rrsig = corrupt_signature(sign_rrset(rrset, keys["zsk"]))
        result = validate_rrset(rrset, [rrsig], [keys["zsk"].dnskey()])
        assert result.reason == FailureReason.BAD_SIGNATURE

    def test_expired(self, keys):
        rrset = make_txt_rrset()
        rrsig = sign_rrset(
            rrset,
            keys["zsk"],
            inception=DEFAULT_INCEPTION - 10_000,
            expiration=DEFAULT_INCEPTION - 5_000,
        )
        result = validate_rrset(rrset, [rrsig], [keys["zsk"].dnskey()])
        assert result.reason == FailureReason.EXPIRED

    def test_not_yet_valid(self, keys):
        rrset = make_txt_rrset()
        rrsig = sign_rrset(rrset, keys["zsk"], inception=DEFAULT_VALIDATION_TIME + 1000)
        result = validate_rrset(rrset, [rrsig], [keys["zsk"].dnskey()])
        assert result.reason == FailureReason.NOT_YET_VALID

    def test_no_rrsig(self, keys):
        result = validate_rrset(make_txt_rrset(), [], [keys["zsk"].dnskey()])
        assert result.reason == FailureReason.NO_RRSIG

    def test_ttl_variation_is_tolerated(self, keys):
        # Caches may lower TTLs; validation uses the RRSIG original TTL.
        rrset = make_txt_rrset()
        rrsig = sign_rrset(rrset, keys["zsk"])
        lowered = RRset(OWNER, RRType.TXT, 17, list(rrset.rdatas))
        assert validate_rrset(lowered, [rrsig], [keys["zsk"].dnskey()]).ok

    def test_one_good_signature_suffices(self, keys):
        rrset = make_txt_rrset()
        good = sign_rrset(rrset, keys["zsk"])
        bad = corrupt_signature(sign_rrset(rrset, keys["ksk"]))
        result = validate_rrset(rrset, [bad, good], [keys["zsk"].dnskey(), keys["ksk"].dnskey()])
        assert result.ok

    def test_signer_filter(self, keys):
        rrset = make_txt_rrset()
        rrsig = sign_rrset(rrset, keys["zsk"], signer_name=Name.from_text("example.ch"))
        result = validate_rrset(
            rrset, [rrsig], [keys["zsk"].dnskey()], signer=Name.from_text("other.ch")
        )
        assert result.reason == FailureReason.NO_RRSIG

    def test_wildcard_label_count(self, keys):
        wild = RRset(Name.from_text("*.example.ch"), RRType.TXT, 60, [TXT(["w"])])
        rrsig = sign_rrset(wild, keys["zsk"])
        assert rrsig.labels == 2  # wildcard label not counted


class TestDS:
    def test_ds_matches(self, keys):
        ds = ds_from_dnskey(OWNER, keys["ksk"].dnskey())
        assert ds_matches_dnskey(OWNER, ds, keys["ksk"].dnskey())

    def test_sha384(self, keys):
        ds = ds_from_dnskey(OWNER, keys["ksk"].dnskey(), DigestType.SHA384)
        assert len(ds.digest) == 48
        assert ds_matches_dnskey(OWNER, ds, keys["ksk"].dnskey())

    def test_mismatched_key(self, keys):
        ds = ds_from_dnskey(OWNER, keys["ksk"].dnskey())
        assert not ds_matches_dnskey(OWNER, ds, keys["zsk"].dnskey())

    def test_owner_matters(self, keys):
        ds = ds_from_dnskey(OWNER, keys["ksk"].dnskey())
        other = ds_from_dnskey(Name.from_text("other.ch"), keys["ksk"].dnskey())
        assert ds.digest != other.digest

    def test_unknown_digest_type_never_matches(self, keys):
        ds = ds_from_dnskey(OWNER, keys["ksk"].dnskey())
        weird = DS(ds.key_tag, ds.algorithm, 99, ds.digest)
        assert not ds_matches_dnskey(OWNER, weird, keys["ksk"].dnskey())

    def test_delete_sentinels(self):
        assert cds_delete_rdata().is_delete
        assert cdnskey_delete_rdata().is_delete
        assert cds_delete_rdata().to_text() == "0 0 0 00"


class TestZoneSigning:
    def make_zone(self):
        zone = Zone("example.ch")
        zone.add("example.ch", 300, SOA("ns1.example.ch", "hostmaster.example.ch", 1))
        zone.add("example.ch", 300, NS("ns1.provider.net"))
        zone.add("www.example.ch", 300, A("192.0.2.1"))
        zone.add("sub.example.ch", 3600, NS("ns1.elsewhere.org"))
        zone.add("ns.sub.example.ch", 3600, A("203.0.113.5"))  # glue
        return zone

    def test_sign_zone_full(self, keys):
        zone = self.make_zone()
        sign_zone(zone, [keys["ksk"], keys["zsk"]])
        dnskeys = zone.get_rrset("example.ch", RRType.DNSKEY)
        assert dnskeys is not None and len(dnskeys) == 2
        # Apex SOA is signed.
        sigs = extract_rrsigs(zone.get_rrset("example.ch", RRType.RRSIG))
        covered = {int(s.type_covered) for s in sigs}
        assert int(RRType.SOA) in covered and int(RRType.DNSKEY) in covered
        # www A is signed and validates.
        a_rrset = zone.get_rrset("www.example.ch", RRType.A)
        a_sigs = extract_rrsigs(zone.get_rrset("www.example.ch", RRType.RRSIG))
        assert validate_rrset(a_rrset, a_sigs, list(dnskeys.rdatas)).ok

    def test_dnskey_signed_by_ksk_only(self, keys):
        zone = self.make_zone()
        sign_zone(zone, [keys["ksk"], keys["zsk"]])
        sigs = extract_rrsigs(zone.get_rrset("example.ch", RRType.RRSIG))
        dnskey_sigs = [s for s in sigs if int(s.type_covered) == int(RRType.DNSKEY)]
        assert {s.key_tag for s in dnskey_sigs} == {keys["ksk"].key_tag}
        soa_sigs = [s for s in sigs if int(s.type_covered) == int(RRType.SOA)]
        assert {s.key_tag for s in soa_sigs} == {keys["zsk"].key_tag}

    def test_delegation_ns_not_signed(self, keys):
        zone = self.make_zone()
        sign_zone(zone, [keys["ksk"], keys["zsk"]])
        sub_sigs = extract_rrsigs(zone.get_rrset("sub.example.ch", RRType.RRSIG))
        assert all(int(s.type_covered) != int(RRType.NS) for s in sub_sigs)

    def test_glue_not_signed(self, keys):
        zone = self.make_zone()
        sign_zone(zone, [keys["ksk"], keys["zsk"]])
        assert zone.get_rrset("ns.sub.example.ch", RRType.RRSIG) is None

    def test_nsec_chain_built(self, keys):
        zone = self.make_zone()
        sign_zone(zone, [keys["ksk"], keys["zsk"]])
        nsec = zone.get_rrset("example.ch", RRType.NSEC)
        assert nsec is not None

    def test_single_csk(self):
        zone = self.make_zone()
        csk = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"csk")
        sign_zone(zone, [csk])
        dnskeys = zone.get_rrset("example.ch", RRType.DNSKEY)
        sigs = extract_rrsigs(zone.get_rrset("example.ch", RRType.RRSIG))
        assert validate_rrset(dnskeys, sigs, list(dnskeys.rdatas)).ok

    def test_sign_zone_requires_keys(self):
        with pytest.raises(ValueError):
            sign_zone(self.make_zone(), [])


class TestChainLink:
    def test_secure_link(self, keys):
        zone = Zone("example.ch")
        zone.add("example.ch", 300, SOA("ns1.example.ch", "h.example.ch", 1))
        sign_zone(zone, [keys["ksk"], keys["zsk"]], with_nsec=False)
        dnskeys = zone.get_rrset("example.ch", RRType.DNSKEY)
        sigs = extract_rrsigs(zone.get_rrset("example.ch", RRType.RRSIG))
        ds_rrset = RRset(OWNER, RRType.DS, 3600, [ds_from_dnskey(OWNER, keys["ksk"].dnskey())])
        assert validate_chain_link(OWNER, ds_rrset, dnskeys, sigs).ok

    def test_no_matching_ds(self, keys):
        zone = Zone("example.ch")
        zone.add("example.ch", 300, SOA("ns1.example.ch", "h.example.ch", 1))
        sign_zone(zone, [keys["ksk"]], with_nsec=False)
        dnskeys = zone.get_rrset("example.ch", RRType.DNSKEY)
        sigs = extract_rrsigs(zone.get_rrset("example.ch", RRType.RRSIG))
        stranger = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"stranger")
        ds_rrset = RRset(OWNER, RRType.DS, 3600, [ds_from_dnskey(OWNER, stranger.dnskey())])
        result = validate_chain_link(OWNER, ds_rrset, dnskeys, sigs)
        assert result.reason == FailureReason.NO_MATCHING_DS

    def test_missing_dnskey(self, keys):
        ds_rrset = RRset(OWNER, RRType.DS, 3600, [ds_from_dnskey(OWNER, keys["ksk"].dnskey())])
        result = validate_chain_link(OWNER, ds_rrset, None, [])
        assert result.reason == FailureReason.NO_DNSKEY

    def test_missing_ds(self, keys):
        dnskeys = RRset(OWNER, RRType.DNSKEY, 300, [keys["ksk"].dnskey()])
        result = validate_chain_link(OWNER, None, dnskeys, [])
        assert result.reason == FailureReason.NO_MATCHING_DS
