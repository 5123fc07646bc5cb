"""Derive once, sign once.

Seeded keys and signatures are pure functions of their inputs, so
:mod:`repro.dnssec.keys` memoises both per process: a rebuilt
same-seed world derives no key and makes no signature.  These tests pin
what that sharing may and may not change: the bytes of every world, the
per-RRset signing calls, the bound, and fresh randomness for keys that
have no seed.
"""

import hashlib

import pytest

import repro.dnssec.keys as keys_module
import repro.dnssec.signer as signer_module
import repro.ecosystem.generator as generator_module
from repro.campaign import CampaignConfig, run_campaign
from repro.dnssec import Algorithm, KeyPair
from repro.ecosystem.world import build_world
from repro.scenarios.spec import ScenarioSpec

SCALE = 5e-7
SEED = 42


def clear_memos():
    keys_module._KEYS.clear()
    keys_module._SIGNATURES.clear()


@pytest.fixture
def cleared():
    clear_memos()
    yield
    clear_memos()


@pytest.fixture
def primitives(monkeypatch):
    """Calls that reach the key-derivation and signing primitives."""
    calls = {"generate": 0, "sign": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        keys_module, "generate_private_key", counted("generate", keys_module.generate_private_key)
    )
    monkeypatch.setattr(keys_module, "algorithm_sign", counted("sign", keys_module.algorithm_sign))
    return calls


def signed_rrsets(world):
    """Root and registry zones as ordered rows, RRSIGs included."""
    zones = [world.builder.root_zone, *(world.registry_zones[k] for k in sorted(world.registry_zones))]
    return [
        (rrset.name, int(rrset.rrtype), rrset.ttl, tuple(rdata.to_wire() for rdata in rrset))
        for zone in zones
        for rrset in zone.iter_rrsets()
    ]


def test_a_rebuilt_world_derives_and_signs_nothing(cleared, primitives):
    cold = signed_rrsets(build_world(scale=SCALE, seed=SEED))
    assert primitives["generate"] > 0 and primitives["sign"] > 0
    primitives.update(generate=0, sign=0)
    warm = signed_rrsets(build_world(scale=SCALE, seed=SEED))
    assert primitives == {"generate": 0, "sign": 0}
    assert warm == cold
    assert any(rrtype == 46 for _, rrtype, _, _ in cold)  # RRSIGs compared too


def test_sign_rrset_runs_once_per_rrset_signed(cleared, primitives, monkeypatch):
    calls = []
    real = signer_module.sign_rrset

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(signer_module, "sign_rrset", counted)
    monkeypatch.setattr(generator_module, "sign_rrset", counted)
    build_world(scale=SCALE, seed=SEED)
    cold = list(calls)
    assert len(cold) >= primitives["sign"] > 0
    calls.clear()
    build_world(scale=SCALE, seed=SEED)
    assert calls == cold


def test_memos_stay_within_their_bound(cleared, monkeypatch):
    reference = signed_rrsets(build_world(scale=SCALE, seed=SEED))
    clear_memos()
    monkeypatch.setattr(keys_module, "SEED_MEMO_MAX", 8)
    assert signed_rrsets(build_world(scale=SCALE, seed=SEED)) == reference
    assert 0 < len(keys_module._KEYS) <= 8
    assert 0 < len(keys_module._SIGNATURES) <= 8


def test_a_seeded_key_is_shared_per_algorithm_flags_and_seed(cleared):
    zsk = KeyPair.generate(Algorithm.ECDSAP256SHA256, seed=b"shared")
    assert KeyPair.generate(Algorithm.ECDSAP256SHA256, seed=b"shared") is zsk
    ksk = KeyPair.generate(Algorithm.ECDSAP256SHA256, ksk=True, seed=b"shared")
    assert ksk is not zsk and ksk.public_key_wire == zsk.public_key_wire
    assert KeyPair.generate(Algorithm.ED25519, seed=b"shared") is not zsk


@pytest.mark.parametrize("algorithm", [Algorithm.ED25519, Algorithm.ECDSAP256SHA256])
def test_unseeded_keys_are_fresh(cleared, algorithm):
    first, second = KeyPair.generate(algorithm), KeyPair.generate(algorithm)
    assert first.public_key_wire != second.public_key_wire
    assert not keys_module._KEYS


def test_rsa_keys_are_fresh_even_with_a_seed(cleared):
    first = KeyPair.generate(Algorithm.RSASHA256, seed=b"rsa")
    second = KeyPair.generate(Algorithm.RSASHA256, seed=b"rsa")
    assert first.public_key_wire != second.public_key_wire
    assert not keys_module._KEYS


def test_same_seed_stores_are_byte_identical(cleared, tmp_path):
    """KeyCycle algorithm-rollover zones carry ECDSA RRSIGs; signed with
    a random nonce, two of this store's shards differed run to run."""
    digests = []
    for run in ("a", "b"):
        clear_memos()
        root = tmp_path / run
        config = CampaignConfig(
            scale=SCALE, seed=41, scenarios=ScenarioSpec.default(), store_dir=root
        )
        run_campaign(config)
        shards = sorted((root / "shards").iterdir())
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in shards})
    assert len(digests[0]) > 1
    assert digests[0] == digests[1]
