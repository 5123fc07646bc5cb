"""Derive once, sign once, plan once.

Seeded keys and signatures are pure functions of their inputs, so
:mod:`repro.dnssec.keys` memoises both per process, and a world's
signed registries are a pure function of its cells and seed, so
:func:`repro.ecosystem.world.world_plan` keeps the last plan: a rebuilt
same-seed world derives no key, makes no signature and delegates
nothing.  These tests pin what that sharing may and may not change:
the bytes of every world, the per-RRset signing calls, the bounds, the
isolation of one world's registry edits from the next world, and fresh
randomness for keys that have no seed.
"""

import hashlib

import pytest

import repro.dnssec.keys as keys_module
import repro.dnssec.signer as signer_module
import repro.ecosystem.generator as generator_module
import repro.ecosystem.world as world_module
from repro.campaign import CampaignConfig, run_campaign
from repro.core.bootstrap import assess_zone
from repro.dns.name import Name
from repro.dns.rdata import NS
from repro.dns.zone import Zone
from repro.dnssec import Algorithm, KeyPair
from repro.ecosystem.evolution import historical_cells
from repro.ecosystem.mutate import apply_event, applicable, bootstrap_zone
from repro.ecosystem.spec import CdsScenario, StatusScenario
from repro.ecosystem.world import build_world
from repro.memo import clear_all
from repro.provisioning.engine import install_ds, provision_zone, remove_ds
from repro.scenarios.spec import ScenarioSpec

SCALE = 5e-7
SEED = 42


@pytest.fixture
def cleared():
    clear_all()
    yield
    clear_all()


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
    zones = [world.root_zone, *(world.registry_zones[k] for k in sorted(world.registry_zones))]
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
    assert calls == []  # a warm build copies the signed plan


def test_memos_stay_within_their_bound(cleared, monkeypatch):
    reference = signed_rrsets(build_world(scale=SCALE, seed=SEED))
    clear_all()
    monkeypatch.setattr(keys_module._KEYS, "bound", 8)
    monkeypatch.setattr(keys_module._SIGNATURES, "bound", 8)
    assert signed_rrsets(build_world(scale=SCALE, seed=SEED)) == reference
    assert 0 < len(keys_module._KEYS) <= 8
    assert 0 < len(keys_module._SIGNATURES) <= 8


def state(world):
    """Everything a world edit can reach: the signed zones row for row,
    the spec table, the hosts' provider maps and the signal index."""
    return (
        signed_rrsets(world),
        dict(world.specs),
        {host: dict(zone_names) for host, zone_names in world.zones_by_host.items()},
        {host: list(zone_names) for host, zone_names in world.signal_index.items()},
    )


def edit_every_way(world):
    """Edit *world*'s registries through every path that edits them."""
    specs = list(world.specs.values())
    islands = [s for s in specs if s.status == StatusScenario.ISLAND and s.cds == CdsScenario.OK]
    secure = [s for s in specs if s.status == StatusScenario.SECURE and s.cds == CdsScenario.OK]
    scanner = world.make_scanner()
    # The agent's install → verify → rollback (the re-scan finds no chain).
    before = scanner.scan_zone(islands[0].name)
    assert provision_zone(world, lambda zone: before, assess_zone(before))[0] is not None
    install_ds(world, islands[1].name, assess_zone(scanner.scan_zone(islands[1].name)).cds.cds_rrset)
    bootstrap_zone(world, islands[2].name)
    remove_ds(world, secure[0].name)
    # The hosts' maps hold zone names, so only an NS churn that moves a
    # zone to another host edits them.
    for spec in secure[1:]:
        if applicable(world, spec, "churn_ns"):
            if set(apply_event(world, "churn_ns", spec.name).ns_hosts) != set(spec.ns_hosts):
                break


def test_a_world_edits_its_own_registries_only(cleared):
    world_a = build_world(scale=SCALE, seed=SEED)
    pristine = state(world_a)
    edit_every_way(world_a)
    edited = state(world_a)
    assert all(edited[i] != pristine[i] for i in range(3))
    world_b = build_world(scale=SCALE, seed=SEED)
    assert world_b.plan is world_a.plan
    clear_all()
    cold = build_world(scale=SCALE, seed=SEED)
    assert state(world_b) == state(cold) == pristine


def test_a_zone_copy_shares_no_edit():
    origin = Name.from_text("example")
    zone = Zone(origin)
    zone.add("child.example", 3600, NS("a.ns.example"))
    zone.add("child.example", 3600, NS("b.ns.example"))
    rows = [(r.name, r.rrtype, r.rdatas) for r in zone.iter_rrsets()]
    copy = zone.copy()
    copy.add("child.example", 3600, NS("c.ns.example"))
    copy.add("other.example", 3600, NS("a.ns.example"))
    copy.remove_rrset(Name.from_text("child.example"), NS.rrtype)
    assert [(r.name, r.rrtype, r.rdatas) for r in zone.iter_rrsets()] == rows
    assert zone.has_name(Name.from_text("child.example"))
    assert not zone.has_name(Name.from_text("other.example"))


def test_the_plan_memo_holds_one_key(cleared):
    """One plan per process, and never one shared across keys."""
    base = build_world(scale=SCALE, seed=SEED).plan
    assert build_world(scale=SCALE, seed=SEED).plan is base
    variants = [
        dict(scale=2 * SCALE, seed=SEED),
        dict(scale=SCALE, seed=SEED + 1),
        dict(scale=SCALE, seed=SEED, scenarios=ScenarioSpec.default()),
        dict(scale=SCALE, seed=SEED, cells_override=historical_cells(2020)),
    ]
    plans = [base]
    for variant in variants:
        plan = build_world(**variant).plan
        assert len(world_module._PLAN) == 1
        assert all(plan is not other for other in plans)
        plans.append(plan)
    again = build_world(scale=SCALE, seed=SEED).plan
    assert len(world_module._PLAN) == 1
    assert all(again is not other for other in plans)


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
        clear_all()
        root = tmp_path / run
        config = CampaignConfig(
            scale=SCALE, seed=41, scenarios=ScenarioSpec.default(), store_dir=root
        )
        run_campaign(config)
        shards = sorted((root / "shards").iterdir())
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in shards})
    assert len(digests[0]) > 1
    assert digests[0] == digests[1]
