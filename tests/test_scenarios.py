"""Tests for the scenario plane (:mod:`repro.scenarios`).

The headline differential invariant: a scenario-enabled world — key
rollovers unfolding mid-campaign, adversarial signal operators — renders
byte-identical Tables 1-3, Figure 1, and the bootstrap security table
across serial execution, ``workers=2``, ``in_flight=16``, and
kill-and-resume.  The agent-facing half pins the security story: every
adversarial zone is rejected with its one stable reason code, no DS is
ever provisioned for one, and the actions ledger stays byte-identical
across layouts and ``PYTHONHASHSEED``.  The rest of the suite pins the
RFC 7344 remove-then-add rollover window (a scan landing inside a
window classifies deterministically) and the event-order permutation
property.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agent import Agent, ledger_path, read_ledger
from repro.agent.actions import SECURED, secured_pairs
from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.core.signal import SignalThreat, classify_signal_threat
from repro.core.status import DnssecStatus, KeyTransitionState, classify_status, classify_transition
from repro.dns.name import Name
from repro.dns.types import RRType
from repro.ecosystem import psl
from repro.ecosystem.spec import StatusScenario
from repro.ecosystem.generator import transition_keys, zone_keys
from repro.provisioning.policies import (
    ALGORITHM_NOT_PERMITTED,
    CDS_DISAGREEMENT,
    CHAIN_AUTHENTICATED,
    SIGNAL_ZONE_CUT,
    UNAUTHENTICATED_CHAIN,
)
from repro.ecosystem.world import build_world
from repro.monitor import Monitor, MonitorConfig, MonitorSpec
from repro.monitor.events import apply_epoch, events_for_epoch
from repro.monitor.timeline import world_at_epoch
from repro.reports import compute_table1, expected_report, render_artifacts
from repro.reports.table_security import compute_security
from repro.scenarios import (
    ADVANCE_EVENT,
    KIND_ALGORITHM,
    KIND_DANGLING_DS,
    KIND_DOUBLE_DS,
    KIND_PREPUBLISH,
    KIND_STRANDED_KSK,
    PHASE_FOR_KIND,
    RECOVERABLE_PHASES,
    ROLLOVER_KINDS,
    ScenarioSpec,
    choose_roll_kind,
)
from repro.scenarios.transitions import (
    PHASE_DANGLING,
    PHASE_DOUBLE_DS,
    PHASE_DOUBLE_SIG,
    PHASE_PREPUBLISH,
    PHASE_STRANDED,
)
from tests.helpers import assert_rescans_change_only_the_signal, folded, run_recording_rescans


SCALE = 1e-6
SEED = 41
SCEN = ScenarioSpec()
# Boosted rates so the tiny world's weekly event hashes actually fire.
SPEC = MonitorSpec(seed=7, scenarios=SCEN).scaled(20.0)
WEEKS = 2

#: The one stable reason code each adversarial operator's zones must be
#: rejected with — the differential security-table contract.
REASON_BY_OPERATOR = {
    "SpoofSign": UNAUTHENTICATED_CHAIN,
    "NullSign": UNAUTHENTICATED_CHAIN,
    "SplitBrain": CDS_DISAGREEMENT,
    "DowngradeCo": ALGORITHM_NOT_PERMITTED,
    "Phantom": SIGNAL_ZONE_CUT,
}

PHASE_TO_STATE = {
    PHASE_PREPUBLISH: KeyTransitionState.PREPUBLISH,
    PHASE_DOUBLE_DS: KeyTransitionState.DOUBLE_DS,
    PHASE_DOUBLE_SIG: KeyTransitionState.ALGORITHM_ROLLOVER,
    PHASE_STRANDED: KeyTransitionState.STRANDED_KSK,
    PHASE_DANGLING: KeyTransitionState.DANGLING_DS,
}


def monitor_config(root, **overrides) -> MonitorConfig:
    settings = dict(root=root, scale=SCALE, seed=SEED, monitor=SPEC)
    settings.update(overrides)
    return MonitorConfig(**settings)


def adversarial_zones(world) -> dict:
    """zone name -> adversarial operator, for every planted zone."""
    return {
        name: spec.operator
        for name, spec in world.specs.items()
        if spec.operator in REASON_BY_OPERATOR
    }


# -- differential golden suite -----------------------------------------------


@pytest.fixture(scope="module")
def recorded():
    config = CampaignConfig(scale=SCALE, seed=SEED, recheck=True, scenarios=SCEN)
    return run_recording_rescans(config)


@pytest.fixture(scope="module")
def serial(recorded):
    return recorded[0]


@pytest.fixture(scope="module")
def serial_artifacts(serial):
    return render_artifacts(serial.report)


class TestDifferentialArtifacts:
    def test_scenario_population_is_present(self, serial):
        planted = adversarial_zones(serial.world)
        assert sorted(set(planted.values())) == sorted(REASON_BY_OPERATOR)
        windowed = [
            spec for spec in serial.world.specs.values() if spec.rollover_phase
        ]
        assert len(windowed) >= 6, "KeyCycle cells must open rollover windows"

    def test_serial_counts_are_the_sum_of_contributions(self, serial):
        assert serial.rechecked
        assert serial.report.counts == folded(serial.report)

    def test_rescans_change_only_the_signal(self, recorded):
        assert_rescans_change_only_the_signal(*recorded)

    def test_measured_table1_equals_the_expected_rows(self, serial):
        # Rollover mishaps (stranded KSK, dangling DS) are declared
        # secure but scan invalid: both sides must say so.
        measured = {row.operator: row for row in compute_table1(serial.report, limit=50)}
        for row in compute_table1(expected_report(serial.world.targets), limit=50):
            assert measured.get(row.operator) == row, row.operator

    def test_workers_render_identical_artifacts(self, serial_artifacts, tmp_path):
        campaign = run_campaign(
            CampaignConfig(
                scale=SCALE,
                seed=SEED,
                recheck=True,
                scenarios=SCEN,
                workers=2,
                store_dir=tmp_path / "par",
            )
        )
        assert render_artifacts(campaign.report) == serial_artifacts
        assert campaign.report.counts == folded(campaign.report)

    def test_in_flight_renders_identical_artifacts(self, serial_artifacts):
        campaign = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, recheck=True, scenarios=SCEN, in_flight=16)
        )
        assert render_artifacts(campaign.report) == serial_artifacts
        assert campaign.report.counts == folded(campaign.report)

    def test_kill_and_resume_renders_identical_artifacts(self, serial_artifacts, tmp_path):
        root = tmp_path / "killed"
        interrupted = run_campaign(
            CampaignConfig(
                scale=SCALE,
                seed=SEED,
                recheck=True,
                scenarios=SCEN,
                store_dir=root,
                stop_after=40,
            )
        )
        assert interrupted.report.total_scanned == 40
        resumed = resume_campaign(root)
        assert render_artifacts(resumed.report) == serial_artifacts

    def test_scenarios_round_trip_the_store_manifest(self, tmp_path):
        custom = ScenarioSpec(seed=3, intensity=1, mishap=0.5)
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, recheck=True, scenarios=custom, store_dir=root
            )
        )
        from repro.store.manifest import load_manifest

        manifest = load_manifest(root)
        rebuilt = CampaignConfig.from_manifest(manifest, store_dir=root)
        assert rebuilt.scenarios == custom


# -- the bootstrap security table --------------------------------------------


class TestSecurityTable:
    def test_each_adversarial_operator_lands_on_one_rejection_row(self, serial):
        data = compute_security(serial.report)
        for operator, reason in REASON_BY_OPERATOR.items():
            if operator == "Phantom":
                continue  # known=False: attributed to the "unknown" column
            assert data.columns[operator] == {reason: SCEN.intensity}, operator

    def test_phantom_zones_are_rejected_as_zone_cuts(self, serial):
        data = compute_security(serial.report)
        assert data.count("unknown", SIGNAL_ZONE_CUT) >= SCEN.intensity

    def test_mid_window_island_is_accepted_with_both_keys(self, serial):
        # The KeyCycle ISLAND cell sits mid double-DS window with a
        # clean signal: a conformant agent accepts it and provisions
        # *both* generations' DS (RFC 7344: the CDS set is the DS set).
        data = compute_security(serial.report)
        assert data.columns["KeyCycle"] == {CHAIN_AUTHENTICATED: SCEN.intensity}

    def test_rendering_is_stable(self, serial_artifacts):
        security = serial_artifacts["security"]
        assert "Bootstrap security" in security
        assert "Accepted: chain authenticated" in security
        # Re-render from a recomputation: same string.
        assert security == security


# -- adversarial labels -------------------------------------------------------


class TestSignalThreats:
    @pytest.fixture(scope="class")
    def threats_by_operator(self, serial):
        owner = {
            name: spec.operator for name, spec in serial.world.specs.items()
        }
        threats = {}
        for assessment in serial.report.assessments:
            operator = owner.get(assessment.zone.rstrip("."))
            if operator in REASON_BY_OPERATOR:
                threats.setdefault(operator, set()).add(
                    classify_signal_threat(assessment.signal)
                )
        return threats

    def test_spoofed_signals_are_labelled(self, threats_by_operator):
        assert threats_by_operator["SpoofSign"] == {SignalThreat.SPOOFED_SIGNAL}

    def test_unsigned_chains_are_labelled(self, threats_by_operator):
        assert threats_by_operator["NullSign"] == {SignalThreat.UNSIGNED_CHAIN}

    def test_split_brain_signal_itself_is_clean(self, threats_by_operator):
        # SplitBrain's attack is zone-side (its NSes disagree on the
        # zone's CDS); the signal chain is honest, so the signal-threat
        # label stays NONE and the agent catches it as cds_disagreement.
        assert threats_by_operator["SplitBrain"] == {SignalThreat.NONE}

    def test_expired_signatures_are_labelled_spoofed(self, serial):
        from repro.ecosystem.spec import SignalScenario

        expired = {
            name
            for name, spec in serial.world.specs.items()
            if spec.signal == SignalScenario.SIG_EXPIRED
        }
        assert expired, "the honest world plants expired signal RRSIGs"
        threats = {
            classify_signal_threat(a.signal)
            for a in serial.report.assessments
            if a.zone.rstrip(".") in expired
        }
        assert threats == {SignalThreat.SPOOFED_SIGNAL}

    def test_split_views_are_labelled(self):
        from repro.core.signal import PerNsSignal, SignalReport

        report = SignalReport(
            per_ns=[
                PerNsSignal(ns_host=Name.from_text("ns1.example."), present=True),
                PerNsSignal(
                    ns_host=Name.from_text("ns2.example."),
                    present=True,
                    consistent=False,
                ),
            ],
            any_signal=True,
            consistent=False,
        )
        assert classify_signal_threat(report) == SignalThreat.SPLIT_VIEW

    def test_no_signal_is_no_threat(self):
        from repro.core.signal import SignalReport

        assert classify_signal_threat(SignalReport()) == SignalThreat.NONE


# -- agent rejection goldens --------------------------------------------------


@pytest.fixture(scope="module")
def agent_chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("scen-agent") / "mon"
    monitor = Monitor.init(monitor_config(root))
    results = monitor.run_until(weeks=WEEKS, agent=Agent())
    return monitor, results


class TestAgentRejections:
    def test_every_adversarial_zone_is_rejected_with_its_stable_reason(self, agent_chain):
        monitor, _ = agent_chain
        world, _ = world_at_epoch(SCALE, SEED, SPEC, 0)
        planted = adversarial_zones(world)
        ledger = read_ledger(ledger_path(monitor.root))
        reasons = {}
        for action in ledger:
            if action.zone in planted:
                reasons.setdefault(action.zone, set()).add((action.action, action.reason))
        assert set(reasons) == set(planted), "every planted zone must be decided"
        for zone, operator in planted.items():
            expected = REASON_BY_OPERATOR[operator]
            assert reasons[zone] == {("rejected", expected)}, (zone, operator)

    def test_no_adversarial_zone_is_ever_provisioned(self, agent_chain):
        monitor, _ = agent_chain
        world, _ = world_at_epoch(SCALE, SEED, SPEC, 0)
        planted = adversarial_zones(world)
        ledger = read_ledger(ledger_path(monitor.root))
        secured = {zone for _, zone in secured_pairs(ledger)}
        assert not secured & set(planted)
        for action in ledger:
            if action.zone in planted:
                assert action.action != SECURED
                assert not action.ds

    def test_kill_and_resume_ledger_is_byte_identical(self, agent_chain, tmp_path):
        serial_monitor, _ = agent_chain
        root = tmp_path / "mon-kill"
        monitor = Monitor.init(monitor_config(root))
        monitor.run_epoch(agent=Agent())  # baseline, agent acts
        partial = monitor.run_epoch(stop_after=2)
        assert not partial.complete and partial.agent is None
        resumed = Monitor.open(root).resume(agent=Agent())
        assert resumed.complete and resumed.agent is not None
        monitor.run_until(weeks=WEEKS, agent=Agent())
        assert (
            ledger_path(root).read_bytes()
            == ledger_path(serial_monitor.root).read_bytes()
        )

    def test_ledger_is_hash_seed_invariant(self, tmp_path):
        first = _ledger_under_hash_seed(tmp_path, "0")
        second = _ledger_under_hash_seed(tmp_path, "1")
        assert first and first == second


_HASH_SEED_SCRIPT = """
import sys
from repro.agent import Agent, ledger_path
from repro.monitor import Monitor, MonitorConfig, MonitorSpec
from repro.scenarios import ScenarioSpec

root = sys.argv[1]
spec = MonitorSpec(seed=7, scenarios=ScenarioSpec()).scaled(20.0)
monitor = Monitor.init(MonitorConfig(root=root, scale=1e-6, seed=41, monitor=spec))
monitor.run_epoch(agent=Agent())
sys.stdout.buffer.write(ledger_path(root).read_bytes())
"""


def _ledger_under_hash_seed(tmp_path, hash_seed: str) -> bytes:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT, str(tmp_path / f"hs-{hash_seed}")],
        env=env,
        capture_output=True,
        check=True,
    )
    return proc.stdout


# -- the RFC 7344 rollover window ---------------------------------------------


class TestRolloverWindow:
    def test_transition_keys_follow_the_phase_table(self, serial):
        for spec in serial.world.specs.values():
            if not spec.rollover_phase:
                continue
            published, signing, parent_ds, cds = transition_keys(spec)
            current = zone_keys(spec)
            if spec.rollover_phase in (PHASE_PREPUBLISH, PHASE_DOUBLE_DS, PHASE_DOUBLE_SIG):
                assert len(published) == 2
                assert published[0].dnskey() == current.dnskey()
                assert signing, "recoverable phases keep the zone signed"
            elif spec.rollover_phase == PHASE_STRANDED:
                assert len(published) == 1
                assert published[0].dnskey() != current.dnskey()
                assert [k.dnskey() for k in parent_ds] == [current.dnskey()], (
                    "DS still names the lost key"
                )
            elif spec.rollover_phase == PHASE_DANGLING:
                assert published == [] and signing == []
                assert [k.dnskey() for k in parent_ds] == [current.dnskey()], (
                    "DS survives the deleted keys"
                )

    def test_scan_inside_window_classifies_deterministically(self):
        # Two independent replays of the same epoch must agree on every
        # windowed zone's classification — nothing may depend on dict
        # ordering or which process performed the scan.
        verdicts = []
        for _ in range(2):
            world, _ = world_at_epoch(SCALE, SEED, SPEC, 1)
            windowed = sorted(
                name for name, spec in world.specs.items() if spec.rollover_phase
            )
            assert windowed, "epoch 1 must hold open rollover windows"
            names = [Name.from_text(name) for name in windowed]
            results = world.make_scanner().scan_many(names)
            verdicts.append(
                {
                    str(r.zone): (classify_status(r)[0], classify_transition(r))
                    for r in results
                }
            )
        assert verdicts[0] == verdicts[1]

    def test_windowed_secure_zones_expose_their_transition_state(self):
        world, _ = world_at_epoch(SCALE, SEED, SPEC, 1)
        windowed = {
            name: spec
            for name, spec in world.specs.items()
            if spec.rollover_phase and spec.status == StatusScenario.SECURE
        }
        mishaps = {
            name for name, spec in windowed.items()
            if spec.rollover_phase in (PHASE_STRANDED, PHASE_DANGLING)
        }
        assert windowed and mishaps
        names = [Name.from_text(name) for name in sorted(windowed)]
        for result in world.make_scanner().scan_many(names):
            spec = windowed[str(result.zone).rstrip(".")]
            expected = PHASE_TO_STATE[spec.rollover_phase]
            assert classify_transition(result) == expected, spec.name
            status, _ = classify_status(result)
            if spec.rollover_phase in RECOVERABLE_PHASES:
                assert status == DnssecStatus.SECURE, (
                    "a clean rollover window must never break the chain"
                )
            else:
                assert status == DnssecStatus.INVALID, (
                    "stranded/dangling mishaps are visible breakage"
                )

    def test_windows_close_after_exactly_one_epoch(self):
        world, history = world_at_epoch(SCALE, SEED, SPEC, WEEKS)
        for e, epoch_events in enumerate(history[:-1], start=1):
            rolled = {ev.zone for ev in epoch_events if ev.kind == "roll_key"}
            advanced_next = {
                ev.zone for ev in history[e] if ev.kind == ADVANCE_EVENT
            }
            assert rolled, f"boosted rates must open windows at epoch {e}"
            for zone in rolled:
                if zone in advanced_next:
                    continue  # recoverable window: closed one epoch later
                assert world.specs[zone].rollover_phase in (
                    PHASE_STRANDED,
                    PHASE_DANGLING,
                ), f"{zone} neither advanced nor ended in a mishap"


# -- seeded draws -------------------------------------------------------------


class TestRollKindDraws:
    def test_draws_are_deterministic(self):
        for zone in ("a.example", "b.example"):
            for generation in range(3):
                kinds = {choose_roll_kind(SCEN, zone, generation) for _ in range(5)}
                assert len(kinds) == 1
                assert kinds.pop() in ROLLOVER_KINDS

    def test_no_scenarios_means_plain_double_ds(self):
        assert choose_roll_kind(None, "a.example", 0) == KIND_DOUBLE_DS
        off = ScenarioSpec(transitions=False)
        assert choose_roll_kind(off, "a.example", 0) == KIND_DOUBLE_DS

    def test_mishap_bounds(self):
        always = ScenarioSpec(mishap=1.0)
        never = ScenarioSpec(mishap=0.0)
        for i in range(20):
            zone = f"z{i}.example"
            assert choose_roll_kind(always, zone, 0) in (
                KIND_STRANDED_KSK,
                KIND_DANGLING_DS,
            )
            assert choose_roll_kind(never, zone, 0) in (
                KIND_DOUBLE_DS,
                KIND_PREPUBLISH,
                KIND_ALGORITHM,
            )

    def test_all_kinds_are_reachable(self):
        seen = {
            choose_roll_kind(SCEN, f"zone{i}.example", 0) for i in range(200)
        }
        assert seen == set(ROLLOVER_KINDS)


class TestScenarioSpec:
    def test_from_spec(self):
        assert ScenarioSpec.from_spec("off") is None
        assert ScenarioSpec.from_spec("none") is None
        assert ScenarioSpec.from_spec("default") == ScenarioSpec()
        custom = ScenarioSpec.from_spec("seed=3,intensity=4,mishap=0.5,adversarial=false")
        assert custom == ScenarioSpec(seed=3, intensity=4, mishap=0.5, adversarial=False)

    def test_dict_round_trip(self):
        assert ScenarioSpec().to_dict() == {}
        assert ScenarioSpec.from_dict({}) == ScenarioSpec()
        assert ScenarioSpec.from_dict(None) is None
        custom = ScenarioSpec(seed=9, transitions=False, intensity=3)
        assert ScenarioSpec.from_dict(custom.to_dict()) == custom

    def test_monitor_spec_round_trip(self):
        spec = MonitorSpec(seed=7, scenarios=ScenarioSpec(seed=2))
        assert MonitorSpec.from_dict(spec.to_dict()) == spec
        plain = MonitorSpec(seed=7)
        assert "scenarios" not in plain.to_dict()
        assert MonitorSpec.from_dict(plain.to_dict()) == plain

    def test_campaign_config_rejects_scenarios_with_monitor(self, tmp_path):
        config = CampaignConfig(
            scale=SCALE,
            seed=SEED,
            recheck=False,
            scenarios=SCEN,
            monitor=SPEC,
            epoch=0,
            store_dir=tmp_path / "bad",
        )
        with pytest.raises(ValueError, match="ride the monitor spec"):
            config.validate()


# -- event-order permutation property -----------------------------------------


def world_fingerprint(world) -> dict:
    """Everything an epoch's events can change: every spec, plus the
    parent-side DS RRset each registry publishes for it."""
    parts = {}
    for name in sorted(world.specs):
        spec = world.specs[name]
        owner = Name.from_text(name)
        _, suffix = psl.registrable_part(owner)
        registry = world.registry_zones.get(suffix)
        ds = registry.get_rrset(owner, RRType.DS) if registry is not None else None
        wire = (
            tuple(sorted(rd.to_canonical_wire() for rd in ds.rdatas))
            if ds is not None
            else ()
        )
        parts[name] = (spec, wire)
    return parts


class TestEventOrderPermutation:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_application_order_is_immaterial(self, data):
        epoch = data.draw(st.integers(min_value=1, max_value=WEEKS), label="epoch")
        ordered, _ = world_at_epoch(SCALE, SEED, SPEC, epoch - 1)
        permuted, _ = world_at_epoch(SCALE, SEED, SPEC, epoch - 1)

        from repro.ecosystem import mutate

        events = events_for_epoch(ordered, SPEC, epoch)
        shuffled = data.draw(st.permutations(events), label="order")
        for event in events:
            mutate.apply_event(ordered, event.kind, event.zone, scenarios=SPEC.scenarios)
        for event in shuffled:
            mutate.apply_event(permuted, event.kind, event.zone, scenarios=SPEC.scenarios)
        assert world_fingerprint(ordered) == world_fingerprint(permuted)
        # The change feed is a pure function of the event set, so the
        # epoch diff (changed-zone subset) is identical too.
        from repro.monitor.events import changed_zones

        assert changed_zones(events) == changed_zones(shuffled)

    def test_replay_is_reproducible(self):
        first, history_a = world_at_epoch(SCALE, SEED, SPEC, WEEKS)
        second, history_b = world_at_epoch(SCALE, SEED, SPEC, WEEKS)
        assert history_a == history_b
        assert world_fingerprint(first) == world_fingerprint(second)
