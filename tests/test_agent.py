"""Tests for the RFC 9615 parental agent (:mod:`repro.agent`).

The headline differential invariant: an agent-driven chain of epochs
writes a byte-identical ``agent/actions.jsonl`` ledger (and renders an
identical convergence report) across serial execution, ``workers=2``,
and kill-and-resume — and the chain converges to the same final tables
as a world in which operators had bootstrapped the secured zones
themselves.  The rest of the suite pins the acceptance pipeline:
adversarial signal/CDS fixtures are rejected with stable reason codes,
decisions are a pure function of the scan record, and every DS the
agent provisions round-trips the RFC 4034 digest check.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import (
    Agent,
    AgentError,
    compute_convergence,
    ledger_path,
    read_ledger,
    render_convergence,
)
from repro.agent.actions import (
    REJECTED,
    SECURED,
    AgentAction,
    LedgerError,
    append_actions,
    recorded_zones,
    secured_pairs,
)
from repro.agent.plane import decide
from repro.provisioning.policies import (
    ALGORITHM_NOT_PERMITTED,
    CDS_DISAGREEMENT,
    CHAIN_AUTHENTICATED,
    DS_ALREADY_PRESENT,
    UNAUTHENTICATED_CHAIN,
)
from repro.campaign import CampaignConfig, run_campaign
from repro.core.bootstrap import SignalOutcome, assess_zone
from repro.core.status import DnssecStatus
from repro.dns.name import Name
from repro.dns.rdata import CDS, DS
from repro.dns.rrset import RRset
from repro.dnssec.algorithms import Algorithm, DigestType
from repro.dnssec.ds import cds_from_dnskey, cds_to_ds, ds_matches_dnskey
from repro.dnssec.keys import KeyPair
from repro.monitor import Monitor, MonitorSpec
from repro.monitor.timeline import world_at_epoch
from repro.reports import render_artifacts
from repro.scanner.results import QueryStatus, RRQueryResult
from repro.store.reader import StoreReader

from tests.test_monitor import SCALE, SEED, SPEC, WEEKS, dotted, merged_artifacts, monitor_config


def ledger_bytes(monitor: Monitor) -> bytes:
    return ledger_path(monitor.root).read_bytes()


def convergence_text(monitor: Monitor) -> str:
    return render_convergence(compute_convergence(read_ledger(ledger_path(monitor.root))))


def composed_spec(monitor: Monitor) -> MonitorSpec:
    """The base spec plus every install the agent's ledger recorded."""
    return SPEC.with_installs(secured_pairs(read_ledger(ledger_path(monitor.root))))


@pytest.fixture(scope="module")
def agent_chain(tmp_path_factory):
    """The module's shared agent-driven chain: baseline + 3 deltas,
    with the agent acting after every completed epoch."""
    root = tmp_path_factory.mktemp("agent") / "mon"
    monitor = Monitor.init(monitor_config(root))
    results = monitor.run_until(weeks=WEEKS, agent=Agent())
    return monitor, results


class TestAgentChain:
    def test_agent_acts_on_every_completed_epoch(self, agent_chain):
        monitor, results = agent_chain
        assert [r.epoch for r in results] == list(range(WEEKS + 1))
        for result in results:
            assert result.complete
            assert result.agent is not None
            assert result.agent.epoch == result.epoch
        ledger = read_ledger(ledger_path(monitor.root))
        assert sorted({a.epoch for a in ledger}) == list(range(WEEKS + 1))
        assert any(a.action == SECURED for a in ledger), (
            "the seeded world must contain at least one bootstrappable island"
        )

    def test_every_action_is_well_formed_and_sorted_within_epoch(self, agent_chain):
        monitor, _ = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        for action in ledger:
            assert action.zone == action.zone.rstrip(".")
            assert AgentAction.from_dict(json.loads(action.to_line())) == action
        epochs = [a.epoch for a in ledger]
        assert epochs == sorted(epochs)
        for epoch in set(epochs):
            zones = [a.zone for a in ledger if a.epoch == epoch]
            assert zones == sorted(zones)

    def test_secured_zones_enter_the_next_delta_feed(self, agent_chain):
        monitor, results = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        for action in ledger:
            if action.action != SECURED or action.epoch >= WEEKS:
                continue
            stored = set(StoreReader(results[action.epoch + 1].store_dir).zones())
            assert dotted(action.zone) in stored, (
                f"{action.zone} (secured at epoch {action.epoch}) must be "
                f"re-scanned by the epoch-{action.epoch + 1} delta"
            )

    def test_secured_zones_classify_secured_next_epoch(self, agent_chain):
        monitor, _ = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        checked = 0
        for action in ledger:
            if action.action != SECURED or action.epoch >= WEEKS:
                continue
            verdict = monitor.classifications(epoch=action.epoch + 1)[dotted(action.zone)]
            assert verdict.status == DnssecStatus.SECURE
            checked += 1
        assert checked, "at least one island must be secured before the final epoch"

    def test_reconsidered_secured_zones_are_rejected_as_already_present(self, agent_chain):
        monitor, _ = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        secured_at = {a.zone: a.epoch for a in ledger if a.action == SECURED}
        for action in ledger:
            if action.zone in secured_at and action.epoch > secured_at[action.zone]:
                assert (action.action, action.reason) == (REJECTED, DS_ALREADY_PRESENT)

    def test_chain_matches_operator_bootstrapped_world(self, agent_chain, tmp_path):
        # The tentpole differential: the agent-driven chain's merged
        # Tables 1-3 equal a from-scratch full scan of the final world
        # in which the secured zones were bootstrapped by operators.
        monitor, _ = agent_chain
        world, _ = world_at_epoch(SCALE, SEED, composed_spec(monitor), WEEKS)
        campaign = run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, recheck=False, store_dir=tmp_path / "operator-world"
            ),
            world=world,
        )
        assert merged_artifacts(monitor) == render_artifacts(campaign.report)

    def test_rerun_on_a_decided_epoch_is_idempotent(self, agent_chain):
        monitor, _ = agent_chain
        before = ledger_bytes(monitor)
        run = Agent().run(monitor)
        assert run.considered == 0
        assert run.skipped > 0
        assert run.actions == []
        assert ledger_bytes(monitor) == before

    def test_agent_refuses_epochs_that_are_not_complete(self, agent_chain):
        monitor, _ = agent_chain
        with pytest.raises(AgentError, match="not complete"):
            Agent().run(monitor, epoch=WEEKS + 5)


class TestDifferentialLedger:
    def test_workers_chain_is_byte_identical(self, agent_chain, tmp_path):
        serial_monitor, _ = agent_chain
        root = tmp_path / "mon-par"
        monitor = Monitor.init(monitor_config(root, workers=2))
        results = monitor.run_until(weeks=WEEKS, agent=Agent())
        assert [r.epoch for r in results] == list(range(WEEKS + 1))
        assert ledger_bytes(monitor) == ledger_bytes(serial_monitor)
        assert convergence_text(monitor) == convergence_text(serial_monitor)
        assert merged_artifacts(monitor) == merged_artifacts(serial_monitor)

    def test_kill_and_resume_chain_is_byte_identical(self, agent_chain, tmp_path):
        serial_monitor, _ = agent_chain
        root = tmp_path / "mon-kill"
        monitor = Monitor.init(monitor_config(root))
        monitor.run_epoch(agent=Agent())  # baseline, agent acts

        # Killed mid-scan: the agent never runs on an incomplete epoch.
        partial = monitor.run_epoch(stop_after=2)
        assert not partial.complete and partial.agent is None
        ledger_after_kill = ledger_bytes(monitor)

        # A fresh process finishes the scan, then the agent acts.
        resumed = Monitor.open(root).resume(agent=Agent())
        assert resumed.complete and resumed.agent is not None
        assert ledger_bytes(monitor) != ledger_after_kill

        # Killed *between* scan and agent: the epoch completes without
        # the agent; the CLI-style direct run recovers it.
        scan_only = monitor.run_epoch()
        assert scan_only.complete and scan_only.agent is None
        recovered = Agent().run(monitor)
        assert recovered.epoch == scan_only.epoch

        monitor.run_until(weeks=WEEKS, agent=Agent())
        assert ledger_bytes(monitor) == ledger_bytes(serial_monitor)
        assert convergence_text(monitor) == convergence_text(serial_monitor)
        assert merged_artifacts(monitor) == merged_artifacts(serial_monitor)


class TestConvergenceReport:
    def test_report_accounts_for_every_decision(self, agent_chain):
        monitor, _ = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        report = compute_convergence(ledger)
        assert report.considered == len(ledger)
        assert report.secured == sum(1 for a in ledger if a.action == SECURED)
        assert sum(report.rejections.values()) == report.considered - report.secured
        assert report.epochs == sorted({a.epoch for a in ledger})
        assert sum(report.secured_per_epoch.values()) == report.secured
        assert len(report.time_to_secure) == len({a.zone for a in ledger if a.action == SECURED})

    def test_render_contains_the_three_tables(self, agent_chain):
        monitor, _ = agent_chain
        text = convergence_text(monitor)
        assert "Zones secured per epoch" in text
        assert "Time to secure" in text
        assert "Rejection breakdown" in text
        assert "decisions:" in text


@pytest.fixture(scope="module")
def accepted_scan(agent_chain):
    """A raw scan of the first zone the agent secured, taken from a
    replica of the world the agent saw — the base fixture the
    adversarial tests tamper with."""
    monitor, _ = agent_chain
    ledger = read_ledger(ledger_path(monitor.root))
    action = next(a for a in ledger if a.action == SECURED)
    world, _ = world_at_epoch(SCALE, SEED, SPEC, action.epoch)
    result = world.make_scanner().scan_zone(action.zone)
    assert decide(assess_zone(result)) == (True, CHAIN_AUTHENTICATED)
    return result


class TestAdversarialRejection:
    def test_spoofed_cds_view_is_a_disagreement(self, accepted_scan):
        # One extra "server" answers the CDS question with a different
        # rdata: RFC 8078 consistency fails, nothing may be provisioned.
        result = copy.deepcopy(accepted_scan)
        rrset = next(r.rrset for r in result.cds_by_ns.values() if r.has_data)
        rd = next(iter(rrset.rdatas))
        forged = RRset(
            rrset.name,
            rrset.rrtype,
            rrset.ttl,
            [CDS(rd.key_tag ^ 0x1, rd.algorithm, rd.digest_type, rd.digest)],
        )
        result.cds_by_ns["spoof@203.0.113.99"] = RRQueryResult(
            status=QueryStatus.OK, rrset=forged
        )
        assert decide(assess_zone(result)) == (False, CDS_DISAGREEMENT)

    def test_unsigned_signal_zone_is_unauthenticated(self, accepted_scan):
        # Strip the chain of trust above every signaling zone — the
        # RFC 9615 requirement that signals be DNSSEC-authenticated.
        result = copy.deepcopy(accepted_scan)
        for scan in result.signals:
            scan.chain = []
        assert decide(assess_zone(result)) == (
            False,
            UNAUTHENTICATED_CHAIN,
        )

    def test_algorithm_downgrade_cds_is_refused(self, accepted_scan):
        # Rewrite the zone's CDS to RSASHA1: the agent's policy refuses
        # before any consistency check gets a say.
        result = copy.deepcopy(accepted_scan)
        for response in result.cds_by_ns.values():
            if not response.has_data:
                continue
            response.rrset = RRset(
                response.rrset.name,
                response.rrset.rrtype,
                response.rrset.ttl,
                [
                    CDS(rd.key_tag, int(Algorithm.RSASHA1), rd.digest_type, rd.digest)
                    for rd in response.rrset.rdatas
                ],
            )
        assert decide(assess_zone(result)) == (
            False,
            ALGORITHM_NOT_PERMITTED,
        )

    def test_rejected_zones_are_never_provisioned(self, agent_chain):
        # "Provisions nothing": a zone whose every decision is a
        # rejection must not appear in the install ledger, and — unless
        # an operator event bootstrapped it — must not classify SECURE.
        monitor, results = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        secured = {a.zone for a in ledger if a.action == SECURED}
        installed = {zone for _, zone in composed_spec(monitor).installs}
        assert installed == secured
        operator_bootstrapped = {
            e.zone for r in results for e in r.events if "bootstrap" in e.kind
        }
        final = monitor.classifications(epoch=WEEKS)
        for action in ledger:
            if action.action != REJECTED or action.reason == DS_ALREADY_PRESENT:
                continue
            if action.zone in secured or action.zone in operator_bootstrapped:
                continue
            assert final[dotted(action.zone)].status != DnssecStatus.SECURE, (
                f"{action.zone} was only ever rejected yet ended up SECURE"
            )


@pytest.fixture(scope="module")
def candidate_results(agent_chain):
    """Raw scans of every final-epoch candidate, from a replica of the
    world the agent saw — the corpus for the purity properties."""
    monitor, _ = agent_chain
    epoch = monitor.completed_epochs()[-1]
    world, _ = world_at_epoch(SCALE, SEED, composed_spec(monitor), epoch)
    scanner = world.make_scanner()
    zones = sorted(
        zone.rstrip(".")
        for zone, verdict in monitor.classifications(epoch=epoch).items()
        if verdict.outcome != SignalOutcome.NO_SIGNAL
    )
    assert zones
    return {zone: scanner.scan_zone(zone) for zone in zones}


class TestDecisionPurity:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_decisions_are_order_independent(self, candidate_results, data):
        baseline = {
            zone: decide(assess_zone(result))
            for zone, result in sorted(candidate_results.items())
        }
        order = data.draw(st.permutations(sorted(candidate_results)))
        permuted = {
            zone: decide(assess_zone(candidate_results[zone])) for zone in order
        }
        assert permuted == baseline

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_ledger_lines_are_permutation_invariant(self, candidate_results, data):
        order = data.draw(st.permutations(sorted(candidate_results)))
        lines = sorted(
            AgentAction(
                zone=zone,
                epoch=0,
                action=REJECTED,
                reason=decide(assess_zone(candidate_results[zone]))[1],
            ).to_line()
            for zone in order
        )
        baseline = sorted(
            AgentAction(
                zone=zone,
                epoch=0,
                action=REJECTED,
                reason=decide(assess_zone(result))[1],
            ).to_line()
            for zone, result in candidate_results.items()
        )
        assert lines == baseline

    def test_ledger_is_hash_seed_invariant(self, tmp_path):
        # A full baseline epoch + agent run under two PYTHONHASHSEEDs
        # must write the same ledger bytes.
        first = _ledger_under_hash_seed(tmp_path, "0")
        second = _ledger_under_hash_seed(tmp_path, "1")
        assert first and first == second


_HASH_SEED_SCRIPT = """
import sys
from repro.agent import Agent, ledger_path
from repro.monitor import Monitor, MonitorConfig, MonitorSpec

root = sys.argv[1]
monitor = Monitor.init(
    MonitorConfig(root=root, scale=1e-6, seed=41, monitor=MonitorSpec(seed=7).scaled(20.0))
)
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


class TestDsRoundTrip:
    def test_ledger_ds_verifies_against_the_zone_ksk(self, agent_chain, accepted_scan):
        monitor, _ = agent_chain
        ledger = read_ledger(ledger_path(monitor.root))
        action = next(a for a in ledger if a.action == SECURED)
        assert action.ds, "a secured action must record the DS it provisioned"
        dnskeys = list(accepted_scan.dnskey.rrset.rdatas)
        for entry in action.ds:
            tag, algorithm, digest_type, digest = entry.split()
            ds = DS(int(tag), int(algorithm), int(digest_type), bytes.fromhex(digest))
            matching = [k for k in dnskeys if k.key_tag() == ds.key_tag]
            assert matching, f"no DNSKEY with tag {ds.key_tag} at {action.zone}"
            assert any(
                ds_matches_dnskey(accepted_scan.zone, ds, dnskey) for dnskey in matching
            )

    @settings(max_examples=20, deadline=None)
    @given(
        algorithm=st.sampled_from((Algorithm.ED25519, Algorithm.ECDSAP256SHA256)),
        digest_type=st.sampled_from((DigestType.SHA256, DigestType.SHA384)),
        seed=st.binary(min_size=1, max_size=32),
    )
    def test_generated_keys_round_trip_the_digest_check(self, algorithm, digest_type, seed):
        key = KeyPair.generate(algorithm, ksk=True, seed=seed)
        owner = Name.from_text("island.example.")
        ds = cds_to_ds(cds_from_dnskey(owner, key.dnskey(), digest_type))
        assert ds_matches_dnskey(owner, ds, key.dnskey())
        tampered = DS(
            ds.key_tag,
            ds.algorithm,
            ds.digest_type,
            bytes([ds.digest[0] ^ 0xFF]) + ds.digest[1:],
        )
        assert not ds_matches_dnskey(owner, tampered, key.dnskey())


class TestLedgerCrashSafety:
    LINES = [
        AgentAction(zone="a.example", epoch=0, action=REJECTED, reason="no_signal"),
        AgentAction(zone="b.example", epoch=0, action=SECURED, reason=CHAIN_AUTHENTICATED, ds=("1 13 2 ab",)),
    ]

    def test_torn_tail_is_invisible_and_truncated_on_append(self, tmp_path):
        path = tmp_path / "actions.jsonl"
        append_actions(path, self.LINES)
        durable = path.read_bytes()
        path.write_bytes(durable + b'{"action":"secu')  # killed mid-append
        assert read_ledger(path) == self.LINES

        extra = AgentAction(zone="c.example", epoch=1, action=REJECTED, reason="no_signal")
        append_actions(path, [extra])
        assert path.read_bytes() == durable + extra.to_line().encode() + b"\n"
        assert read_ledger(path) == self.LINES + [extra]

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "actions.jsonl"
        append_actions(path, self.LINES)
        body = path.read_bytes().split(b"\n")
        body.insert(1, b"not json")
        path.write_bytes(b"\n".join(body))
        with pytest.raises(LedgerError, match="undecodable"):
            read_ledger(path)

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert read_ledger(tmp_path / "nowhere.jsonl") == []

    def test_action_validation(self):
        good = self.LINES[0].to_dict()
        assert AgentAction.from_dict(good) == self.LINES[0]
        with pytest.raises(LedgerError, match="unknown action"):
            AgentAction.from_dict({**good, "action": "pondered"})
        with pytest.raises(LedgerError, match="unknown reason"):
            AgentAction.from_dict({**good, "reason": "vibes"})
        with pytest.raises(LedgerError, match="malformed"):
            AgentAction.from_dict({"zone": "a.example"})

    def test_recorded_zones_is_per_epoch(self):
        extra = AgentAction(zone="a.example", epoch=1, action=REJECTED, reason="no_signal")
        assert recorded_zones(self.LINES + [extra], 0) == {"a.example", "b.example"}
        assert recorded_zones(self.LINES + [extra], 1) == {"a.example"}


class TestInstallReplay:
    def test_installs_round_trip_through_the_spec_dict(self):
        spec = SPEC.with_installs([(1, "b.example"), (0, "a.example")])
        assert spec.installs == ((0, "a.example"), (1, "b.example"))
        assert spec.installs_at(0) == ["a.example"]
        assert spec.installs_at(1) == ["b.example"]
        assert MonitorSpec.from_dict(spec.to_dict()) == spec

    def test_with_installs_deduplicates(self):
        spec = SPEC.with_installs([(0, "a.example")])
        assert spec.with_installs([(0, "a.example")]) == spec

    def test_pristine_spec_dict_stays_byte_stable(self):
        # No "installs" key unless the agent recorded one — old
        # monitor.json files and manifests must not change shape.
        assert "installs" not in SPEC.to_dict()
        assert MonitorSpec.from_dict(SPEC.to_dict()) == SPEC


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """A monitor root driven entirely through the CLI: baseline + one
    delta epoch, agent acting after each, telemetry streaming."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("agent-cli") / "mon"
    assert main([
        "monitor", "init", "--store", str(root),
        "--scale", "1e-6", "--seed", str(SEED),
        "--monitor-seed", "7", "--event-rate-scale", "20", "--telemetry",
    ]) == 0
    assert main([
        "monitor", "advance", "--store", str(root), "--epochs", "2", "--agent",
    ]) == 0
    return root


class TestAgentCli:
    def test_advance_with_agent_prints_the_summary_line(self, cli_root, capsys):
        from repro.cli import main

        assert main(["monitor", "advance", "--store", str(cli_root), "--agent"]) == 0
        out = capsys.readouterr().out
        assert "agent:" in out and "considered" in out

    def test_agent_run_is_idempotent(self, cli_root, capsys):
        from repro.cli import main

        assert main(["agent", "run", "--store", str(cli_root), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "0 zones considered" in out
        assert "already recorded" in out

    def test_agent_run_error_paths(self, cli_root, tmp_path, capsys):
        from repro.cli import main

        assert main(["agent", "run", "--store", str(cli_root), "--epoch", "99"]) == 1
        assert "not complete" in capsys.readouterr().err
        assert main(["agent", "run", "--store", str(tmp_path / "nowhere")]) == 2
        assert "cannot open monitor" in capsys.readouterr().err

    def test_agent_status_renders_the_convergence_report(self, cli_root, capsys):
        from repro.cli import main

        assert main(["agent", "status", "--store", str(cli_root)]) == 0
        out = capsys.readouterr().out
        assert "Zones secured per epoch" in out
        assert "Rejection breakdown" in out
        assert "decisions:" in out

    def test_agent_actions_filters_and_round_trips(self, cli_root, capsys):
        from repro.cli import main

        assert main([
            "agent", "actions", "--store", str(cli_root), "--action", "secured",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        parsed = [AgentAction.from_dict(json.loads(line)) for line in lines]
        assert parsed and all(a.action == SECURED for a in parsed)
        ledger = read_ledger(ledger_path(cli_root))
        assert parsed == [a for a in ledger if a.action == SECURED]

        assert main([
            "agent", "actions", "--store", str(cli_root), "--epoch", "0",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines == [a.to_line() for a in ledger if a.epoch == 0]

    def test_stats_on_a_monitor_root_renders_the_agent_section(self, cli_root, capsys):
        from repro.cli import main

        assert main(["campaign", "stats", "--store", str(cli_root)]) == 0
        out = capsys.readouterr().out
        assert "monitor timeline" in out
        assert "parental agent" in out
        assert "secured" in out
