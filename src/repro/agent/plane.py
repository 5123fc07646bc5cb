"""The RFC 9615 parental agent: re-authenticate, provision, verify.

The paper measures zones that *signal* readiness for bootstrapping;
the agent closes the loop.  After a monitor epoch completes, it walks
the merged scan verdicts, re-scans every signalling zone against a
fresh replica of that epoch's world, re-derives the full bootstrapping
assessment (signal-zone DNSSEC validation down from the root, CDS
consistency across all NSes — the exact pipeline in
:mod:`repro.core.bootstrap`), and hands it to the two things
:mod:`repro.provisioning` owns: the acceptance ladder
(:func:`~repro.provisioning.policies.decide`) and the per-zone
install → re-scan → roll-back step
(:func:`~repro.provisioning.engine.provision_zone`).  This module holds
no acceptance rule and edits no registry zone itself.

Determinism is the load-bearing property.  ``decide`` is a pure
function of the assessment; candidates are visited in sorted
order; the replica world is rebuilt from the composed
:class:`~repro.monitor.MonitorSpec` exactly the way every campaign
participant rebuilds it.  The ledger an agent-driven chain writes is
therefore byte-identical across serial / ``workers=N`` /
kill-and-resume layouts — the same invariant every other plane pins.
"""

from __future__ import annotations

from typing import Optional

from repro.agent.actions import (
    REJECTED,
    SECURED,
    AgentAction,
    AgentRun,
    append_actions,
    ledger_path,
    read_ledger,
    recorded_zones,
    secured_pairs,
)
from repro.core.bootstrap import SignalOutcome, assess_zone
from repro.obs.telemetry import as_telemetry
from repro.provisioning.engine import provision_zone
from repro.provisioning.policies import VERIFICATION_FAILED, decide


class AgentError(Exception):
    """The agent cannot act (incomplete epoch, broken chain, ...)."""


class Agent:
    """The RFC 9615 parental agent.

    ``agent.run(monitor)`` acts on the monitor's newest completed
    epoch: every zone the merged analysis shows publishing signal
    records is re-scanned in a fresh replica of that epoch's world,
    decided by ``decide``, and — on accept — provisioned and verified
    by ``provision_zone``'s immediate re-scan (RFC 8078 §3: a DS that
    does not produce a SECURE chain is rolled back, never left
    broken).  Every decision is appended to the monitor root's
    ``agent/actions.jsonl`` ledger; verified installs also land in the
    replay ledger (:meth:`MonitorSpec.with_installs`) so the next delta
    epoch re-scans them and confirms island → secured.
    """

    def run(self, monitor, epoch: Optional[int] = None, telemetry=None) -> AgentRun:
        """Act on *epoch* (default: newest complete) of *monitor*."""
        hub = as_telemetry(telemetry)
        completed = monitor.completed_epochs()
        if not completed:
            raise AgentError("monitor has no completed epoch to act on")
        if epoch is None:
            epoch = completed[-1]
        if epoch not in completed:
            raise AgentError(f"epoch {epoch} is not complete")

        path = ledger_path(monitor.root)
        ledger = read_ledger(path)
        already = recorded_zones(ledger, epoch)

        candidates = sorted(
            zone
            for zone, verdict in monitor.classifications(epoch=epoch).items()
            if verdict.outcome != SignalOutcome.NO_SIGNAL
        )
        run = AgentRun(epoch=epoch)

        config = monitor.config
        spec = config.monitor.with_installs(secured_pairs(ledger))
        from repro.monitor.timeline import world_at_epoch

        world, _ = world_at_epoch(config.scale, config.seed, spec, epoch)
        hub.bind_clock(world.network.clock)
        scanner = world.make_scanner(telemetry=hub)

        with hub.span("agent_epoch", epoch=epoch):
            for dotted in candidates:
                zone = dotted.rstrip(".")
                if zone in already:
                    run.skipped += 1
                    continue
                run.considered += 1
                hub.count("agent.considered")
                run.actions.append(self._act(world, scanner, zone, epoch, hub))
        append_actions(path, run.actions)
        for action in run.actions:
            hub.count(f"agent.reason.{action.reason}")
        hub.count("agent.secured", len(run.secured))
        hub.count("agent.rejected", len(run.rejected))
        hub.count("agent.epochs_acted")
        return run

    def _act(self, world, scanner, zone: str, epoch: int, hub) -> AgentAction:
        """Decide one zone; provision + verify on accept."""

        def scan(name: str):
            hub.count("agent.rescans")
            return scanner.scan_zone(name)

        assessment = assess_zone(scan(zone))
        accept, reason = decide(assessment)
        installed = []
        if accept:
            failure, installed = provision_zone(world, scan, assessment)
            if failure == VERIFICATION_FAILED:
                hub.count("agent.rollbacks")
            reason = failure or reason
        ds = tuple(
            sorted(
                f"{r.key_tag} {int(r.algorithm)} {int(r.digest_type)} {r.digest.hex()}"
                for r in installed
            )
        )
        return AgentAction(
            zone=zone, epoch=epoch, action=SECURED if ds else REJECTED, reason=reason, ds=ds
        )
