"""Typed agent decisions and the append-only actions ledger.

Every zone the parental agent considers produces exactly one
:class:`AgentAction` — ``secured`` when a DS was provisioned and the
verification re-scan confirmed the full chain, ``rejected`` otherwise,
always carrying a stable machine-readable reason code.  Actions are
persisted to ``<monitor-root>/agent/actions.jsonl``, one sorted-key
JSON object per line with no timestamps, so the ledger is byte-stable
across runs, layouts, and ``PYTHONHASHSEED``.

Crash safety follows the store idiom: appends first truncate a torn
(non-newline-terminated) tail left by a killed process, then write
whole lines and fsync.  Re-runs are idempotent — zones already
recorded for an epoch are skipped, never re-appended.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.obs.events import truncate_torn_tail
from repro.provisioning.policies import CHAIN_AUTHENTICATED, LADDER, VERIFICATION_FAILED

AGENT_DIR = "agent"
ACTIONS_FILENAME = "actions.jsonl"

# Actions.
SECURED = "secured"
REJECTED = "rejected"

# Every reason an action may carry: the accept code, the post-install
# outcome, and each rejection the acceptance ladder can name.  The
# strings are the ledger contract and must never be renamed.
REASON_CODES = frozenset(
    {CHAIN_AUTHENTICATED, VERIFICATION_FAILED, *(reason for reason, _, _ in LADDER)}
)


class LedgerError(Exception):
    """A ledger line that is not a well-formed AgentAction."""


@dataclass(frozen=True)
class AgentAction:
    """One accept/reject decision, as recorded in the ledger."""

    zone: str  # bare name, matching the monitor event stream
    epoch: int  # the completed epoch whose scan the agent acted on
    action: str  # SECURED | REJECTED
    reason: str  # a REASON_CODES member
    ds: Tuple[str, ...] = ()  # provisioned DS rdatas (secured only)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "action": self.action,
            "epoch": self.epoch,
            "reason": self.reason,
            "zone": self.zone,
        }
        if self.ds:
            out["ds"] = list(self.ds)
        return out

    def to_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "AgentAction":
        try:
            action = cls(
                zone=str(obj["zone"]),
                epoch=int(obj["epoch"]),
                action=str(obj["action"]),
                reason=str(obj["reason"]),
                ds=tuple(str(d) for d in obj.get("ds", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed ledger entry: {obj!r}") from exc
        if action.action not in (SECURED, REJECTED):
            raise LedgerError(f"unknown action {action.action!r}")
        if action.reason not in REASON_CODES:
            raise LedgerError(f"unknown reason code {action.reason!r}")
        return action


def ledger_path(monitor_root) -> Path:
    """``<monitor-root>/agent/actions.jsonl``."""
    return Path(monitor_root) / AGENT_DIR / ACTIONS_FILENAME


def read_ledger(path) -> List[AgentAction]:
    """All recorded actions, in append order.

    A torn final line (a crash mid-append) is ignored; corruption
    anywhere else raises :class:`LedgerError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    data = path.read_bytes()
    lines = data.split(b"\n")
    torn_tail = lines.pop() if lines else b""
    actions: List[AgentAction] = []
    for index, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            actions.append(AgentAction.from_dict(json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise LedgerError(f"{path}:{index + 1}: undecodable ledger line") from exc
    if torn_tail.strip():
        # No trailing newline: the writer died mid-line.  The entry was
        # never durable, so the reader treats it as absent; the next
        # append truncates it.
        pass
    return actions


def append_actions(path, actions: Sequence[AgentAction]) -> None:
    """Durably append *actions*, truncating any torn tail first."""
    if not actions:
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:
        truncate_torn_tail(fh)
        for action in actions:
            fh.write(action.to_line().encode("utf-8") + b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def recorded_zones(actions: Sequence[AgentAction], epoch: int) -> Set[str]:
    """Zones already decided for *epoch* (idempotent re-run skip set)."""
    return {a.zone for a in actions if a.epoch == epoch}


def secured_pairs(actions: Sequence[AgentAction]) -> List[Tuple[int, str]]:
    """``(epoch, zone)`` install pairs for
    :meth:`repro.monitor.MonitorSpec.with_installs`."""
    return sorted((a.epoch, a.zone) for a in actions if a.action == SECURED)


@dataclass
class AgentRun:
    """The outcome of one :meth:`repro.agent.Agent.run` invocation."""

    epoch: int
    considered: int = 0
    actions: List[AgentAction] = field(default_factory=list)
    skipped: int = 0  # already recorded for this epoch (idempotent re-run)

    @property
    def secured(self) -> List[str]:
        return [a.zone for a in self.actions if a.action == SECURED]

    @property
    def rejected(self) -> List[AgentAction]:
        return [a for a in self.actions if a.action == REJECTED]
