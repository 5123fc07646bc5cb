"""The fault-injection plane threaded through :class:`SimulatedNetwork`.

For every outgoing query the network asks the plane for a
:class:`FaultDecision`.  Decisions are a pure function of the chaos
seed, the query key ``(ip, qname, qtype)``, and how many times that key
has been asked — **not** of global interleaving — so the faults one
zone's scan experiences do not depend on which zones were scanned
before it or on which worker scans it.  That per-key stream discipline
is what lets a parallel chaotic campaign and a sequential one converge
to the same report: each worker's decisions for its shard buckets are
the same decisions the sequential run makes for those queries.

The plane also enforces the fairness bound
(:attr:`ChaosConfig.max_consecutive`): once a key has absorbed that
many consecutive faults — counted per asking task when zone scans run
concurrently — the next exchange passes through untouched and the
streak resets.  Combined with a retry policy whose attempt count
exceeds the bound, convergence under chaos is a theorem — the
differential suite in ``tests/test_chaos.py`` holds it up against every
fault kind at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.chaos.config import ChaosConfig
from repro.chaos.retry import stable_unit

# Fault kinds, in injection-precedence order (first match wins among the
# mutually-exclusive response faults; latency composes with any of them).
FAULT_BROWNOUT = "brownout"
FAULT_LOSS = "loss"
FAULT_TCP_LOSS = "tcp_loss"
FAULT_SERVFAIL = "servfail"
FAULT_TRUNCATION = "truncation"
FAULT_LATENCY = "latency"


@dataclass
class FaultDecision:
    """What the plane does to one query exchange."""

    kind: Optional[str] = None  # the response fault, if any
    drop: bool = False  # swallow the datagram (NetworkTimeout)
    servfail: bool = False  # answer SERVFAIL instead of the server
    truncate: bool = False  # answer with TC=1 (forces TCP fallback)
    latency: float = 0.0  # extra simulated seconds, composable


#: The shared no-fault decision (the common case under the fairness cap).
CLEAN = FaultDecision()

_Key = Tuple[str, bytes, int]


class ChaosPlane:
    """Composable, seeded fault injection over one simulated network."""

    def __init__(self, config: ChaosConfig, clock):
        self.config = config
        self.clock = clock
        # Per-key occurrence counter: the index into that key's fault
        # stream.  Keys are (ip, canonical qname, qtype) — deliberately
        # excluding UDP/TCP so a truncation fault and the flaky-TCP
        # fault that follows it share one fairness streak.
        self._occurrences: Dict[_Key, int] = {}
        self._streak: Dict[object, int] = {}
        # Accounting (plain ints; telemetry snapshots them at the end).
        self.decisions = 0
        self.suppressed = 0  # faults withheld by the fairness bound
        self.faults: Dict[str, int] = {}

    # -- the decision ------------------------------------------------------

    def decide(
        self, ip: str, qname_key: bytes, qtype: int, tcp: bool, asker: Optional[int] = None
    ) -> FaultDecision:
        """The plane's verdict for one exchange (see module docs);
        *asker* is the in-flight task asking (its index in the scan
        loop), ``None`` for a caller outside any scan."""
        config = self.config
        self.decisions += 1
        key = (ip, qname_key, qtype)
        n = self._occurrences.get(key, 0)
        self._occurrences[key] = n + 1

        latency = 0.0
        if config.latency:
            u = stable_unit(config.seed, FAULT_LATENCY, key, n)
            if u < 0.5:
                # Half of all queries see added latency, mean 2×latency
                # on the affected half (overall mean = config.latency).
                latency = config.latency * 4.0 * u
                self.faults[FAULT_LATENCY] = self.faults.get(FAULT_LATENCY, 0) + 1

        # The streak belongs to the asking task's retry loop: concurrent
        # zone scans retrying one key must not spend each other's pass.
        streak_key = (key, asker)
        streak = self._streak.get(streak_key, 0)
        kind = self._response_fault(key, n, ip, tcp, streak)
        if kind is None:
            self._streak[streak_key] = 0
            if latency:
                return FaultDecision(latency=latency)
            return CLEAN

        self._streak[streak_key] = streak + 1
        self.faults[kind] = self.faults.get(kind, 0) + 1
        return FaultDecision(
            kind=kind,
            drop=kind in (FAULT_BROWNOUT, FAULT_LOSS, FAULT_TCP_LOSS),
            servfail=kind == FAULT_SERVFAIL,
            truncate=kind == FAULT_TRUNCATION,
            latency=latency,
        )

    def _response_fault(self, key: _Key, n: int, ip: str, tcp: bool, streak: int) -> Optional[str]:
        config = self.config
        if config.max_consecutive and streak >= config.max_consecutive:
            # Fairness bound: this key has absorbed its streak; let the
            # exchange through so retries provably converge.
            self.suppressed += 1
            return None
        if self._in_brownout(ip):
            return FAULT_BROWNOUT
        if tcp:
            if config.tcp_loss and stable_unit(config.seed, FAULT_TCP_LOSS, key, n) < config.tcp_loss:
                return FAULT_TCP_LOSS
            # SERVFAIL bursts hit TCP too; truncation is UDP-only.
            if config.servfail and stable_unit(config.seed, FAULT_SERVFAIL, key, n) < config.servfail:
                return FAULT_SERVFAIL
            return None
        if config.loss and stable_unit(config.seed, FAULT_LOSS, key, n) < config.loss:
            return FAULT_LOSS
        if config.servfail and stable_unit(config.seed, FAULT_SERVFAIL, key, n) < config.servfail:
            return FAULT_SERVFAIL
        if config.truncation and stable_unit(config.seed, FAULT_TRUNCATION, key, n) < config.truncation:
            return FAULT_TRUNCATION
        return None

    def _in_brownout(self, ip: str) -> bool:
        """Clock-driven per-address outage windows.

        Affected addresses (a seeded ``brownout_fraction`` subset) go
        dark for ``brownout_duration`` seconds out of every
        ``brownout_period``, with a per-address phase so outages are
        staggered rather than synchronised.
        """
        config = self.config
        if not (config.brownout_period and config.brownout_duration and config.brownout_fraction):
            return False
        if stable_unit(config.seed, "brownout-select", ip) >= config.brownout_fraction:
            return False
        phase = stable_unit(config.seed, "brownout-phase", ip) * config.brownout_period
        return (self.clock.now() + phase) % config.brownout_period < config.brownout_duration

    # -- accounting --------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Counter snapshot in telemetry key space."""
        out: Dict[str, float] = {
            "chaos.decisions": self.decisions,
            "chaos.suppressed": self.suppressed,
        }
        for kind, count in self.faults.items():
            out[f"chaos.faults.{kind}"] = count
        return out

    def __repr__(self) -> str:
        injected = sum(self.faults.values())
        return f"<ChaosPlane decisions={self.decisions} faults={injected}>"
