"""Deterministic chaos plane (``repro.chaos``).

Seeded, simulated-clock-driven fault injection for measurement
campaigns, plus the retry/backoff policy that absorbs it:

* :class:`ChaosConfig` — the frozen fault model (i.i.d. packet loss,
  per-NS brownout windows, SERVFAIL bursts, added latency, truncation
  storms, flaky TCP) with lossless manifest round-trip;
* :class:`ChaosPlane` — the per-network injector, installed on
  :class:`repro.server.network.SimulatedNetwork` via ``network.chaos``;
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter, budgeted against the simulated clock, wired into the scanner
  and iterative-resolver query paths.

The headline invariant (enforced by ``tests/test_chaos.py``): a chaotic
campaign with retries enabled converges to the same classification
report as a fault-free campaign at the same seed and scale — sequential
or parallel — and residual failures are counted, never silently
dropped.  See :mod:`repro.chaos.plane` for why this is a theorem, not a
probability.
"""

from repro.chaos.config import ChaosConfig
from repro.chaos.plane import ChaosPlane, FaultDecision
from repro.chaos.retry import ONE_IMMEDIATE_RETRY, RetryPolicy, derive_seed, stable_unit

__all__ = [
    "ChaosConfig",
    "ChaosPlane",
    "FaultDecision",
    "ONE_IMMEDIATE_RETRY",
    "RetryPolicy",
    "derive_seed",
    "stable_unit",
]
