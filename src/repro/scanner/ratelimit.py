"""Per-nameserver rate limiting on the simulated clock.

The paper limits each scan machine to 50 queries per second per
nameserver "to limit the impact of our scans on DNS operator's load".
A token bucket per destination address reproduces this.  The limiter
never waits itself: :meth:`RateLimiter.reserve` charges the bucket and
returns the deficit in simulated seconds, which the scan's one exchange
step (:mod:`repro.resolver.exchange`) yields to the scan loop as a
sleep — so scan-duration figures (App. D: "a scan duration of just over
a month") remain meaningful without real waiting, and other in-flight
zones run meanwhile.  :meth:`RateLimiter.acquire` is the synchronous
form: reserve, then advance the clock by the deficit.
"""

from __future__ import annotations

from typing import Dict

from repro.server.network import SimulatedClock

DEFAULT_QPS = 50.0


class RateLimiter:
    """Token bucket per destination address, driven by a simulated clock."""

    def __init__(self, clock: SimulatedClock, qps: float = DEFAULT_QPS, burst: float | None = None):
        if qps <= 0:
            raise ValueError("qps must be positive")
        self.clock = clock
        self.qps = qps
        self.burst = burst if burst is not None else qps
        # ip -> (tokens, last_refill_time)
        self._buckets: Dict[str, tuple[float, float]] = {}
        self.waits = 0
        self.total_wait_time = 0.0

    def reserve(self, ip: str) -> float:
        """Take one token for *ip*; returns the (simulated) seconds the
        caller must let pass before sending.

        The bucket is charged — and the grant timestamp reserved —
        *before* the caller waits, during which other in-flight tasks
        run.  A later contender for the same address then sees the
        reservation sitting in its future: the negative elapsed time
        charges it for the pending grant, so same-instant waiters are
        granted tokens exactly ``1/qps`` apart instead of double-spending
        one refill.  For a lone caller the arithmetic is identical to
        refill-then-wait.
        """
        now = self.clock.now()
        tokens, last = self._buckets.get(ip, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.qps)
        if tokens >= 1.0:
            self._buckets[ip] = (tokens - 1.0, now)
            return 0.0
        waited = (1.0 - tokens) / self.qps
        # Waiting exactly the deficit refills the bucket to one whole
        # token (or to the burst ceiling when burst < 1).
        self._buckets[ip] = (min(1.0, self.burst) - 1.0, now + waited)
        self.waits += 1
        self.total_wait_time += waited
        return waited

    def acquire(self, ip: str) -> float:
        """:meth:`reserve`, then advance the clock by the deficit."""
        waited = self.reserve(ip)
        if waited:
            self.clock.advance(waited)
        return waited
