"""Pinning tests for RateLimiter token/wait accounting.

The limiter used to refill twice per throttled acquire (once in
``acquire`` and once more after advancing the clock), which made the
bookkeeping hard to reason about.  These tests pin the exact token
balances and wait statistics of the single-refill implementation.
"""

import pytest

from repro.scanner.ratelimit import RateLimiter
from repro.sched import EventLoop, Sleep
from repro.server.network import SimulatedClock

IP = "192.0.2.1"


def tokens(limiter: RateLimiter, ip: str = IP) -> float:
    return limiter._buckets[ip][0]


class TestTokenAccounting:
    def test_burst_drains_exactly(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=3)
        for expected in (2.0, 1.0, 0.0):
            assert limiter.acquire(IP) == 0.0
            assert tokens(limiter) == pytest.approx(expected)
        assert clock.now() == 0.0
        assert limiter.waits == 0
        assert limiter.total_wait_time == 0.0

    def test_throttled_acquire_waits_exact_deficit(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        assert limiter.acquire(IP) == 0.0  # bucket empty now
        waited = limiter.acquire(IP)
        # Deficit is one whole token at 10 qps -> 0.1 s.
        assert waited == pytest.approx(0.1)
        assert clock.now() == pytest.approx(0.1)
        # The wait buys exactly the one token that was then spent.
        assert tokens(limiter) == pytest.approx(0.0)

    def test_partial_tokens_shrink_the_wait(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        limiter.acquire(IP)
        clock.advance(0.04)  # regains 0.4 tokens
        waited = limiter.acquire(IP)
        assert waited == pytest.approx(0.06)
        assert tokens(limiter) == pytest.approx(0.0)

    def test_wait_statistics_accumulate(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        total = sum(limiter.acquire(IP) for _ in range(5))
        assert limiter.waits == 4
        assert limiter.total_wait_time == pytest.approx(total)
        assert limiter.total_wait_time == pytest.approx(0.4)
        assert clock.now() == pytest.approx(0.4)

    def test_fractional_burst_caps_the_refill(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=0.5)
        waited = limiter.acquire(IP)
        # Deficit from 0.5 tokens is 0.05 s, but the bucket can never
        # hold a full token: the balance goes negative and the next
        # acquire pays the larger deficit.
        assert waited == pytest.approx(0.05)
        assert tokens(limiter) == pytest.approx(-0.5)
        assert limiter.acquire(IP) == pytest.approx(0.15)

    def test_sustained_rate_is_exact(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=50)
        for _ in range(500):
            limiter.acquire(IP)
        # 50-token burst free, then 450 waits at 1/50 s each.
        assert clock.now() == pytest.approx(9.0)
        assert limiter.waits == 450

    def test_buckets_are_independent(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        limiter.acquire(IP)
        waited = limiter.acquire("192.0.2.2")
        assert waited == 0.0
        assert tokens(limiter, "192.0.2.2") == pytest.approx(0.0)


def paced(limiter, ip=IP):
    """The limiter's half of the scan's exchange step: reserve a token,
    yield the deficit to the loop as a sleep."""
    wait = limiter.reserve(ip)
    if wait:
        yield Sleep(wait)


class TestInterleavedWaiters:
    """Regression: the limiter used to assume callers arrive in strictly
    increasing clock order — true for a lone scan, false under the
    repro.sched event loop, where several tasks can contend for one
    bucket at the *same* simulated instant (the sleep suspends the
    task, letting the next contender read the bucket mid-wait).  The
    reservation charges the bucket and records the grant timestamp
    *before* the task yields, so same-instant contenders serialize at
    exactly 1/qps apart."""

    def test_same_instant_contenders_serialize_at_qps(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        loop = EventLoop(clock, max_in_flight=4)
        grants = []

        def fn(i, task):
            yield from paced(limiter)
            grants.append((i, clock.now()))

        loop.run(range(4), fn)
        # One burst token free at t=0, then the three waiters are
        # spaced exactly one token-regeneration apart — never two
        # grants inside the same 1/qps window.
        assert [t for _, t in grants] == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert [i for i, _ in grants] == [0, 1, 2, 3]
        assert limiter.waits == 3
        assert limiter.total_wait_time == pytest.approx(0.6)  # 0.1+0.2+0.3

    def test_interleaved_buckets_do_not_interfere(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        loop = EventLoop(clock, max_in_flight=4)
        grants = {}

        def fn(i, task):
            yield from paced(limiter, IP if i % 2 == 0 else "192.0.2.2")
            grants[i] = clock.now()

        loop.run(range(4), fn)
        # Two buckets, two contenders each: every bucket grants its
        # burst token at 0 and its one waiter at +1/qps.
        assert grants[0] == pytest.approx(0.0)
        assert grants[1] == pytest.approx(0.0)
        assert grants[2] == pytest.approx(0.1)
        assert grants[3] == pytest.approx(0.1)

    def test_concurrent_grant_schedule_matches_serial(self):
        serial_clock = SimulatedClock()
        serial = RateLimiter(serial_clock, qps=10, burst=1)
        for _ in range(6):
            serial.acquire(IP)

        clock = SimulatedClock()
        limiter = RateLimiter(clock, qps=10, burst=1)
        loop = EventLoop(clock, max_in_flight=6)

        loop.run(range(6), lambda i, task: paced(limiter))
        # The *grant schedule* is invariant: same number of throttled
        # acquires, same final clock (last grant at 0.5 s either way).
        # Per-caller waits legitimately differ — serial callers arrive
        # after the previous wait elapsed (each waits 0.1 s), while
        # concurrent callers all arrive at t=0 (waiter i waits i/qps).
        assert limiter.waits == serial.waits == 5
        assert clock.now() == pytest.approx(serial_clock.now())
        assert serial.total_wait_time == pytest.approx(0.5)
        assert limiter.total_wait_time == pytest.approx(1.5)
