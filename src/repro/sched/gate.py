"""Single-flight coordination between in-flight tasks.

The scanner's memo caches (addresses, signal-zone info, trust chains)
and the resolver's address lookups assume "first caller computes, later
callers hit the cache".  With several zones in flight, two tasks can
need the same key while neither has finished computing it; without
coordination both would compute — doubling the query stream and breaking
the byte-identity invariant against the sequential scan.  With
:class:`FlightMap` the first task to claim a key computes and releases;
every other task waits on its :class:`Gate`, then re-checks the caller's
cache — observing exactly the hit a sequential second caller would have.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, ContextManager, Dict, Generator, Iterator, List, Optional


class Gate:
    """A one-shot wake-up: tasks yield it to wait, the owner releases.

    Waiters wake in arrival order (FIFO: same fire time, pushed in that
    order), each no earlier than the release instant — a waiter's clock
    is moved up to the releaser's, time only moves forward.
    """

    __slots__ = ("_waiters", "_loop")

    def __init__(self):
        self._waiters: List[Any] = []
        self._loop = None

    def park(self, task, loop) -> None:
        """Loop side of the wait intent: hold *task* until :meth:`release`."""
        self._waiters.append(task)
        self._loop = loop

    def release(self) -> None:
        """Wake every waiter at the releaser's current simulated time."""
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            self._loop.wake(waiters)


class FlightMap:
    """Per-key single-flight admission; the caller owns the cache::

        while True:
            if key in cache:
                return cache[key]                 # hit (possibly after a wait)
            claim = yield from flights.claim(key)
            if claim is not None:                 # else: waited; re-check
                with claim:
                    cache[key] = yield from compute()

    A lone task (every synchronous facade) always gets the claim at
    once: the gate is only ever yielded when another task holds the key.
    """

    __slots__ = ("_gates",)

    def __init__(self):
        self._gates: Dict[Any, Gate] = {}

    def claim(self, key: Any) -> Generator[Gate, None, Optional[ContextManager]]:
        """Claim *key* for computation (a step generator).

        Returns a context manager when the caller should compute (it
        releases the key on exit), or ``None`` after having waited for
        another task's computation — the caller then re-checks its cache.
        """
        gate = self._gates.get(key)
        if gate is None:
            gate = self._gates[key] = Gate()
            return self._held(key, gate)
        yield gate
        return None

    @contextmanager
    def _held(self, key: Any, gate: Gate) -> Iterator[None]:
        try:
            yield
        finally:
            # Released on success, on failure *and* when the scan is
            # abandoned (the holder is closed): a waiter re-checks the
            # cache and, finding it still cold, claims the key itself —
            # sequential retry semantics, never a stuck gate.
            del self._gates[key]
            gate.release()
