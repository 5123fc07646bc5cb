"""The scan driver (the model is in the package docstring; this is the
mechanism): a heap of ``(fire_time, seq)`` events resuming step
generators on the calling thread, ``seq`` a global push counter.

Before every slice the loop sets its clock to the running task's local
time, so the clock stays a plain number: limiter arithmetic, span stamps
and the fabric's own ``advance`` calls inside a slice read and move that
task's timeline.  The clock is the scan *machine's*: a network with a
clock of its own (a parallel worker's) accumulates fabric time there, as
in a serial scan.  No event fires in the past — sleeps are non-negative,
gate waiters wake no earlier than their releaser, a task the back-end
hands back is lifted to the frontier — and the loop checks it.

The *network* is the back-end: ``submit(exchange, task)`` returns the
response (or raises the failure thrown into the task) — or ``None``,
keeping the task until ``completions(block)`` hands it back as a
``(task, land)`` pair, ``land()`` then returning or raising likewise.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.sched.gate import Gate


class Exchange(NamedTuple):
    """Intent: send *wire* (the encoded *question*) to *ip*; the task is
    sent the decoded response or has the failure thrown in."""

    ip: str
    question: Any
    wire: Optional[bytes]
    tcp: bool = False
    timeout: float = 2.0


class Sleep(NamedTuple):
    """Intent: resume after *seconds* of simulated time."""

    seconds: float


Steps = Generator[Any, Any, Any]


class Task:
    """One cooperative unit of work (one zone scan)."""

    __slots__ = ("index", "steps", "now", "exchanges", "finished", "outcome")

    def __init__(self, index: int, start: float):
        self.index = index
        self.steps: Optional[Steps] = None
        self.now = start
        # Exchanges this task has issued — the per-zone ``queries_used``
        # (a global counter delta would count other tasks' traffic).
        self.exchanges = 0
        self.finished = False
        # ``(value, error)``: what the next slice is resumed with (sent
        # or thrown in) and, once finished, what the task ended with.
        self.outcome: Tuple[Any, Optional[BaseException]] = (None, None)


class EventLoop:
    """Run up to *max_in_flight* step generators on simulated time.

    *clock* defines the campaign duration (the rate-limiter clock);
    *network* answers the :class:`Exchange` intents.  Results from
    :meth:`map_iter` are yielded in **submission order** (out-of-order
    completions are buffered), so downstream consumers — store appends,
    checkpoints, progress events — observe exactly the sequence a serial
    scan would have produced.  *trace*, if given, collects one
    ``(fire_time, seq, task_index)`` tuple per fired event.
    """

    def __init__(self, clock, max_in_flight: int = 1, network=None, trace: Optional[list] = None):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.clock = clock
        self.max_in_flight = max_in_flight
        self.network = network
        self.trace = trace
        self._seq = 0
        self._active = False
        # Counters surfaced as sched.* telemetry.
        self.tasks_started = 0
        self.events = 0
        self.gate_waits = 0
        self.in_flight_peak = 0
        self.queue_peak = 0

    def map_iter(self, items: Iterable[Any], fn: Callable[[Any, Task], Steps]) -> Iterator[Any]:
        """Run ``fn(item, task)``'s steps for every item, up to
        *max_in_flight* at a time, yielding each return value in
        submission order as it becomes ready.  Abandoning the iterator
        closes every live generator (their ``finally`` blocks run)."""
        if self._active:
            raise RuntimeError("EventLoop is not reentrant")
        self._active = True
        self._heap: List[Tuple[float, int, Task]] = []
        self._tasks: List[Task] = []
        self._running = 0
        self._parked = 0  # tasks the back-end is keeping
        self._frontier = self.clock._now
        try:
            yield from self._drive(iter(items), fn)
        finally:
            for task in self._tasks:
                if not task.finished:
                    task.finished = True
                    self.clock._now = task.now
                    task.steps.close()
            self.clock._now = self._frontier
            self._active = False

    def run(self, items: Iterable[Any], fn: Callable[[Any, Task], Steps]) -> List[Any]:
        """Eager form of :meth:`map_iter`."""
        return list(self.map_iter(items, fn))

    def _drive(self, it: Iterator[Any], fn: Callable[[Any, Task], Steps]) -> Iterator[Any]:
        heap = self._heap
        pending = {}
        next_out = 0

        def admit(now: float) -> None:
            while self._running < self.max_in_flight:
                try:
                    item = next(it)
                except StopIteration:
                    return
                task = Task(len(self._tasks), now)
                task.steps = fn(item, task)
                self._tasks.append(task)
                self._running += 1
                self.tasks_started += 1
                if self._running > self.in_flight_peak:
                    self.in_flight_peak = self._running
                self._push(task)

        admit(self._frontier)
        while True:
            if self._parked:
                self._collect(block=not heap)
            if not heap:
                if self._parked:
                    continue
                break
            fire, seq, task = heapq.heappop(heap)
            if fire < self._frontier:
                raise RuntimeError(
                    f"event for task #{task.index} fires at {fire:.6f}, "
                    f"before the frontier {self._frontier:.6f}"
                )
            self.events += 1
            # The slice — and any consumer between yields (sinks,
            # progress events) — reads the task's time off the clock.
            self._frontier = self.clock._now = fire
            if self.trace is not None:
                self.trace.append((fire, seq, task.index))
            self._run_slice(task)
            if task.finished:
                self._running -= 1
                # The result is the consumer's from here: not kept alive
                # by the loop for the rest of the scan.
                pending[task.index], task.outcome = task.outcome, (None, None)
                admit(task.now)
                while next_out in pending:
                    value, error = pending.pop(next_out)
                    next_out += 1
                    if error is not None:
                        raise error
                    yield value
        if self._running:
            stuck = [t.index for t in self._tasks if not t.finished]
            raise RuntimeError(
                f"scheduler deadlock: task(s) {stuck} parked with an empty event queue"
            )

    def _run_slice(self, task: Task) -> None:
        """Resume *task* until its next intent, and act on that."""
        value, error = task.outcome
        try:
            intent = task.steps.throw(error) if error is not None else task.steps.send(value)
        except StopIteration as stop:
            task.finished, task.outcome = True, (stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001 - handed to the consumer, in order
            task.finished, task.outcome = True, (None, exc)
            return
        task.outcome = (None, None)
        kind = type(intent)
        if kind is Exchange:
            task.exchanges += 1
            self._settle(task, self.network.submit, intent, task)
        elif kind is Sleep:
            self._push(task, self.clock._now + intent.seconds)
        elif kind is Gate:
            self.gate_waits += 1
            intent.park(task, self)
        else:
            raise TypeError(f"task #{task.index} yielded {intent!r}, not an intent")

    def _settle(self, task: Task, answer: Callable[..., Any], *args: Any) -> None:
        """Queue *task* to resume with what *answer* returns or raises,
        at the time the clock reads afterwards — unless it returns
        ``None``: the back-end keeps the task until :meth:`_collect`."""
        try:
            response = answer(*args)
        except Exception as exc:  # noqa: BLE001 - thrown into the task
            task.outcome = (None, exc)
        else:
            if response is None:
                self._parked += 1
                return
            task.outcome = (response, None)
        self._push(task, self.clock._now)

    def _collect(self, block: bool) -> None:
        """Take back the tasks whose I/O the back-end has completed."""
        for task, land in self.network.completions(block):
            if not task.finished:  # else: a straggler of an abandoned scan
                self._parked -= 1
                self.clock._now = max(task.now, self._frontier)
                self._settle(task, land)

    def _push(self, task: Task, fire: Optional[float] = None) -> None:
        if fire is not None:
            task.now = fire
        heapq.heappush(self._heap, (task.now, self._seq, task))
        self._seq += 1
        if len(self._heap) > self.queue_peak:
            self.queue_peak = len(self._heap)

    def wake(self, waiters: List[Task]) -> None:
        """Gate release: resume *waiters* (FIFO) at the releaser's time."""
        for waiter in waiters:
            self._push(waiter, max(waiter.now, self.clock._now))


def run_steps(clock, network, steps: Steps) -> Any:
    """Run one step generator to completion on a loop of its own — what
    every synchronous facade (``scan_zone``, ``resolve``, …) does."""
    return EventLoop(clock, network=network).run((steps,), lambda item, task: item)[0]
