"""One deterministic driver for every scan.

The paper's YoDNS deployment finishes 287.6 M zones in about a month
only because thousands of queries are in flight at once.  Here a scan —
one zone or a campaign, simulated fabric or real sockets — is:

* **step generators**: scan code yields the three things it can wait
  for — an :class:`Exchange`, a :class:`Sleep`, a :class:`Gate` — instead
  of calling the network or the clock;
* **one** :class:`EventLoop` resuming them from a heap of ``(fire_time,
  seq)`` events on the calling thread, up to ``max_in_flight`` at a time,
  so zones overlap their query RTTs, retry backoffs and rate-limiter
  waits.  The heap alone decides the interleaving (FIFO on ties): same
  inputs, same schedule, on any machine.  One task (``in_flight=1``,
  :func:`run_steps`, every synchronous facade) *is* the serial scan;
* **two back-ends** answering exchanges — the network itself: the
  simulated fabric on the spot, the socket transport when bytes return
  (the loop's ``completions`` call is what services the sockets: the
  scan and its I/O share this one thread);
* :class:`FlightMap`: single-flight admission to the scanner's shared
  memo caches, so a key is computed once however many tasks need it.

Abandoning a scan (``stop_after``, a closed iterator) closes the live
generators: spans exit and claims release through ordinary ``finally``.
Invariant (``tests/test_sched.py``): any ``in_flight`` renders Tables
1–3 and Figure 1 byte-identical to the serial campaign.
"""

from repro.sched.gate import FlightMap, Gate
from repro.sched.loop import EventLoop, Exchange, Sleep, Task, run_steps

__all__ = [
    "EventLoop",
    "Exchange",
    "FlightMap",
    "Gate",
    "Sleep",
    "Task",
    "run_steps",
]
