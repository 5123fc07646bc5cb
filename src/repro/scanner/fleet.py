"""Multi-machine scan campaigns (§3 / App. D).

The paper's scan ran "just over a month" across multiple scan machines,
each individually limited to 50 qps per nameserver.  A
:class:`ScanFleet` reproduces that arrangement: the zone list is
partitioned across *machines*, each machine is a full scanner with its
*own* rate-limiter clock (machines wait independently), and the
campaign's wall-clock duration is the slowest machine's simulated time.

This makes the feasibility arithmetic concrete: doubling the fleet
roughly halves the duration until per-nameserver contention dominates
(every machine may send a given NS 50 qps — the paper's limit is per
machine, which is why operators like Cloudflare see more).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dns.name import Name
from repro.scanner.ratelimit import RateLimiter
from repro.scanner.results import ZoneScanResult
from repro.scanner.yodns import Scanner, ScannerConfig
from repro.server.network import SimulatedClock


@dataclass
class MachineReport:
    """One scan machine's share of the campaign."""

    index: int
    zones: int
    queries: int
    duration: float  # simulated seconds on this machine's clock


def give_own_clock(scanner: Scanner) -> SimulatedClock:
    """Make *scanner* a scan machine: its rate limiter waits on its
    *own* simulated clock, and its spans are stamped with it.

    This is the shared machine model of the paper's fleet (App. D): both
    the in-process :class:`ScanFleet` simulation and the multiprocess
    workers of :mod:`repro.parallel` come through here, so per-machine
    durations always come from an independent clock — rate-limit stalls
    on one machine never advance another machine's time.
    """
    clock = SimulatedClock()
    scanner.limiter = RateLimiter(clock)
    scanner.resolver.limiter = scanner.limiter
    scanner.telemetry.bind_clock(clock)
    return clock


@dataclass
class FleetReport:
    """Campaign outcome across the whole fleet."""

    machines: List[MachineReport] = field(default_factory=list)
    results: List[ZoneScanResult] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock of the campaign = the slowest machine."""
        return max((m.duration for m in self.machines), default=0.0)

    @property
    def total_queries(self) -> int:
        return sum(m.queries for m in self.machines)

    @property
    def duration_days(self) -> float:
        return self.duration / 86_400


class ScanFleet:
    """Partition a scan list across independent scan machines."""

    def __init__(
        self,
        world,
        machines: int = 4,
        config: Optional[ScannerConfig] = None,
    ):
        if machines < 1:
            raise ValueError("a fleet needs at least one machine")
        self.world = world
        self.machine_count = machines
        self._scanners: List[Scanner] = []
        self._clocks: List[SimulatedClock] = []
        for _ in range(machines):
            scanner = Scanner(world.network, world.root_ips, config or world.scanner_config())
            self._scanners.append(scanner)
            self._clocks.append(give_own_clock(scanner))

    def partition(self, zones: Sequence[Name]) -> List[List[Name]]:
        """Deterministic round-robin partition of the zone list."""
        shares: List[List[Name]] = [[] for _ in range(self.machine_count)]
        for index, zone in enumerate(zones):
            shares[index % self.machine_count].append(zone)
        return shares

    def scan(self, zones: Optional[Sequence[Name]] = None) -> FleetReport:
        """Run the campaign; returns per-machine stats and all results."""
        zones = list(zones if zones is not None else self.world.scan_list)
        report = FleetReport()
        queries_before = self.world.network.queries_sent
        for index, share in enumerate(self.partition(zones)):
            scanner = self._scanners[index]
            start_queries = self.world.network.queries_sent
            results = scanner.scan_many(share)
            report.results.extend(results)
            report.machines.append(
                MachineReport(
                    index=index,
                    zones=len(share),
                    queries=self.world.network.queries_sent - start_queries,
                    duration=self._clocks[index].now(),
                )
            )
        assert report.total_queries == self.world.network.queries_sent - queries_before
        return report

