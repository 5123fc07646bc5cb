"""The scan engine (modelled on YoDNS, van Rijswijk-Deij et al. / Steurer
et al.): full dependency-tree resolution and all-nameserver querying.

For each zone the scanner:

1. captures the parent-side delegation (NS names + DS RRset) from the
   registry, walking referrals from the root;
2. resolves every NS hostname to all of its addresses;
3. applies the anycast sampling policy (§3: 2 of 12 addresses for 95 %
   of Cloudflare zones);
4. queries SOA / NS / DNSKEY from a responsive server and CDS / CDNSKEY
   from *every* selected server address;
5. for each NS hostname, locates the RFC 9615 signaling name
   ``_dsboot.<zone>._signal.<ns>``, queries its CDS from every server of
   the signaling zone, probes for forbidden zone cuts, and collects the
   chain of trust from the root to the signaling zone apex.

All traffic obeys a per-address token-bucket rate limit on the simulated
clock (50 qps, §3).

The scan is written as step generators (:mod:`repro.sched`): the
``_*_steps`` methods yield their queries and waits, and one event loop
drives them — ``config.in_flight`` zones at a time in :meth:`scan_iter`,
a single task behind every synchronous entry point (:meth:`scan_zone`,
:meth:`query_one`, :meth:`collect_chain`).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.chaos.retry import ONE_IMMEDIATE_RETRY, RetryPolicy
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import RRSIG
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.obs.telemetry import as_telemetry
from repro.resolver.cache import DnsCache
from repro.resolver.iterative import IterativeResolver, ResolutionError
from repro.scanner.ratelimit import RateLimiter
from repro.scanner.results import (
    ChainLink,
    QueryStatus,
    RRQueryResult,
    SignalScan,
    ZoneScanResult,
    make_signal_name,
)
from repro.scanner.sampling import AnycastSamplingPolicy
from repro.sched import EventLoop, FlightMap, Task, run_steps
from repro.server.network import SimulatedNetwork


@dataclass
class ScannerConfig:
    """Tunable scan parameters (paper defaults)."""

    anycast_ns_suffixes: List[Name] = field(default_factory=list)
    full_scan_fraction: float = 0.05
    # Retry/backoff policy (repro.chaos).  The default is one immediate
    # re-attempt, no backoff, so fault-free campaigns keep their exact
    # query counts and simulated durations.
    retry_policy: RetryPolicy = ONE_IMMEDIATE_RETRY
    # Zones in flight per scan machine (repro.sched): 1 is the serial
    # scan; N > 1 overlaps up to N zones' query RTTs, retry backoffs and
    # rate-limiter waits on the deterministic event loop.  Reports are
    # byte-identical either way; only the simulated duration drops.
    in_flight: int = 1


@dataclass
class _SignalZoneInfo:
    """Cached facts about one signaling zone (shared by every customer
    zone behind the same NS hostname)."""

    apex: Optional[Name]
    server_pairs: List[Tuple[Name, str]]
    chain: List[ChainLink]
    error: Optional[str] = None


class Scanner:
    """Scans zones against a :class:`SimulatedNetwork`."""

    def __init__(
        self,
        network: SimulatedNetwork,
        root_ips: Sequence[str],
        config: Optional[ScannerConfig] = None,
        telemetry=None,
    ):
        self.network = network
        self.config = config or ScannerConfig()
        self.telemetry = as_telemetry(telemetry)
        self.cache = DnsCache(now=network.clock.now)
        self.limiter = RateLimiter(network.clock)
        self.retry = self.config.retry_policy
        self.resolver = IterativeResolver(
            network,
            root_ips,
            cache=self.cache,
            limiter=self.limiter,
            retry=self.retry,
        )
        # One retrying exchange step for the scanner's point queries and
        # the resolver's walk alike (one msg-id counter, one limiter
        # charge per datagram and per TCP retry).
        self.exchange = self.resolver.exchange
        self.sampling = AnycastSamplingPolicy(
            self.config.anycast_ns_suffixes, self.config.full_scan_fraction
        )
        self._signal_info_cache: Dict[Name, _SignalZoneInfo] = {}
        self._chain_cache: Dict[Name, List[ChainLink]] = {}
        self._address_cache: Dict[Name, List[str]] = {}
        # Memo-cache effectiveness counters (plain ints — cheap enough
        # to keep unconditionally; telemetry snapshots them at the end).
        self.address_cache_hits = 0
        self.address_cache_misses = 0
        self.signal_cache_hits = 0
        self.signal_cache_misses = 0
        self.chain_cache_hits = 0
        self.chain_cache_misses = 0
        # Retry accounting (repro.chaos): attempts beyond the first,
        # simulated seconds spent backing off, and queries abandoned
        # with every attempt timed out — the residual-failure counter
        # the differential chaos suite pins between run layouts.
        self.retry_attempts = 0
        self.retry_backoff_seconds = 0.0
        self.retry_abandoned = 0
        # Concurrency (repro.sched): per-key single-flight gates so two
        # in-flight zones never compute the same memo-cache entry twice,
        # plus the loop statistics telemetry snapshots at the end.
        self._flights = FlightMap()
        self.sched_tasks = 0
        self.sched_events = 0
        self.sched_gate_waits = 0
        self.sched_in_flight_peak = 0
        self.sched_queue_peak = 0

    #: The scanner's backoff jitter stream is the un-prefixed one.
    retry_key = ""

    @property
    def tcp_fallbacks(self) -> int:
        """RFC 7766 TCP retries after a truncated UDP answer (scanner
        and resolver traffic alike)."""
        return self.exchange.tcp_fallbacks

    def _run(self, steps: Generator):
        """Run *steps* to completion on a one-task loop."""
        return run_steps(self.limiter.clock, self.network, steps)

    # -- low-level query ------------------------------------------------------

    def query_one(self, ip: str, qname: Name, qtype: RRType) -> RRQueryResult:
        """Ask one server one question; classify the outcome.

        Retries follow :attr:`retry` (a :class:`repro.chaos.RetryPolicy`,
        see :meth:`repro.resolver.exchange.Exchanger.ask`).  A query
        whose every attempt timed out is *counted*
        (``retry_abandoned``), never silently dropped.
        """
        return self._run(self._query_one_steps(ip, qname, qtype))

    def _query_one_steps(self, ip: str, qname: Name, qtype: RRType) -> Generator:
        response, _ = yield from self.exchange.ask(self, ip, qname, qtype)
        if response is None:
            self.retry_abandoned += 1
            return RRQueryResult(QueryStatus.TIMEOUT)
        return self._classify(response, qname, qtype)

    @staticmethod
    def _classify(response: Message, qname: Name, qtype: RRType) -> RRQueryResult:
        if response.rcode == Rcode.NXDOMAIN:
            return RRQueryResult(QueryStatus.NXDOMAIN, rcode=response.rcode)
        if response.rcode != Rcode.NOERROR:
            return RRQueryResult(QueryStatus.ERROR, rcode=response.rcode)
        rrset = response.get_rrset(response.answer, qname, qtype)
        rrsigs: List[RRSIG] = []
        sig_rrset = response.get_rrset(response.answer, qname, RRType.RRSIG)
        if sig_rrset is not None:
            rrsigs = [
                rd
                for rd in sig_rrset.rdatas
                if isinstance(rd, RRSIG) and int(rd.type_covered) == int(qtype)
            ]
        return RRQueryResult(QueryStatus.OK, rcode=response.rcode, rrset=rrset, rrsigs=rrsigs)

    # -- address resolution with cache ------------------------------------------

    def _memo(
        self, kind: str, cache: Dict[Name, Any], key: Name, compute: Callable[[Name], Generator]
    ) -> Generator:
        """The single-flight memo step behind the address, chain and
        signal-zone caches: a hit returns (and counts
        ``<kind>_cache_hits``); otherwise the first task to claim the key
        runs ``compute(key)`` and stores it while later askers wait and
        then re-check — no entry is ever computed twice."""
        hits, misses = f"{kind}_cache_hits", f"{kind}_cache_misses"
        while True:
            cached = cache.get(key)
            if cached is not None:
                setattr(self, hits, getattr(self, hits) + 1)
                return cached
            claim = yield from self._flights.claim((kind, key))
            if claim is None:
                continue  # waited on another task's computation; re-check
            with claim:
                setattr(self, misses, getattr(self, misses) + 1)
                cache[key] = value = yield from compute(key)
                return value

    def _addresses_for(self, ns_host: Name) -> Generator:
        return self._memo(
            "address", self._address_cache, ns_host, self.resolver.resolve_addresses_steps
        )

    # -- chain collection ------------------------------------------------------------

    def collect_chain(self, apex: Name) -> List[ChainLink]:
        """DS/DNSKEY pairs for every zone from the root down to *apex*.

        The root link has no DS (it is the trust anchor).  Results are
        memoised — signaling zones are shared by an operator's whole
        portfolio, so this is queried once per signaling zone.
        """
        return self._run(self._collect_chain_steps(apex))

    def _collect_chain_steps(self, apex: Name) -> Generator:
        return self._memo("chain", self._chain_cache, apex, self._collect_chain_spanned)

    def _collect_chain_spanned(self, apex: Name) -> Generator:
        with self.telemetry.span("chain_validate", apex=apex.to_text()) as span:
            links = yield from self._collect_chain_uncached(apex)
            span["links"] = len(links)
        return links

    def _collect_chain_uncached(self, apex: Name) -> Generator:
        links: List[ChainLink] = []
        servers = list(self.resolver.root_ips)
        current = Name.root()
        dnskey = yield from self._first_ok(servers, current, RRType.DNSKEY)
        links.append(
            ChainLink(current, None, [], dnskey.rrset if dnskey else None, dnskey.rrsigs if dnskey else [])
        )
        depth = 1
        while depth <= len(apex):
            candidate = apex.split(depth)
            try:
                step = yield from self.resolver.find_delegation_below_steps(
                    candidate, current, servers
                )
            except ResolutionError:
                break
            if step is not None:
                cut, ds_rrset, ds_rrsig_rrset, next_servers = step
                servers = next_servers or servers
            else:
                # No referral: the same servers may host both sides of the
                # cut.  A candidate owning an SOA is a zone apex; its DS
                # (if any) is answered from the parent zone.
                soa = yield from self._first_ok(servers, candidate, RRType.SOA)
                if soa is None or not soa.has_data or soa.rrset.name != candidate:
                    depth += 1
                    continue
                cut = candidate
                ds = yield from self._first_ok(servers, candidate, RRType.DS)
                ds_rrset = ds.rrset if ds else None
                ds_rrsig_rrset = None
                if ds is not None and ds.rrsigs:
                    ds_rrsig_rrset = RRset(candidate, RRType.RRSIG, 3600, ds.rrsigs)
            ds_rrsigs = [
                rd
                for rd in (ds_rrsig_rrset.rdatas if ds_rrsig_rrset else [])
                if isinstance(rd, RRSIG) and int(rd.type_covered) == int(RRType.DS)
            ]
            dnskey = yield from self._first_ok(servers, cut, RRType.DNSKEY)
            links.append(
                ChainLink(
                    cut,
                    ds_rrset,
                    ds_rrsigs,
                    dnskey.rrset if dnskey else None,
                    dnskey.rrsigs if dnskey else [],
                )
            )
            current = cut
            depth = len(cut) + 1
        return links

    def _first_ok(self, ips: Sequence[str], qname: Name, qtype: RRType) -> Generator:
        for ip in ips:
            result = yield from self._query_one_steps(ip, qname, qtype)
            if result.status == QueryStatus.OK:
                return result
        return None

    # -- the per-zone scan -------------------------------------------------------------

    def scan_zone(self, zone: Name | str) -> ZoneScanResult:
        """Scan one zone (steps 1–5 of the module docstring), as a lone task."""
        return EventLoop(self.limiter.clock, network=self.network).run(
            (zone,), self._scan_zone_steps
        )[0]

    def _scan_zone_steps(self, zone: Name | str, task: Task) -> Generator:
        """One zone's scan; *task* is the loop task it runs as, whose
        exchange count is the zone's ``queries_used`` (other in-flight
        zones' traffic does not leak in)."""
        zone = zone if isinstance(zone, Name) else Name.from_text(zone)
        result = ZoneScanResult(zone=zone)
        result.error = yield from self._scan_into(result)
        result.queries_used = task.exchanges
        return result

    def _scan_into(self, result: ZoneScanResult) -> Generator:
        """Fill *result* in; returns why the scan stopped short, if it did."""
        zone = result.zone
        try:
            delegation = yield from self.resolver.find_delegation_steps(zone)
        except ResolutionError as exc:
            return f"delegation: {exc}"

        result.parent = delegation.parent
        result.delegation_ns = delegation.nameserver_names
        if delegation.ds_rrset is not None:
            result.ds = RRQueryResult(
                QueryStatus.OK,
                rcode=Rcode.NOERROR,
                rrset=delegation.ds_rrset,
                rrsigs=[
                    rd
                    for rd in (delegation.ds_rrsigs.rdatas if delegation.ds_rrsigs else [])
                    if isinstance(rd, RRSIG) and int(rd.type_covered) == int(RRType.DS)
                ],
            )
        else:
            result.ds = RRQueryResult(QueryStatus.OK, rcode=Rcode.NOERROR, rrset=None)

        # Resolve every NS hostname (glue first, then the tree).
        ns_addresses: Dict[Name, List[str]] = {}
        for ns_host in result.delegation_ns:
            addresses = list(delegation.glue.get(ns_host, ())) or (
                yield from self._addresses_for(ns_host)
            )
            if addresses:
                ns_addresses[ns_host] = addresses
        result.ns_addresses = ns_addresses
        if not ns_addresses:
            return "no reachable nameserver addresses"

        pairs, result.sampled = self.sampling.select(zone, ns_addresses)

        # Child-side apex records from the first responsive server.
        for _, ip in pairs:
            soa = yield from self._query_one_steps(ip, zone, RRType.SOA)
            if soa.answered:
                result.soa = soa
                result.child_ns = yield from self._query_one_steps(ip, zone, RRType.NS)
                result.dnskey = yield from self._query_one_steps(ip, zone, RRType.DNSKEY)
                result.resolved = True
                break
        if not result.resolved:
            return "no authoritative server answered SOA"

        # CDS/CDNSKEY from every selected server address.
        for ns_host, ip in pairs:
            key = f"{ns_host.to_text()}@{ip}"
            result.cds_by_ns[key] = yield from self._query_one_steps(ip, zone, RRType.CDS)
            result.cdnskey_by_ns[key] = yield from self._query_one_steps(ip, zone, RRType.CDNSKEY)

        for ns_host in result.delegation_ns:
            result.signals.append((yield from self._scan_signal(zone, ns_host)))
        return None

    def scan_iter(
        self,
        zones: Iterable[Name | str],
        skip: Optional[Container[str]] = None,
        sink: Optional[Callable[[ZoneScanResult], None]] = None,
    ) -> Iterator[ZoneScanResult]:
        """Lazily scan *zones*, yielding each result as it completes.

        *skip* holds dotted zone texts (``Name.to_text()`` form) that are
        already persisted — a resumed campaign passes the store's
        completed set and only the remainder is scanned.  *sink* is a
        progress callback invoked with every fresh result before it is
        yielded; a checkpointing store uses it to persist-as-you-scan so
        an interrupted campaign keeps everything committed so far.

        With ``config.in_flight > 1`` up to that many zones are in
        flight at once on one event loop (:mod:`repro.sched`),
        overlapping their simulated waits, while results are still
        yielded in submission order — sinks, checkpoints, and the final
        report are byte-identical to the serial scan.  Abandoning the
        iterator closes every zone still in flight.
        """
        names = (zone if isinstance(zone, Name) else Name.from_text(zone) for zone in zones)
        if skip is not None:
            names = (name for name in names if name.to_text() not in skip)
        if self.config.in_flight > 1:
            results = self._scan_overlapped(names)
        else:
            # Zone by zone through the public entry point: the serial scan.
            results = (self._scan_spanned(name) for name in names)
        with closing(results):
            for result in results:
                if sink is not None:
                    sink(result)
                yield result

    def _scan_spanned(self, name: Name) -> ZoneScanResult:
        with self.telemetry.span("scan_zone", zone=name.to_text()) as span:
            result = self.scan_zone(name)
            span["queries"] = result.queries_used
        return result

    def _scan_overlapped(self, names: Iterator[Name]) -> Iterator[ZoneScanResult]:
        tel = self.telemetry

        def scan_one(name: Name, task: Task) -> Generator:
            with tel.span("scan_zone", zone=name.to_text()) as span:
                result = yield from self._scan_zone_steps(name, task)
                span["queries"] = result.queries_used
            return result

        # The loop runs on the rate-limiter clock — the one that defines
        # this machine's campaign duration — and the transport answers
        # its exchanges: the fabric at once, sockets as bytes come back.
        loop = EventLoop(
            self.limiter.clock, max_in_flight=self.config.in_flight, network=self.network
        )
        try:
            with tel.span("sched_loop", in_flight=self.config.in_flight) as span:
                yield from loop.map_iter(names, scan_one)
                span["tasks"] = loop.tasks_started
                span["events"] = loop.events
        finally:
            self.sched_tasks += loop.tasks_started
            self.sched_events += loop.events
            self.sched_gate_waits += loop.gate_waits
            self.sched_in_flight_peak = max(self.sched_in_flight_peak, loop.in_flight_peak)
            self.sched_queue_peak = max(self.sched_queue_peak, loop.queue_peak)

    def scan_many(
        self,
        zones: Iterable[Name | str],
        skip: Optional[Container[str]] = None,
        sink: Optional[Callable[[ZoneScanResult], None]] = None,
    ) -> List[ZoneScanResult]:
        """Eager form of :meth:`scan_iter` — same arguments, same
        semantics, one shared implementation so the two cannot drift."""
        return list(self.scan_iter(zones, skip=skip, sink=sink))

    # -- signal-zone scanning --------------------------------------------------------------

    def _signal_zone_info(self, ns_host: Name) -> Generator:
        return self._memo(
            "signal", self._signal_info_cache, ns_host, self._signal_zone_info_uncached
        )

    def _signal_zone_info_uncached(self, ns_host: Name) -> Generator:
        signal_root = Name((b"_signal",)).concatenate(ns_host)
        apex: Optional[Name] = None
        server_pairs: List[Tuple[Name, str]] = []
        chain: List[ChainLink] = []
        error: Optional[str] = None
        try:
            resolution = yield from self.resolver.resolve_steps(signal_root, RRType.SOA)
            if resolution.rrset(RRType.SOA) is not None:
                apex = signal_root
            else:
                # NODATA/NXDOMAIN: the enclosing apex is the SOA owner in
                # the authority section.
                for rrset in resolution.authority:
                    if int(rrset.rrtype) == int(RRType.SOA):
                        apex = rrset.name
                        break
            if apex is None:
                error = "no SOA found for signaling name"
            else:
                ns_resolution = yield from self.resolver.resolve_steps(apex, RRType.NS)
                ns_rrset = ns_resolution.rrset(RRType.NS)
                if ns_rrset is None:
                    error = "signal zone has no NS records"
                else:
                    addresses: Dict[Name, List[str]] = {}
                    for rdata in ns_rrset.rdatas:
                        target = getattr(rdata, "target", None)
                        if target is None:
                            continue
                        found = yield from self._addresses_for(target)
                        if found:
                            addresses[target] = found
                    # Anycast sampling applies to signaling zones too —
                    # they sit behind the same Cloudflare-style pools.
                    server_pairs, _ = self.sampling.select(apex, addresses)
                    chain = yield from self._collect_chain_steps(apex)
        except ResolutionError as exc:
            error = str(exc)
        return _SignalZoneInfo(apex=apex, server_pairs=server_pairs, chain=chain, error=error)

    def _scan_signal(self, zone: Name, ns_host: Name) -> Generator:
        signal_name = make_signal_name(zone, ns_host)
        scan = SignalScan(ns_host=ns_host, signal_name=signal_name)
        if signal_name is None:
            scan.name_too_long = True
            return scan
        info = yield from self._signal_zone_info(ns_host)
        scan.signal_zone_apex = info.apex
        scan.chain = info.chain
        if info.error is not None:
            scan.error = info.error
            return scan
        for host, ip in info.server_pairs:
            key = f"{host.to_text()}@{ip}"
            scan.cds_by_ip[key] = yield from self._query_one_steps(ip, signal_name, RRType.CDS)
            scan.cdnskey_by_ip[key] = yield from self._query_one_steps(
                ip, signal_name, RRType.CDNSKEY
            )
        if scan.any_cds:
            scan.zone_cuts = yield from self._probe_zone_cuts(signal_name, info)
        return scan

    def _probe_zone_cuts(self, signal_name: Name, info: _SignalZoneInfo) -> Generator:
        """Find unexpected zone cuts strictly between the signaling zone
        apex and the signaling name (RFC 9615 §4.2 forbids them)."""
        cuts: List[Name] = []
        if info.apex is None or not info.server_pairs:
            return cuts
        apex_depth = len(info.apex)
        for depth in range(apex_depth + 1, len(signal_name)):
            intermediate = signal_name.split(depth)
            for _, ip in info.server_pairs[:1]:
                answer = yield from self._query_one_steps(ip, intermediate, RRType.NS)
                if answer.has_data:
                    cuts.append(intermediate)
                break
        return cuts
