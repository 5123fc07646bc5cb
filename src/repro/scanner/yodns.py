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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chaos.retry import RetryPolicy
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rdata import RRSIG
from repro.dns.rrset import RRset
from repro.dns.types import Rcode, RRType
from repro.obs.telemetry import as_telemetry
from repro.resolver.cache import DnsCache
from repro.resolver.iterative import IterativeResolver, ResolutionError
from repro.scanner.ratelimit import DEFAULT_QPS, RateLimiter
from repro.scanner.results import (
    ChainLink,
    QueryStatus,
    RRQueryResult,
    SignalScan,
    ZoneScanResult,
    make_signal_name,
)
from repro.scanner.sampling import AnycastSamplingPolicy
from repro.sched import FlightMap, active_loop
from repro.server.network import NetworkTimeout, SimulatedNetwork


@dataclass
class ScannerConfig:
    """Tunable scan parameters (paper defaults)."""

    qps_per_ns: float = DEFAULT_QPS
    timeout: float = 2.0
    scan_signals: bool = True
    probe_zone_cuts: bool = True
    anycast_ns_suffixes: List[Name] = field(default_factory=list)
    full_scan_fraction: float = 0.05
    # Retry/backoff policy (repro.chaos).  The default is the legacy
    # behaviour: one immediate re-attempt, no backoff, so fault-free
    # campaigns keep their exact query counts and simulated durations.
    retry_policy: RetryPolicy = RetryPolicy.legacy()
    # Concurrent in-flight zones per scan machine (repro.sched).  None
    # keeps the legacy serial loop; N >= 1 runs the scan on a
    # deterministic event loop with up to N zones overlapping their
    # query RTTs, retry backoffs, and rate-limiter waits.  Reports are
    # byte-identical either way; only the simulated duration drops.
    in_flight: Optional[int] = None


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
        self.limiter = RateLimiter(network.clock, qps=self.config.qps_per_ns)
        self.retry = self.config.retry_policy
        self.resolver = IterativeResolver(
            network,
            root_ips,
            cache=self.cache,
            timeout=self.config.timeout,
            limiter=self.limiter,
            retry=self.retry,
        )
        self.sampling = AnycastSamplingPolicy(
            self.config.anycast_ns_suffixes, self.config.full_scan_fraction
        )
        self._msg_id = 0
        self.tcp_fallbacks = 0
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
        # (qname, qtype) -> (query message, encoded wire with msg_id 0).
        # The same question is asked of every selected server address, so
        # encoding once and patching the 2-byte id saves a full wire
        # encode per address.  Reuse is temporally local (within one
        # zone's scan), so the cache is cleared when it grows large.
        self._query_wire_cache: Dict[Tuple[Name, int], Tuple[Message, bytes]] = {}

    _QUERY_WIRE_CACHE_MAX = 2048

    # -- low-level query with rate limiting ---------------------------------

    def _query_raw(self, ip: str, qname: Name, qtype: RRType) -> Message:
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        key = (qname, int(qtype))
        entry = self._query_wire_cache.get(key)
        if entry is None:
            if len(self._query_wire_cache) >= self._QUERY_WIRE_CACHE_MAX:
                self._query_wire_cache.clear()
            query = make_query(qname, qtype, msg_id=0)
            entry = (query, query.to_wire())
            self._query_wire_cache[key] = entry
        query, template = entry
        query.id = self._msg_id
        wire = self._msg_id.to_bytes(2, "big") + template[2:]
        self.limiter.acquire(ip)
        response = self.network.query(ip, query, timeout=self.config.timeout, wire=wire)
        if response.truncated:
            # RFC 7766: retry over TCP when the UDP answer was truncated.
            self.limiter.acquire(ip)
            self.tcp_fallbacks += 1
            response = self.network.query(
                ip, query, timeout=self.config.timeout, tcp=True, wire=wire
            )
        return response

    def query_one(self, ip: str, qname: Name, qtype: RRType) -> RRQueryResult:
        """Ask one server one question; classify the outcome.

        Retries follow :attr:`retry` (a :class:`repro.chaos.RetryPolicy`):
        timeouts — and, when the policy says so, SERVFAILs — are retried
        with capped exponential backoff on the simulated clock, bounded
        by the policy's per-query budget.  A query whose every attempt
        timed out is *counted* (``retry_abandoned``), never silently
        dropped.
        """
        policy = self.retry
        key: Optional[str] = None
        waited = 0.0
        # `last` holds the most recent *response-bearing* outcome: a
        # trailing timeout never shadows an earlier SERVFAIL, so a query
        # is "abandoned" exactly when every attempt timed out — a
        # property of the server being dead, not of fault interleaving.
        last = RRQueryResult(QueryStatus.TIMEOUT)
        for attempt in range(policy.attempts):
            if attempt:
                if key is None:
                    key = f"{ip}/{qname.to_text()}/{int(qtype)}"
                wait = policy.backoff(attempt, key, waited)
                if wait is None:
                    break  # per-query backoff budget exhausted
                if wait:
                    self.limiter.clock.advance(wait)
                    waited += wait
                    self.retry_backoff_seconds += wait
                self.retry_attempts += 1
            try:
                response = self._query_raw(ip, qname, qtype)
            except NetworkTimeout:
                continue
            result = self._classify(response, qname, qtype)
            if (
                policy.retry_servfail
                and result.status == QueryStatus.ERROR
                and result.rcode == Rcode.SERVFAIL
                and attempt + 1 < policy.attempts
            ):
                last = result
                continue
            return result
        if last.status == QueryStatus.TIMEOUT:
            self.retry_abandoned += 1
        return last

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

    def _addresses_for(self, ns_host: Name) -> List[str]:
        while True:
            cached = self._address_cache.get(ns_host)
            if cached is not None:
                self.address_cache_hits += 1
                return cached
            claim = self._flights.claim(active_loop(self.limiter.clock), ("addr", ns_host))
            if claim is None:
                continue  # waited on another task's lookup; re-check
            with claim:
                self.address_cache_misses += 1
                found = self.resolver.resolve_addresses(ns_host)
                self._address_cache[ns_host] = found
                return found

    # -- chain collection ------------------------------------------------------------

    def collect_chain(self, apex: Name) -> List[ChainLink]:
        """DS/DNSKEY pairs for every zone from the root down to *apex*.

        The root link has no DS (it is the trust anchor).  Results are
        memoised — signaling zones are shared by an operator's whole
        portfolio, so this is queried once per signaling zone.
        """
        while True:
            cached = self._chain_cache.get(apex)
            if cached is not None:
                self.chain_cache_hits += 1
                return cached
            claim = self._flights.claim(active_loop(self.limiter.clock), ("chain", apex))
            if claim is None:
                continue  # waited on another task's walk; re-check
            with claim:
                self.chain_cache_misses += 1
                with self.telemetry.span("chain_validate", apex=apex.to_text()) as span:
                    links = self._collect_chain_uncached(apex)
                    span["links"] = len(links)
                self._chain_cache[apex] = links
                return links

    def _collect_chain_uncached(self, apex: Name) -> List[ChainLink]:
        links: List[ChainLink] = []
        servers = list(self.resolver.root_ips)
        current = Name.root()
        dnskey = self._first_ok(servers, current, RRType.DNSKEY)
        links.append(
            ChainLink(current, None, [], dnskey.rrset if dnskey else None, dnskey.rrsigs if dnskey else [])
        )
        depth = 1
        while depth <= len(apex):
            candidate = apex.split(depth)
            try:
                step = self.resolver.find_delegation_below(candidate, current, servers)
            except ResolutionError:
                break
            if step is not None:
                cut, ds_rrset, ds_rrsig_rrset, next_servers = step
                servers = next_servers or servers
            else:
                # No referral: the same servers may host both sides of the
                # cut.  A candidate owning an SOA is a zone apex; its DS
                # (if any) is answered from the parent zone.
                soa = self._first_ok(servers, candidate, RRType.SOA)
                if soa is None or not soa.has_data or soa.rrset.name != candidate:
                    depth += 1
                    continue
                cut = candidate
                ds = self._first_ok(servers, candidate, RRType.DS)
                ds_rrset = ds.rrset if ds else None
                ds_rrsig_rrset = None
                if ds is not None and ds.rrsigs:
                    ds_rrsig_rrset = RRset(candidate, RRType.RRSIG, 3600, ds.rrsigs)
            ds_rrsigs = [
                rd
                for rd in (ds_rrsig_rrset.rdatas if ds_rrsig_rrset else [])
                if isinstance(rd, RRSIG) and int(rd.type_covered) == int(RRType.DS)
            ]
            dnskey = self._first_ok(servers, cut, RRType.DNSKEY)
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

    def _first_ok(
        self, ips: Sequence[str], qname: Name, qtype: RRType
    ) -> Optional[RRQueryResult]:
        for ip in ips:
            result = self.query_one(ip, qname, qtype)
            if result.status == QueryStatus.OK:
                return result
        return None

    # -- the per-zone scan -------------------------------------------------------------

    def _query_count(self) -> int:
        """The counter whose delta is this zone's ``queries_used``: the
        calling task's own attribution under the event loop (other
        in-flight zones' traffic must not leak in), the global network
        counter in serial code."""
        task = self.limiter.clock.current_task
        if task is not None:
            return task.queries
        return self.network.queries_sent

    def scan_zone(self, zone: Name | str) -> ZoneScanResult:
        zone = zone if isinstance(zone, Name) else Name.from_text(zone)
        result = ZoneScanResult(zone=zone)
        queries_before = self._query_count()

        try:
            delegation = self.resolver.find_delegation(zone)
        except ResolutionError as exc:
            result.error = f"delegation: {exc}"
            result.queries_used = self._query_count() - queries_before
            return result

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
            addresses = list(delegation.glue.get(ns_host, ())) or self._addresses_for(ns_host)
            if addresses:
                ns_addresses[ns_host] = addresses
        result.ns_addresses = ns_addresses
        if not ns_addresses:
            result.error = "no reachable nameserver addresses"
            result.queries_used = self._query_count() - queries_before
            return result

        pairs, result.sampled = self.sampling.select(zone, ns_addresses)

        # Child-side apex records from the first responsive server.
        for _, ip in pairs:
            soa = self.query_one(ip, zone, RRType.SOA)
            if soa.answered:
                result.soa = soa
                result.child_ns = self.query_one(ip, zone, RRType.NS)
                result.dnskey = self.query_one(ip, zone, RRType.DNSKEY)
                result.resolved = True
                break
        if not result.resolved:
            result.error = "no authoritative server answered SOA"
            result.queries_used = self._query_count() - queries_before
            return result

        # CDS/CDNSKEY from every selected server address.
        for ns_host, ip in pairs:
            key = f"{ns_host.to_text()}@{ip}"
            result.cds_by_ns[key] = self.query_one(ip, zone, RRType.CDS)
            result.cdnskey_by_ns[key] = self.query_one(ip, zone, RRType.CDNSKEY)

        if self.config.scan_signals:
            for ns_host in result.delegation_ns:
                result.signals.append(self._scan_signal(zone, ns_host))

        result.queries_used = self._query_count() - queries_before
        return result

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

        With ``config.in_flight`` set, the scan runs on a deterministic
        event loop (:mod:`repro.sched`): up to that many zones are in
        flight at once, overlapping their simulated waits, while results
        are still yielded in submission order — sinks, checkpoints, and
        the final report are byte-identical to the serial scan.
        """
        tel = self.telemetry
        if self.config.in_flight is None:
            for zone in zones:
                name = zone if isinstance(zone, Name) else Name.from_text(zone)
                if skip is not None and name.to_text() in skip:
                    continue
                if tel.enabled:
                    with tel.span("scan_zone", zone=name.to_text()) as span:
                        result = self.scan_zone(name)
                        span["queries"] = result.queries_used
                else:
                    result = self.scan_zone(name)
                if sink is not None:
                    sink(result)
                yield result
            return
        yield from self._scan_iter_scheduled(zones, skip, sink)

    def _scan_iter_scheduled(
        self,
        zones: Iterable[Name | str],
        skip: Optional[Container[str]],
        sink: Optional[Callable[[ZoneScanResult], None]],
    ) -> Iterator[ZoneScanResult]:
        tel = self.telemetry

        def names() -> Iterator[Name]:
            for zone in zones:
                name = zone if isinstance(zone, Name) else Name.from_text(zone)
                if skip is not None and name.to_text() in skip:
                    continue
                yield name

        def scan_one(name: Name) -> ZoneScanResult:
            if tel.enabled:
                with tel.span("scan_zone", zone=name.to_text()) as span:
                    result = self.scan_zone(name)
                    span["queries"] = result.queries_used
                    return result
            return self.scan_zone(name)

        # The loop owns the rate-limiter clock (the one that defines the
        # machine's campaign duration); the network clock rides along so
        # query costs, chaos latency, and timeouts suspend tasks too
        # when it is a separate object (parallel-worker scan machines).
        # The transport picks the loop class: the simulated fabric gives
        # the plain deterministic EventLoop, the wire plane a WireLoop
        # whose tasks park on socket futures.
        loop = self.network.make_event_loop(
            self.limiter.clock,
            max_in_flight=self.config.in_flight,
            extra_clocks=(self.network.clock,),
        )
        try:
            with tel.span("sched_loop", in_flight=self.config.in_flight) as span:
                for result in loop.map_iter(names(), scan_one):
                    if sink is not None:
                        sink(result)
                    yield result
                span["tasks"] = loop.tasks_started
                span["events"] = loop.events
        finally:
            self.sched_tasks += loop.tasks_started
            self.sched_events += loop.events
            self.sched_gate_waits += loop.gate_waits
            if loop.in_flight_peak > self.sched_in_flight_peak:
                self.sched_in_flight_peak = loop.in_flight_peak
            if loop.queue_peak > self.sched_queue_peak:
                self.sched_queue_peak = loop.queue_peak

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

    def _signal_zone_info(self, ns_host: Name) -> _SignalZoneInfo:
        while True:
            info = self._signal_info_cache.get(ns_host)
            if info is not None:
                self.signal_cache_hits += 1
                return info
            claim = self._flights.claim(active_loop(self.limiter.clock), ("signal", ns_host))
            if claim is None:
                continue  # waited on another task's probe; re-check
            with claim:
                self.signal_cache_misses += 1
                info = self._signal_zone_info_uncached(ns_host)
                self._signal_info_cache[ns_host] = info
                return info

    def _signal_zone_info_uncached(self, ns_host: Name) -> _SignalZoneInfo:
        signal_root = Name((b"_signal",)).concatenate(ns_host)
        apex: Optional[Name] = None
        server_pairs: List[Tuple[Name, str]] = []
        chain: List[ChainLink] = []
        error: Optional[str] = None
        try:
            resolution = self.resolver.resolve(signal_root, RRType.SOA)
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
                ns_resolution = self.resolver.resolve(apex, RRType.NS)
                ns_rrset = ns_resolution.rrset(RRType.NS)
                if ns_rrset is None:
                    error = "signal zone has no NS records"
                else:
                    addresses: Dict[Name, List[str]] = {}
                    for rdata in ns_rrset.rdatas:
                        target = getattr(rdata, "target", None)
                        if target is None:
                            continue
                        found = self._addresses_for(target)
                        if found:
                            addresses[target] = found
                    # Anycast sampling applies to signaling zones too —
                    # they sit behind the same Cloudflare-style pools.
                    server_pairs, _ = self.sampling.select(apex, addresses)
                    chain = self.collect_chain(apex)
        except ResolutionError as exc:
            error = str(exc)
        return _SignalZoneInfo(apex=apex, server_pairs=server_pairs, chain=chain, error=error)

    def _scan_signal(self, zone: Name, ns_host: Name) -> SignalScan:
        signal_name = make_signal_name(zone, ns_host)
        scan = SignalScan(ns_host=ns_host, signal_name=signal_name)
        if signal_name is None:
            scan.name_too_long = True
            return scan
        info = self._signal_zone_info(ns_host)
        scan.signal_zone_apex = info.apex
        scan.chain = info.chain
        if info.error is not None:
            scan.error = info.error
            return scan
        for host, ip in info.server_pairs:
            key = f"{host.to_text()}@{ip}"
            scan.cds_by_ip[key] = self.query_one(ip, signal_name, RRType.CDS)
            scan.cdnskey_by_ip[key] = self.query_one(ip, signal_name, RRType.CDNSKEY)
        if self.config.probe_zone_cuts and scan.any_cds:
            scan.zone_cuts = self._probe_zone_cuts(signal_name, info)
        return scan

    def _probe_zone_cuts(self, signal_name: Name, info: _SignalZoneInfo) -> List[Name]:
        """Find unexpected zone cuts strictly between the signaling zone
        apex and the signaling name (RFC 9615 §4.2 forbids them)."""
        cuts: List[Name] = []
        if info.apex is None or not info.server_pairs:
            return cuts
        apex_depth = len(info.apex)
        for depth in range(apex_depth + 1, len(signal_name)):
            intermediate = signal_name.split(depth)
            for _, ip in info.server_pairs[:1]:
                answer = self.query_one(ip, intermediate, RRType.NS)
                if answer.has_data:
                    cuts.append(intermediate)
                break
        return cuts
