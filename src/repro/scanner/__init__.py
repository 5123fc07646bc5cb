"""YoDNS-style measurement scanner.

Resolves each zone's full dependency tree, queries *every* authoritative
nameserver (with the paper's Cloudflare anycast sampling), collects all
DNSSEC-relevant RRsets — DNSKEY, parent DS, per-NS CDS/CDNSKEY, and the
RFC 9615 signal-zone CDS — under a per-server rate limit, and emits
serialisable :class:`~repro.scanner.results.ZoneScanResult` records for
the analysis pipeline.
"""

from repro.scanner.coverage import TlsWeightedSampler, UniformSampler, coverage_bias
from repro.scanner.ratelimit import RateLimiter
from repro.scanner.results import QueryStatus, RRQueryResult, SignalScan, ZoneScanResult
from repro.scanner.sampling import AnycastSamplingPolicy
from repro.scanner.serialize import dump_results
from repro.scanner.yodns import Scanner, ScannerConfig

__all__ = [
    "AnycastSamplingPolicy",
    "QueryStatus",
    "RRQueryResult",
    "RateLimiter",
    "Scanner",
    "ScannerConfig",
    "SignalScan",
    "TlsWeightedSampler",
    "UniformSampler",
    "ZoneScanResult",
    "coverage_bias",
    "dump_results",
]
