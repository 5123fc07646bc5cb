"""The paper's analytical contribution: DNSSEC status classification,
CDS/CDNSKEY correctness (RFC 7344 / RFC 8078), RFC 9615 authenticated-
bootstrapping evaluation, operator attribution, and the end-to-end
analysis pipeline producing the aggregates behind Tables 1–3 and Fig. 1.
"""

from repro.core.status import DnssecStatus, classify_status
from repro.core.cds import CdsReport, analyze_cds
from repro.core.signal import SignalReport, SignalZoneStatus, analyze_signals, validate_chain
from repro.core.bootstrap import (
    BootstrapAssessment,
    BootstrapEligibility,
    SignalOutcome,
    assess_zone,
)
from repro.core.feasibility import FeasibilityReport, estimate_feasibility
from repro.core.operators import OperatorAttribution, OperatorDB
from repro.core.pipeline import AnalysisPipeline, AnalysisReport

__all__ = [
    "AnalysisPipeline",
    "AnalysisReport",
    "BootstrapAssessment",
    "BootstrapEligibility",
    "CdsReport",
    "DnssecStatus",
    "FeasibilityReport",
    "estimate_feasibility",
    "OperatorAttribution",
    "OperatorDB",
    "SignalOutcome",
    "SignalReport",
    "SignalZoneStatus",
    "analyze_cds",
    "analyze_signals",
    "assess_zone",
    "classify_status",
    "validate_chain",
]
