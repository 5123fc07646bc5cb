"""Registry-side provisioning: the *other* half of bootstrapping.

The paper measures the child/operator side of RFC 9615; this package
implements what a registry (or registrar with DS-update authority) does
with those signals:

* :mod:`repro.provisioning.policies` — the one acceptance ladder
  (``LADDER``, a table of reason-coded rungs, and the pure
  ``first_failure`` / ``decide`` that read it) plus the policies that
  consume it: the RFC 8078 Appendix-C proposals the IETF debated
  (accept-after-delay, accept-with-challenge, ...) and full RFC 9615
  authenticated acceptance, each as an executable policy object;
* :mod:`repro.provisioning.engine` — the one per-zone step
  (``provision_zone``: install the accepted CDS as a signed DS, re-scan,
  keep it iff the chain is SECURE, else roll back) shared with the
  parental agent, and a bootstrap engine that scans a TLD's unsecured
  delegations and runs a policy over them.

Together these make the App.-D feasibility discussion executable: how
many zones would each policy secure, and at what query cost?
"""

from repro.provisioning.policies import (
    AcceptAfterDelayPolicy,
    AcceptFromInceptionPolicy,
    AcceptWithChallengePolicy,
    AuthenticatedBootstrapPolicy,
    BootstrapDecision,
    BootstrapPolicy,
    Decision,
)
from repro.provisioning.engine import BootstrapEngine, BootstrapRun

__all__ = [
    "AcceptAfterDelayPolicy",
    "AcceptFromInceptionPolicy",
    "AcceptWithChallengePolicy",
    "AuthenticatedBootstrapPolicy",
    "BootstrapDecision",
    "BootstrapEngine",
    "BootstrapPolicy",
    "BootstrapRun",
    "Decision",
]
