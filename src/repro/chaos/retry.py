"""Retry policy: capped exponential backoff on the simulated clock.

The paper's scan had to contend with 7.6 M domains whose nameservers
timed out or errored on CDS/CDNSKEY queries, plus deSEC's transient
SERVFAILs during the measurement window (§4.4).  ZDNS-style measurement
fidelity at scale hinges on a principled retry/timeout policy: a single
attempt turns every transient fault into a misclassification, unbounded
retries turn every dead server into an infinite stall.

:class:`RetryPolicy` sits between the two: a frozen description of a
capped exponential backoff schedule with *deterministic* jitter.  The
jitter for attempt *n* of query key *k* is a pure hash of
``(seed, k, n)`` — no global PRNG state — so schedules are reproducible
per query, independent across keys, and independent across the
``(seed, bucket)`` worker streams of a parallel campaign
(:meth:`RetryPolicy.derive`).  All waiting advances the *simulated*
clock, and the total simulated wait per query never exceeds
:attr:`budget`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import Any, Dict, List, Optional


def stable_unit(*parts: object) -> float:
    """A deterministic uniform in ``[0, 1)`` from the given parts.

    Hash-based (BLAKE2b), so the value is a pure function of the parts —
    stable across processes, platforms, and ``PYTHONHASHSEED``.
    """
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    digest = blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def derive_seed(seed: int, *parts: object) -> int:
    """A child stream seed from ``(seed, *parts)`` (pure, collision-safe
    for practical purposes — 64-bit BLAKE2b)."""
    payload = "\x1f".join(str(part) for part in (seed, *parts)).encode("utf-8")
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``attempts`` is the *total* number of tries (initial + retries).
    Before retry *n* (1-based) the caller waits::

        min(cap, base * multiplier ** (n - 1)) * (1 - jitter * u)

    simulated seconds, where ``u = stable_unit(seed, key, n)``; waits
    stop (and the query is abandoned) once the accumulated wait would
    exceed ``budget``.  ``retry_servfail`` additionally retries SERVFAIL
    responses, not just timeouts — the §4.4 transient-failure model.
    """

    attempts: int = 4
    base: float = 0.25
    multiplier: float = 2.0
    cap: float = 5.0
    budget: float = 15.0
    jitter: float = 0.5
    retry_servfail: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base < 0 or self.cap < 0 or self.budget < 0:
            raise ValueError("base, cap, and budget must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # -- construction ------------------------------------------------------

    @classmethod
    def default(cls) -> "RetryPolicy":
        """The chaos-campaign default (4 attempts, exponential backoff)."""
        return cls()

    @classmethod
    def from_spec(cls, spec: str) -> Optional["RetryPolicy"]:
        """Parse a CLI ``--retries`` value.

        ``off``/``none`` → ``None``; ``default`` → :meth:`default`; a
        bare integer → default policy with that many attempts; otherwise
        a comma-separated ``field=value`` list over the dataclass fields
        (``attempts=5,base=0.5,budget=20``).
        """
        text = spec.strip().lower()
        if text in ("off", "none", ""):
            return None
        if text == "default":
            return cls.default()
        if text.isdigit():
            return replace(cls.default(), attempts=int(text))
        return replace(cls.default(), **_parse_fields(cls, spec))

    def derive(self, *parts: object) -> "RetryPolicy":
        """The same policy on an independent jitter stream — parallel
        workers derive theirs from ``(seed, bucket)``."""
        return replace(self, seed=derive_seed(self.seed, "retry", *parts))

    # -- the schedule ------------------------------------------------------

    def backoff(self, attempt: int, key: str, waited: float) -> Optional[float]:
        """Simulated seconds to wait before retry *attempt* (1-based), or
        ``None`` when the per-query ``budget`` would be exceeded."""
        if attempt < 1 or attempt >= self.attempts:
            return None
        raw = min(self.cap, self.base * self.multiplier ** (attempt - 1))
        if self.jitter:
            raw *= 1.0 - self.jitter * stable_unit(self.seed, key, attempt)
        if waited + raw > self.budget:
            return None
        return raw

    def schedule(self, key: str) -> List[float]:
        """The full backoff schedule for one query key — every wait the
        retry loop would take if all attempts failed."""
        waits: List[float] = []
        waited = 0.0
        for attempt in range(1, self.attempts):
            wait = self.backoff(attempt, key, waited)
            if wait is None:
                break
            waits.append(wait)
            waited += wait
        return waits

    # -- manifest round-trip -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless dict form for the store manifest (non-defaults only)."""
        return _non_default_fields(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RetryPolicy":
        return cls(**data)


# One immediate re-attempt after a timeout, no backoff, no SERVFAIL
# retry: what every scanner gets when no policy is configured, so
# fault-free campaigns keep their exact query counts and simulated
# durations.
ONE_IMMEDIATE_RETRY = RetryPolicy(
    attempts=2, base=0.0, cap=0.0, jitter=0.0, retry_servfail=False
)


def _parse_fields(cls, spec: str) -> Dict[str, Any]:
    """Parse ``field=value,field=value`` against a dataclass's fields."""
    from dataclasses import fields as dc_fields

    known = {f.name: f.type for f in dc_fields(cls)}
    out: Dict[str, Any] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected field=value, got {part!r}")
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in known:
            raise ValueError(
                f"unknown {cls.__name__} field {name!r} (one of: {', '.join(sorted(known))})"
            )
        text = value.strip()
        annotation = str(known[name])
        if "bool" in annotation:
            out[name] = text.lower() in ("1", "true", "yes", "on")
        elif "int" in annotation:
            out[name] = int(text)
        else:
            out[name] = float(text)
    return out


def _non_default_fields(instance) -> Dict[str, Any]:
    """Dataclass → dict keeping only fields that differ from the default
    (minimal, byte-stable manifest entries, like ``manifest_config``)."""
    from dataclasses import fields as dc_fields

    out: Dict[str, Any] = {}
    for f in dc_fields(instance):
        value = getattr(instance, f.name)
        if value != f.default:
            out[f.name] = value
    return out
