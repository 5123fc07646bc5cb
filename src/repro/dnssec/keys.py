"""Key pairs: generation, DNSKEY rendering, and signing.

A :class:`KeyPair` couples a private key with the DNSKEY flags it will be
published under.  The ecosystem generator derives keys deterministically
from a per-zone seed so that rebuilding a world with the same seed yields
byte-identical zones (and therefore reproducible scans).

Both are pure, so a process derives each seeded key and makes each
signature once: worlds share ``KeyPair`` objects and their DNSKEY rdata,
which is safe only because rdata (:mod:`repro.dns.rdata`) and key pairs
are immutable after ``__init__``.  No lock: the scan runs on one thread.
"""

from __future__ import annotations

from typing import Optional

from repro.dns.rdata import CDNSKEY, DNSKEY
from repro.dnssec.algorithms import (
    Algorithm,
    generate_private_key,
    public_key_to_wire,
    sign as algorithm_sign,
)
from repro.memo import table

PROTOCOL_DNSSEC = 3

# A 146-zone world derives about 240 keys and makes about 750 signatures.
# (algorithm, flags, seed) → KeyPair; RSA keys are random, never stored.
_KEYS = table(4096)
# (algorithm, public key wire, data) → the signature over data.
_SIGNATURES = table(4096)


class KeyPair:
    """A DNSSEC signing key with its published DNSKEY representation."""

    def __init__(
        self,
        algorithm: Algorithm,
        private_key,
        flags: int = DNSKEY.FLAG_ZONE,
    ):
        self.algorithm = Algorithm(algorithm)
        self.private_key = private_key
        self.flags = flags
        self._public_wire = public_key_to_wire(self.algorithm, private_key)
        self._dnskey = DNSKEY(self.flags, PROTOCOL_DNSSEC, int(self.algorithm), self._public_wire)
        self._key_tag = self._dnskey.key_tag()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def generate(
        cls,
        algorithm: Algorithm = Algorithm.ED25519,
        ksk: bool = False,
        seed: Optional[bytes] = None,
    ) -> "KeyPair":
        """Generate a key pair; *seed* makes it deterministic (Ed25519 and
        ECDSA only — see :func:`repro.dnssec.algorithms.generate_private_key`).

        ``ksk=True`` sets the SEP flag, marking a key-signing key.  A
        seeded Ed25519 or ECDSA key is derived once per process and shared.
        """
        algorithm = Algorithm(algorithm)
        flags = DNSKEY.FLAG_ZONE | (DNSKEY.FLAG_SEP if ksk else 0)
        memo_key = (int(algorithm), flags, seed)
        key = _KEYS.get(memo_key)
        if key is None:
            key = cls(algorithm, generate_private_key(algorithm, seed), flags)
            if seed is not None and algorithm != Algorithm.RSASHA256:
                _KEYS.put(memo_key, key)
        return key

    # -- views --------------------------------------------------------------------

    @property
    def is_ksk(self) -> bool:
        return bool(self.flags & DNSKEY.FLAG_SEP)

    @property
    def key_tag(self) -> int:
        return self._key_tag

    @property
    def public_key_wire(self) -> bytes:
        return self._public_wire

    def dnskey(self) -> DNSKEY:
        """The DNSKEY rdata publishing this key."""
        return self._dnskey

    def cdnskey(self) -> CDNSKEY:
        """The CDNSKEY rdata advertising this key to the parent (RFC 7344)."""
        return CDNSKEY(self.flags, PROTOCOL_DNSSEC, int(self.algorithm), self._public_wire)

    # -- operations ------------------------------------------------------------------

    def sign(self, data: bytes) -> bytes:
        """Sign *data*: every algorithm signs deterministically, so a
        signature made before is answered from the memo."""
        memo_key = (int(self.algorithm), self._public_wire, data)
        signature = _SIGNATURES.get(memo_key)
        if signature is None:
            signature = _SIGNATURES.put(
                memo_key, algorithm_sign(self.algorithm, self.private_key, data)
            )
        return signature

    def __repr__(self) -> str:
        kind = "KSK" if self.is_ksk else "ZSK"
        return f"<KeyPair {self.algorithm.name} {kind} tag={self.key_tag}>"
