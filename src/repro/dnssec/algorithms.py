"""DNSSEC signature algorithms and digest types.

Wraps the ``cryptography`` library behind the DNSSEC wire formats:

* RSASHA256 (8): PKCS#1 v1.5 signatures; RFC 3110 public-key encoding.
* ECDSAP256SHA256 (13): raw ``r || s`` signatures with deterministic
  RFC 6979 nonces; RFC 6605 key encoding.
* ED25519 (15): raw 64-byte signatures; RFC 8080 key encoding.

Algorithm 0 is reserved and only appears in the RFC 8078 delete sentinel.
"""

from __future__ import annotations

import enum
import hashlib

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)


class Algorithm(enum.IntEnum):
    """IANA DNSSEC algorithm numbers (subset)."""

    DELETE = 0
    RSASHA1 = 5
    RSASHA256 = 8
    RSASHA512 = 10
    ECDSAP256SHA256 = 13
    ECDSAP384SHA384 = 14
    ED25519 = 15
    ED448 = 16


class DigestType(enum.IntEnum):
    """IANA DS digest type numbers (subset)."""

    SHA1 = 1
    SHA256 = 2
    SHA384 = 4


SUPPORTED_ALGORITHMS = (
    Algorithm.RSASHA256,
    Algorithm.ECDSAP256SHA256,
    Algorithm.ED25519,
)

_P256_ORDER = int(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16
)


class UnsupportedAlgorithm(ValueError):
    """Raised when asked to sign/verify with an algorithm we don't implement."""


# -- key generation ------------------------------------------------------------


def generate_private_key(algorithm: Algorithm, seed: bytes | None = None):
    """Create a private key for *algorithm*.

    When *seed* (32 octets) is given, generation is deterministic for
    Ed25519 and ECDSA P-256 — the property the ecosystem generator relies
    on to rebuild identical worlds from a seed; with :func:`sign` also
    deterministic (ECDSA through RFC 6979), every signature a world holds
    is a function of the seed.  RSA has no practical deterministic path
    in ``cryptography``; RSA keys are always random.
    """
    if algorithm == Algorithm.ED25519:
        if seed is not None:
            return ed25519.Ed25519PrivateKey.from_private_bytes(_stretch(seed, 32))
        return ed25519.Ed25519PrivateKey.generate()
    if algorithm == Algorithm.ECDSAP256SHA256:
        if seed is not None:
            secret = int.from_bytes(_stretch(seed, 32), "big") % (_P256_ORDER - 1) + 1
            return ec.derive_private_key(secret, ec.SECP256R1())
        return ec.generate_private_key(ec.SECP256R1())
    if algorithm == Algorithm.RSASHA256:
        return rsa.generate_private_key(public_exponent=65537, key_size=2048)
    raise UnsupportedAlgorithm(f"cannot generate keys for algorithm {algorithm}")


def _stretch(seed: bytes, length: int) -> bytes:
    """Derive *length* pseudo-random octets from *seed* (SHA-256 based)."""
    out = hashlib.sha256(b"repro-key" + seed).digest()
    while len(out) < length:
        out += hashlib.sha256(out).digest()
    return out[:length]


# -- public key wire encoding ----------------------------------------------------


def public_key_to_wire(algorithm: Algorithm, private_key) -> bytes:
    """Encode the public half in DNSKEY wire format."""
    if algorithm == Algorithm.ED25519:
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

        return private_key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    if algorithm == Algorithm.ECDSAP256SHA256:
        numbers = private_key.public_key().public_numbers()
        return numbers.x.to_bytes(32, "big") + numbers.y.to_bytes(32, "big")
    if algorithm == Algorithm.RSASHA256:
        numbers = private_key.public_key().public_numbers()
        exponent = numbers.e.to_bytes((numbers.e.bit_length() + 7) // 8, "big")
        modulus = numbers.n.to_bytes((numbers.n.bit_length() + 7) // 8, "big")
        if len(exponent) <= 255:
            prefix = bytes([len(exponent)])
        else:
            prefix = b"\x00" + len(exponent).to_bytes(2, "big")
        return prefix + exponent + modulus
    raise UnsupportedAlgorithm(f"cannot encode public key for algorithm {algorithm}")


def _parse_rsa_public(wire: bytes) -> rsa.RSAPublicNumbers:
    if not wire:
        raise ValueError("empty RSA public key")
    if wire[0] == 0:
        if len(wire) < 3:
            raise ValueError("truncated RSA exponent length")
        exp_len = int.from_bytes(wire[1:3], "big")
        offset = 3
    else:
        exp_len = wire[0]
        offset = 1
    exponent = int.from_bytes(wire[offset : offset + exp_len], "big")
    modulus = int.from_bytes(wire[offset + exp_len :], "big")
    return rsa.RSAPublicNumbers(exponent, modulus)


# -- sign / verify -------------------------------------------------------------------


def sign(algorithm: Algorithm, private_key, data: bytes) -> bytes:
    """Produce a signature in the DNSSEC wire format for *algorithm*."""
    if algorithm == Algorithm.ED25519:
        return private_key.sign(data)
    if algorithm == Algorithm.ECDSAP256SHA256:
        der = private_key.sign(data, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
        r, s = decode_dss_signature(der)
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")
    if algorithm == Algorithm.RSASHA256:
        return private_key.sign(data, padding.PKCS1v15(), hashes.SHA256())
    raise UnsupportedAlgorithm(f"cannot sign with algorithm {algorithm}")


def verify(algorithm: int, public_key_wire: bytes, signature: bytes, data: bytes) -> bool:
    """Verify a DNSSEC signature.  Unknown algorithms verify as False
    (the validator reports them as unsupported, not as valid)."""
    try:
        if algorithm == Algorithm.ED25519:
            if len(public_key_wire) != 32:
                return False
            key = ed25519.Ed25519PublicKey.from_public_bytes(public_key_wire)
            key.verify(signature, data)
            return True
        if algorithm == Algorithm.ECDSAP256SHA256:
            if len(public_key_wire) != 64 or len(signature) != 64:
                return False
            numbers = ec.EllipticCurvePublicNumbers(
                int.from_bytes(public_key_wire[:32], "big"),
                int.from_bytes(public_key_wire[32:], "big"),
                ec.SECP256R1(),
            )
            key = numbers.public_key()
            der = encode_dss_signature(
                int.from_bytes(signature[:32], "big"),
                int.from_bytes(signature[32:], "big"),
            )
            key.verify(der, data, ec.ECDSA(hashes.SHA256()))
            return True
        if algorithm == Algorithm.RSASHA256:
            key = _parse_rsa_public(public_key_wire).public_key()
            key.verify(signature, data, padding.PKCS1v15(), hashes.SHA256())
            return True
    except (InvalidSignature, ValueError):
        return False
    return False


def digest_for(digest_type: DigestType):
    """Return a new hashlib object for a DS digest type."""
    if digest_type == DigestType.SHA1:
        return hashlib.sha1()
    if digest_type == DigestType.SHA256:
        return hashlib.sha256()
    if digest_type == DigestType.SHA384:
        return hashlib.sha384()
    raise UnsupportedAlgorithm(f"unsupported DS digest type {digest_type}")
