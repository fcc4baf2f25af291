"""Blind-signature eligibility credentials.

RSA full-domain-hash blind signing: the holder picks a random serial,
hashes (serial, attribute) into the modulus, blinds with u^e, and the
issuer signs the blinded value without learning the serial.  Unblinding
yields an ordinary RSA-FDH signature, so the issuer's transcript is
statistically independent of the finished credential.

Key generation is deterministic from a seed so scenario runs reproduce
identical issuer keys.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .group import TAG_CRED, tagged_hash

_E = 65537
_PRIME_BITS = 256  # each issuer prime: a 512-bit RSA modulus
_MR_ROUNDS = 40    # Miller-Rabin rounds per prime candidate


@dataclass(frozen=True)
class IssuerPublicKey:
    n: int
    e: int


@dataclass(frozen=True)
class IssuerKeypair:
    public: IssuerPublicKey
    d: int
    # for signing by CRT: the modulus's prime factors, d reduced by each
    # p - 1 and q - 1, and q^-1 mod p
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int


@dataclass(frozen=True)
class Credential:
    attribute: str
    serial: int
    signature: int


@dataclass(frozen=True)
class CredentialRequest:
    """Holder-side state: keep private until finalize."""
    attribute: str
    serial: int
    unblinder: int
    blinded: int  # the only value the issuer ever sees


def _seed_stream(seed: bytes, label: bytes, index: int, nbytes: int) -> int:
    out = b""
    ctr = 0
    while len(out) < nbytes:
        out += hashlib.sha256(
            label + seed + index.to_bytes(4, "big") + ctr.to_bytes(4, "big")
        ).digest()
        ctr += 1
    return int.from_bytes(out[:nbytes], "big")


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    size = (n.bit_length() + 7) // 8
    for i in range(_MR_ROUNDS):
        a = _seed_stream(n.to_bytes(size, "big"), b"mr", i, size) % (n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _derive_prime(seed: bytes, index: int) -> int:
    attempt = 0
    while True:
        cand = _seed_stream(seed, b"prime", index * 100003 + attempt,
                            _PRIME_BITS // 8)
        cand |= (1 << (_PRIME_BITS - 1)) | 1
        if cand % _E != 1 and _is_probable_prime(cand):
            return cand
        attempt += 1


def issuer_keygen(seed: bytes) -> IssuerKeypair:
    """Deterministic RSA keypair."""
    p = _derive_prime(seed, 0)
    q = _derive_prime(seed, 1)
    while q == p:  # vanishingly unlikely, but keep the stream moving
        q = _derive_prime(seed, 2)
    phi = (p - 1) * (q - 1)
    d = pow(_E, -1, phi)
    return IssuerKeypair(IssuerPublicKey(p * q, _E), d, p, q,
                         d % (p - 1), d % (q - 1), pow(q, -1, p))


def _message_int(pub: IssuerPublicKey, serial: int, attribute: str) -> int:
    digest = tagged_hash(TAG_CRED, serial.to_bytes(32, "big"),
                         attribute.encode("utf-8"))
    # widen the digest to the modulus size (FDH)
    wide = b"".join(
        tagged_hash(TAG_CRED + "/fdh", digest, i.to_bytes(4, "big"))
        for i in range((pub.n.bit_length() // 8) // 32 + 1))
    return int.from_bytes(wide, "big") % pub.n


def credential_request(pub: IssuerPublicKey, serial: int, unblinder: int,
                       attribute: str = "eligible") -> CredentialRequest:
    """Blind (serial, attribute) under the holder-chosen unblinder."""
    if not 1 < unblinder < pub.n or math.gcd(unblinder, pub.n) != 1:
        raise ValueError("unblinder must be a unit mod n")
    m = _message_int(pub, serial, attribute)
    blinded = m * pow(unblinder, pub.e, pub.n) % pub.n
    return CredentialRequest(attribute, serial, unblinder, blinded)


def credential_issue(keypair: IssuerKeypair, blinded: int) -> int:
    """Issuer signs the blinded request (eligibility vetted out of band).

    Equals pow(blinded, d, n), computed mod p and mod q with the exponent
    reduced by each p - 1 and q - 1, then recombined (Garner)."""
    if not 0 < blinded < keypair.public.n:
        raise ValueError("blinded request out of range")
    p, q = keypair.p, keypair.q
    sp = pow(blinded, keypair.dp, p)
    sq = pow(blinded, keypair.dq, q)
    return sq + (sp - sq) * keypair.q_inv % p * q


def credential_finalize(pub: IssuerPublicKey, request: CredentialRequest,
                        blind_signature: int) -> Credential:
    sig = blind_signature * pow(request.unblinder, -1, pub.n) % pub.n
    cred = Credential(request.attribute, request.serial, sig)
    if not credential_verify(pub, cred):
        raise ValueError("issuer signature does not verify")
    return cred


def credential_verify(pub: IssuerPublicKey, cred: Credential) -> bool:
    return pow(cred.signature, pub.e, pub.n) == _message_int(
        pub, cred.serial, cred.attribute)
