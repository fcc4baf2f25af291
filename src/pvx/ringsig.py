"""Linkable ring signatures: one MLSAG over rows of m public keys.

A ring is n rows (K_i,0 .. K_i,m-1).  A signature proves that the signer
knows the discrete logs x_0 .. x_m-1 of every key in one row, without
revealing which.  The key image I = Hp(K_l,0)^x_0 covers column 0 only.  It
depends on that signing key alone, so two signatures by the same key carry
the same image whatever the ring or message; the ledger uses it to detect
double spends.

The observer's spend corpus signs with m = 1 (rows P_i, the LSAG of Liu,
Wei and Wong).  Ledger spends sign with m = 2 (rows P_i, D_i with
D_i = C_i / C_pseudo), which also shows that the input's pseudo commitment
opens to the same amount as the hidden member being spent (Noether, "Ring
Confidential Transactions", 2016).

Challenge chain, for each row i with responses s_i,0 .. s_i,m-1:
    L_i,j = G^{s_i,j} * K_i,j^{c_i}
    R_i   = Hp(K_i,0)^{s_i,0} * I^{c_i}
    c_{i+1} = H("pvx/ring", ring, I, msg, L_i,0, R_i, L_i,1 .. L_i,m-1)
closing back to c_0.  `tagged_hash` length-prefixes every item, so the
item count alone separates column counts.  Each point is one
`GroupParams.power2`, folded once.  Every challenge shares the prefix
(tag, ring, I, msg), which a walk absorbs into one hash state and copies
for each row.  Nonces continue one hash state of the signing keys,
message and ring (`nonzero_scalar_at`), making signing a pure function of
its inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .group import GroupParams, TAG_RING, tagged_hash, tagged_prefix


@dataclass(frozen=True)
class RingSignature:
    c0: int
    responses: tuple[int, ...]  # row-major: m responses per ring member
    key_image: int


@lru_cache(maxsize=65536)
def _image_base(group: GroupParams, public: int) -> int:
    """Hp(P), cached: rings revisit the same members constantly."""
    return group.hash_to_group(TAG_RING + "/img", group.element_to_bytes(public))


def key_image_for(group: GroupParams, spend_secret: int, public: int) -> int:
    return group.power(_image_base(group, public), spend_secret)


def _rows_bytes(group: GroupParams, rows: tuple[tuple[int, ...], ...]) -> bytes:
    enc = group.element_to_bytes
    return b"".join([enc(key) for row in rows for key in row])


def _chain(group: GroupParams, message: bytes, rows: tuple[tuple[int, ...], ...],
           ring_b: bytes, image: int, responses: list[int] | tuple[int, ...],
           start: int, c_start: int) -> list[int]:
    """Walk the challenge chain once round the ring, entering row `start`
    with challenge `c_start`.  Returns each row's challenge; the entry for
    `start` is the one that closes the ring."""
    power2, enc, g, q = group.power2, group.element_to_bytes, group.g, group.q
    n, m = len(rows), len(rows[0])
    later_columns = range(1, m)
    image_b = enc(image)
    prefix = tagged_prefix(TAG_RING, ring_b, image_b, message)
    # every point has the image's width, so absorb's framing of a point is
    # this constant followed by the point
    width = len(image_b).to_bytes(4, "big")
    c = [0] * n
    c[start] = c_start
    for step in range(n):
        i = (start + step) % n
        row, c_i, k = rows[i], c[i], i * m
        key = row[0]
        # as group.hash_to_scalar(TAG_RING, ring_b, image_b, message, *points)
        h = prefix.copy()
        h.update(width + enc(power2(g, responses[k], key, c_i)) + width
                 + enc(power2(_image_base(group, key), responses[k],
                              image, c_i)))
        for j in later_columns:
            h.update(width + enc(power2(g, responses[k + j], row[j], c_i)))
        c[(i + 1) % n] = int.from_bytes(h.digest(), "big") % q
    return c


def _sign(group: GroupParams, message: bytes, rows: Sequence[Sequence[int]],
          true_index: int, secrets: tuple[int, ...]) -> RingSignature:
    rows = tuple(map(tuple, rows))
    n, m = len(rows), len(secrets)
    if n < 1:
        raise ValueError("ring must not be empty")
    if not 0 <= true_index < n:
        raise IndexError("true_index out of bounds")
    if m < 1 or any(len(row) != m for row in rows):
        raise ValueError("every ring row needs one key per secret")
    if any(group.power(group.g, x) != key
           for x, key in zip(secrets, rows[true_index])):
        raise ValueError("secret does not match ring slot")

    image = key_image_for(group, secrets[0], rows[true_index][0])
    ring_b = _rows_bytes(group, rows)
    seed = tagged_hash(TAG_RING + "/seed", *map(group.scalar_to_bytes, secrets),
                       message, ring_b)
    nonce = tagged_prefix(TAG_RING + "/nonce", seed)
    s = [group.nonzero_scalar_at(nonce, k.to_bytes(4, "big"))
         for k in range(n * m)]
    # Entering the signer's row with challenge 0 makes its L and R the
    # commitments G^alpha_j, Hp^alpha_0 to its own nonces alpha_j = s_l,j.
    c = _chain(group, message, rows, ring_b, image, s, true_index, 0)
    for j, x in enumerate(secrets):
        k = true_index * m + j
        s[k] = (s[k] - c[true_index] * x) % group.q
    return RingSignature(c[0], tuple(s), image)


def _verify(group: GroupParams, message: bytes, rows: Sequence[Sequence[int]],
            sig: RingSignature) -> bool:
    rows = tuple(map(tuple, rows))
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if m < 1 or any(len(row) != m for row in rows) \
            or len(sig.responses) != n * m:
        return False
    if not (group.is_element(sig.key_image)
            and all(group.is_element(key) for row in rows for key in row)):
        return False
    c0 = sig.c0 % group.q
    c = _chain(group, message, rows, _rows_bytes(group, rows), sig.key_image,
               sig.responses, 0, c0)
    return c[0] == c0


def ring_sign(group: GroupParams, message: bytes, ring: list[int] | tuple[int, ...],
              true_index: int, spend_secret: int) -> RingSignature:
    return _sign(group, message, [(p,) for p in ring], true_index, (spend_secret,))


def ring_verify(group: GroupParams, message: bytes,
                ring: list[int] | tuple[int, ...], sig: RingSignature) -> bool:
    return _verify(group, message, [(p,) for p in ring], sig)


def dual_ring_sign(group: GroupParams, message: bytes,
                   ring: list[tuple[int, int]] | tuple[tuple[int, int], ...],
                   true_index: int, spend_secret: int,
                   offset_secret: int) -> RingSignature:
    return _sign(group, message, ring, true_index, (spend_secret, offset_secret))


def dual_ring_verify(group: GroupParams, message: bytes,
                     ring: list[tuple[int, int]] | tuple[tuple[int, int], ...],
                     sig: RingSignature) -> bool:
    return _verify(group, message, ring, sig)
