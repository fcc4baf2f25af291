"""Bit-decomposition range proofs.

A proof that a commitment C = G^r * H^v opens to some v in [0, 2^k)
consists of k bit commitments C_i = G^{r_i} * H^{b_i} together with, per
bit, a two-branch OR proof that C_i opens to 0 or to 1.  The per-bit
blindings are chosen so that prod_i C_i^{2^i} == C, which the verifier
recomputes; no extra consistency scalar is needed.

The OR proof is a two-slot ring over the statements
    K_0 = C_i         (= G^{r_i} when b_i = 0)
    K_1 = C_i * H^-1  (= G^{r_i} when b_i = 1)
with a Fiat-Shamir challenge chain bound to the value commitment, the bit
index and the bit commitment under the "pvx/range" tag.  Each branch's
commitment is G^s * K^(q-c): K is an element of the order-q group, so
K^(q-c) is K^-c without an inversion.

All nonces are derived deterministically from the witness, so proving is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .group import GroupParams, TAG_RANGE
from .pedersen import commit


@lru_cache(maxsize=8)
def _h_inverse(group: GroupParams) -> int:
    return group.inv(group.h)


@dataclass(frozen=True)
class BitProof:
    bit_commitment: int
    c0: int
    s0: int
    s1: int


@dataclass(frozen=True)
class RangeProof:
    bits: tuple[BitProof, ...]

    @property
    def k(self) -> int:
        return len(self.bits)


def _bit_challenge(group: GroupParams, c: int, index: int,
                   bit_c: int, a: int) -> int:
    return group.hash_to_scalar(
        TAG_RANGE,
        group.element_to_bytes(c),
        index.to_bytes(4, "big"),
        group.element_to_bytes(bit_c),
        group.element_to_bytes(a),
    )


def _prove_bit(group: GroupParams, c: int, index: int,
               bit: int, blinding: int) -> BitProof:
    """OR-prove that G^blinding * H^bit opens to bit 0 or 1."""
    bit_c = commit(group, bit, blinding)
    k0 = bit_c
    k1 = group.mul(bit_c, _h_inverse(group))
    keys = (k0, k1)

    seed = (group.scalar_to_bytes(blinding), group.element_to_bytes(c),
            index.to_bytes(4, "big"), bytes([bit]))
    alpha = group.nonzero_scalar(TAG_RANGE + "/nonce", *seed)
    s_decoy = group.nonzero_scalar(TAG_RANGE + "/decoy", *seed)

    # Walk the 2-ring starting after the true branch.
    c_vals = [0, 0]
    c_vals[(bit + 1) % 2] = _bit_challenge(
        group, c, index, bit_c, group.power(group.g, alpha))
    decoy = (bit + 1) % 2
    a_decoy = group.mul(group.power(group.g, s_decoy),
                        group.power(keys[decoy], group.q - c_vals[decoy]))
    c_vals[bit] = _bit_challenge(group, c, index, bit_c, a_decoy)
    s_true = (alpha + c_vals[bit] * blinding) % group.q

    s0, s1 = (s_true, s_decoy) if bit == 0 else (s_decoy, s_true)
    return BitProof(bit_c, c_vals[0], s0, s1)


def _verify_bit(group: GroupParams, c: int, index: int,
                proof: BitProof) -> bool:
    if not group.is_element(proof.bit_commitment):
        return False
    k0 = proof.bit_commitment
    k1 = group.mul(proof.bit_commitment, _h_inverse(group))
    a0 = group.mul(group.power(group.g, proof.s0),
                   group.power(k0, group.q - proof.c0))
    c1 = _bit_challenge(group, c, index, proof.bit_commitment, a0)
    a1 = group.mul(group.power(group.g, proof.s1),
                   group.power(k1, group.q - c1))
    return _bit_challenge(group, c, index, proof.bit_commitment, a1) == proof.c0


def prove_range(group: GroupParams, v: int, r: int, k: int) -> RangeProof:
    """Prove commit(v, r) opens inside [0, 2^k).  Fails fast if v >= 2^k."""
    if k < 1:
        raise ValueError("bit width must be positive")
    if not 0 <= v < (1 << k):
        raise ValueError(f"value {v} outside [0, 2^{k})")
    if not 0 <= r < group.q:
        raise ValueError("blinding scalar out of range")
    c = commit(group, v, r)

    # Per-bit blindings: random-looking but derived from the witness; the
    # weighted sum must reproduce r so the bit commitments fold back to C.
    blindings = [0] * k
    acc = 0
    for i in range(1, k):
        blindings[i] = group.nonzero_scalar(
            TAG_RANGE + "/blind", group.scalar_to_bytes(r),
            group.element_to_bytes(c), i.to_bytes(4, "big"))
        acc = (acc + blindings[i] * (1 << i)) % group.q
    blindings[0] = (r - acc) % group.q

    bits = tuple(
        _prove_bit(group, c, i, (v >> i) & 1, blindings[i]) for i in range(k))
    return RangeProof(bits)


def verify_range(group: GroupParams, c: int, proof: RangeProof) -> bool:
    """True iff the proof shows c opens to a value in [0, 2^len(bits))."""
    if proof.k < 1 or not group.is_element(c):
        return False
    for i, bp in enumerate(proof.bits):
        if not _verify_bit(group, c, i, bp):
            return False
    # prod_i C_i^(2^i), by Horner's rule from the top bit down
    acc = group.identity
    for bp in reversed(proof.bits):
        acc = group.mul(group.mul(acc, acc), bp.bit_commitment)
    return acc == c
