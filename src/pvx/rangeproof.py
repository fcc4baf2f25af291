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
commitment is G^s * K^(q-c), one `GroupParams.power2` folded once: K is
an element of the order-q group, so K^(q-c) is K^-c without an inversion.
The prover knows K_decoy = G^{r_i} * H^(b_i - decoy), so it raises only
the fixed bases G and H; the verifier raises K itself.
Both challenges of a bit share the prefix (tag, C, index, C_i), which is
absorbed into one hash state and copied for each.

All nonces and blindings are derived deterministically from the witness
(the blindings continue one hash state of r and C), so proving is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .group import GroupParams, TAG_RANGE, absorb, tagged_prefix
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


def _bit_prefix(group: GroupParams, c_b: bytes, index: int, bit_c: int):
    """Hash state of the bit's transcript (tag, C, index, C_i); each of
    the bit's two challenges continues a copy of it."""
    return tagged_prefix(TAG_RANGE, c_b, index.to_bytes(4, "big"),
                         group.element_to_bytes(bit_c))


def _bit_challenge(group: GroupParams, prefix, a: int) -> int:
    # as group.hash_to_scalar(TAG_RANGE, C, index, C_i, a)
    return int.from_bytes(
        absorb(prefix.copy(), (group.element_to_bytes(a),)).digest(),
        "big") % group.q


def _prove_bit(group: GroupParams, c_b: bytes, index: int,
               bit: int, blinding: int) -> BitProof:
    """OR-prove that G^blinding * H^bit opens to bit 0 or 1."""
    bit_c = commit(group, bit, blinding)
    prefix = _bit_prefix(group, c_b, index, bit_c)

    seed = (group.scalar_to_bytes(blinding), c_b,
            index.to_bytes(4, "big"), bytes([bit]))
    alpha = group.nonzero_scalar(TAG_RANGE + "/nonce", *seed)
    s_decoy = group.nonzero_scalar(TAG_RANGE + "/decoy", *seed)

    # Walk the 2-ring starting after the true branch.
    decoy = (bit + 1) % 2
    c_vals = [0, 0]
    c_vals[decoy] = _bit_challenge(group, prefix, group.power(group.g, alpha))
    # K_decoy^e = G^(blinding e) * H^((bit - decoy) e): the prover knows
    # the decoy key's opening, so both factors go through fixed bases
    e = group.q - c_vals[decoy]
    a_decoy = group.power2(group.g, s_decoy + blinding * e,
                           group.h, (bit - decoy) * e)
    c_vals[bit] = _bit_challenge(group, prefix, a_decoy)
    s_true = (alpha + c_vals[bit] * blinding) % group.q

    s0, s1 = (s_true, s_decoy) if bit == 0 else (s_decoy, s_true)
    return BitProof(bit_c, c_vals[0], s0, s1)


def _verify_bit(group: GroupParams, c_b: bytes, index: int,
                proof: BitProof) -> bool:
    k0 = proof.bit_commitment
    if not group.is_element(k0):
        return False
    k1 = group.mul(k0, _h_inverse(group))
    prefix = _bit_prefix(group, c_b, index, k0)
    c1 = _bit_challenge(
        group, prefix, group.power2(group.g, proof.s0, k0, group.q - proof.c0))
    a1 = group.power2(group.g, proof.s1, k1, group.q - c1)
    return _bit_challenge(group, prefix, a1) == proof.c0


def prove_range(group: GroupParams, v: int, r: int, k: int) -> RangeProof:
    """Prove commit(v, r) opens inside [0, 2^k).  Fails fast if v >= 2^k."""
    if k < 1:
        raise ValueError("bit width must be positive")
    if not 0 <= v < (1 << k):
        raise ValueError(f"value {v} outside [0, 2^{k})")
    if not 0 <= r < group.q:
        raise ValueError("blinding scalar out of range")
    c_b = group.element_to_bytes(commit(group, v, r))

    # Per-bit blindings: random-looking but derived from the witness; the
    # weighted sum must reproduce r so the bit commitments fold back to C.
    blind = tagged_prefix(TAG_RANGE + "/blind", group.scalar_to_bytes(r), c_b)
    blindings = [0] * k
    acc = 0
    for i in range(1, k):
        blindings[i] = group.nonzero_scalar_at(blind, i.to_bytes(4, "big"))
        acc = (acc + blindings[i] * (1 << i)) % group.q
    blindings[0] = (r - acc) % group.q

    bits = tuple(
        _prove_bit(group, c_b, i, (v >> i) & 1, blindings[i]) for i in range(k))
    return RangeProof(bits)


def verify_range(group: GroupParams, c: int, proof: RangeProof) -> bool:
    """True iff the proof shows c opens to a value in [0, 2^len(bits))."""
    if proof.k < 1 or not group.is_element(c):
        return False
    c_b = group.element_to_bytes(c)
    for i, bp in enumerate(proof.bits):
        if not _verify_bit(group, c_b, i, bp):
            return False
    # prod_i C_i^(2^i), by Horner's rule from the top bit down
    acc = group.identity
    for bp in reversed(proof.bits):
        acc = group.mul(group.mul(acc, acc), bp.bit_commitment)
    return acc == c
