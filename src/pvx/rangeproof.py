"""Bit-decomposition range proofs, verified in batches.

A proof that a commitment C = G^r * H^v opens to some v in [0, 2^k)
consists of k bit commitments C_i = G^{r_i} * H^{b_i} together with, per
bit, a two-branch OR proof that C_i opens to 0 or to 1.  The per-bit
blindings are chosen so that prod_i C_i^{2^i} == C, which the verifier
recomputes; no extra consistency scalar is needed.

The OR proof is the commitment form of Cramer, Damgard and Schoenmakers,
"Proofs of Partial Knowledge and Simplified Design of Witness Hiding
Protocols" (CRYPTO 1994), over the statements
    K_0 = C_i         (= G^{r_i} when b_i = 0)
    K_1 = C_i * H^-1  (= G^{r_i} when b_i = 1).
A bit proof carries both branch commitments a0, a1, the challenge c0 and
both responses; with c = H("pvx/range", C, i, C_i, a0, a1) and
c1 = c - c0 it satisfies G^s0 = a0 * K_0^c0 and G^s1 = a1 * K_1^c1.  The
prover draws the decoy branch's challenge and response from nonces and
knows K_decoy = G^{r_i} * H^(b_i - decoy), so it raises only the fixed
bases G and H.

`verify_range` checks the claims of one transaction together.  The
products prod_i C_i^{2^i} == C are checked exactly.  The 2k equations per
proof are checked at once by the small-exponent batch test of Bellare,
Garay and Rabin, "Fast Batch Verification for Modular Exponentiation and
Digital Signatures" (EUROCRYPT 1998): raised to weights rho in [1, q) and
multiplied, with K_1^c1 = C_i^c1 * H^-c1, they give
    prod a0^rho0 * a1^rho1 * C_i^(rho0 c0 + rho1 c1)
        == G^(sum rho0 s0 + rho1 s1) * H^(sum rho1 c1),
one `GroupParams.multi_power` against one `power2`.  The weights are
hashed from every commitment and every proof field, so a batch holding a
false equation passes with probability at most 1/q, as a Fiat-Shamir
challenge would.

All nonces and blindings are derived deterministically from the witness
(the blindings continue one hash state of r and C), so proving is a pure
function of its inputs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .group import GroupParams, TAG_RANGE, absorb, tagged_prefix
from .pedersen import commit


@dataclass(frozen=True)
class BitProof:
    bit_commitment: int
    a0: int
    a1: int
    c0: int
    s0: int
    s1: int


@dataclass(frozen=True)
class RangeProof:
    bits: tuple[BitProof, ...]

    @property
    def k(self) -> int:
        return len(self.bits)


def _bit_challenge(group: GroupParams, prefix, index: int, bit_c: int,
                   a0: int, a1: int) -> int:
    """c = H(tag, C, index, C_i, a0, a1) for `prefix` = the state of
    (tag, C), which every bit of one proof continues a copy of."""
    e = group.element_to_bytes
    return int.from_bytes(absorb(prefix.copy(), (
        index.to_bytes(4, "big"), e(bit_c), e(a0), e(a1))).digest(),
        "big") % group.q


def _prove_bit(group: GroupParams, prefix, c_b: bytes, index: int,
               bit: int, blinding: int) -> BitProof:
    """OR-prove that G^blinding * H^bit opens to bit 0 or 1."""
    q = group.q
    bit_c = commit(group, bit, blinding)

    seed = (group.scalar_to_bytes(blinding), c_b,
            index.to_bytes(4, "big"), bytes([bit]))
    alpha = group.nonzero_scalar(TAG_RANGE + "/nonce", *seed)
    s_decoy = group.nonzero_scalar(TAG_RANGE + "/decoy", *seed)
    c_decoy = group.nonzero_scalar(TAG_RANGE + "/decoy-challenge", *seed)

    # a_decoy = G^s_decoy * K_decoy^-c_decoy, with K_decoy^e =
    # G^(blinding e) * H^((bit - decoy) e): both factors are fixed bases
    decoy = 1 - bit
    e = q - c_decoy
    a_decoy = group.power2(group.g, s_decoy + blinding * e,
                           group.h, (bit - decoy) * e)
    a_true = group.power(group.g, alpha)
    a0, a1 = (a_true, a_decoy) if bit == 0 else (a_decoy, a_true)

    c = _bit_challenge(group, prefix, index, bit_c, a0, a1)
    c_true = (c - c_decoy) % q
    s_true = (alpha + c_true * blinding) % q
    if bit == 0:
        return BitProof(bit_c, a0, a1, c_true, s_true, s_decoy)
    return BitProof(bit_c, a0, a1, c_decoy, s_decoy, s_true)


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

    prefix = tagged_prefix(TAG_RANGE, c_b)
    bits = tuple(_prove_bit(group, prefix, c_b, i, (v >> i) & 1, blindings[i])
                 for i in range(k))
    return RangeProof(bits)


def verify_range(group: GroupParams,
                 claims: Iterable[tuple[int, RangeProof]]) -> bool:
    """True iff every (c, proof) in `claims` shows that c opens to a value
    in [0, 2^len(proof.bits)); True for no claims."""
    q = group.q
    is_element = group.is_element
    to_bytes = group.element_to_bytes
    # (C_i, a0, a1, c0, c1, s0, s1) of every bit, in claim order
    rows = []
    # every commitment and proof field, for the batch weights
    transcript = tagged_prefix(TAG_RANGE + "/batch")
    for c, proof in claims:
        if proof.k < 1 or not is_element(c):
            return False
        c_b = to_bytes(c)
        prefix = tagged_prefix(TAG_RANGE, c_b)
        absorb(transcript, (c_b, proof.k.to_bytes(2, "big")))
        for i, bp in enumerate(proof.bits):
            k0, a0, a1 = bp.bit_commitment, bp.a0, bp.a1
            if not (is_element(k0) and is_element(a0) and is_element(a1)):
                return False
            c0, s0, s1 = bp.c0 % q, bp.s0 % q, bp.s1 % q
            # fixed width per field: one item per bit is injective
            absorb(transcript, (b"".join((
                to_bytes(k0), to_bytes(a0), to_bytes(a1), to_bytes(c0),
                to_bytes(s0), to_bytes(s1))),))
            c1 = (_bit_challenge(group, prefix, i, k0, a0, a1) - c0) % q
            rows.append((k0, a0, a1, c0, c1, s0, s1))
        # prod_i C_i^(2^i), by Horner's rule from the top bit down
        acc = group.identity
        for bp in reversed(proof.bits):
            acc = group.mul(group.mul(acc, acc), bp.bit_commitment)
        if acc != c:
            return False

    weights = tagged_prefix(TAG_RANGE + "/weight", transcript.digest())
    pairs = []
    g_exp = h_exp = 0
    for j, (k0, a0, a1, c0, c1, s0, s1) in enumerate(rows):
        rho0 = group.nonzero_scalar_at(weights, (2 * j).to_bytes(4, "big"))
        rho1 = group.nonzero_scalar_at(weights, (2 * j + 1).to_bytes(4, "big"))
        pairs += ((a0, rho0), (a1, rho1), (k0, rho0 * c0 + rho1 * c1))
        g_exp += rho0 * s0 + rho1 * s1
        h_exp += rho1 * c1
    return group.multi_power(pairs) == group.power2(group.g, g_exp,
                                                     group.h, h_exp)
