import hashlib
import random
from dataclasses import fields, replace

import pytest

from pvx.group import (
    STANDARD_GROUP,
    TAG_RANGE,
    TEST_GROUP,
    GroupParams,
    tagged_prefix,
)
from pvx.pedersen import commit
from pvx.rangeproof import (
    BitProof,
    RangeProof,
    _prove_bit,
    prove_range,
    verify_range,
)


def test_zero_value_verifies():
    g = TEST_GROUP
    proof = prove_range(g, 0, 42, k=8)
    assert verify_range(g, [(commit(g, 0, 42), proof)])


def test_boundary_value_rejected_at_prove_time():
    g = TEST_GROUP
    with pytest.raises(ValueError):
        prove_range(g, 2 ** 8, 42, k=8)
    with pytest.raises(ValueError):
        prove_range(g, -1, 42, k=8)


def test_roundtrip_random_values():
    g = TEST_GROUP
    rnd = random.Random(7)
    for _ in range(25):
        v = rnd.randrange(2 ** 8)
        r = rnd.randrange(1, g.q)
        proof = prove_range(g, v, r, k=8)
        assert proof.k == 8
        assert verify_range(g, [(commit(g, v, r), proof)])


def test_standard_profile_default_width():
    g = STANDARD_GROUP
    v = 2 ** 31 + 12345
    proof = prove_range(g, v, 777, k=g.range_bits)
    assert proof.k == 32
    assert verify_range(g, [(commit(g, v, 777), proof)])


def test_proof_bound_to_commitment():
    g = TEST_GROUP
    proof = prove_range(g, 5, 9, k=8)
    assert not verify_range(g, [(commit(g, 6, 9), proof)])
    assert not verify_range(g, [(commit(g, 5, 10), proof)])


def test_negative_encoding_rejected():
    # The "inflation" forgery: commit to q-1 (i.e. -1) and try to pass it
    # off with whatever proof material an attacker can assemble.
    g = TEST_GROUP
    r = 321
    bad = commit(g, g.q - 1, r)

    # (a) proving directly fails fast
    with pytest.raises(ValueError):
        prove_range(g, g.q - 1, r, k=8)

    # (b) grafting a valid proof for another commitment does not verify
    donor = prove_range(g, 255, r, k=8)
    assert not verify_range(g, [(bad, donor)])

    # (c) proof whose bit commitments multiply out to the bad commitment
    # but with one "bit" holding the -1 residue: per-bit OR proof fails
    residue = (g.q - 1 - 254) % g.q
    forged_bits = []
    acc_r = 0
    for i in range(8):
        bit = 1 if i < 7 else 0  # 254 = 0b11111110
        forged_bits.append(commit(g, bit, 1))
        acc_r += 1 << i
    # tack the residue onto bit 0's amount: commitment product now opens to q-1
    forged_bits[0] = g.mul(forged_bits[0], g.power(g.h, residue))
    donor254 = prove_range(g, 254, acc_r % g.q, k=8)
    grafted = RangeProof(tuple(
        replace(bp, bit_commitment=forged_bits[i])
        for i, bp in enumerate(donor254.bits)))
    assert not verify_range(g, [(commit(g, g.q - 1, acc_r % g.q), grafted)])


def test_overflow_value_rejected():
    g = TEST_GROUP
    r = 55
    # 2^8 is out of range for k=8; donor proofs cannot be made to fit
    bad = commit(g, 2 ** 8, r)
    donor = prove_range(g, 2 ** 8 - 1, r, k=8)
    assert not verify_range(g, [(bad, donor)])


def test_tampered_bit_commitment_fails():
    g = TEST_GROUP
    proof = prove_range(g, 77, 13, k=8)
    c = commit(g, 77, 13)
    bits = list(proof.bits)
    bp = bits[3]
    bits[3] = replace(bp, bit_commitment=g.mul(bp.bit_commitment, g.h))
    assert not verify_range(g, [(c, RangeProof(tuple(bits)))])


@pytest.mark.parametrize("g", [TEST_GROUP, STANDARD_GROUP],
                         ids=["test", "standard"])
def test_non_canonical_commitments_rejected(g):
    # p - x names the same residue as the element x, and q + 1, 0 and p
    # name none: the verifier refuses each, as commitment or as bit
    # commitment, and never raises
    proof = prove_range(g, 77, 13, k=8)
    c = commit(g, 77, 13)
    assert verify_range(g, [(c, proof)])
    for bad in (g.p - c, g.q + 1, 0, g.p):
        assert not verify_range(g, [(bad, proof)])
    for i in (0, 7):
        bp = proof.bits[i]
        for bad in (g.p - bp.bit_commitment, g.q + 1, 0, g.p):
            bits = list(proof.bits)
            bits[i] = replace(bp, bit_commitment=bad)
            assert not verify_range(g, [(c, RangeProof(tuple(bits)))]), (i, bad)


def test_tampered_response_fails():
    g = TEST_GROUP
    proof = prove_range(g, 77, 13, k=8)
    c = commit(g, 77, 13)
    bits = list(proof.bits)
    bp = bits[0]
    bits[0] = replace(bp, s0=(bp.s0 + 1) % g.q)
    assert not verify_range(g, [(c, RangeProof(tuple(bits)))])


def test_proving_is_deterministic():
    g = TEST_GROUP
    assert prove_range(g, 200, 44, k=8) == prove_range(g, 200, 44, k=8)


def test_range_soundness_sweep():
    # Every accepted proof opens inside [0, 2^k): sweep all k=4 values plus
    # wraparound candidates and check acceptance matches the range.
    g = TEST_GROUP
    r = 77
    for v in range(16):
        proof = prove_range(g, v, r, k=4)
        assert verify_range(g, [(commit(g, v, r), proof)])
    for v in (16, 17, 100, g.q - 1, g.q - 16):
        donor = prove_range(g, v % 16, r, k=4)
        assert not verify_range(g, [(commit(g, v, r), donor)])


# SHA-256 of repr(proof): every bit commitment, branch commitment,
# challenge and response.
KNOWN_PROOF_SHA256 = {
    "test": "82e310eaca1f793bf43f49b80b87d44d158acd1dd8432e8a334ca950c21e0d3b",
    "standard":
        "43255262b02d88ce2728f7e4c82f80f94afacc6236055187e06def9ec85dfbad",
}


@pytest.mark.parametrize("group", [TEST_GROUP, STANDARD_GROUP],
                         ids=["test", "standard"])
def test_proofs_known_answers(group):
    if group is TEST_GROUP:
        v, r, k = 173, 500, 8
    else:
        v, r, k = 3_000_000_007, 123456789 ** 5 % group.q, 32
    proof = prove_range(group, v, r, k)
    assert hashlib.sha256(repr(proof).encode()).hexdigest() == \
        KNOWN_PROOF_SHA256[group.name]
    assert verify_range(group, [(commit(group, v, r), proof)])


def test_prover_raises_only_the_fixed_bases(monkeypatch):
    # each bit's decoy branch is G^(s + r e) * H^((b - decoy) e), so proving
    # on a wide profile never falls back to a variable-base pow
    g = STANDARD_GROUP
    bases = []
    real = GroupParams._wide_power
    monkeypatch.setattr(GroupParams, "_wide_power",
                        lambda self, base, exp: bases.append(base)
                        or real(self, base, exp))
    v, r = 3_000_000_007, 123456789 ** 5 % g.q
    proof = prove_range(g, v, r, g.range_bits)
    assert bases and set(bases) <= {g.g, g.h}
    bases.clear()
    assert verify_range(g, [(commit(g, v, r), proof)])
    assert set(bases) <= {g.g, g.h}  # K, a0 and a1 go to multi_power


@pytest.mark.parametrize("g", [TEST_GROUP, STANDARD_GROUP],
                         ids=["test", "standard"])
def test_batch_rejects_every_single_field_mutant(g):
    """Four proofs verify as one batch.  Changing any one field of any one
    bit, swapping two proofs between their commitments, or a branch
    commitment that encodes no element, makes the whole batch fail."""
    rnd = random.Random(0xBA7C)
    claims = []
    for _ in range(4):
        v, r = rnd.randrange(2 ** 8), rnd.randrange(1, g.q)
        claims.append((commit(g, v, r), prove_range(g, v, r, k=8)))
    assert verify_range(g, claims)

    def with_bit(j, i, **changes):
        c, proof = claims[j]
        bits = list(proof.bits)
        bits[i] = replace(bits[i], **changes)
        mutant = list(claims)
        mutant[j] = (c, RangeProof(tuple(bits)))
        return mutant

    elements = ("bit_commitment", "a0", "a1")
    for j, (_, proof) in enumerate(claims):
        for i, bp in enumerate(proof.bits):
            for field in fields(BitProof):
                value = getattr(bp, field.name)
                if field.name in elements:  # another element
                    bad = g.mul(value, g.power(g.g, rnd.randrange(1, g.q)))
                else:  # another scalar mod q
                    bad = (value + rnd.randrange(1, g.q)) % g.q
                mutant = with_bit(j, i, **{field.name: bad})
                assert not verify_range(g, mutant), (j, i, field.name)
            for bad in (g.p - bp.a0, 0, g.q + 1):
                assert not verify_range(g, with_bit(j, i, a0=bad)), (j, i, bad)
    for j in range(4):
        for k in range(j + 1, 4):
            swapped = list(claims)
            swapped[j] = (claims[j][0], claims[k][1])
            swapped[k] = (claims[k][0], claims[j][1])
            assert not verify_range(g, swapped), (j, k)
    # two changes that cancel under equal weights: each equation has its own
    for i in range(8):
        delta = rnd.randrange(1, g.q)
        bp = claims[0][1].bits[i]
        mutant = with_bit(0, i, s0=(bp.s0 + delta) % g.q,
                          s1=(bp.s1 - delta) % g.q)
        assert not verify_range(g, mutant), i
        mutant = with_bit(0, i, s0=(bp.s0 + delta) % g.q)
        other = claims[3][1].bits[i]
        bits = list(claims[3][1].bits)
        bits[i] = replace(other, s0=(other.s0 - delta) % g.q)
        mutant[3] = (claims[3][0], RangeProof(tuple(bits)))
        assert not verify_range(g, mutant), i


@pytest.mark.parametrize("g", [TEST_GROUP, STANDARD_GROUP],
                         ids=["test", "standard"])
def test_bits_that_do_not_fold_back_to_the_commitment_fail(g):
    # sound bit proofs bound to C, for blindings that do not sum to C's r:
    # only the exact product check prod_i C_i^(2^i) == C refuses them
    v, r = 77, 13
    c = commit(g, v, r)
    c_b = g.element_to_bytes(c)
    prefix = tagged_prefix(TAG_RANGE, c_b)
    bits = tuple(_prove_bit(g, prefix, c_b, i, (v >> i) & 1, i + 1)
                 for i in range(8))
    assert not verify_range(g, [(c, RangeProof(bits))])
