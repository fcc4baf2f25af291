import hashlib
import random

import pytest

from pvx.group import STANDARD_GROUP, TEST_GROUP, GroupParams
from pvx.pedersen import commit
from pvx.rangeproof import BitProof, RangeProof, prove_range, verify_range


def test_zero_value_verifies():
    g = TEST_GROUP
    proof = prove_range(g, 0, 42, k=8)
    assert verify_range(g, commit(g, 0, 42), proof)


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
        assert verify_range(g, commit(g, v, r), proof)


def test_standard_profile_default_width():
    g = STANDARD_GROUP
    v = 2 ** 31 + 12345
    proof = prove_range(g, v, 777, k=g.range_bits)
    assert proof.k == 32
    assert verify_range(g, commit(g, v, 777), proof)


def test_proof_bound_to_commitment():
    g = TEST_GROUP
    proof = prove_range(g, 5, 9, k=8)
    assert not verify_range(g, commit(g, 6, 9), proof)
    assert not verify_range(g, commit(g, 5, 10), proof)


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
    assert not verify_range(g, bad, donor)

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
        BitProof(forged_bits[i], bp.c0, bp.s0, bp.s1)
        for i, bp in enumerate(donor254.bits)))
    assert not verify_range(g, commit(g, g.q - 1, acc_r % g.q), grafted)


def test_overflow_value_rejected():
    g = TEST_GROUP
    r = 55
    # 2^8 is out of range for k=8; donor proofs cannot be made to fit
    bad = commit(g, 2 ** 8, r)
    donor = prove_range(g, 2 ** 8 - 1, r, k=8)
    assert not verify_range(g, bad, donor)


def test_tampered_bit_commitment_fails():
    g = TEST_GROUP
    proof = prove_range(g, 77, 13, k=8)
    c = commit(g, 77, 13)
    bits = list(proof.bits)
    bp = bits[3]
    bits[3] = BitProof(g.mul(bp.bit_commitment, g.h), bp.c0, bp.s0, bp.s1)
    assert not verify_range(g, c, RangeProof(tuple(bits)))


@pytest.mark.parametrize("g", [TEST_GROUP, STANDARD_GROUP],
                         ids=["test", "standard"])
def test_non_canonical_commitments_rejected(g):
    # p - x names the same residue as the element x, and q + 1, 0 and p
    # name none: the verifier refuses each, as commitment or as bit
    # commitment, and never raises
    proof = prove_range(g, 77, 13, k=8)
    c = commit(g, 77, 13)
    assert verify_range(g, c, proof)
    for bad in (g.p - c, g.q + 1, 0, g.p):
        assert not verify_range(g, bad, proof)
    for i in (0, 7):
        bp = proof.bits[i]
        for bad in (g.p - bp.bit_commitment, g.q + 1, 0, g.p):
            bits = list(proof.bits)
            bits[i] = BitProof(bad, bp.c0, bp.s0, bp.s1)
            assert not verify_range(g, c, RangeProof(tuple(bits))), (i, bad)


def test_tampered_response_fails():
    g = TEST_GROUP
    proof = prove_range(g, 77, 13, k=8)
    c = commit(g, 77, 13)
    bits = list(proof.bits)
    bp = bits[0]
    bits[0] = BitProof(bp.bit_commitment, bp.c0, (bp.s0 + 1) % g.q, bp.s1)
    assert not verify_range(g, c, RangeProof(tuple(bits)))


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
        assert verify_range(g, commit(g, v, r), proof)
    for v in (16, 17, 100, g.q - 1, g.q - 16):
        donor = prove_range(g, v % 16, r, k=4)
        assert not verify_range(g, commit(g, v, r), donor)


# SHA-256 of repr(proof): every bit commitment, challenge and response.
KNOWN_PROOF_SHA256 = {
    "test": "cdfa8368f50e0b6b7ba6a38392352e47062a31678e74a6e7d9b4471ba39c3f40",
    "standard":
        "f6f8231033e075fcf9cf4809571bb45bf37b52fdc47899e186dd4d347eb8e05f",
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
    assert verify_range(group, commit(group, v, r), proof)


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
    assert verify_range(g, commit(g, v, r), proof)
    assert set(bases) - {g.g, g.h}  # the verifier does raise each K
