import random

import pytest

from pvx import ringsig
from pvx.group import STANDARD_GROUP, TAG_RING
from pvx.group import TEST_GROUP as G
from pvx.ringsig import (
    RingSignature,
    dual_ring_sign,
    dual_ring_verify,
    key_image_for,
    ring_sign,
    ring_verify,
)

# Each test runs for both column counts: m = 1 signs rows (P_i) with
# ring_sign/ring_verify, m = 2 signs rows (P_i, D_i) with
# dual_ring_sign/dual_ring_verify.
COLUMNS = (1, 2)


def keypair(i: int, group=G):
    x = group.nonzero_scalar("pvx/test-key", i.to_bytes(4, "big"))
    return x, group.power(group.g, x)


def member(i: int, m: int, group=G):
    """Member i's secrets and ring row; column j holds key i + 10^4 * j."""
    pairs = [keypair(i + 10_000 * j, group) for j in range(m)]
    return tuple(x for x, _ in pairs), tuple(pub for _, pub in pairs)


def build_ring(n: int, true_index: int, m: int, offset: int = 0, group=G):
    members = [member(offset + i, m, group) for i in range(n)]
    return [row for _, row in members], members[true_index][0]


def sign(m, msg, rows, idx, secrets, group=G):
    if m == 1:
        return ring_sign(group, msg, [p for p, in rows], idx, *secrets)
    return dual_ring_sign(group, msg, rows, idx, *secrets)


def verify(m, msg, rows, sig, group=G):
    if m == 1:
        return ring_verify(group, msg, [p for p, in rows], sig)
    return dual_ring_verify(group, msg, rows, sig)


def test_ring_size_one_degenerate_schnorr():
    for m in COLUMNS:
        rows, secrets = build_ring(1, 0, m)
        sig = sign(m, b"hello", rows, 0, secrets)
        assert verify(m, b"hello", rows, sig), m


@pytest.mark.parametrize("n,idx", [(2, 0), (3, 2), (5, 1), (8, 7), (11, 4)])
def test_sign_verify_roundtrip(n, idx):
    for m in COLUMNS:
        rows, secrets = build_ring(n, idx, m)
        sig = sign(m, b"msg", rows, idx, secrets)
        assert len(sig.responses) == n * m
        assert verify(m, b"msg", rows, sig), m


def test_message_bitflip_fails():
    for m in COLUMNS:
        rows, secrets = build_ring(4, 2, m)
        sig = sign(m, b"msg", rows, 2, secrets)
        assert not verify(m, b"msh", rows, sig), m


def test_same_key_in_disjoint_rings_links():
    for m in COLUMNS:
        secrets, row = member(0, m)
        secrets_b, row_b = secrets, row
        if m == 2:  # a fresh offset key: the image covers column 0 only
            z, d = keypair(30)
            secrets_b, row_b = (secrets[0], z), (row[0], d)
        ring_a = [row] + [member(10 + i, m)[1] for i in range(3)]
        ring_b = [member(20 + i, m)[1] for i in range(3)] + [row_b]
        sig_a = sign(m, b"first", ring_a, 0, secrets)
        sig_b = sign(m, b"second", ring_b, 3, secrets_b)
        assert verify(m, b"first", ring_a, sig_a), m
        assert verify(m, b"second", ring_b, sig_b), m
        assert sig_a.key_image == sig_b.key_image \
            == key_image_for(G, secrets[0], row[0])


def test_different_keys_do_not_link():
    for m in COLUMNS:
        rows, secrets0 = build_ring(4, 0, m)
        secrets1, _ = member(1, m)
        sig0 = sign(m, b"m", rows, 0, secrets0)
        sig1 = sign(m, b"m", rows, 1, secrets1)
        assert sig0.key_image != sig1.key_image, m


def test_linkability_exact_over_corpus():
    # Every pair of signatures from a mixed corpus links iff keys match.
    for m in COLUMNS:
        rnd = random.Random(42)
        corpus = []
        for signer in range(6):
            secrets, row = member(signer, m)
            for trial in range(4):
                decoys = [member(100 + rnd.randrange(500), m)[1]
                          for _ in range(3)]
                idx = rnd.randrange(4)
                ring = decoys[:idx] + [row] + decoys[idx:]
                msg = b"corpus %d %d" % (signer, trial)
                corpus.append((signer, sign(m, msg, ring, idx, secrets)))
        for i, (si, sigi) in enumerate(corpus):
            for sj, sigj in corpus[i + 1:]:
                assert (sigi.key_image == sigj.key_image) == (si == sj), m


def test_errors_on_bad_arguments():
    for m in COLUMNS:
        rows, secrets = build_ring(3, 1, m)
        with pytest.raises(IndexError):
            sign(m, b"m", rows, 5, secrets)
        with pytest.raises(ValueError):
            sign(m, b"m", rows, 0, secrets)  # secrets do not match slot 0
        with pytest.raises(ValueError):
            sign(m, b"m", [], 0, secrets)
    rows, (x, z) = build_ring(3, 1, 2)
    with pytest.raises(ValueError):
        dual_ring_sign(G, b"m", rows, 1, x, z + 1)  # offset secret is off


def test_signing_is_deterministic():
    for m in COLUMNS:
        rows, secrets = build_ring(4, 1, m)
        assert sign(m, b"m", rows, 1, secrets) == sign(m, b"m", rows, 1, secrets)


def test_unforgeability_fuzz():
    # >= 10^4 single-field mutations of message, ring, responses, c0 and
    # key image per column count (for m = 2 also the offset keys D_i);
    # every mutated signature must fail verification.  Run on the standard
    # profile: the hand-sized test group has a genuine 1/1019 soundness
    # error per attempt, so chance passes are expected there.
    S = STANDARD_GROUP
    for m in COLUMNS:
        rnd = random.Random(2024)
        members = [member(i, m, S) for i in range(3)]
        ring = [row for _, row in members]
        secrets = members[2][0]
        msg = b"the quick brown fox"
        sig = sign(m, msg, ring, 2, secrets, S)
        assert verify(m, msg, ring, sig, S)

        def fresh_key(column):
            return keypair(900 + rnd.randrange(90) + 10_000 * column, S)[1]

        rejected = 0
        trials = 10_500
        for _ in range(trials):
            mode = rnd.randrange(5 + (m == 2))
            mutated_msg, mutated_ring, mutated = msg, ring, sig
            if mode == 0:  # flip a message bit
                i = rnd.randrange(len(msg) * 8)
                b = bytearray(msg)
                b[i // 8] ^= 1 << (i % 8)
                mutated_msg = bytes(b)
            elif mode in (1, 5):  # swap one member's P_i, or its D_i
                column = 0 if mode == 1 else 1
                j = rnd.randrange(len(ring))
                row = list(ring[j])
                row[column] = fresh_key(column)
                if row[column] == ring[j][column]:
                    row[column] = keypair(991 + 10_000 * column, S)[1]
                mutated_ring = ring[:j] + [tuple(row)] + ring[j + 1:]
            elif mode == 2:  # perturb one response, in any column
                j = rnd.randrange(len(sig.responses))
                responses = list(sig.responses)
                responses[j] = (responses[j] + rnd.randrange(1, S.q)) % S.q
                mutated = RingSignature(sig.c0, tuple(responses), sig.key_image)
            elif mode == 3:  # perturb the chain seed
                c0 = (sig.c0 + rnd.randrange(1, S.q)) % S.q
                mutated = RingSignature(c0, sig.responses, sig.key_image)
            else:  # substitute the key image
                img = S.power(sig.key_image, rnd.randrange(2, S.q))
                if img == sig.key_image:
                    img = S.mul(sig.key_image, S.g)
                mutated = RingSignature(sig.c0, sig.responses, img)
            rejected += not verify(m, mutated_msg, mutated_ring, mutated, S)
        assert rejected == trials, m


@pytest.mark.parametrize("group", [G, STANDARD_GROUP], ids=["test", "standard"])
def test_key_image_outside_subgroup_rejected(group):
    enc = group.element_to_bytes
    for m in COLUMNS:
        rows, secrets = build_ring(3, 0, m, group=group)
        sig = sign(m, b"m", rows, 0, secrets, group)
        assert verify(m, b"m", rows, sig, group), m
        # q + 1, 0 and p encode no element
        for bad in (group.q + 1, 0, group.p):
            forged = RingSignature(sig.c0, sig.responses, bad)
            assert not verify(m, b"m", rows, forged, group), (m, bad)

        # p - I names the same residue as I.  Signing a ring of one with it
        # closes the chain for every challenge, which would give one key a
        # second image; only the element check stops it.
        secrets, row = member(0, m, group)
        twisted = group.p - key_image_for(group, secrets[0], row[0])
        hp = key_image_for(group, 1, row[0])
        alpha = 12345
        points = [group.power(group.g, alpha)] * m
        points.insert(1, group.power(hp, alpha))
        c = group.hash_to_scalar(TAG_RING, b"".join(map(enc, row)),
                                 enc(twisted), b"m", *map(enc, points))
        forged = RingSignature(
            c, tuple((alpha - c * x) % group.q for x in secrets), twisted)
        assert ringsig._chain(group, b"m", (row,), b"".join(map(enc, row)),
                              twisted, forged.responses, 0, c)[0] == c
        assert not verify(m, b"m", [row], forged, group), m


def test_wrong_length_responses_rejected():
    for m in COLUMNS:
        rows, secrets = build_ring(3, 1, m)
        sig = sign(m, b"m", rows, 1, secrets)
        for responses in ((), sig.responses[:-1], sig.responses + (1,),
                          sig.responses * 2):
            forged = RingSignature(sig.c0, responses, sig.key_image)
            assert not verify(m, b"m", rows, forged), (m, len(responses))
        assert not verify(m, b"m", [], sig), m


def test_single_column_signature_is_not_a_dual_one():
    # Over the same P column, an m = 1 signature fails as m = 2, both as it
    # stands and padded with any column-1 responses: the challenge hashes
    # one more point per row, so the two chains never meet.
    S = STANDARD_GROUP
    members = [member(i, 2, S) for i in range(4)]
    dual_rows = [row for _, row in members]
    ring = [p for p, _ in dual_rows]
    x, z = members[2][0]
    sig = ring_sign(S, b"m", ring, 2, x)
    assert not dual_ring_verify(S, b"m", dual_rows, sig)
    for t in (0, 1, 12345):
        padded = RingSignature(
            sig.c0, tuple(v for s in sig.responses for v in (s, t)),
            sig.key_image)
        assert not dual_ring_verify(S, b"m", dual_rows, padded)
    # and an m = 2 signature is not an m = 1 one over its P column
    dual = dual_ring_sign(S, b"m", dual_rows, 2, x, z)
    assert dual.key_image == sig.key_image
    assert not ring_verify(S, b"m", ring, dual)
    assert not ring_verify(S, b"m", ring, RingSignature(
        dual.c0, dual.responses[::2], dual.key_image))


@pytest.mark.parametrize("group", [G, STANDARD_GROUP], ids=["test", "standard"])
def test_ring_key_outside_subgroup_rejected(group):
    # The signer closes the chain over any keys it can encode; verification
    # must still refuse a row key outside 1..q, in either column, and
    # must not raise on one (p has no 20-byte encoding on `standard`).
    for m in COLUMNS:
        honest_rows, secrets = build_ring(3, 0, m, group=group)
        honest = sign(m, b"m", honest_rows, 0, secrets, group)
        for column in range(m):
            key = honest_rows[1][column]
            for bad in (group.p - key, group.q + 1, 0, group.p):
                rows = list(honest_rows)
                row = list(rows[1])
                row[column] = bad
                rows[1] = tuple(row)
                assert not verify(m, b"m", rows, honest, group), \
                    (m, column, bad)
                if bad < 2 ** (8 * group.scalar_bytes):
                    sig = sign(m, b"m", rows, 0, secrets, group)
                    assert not verify(m, b"m", rows, sig, group), \
                        (m, column, bad)


# Pinned signatures: members 0..4 of `keypair`, the ring signed by member 2
# over b"kat"; the dual ring pairs members 0..3 with members 100..103 and
# is signed by row 1 over b"kat-dual".
KNOWN_SIGNATURES = {
    "test": (
        RingSignature(677, (181, 473, 875, 314, 348), 319),
        RingSignature(827, (738, 9, 444, 268, 101, 743, 362, 58), 768)),
    "standard": (
        RingSignature(
            73199048320202372765534749352618037455397616899,
            (181929511305694631729136446346102403221142577694,
             629187475383245854107929671146426959697610270530,
             334511044615361695910948904842361477604877474305,
             536050424910433079325089397769155107667434141605,
             371023181315747221954379848657221406117457808669),
            505233270725815356035392053263578112127558729075),
        RingSignature(
            53542489504553723817589761295654892988295544194,
            (679768121136433243124990070154275400839441460898,
             466811026059427361560219956243022940177624190497,
             560130943499034769712861556104211141085850493007,
             368040601872023234816858276833800156607071221660,
             92111584269365721728455694710030758589209794232,
             546559537344269987536967539415841590493675713052,
             367249162745777892514400320081770481287133376675,
             548830417460197738534047630427289754162442760573),
            534849910674411788948393720773023042758644275663)),
}


@pytest.mark.parametrize("group", [G, STANDARD_GROUP], ids=["test", "standard"])
def test_signatures_known_answers(group):
    keys = [keypair(i, group) for i in range(5)]
    offsets = [keypair(100 + i, group) for i in range(4)]
    ring = [pub for _, pub in keys]
    rows = [(keys[i][1], offsets[i][1]) for i in range(4)]
    sig = ring_sign(group, b"kat", ring, 2, keys[2][0])
    dual = dual_ring_sign(group, b"kat-dual", rows, 1, keys[1][0],
                          offsets[1][0])
    assert (sig, dual) == KNOWN_SIGNATURES[group.name]
    assert ring_verify(group, b"kat", ring, sig)
    assert dual_ring_verify(group, b"kat-dual", rows, dual)
