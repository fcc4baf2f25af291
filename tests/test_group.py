import dataclasses
import random

import pytest

from pvx.group import (
    PROFILES,
    STANDARD_GROUP,
    TEST_GROUP,
    absorb,
    get_profile,
    tagged_hash,
    tagged_prefix,
)


def miller_rabin(n: int, rounds: int = 64) -> bool:
    """Independent primality oracle for auditing the frozen profiles."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rnd = random.Random(0xBEEF)
    for _ in range(rounds):
        a = rnd.randrange(2, n - 1)
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


def fold(group, x: int) -> int:
    """|x| = min(x, p - x): the element encoding of a residue mod p."""
    return min(x, group.p - x)


@pytest.mark.parametrize("profile", ["test", "standard"])
def test_profile_is_schnorr_group(profile):
    g = get_profile(profile)
    assert miller_rabin(g.p)
    assert miller_rabin(g.q)
    assert g.p == 2 * g.q + 1
    # both bases are elements of order q, which is prime
    for base in (g.g, g.h):
        assert g.is_element(base) and base != 1
        assert fold(g, pow(base, g.q, g.p)) == 1
    assert g.g != g.h


def test_test_profile_constants():
    assert TEST_GROUP.p == 2039
    assert TEST_GROUP.q == 1019
    assert TEST_GROUP.g == 4
    # H = hash_to_group("pvx/H"), recomputed once by hand for this profile
    assert TEST_GROUP.h == 181


def test_standard_profile_size():
    assert STANDARD_GROUP.q.bit_length() >= 128
    # elements are at most q, so they encode in the scalar width
    assert STANDARD_GROUP.scalar_bytes == 20
    assert len(STANDARD_GROUP.element_to_bytes(STANDARD_GROUP.q)) == 20


def test_tagged_hash_domain_separation():
    assert tagged_hash("pvx/a", b"x") != tagged_hash("pvx/b", b"x")
    # length prefixing keeps item boundaries unambiguous
    assert tagged_hash("t", b"ab", b"c") != tagged_hash("t", b"a", b"bc")
    assert tagged_hash("t", b"x") == tagged_hash("t", b"x")


# SHA-256 of the tag, a zero byte and each item after its 4-byte length
TAGGED_HASH_VECTORS = [
    (("pvx/ring",),
     "dd6b7949aed4f872e7bdf9f0c44bd03d85a6683996f5a18b8f2eb1c723d12293"),
    (("pvx/ring", b""),
     "edd160aa49c8a16f6d38fe7d1728711565ae5f6f50be23bd17d3f0340424a564"),
    (("pvx/test", b"a", b"", b"\x00\x01\x02", b"xyz" * 50),
     "1ca42c714684f76fb2a0b1d96af01981897c94e552537bb41771536882ffdd12"),
]


@pytest.mark.parametrize("args,digest", TAGGED_HASH_VECTORS,
                         ids=["no-items", "empty-item", "many-items"])
def test_tagged_hash_known_answers(args, digest):
    assert tagged_hash(*args).hex() == digest


def test_tagged_prefix_copies_extend_to_tagged_hash():
    rnd = random.Random(0x7A6)
    for _ in range(200):
        items = [rnd.randbytes(rnd.choice((0, 1, 2, 21, 64, 300)))
                 for _ in range(rnd.randrange(6))]
        tag = rnd.choice(("pvx/ring", "t", ""))
        cut = rnd.randrange(len(items) + 1)
        prefix = tagged_prefix(tag, *items[:cut])
        for _ in range(2):  # a copy leaves the prefix state as it was
            extended = absorb(prefix.copy(), items[cut:])
            assert extended.digest() == tagged_hash(tag, *items)


@pytest.mark.parametrize("profile", PROFILES)
def test_element_roundtrip_fixed_length(profile):
    g = get_profile(profile)
    elem = g.hash_to_group("pvx/test-elem", b"seed")
    raw = g.element_to_bytes(elem)
    assert len(raw) == g.scalar_bytes
    assert int.from_bytes(raw, "big") == elem


def test_inverse_matches_fermat():
    # 0 and multiples of p have no inverse and map to 0, as a^(p-2) does
    g = TEST_GROUP
    for a in range(-g.p, 2 * g.p + 1):
        assert g.inv(a) == fold(g, pow(a, g.p - 2, g.p)), a
    s = STANDARD_GROUP
    for a in (0, 1, s.g, s.h, s.q, s.q + 1, s.p - 1, s.p, s.p + 5):
        assert s.inv(a) == fold(s, pow(a, s.p - 2, s.p)), a


def test_hash_to_group_lands_in_subgroup():
    # an element is an integer in 1..q; 7 encodes the residue p - 7
    for g in (TEST_GROUP, STANDARD_GROUP):
        for a in (1, 7, g.q):
            assert g.is_element(a), a
        for a in (0, -1, g.q + 1, g.p - 1, g.p, g.p + 1):
            assert not g.is_element(a), a
        for i in range(20):
            e = g.hash_to_group("pvx/probe", i.to_bytes(2, "big"))
            assert g.is_element(e) and e != 1


def test_nonzero_scalar_never_zero():
    g = TEST_GROUP
    for i in range(2000):
        assert g.nonzero_scalar("pvx/nz", i.to_bytes(4, "big")) != 0


def test_nonzero_scalar_at_continues_a_prefix():
    rnd = random.Random(0x5CA)
    for g in (TEST_GROUP, STANDARD_GROUP):
        for _ in range(100):
            items = [rnd.randbytes(rnd.choice((0, 2, 8, 20, 33)))
                     for _ in range(rnd.randrange(4))]
            cut = rnd.randrange(len(items) + 1)
            prefix = tagged_prefix("pvx/nz", *items[:cut])
            for _ in range(2):  # the prefix state is left as it was
                assert g.nonzero_scalar_at(prefix, *items[cut:]) == \
                    g.nonzero_scalar("pvx/nz", *items)


def test_nonzero_scalar_at_retries_a_zero_candidate():
    # found by search: on `test` this input's counter-0 candidate is 0
    g = TEST_GROUP
    item = (353).to_bytes(4, "big")
    ctr = [i.to_bytes(4, "big") for i in range(2)]
    assert g.hash_to_scalar("pvx/nz", b"prefix", item, ctr[0]) == 0
    retry = g.hash_to_scalar("pvx/nz", b"prefix", item, ctr[1])
    assert retry != 0
    assert g.nonzero_scalar_at(tagged_prefix("pvx/nz", b"prefix"), item) \
        == g.nonzero_scalar("pvx/nz", b"prefix", item) == retry
    assert g.nonzero_scalar_at(tagged_prefix("pvx/nz"), b"prefix", item) \
        == retry


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        get_profile("p256")


# 9 = 3^2 is a quadratic residue other than 1, so it generates the order-q
# subgroup of the standard profile as well as 4 does
_OTHER_G = dataclasses.replace(STANDARD_GROUP, g=9)


@pytest.mark.parametrize("group", [TEST_GROUP, STANDARD_GROUP, _OTHER_G],
                         ids=["test", "standard", "standard-g9"])
def test_fixed_base_power_matches_builtin(group):
    # the original profile first, so its tables exist before the copy's
    STANDARD_GROUP.power(STANDARD_GROUP.g, 5)
    STANDARD_GROUP.power(STANDARD_GROUP.h, 5)
    p, q = group.p, group.q
    rnd = random.Random(0xF1B)
    exps = [0, 1, q - 1, q, q + 1, -1, 2**200 + 3]
    exps += [rnd.randrange(q) for _ in range(40)]
    exps += [rnd.randrange(-2**256, 2**256) for _ in range(10)]
    variable = group.hash_to_group("pvx/test-base", b"var")
    # p - x encodes the same element as x, so it powers to the same result
    for base in (group.g, group.h, variable, STANDARD_GROUP.g, p - group.h):
        for e in exps:
            assert group.power(base, e) == fold(group, pow(base, e % q, p)), \
                (base, e)


@pytest.mark.parametrize("group", [TEST_GROUP, STANDARD_GROUP, _OTHER_G],
                         ids=["test", "standard", "standard-g9"])
def test_power2_matches_two_powers(group):
    # as above: the original profile's tables exist before the copy's
    STANDARD_GROUP.power(STANDARD_GROUP.g, 5)
    STANDARD_GROUP.power(STANDARD_GROUP.h, 5)
    p, q = group.p, group.q
    rnd = random.Random(0x2B5)
    exps = [0, 1, q - 1, q, q + 1, -1, 2**200 + 3]
    variable = group.hash_to_group("pvx/test-base", b"var")
    bases = (group.g, group.h, variable, STANDARD_GROUP.g, p - group.h)
    for a in bases:
        for b in bases:
            for x in exps + [rnd.randrange(q)]:
                for y in exps + [rnd.randrange(-2**256, 2**256)]:
                    want = fold(group, pow(a, x % q, p) * pow(b, y % q, p) % p)
                    assert group.power2(a, x, b, y) == want, (a, x, b, y)
                    assert want == group.mul(group.power(a, x),
                                             group.power(b, y))


@pytest.mark.parametrize("group", [TEST_GROUP, STANDARD_GROUP, _OTHER_G],
                         ids=["test", "standard", "standard-g9"])
def test_multi_power_matches_builtin_pows(group):
    p, q = group.p, group.q
    rnd = random.Random(0x3B0)
    exps = [0, 1, q - 1, q, q + 1, -1, 2**200 + 3]
    variable = group.hash_to_group("pvx/test-base", b"var")
    bases = [group.g, group.h, variable, STANDARD_GROUP.g, p - group.h]
    bases += [group.hash_to_group("pvx/test-base", bytes([i]))
              for i in range(40)]

    def product(pairs):
        acc = 1
        for b, e in pairs:
            acc = acc * pow(b, e % q, p) % p
        return fold(group, acc)

    assert group.multi_power([]) == 1
    # each special exponent alone, then on every base at once
    for e in exps:
        for b in bases[:5]:
            assert group.multi_power([(b, e)]) == product([(b, e)]), (b, e)
        pairs = [(b, e) for b in bases]
        assert group.multi_power(pairs) == product(pairs), e
    # repeated bases, mixed exponents, at several batch sizes
    for n in (2, 3, 36, 144):
        pairs = [(rnd.choice(bases[:8]),
                  rnd.choice(exps + [rnd.randrange(-2**256, 2**256)]))
                 for _ in range(n)]
        assert group.multi_power(pairs) == product(pairs), n


@pytest.mark.parametrize("group", [TEST_GROUP, STANDARD_GROUP, _OTHER_G],
                         ids=["test", "standard", "standard-g9"])
def test_is_element_matches_euler_criterion(group):
    # a encodes an element exactly when 0 < a <= q, and then exactly one
    # of a and p - a is a quadratic residue by Euler's criterion
    p, q = group.p, group.q
    rnd = random.Random(0x1E7)
    values = [0, 1, q, q + 1, p - 1, p, p + 1, -1, group.g, group.h]
    values += [rnd.randrange(p) for _ in range(200)]
    values += [rnd.randrange(p) ** 2 % p for _ in range(50)]
    values += [rnd.randrange(-2 * p, 3 * p) for _ in range(20)]
    for a in values:
        assert group.is_element(a) == (0 < a <= q), a
        if group.is_element(a):
            assert (pow(a, q, p) == 1) != (pow(p - a, q, p) == 1), a


def test_signed_residues_form_a_group_of_order_q():
    # Exhaustively on the test profile: |x| = min(x, p - x) maps the q
    # quadratic residues one-to-one onto 1..q, which is exactly the set
    # is_element accepts, and every operation lands back in it.
    g = TEST_GROUP
    p, q = g.p, g.q
    residues = {x * x % p for x in range(1, p)}
    assert len(residues) == q
    assert sorted(fold(g, r) for r in residues) == list(range(1, q + 1))
    elements = range(1, q + 1)
    assert [a for a in range(-p, 2 * p + 1) if g.is_element(a)] \
        == list(elements)
    # G and H generate all of it, so both have order q
    for base in (g.g, g.h):
        powers = [g.power(base, e) for e in range(q)]
        assert sorted(powers) == list(elements)
        assert powers[0] == 1 and g.power(base, q) == 1
    rnd = random.Random(0x5A)
    others = [1, q, g.h] + [rnd.randrange(1, q + 1) for _ in range(20)]
    for a in elements:
        assert g.is_element(g.inv(a)) and g.mul(a, g.inv(a)) == 1, a
        for b in others:
            assert g.mul(a, b) == fold(g, a * b % p), (a, b)
    for i in range(200):
        e = g.hash_to_group("pvx/probe", i.to_bytes(2, "big"))
        assert 1 < e <= q, i
