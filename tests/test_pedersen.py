import random

import pytest

from pvx.group import STANDARD_GROUP, TEST_GROUP
from pvx.pedersen import commit, product


def test_commit_zero_zero_is_identity():
    for g in (TEST_GROUP, STANDARD_GROUP):
        assert commit(g, 0, 0) == g.identity


def test_commit_test_vector():
    # test profile p=2039, q=1019, G=4, H=181.  Oracle, run independently
    # beforehand: pow(4,7,2039)=72, pow(181,5,2039)=215, 72*215 % 2039 = 1207.
    # 1207 is above q, so the element it names is |1207| = 2039 - 1207 = 832.
    g = TEST_GROUP
    assert commit(g, 5, 7) == 832 == min(1207, g.p - 1207)
    assert pow(g.g, 7, g.p) * pow(g.h, 5, g.p) % g.p == 1207


def test_homomorphism_small_case():
    g = TEST_GROUP
    lhs = product(g, (commit(g, 3, 5), commit(g, 4, 6)))
    assert lhs == commit(g, 7, 11)


@pytest.mark.parametrize("group", [TEST_GROUP, STANDARD_GROUP])
def test_homomorphism_random_pairs(group):
    rnd = random.Random(1234)
    for _ in range(1000):
        v1, v2 = rnd.randrange(group.q), rnd.randrange(group.q)
        r1, r2 = rnd.randrange(group.q), rnd.randrange(group.q)
        combined = product(group, (commit(group, v1, r1), commit(group, v2, r2)))
        assert combined == commit(group, (v1 + v2) % group.q, (r1 + r2) % group.q)


def test_add_identity_and_inverse():
    g = TEST_GROUP
    c = commit(g, 9, 13)
    ident = g.identity
    assert product(g, (c, ident)) == c
    assert product(g, (c, g.inv(c))) == ident


def test_verify_opening():
    g = TEST_GROUP
    c = commit(g, 9, 1)
    assert commit(g, 9, 1) == c
    assert commit(g, 8, 1) != c
    assert commit(g, 9, 2) != c


def test_verify_opening_random_wrong_openings():
    # binding check: run on the standard profile, where a random wrong pair
    # hits a fixed commitment with negligible probability (in the test
    # group q=1019, ~1 in 1019 random pairs legitimately collide)
    g = STANDARD_GROUP
    c = commit(g, 77, 123)
    rnd = random.Random(99)
    hits = 0
    for _ in range(1000):
        v, r = rnd.randrange(g.q), rnd.randrange(g.q)
        if (v, r) == (77, 123):
            continue
        hits += commit(g, v, r) == c
    assert hits == 0


def test_scalar_range_enforced():
    g = TEST_GROUP
    with pytest.raises(ValueError):
        commit(g, g.q, 0)
    with pytest.raises(ValueError):
        commit(g, 0, -1)


def test_product_fold():
    g = TEST_GROUP
    rnd = random.Random(5)
    pairs = [(rnd.randrange(g.q), rnd.randrange(g.q)) for _ in range(10)]
    total_v = sum(v for v, _ in pairs) % g.q
    total_r = sum(r for _, r in pairs) % g.q
    assert product(g, (commit(g, v, r) for v, r in pairs)) == commit(g, total_v, total_r)
    assert product(g, []) == g.identity
