import pytest

from pvx.group import STANDARD_GROUP
from pvx.group import TEST_GROUP as G
from pvx.stealth import (
    derive_stealth_keypair,
    make_onetime_output,
    recover_spend_secret,
    scan_output,
    shared_blinding,
)


def test_same_seed_same_keypair():
    assert derive_stealth_keypair(G, b"seed-1") == derive_stealth_keypair(G, b"seed-1")


def test_publics_match_secrets():
    kp = derive_stealth_keypair(G, b"abc")
    assert G.power(G.g, kp.scan_secret) == kp.scan_public
    assert G.power(G.g, kp.spend_secret) == kp.spend_public


def test_distinct_seeds_distinct_scan_publics():
    # collision check over 10^4 seeds; allow only birthday-level collisions
    # in the tiny test group (q = 1019) by running it on the secrets there
    # and the publics in the standard profile.
    from pvx.group import STANDARD_GROUP

    seen = set()
    for i in range(10_000):
        kp = derive_stealth_keypair(STANDARD_GROUP, b"s%d" % i)
        seen.add(kp.scan_public)
    assert len(seen) == 10_000


def test_scan_roundtrip():
    kp = derive_stealth_keypair(G, b"recipient")
    out = make_onetime_output(G, kp.address, ephemeral=77)
    secret = recover_spend_secret(G, kp, out.ephemeral_public, out.onetime_address)
    assert secret is not None
    # full one-time secret x satisfies G^x == P
    assert G.power(G.g, secret) == out.onetime_address
    # and the sender/recipient agree on the derived blinding
    shared = G.power(out.ephemeral_public, kp.scan_secret)
    assert shared_blinding(G, shared) == out.shared_blinding


def test_wrong_scan_secret_sees_nothing():
    kp = derive_stealth_keypair(G, b"recipient")
    other = derive_stealth_keypair(G, b"someone-else")
    out = make_onetime_output(G, kp.address, ephemeral=77)
    assert scan_output(G, other.scan_secret, other.spend_public,
                       out.ephemeral_public, out.onetime_address) is None
    assert recover_spend_secret(G, other, out.ephemeral_public,
                                out.onetime_address) is None


def test_distinct_ephemerals_distinct_onetime_addresses():
    kp = derive_stealth_keypair(G, b"recipient")
    out1 = make_onetime_output(G, kp.address, ephemeral=11)
    out2 = make_onetime_output(G, kp.address, ephemeral=12)
    assert out1.onetime_address != out2.onetime_address
    assert out1.ephemeral_public != out2.ephemeral_public


def test_structural_unlinkability():
    # Outputs to one recipient never repeat and never expose address parts.
    from pvx.group import STANDARD_GROUP as S

    kp = derive_stealth_keypair(S, b"merchant")
    addresses, ephemerals = set(), set()
    for e in range(2, 202):
        out = make_onetime_output(S, kp.address, ephemeral=e)
        addresses.add(out.onetime_address)
        ephemerals.add(out.ephemeral_public)
        assert out.onetime_address not in kp.address
        assert out.ephemeral_public not in kp.address
    assert len(addresses) == 200
    assert len(ephemerals) == 200


def test_malformed_inputs_rejected():
    # An element is an integer in 1..q: p - x (the same residue as x),
    # q + 1, 0 and p encode none, and each raises ValueError, never
    # OverflowError from an encoding.
    for group in (G, STANDARD_GROUP):
        kp = derive_stealth_keypair(group, b"x")
        out = make_onetime_output(group, kp.address, ephemeral=5)
        E, P = out.ephemeral_public, out.onetime_address
        for bad in (group.p - kp.scan_public, group.q + 1, 0, group.p):
            with pytest.raises(ValueError):
                make_onetime_output(group, (bad, kp.spend_public), ephemeral=5)
            with pytest.raises(ValueError):
                make_onetime_output(group, (kp.scan_public, bad), ephemeral=5)
        for bad_e, bad_p in ((group.p - E, P), (E, group.p - P),
                             (group.q + 1, P), (E, 0), (group.p, P)):
            with pytest.raises(ValueError):
                scan_output(group, kp.scan_secret, kp.spend_public, bad_e,
                            bad_p)
        with pytest.raises(ValueError):
            make_onetime_output(group, kp.address, ephemeral=0)
        assert scan_output(group, kp.scan_secret, kp.spend_public, E, P) \
            is not None
