import hashlib
import random

import pytest

from pvx.group import STANDARD_GROUP as G
from pvx.group import TEST_GROUP
from pvx.blindsig import (
    credential_finalize,
    credential_issue,
    credential_request,
    issuer_keygen,
)
from pvx.ledger import TxKind, validate_transaction
from pvx.txbuild import (
    AgeBiasedSampler,
    BuildError,
    MediatedLeg,
    ScalarStream,
    UniformSampler,
    build_mediated_batch,
    build_shield,
    build_shielded_transfer,
    build_transparent_transfer,
    build_unshield,
    make_sampler,
)


def test_built_transactions_validate(harness):
    res = build_unshield(G, harness.state, harness.wallets["alice"],
                         "acme.acct", "acme", 120, 3, harness.sampler,
                         harness.rng, harness.stream, fee=2)
    assert res.tx.kind is TxKind.UNSHIELD
    assert validate_transaction(harness.state, res.tx).accepted
    # change output always present, possibly zero-valued
    assert len(res.tx.sout) == 1 + 0 + 1 - 1  # payment rides transparently
    assert len(res.created) == 1


def test_shielded_transfer_has_payment_and_change(harness):
    res = build_shielded_transfer(
        G, harness.state, harness.wallets["alice"], "bob",
        harness.wallets["bob"].address, 75, 3, harness.sampler, harness.rng,
        harness.stream)
    assert len(res.tx.sout) == 2
    assert validate_transaction(harness.state, res.tx).accepted
    recipients = {n.recipient_id for n in res.created}
    assert recipients == {"alice", "bob"}


def test_insufficient_funds_raises(harness):
    with pytest.raises(BuildError, match="insufficient"):
        build_unshield(G, harness.state, harness.wallets["bob"], "acme.acct",
                       "acme", 10_000, 3, harness.sampler, harness.rng,
                       harness.stream)
    with pytest.raises(BuildError, match="insufficient"):
        build_shield(G, harness.state, harness.wallets["bob"], "bob.acct",
                     50, harness.stream)


def test_ring_population_too_small(harness):
    with pytest.raises(BuildError, match="ring population"):
        build_unshield(G, harness.state, harness.wallets["alice"],
                       "acme.acct", "acme", 10, ring_size=50,
                       sampler=harness.sampler, rng=harness.rng,
                       stream=harness.stream)


def test_zero_and_negative_amounts_rejected(harness):
    with pytest.raises(BuildError):
        build_transparent_transfer(G, "alice.acct", "bob.acct", "bob", 0)
    with pytest.raises(BuildError):
        build_shield(G, harness.state, harness.wallets["alice"],
                     "alice.acct", -5, harness.stream)


def test_note_selection_keeps_change_in_range(harness):
    # oldest-first minimal prefix: change stays below the largest note
    wallet = harness.wallets["alice"]
    res = build_unshield(G, harness.state, wallet, "acme.acct", "acme", 10, 3,
                         harness.sampler, harness.rng, harness.stream)
    change_note = res.created[-1]
    assert 0 <= change_note.value < 2 ** harness.state.range_bits


def test_mediated_batch_round_trip(harness):
    issuer = issuer_keygen(b"batch-issuer")

    def cred(serial):
        req = credential_request(issuer.public, serial, 10_000 + serial)
        return credential_finalize(issuer.public, req,
                                   credential_issue(issuer, req.blinded))

    # give bob funds first
    res = build_shielded_transfer(
        G, harness.state, harness.wallets["alice"], "bob",
        harness.wallets["bob"].address, 150, 3, harness.sampler, harness.rng,
        harness.stream)
    harness.land(res)

    legs = [MediatedLeg(harness.wallets["alice"], "bob",
                        harness.wallets["bob"].address, 40),
            MediatedLeg(harness.wallets["bob"], "alice",
                        harness.wallets["alice"].address, 25)]
    pools = {"alice": [cred(1), cred(2), cred(3)],
             "bob": [cred(4), cred(5), cred(6)]}
    res = build_mediated_batch(G, harness.state, "mix", legs, 3,
                               harness.sampler, harness.rng, harness.stream,
                               fee=2, credential_pools=pools)
    assert res.tx.kind is TxKind.MEDIATED_BATCH
    assert len(res.tx.sin) >= 2 and len(res.tx.sout) >= 2
    assert len(res.tx.credentials) == len(res.tx.sin)
    assert validate_transaction(harness.state, res.tx).accepted


def test_mediated_batch_same_payer_legs(harness):
    issuer = issuer_keygen(b"batch-issuer-2")

    def cred(serial):
        req = credential_request(issuer.public, serial, 20_000 + serial)
        return credential_finalize(issuer.public, req,
                                   credential_issue(issuer, req.blinded))

    legs = [MediatedLeg(harness.wallets["alice"], "bob",
                        harness.wallets["bob"].address, 30),
            MediatedLeg(harness.wallets["alice"], "bob",
                        harness.wallets["bob"].address, 45)]
    pools = {"alice": [cred(i) for i in range(1, 7)]}
    res = build_mediated_batch(G, harness.state, "mix", legs, 3,
                               harness.sampler, harness.rng, harness.stream,
                               credential_pools=pools)
    # distinct notes per leg, distinct key images, distinct serials
    images = [si.signature.key_image for si in res.tx.sin]
    assert len(images) == len(set(images))
    serials = [c.serial for c in res.tx.credentials]
    assert len(serials) == len(set(serials))
    assert validate_transaction(harness.state, res.tx).accepted


def test_mediated_batch_needs_two_legs(harness):
    legs = [MediatedLeg(harness.wallets["alice"], "bob",
                        harness.wallets["bob"].address, 30)]
    with pytest.raises(BuildError, match="two legs"):
        build_mediated_batch(G, harness.state, "mix", legs, 3,
                             harness.sampler, harness.rng, harness.stream)


def test_missing_credentials_raise_when_pool_required(harness):
    legs = [MediatedLeg(harness.wallets["alice"], "bob",
                        harness.wallets["bob"].address, 30),
            MediatedLeg(harness.wallets["alice"], "bob",
                        harness.wallets["bob"].address, 45)]
    with pytest.raises(BuildError, match="credential"):
        build_mediated_batch(G, harness.state, "mix", legs, 3,
                             harness.sampler, harness.rng, harness.stream,
                             credential_pools={"alice": []})


def test_uniform_sampler_distribution():
    rng = random.Random(5)
    population = list(range(1000))
    counts = [0] * 1000
    sampler = UniformSampler()
    for _ in range(2000):
        for pick in sampler.sample(population, true_id=500, ring_size=11, rng=rng):
            counts[pick] += 1
    assert counts[500] == 0  # never returns the true member
    old = sum(counts[:500])
    new = sum(counts[501:])
    assert abs(old - new) / (old + new) < 0.05


def test_age_biased_sampler_prefers_old():
    rng = random.Random(5)
    population = list(range(1000))
    sampler = AgeBiasedSampler()
    old = new = 0
    for _ in range(2000):
        for pick in sampler.sample(population, true_id=0, ring_size=11, rng=rng):
            if pick < 333:
                old += 1
            elif pick >= 667:
                new += 1
    assert old > 3 * new


@pytest.mark.parametrize("sampler", [UniformSampler(), AgeBiasedSampler()],
                         ids=["uniform", "age-biased"])
def test_sampler_population_guard(sampler):
    # ring 11 needs 10 decoys besides the true member.  Populations of 10
    # and 11 ascending ids; true ids inside are the first, a middle and the
    # last member, ids outside lie before the start, in a gap and past the end
    for size in (10, 11):
        population = list(range(2, 2 * size + 2, 2))
        inside = (population[0], population[size // 2], population[-1])
        for true_id in inside + (0, 3, 2 * size + 2):
            rng = random.Random(0)
            if size == 10 and true_id in inside:
                with pytest.raises(BuildError, match="ring population"):
                    sampler.sample(population, true_id, 11, rng)
                continue
            decoys = sampler.sample(population, true_id, 11, rng)
            assert len(set(decoys)) == 10
            assert true_id not in decoys
            assert set(decoys) <= set(population)


# both samplers' draws from one seeded stream, pinned when population
# membership was a linear scan; the true ids are the first, a middle and
# the last member and one id outside the population
SAMPLER_DRAWS = {
    "uniform": [[297, 168, 42, 33, 222, 12, 255, 264, 30, 36],
                [294, 135, 90, 6, 9, 132, 246, 237, 183, 234],
                [177, 57, 33, 69, 273, 42, 3, 192, 186, 93],
                [24, 255, 207, 177, 228, 258, 33, 195, 222, 15]],
    "age-biased": [[3, 69, 240, 9, 6, 48, 36, 168, 24, 114],
                [204, 21, 87, 42, 141, 129, 153, 225, 63, 3],
                [177, 54, 66, 45, 165, 48, 105, 51, 39, 63],
                [87, 111, 6, 69, 57, 219, 60, 246, 141, 66]],
}


@pytest.mark.parametrize("name", sorted(SAMPLER_DRAWS))
def test_sampler_draws_are_pinned(name):
    rng = random.Random(1234)
    population = list(range(0, 300, 3))
    sampler = make_sampler(name)
    draws = [sampler.sample(population, true_id, 11, rng)
             for true_id in (0, 150, 297, 1)]
    assert draws == SAMPLER_DRAWS[name]


def test_make_sampler():
    assert make_sampler("uniform").name == "uniform"
    assert make_sampler("age-biased").name == "age-biased"
    with pytest.raises(ValueError):
        make_sampler("quantum")


def test_builders_are_deterministic(harness):
    import copy
    rng1, rng2 = random.Random(3), random.Random(3)
    s1, s2 = ScalarStream(G, b"d"), ScalarStream(G, b"d")
    w1 = copy.deepcopy(harness.wallets["alice"])
    w2 = copy.deepcopy(harness.wallets["alice"])
    a = build_unshield(G, harness.state, w1, "acme.acct", "acme", 33, 3,
                       UniformSampler(), rng1, s1)
    b = build_unshield(G, harness.state, w2, "acme.acct", "acme", 33, 3,
                       UniformSampler(), rng2, s2)
    assert a.tx == b.tx


# SHA-256 of repr() of the first 16 scalars of ScalarStream(group, b"kat")
KNOWN_STREAM_SHA256 = {
    "test": "9a1e8afc83779879bf1bfaf7cc6fccba41cd5696838097908d63036b9c6f7e5f",
    "standard":
        "fcb4eec25f93d152b64f22d48005d8bd8e7e14034049e3116854d207f8c9474d",
}


@pytest.mark.parametrize("group", [TEST_GROUP, G], ids=["test", "standard"])
def test_scalar_stream_known_answers(group):
    stream = ScalarStream(group, b"kat")
    values = [stream.next() for _ in range(16)]
    assert all(0 < s < group.q for s in values)
    assert hashlib.sha256(repr(values).encode()).hexdigest() == \
        KNOWN_STREAM_SHA256[group.name]
