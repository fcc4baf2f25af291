import dataclasses
import hashlib
import json
import random

import pytest

from pvx.entityreg import Account, Entity, Registry
from pvx.group import STANDARD_GROUP as G
from pvx.group import TEST_GROUP
from pvx.ledger import TxKind
from pvx.pedersen import commit
from pvx import observer
from pvx.observer import (
    DESIDERATA_ROWS,
    Observer,
    ScenarioProbes,
    SpendCorpus,
    SpendRecord,
    desiderata_report,
    institution_shares,
    make_spend_corpus,
    run_link_attack,
    tax_report,
    view,
)
from pvx.policy import EntityKind, Mode
from pvx.txbuild import (
    AgeBiasedSampler,
    UniformSampler,
    build_shielded_transfer,
    build_transparent_transfer,
    build_unshield,
    make_sampler,
)


@pytest.fixture
def registry():
    reg = Registry()
    for entity in (Entity("bank1", EntityKind.REGULATED_INSTITUTION),
                   Entity("bank2", EntityKind.REGULATED_INSTITUTION),
                   Entity("acme", EntityKind.REGISTERED_BUSINESS),
                   Entity("alice", EntityKind.INDIVIDUAL),
                   Entity("bob", EntityKind.INDIVIDUAL)):
        reg = reg.register_entity(entity)
    reg = reg.register_account(Account("acme.acct", "bank1", "acme"))
    reg = reg.register_account(Account("alice.acct", "bank2", "alice"))
    reg = reg.register_account(Account("bob.acct", "bank2", "bob"))
    return reg


@pytest.fixture
def world(harness, registry):
    """Chain with one transfer, one shield, one unshield, one private leg."""
    h = harness
    h.land(build_transparent_transfer(G, "alice.acct", "acme.acct", "acme", 77))
    res = build_unshield(G, h.state, h.wallets["alice"], "acme.acct", "acme",
                         120, 3, h.sampler, h.rng, h.stream)
    h.land(res)
    res = build_shielded_transfer(G, h.state, h.wallets["alice"], "bob",
                                  h.wallets["bob"].address, 90, 3, h.sampler,
                                  h.rng, h.stream)
    h.land(res)
    return h, registry


def test_regulator_sees_accounts_and_owners(world):
    h, registry = world
    records = view(G, h.chain, registry, Observer.regulator())
    transfer = [r for r in records if r.kind == "TransparentTransfer"][0]
    assert transfer.fields["outputs"][0]["account"] == "acme.acct"
    assert transfer.fields["outputs"][0]["amount"] == 77
    assert transfer.fields["entities"]["acme.acct"] == "acme"
    # the shield's destination one-time address owner is not identified
    shield = [r for r in records if r.kind == "Shield"][0]
    assert "alice" not in json.dumps(shield.fields["shielded_outputs"])


def test_public_sees_ledger_minus_registry(world):
    h, registry = world
    records = view(G, h.chain, registry, Observer.public())
    for rec in records:
        assert "entities" not in rec.fields
    unshield = [r for r in records if r.kind == "Unshield"][0]
    assert unshield.fields["outputs"][0]["account"] == "acme.acct"
    assert unshield.fields["outputs"][0]["amount"] == 120
    # payer is hidden: only a ring of candidates and a key image appear
    assert len(unshield.fields["shielded_inputs"][0]["ring"]) == 3


def test_institution_sees_only_its_accounts(world):
    h, registry = world
    records = view(G, h.chain, registry, Observer.institution("bank1"))
    transfer = [r for r in records if r.kind == "TransparentTransfer"][0]
    assert transfer.fields["entities"] == {"acme.acct": "acme"}  # not alice's


def test_projection_never_leaks_openings(world):
    """Byte-scan: no observer record contains any shielded opening."""
    h, registry = world
    for observer in (Observer.regulator(), Observer.public(),
                     Observer.institution("bank1"), Observer.adversary("x")):
        blob = b"".join(json.dumps(dataclasses.asdict(r)).encode()
                        for r in view(G, h.chain, registry, observer))
        for oid, (v, r) in h.openings.items():
            blinding = G.scalar_to_bytes(r)
            assert blinding not in blob
            assert blinding.hex().encode() not in blob
            opening = v.to_bytes(8, "big") + blinding
            assert opening not in blob
        for wallet in h.wallets.values():
            for note in wallet.notes:
                secret = G.scalar_to_bytes(note.spend_secret)
                assert secret not in blob
                assert secret.hex().encode() not in blob


def test_participant_opens_own_tx(world):
    # the participant holds (v, r) for its outputs, and they open the
    # commitment on the chain; any other amount does not
    h, _ = world
    for block in h.chain:
        tx = block.txs[0]
        if not tx.sout:
            continue
        oid = h.state.onetime_index[tx.sout[0].onetime_address]
        if oid not in h.openings:
            continue
        val, blind = h.openings[oid]
        assert commit(G, val, blind) == tx.sout[0].commitment
        assert commit(G, val + 1, blind) != tx.sout[0].commitment
        return
    pytest.fail("no unspent output found")


def test_tax_report_sums_transparent_inflows(harness, registry):
    h = harness
    h.land(build_transparent_transfer(G, "alice.acct", "acme.acct", "acme", 100))
    h.land(build_transparent_transfer(G, "alice.acct", "acme.acct", "acme", 250))
    # a private payment to an individual in the same period is not income
    res = build_shielded_transfer(G, h.state, h.wallets["alice"], "bob",
                                  h.wallets["bob"].address, 50, 3, h.sampler,
                                  h.rng, h.stream)
    h.land(res)
    report = tax_report(G, h.chain, registry, "acme", (1, len(h.chain)))
    assert report.total == 350
    assert [i.amount for i in report.items] == [100, 250]
    # independent fold over the raw chain agrees
    refold = sum(
        to.amount
        for block in h.chain for tx in block.txs
        if tx.kind is not TxKind.ISSUE
        and not any(ti.account_id == "acme.acct" for ti in tx.tin)
        for to in tx.tout if to.account_id == "acme.acct")
    assert refold == report.total


def test_tax_report_empty_and_errors(harness, registry):
    report = tax_report(G, harness.chain, registry, "acme",
                        (1, len(harness.chain)))
    assert report.total == 0 and report.items == ()
    with pytest.raises(ValueError, match="not a registered business"):
        tax_report(G, harness.chain, registry, "alice", (1, 1))


def test_link_attack_ring_one_is_fully_traced():
    corpus = make_spend_corpus(TEST_GROUP, trials=200, ring_size=1,
                               sampler=UniformSampler(), seed=5)
    stats = run_link_attack(corpus, "newest-member")
    assert stats.accuracy == 1.0


def test_link_attack_uniform_calibration():
    corpus = make_spend_corpus(TEST_GROUP, trials=3_000, ring_size=11,
                               sampler=UniformSampler(), seed=6)
    for heuristic in ("uniform-guess", "newest-member", "key-image-graph"):
        stats = run_link_attack(corpus, heuristic)
        assert abs(stats.z_score) <= 3.0, (heuristic, stats)
        assert stats.baseline == pytest.approx(1 / 11)


def test_link_attack_age_bias_detected():
    corpus = make_spend_corpus(TEST_GROUP, trials=3_000, ring_size=11,
                               sampler=AgeBiasedSampler(), seed=6)
    stats = run_link_attack(corpus, "newest-member")
    assert stats.z_score > 5.0
    # while the uniform guesser stays at baseline even on biased rings
    stats = run_link_attack(corpus, "uniform-guess")
    assert abs(stats.z_score) <= 3.0


# SHA-256 of repr([(ring_ids, key_image), ...]) over the whole corpus
KNOWN_CORPUS_SHA256 = {
    ("uniform", 71):
        "e70e09769b0c350b2b87269e94e045b5d548b21f3a5e132a9f59d486b0e3d1e6",
    ("age-biased", 72):
        "bd885d11c1ee758e6157916da9a1328753647807b772c2ba07413e291f2bc60b",
}


@pytest.mark.parametrize("sampler,seed", sorted(KNOWN_CORPUS_SHA256))
def test_spend_corpus_known_answers(sampler, seed):
    corpus = make_spend_corpus(TEST_GROUP, 200, 11, make_sampler(sampler),
                               seed)
    rows = [(s.ring_ids, s.key_image) for s in corpus.spends]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        KNOWN_CORPUS_SHA256[sampler, seed]


def _reference_key_image_graph(corpus, rng):
    """The heuristic as first written, on one set per ring: the semantics
    the tuple version must keep."""
    candidates = [set(s.ring_ids) for s in corpus.spends]
    spent: set[int] = set()
    changed = True
    while changed:
        changed = False
        for cand in candidates:
            if len(cand) == 1:
                member = next(iter(cand))
                if member not in spent:
                    spent.add(member)
                    changed = True
            else:
                before = len(cand)
                pinned = {m for m in cand if m in spent}
                if len(cand) - len(pinned) >= 1 and pinned:
                    cand -= pinned
                    changed = changed or len(cand) != before
    guesses = []
    for s, cand in zip(corpus.spends, candidates):
        pool = sorted(cand) if cand else list(s.ring_ids)
        pick = pool[rng.randrange(len(pool))]
        guesses.append(s.ring_ids.index(pick))
    return guesses


def _assert_same_as_reference(monkeypatch, corpus, seeds=range(3)):
    for seed in seeds:
        assert observer._guess_key_image_graph(corpus, random.Random(seed)) \
            == _reference_key_image_graph(corpus, random.Random(seed))
    stats = [run_link_attack(corpus, "key-image-graph", seed)
             for seed in seeds]
    with monkeypatch.context() as m:
        m.setitem(observer.HEURISTICS, "key-image-graph",
                  _reference_key_image_graph)
        assert stats == [run_link_attack(corpus, "key-image-graph", seed)
                         for seed in seeds]


@pytest.mark.parametrize("ring_size", [1, 2, 4, 11])
@pytest.mark.parametrize("sampler", ["uniform", "age-biased"])
def test_key_image_graph_matches_the_set_reference(monkeypatch, sampler,
                                                   ring_size):
    for seed in (11, 12, 13):
        corpus = make_spend_corpus(TEST_GROUP, 300, ring_size,
                                   make_sampler(sampler), seed)
        _assert_same_as_reference(monkeypatch, corpus)


@pytest.mark.parametrize("sampler", ["uniform", "age-biased"])
def test_key_image_graph_matches_the_set_reference_on_mixed_rings(
        monkeypatch, sampler):
    # same-seed corpora mint the same output ids, so interleaving ring-1
    # and ring-2 spends makes the ring-1 spends pin members of the others
    for seed in (11, 12, 13):
        ones, twos = (make_spend_corpus(TEST_GROUP, 300, size,
                                        make_sampler(sampler), seed)
                      for size in (1, 2))
        mixed = SpendCorpus(2, seed, tuple(
            s for pair in zip(ones.spends, twos.spends) for s in pair))
        _assert_same_as_reference(monkeypatch, mixed)
        # with nothing eliminated the guesser would draw as uniform-guess
        assert observer._guess_key_image_graph(mixed, random.Random(0)) != \
            observer._guess_uniform(mixed, random.Random(0))


def test_key_image_graph_passes_never_empty_a_ring(monkeypatch):
    # (1, 2) is checked before (1,) and (2,) pin both of its members, and
    # a pass never empties a ring, so it keeps both candidates; eliminating
    # from a worklist would cut it to one.  (7, 8) falls to (7,) only
    # after (8, 9) falls to (8,) a pass later.
    rings = [(1, 2), (1,), (2,), (7, 8), (8, 9), (9,), (3, 4, 5)]
    corpus = SpendCorpus(3, 0, tuple(SpendRecord(r, 0, 1) for r in rings))
    seeds = range(32)
    _assert_same_as_reference(monkeypatch, corpus, seeds)
    guesses = [observer._guess_key_image_graph(corpus, random.Random(seed))
               for seed in seeds]
    assert {g[0] for g in guesses} == {0, 1}
    assert {tuple(g[3:5]) for g in guesses} == {(0, 0)}


def test_link_attack_deterministic():
    corpus = make_spend_corpus(TEST_GROUP, trials=500, ring_size=5,
                               sampler=UniformSampler(), seed=1)
    assert run_link_attack(corpus, "uniform-guess", seed=2) == \
        run_link_attack(corpus, "uniform-guess", seed=2)
    with pytest.raises(ValueError):
        run_link_attack(corpus, "psychic")


def test_desiderata_rows_and_static_values():
    probes = ScenarioProbes()
    matrix = desiderata_report(Mode.SUPPORTED, probes)
    assert tuple(r.name for r in matrix.rows) == DESIDERATA_ROWS
    verdicts = matrix.verdicts()
    assert verdicts["Robust to cyberattacks"] == "none"
    assert verdicts["Electronic transactions"] == "full"
    assert verdicts["Can be denominated in units of fiat currency"] == "none"
    # empty scenario: measured rows unmeasured
    assert verdicts["Unlinkable transactions"] == "unmeasured"
    assert verdicts["Suitable for taxation"] == "unmeasured"
    assert verdicts["Can block some illicit uses"] == "unmeasured"
    med = desiderata_report(Mode.MEDIATED, probes).verdicts()
    assert med["Can be denominated in units of fiat currency"] == "full"


def test_institution_shares(world):
    h, registry = world
    shares = institution_shares(registry, h.chain)
    assert set(shares) <= {"bank1", "bank2"}
    assert all(0 < s <= 1 for s in shares.values())
    assert institution_shares(registry, []) == {}
