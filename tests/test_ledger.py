import random
from dataclasses import replace

import pytest

from pvx.group import STANDARD_GROUP as G
from pvx.group import TEST_GROUP
from pvx.ledger import (
    LedgerState,
    ShieldedInput,
    Transaction,
    TransparentInput,
    TransparentOutput,
    TxKind,
    apply_block,
    apply_transaction,
    conservation_audit,
    ring_rows,
    sign_excess,
    transaction_digest,
    validate_transaction,
)
from pvx.pedersen import commit
from pvx.rangeproof import RangeProof, prove_range
from pvx.ringsig import RingSignature, dual_ring_sign, dual_ring_verify
from pvx.txbuild import (
    MediatedLeg,
    build_issue,
    build_mediated_batch,
    build_shield,
    build_shielded_transfer,
    build_transparent_transfer,
    build_unshield,
)


def test_issue_increases_supply(harness):
    before = harness.state.total_issued
    harness.land(build_issue("cb", "bob.acct", "bob", 1000))
    assert harness.state.total_issued == before + 1000
    assert harness.state.balances["bob.acct"] == 1000


def test_wellformed_shield_accepts(harness):
    res = build_shield(G, harness.state, harness.wallets["alice"],
                       "alice.acct", 100, harness.stream)
    assert validate_transaction(harness.state, res.tx).accepted


@pytest.mark.parametrize("field", ["onetime_address", "ephemeral_public"])
@pytest.mark.parametrize("bad", [
    lambda g, key: g.p - 1, lambda g, key: 0,
    lambda g, key: g.p - key, lambda g, key: g.q + 1,
], ids=["p-1", "zero", "p-x", "q+1"])
def test_output_key_outside_subgroup_rejected(small_harness, monkeypatch,
                                              field, bad):
    # The honest builder signs the bad key (on `test` each of these fits
    # the 2-byte element width), so only the element check can catch it;
    # a later ring sampling such an output could never verify.
    from pvx import txbuild

    h = small_harness
    make = txbuild.make_onetime_output

    def twisted(*args):
        keys = make(*args)
        return replace(keys, **{field: bad(h.group, getattr(keys, field))})

    monkeypatch.setattr(txbuild, "make_onetime_output", twisted)
    res = build_shield(h.group, h.state, h.wallets["alice"], "alice.acct",
                       100, h.stream)
    assert not h.group.is_element(getattr(res.tx.sout[0], field))
    assert validate_transaction(h.state, res.tx).code \
        == "MalformedTransaction"


def _signed(group, state, digest, plans, drafts):
    """Hand-built draft inputs ring-signed over `digest`, as the builder
    signs its own."""
    return tuple(replace(si, signature=dual_ring_sign(
        group, digest, ring_rows(state, si.ring_refs, si.pseudo_commitment),
        plan.true_index, plan.note.spend_secret,
        (plan.note.blinding - plan.pseudo_blinding) % group.q))
        for si, plan in zip(drafts, plans))


def non_canonical(group, x):
    """Integers that encode no element: p - x names the same residue as
    the element x, and q + 1, 0 and p name none."""
    return (group.p - x, group.q + 1, 0, group.p)


@pytest.mark.parametrize("fixture", ["small_harness", "harness"])
def test_pseudo_commitment_outside_subgroup_rejected(request, fixture):
    # A pseudo-commitment outside 1..q is refused as malformed before its
    # digest is taken, even for a caller that claims to have admitted it:
    # the shape check runs before anything `admitted` skips.
    h = request.getfixturevalue(fixture)
    group = h.group
    tx = build_shielded_transfer(group, h.state, h.wallets["alice"], "bob",
                                 h.wallets["bob"].address, 30, 3, h.sampler,
                                 h.rng, h.stream).tx
    assert len(tx.sin) == 1
    assert validate_transaction(h.state, tx).accepted
    assert validate_transaction(h.state, tx, admitted=True).accepted
    bad = [_with_input(tx, pseudo_commitment=v)
           for v in non_canonical(group, tx.sin[0].pseudo_commitment)]
    for admitted in (False, True):
        for mutated in bad:
            assert validate_transaction(h.state, mutated,
                                        admitted=admitted).code \
                == "MalformedTransaction"


def _element_fields(tx):
    """(path, value) of every group-element field `shape_error` checks;
    of each range proof, the elements of its first and last bit."""
    if tx.excess is not None:
        yield ("excess", "nonce_point"), tx.excess.nonce_point
    for i, si in enumerate(tx.sin):
        yield ("sin", i, "pseudo_commitment"), si.pseudo_commitment
        yield ("sin", i, "signature", "key_image"), si.signature.key_image
    for i, so in enumerate(tx.sout):
        for name in ("onetime_address", "ephemeral_public", "commitment"):
            yield ("sout", i, name), getattr(so, name)
        bits = so.range_proof.bits
        for j in (0, len(bits) - 1):
            for name in ("bit_commitment", "a0", "a1"):
                yield (("sout", i, "range_proof", "bits", j, name),
                       getattr(bits[j], name))


def _set(obj, path, value):
    """A copy of `obj` with the field at `path` (names and tuple indices)
    set to `value`."""
    if not path:
        return value
    head, *rest = path
    if isinstance(head, int):
        return obj[:head] + (_set(obj[head], rest, value),) + obj[head + 1:]
    return replace(obj, **{head: _set(getattr(obj, head), rest, value)})


@pytest.mark.parametrize("fixture", ["small_harness", "harness"])
def test_non_canonical_elements_are_malformed_in_every_kind(request, fixture):
    h = request.getfixturevalue(fixture)
    group, alice, bob = h.group, h.wallets["alice"], h.wallets["bob"]
    spend = (3, h.sampler, h.rng, h.stream)
    legs = [MediatedLeg(alice, "bob", bob.address, 4),
            MediatedLeg(alice, "bob", bob.address, 6)]
    txs = [
        build_transparent_transfer(group, "alice.acct", "bob.acct", "bob",
                                   5).tx,
        build_shield(group, h.state, alice, "alice.acct", 7, h.stream).tx,
        build_unshield(group, h.state, alice, "acme.acct", "acme", 9,
                       *spend).tx,
        build_shielded_transfer(group, h.state, alice, "bob", bob.address, 11,
                                *spend).tx,
        build_mediated_batch(group, h.state, "mix", legs, *spend).tx,
    ]
    # an issue carries no group element
    assert {tx.kind for tx in txs} == set(TxKind) - {TxKind.ISSUE}
    for tx in txs:
        assert validate_transaction(h.state, tx).accepted, tx.kind
        for path, value in _element_fields(tx):
            for bad in non_canonical(group, value):
                verdict = validate_transaction(h.state, _set(tx, path, bad))
                assert verdict.code == "MalformedTransaction", \
                    (tx.kind, path, bad)


@pytest.mark.parametrize("fixture", ["small_harness", "harness"])
def test_reencoded_key_image_cannot_respend(request, fixture, monkeypatch):
    """p - I names the same residue class as the key image I, so a spend
    re-signed under p - I closes its ring and, if it were admitted, would
    not match `I in state.key_images`.  It is refused as malformed, before
    and after the honest spend is applied."""
    from pvx import ringsig
    from pvx.ledger import sign_excess
    from pvx.txbuild import _make_note, _plan_spends

    h = request.getfixturevalue(fixture)
    group, wallet = h.group, h.wallets["alice"]
    note = wallet.notes[0]
    plans = _plan_spends(h.state, [note], h.sampler, 3, h.rng, h.stream)
    out, created = _make_note(group, "alice", wallet.address, note.value - 9,
                              h.state.range_bits, h.stream)
    draft = Transaction(
        TxKind.UNSHIELD, tout=(TransparentOutput("acme.acct", 9, "acme"),),
        sin=(ShieldedInput(plans[0].ring_refs,
                           commit(group, note.value, plans[0].pseudo_blinding),
                           None),),
        sout=(out,))
    digest = transaction_digest(group, draft)
    z = (plans[0].pseudo_blinding - created.blinding) % group.q
    spend = replace(draft, sin=_signed(group, h.state, digest, plans,
                                       draft.sin),
                    excess=sign_excess(group, z, digest))
    image = spend.sin[0].signature.key_image

    honest = ringsig.key_image_for
    monkeypatch.setattr(ringsig, "key_image_for",
                        lambda *args: group.p - honest(*args))
    twisted = replace(spend, sin=_signed(group, h.state, digest, plans,
                                         draft.sin))
    monkeypatch.undo()
    sig = twisted.sin[0].signature
    assert sig.key_image == group.p - image
    # the premise: the chain closes over p - I, so only the encoding check
    # stands between this signature and a second image for one key
    rows = ring_rows(h.state, plans[0].ring_refs,
                     twisted.sin[0].pseudo_commitment)
    ring_b = ringsig._rows_bytes(group, rows)
    assert ringsig._chain(group, digest, rows, ring_b, sig.key_image,
                          sig.responses, 0, sig.c0)[0] == sig.c0
    assert not dual_ring_verify(group, digest, rows, sig)

    assert validate_transaction(h.state, spend).accepted
    spent = apply_transaction(h.state, spend)
    assert image in spent.key_images
    assert validate_transaction(spent, spend).code == "DoubleSpend"
    for state in (h.state, spent):
        assert validate_transaction(state, twisted).code \
            == "MalformedTransaction"


def test_excess_verifier_refuses_non_canonical_points(harness):
    from pvx.ledger import excess_point, verify_excess

    group = harness.group
    tx = build_shield(group, harness.state, harness.wallets["alice"],
                      "alice.acct", 10, harness.stream).tx
    digest = transaction_digest(group, tx)
    point = excess_point(group, tx)
    assert verify_excess(group, point, digest, tx.excess)
    for bad in non_canonical(group, point):
        assert not verify_excess(group, bad, digest, tx.excess)
    for bad in non_canonical(group, tx.excess.nonce_point):
        assert not verify_excess(group, point, digest,
                                 replace(tx.excess, nonce_point=bad))


def test_digest_changes_with_any_field(harness):
    res = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob", 50)
    base = transaction_digest(G, res.tx)
    assert transaction_digest(G, replace(res.tx, fee=1)) != base
    assert transaction_digest(
        G, replace(res.tx, tout=(TransparentOutput("bob.acct", 51, "bob"),))
    ) != base
    assert transaction_digest(G, replace(res.tx, sponsor_id="x")) != base
    # signatures are not part of the digest
    assert transaction_digest(G, replace(res.tx, excess=None)) == base


def test_carried_digest_belongs_to_its_group(small_harness):
    h = small_harness
    tx = build_shield(h.group, h.state, h.wallets["alice"], "alice.acct", 10,
                      h.stream).tx
    narrow = transaction_digest(TEST_GROUP, tx)
    wide = transaction_digest(G, tx)  # element widths differ per profile
    assert wide != narrow
    assert transaction_digest(TEST_GROUP, tx) == narrow
    assert transaction_digest(G, replace(tx)) == wide


@pytest.mark.parametrize("paid", [10, 10 + TEST_GROUP.q], ids=["exact", "wrapped"])
def test_cleartext_sum_cannot_wrap_the_group_order(small_harness, paid):
    # The balance check reads the cleartext netflow mod q, so on the test
    # profile (q = 1019) paying 10 + q out of a 10-unit note would balance.
    from pvx.ledger import ShieldedInput, sign_excess
    from pvx.txbuild import _make_note, _plan_spends

    h = small_harness
    group, wallet = h.group, h.wallets["alice"]
    h.land(build_shield(group, h.state, wallet, "alice.acct", 10, h.stream))
    note = next(n for n in wallet.notes if n.value == 10)
    plans = _plan_spends(h.state, [note], h.sampler, 3, h.rng, h.stream)
    change, opening = _make_note(group, "alice", wallet.address, 0,
                                 h.state.range_bits, h.stream)
    tx = Transaction(
        TxKind.UNSHIELD, tout=(TransparentOutput("acme.acct", paid, "acme"),),
        sin=(ShieldedInput(plans[0].ring_refs,
                           commit(group, 10, plans[0].pseudo_blinding), None),),
        sout=(change,))
    digest = transaction_digest(group, tx)
    z = (plans[0].pseudo_blinding - opening.blinding) % group.q
    tx = replace(tx, sin=_signed(group, h.state, digest, plans, tx.sin),
                 excess=sign_excess(group, z, digest))
    verdict = validate_transaction(h.state, tx)
    if paid < group.q:
        assert verdict.accepted, verdict
    else:
        assert verdict.code == "MalformedTransaction", verdict


def _with_input(tx, **fields):
    return replace(tx, sin=(replace(tx.sin[0], **fields), *tx.sin[1:]))


def _with_output(tx, **fields):
    return replace(tx, sout=(replace(tx.sout[0], **fields), *tx.sout[1:]))


def _with_bit(tx, **fields):
    proof = tx.sout[0].range_proof
    bits = (replace(proof.bits[0], **fields), *proof.bits[1:])
    return _with_output(tx, range_proof=replace(proof, bits=bits))


def _with_signature(tx, **fields):
    return _with_input(tx, signature=replace(tx.sin[0].signature, **fields))


def _with_credential(tx, serial, signature, attribute="eligible"):
    from pvx.blindsig import Credential
    return replace(tx, credentials=(Credential(attribute, serial, signature),))


def _transparent(**fields):
    # digested by its builder, then replaced: the copy carries no digest
    tx = build_transparent_transfer(TEST_GROUP, "alice.acct", "bob.acct",
                                    "bob", 10).tx
    return replace(tx, **fields)


UNENCODABLE = {
    "pseudo-commitment=-p": lambda tx, p: _with_input(
        tx, pseudo_commitment=-p),
    "pseudo-commitment=p": lambda tx, p: _with_input(
        tx, pseudo_commitment=p),
    "ring-ref=-1": lambda tx, p: _with_input(
        tx, ring_refs=(-1, *tx.sin[0].ring_refs[1:])),
    "ring-ref=2^64": lambda tx, p: _with_input(
        tx, ring_refs=(2 ** 64, *tx.sin[0].ring_refs[1:])),
    "onetime-address=-1": lambda tx, p: _with_output(tx, onetime_address=-1),
    "ephemeral=-1": lambda tx, p: _with_output(tx, ephemeral_public=-1),
    "commitment=2^200": lambda tx, p: _with_output(
        tx, commitment=2 ** 200),
    "commitment=-1": lambda tx, p: _with_output(tx, commitment=-1),
    "bit-commitment=-1": lambda tx, p: _with_bit(tx, bit_commitment=-1),
    "bit-commitment=p": lambda tx, p: _with_bit(tx, bit_commitment=p),
    "a0=-1": lambda tx, p: _with_bit(tx, a0=-1),
    "a1=p": lambda tx, p: _with_bit(tx, a1=p),
    "proof-width=2^16": lambda tx, p: _with_output(tx, range_proof=RangeProof(
        tx.sout[0].range_proof.bits[:1] * 2 ** 16)),
    "serial=-1": lambda tx, p: _with_credential(tx, -1, 1),
    "serial=2^256": lambda tx, p: _with_credential(tx, 2 ** 256, 1),
    "signature=-1": lambda tx, p: _with_credential(tx, 1, -1),
    # wrongly typed fields
    "key-image=str": lambda tx, p: _with_signature(tx, key_image="x"),
    "c0=str": lambda tx, p: _with_signature(tx, c0="x"),
    "responses=None": lambda tx, p: _with_signature(tx, responses=None),
    "signature=None": lambda tx, p: _with_input(tx, signature=None),
    "ring-refs=str": lambda tx, p: _with_input(tx, ring_refs="abc"),
    "nonce-point=str": lambda tx, p: replace(
        tx, excess=replace(tx.excess, nonce_point="a")),
    "fee=str": lambda tx, p: replace(tx, fee="1"),
    "attribute=int": lambda tx, p: _with_credential(tx, 1, 1, attribute=7),
    "sponsor-id=int": lambda tx, p: replace(tx, sponsor_id=5),
    "owner-id=int": lambda tx, p: _transparent(
        tout=(TransparentOutput("bob.acct", 10, 5),)),
}


@pytest.mark.parametrize("case", sorted(UNENCODABLE))
def test_fields_the_digest_cannot_encode_are_malformed(small_harness, case):
    # a group element outside [0, p), a count wider than its fixed
    # encoding or a field of the wrong type must get a code, not escape
    # from transaction_digest or a verifier
    h = small_harness
    tx = build_shielded_transfer(h.group, h.state, h.wallets["alice"], "bob",
                                 h.wallets["bob"].address, 20, 3, h.sampler,
                                 h.rng, h.stream).tx
    assert validate_transaction(h.state, tx).accepted
    bad = UNENCODABLE[case](tx, h.group.p)
    assert validate_transaction(h.state, bad).code == "MalformedTransaction"


def test_replayed_key_image_rejected(harness):
    res = build_unshield(G, harness.state, harness.wallets["alice"],
                         "acme.acct", "acme", 90, 3, harness.sampler,
                         harness.rng, harness.stream)
    harness.land(res)
    verdict = validate_transaction(harness.state, res.tx)
    assert verdict.code == "DoubleSpend"


def test_validation_clause_codes(harness):
    """Mutation harness: each failing clause maps to its own reason code."""
    state = harness.state
    wallet = harness.wallets["alice"]

    # shape: issuance with an input
    bad = Transaction(TxKind.ISSUE, tin=(TransparentInput("alice.acct", 5),),
                      tout=(TransparentOutput("bob.acct", 5, "bob"),),
                      sponsor_id="cb")
    assert validate_transaction(state, bad).code == "MalformedTransaction"

    # unknown account
    res = build_transparent_transfer(G, "ghost.acct", "bob.acct", "bob", 5)
    assert validate_transaction(state, res.tx).code == "UnknownAccount"

    # insufficient funds
    res = build_transparent_transfer(G, "bob.acct", "alice.acct", "alice",
                                     10 ** 9)
    assert validate_transaction(state, res.tx).code == "InsufficientFunds"

    # (a) ring signature: perturb one response
    res = build_unshield(G, state, wallet, "acme.acct", "acme", 70, 3,
                         harness.sampler, harness.rng, harness.stream)
    sin = res.tx.sin[0]
    sig = sin.signature
    broken = RingSignature(sig.c0, (sig.responses[0] + 1,) + sig.responses[1:],
                           sig.key_image)
    tam = replace(res.tx, sin=(replace(sin, signature=broken),) + res.tx.sin[1:])
    assert validate_transaction(state, tam).code == "RingSignature"

    # (b) double spend: two inputs properly signed over the real digest,
    # both consuming the same note (same key image)
    from pvx.ledger import ShieldedInput, sign_excess
    from pvx.txbuild import _make_note, _plan_spends
    note = wallet.notes[0]
    plans = _plan_spends(state, [note, note], harness.sampler, 3,
                         harness.rng, harness.stream)
    out, created = _make_note(G, "alice", wallet.address, 2 * note.value - 9,
                              state.range_bits, harness.stream)
    skeleton = tuple(ShieldedInput(
        p.ring_refs, commit(G, p.note.value, p.pseudo_blinding), None)
        for p in plans)
    dup = Transaction(TxKind.UNSHIELD, sin=skeleton, sout=(out,),
                      tout=(TransparentOutput("acme.acct", 9, "acme"),))
    digest = transaction_digest(G, dup)
    z = (sum(p.pseudo_blinding for p in plans) - created.blinding) % G.q
    dup = replace(dup, sin=_signed(G, state, digest, plans, skeleton),
                  excess=sign_excess(G, z, digest))
    assert validate_transaction(state, dup).code == "DoubleSpend"

    # duplicate one-time address (fresh tx reusing an existing output key)
    existing = state.outputs[0]
    res2 = build_shield(G, state, wallet, "alice.acct", 40, harness.stream)
    so = res2.tx.sout[0]
    reused = replace(res2.tx, sout=(replace(
        so, onetime_address=existing.onetime_address),))
    assert validate_transaction(state, reused).code == "DuplicateOnetime"

    # (c) range proof: wrong width
    res3 = build_shield(G, state, wallet, "alice.acct", 7, harness.stream)
    so = res3.tx.sout[0]
    short = prove_range(G, 7, 1234, k=4)
    tam3 = replace(res3.tx, sout=(replace(so, range_proof=short),))
    assert validate_transaction(state, tam3).code == "RangeProof"

    # (d) balance: output replaced by a fresh, internally-consistent note
    # of a different value (range proof valid, balance broken)
    res4 = build_shield(G, state, wallet, "alice.acct", 40, harness.stream)
    so = res4.tx.sout[0]
    forged_c = commit(G, 99, 4242)
    forged_p = prove_range(G, 99, 4242, k=state.range_bits)
    tam4 = replace(res4.tx, sout=(replace(
        so, commitment=forged_c, range_proof=forged_p),))
    assert validate_transaction(state, tam4).code == "BalanceProof"

    # (e) policy hook verdict passes through
    from pvx.policy import Decision, DenyReason
    res5 = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob", 5)
    verdict = validate_transaction(
        state, res5.tx,
        lambda tx: Decision.deny(DenyReason.BLACKLISTED))
    assert verdict.code == "Blacklisted"

    # (f) credential serial reuse (in-transaction duplicate)
    from pvx.blindsig import Credential
    cred = Credential("eligible", 777, 1)
    res6 = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob", 5)
    dup_serial = replace(res6.tx, credentials=(cred, cred))
    assert validate_transaction(state, dup_serial).code == "CredentialReused"


def test_consumed_serial_rejected(harness):
    from pvx.blindsig import Credential
    cred = Credential("eligible", 424242, 1)
    res = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob", 5)
    tx = replace(res.tx, credentials=(cred,))
    # serials are covered by the digest, so rebuild the excess proof
    from pvx.ledger import sign_excess
    tx = replace(tx, excess=sign_excess(G, 0, transaction_digest(G, tx)))
    assert validate_transaction(harness.state, tx).accepted
    st2 = apply_block(harness.state, [tx], harness.state.height + 1)
    assert validate_transaction(st2, tx).code in ("CredentialReused",
                                                  "DoubleSpend")
    # a different tx reusing the serial is refused on the serial alone
    res2 = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob", 6)
    tx2 = replace(res2.tx, credentials=(cred,))
    tx2 = replace(tx2, excess=sign_excess(G, 0, transaction_digest(G, tx2)))
    assert validate_transaction(st2, tx2).code == "CredentialReused"


def test_transparent_amounts_must_balance(harness):
    res = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob",
                                     50, fee=2)
    # mutate the fee: the cleartext equation breaks and so does the proof
    tam = replace(res.tx, fee=0)
    assert validate_transaction(harness.state, tam).code == "BalanceProof"


def test_apply_then_revalidate_is_double_spend(harness):
    res = build_shielded_transfer(
        G, harness.state, harness.wallets["alice"], "bob",
        harness.wallets["bob"].address, 60, 3, harness.sampler, harness.rng,
        harness.stream)
    harness.land(res)
    assert validate_transaction(harness.state, res.tx).code == "DoubleSpend"


def test_fold_equivalence_over_random_txs(harness):
    """Applying one-by-one equals applying the block atomically."""
    rng = random.Random(11)
    txs = []
    state = harness.state
    for i in range(100):
        accounts = sorted(state.balances)
        src = rng.choice(accounts)
        candidates = [a for a in accounts if a != src]
        dst = rng.choice(candidates)
        amount = rng.randint(1, 3)
        if state.balances[src] < amount:
            continue
        res = build_transparent_transfer(G, src, dst, dst.split(".")[0],
                                         amount)
        if not validate_transaction(state, res.tx).accepted:
            continue
        txs.append(res.tx)
        state = apply_transaction(state, res.tx)

    folded = harness.state
    for tx in txs:
        folded = apply_transaction(folded, tx)
    folded = replace(folded, height=harness.state.height + 1)
    atomic = apply_block(harness.state, txs, harness.state.height + 1)
    assert folded == atomic
    assert folded.digest() == atomic.digest()


def test_conservation_audit(harness):
    assert conservation_audit(harness.state, harness.openings)
    # corrupt one balance
    bad = replace(harness.state, balances={**harness.state.balances,
                                           "bob.acct": 7})
    assert not conservation_audit(bad, harness.openings)
    # corrupt one opening
    oid = next(iter(harness.openings))
    v, r = harness.openings[oid]
    assert not conservation_audit(harness.state,
                                  {**harness.openings, oid: (v + 1, r)})


@pytest.mark.parametrize("rekey", ["-1", "len(outputs)"])
def test_conservation_audit_rejects_an_output_id_out_of_range(harness, rekey):
    # output id -1 would name the last output through negative indexing
    last = len(harness.state.outputs) - 1
    openings = dict(harness.openings)
    opening = openings.pop(last)
    oid = -1 if rekey == "-1" else last + 1
    assert not conservation_audit(harness.state, {**openings, oid: opening})


def test_ring_member_past_the_last_output_is_unknown(harness):
    state = harness.state
    tx = build_shielded_transfer(G, state, harness.wallets["alice"], "bob",
                                 harness.wallets["bob"].address, 30, 3,
                                 harness.sampler, harness.rng,
                                 harness.stream).tx
    refs = (*tx.sin[0].ring_refs[:-1], len(state.outputs))
    bad = replace(tx, sin=(replace(tx.sin[0], ring_refs=refs), *tx.sin[1:]))
    verdict = validate_transaction(state, bad)
    assert verdict.code == "MalformedTransaction"
    assert verdict.detail == f"unknown ring member {len(state.outputs)}"


def test_conservation_fresh_ledger():
    state = LedgerState.genesis(G, {"a": 1000}, range_bits=12)
    assert conservation_audit(state, {})
    assert state.total_issued == 1000


def test_range_proofs_reverify_later(harness):
    from pvx.rangeproof import verify_range
    for out in harness.state.outputs:
        assert verify_range(G, [(out.commitment, out.range_proof)])


def test_one_bad_range_proof_among_four_outputs(harness):
    """The four outputs' proofs are checked as one batch: one bad proof
    fails the batch as RangeProof, and a branch commitment that encodes no
    element is refused before it, as MalformedTransaction."""
    h = harness
    shields = [build_shield(G, h.state, h.wallets["alice"], "alice.acct",
                            amount, h.stream) for amount in (5, 6, 7, 8)]

    def shield_of(outputs, blinding):
        tx = Transaction(TxKind.SHIELD,
                         tin=(TransparentInput("alice.acct", 26),),
                         sout=tuple(outputs))
        digest = transaction_digest(G, tx)
        return replace(tx, excess=sign_excess(G, -blinding % G.q, digest))

    outputs = [b.tx.sout[0] for b in shields]
    blinding = sum(b.created[0].blinding for b in shields)
    assert validate_transaction(h.state, shield_of(outputs, blinding)).accepted
    for i in range(4):
        proof = outputs[i].range_proof
        bits = list(proof.bits)
        bad = list(outputs)
        bits[3] = replace(bits[3], s1=(bits[3].s1 + 1) % G.q)
        bad[i] = replace(outputs[i], range_proof=RangeProof(tuple(bits)))
        assert validate_transaction(
            h.state, shield_of(bad, blinding)).code == "RangeProof", i
        bits[3] = replace(proof.bits[3], a0=G.p - proof.bits[3].a0)
        bad[i] = replace(outputs[i], range_proof=RangeProof(tuple(bits)))
        assert validate_transaction(
            h.state, shield_of(bad, blinding)).code == \
            "MalformedTransaction", i


def test_state_digest_sensitivity(harness):
    base = harness.state.digest()
    assert replace(harness.state, height=99).digest() != base
    assert replace(harness.state, total_issued=1).digest() != base
    mutated = dict(harness.state.balances)
    mutated["alice.acct"] += 1
    assert replace(harness.state, balances=mutated).digest() != base


def test_apply_rejects_overdraft(harness):
    tx = Transaction(TxKind.TRANSPARENT_TRANSFER,
                     tin=(TransparentInput("bob.acct", 10 ** 9),),
                     tout=(TransparentOutput("alice.acct", 10 ** 9, "alice"),))
    with pytest.raises(ValueError):
        apply_transaction(harness.state, tx)


def test_height_must_extend(harness):
    with pytest.raises(ValueError):
        apply_block(harness.state, [], harness.state.height + 2)
