import random
from dataclasses import replace

import pytest

from pvx.group import STANDARD_GROUP as G
from pvx.group import TAG_RING, TEST_GROUP
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
    transaction_digest,
    validate_transaction,
)
from pvx.pedersen import commit
from pvx.rangeproof import RangeProof, prove_range
from pvx.ringsig import RingSignature, dual_ring_verify, key_image_for
from pvx.txbuild import (
    build_issue,
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
@pytest.mark.parametrize("bad", [G.p - 1, 0], ids=["p-1", "zero"])
def test_output_key_outside_subgroup_rejected(harness, monkeypatch, field, bad):
    # The honest builder signs the bad key, so only the subgroup check can
    # catch it; a later ring sampling such an output could never verify.
    from pvx import txbuild

    make = txbuild.make_onetime_output
    monkeypatch.setattr(
        txbuild, "make_onetime_output",
        lambda *args: replace(make(*args), **{field: bad}))
    res = build_shield(G, harness.state, harness.wallets["alice"],
                       "alice.acct", 100, harness.stream)
    assert getattr(res.tx.sout[0], field) == bad
    assert validate_transaction(harness.state, res.tx).code \
        == "MalformedTransaction"


def _order_two_pseudo_spend(h, tx):
    """`tx`'s only input re-signed as a ring of one whose pseudo-commitment
    carries the order-2 factor -1.  Its offset key is then -G^z instead of
    G^z, and the signer grinds the nonce until the challenge is even, which
    erases the sign: the chain closes, and only the subgroup check on the
    pseudo-commitment refuses it."""
    group = h.group
    note = next(n for n in h.wallets["alice"].notes
                if n.output_id in tx.sin[0].ring_refs)
    r = 345  # the re-blinding; below q on both profiles
    pseudo = group.p - commit(group, note.value, r)
    draft = replace(tx, sin=(ShieldedInput((note.output_id,), pseudo, None),))
    digest = transaction_digest(group, draft)
    row = ring_rows(h.state, (note.output_id,), pseudo)[0]
    x, z = note.spend_secret, (note.blinding - r) % group.q
    image = key_image_for(group, x, row[0])
    hp = key_image_for(group, 1, row[0])
    enc = group.element_to_bytes
    for alpha in range(1, 100):
        g_a = enc(group.power(group.g, alpha))
        c = group.hash_to_scalar(TAG_RING, enc(row[0]) + enc(row[1]),
                                 enc(image), digest, g_a,
                                 enc(group.power(hp, alpha)), g_a)
        if c % 2 == 0:
            break
    sig = RingSignature(c, ((alpha - c * x) % group.q,
                            (alpha - c * z) % group.q), image)
    assert dual_ring_verify(group, digest, [row], sig, rows_checked=True)
    assert not dual_ring_verify(group, digest, [row], sig)
    return replace(draft, sin=(ShieldedInput((note.output_id,), pseudo, sig),))


@pytest.mark.parametrize("fixture", ["small_harness", "harness"])
def test_pseudo_commitment_outside_subgroup_rejected(request, fixture):
    # The ring check skips its rows, which are built from admitted outputs
    # and the pseudo-commitment, so the pseudo-commitment's own check is
    # what refuses the forged spend (replacing the value alone also breaks
    # the signature), on every call: the shared `proven` set holds the
    # honest transaction, and none of these can enter it.
    h = request.getfixturevalue(fixture)
    group = h.group
    tx = build_shielded_transfer(group, h.state, h.wallets["alice"], "bob",
                                 h.wallets["bob"].address, 30, 3, h.sampler,
                                 h.rng, h.stream).tx
    assert len(tx.sin) == 1
    proven = set()
    assert validate_transaction(h.state, tx, proven=proven).accepted
    assert tx in proven
    bad = [replace(tx, sin=(replace(tx.sin[0], pseudo_commitment=v),))
           for v in (group.p - 1, 0)]
    bad.append(_order_two_pseudo_spend(h, tx))
    for _ in range(2):
        for mutated in bad:
            assert validate_transaction(h.state, mutated, proven=proven).code \
                == "RingSignature"
    assert proven == {tx}


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
    from pvx.txbuild import _make_note, _plan_spends, _sign_spends

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
    tx = replace(tx, sin=_sign_spends(group, h.state, digest, plans),
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
    from pvx.txbuild import _make_note, _plan_spends, _sign_spends
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
    dup = replace(dup, sin=_sign_spends(G, state, digest, plans),
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


def test_proven_set_is_keyed_by_the_whole_transaction(harness):
    """Copies that share a checked transaction's digest but carry another
    excess signature or key image are caught; only the state-independent
    proofs are skipped, so spent inputs still read as double spends."""
    state = harness.state
    res = build_shielded_transfer(
        G, state, harness.wallets["alice"], "bob",
        harness.wallets["bob"].address, 60, 3, harness.sampler, harness.rng,
        harness.stream)
    tx = res.tx
    proven = set()
    assert validate_transaction(state, tx, proven=proven).accepted
    assert len(proven) == 1

    excess = replace(tx.excess, response=(tx.excess.response + 1) % G.q)
    forged = replace(tx, excess=excess)
    assert transaction_digest(G, forged) == transaction_digest(G, tx)
    assert validate_transaction(state, forged, proven=proven).code == \
        "BalanceProof"

    sin = tx.sin[0]
    other_image = G.hash_to_group("pvx/test-image", b"other")
    assert G.is_element(other_image) and other_image != sin.signature.key_image
    swapped = replace(tx, sin=(replace(sin, signature=replace(
        sin.signature, key_image=other_image)),) + tx.sin[1:])
    assert transaction_digest(G, swapped) == transaction_digest(G, tx)
    assert validate_transaction(state, swapped, proven=proven).code == \
        "RingSignature"

    assert validate_transaction(state, tx, proven=proven).accepted
    spent = apply_transaction(state, tx)
    assert validate_transaction(spent, tx).code == "DoubleSpend"
    assert validate_transaction(spent, tx, proven=proven).code == "DoubleSpend"


def test_proven_set_still_checks_ring_rows_against_the_state(harness):
    """A ring member id can name different outputs in two folded states,
    so a proven transaction's ring signature is verified every time."""
    wallet = harness.wallets["alice"]
    before = harness.state
    other = build_shield(G, before, wallet, "alice.acct", 50, harness.stream)
    harness.land(build_shield(G, before, wallet, "alice.acct", 40,
                              harness.stream))
    fork = apply_block(before, [other.tx], before.height + 1)
    assert len(fork.outputs) == len(harness.state.outputs)
    # a ring of every output holds the one the two forks disagree on
    res = build_shielded_transfer(
        G, harness.state, wallet, "bob", harness.wallets["bob"].address, 60,
        len(harness.state.outputs), harness.sampler, harness.rng,
        harness.stream)
    proven = set()
    assert validate_transaction(harness.state, res.tx, proven=proven).accepted
    assert validate_transaction(fork, res.tx).code == "RingSignature"
    assert validate_transaction(fork, res.tx, proven=proven).code == \
        "RingSignature"


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
        assert verify_range(G, out.commitment, out.range_proof)


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
