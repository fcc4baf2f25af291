from dataclasses import replace

import pytest

from pvx import ledger
from pvx.consensus import (
    Block,
    CatchUp,
    Commit,
    ConsensusParams,
    NewView,
    PrePrepare,
    Prepare,
    PreparedCert,
    SafetyViolation,
    ViewChange,
    World,
    block_digest,
    message_error,
)
from pvx.group import STANDARD_GROUP as G
from pvx.ledger import (
    LedgerState,
    apply_block,
    apply_transaction,
    transaction_digest,
    validate_transaction,
)
from pvx.simnet import parse_faults
from pvx.txbuild import (
    build_shield,
    build_shielded_transfer,
    build_transparent_transfer,
)
from conftest import Harness, assert_slot_invariants


def make_world(n, f, seed=1, drop=0.0, faults=None):
    genesis = LedgerState.genesis(G, {"a": 100_000, "b": 0}, range_bits=12)
    scripts = {node: parse_faults(specs)
               for node, specs in (faults or {}).items()}
    return World(genesis, ConsensusParams(n, f, seed, drop=drop,
                                          faults=scripts))


def transfer(i):
    return build_transparent_transfer(G, "a", "b", "bob", 10 + i).tx


def test_replica_bound_enforced():
    genesis = LedgerState.genesis(G, {"a": 100_000, "b": 0}, range_bits=12)
    with pytest.raises(ValueError, match="3f\\+1"):
        World(genesis, ConsensusParams(3, 1))


def test_single_node_commits_immediately():
    w = make_world(1, 0)
    tx = transfer(0)
    w.submit_client_tx("node0", tx)
    assert w.step(max_events=50) < 20
    assert w.nodes["node0"].executed == 1


def test_client_tx_to_non_leader_is_forwarded():
    w = make_world(4, 1)
    tx = transfer(0)
    w.submit_client_tx("node3", tx)
    assert w.run_until(lambda: w.tx_final_everywhere(tx), 10_000_000)
    w.check_safety()
    assert all(w.nodes[n].executed == 1 for n in w.nodes)


def test_crashed_follower_does_not_block():
    w = make_world(4, 1, faults={"node2": ["crash@0"]})
    tx = transfer(0)
    w.submit_client_tx("node0", tx)
    assert w.run_until(lambda: w.tx_final_everywhere(tx), 30_000_000)
    w.check_safety()
    assert [w.nodes[n].executed
            for n in ("node0", "node1", "node3")] == [1, 1, 1]
    assert w.nodes["node2"].executed == 0


def test_crashed_leader_triggers_view_change():
    w = make_world(4, 1, faults={"node0": ["crash@0"]})
    tx = transfer(0)
    w.submit_client_tx("node1", tx)
    assert w.run_until(lambda: w.tx_final_everywhere(tx), 60_000_000)
    w.check_safety()
    live = [w.nodes[n] for n in ("node1", "node2", "node3")]
    assert all(node.executed == 1 for node in live)
    assert all(node.view >= 1 for node in live)


def test_equivocating_leader_cannot_split_honest_nodes():
    w = make_world(4, 1, faults={"node0": ["equivocate@1"]})
    sent_by_node0 = []
    send = w.net.send

    def record(dst, msg):
        if msg.sender == "node0" and getattr(msg, "seq", None) == 1:
            sent_by_node0.append((dst, msg))
        send(dst, msg)

    w.net.send = record
    tx = transfer(0)
    w.submit_client_tx("node0", tx)
    done = w.run_until(
        lambda: all(w.nodes[n].executed >= 1
                    for n in ("node1", "node2", "node3")),
        120_000_000)
    assert done
    w.check_safety()
    digests = {block_digest(G, w.nodes[n].chain[0])
               for n in ("node1", "node2", "node3")}
    assert len(digests) == 1
    assert all(w.nodes[n].view >= 1 for n in ("node1", "node2", "node3"))
    # the split: one block to node1 and node2, another to node3, no votes
    proposed = {dst: {m.digest for d, m in sent_by_node0
                      if d == dst and type(m) is PrePrepare}
                for dst in ("node1", "node2", "node3")}
    assert len(proposed["node1"]) == 1
    assert proposed["node1"] == proposed["node2"] != proposed["node3"]
    assert len(proposed["node3"]) == 1
    assert not [m for _, m in sent_by_node0 if type(m) in (Prepare, Commit)]


def _handed(node, *msgs):
    """Hands `msgs` to `node`'s handlers, unsealed; what it sends back."""
    return [action[-1] for msg in msgs for action in node.on_message(msg)
            if action[0] != "timer"]


@pytest.mark.xfail(strict=True, raises=SafetyViolation, reason=(
    "a PreparedCert carries no Prepares and a NewView no quorum, so one "
    "Byzantine replica's forged certificate makes the next leader re-propose "
    "over a committed block: node0 and node1 diverge at height 1"))
def test_forged_prepared_certificate_cannot_undo_a_commit():
    w = make_world(4, 1)  # node3 is Byzantine: its messages are built here
    node0, node1, node2 = (w.nodes[n] for n in ("node0", "node1", "node2"))
    # 1. node0 proposes A; node0, node1 and node2 prepare it
    (propose_a,) = [a[-1] for a in node0.on_client_tx(transfer(0))
                    if a[0] == "broadcast"]
    prepare1, prepare2 = _handed(node1, propose_a) + _handed(node2, propose_a)
    commit1 = _handed(node1, prepare2)
    _handed(node2, prepare1)
    _handed(node0, prepare1, prepare2)
    # 2. node0 alone executes A, on Commits from node1 and node3
    _handed(node0, *commit1, Commit(0, 1, propose_a.digest, "node3"))
    assert (node0.executed, node1.executed, node2.executed) == (1, 0, 0)
    # 3. node1 and node2 vote for view 1, and node1 holds node2's vote
    votes = []
    for node in (node1, node2):
        actions = []
        node._start_view_change(1, actions)
        votes += [a[-1] for a in actions if a[0] == "broadcast"]
    _handed(node1, votes[1])
    # 4. node3 votes too, with a certificate for B at a view nobody reached
    block_b = Block(1, (transfer(1),), "", "node0")
    digest_b = block_digest(G, block_b)
    new_view = _handed(node1, ViewChange(
        1, 0, (PreparedCert(1, 10 ** 6, digest_b, block_b),), "node3"))
    # 5. node1 and node2 prepare and commit what node1 re-proposed, with
    #    node3's votes for B
    prepare3, commit3 = (Prepare(1, 1, digest_b, "node3"),
                         Commit(1, 1, digest_b, "node3"))
    from2 = _handed(node2, *new_view, prepare3)
    from1 = _handed(node1, *from2, prepare3, commit3)
    _handed(node2, *from1, commit3)
    # 6. the honest replicas must still agree at height 1
    w.check_safety()


def test_invalid_tx_excluded_with_reason():
    w = make_world(4, 1)
    bad = build_transparent_transfer(G, "b", "a", "alice", 999).tx  # overdraft
    w.submit_client_tx("node0", bad)
    w.step(max_events=500)
    node = w.nodes["node0"]
    assert node.executed == 0
    assert "InsufficientFunds" in node.rejections.values()


def test_rejections_hold_one_entry_per_transaction():
    w = make_world(1, 0)
    bad = build_transparent_transfer(G, "b", "a", "alice", 999).tx  # overdraft
    for _ in range(100):
        w.submit_client_tx("node0", bad)
    w.step()
    assert w.nodes["node0"].rejections == {
        transaction_digest(G, bad).hex(): "InsufficientFunds"}


def test_committed_transactions_leave_no_per_transaction_state():
    # only committed_at may still name a transaction once it is final
    w = make_world(4, 1)
    txs = [transfer(i) for i in range(4)]
    for i, tx in enumerate(txs):
        w.submit_client_tx(f"node{i}", tx, at=i * 5_000)
    assert w.run_until(lambda: all(w.tx_final_everywhere(tx) for tx in txs),
                       30_000_000)
    w.check_safety()
    txids = {transaction_digest(G, tx).hex() for tx in txs}
    for node in w.nodes.values():
        assert txids <= set(node.committed_at)
        for name, table in vars(node).items():
            if isinstance(table, (dict, set)) and name != "committed_at":
                assert not (txids | set(txs)) & set(table), (node.node_id,
                                                               name)
        # executed slots retire into the commit-certificate log
        assert all(seq > node.executed for seq in node.slots), node.node_id
        assert len(node.commit_certs) == node.executed


def test_liveness_under_message_drop():
    w = make_world(7, 2, seed=9, drop=0.3)
    tx = transfer(0)
    w.submit_client_tx("node1", tx)
    for retry in range(60):
        if w.run_until(lambda: w.tx_final_everywhere(tx),
                       w.net.time + 2_000_000):
            break
        w.submit_client_tx(f"node{retry % 7}", tx)
    w.check_safety()
    assert w.tx_final_everywhere(tx)


def test_slot_invariants_hold_after_every_event():
    # acceptance 4's run 5 at n = 7: 30 % drop, node0 (view 0's leader)
    # crashed, node1 equivocating at height 2
    w = make_world(7, 2, seed=1005, drop=0.3,
                   faults={"node0": ["crash@0"], "node1": ["equivocate@2"]})
    txs = [transfer(j) for j in range(2)]
    for j, tx in enumerate(txs):
        w.submit_client_tx(f"node{j}", tx, at=j * 5_000)

    def final():  # `run_until` asks after every event
        assert_slot_invariants(w)
        return all(w.tx_final_everywhere(tx) for tx in txs)

    for attempt in range(40):
        if w.run_until(final, w.net.time + 2_000_000):
            break
        for j, tx in enumerate(txs):
            w.submit_client_tx(f"node{(attempt + j) % 7}", tx)
    w.check_safety()
    assert final()
    for node in list(w.nodes.values())[1:]:  # all but node0
        assert node.executed == 2 and node.view >= 1


def test_sequential_commits_in_order():
    w = make_world(4, 1)
    txs = [transfer(i) for i in range(5)]
    for i, tx in enumerate(txs):
        w.submit_client_tx(f"node{i % 4}", tx, at=i * 1_000)
    assert w.run_until(lambda: all(w.tx_final_everywhere(t) for t in txs),
                       60_000_000)
    w.check_safety()
    node = w.nodes["node0"]
    assert [b.height for b in node.chain] == list(range(1, len(node.chain) + 1))
    # all submitted txs landed exactly once
    seen = [transaction_digest(G, t).hex() for b in node.chain for t in b.txs]
    assert sorted(seen) == sorted(set(seen))


def test_state_machine_replication():
    w = make_world(4, 1, seed=3)
    txs = [transfer(i) for i in range(3)]
    for tx in txs:
        w.submit_client_tx("node1", tx)
    assert w.run_until(lambda: all(w.tx_final_everywhere(t) for t in txs),
                       60_000_000)
    digests = {w.nodes[n].ledger.digest() for n in w.nodes}
    assert len(digests) == 1


def test_full_trace_determinism():
    def run():
        w = make_world(4, 1, seed=77, drop=0.15,
                       faults={"node2": ["mute@30000..200000"]})
        txs = [transfer(i) for i in range(3)]
        for i, tx in enumerate(txs):
            w.submit_client_tx(f"node{i % 4}", tx, at=i * 5_000)
        w.run_until(lambda: all(w.tx_final_everywhere(t) for t in txs),
                    120_000_000)
        w.check_safety()
        return (w.stats_summary(),
                [w.nodes[n].ledger.digest() for n in sorted(w.nodes)])

    assert run() == run()


def test_unknown_node_rejected():
    w = make_world(1, 0)
    with pytest.raises(KeyError):
        w.submit_client_tx("nope", transfer(0))


def test_safety_checker_detects_divergence():
    w = make_world(4, 1)
    tx = transfer(0)
    w.submit_client_tx("node0", tx)
    w.run_until(lambda: w.tx_final_everywhere(tx), 10_000_000)
    # forge divergence by hand to prove the checker bites
    node = w.nodes["node1"]
    forged = replace(node.chain[0], proposer="evil")
    node.chain[0] = forged
    with pytest.raises(SafetyViolation):
        w.check_safety()


def _committed_world(*txs, faults=None):
    """A 4-replica world that has committed `txs` on every live replica,
    one block each, and passed `check_safety`."""
    w = make_world(4, 1, faults=faults)
    for i, tx in enumerate(txs):
        w.submit_client_tx("node0", tx, at=i * 50_000)
        assert w.run_until(lambda: w.tx_final_everywhere(tx), 30_000_000)
    w.check_safety()
    return w


@pytest.mark.parametrize("forge", [
    lambda s: replace(s, balances={**s.balances, "b": s.balances["b"] + 1}),
    lambda s: replace(s, key_images=s.key_images | {G.g})],
    ids=["balance", "key-image"])
def test_safety_checker_detects_ledger_divergence(forge):
    w = _committed_world(transfer(0))
    node = w.nodes["node2"]
    node.ledger = forge(node.ledger)
    with pytest.raises(SafetyViolation, match="ledger state divergence"):
        w.check_safety()


def test_safety_checker_checks_blocks_appended_after_a_passing_call():
    # node2 crashed at 0, so it was at height 0 while the others agreed on
    # heights 1 and 2; its later blocks are checked against theirs
    w = _committed_world(transfer(0), transfer(1),
                         faults={"node2": ["crash@0"]})
    node, honest = w.nodes["node2"], w.nodes["node0"]
    assert node.executed == 0 and honest.executed == 2
    node.chain.append(honest.chain[0])
    w.check_safety()
    node.chain.append(replace(honest.chain[1], proposer="evil"))
    with pytest.raises(SafetyViolation,
                       match="node0 and node2 diverge at height 2"):
        w.check_safety()


@pytest.mark.parametrize("height", [0, 1])
def test_preprepare_for_sequence_zero_gets_no_catchup(height):
    # a catch-up for seq 0 would read the commit-certificate log at -1
    w = _committed_world(*[transfer(i) for i in range(height)])
    catchups = w.net.stats.by_type.get("CatchUp")
    block = Block(0, (), "", "node0")
    pre_prepare = PrePrepare(0, 0, block, block_digest(G, block), "node0")
    w.net.send("node1", w._sealed(w.nodes["node0"], pre_prepare))
    w.step()
    node = w.nodes["node1"]
    assert node.executed == height and node.stats.rejected_byzantine == 0
    assert w.net.stats.by_type.get("CatchUp") == catchups


@pytest.mark.parametrize("n,f", [(1, 0), (4, 1)])
def test_undigestible_client_tx_is_dropped(n, f):
    # a pseudo-commitment of -p has no fixed-width encoding, so no replica
    # can take the txid: each drops the tx instead of crashing the world
    h = Harness().fund()
    tx = build_shielded_transfer(G, h.state, h.wallets["alice"], "bob",
                                 h.wallets["bob"].address, 50, 3, h.sampler,
                                 h.rng, h.stream).tx
    bad = replace(tx, sin=(replace(tx.sin[0],
                                   pseudo_commitment=-G.p),
                           *tx.sin[1:]))
    genesis = replace(h.state, height=0)  # the harness's blocks as genesis
    w = World(genesis, ConsensusParams(n, f, seed=5))
    for nid in w.nodes:
        w.submit_client_tx(nid, bad)
    w.step()
    for node in w.nodes.values():
        assert not node.mempool and node.stats.rejected_byzantine == 1
    good = build_transparent_transfer(G, "alice.acct", "bob.acct", "bob",
                                      25).tx
    w.submit_client_tx("node0", good)
    assert w.run_until(lambda: w.tx_final_everywhere(good), 60_000_000)
    w.check_safety()


def _shielded_world():
    """A 4-replica world on a funded harness's ledger, and a shielded
    transfer valid on it."""
    h = Harness().fund()
    tx = build_shielded_transfer(G, h.state, h.wallets["alice"], "bob",
                                 h.wallets["bob"].address, 50, 3, h.sampler,
                                 h.rng, h.stream).tx
    return World(replace(h.state, height=0), ConsensusParams(4, 1, seed=5)), tx


def _wide_pseudo_world():
    """A 4-replica world and a block whose one transaction has
    pseudo-commitment p - 1, which does not fit the 20-byte element width,
    so the block has no digest."""
    w, tx = _shielded_world()
    bad = replace(tx, sin=(replace(tx.sin[0], pseudo_commitment=G.p - 1),
                           *tx.sin[1:]))
    return w, Block(1, (bad,), "", "node0")


def _propose(node, *txs):
    """Hands `node` the view-0 leader's PrePrepare of a block of `txs`;
    whether it broadcast a Prepare."""
    block = Block(1, txs, "", "node0")
    actions = node.on_message(
        PrePrepare(0, 1, block, block_digest(G, block), "node0"))
    return any(isinstance(a[-1], Prepare) for a in actions)


def test_admitted_transaction_rings_are_verified_once(monkeypatch):
    # the mempool is the replica's record of what it has fully checked: a
    # block holding the very transaction it admitted re-runs no proof
    verified = []
    real = ledger.dual_ring_verify
    monkeypatch.setattr(ledger, "dual_ring_verify",
                        lambda *args: verified.append(1) or real(*args))
    w, tx = _shielded_world()
    node = w.nodes["node1"]
    node.on_client_tx(tx, from_client=False)
    assert transaction_digest(G, tx).hex() in node.mempool
    assert len(verified) == len(tx.sin)
    assert _propose(node, tx)
    assert len(verified) == len(tx.sin)
    assert node.stats.rejected_byzantine == 0


def _counting_proofs(monkeypatch):
    """Counts of the ring signatures and range-proof claims verified."""
    counts = {"rings": 0, "claims": 0}
    ring_verify, range_verify = ledger.dual_ring_verify, ledger.verify_range

    def rings(*args):
        counts["rings"] += 1
        return ring_verify(*args)

    def claims(group, batch):
        batch = list(batch)
        counts["claims"] += len(batch)
        return range_verify(group, batch)

    monkeypatch.setattr(ledger, "dual_ring_verify", rings)
    monkeypatch.setattr(ledger, "verify_range", claims)
    return counts


def _chained_world():
    """A 4-replica world, and two transactions valid in this order: the
    second spends the first's payment to bob."""
    h = Harness().fund()
    before = h.state
    first = build_shielded_transfer(G, h.state, h.wallets["alice"], "bob",
                                    h.wallets["bob"].address, 50, 3,
                                    h.sampler, h.rng, h.stream)
    h.land(first)
    second = build_shielded_transfer(G, h.state, h.wallets["bob"], "alice",
                                     h.wallets["alice"].address, 20, 3,
                                     h.sampler, h.rng, h.stream).tx
    assert any(ref >= len(before.outputs)
               for si in second.sin for ref in si.ring_refs)
    world = World(replace(before, height=0), ConsensusParams(4, 1, seed=5))
    return world, first.tx, second


def test_forwarded_transaction_of_a_checked_block_is_not_proved_again(
        monkeypatch):
    w, first, second = _chained_world()
    counts = _counting_proofs(monkeypatch)
    node = w.nodes["node2"]
    assert _propose(node, first, second)
    proved = dict(counts)
    assert proved == {"rings": len(first.sin) + len(second.sin),
                      "claims": len(first.sout) + len(second.sout)}
    node.on_client_tx(first, from_client=False)
    assert transaction_digest(G, first).hex() in node.mempool
    assert counts == proved
    # the second's ring reaches past the committed outputs, into the
    # first's: it is checked in full against the committed ledger
    node.on_client_tx(second, from_client=False)
    txid = transaction_digest(G, second).hex()
    assert txid not in node.mempool
    assert node.rejections[txid] == "MalformedTransaction"


def test_forwarded_transaction_of_a_dropped_block_is_proved_in_full(
        monkeypatch):
    w, first, second = _chained_world()
    counts = _counting_proofs(monkeypatch)
    node = w.nodes["node2"]
    assert _propose(node, first, second)
    proved = dict(counts)
    # the view-1 leader's NewView re-proposes nothing: the block is gone
    node.on_message(NewView(1, (), "node1"))
    assert node.view == 1 and not node.slots
    node.on_client_tx(first, from_client=False)
    assert transaction_digest(G, first).hex() in node.mempool
    assert counts == {"rings": proved["rings"] + len(first.sin),
                      "claims": proved["claims"] + len(first.sout)}
    node.on_client_tx(second, from_client=False)
    assert node.rejections[transaction_digest(G, second).hex()] == \
        "MalformedTransaction"


def _forged_excess(tx):
    excess = replace(tx.excess, response=(tx.excess.response + 1) % G.q)
    return replace(tx, excess=excess)


def _swapped_key_image(tx):
    sin = tx.sin[0]
    other = G.hash_to_group("pvx/test-image", b"other")
    assert G.is_element(other) and other != sin.signature.key_image
    return replace(tx, sin=(replace(sin, signature=replace(
        sin.signature, key_image=other)),) + tx.sin[1:])


@pytest.mark.parametrize("forge", [_forged_excess, _swapped_key_image],
                         ids=["excess", "key-image"])
def test_admission_is_keyed_by_the_whole_transaction(forge):
    """The txid covers neither the excess signature nor key images, so a
    block copy of an admitted transaction that differs only there is
    checked in full and refused; the admitted one is still taken."""
    w, tx = _shielded_world()
    node = w.nodes["node1"]
    node.on_client_tx(tx, from_client=False)
    forged = forge(tx)
    assert transaction_digest(G, forged) == transaction_digest(G, tx)
    assert not _propose(node, forged)
    assert node.stats.rejected_byzantine == 1
    assert node.slots[1].digest is None
    assert _propose(node, tx)
    assert node.stats.rejected_byzantine == 1
    # admitted skips proofs only: a spent input still reads as spent
    spent = apply_transaction(node.ledger, tx)
    assert validate_transaction(spent, tx, admitted=True).code == "DoubleSpend"


def test_block_transaction_never_admitted_is_checked_in_full():
    """A ring member id names different outputs on two forks, so a block
    transaction the replica never admitted has its ring verified against
    the replica's own state."""
    h = Harness().fund()
    wallet = h.wallets["alice"]
    before = h.state
    other = build_shield(G, before, wallet, "alice.acct", 50, h.stream)
    h.land(build_shield(G, before, wallet, "alice.acct", 40, h.stream))
    fork = h.state
    ours = replace(apply_block(before, [other.tx], before.height + 1), height=0)
    assert len(ours.outputs) == len(fork.outputs)
    # a ring of every output holds the one the two forks disagree on
    tx = build_shielded_transfer(
        G, fork, wallet, "bob", h.wallets["bob"].address, 60,
        len(fork.outputs), h.sampler, h.rng, h.stream).tx
    assert validate_transaction(fork, tx).accepted
    assert validate_transaction(ours, tx).code == "RingSignature"
    node = World(ours, ConsensusParams(4, 1, seed=5)).nodes["node1"]
    assert not _propose(node, tx)
    assert node.stats.rejected_byzantine == 1 and not node.mempool


def test_undigestible_preprepare_is_rejected():
    w, block = _wide_pseudo_world()
    node = w.nodes["node1"]
    leader = node.leader_of(node.view)
    node.on_message(PrePrepare(node.view, 1, block, "00" * 32, leader))
    assert node.stats.rejected_byzantine == 1
    assert node.slots.get(1) is None or node.slots[1].digest is None


@pytest.mark.parametrize("field,value", [
    ("parent_digest", "zz"), ("height", 2 ** 70),
    ("height", "1"), ("proposer", None), ("proposer", "\ud800"),
    ("txs", None)])
def test_block_with_unencodable_header_is_rejected(field, value):
    w = make_world(4, 1)
    node = w.nodes["node1"]
    block = replace(Block(1, (transfer(0),), "", "node0"), **{field: value})
    node.on_message(PrePrepare(node.view, 1, block, "00" * 32, "node0"))
    node.on_message(CatchUp(1, "00" * 32, block, (), "node0"))
    assert node.stats.rejected_byzantine == 2


def test_message_without_a_block_is_rejected():
    w = make_world(4, 1)
    node = w.nodes["node1"]
    for msg in (PrePrepare(node.view, 1, None, "00" * 32, "node0"),
                CatchUp(1, "00" * 32, None, (), "node0")):
        assert message_error(G, node.replicas, msg) == "malformed block"
        w.net.send("node1", w._sealed(w.nodes["node0"], msg))
    assert w.step() == 2
    assert node.stats.rejected_byzantine == 2


def test_block_that_disagrees_with_its_message_is_rejected():
    w = make_world(4, 1)
    node = w.nodes["node1"]
    block_a, block_b = (Block(1, (transfer(i),), "", "node0") for i in (0, 1))
    digest_a = block_digest(G, block_a)
    later = replace(block_a, height=2)
    for msg in (PrePrepare(0, 1, block_b, digest_a, "node0"),
                PrePrepare(0, 1, later, block_digest(G, later), "node0"),
                CatchUp(1, digest_a, block_b, (), "node0"),
                CatchUp(2, digest_a, block_a, (), "node0")):
        assert message_error(G, node.replicas, msg) == \
            "block disagrees with its message"
    # a vote certifying A but carrying B would have node1, view 1's
    # leader, re-propose B under A's digest
    vote = ViewChange(1, 0, (PreparedCert(1, 0, digest_a, block_b),), "node3")
    w.net.send("node1", w._sealed(w.nodes["node3"], vote))
    assert w.step() == 1
    assert node.stats.rejected_byzantine == 1 and not node.view_votes


@pytest.mark.parametrize("field,value", [
    ("view", "0"), ("seq", "1"), ("digest", None), ("digest", "\ud800"),
    ("sender", None)])
def test_delivered_message_the_mac_cannot_encode_is_rejected(field, value):
    # a field the MAC encoding cannot take, in a PrePrepare or in a
    # CatchUp's inner Commit, is refused by the boundary check and counts
    # as byzantine instead of raising out of `World.step`
    w = make_world(4, 1)
    node = w.nodes["node1"]
    block = Block(1, (transfer(0),), "", "node0")
    digest = block_digest(G, block)
    pre_prepare = PrePrepare(0, 1, block, digest, "node0")
    commit = Commit(0, 1, digest, "node2")
    for msg in (replace(pre_prepare, **{field: value}),
                CatchUp(1, digest, block, (replace(commit, **{field: value}),),
                        "node0")):
        assert message_error(G, node.replicas, msg) is not None
        w.net.send("node1", msg)
    assert w.step() == 2
    assert node.stats.rejected_byzantine == 2
    assert node.slots.get(1) is None and node.executed == 0
    # the same messages, well formed and sealed, are taken
    w.net.send("node1", w._sealed(w.nodes["node0"], pre_prepare))
    w.step(max_events=1)
    assert node.stats.rejected_byzantine == 2
    assert node.slots[1].digest == digest


def test_undigestible_catchup_is_rejected():
    w, block = _wide_pseudo_world()
    node = w.nodes["node1"]
    node.on_message(CatchUp(1, "00" * 32, block, (), "node0"))
    assert node.stats.rejected_byzantine == 1
    assert node.executed == 0 and not node.slots
