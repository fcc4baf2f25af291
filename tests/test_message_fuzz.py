"""A seeded fuzzer for the replica boundary, in the style of LOKI (Ma et
al., NDSS 2023): messages are mutated in the protocol state they met.

One honest run is recorded: 4 replicas, f = 1, six transparent transfers,
network seed 3 and 20 % drop, which delivers all seven message types and
a NewView that re-proposes.  For each type the world is copied just before
a delivery that moved its receiver to a new height or view, and before
one that nests messages (`_chosen_deliveries`).  In each copy one mutant
takes the recorded message's place in the event queue and goes through
`World.step`, sealed by its sender when the MAC can encode it.  Every
field is mutated, and every field one level down (a nested message, a
block, a prepared certificate, a transaction).  Nothing may raise, in
that step or the next few, safety must hold, and the receiver either
counts the mutant in `stats.rejected_byzantine` and is unchanged, or ends
as it would without it or with the recorded message."""

import copy
from dataclasses import fields, is_dataclass, replace

import pytest

from pvx.consensus import (
    CatchUp,
    Commit,
    ConsensusParams,
    NewView,
    PrePrepare,
    Prepare,
    PreparedCert,
    TxForward,
    ViewChange,
    World,
    block_digest,
    compute_mac,
)
from pvx.group import STANDARD_GROUP as G
from pvx.ledger import LedgerState, validate_transaction
from pvx.simnet import Deliver
from pvx.txbuild import build_transparent_transfer
from conftest import assert_slot_invariants

TRANSFERS = 6
FOLLOW_EVENTS = 20  # events run after each mutant, which must not raise
# a wrong type, None, a bool, negative, 2^64 and an unknown sender for
# every field; an empty tuple too, which is well formed where a tuple is due
VALUES = ("1", None, True, -1, 2 ** 64, "x1", ())
# each field that nests messages, and a message type it must not hold
WRONG_NESTED = {"prepared": Commit, "pre_prepares": Commit, "commits": Prepare}


def _world():
    genesis = LedgerState.genesis(G, {"a": 100_000, "b": 0}, range_bits=12)
    return World(genesis, ConsensusParams(4, 1, seed=3, drop=0.2))


def _transfers():
    return [build_transparent_transfer(G, "a", "b", "bob", 10 + i).tx
            for i in range(TRANSFERS)]


def _honest_run(fork_at=frozenset(), after_event=None):
    """Runs the recorded world one event at a time, resubmitting as the
    scenario runner does, and calls `after_event(world)` after each event
    if given.  Returns its deliveries as (event index, message, receiver,
    whether the receiver reached a new height or view) and a copy of the
    world taken just before each event index in `fork_at`."""
    w, txs = _world(), _transfers()
    for i, tx in enumerate(txs):
        w.submit_client_tx(f"node{i % 4}", tx, at=i * 5_000)
    deliveries, forks, index = [], {}, 0
    for retry in range(60):
        deadline = w.net.time + 2_000_000
        while w.net.pending() and w.net.time <= deadline and not all(
                w.tx_final_everywhere(tx) for tx in txs):
            if index in fork_at:
                forks[index] = copy.deepcopy(w, {id(G): G})
            _, _, event = w.net._queue[0]
            if isinstance(event, Deliver):
                node = w.nodes[event.dst]
                before = (node.executed, node.view)
            w.step(max_events=1)
            if after_event is not None:
                after_event(w)
            if isinstance(event, Deliver):
                moved = (node.executed, node.view) != before
                deliveries.append((index, event.message, event.dst, moved))
            index += 1
        if all(w.tx_final_everywhere(tx) for tx in txs):
            break
        for tx in txs:
            if not w.tx_final_everywhere(tx):
                w.submit_client_tx(f"node{retry % 4}", tx)
    w.check_safety()
    return deliveries, forks


def _chosen_deliveries():
    """Per message type, its first delivery that moved the receiver to a
    new height or view, preferring one that nests messages (else its
    first delivery), and its first that nests messages if that one does
    not: {"Type" or "Type-nesting": (index, message, receiver)}."""
    deliveries, _ = _honest_run()
    chosen, rank = {}, {}
    for index, msg, dst, moved in deliveries:
        name = type(msg).__name__
        nests = any(type(v) is tuple and v for v in vars(msg).values())
        if name not in chosen or (moved, nests) > rank[name]:
            chosen[name], rank[name] = (index, msg, dst), (moved, nests)
        if nests:
            chosen.setdefault(name + "-nesting", (index, msg, dst))
    return {key: delivery for key, delivery in chosen.items()
            if not (key.endswith("-nesting") and rank[key[:-8]][1])}


def _fingerprint(node):
    # the replica's own Commit is its prepared mark and carries its view
    slots = {seq: (getattr(s.commit_msgs.get(node.node_id), "view", None),
                   s.digest, s.committed,
                   sorted(s.prepares.items()), sorted(s.commit_msgs))
             for seq, s in node.slots.items()
             if s.digest is not None or s.prepares or s.commit_msgs}
    return (node.view, node.vc_target,
            [block_digest(G, b) for b in node.chain], sorted(node.mempool),
            slots, [sorted(c.sender for c in certs)
                    for certs in node.commit_certs],
            sorted(seq for seq, s in node.slots.items() if s.committed),
            {v: sorted(vs) for v, vs in node.view_votes.items()})


def _wrong_nested(msg, name):
    """A one-item tuple of a message type field `name` must not hold."""
    kind = WRONG_NESTED[name]
    view = getattr(msg, "view", getattr(msg, "new_view", 0))
    seq = getattr(msg, "seq", getattr(msg, "last_exec", 0) + 1)
    return (kind(view, seq, "00" * 32, msg.sender),)


def _variants(obj, skip=("mac",)):
    """(label, copy of obj with one field replaced) for every field."""
    for f in fields(obj):
        if f.name in skip:
            continue
        value = getattr(obj, f.name)
        choices = list(VALUES)
        if type(value) is tuple and value:
            choices.append(value + value)
        for choice in choices:
            yield f"{f.name}={choice!r:.20}", replace(obj, **{f.name: choice})


def _mutants(msg):
    """Every field of `msg` and every field one level down, mutated."""
    yield from _variants(msg)
    for f in fields(msg):
        inner = getattr(msg, f.name)
        if f.name in WRONG_NESTED:
            yield f"{f.name}=wrong type", replace(
                msg, **{f.name: _wrong_nested(msg, f.name)})
        if type(inner) is tuple and inner and is_dataclass(inner[0]):
            for label, item in _variants(inner[0], skip=()):
                yield (f"{f.name}[0].{label}",
                       replace(msg, **{f.name: (item,) + inner[1:]}))
        elif is_dataclass(inner):
            for label, item in _variants(inner, skip=()):
                yield f"{f.name}.{label}", replace(msg, **{f.name: item})


def _sealed(w, msg):
    try:
        return replace(msg, mac=compute_mac(w.secret, msg.sender, msg))
    except (AttributeError, KeyError, TypeError, UnicodeError):
        return msg  # the MAC cannot encode it: delivered as it is


def _deliver_in_place(fork, dst, msg):
    """Puts `msg` where the recorded delivery stands at the head of the
    event queue, then steps once; returns the receiver."""
    at, counter, _ = fork.net._queue[0]
    fork.net._queue[0] = (at, counter, Deliver(dst, msg))
    assert fork.step(max_events=1) == 1
    return fork.nodes[dst]


CHOSEN = _chosen_deliveries()


@pytest.fixture(scope="module")
def forks():
    return _honest_run(frozenset(index for index, _, _ in CHOSEN.values()))[1]


def test_recorded_run_keeps_the_slot_invariants():
    _honest_run(after_event=assert_slot_invariants)


def test_recorded_run_delivers_every_message_type():
    assert {type(msg) for _, msg, _ in CHOSEN.values()} == {
        PrePrepare, Prepare, Commit, ViewChange, NewView, TxForward, CatchUp}


@pytest.mark.parametrize("delivery", sorted(CHOSEN))
def test_mutated_message_is_rejected_or_changes_nothing(delivery, forks):
    index, msg, dst = CHOSEN[delivery]
    snapshot = forks[index]
    before = _fingerprint(snapshot.nodes[dst])
    reference = copy.deepcopy(snapshot, {id(G): G})
    recorded = _fingerprint(_deliver_in_place(reference, dst, msg))
    mutants = list(_mutants(msg))
    assert len(mutants) > 20
    failures = []
    for label, mutant in mutants:
        fork = copy.deepcopy(snapshot, {id(G): G})
        rejected = fork.nodes[dst].stats.rejected_byzantine
        node = _deliver_in_place(fork, dst, _sealed(fork, mutant))
        after = _fingerprint(node)
        if node.stats.rejected_byzantine > rejected:
            ok = after == before
        else:
            # a forwarded transaction that passes validation is one any
            # client may send, and the receiver admits it
            ok = after in (before, recorded) or type(mutant) is TxForward \
                and validate_transaction(node.ledger, mutant.tx).accepted
        if not ok:
            failures.append(label)
        fork.step(max_events=FOLLOW_EVENTS)
        fork.check_safety()
    assert not failures, failures


# -- defects that mutants showed, as explicit cases ---------------------------


def _deliver_sealed(w, dst, *msgs):
    """Delivers `msgs`, sealed by their senders, to `dst` through
    `World.step`, before anything else happens."""
    for msg in msgs:
        w.net.schedule(w.net.time, Deliver(dst, _sealed(w, msg)))
    assert w.step(max_events=len(msgs)) == len(msgs)


def test_new_view_nesting_a_commit_is_rejected():
    w = _world()
    _deliver_sealed(w, "node2", NewView(1, (Commit(1, 1, "00" * 32, "node1"),),
                                        "node1"))
    node = w.nodes["node2"]
    assert node.stats.rejected_byzantine == 1 and node.view == 0


def test_view_changes_nesting_a_commit_are_rejected():
    w = _world()
    _deliver_sealed(w, "node1", *(
        ViewChange(1, 0, (Commit(0, 1, "00" * 32, "node0"),), s)
        for s in ("node0", "node2", "node3")))
    node = w.nodes["node1"]
    assert node.stats.rejected_byzantine == 3 and node.view == 0


def test_prepared_certificate_without_a_block_is_rejected():
    w = _world()
    _deliver_sealed(w, "node1", *(
        ViewChange(1, 0, (PreparedCert(1, 0, "00" * 32, None),), s)
        for s in ("node0", "node2", "node3")))
    node = w.nodes["node1"]
    assert node.stats.rejected_byzantine == 3
    assert node.view == 0 and not node.slots


def test_view_change_quorum_counts_only_replicas():
    # the MAC derives a key for any name, so a sender must be a replica
    w = _world()
    _deliver_sealed(w, "node1", *(ViewChange(1, 0, (), s)
                                  for s in ("x1", "x2", "x3")))
    node = w.nodes["node1"]
    assert node.stats.rejected_byzantine == 3
    assert node.view == 0 and not node.view_votes


@pytest.mark.parametrize("tx", ["tx", None, True, 7, (), 1.5],
                         ids=lambda v: type(v).__name__)
def test_forward_or_submission_of_a_non_transaction_is_rejected(tx):
    w = _world()
    _deliver_sealed(w, "node1", TxForward(tx, "node0"))
    w.submit_client_tx("node2", tx)
    assert w.step(max_events=1) == 1
    assert w.nodes["node1"].stats.rejected_byzantine == 1
    assert w.nodes["node2"].stats.rejected_byzantine == 1
    assert not any(node.mempool for node in w.nodes.values())
