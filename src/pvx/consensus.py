"""PBFT-style replicated log among institution-operated nodes, on top of
the deterministic simulated network.

Three-phase flow per sequence number: the view's leader (round-robin,
view mod n) sends PrePrepare carrying a block; replicas validate the block
and broadcast Prepare; a node is *prepared* once it holds the pre-prepare
plus 2f matching prepares from backups, after which it broadcasts Commit;
2f+1 matching commits finalize the block, executed strictly in sequence
order.  Timeouts trigger view changes with exponential backoff; ViewChange
messages carry prepared certificates (block included) so the next leader
re-proposes anything that may have committed somewhere.  A block names
itself: PrePrepare, CatchUp and PreparedCert carry the block and no copy of
its height or digest, which are their sequence and digest, and the MAC
binds the block's digest (PBFT signs <v, n, d> because its request travels
apart from the pre-prepare; here the block never does).  A `Slot` is the
replica's only record of a sequence it has not executed: its block and
digest, the votes it holds, and the replica's own Prepare and Commit, which
are its "sent a prepare" and "prepared" marks.  A view change drops every
uncommitted slot.  An executed slot retires into a log of commit
certificates for catch-up; checkpoints, which would truncate it, are
omitted: logs are desk-scale.

Authentication is a simulation-level MAC keyed by replica name, apart from
the privacy layer's signatures; only replica names have keys.  `LAYOUT`
describes each message once, for the MAC and for `message_error`, the one
check a delivered message passes first.  `PBFTNode` is honest only, and
`World` enacts the scripted faults: crash@t (stop), mute@t..t' (outbound
dropped), and equivocate@h, where `World` rewrites the Byzantine replica's
outbound messages (`World._equivocation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .group import GroupParams, tagged_hash
from .ledger import (
    DIGEST_SLOT,
    LedgerState,
    Transaction,
    apply_block,
    apply_transaction,
    shape_error,
    transaction_digest,
    validate_transaction,
)
from .simnet import ClientSubmit, Deliver, FaultScript, SimNetwork, TimerFire

TAG_MAC = "pvx/mac"
TAG_BLOCK = "pvx/block"

BASE_TIMEOUT = 60_000      # view-change timeout before any backoff (us)
BACKOFF = 2                # view-change timeout multiplier
MAX_TIMEOUT = 960_000      # backoff ceiling keeps churn bounded (us)
RETRANSMIT_EVERY = 25_000  # us


class SafetyViolation(RuntimeError):
    """Honest nodes committed conflicting blocks; must never happen with at
    most f faulty replicas."""


@dataclass(frozen=True)
class Block:
    height: int
    txs: tuple[Transaction, ...]
    parent_digest: str
    proposer: str


def _encodable(group: GroupParams, block: Block) -> bool:
    """Whether every field `block_digest` encodes fits its encoding: the
    header's, and each transaction's by `shape_error`."""
    parent = block.parent_digest
    return (type(block.height) is int and 0 <= block.height < 2 ** 64
            and type(parent) is str and len(parent) in (0, 64)
            and all(ch in "0123456789abcdef" for ch in parent)
            and type(block.proposer) is str and block.proposer.isascii()
            and type(block.txs) is tuple
            and not any(shape_error(group, tx) for tx in block.txs))


def block_digest(group: GroupParams, block: Block) -> str | None:
    """Computed once per block object and carried with it, like a
    transaction's digest (see `pvx.ledger`).  None for a block with a
    field that does not fit the encoding, which only a faulty replica
    sends; `message_error` refuses it."""
    carried = block.__dict__.get(DIGEST_SLOT)
    if carried is not None and carried[0] is group:
        return carried[1]
    if not _encodable(group, block):
        return None
    parts = [block.height.to_bytes(8, "big"),
             bytes.fromhex(block.parent_digest) if block.parent_digest else b"",
             block.proposer.encode("utf-8"), len(block.txs).to_bytes(4, "big")]
    parts.extend(transaction_digest(group, tx) for tx in block.txs)
    digest = tagged_hash(TAG_BLOCK, b"".join(parts)).hex()
    block.__dict__[DIGEST_SLOT] = (group, digest)
    return digest


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class PrePrepare:
    view: int
    block: Block
    sender: str
    mac: bytes = b""


@dataclass(frozen=True)
class Prepare:
    view: int
    seq: int
    digest: str
    sender: str
    mac: bytes = b""


@dataclass(frozen=True)
class Commit:
    view: int
    seq: int
    digest: str
    sender: str
    mac: bytes = b""


@dataclass(frozen=True)
class PreparedCert:
    view: int
    block: Block


@dataclass(frozen=True)
class ViewChange:
    new_view: int
    last_exec: int
    prepared: tuple[PreparedCert, ...]
    sender: str
    mac: bytes = b""


@dataclass(frozen=True)
class NewView:
    view: int
    pre_prepares: tuple[PrePrepare, ...]
    sender: str
    mac: bytes = b""


@dataclass(frozen=True)
class TxForward:
    tx: Transaction
    sender: str
    mac: bytes = b""


@dataclass(frozen=True)
class CatchUp:
    """Commit-certificate transfer for a replica that fell behind: the
    committed block plus 2f+1 authenticated Commit messages proving it.
    Replaces full-PBFT state transfer at desk scale."""
    block: Block
    commits: tuple[Commit, ...]
    sender: str
    mac: bytes = b""


# Each message once: its MAC tag, its integer counters, and the field and exact
# type of the messages it nests; `digest`, `sender` and `block` (by its
# digest) go by name.
LAYOUT: dict[type, tuple[bytes, tuple[str, ...], tuple[str, type] | None]] = {
    PrePrepare: (b"pp", ("view",), None),
    Prepare: (b"p", ("view", "seq"), None),
    Commit: (b"c", ("view", "seq"), None),
    PreparedCert: (b"pc", ("view",), None),
    ViewChange: (b"vc", ("new_view", "last_exec"), ("prepared", PreparedCert)),
    NewView: (b"nv", ("view",), ("pre_prepares", PrePrepare)),
    TxForward: (b"fw", (), None),  # `on_client_tx` checks the transaction
    CatchUp: (b"cu", (), ("commits", Commit)),
}


def message_error(group: GroupParams, replicas: tuple[str, ...], msg,
                  kind: type | None = None) -> str | None:
    """Why a delivered message (a PreparedCert only travels nested), or one
    it nests as type `kind`, is malformed, or None.  Passing means exact
    `LAYOUT` types, counters in [0, 2^64), 64-character ASCII digests,
    replica senders, and blocks `block_digest` gives a digest: no handler
    raises.  A block's height and digest are the sequence and digest of
    the message that carries it, so there is no copy to disagree with."""
    t = type(msg)
    if t not in LAYOUT or (t is not kind if kind else t is PreparedCert):
        return "unexpected message type"
    _, counters, nested = LAYOUT[t]
    fields = vars(msg)
    if not all(type(fields[name]) is int and 0 <= fields[name] < 2 ** 64
               for name in counters):
        return "counter out of range"
    if "digest" in fields and not (type(msg.digest) is str
                                   and len(msg.digest) == 64 and msg.digest.isascii()):
        return "malformed digest"
    if "sender" in fields and msg.sender not in replicas:
        return "unknown sender"
    if "block" in fields and (type(msg.block) is not Block
                              or block_digest(group, msg.block) is None):
        return "malformed block"
    items = fields[nested[0]] if nested else ()
    if type(items) is not tuple:
        return f"{nested[0]} is not a tuple"
    return next(filter(None, (message_error(group, replicas, m, nested[1])
                              for m in items)), None)


def _mac_payload(group: GroupParams, msg) -> bytes:
    tag, counters, nested = LAYOUT[type(msg)]
    fields = vars(msg)
    # a block is bound by its digest, which encodes its height
    digest = (block_digest(group, msg.block) if "block" in fields
              else fields.get("digest", ""))
    parts = [tag, *[b"%d" % fields[name] for name in counters],
             digest.encode(), fields.get("sender", "").encode()]
    if nested:
        parts.extend(_mac_payload(group, m) for m in fields[nested[0]])
    return b"|".join(parts)


def compute_mac(group: GroupParams, secret: bytes, sender: str, msg) -> bytes:
    return tagged_hash(TAG_MAC, secret, sender.encode("utf-8"),
                       _mac_payload(group, msg))


@dataclass(frozen=True)
class ConsensusParams:
    """n replicas tolerating f faults, each one's fault script, and the
    network's seed, per-link delay bounds (us) and drop probability."""
    n: int = 1
    f: int = 0
    seed: int = 0
    delay: tuple[int, int] = (1_000, 5_000)
    drop: float = 0.0
    faults: dict[str, FaultScript] = field(default_factory=dict)

    @property
    def node_ids(self) -> tuple[str, ...]:
        # leader rotation and broadcasts follow name order: node10 < node2
        return tuple(sorted(f"node{i}" for i in range(self.n)))


@dataclass
class Slot:
    """One unexecuted sequence.  Uncommitted, it belongs to the current
    view; the replica's own entry in `prepares` marks its Prepare sent,
    and in `commit_msgs` marks it prepared."""
    seq: int
    digest: str | None = None
    block: Block | None = None
    prepares: dict[str, str] = field(default_factory=dict)
    commit_msgs: dict[str, Commit] = field(default_factory=dict)
    committed: bool = False  # a CatchUp commits without filling commit_msgs
    # the block's txs once `_validate_block` passed them here
    checked: tuple[Transaction, ...] = ()


@dataclass
class NodeStats:
    view_changes: int = 0
    rejected_byzantine: int = 0


class PBFTNode:
    """Deterministic event-driven replica.  All interaction flows through
    `on_message` / `on_timer` / `on_client_tx`, each returning a list of
    ("send", dst, msg) / ("broadcast", msg) / ("timer", kind, delay)
    actions for the world to route."""

    def __init__(self, node_id: str, replicas: tuple[str, ...], f: int,
                 genesis: LedgerState,
                 policy_hook: Callable[[Transaction], object] | None,
                 fault: FaultScript):
        self.node_id = node_id
        self.replicas = replicas
        self.f = f
        self.ledger = genesis
        self.policy_hook = policy_hook
        self.fault = fault  # `World` acts on it; the replica never reads it
        self.view = 0
        self.chain: list[Block] = []
        # txid -> tx, fully checked against self.ledger on admission
        self.mempool: dict[str, Transaction] = {}
        self.slots: dict[int, Slot] = {}  # live: every key above `executed`
        self.commit_certs: list[tuple[Commit, ...]] = []  # one per height
        self.view_votes: dict[int, dict[str, ViewChange]] = {}
        self.vc_target = 0
        self.timeout = BASE_TIMEOUT
        # the armed progress timer's kind, named by (executed, vc_target)
        self.progress_token: str | None = None
        self.retransmit_armed = False
        self.stats = NodeStats()
        self.rejections: dict[str, str] = {}  # txid -> latest ledger code
        self.committed_at: dict[str, int] = {}  # txid -> height

    # -- helpers -------------------------------------------------------------

    @property
    def executed(self) -> int:
        return len(self.chain)

    def leader_of(self, view: int) -> str:
        return self.replicas[view % len(self.replicas)]

    def is_leader(self) -> bool:
        return self.leader_of(self.view) == self.node_id

    def _slot(self, seq: int) -> Slot:
        slot = self.slots.get(seq)
        if slot is None:
            slot = self.slots[seq] = Slot(seq)
        return slot

    def _chain_tip_digest(self) -> str:
        if not self.chain:
            return ""
        return block_digest(self.ledger.group, self.chain[-1])

    def _validate_block(self, block: Block) -> bool:
        """Fold-validate: each tx must pass against the running state.  The
        tx this replica admitted skips its proofs; a copy with its txid but
        other signatures or key images (the txid covers none) does not."""
        if block.height != self.executed + 1:
            return False
        if block.parent_digest != self._chain_tip_digest():
            return False
        state = self.ledger
        for tx in block.txs:
            txid = transaction_digest(state.group, tx).hex()
            verdict = validate_transaction(state, tx, self.policy_hook,
                                           self.mempool.get(txid) == tx)
            if not verdict.accepted:
                return False
            state = apply_transaction(state, tx)
        return True

    def _arm_progress(self, actions: list) -> None:
        if self.progress_token is None and self._work_pending():
            # both parts only grow, and the token is dropped only after one
            # of them changed or its own timer fired: no pending timer
            # shares this name
            self.progress_token = f"progress:{self.executed}:{self.vc_target}"
            actions.append(("timer", self.progress_token, self.timeout))
        if not self.retransmit_armed and self._work_pending():
            self.retransmit_armed = True
            actions.append(("timer", "retransmit", RETRANSMIT_EVERY))

    def _work_pending(self) -> bool:
        return bool(self.mempool) or any(
            not s.committed and s.digest is not None for s in self.slots.values())

    # -- client txs ------------------------------------------------------------

    def on_client_tx(self, tx: Transaction, from_client: bool = True) -> list:
        actions: list = []
        if shape_error(self.ledger.group, tx):
            # without a digest there is no txid to record a rejection under
            self.stats.rejected_byzantine += 1
            return actions
        txid = transaction_digest(self.ledger.group, tx).hex()
        if txid in self.committed_at:
            return actions  # already final
        if txid not in self.mempool:
            verdict = validate_transaction(self.ledger, tx, self.policy_hook,
                                           self._checked_in_held_block(tx))
            if not verdict.accepted:
                self.rejections[txid] = verdict.code
                return actions
            self.mempool[txid] = tx
        if self.is_leader():
            self._maybe_propose(actions)
        elif from_client:
            # relay to every replica so all of them start progress timers;
            # a dead leader then faces a full view-change quorum
            actions.append(("broadcast", TxForward(tx, self.node_id)))
        self._arm_progress(actions)
        return actions

    def _checked_in_held_block(self, tx: Transaction) -> bool:
        """Whether `tx` equals, as a whole transaction, one of the held block
        that `_validate_block` passed against `self.ledger`, and each of its
        ring refs names an output of `self.ledger`: then its proofs hold
        here as well.  A ref past them named an output of an earlier
        transaction of that block, which a view change may drop."""
        slot = self.slots.get(self.executed + 1)
        if slot is None or tx not in slot.checked:
            return False
        known = len(self.ledger.outputs)
        return all(ref < known for si in tx.sin for ref in si.ring_refs)

    # -- proposing -------------------------------------------------------------

    def _select_txs(self) -> tuple[Transaction, ...]:
        chosen: list[Transaction] = []
        state = self.ledger
        stale: list[str] = []
        for txid, tx in self.mempool.items():
            # admitted: only the clauses that read state can fail now
            verdict = validate_transaction(state, tx, self.policy_hook,
                                           admitted=True)
            if verdict.accepted:
                chosen.append(tx)
                state = apply_transaction(state, tx)
            else:
                stale.append(txid)
                self.rejections[txid] = verdict.code
        for txid in stale:
            del self.mempool[txid]
        return tuple(chosen)

    def _maybe_propose(self, actions: list) -> None:
        if not self.is_leader():
            return
        seq = self.executed + 1
        existing = self.slots.get(seq)
        if existing is not None and existing.digest is not None:
            return
        txs = self._select_txs()
        if not txs:
            return
        slot = self._slot(seq)
        block = Block(seq, txs, self._chain_tip_digest(), self.node_id)
        digest = block_digest(self.ledger.group, block)
        pp = PrePrepare(self.view, block, self.node_id)
        slot.digest = digest
        slot.block = block
        actions.append(("broadcast", pp))
        # the leader's pre-prepare stands in for its prepare; with f = 0
        # the quorum is already met
        self._check_prepared(slot, actions)
        self._arm_progress(actions)

    # -- message handling --------------------------------------------------------

    def on_message(self, msg) -> list:
        """Handles a message `message_error` passed, by its exact type."""
        if type(msg) is TxForward:
            return self.on_client_tx(msg.tx, from_client=False)
        actions: list = []
        self._HANDLERS[type(msg)](self, msg, actions)
        self._arm_progress(actions)
        return actions

    def _on_preprepare(self, msg: PrePrepare, actions: list) -> None:
        if msg.view != self.view or msg.sender != self.leader_of(msg.view):
            self.stats.rejected_byzantine += 1
            return
        seq, digest = msg.block.height, block_digest(self.ledger.group, msg.block)
        if seq <= self.executed:
            # already final here; hand the lagging sender a commit proof
            catchup = self._make_catchup(seq)
            if catchup is not None:
                actions.append(("send", msg.sender, catchup))
            return
        if seq != self.executed + 1:
            return  # serial pipeline: future seqs arrive after re-proposal
        slot = self._slot(seq)
        if slot.digest is not None and slot.digest != digest:
            self.stats.rejected_byzantine += 1  # equivocating leader
            return
        if slot.digest is None:
            if not self._validate_block(msg.block):
                self.stats.rejected_byzantine += 1
                return
            slot.digest = digest
            slot.block = msg.block
            slot.checked = msg.block.txs
        if self.node_id not in slot.prepares:
            slot.prepares[self.node_id] = digest
            actions.append(("broadcast",
                            Prepare(self.view, seq, digest, self.node_id)))
        self._check_prepared(slot, actions)

    def _on_prepare(self, msg: Prepare, actions: list) -> None:
        if msg.view != self.view or msg.seq <= self.executed:
            return
        slot = self._slot(msg.seq)
        slot.prepares[msg.sender] = msg.digest
        self._check_prepared(slot, actions)

    def _check_prepared(self, slot: Slot, actions: list) -> None:
        if self.node_id in slot.commit_msgs or slot.digest is None:
            return
        # 2f matching prepares from backups: the leader's pre-prepare
        # stands in for its prepare
        leader = self.leader_of(self.view)
        matching = sum(1 for s, d in slot.prepares.items()
                       if d == slot.digest and s != leader)
        if matching >= 2 * self.f:
            own = Commit(self.view, slot.seq, slot.digest, self.node_id)
            slot.commit_msgs[self.node_id] = own
            actions.append(("broadcast", own))
            self._check_committed(slot, actions)

    def _on_commit(self, msg: Commit, actions: list) -> None:
        if msg.seq <= self.executed:
            return
        slot = self._slot(msg.seq) if msg.view == self.view else self.slots.get(msg.seq)
        if slot is None:
            return
        slot.commit_msgs[msg.sender] = msg
        self._check_committed(slot, actions)

    def _check_committed(self, slot: Slot, actions: list) -> None:
        if slot.committed or slot.digest is None:
            return
        matching = sum(1 for m in slot.commit_msgs.values()
                       if m.digest == slot.digest)
        if matching >= 2 * self.f + 1:
            slot.committed = True
            self._drain_commits(actions)

    def _drain_commits(self, actions: list) -> None:
        while (slot := self.slots.get(self.executed + 1)) and slot.committed:
            del self.slots[slot.seq]
            block = slot.block
            self.commit_certs.append(tuple(
                c for c in slot.commit_msgs.values() if c.digest == slot.digest))
            self.ledger = apply_block(self.ledger, block.txs, block.height)
            self.chain.append(block)
            for tx in block.txs:
                txid = transaction_digest(self.ledger.group, tx).hex()
                self.committed_at.setdefault(txid, block.height)
                self.mempool.pop(txid, None)
            self.timeout = BASE_TIMEOUT  # progress resets backoff
            self.progress_token = None
            self._maybe_propose(actions)
        self._arm_progress(actions)

    # -- catch-up --------------------------------------------------------------

    def _make_catchup(self, seq: int) -> CatchUp | None:
        if not 1 <= seq <= self.executed:
            return None
        certs = self.commit_certs[seq - 1]
        if len({c.sender for c in certs}) < 2 * self.f + 1:
            return None
        return CatchUp(self.chain[seq - 1], certs, self.node_id)

    def _on_catchup(self, msg: CatchUp, actions: list) -> None:
        """Inner commit MACs are already verified at the network boundary."""
        seq, digest = msg.block.height, block_digest(self.ledger.group, msg.block)
        if seq != self.executed + 1:
            return
        senders = {c.sender for c in msg.commits
                   if c.seq == seq and c.digest == digest}
        if len(senders) < 2 * self.f + 1:
            self.stats.rejected_byzantine += 1
            return
        slot = self._slot(seq)
        slot.digest = digest
        slot.block = msg.block
        slot.committed = True
        self._drain_commits(actions)

    # -- view changes ---------------------------------------------------------

    def _prepared_certs(self) -> tuple[PreparedCert, ...]:
        return tuple(PreparedCert(own.view, slot.block)
                     for _, slot in sorted(self.slots.items())
                     if (own := slot.commit_msgs.get(self.node_id)))

    def _start_view_change(self, target: int, actions: list) -> None:
        if target <= self.vc_target:
            return
        self.vc_target = target
        vc = ViewChange(target, self.executed, self._prepared_certs(), self.node_id)
        self.view_votes.setdefault(target, {})[self.node_id] = vc
        actions.append(("broadcast", vc))
        self.stats.view_changes += 1
        self.timeout = min(self.timeout * BACKOFF, MAX_TIMEOUT)
        self.progress_token = None
        self._arm_progress(actions)
        self._maybe_lead_new_view(target, actions)

    def _on_view_change(self, msg: ViewChange, actions: list) -> None:
        if msg.last_exec < self.executed:
            # the sender is behind; repair it with commit certificates
            for seq in range(msg.last_exec + 1,
                             min(self.executed, msg.last_exec + 8) + 1):
                catchup = self._make_catchup(seq)
                if catchup is not None:
                    actions.append(("send", msg.sender, catchup))
        if msg.new_view <= self.view:
            return
        votes = self.view_votes.setdefault(msg.new_view, {})
        votes[msg.sender] = msg
        # join rule: f+1 distinct peers asking beyond my target pulls me to
        # the smallest such view, concentrating votes instead of racing
        higher_views = sorted(v for v, vs in self.view_votes.items()
                              if v > self.vc_target and vs)
        senders = {s for v in higher_views for s in self.view_votes[v]}
        if len(senders) >= self.f + 1:
            self._start_view_change(higher_views[0], actions)
        self._maybe_lead_new_view(msg.new_view, actions)

    def _maybe_lead_new_view(self, target: int, actions: list) -> None:
        if self.leader_of(target) != self.node_id or target <= self.view:
            return
        votes = self.view_votes.get(target, {})
        if len(votes) < 2 * self.f + 1:
            return
        # highest-view prepared certificate per sequence across the quorum
        best: dict[int, PreparedCert] = {}
        for vc in votes.values():
            for cert in vc.prepared:
                cur = best.get(cert.block.height)
                if cur is None or cert.view > cur.view:
                    best[cert.block.height] = cert
        self._enter_view(target)
        pre_prepares = []
        for seq in sorted(best):
            if seq <= self.executed:
                continue
            block = best[seq].block
            slot = self._slot(seq)
            if not slot.committed:  # a committed slot keeps its block
                slot.digest, slot.block = block_digest(self.ledger.group, block), block
            pre_prepares.append(PrePrepare(target, block, self.node_id))
        actions.append(("broadcast",
                        NewView(target, tuple(pre_prepares), self.node_id)))
        self._maybe_propose(actions)
        self._arm_progress(actions)

    def _on_new_view(self, msg: NewView, actions: list) -> None:
        if msg.view < self.view or msg.sender != self.leader_of(msg.view):
            return
        if msg.view > self.view:
            self._enter_view(msg.view)
        for pp in msg.pre_prepares:
            self._on_preprepare(pp, actions)
        self._arm_progress(actions)

    def _enter_view(self, view: int) -> None:
        self.view = view
        self.vc_target = max(self.vc_target, view)
        # uncommitted per-view bookkeeping restarts in the new view
        self.slots = {seq: s for seq, s in self.slots.items() if s.committed}
        self.view_votes = {v: vs for v, vs in self.view_votes.items() if v > view}

    _HANDLERS = {PrePrepare: _on_preprepare, Prepare: _on_prepare, Commit: _on_commit,
                 CatchUp: _on_catchup, ViewChange: _on_view_change, NewView: _on_new_view}

    # -- timers -----------------------------------------------------------------

    def on_timer(self, kind: str) -> list:
        actions: list = []
        if kind == self.progress_token:  # a superseded arm's fire falls through
            # _drain_commits drops the token: no block executed since the arm
            self.progress_token = None
            if self._work_pending():
                self._start_view_change(self.vc_target + 1, actions)
        elif kind == "retransmit":
            self.retransmit_armed = False
            self._retransmit(actions)
            if self._work_pending():
                self.retransmit_armed = True
                actions.append(("timer", "retransmit", RETRANSMIT_EVERY))
        return actions

    def _retransmit(self, actions: list) -> None:
        seq = self.executed + 1
        slot = self.slots.get(seq)
        if slot and slot.digest is not None:
            if self.is_leader():
                actions.append(("broadcast",
                                PrePrepare(self.view, slot.block, self.node_id)))
            if self.node_id in slot.prepares:
                actions.append(("broadcast", Prepare(
                    self.view, seq, slot.digest, self.node_id)))
            if own := slot.commit_msgs.get(self.node_id):
                actions.append(("broadcast", own))
        if self.vc_target > self.view:
            vc = self.view_votes.get(self.vc_target, {}).get(self.node_id)
            if vc is not None:
                actions.append(("broadcast", vc))
        if self.mempool and not self.is_leader():
            leader = self.leader_of(self.view)
            for tx in self.mempool.values():
                actions.append(("send", leader, TxForward(tx, self.node_id)))
        if self.mempool and self.is_leader():
            self._maybe_propose(actions)


# ------------------------------------------------------------------------------
# the simulated world


class World:
    """Hosts the replica set on a deterministic network."""

    def __init__(self, genesis: LedgerState, params: ConsensusParams,
                 policy_hook=None):
        if params.n < 3 * params.f + 1:
            raise ValueError(f"n={params.n} violates n >= 3f+1 for f={params.f}")
        self.group = genesis.group
        self.net = SimNetwork(params.seed, params.delay, params.drop)
        self.secret = tagged_hash(TAG_MAC + "/secret",
                                  params.seed.to_bytes(8, "big"))
        replicas = params.node_ids
        self.nodes = {nid: PBFTNode(nid, replicas, params.f, genesis, policy_hook,
                                    params.faults.get(nid, FaultScript()))
                      for nid in replicas}
        # replicas whose outbound messages `_equivocation` rewrites
        self.byzantine = {nid for nid, node in self.nodes.items()
                          if node.fault.equivocate_heights}
        # per height, a block digest and the first honest replica to show it
        self.agreed: list[tuple[str, str]] = []
        self.checked = dict.fromkeys(self.honest_ids(), 0)  # height checked

    # -- routing ------------------------------------------------------------

    def _dispatch_actions(self, node: PBFTNode, actions: list) -> None:
        t = self.net.time
        for action in actions:
            if action[0] == "timer":
                _, kind, delay = action
                self.net.set_timer(node.node_id, kind, delay)
                continue
            if node.fault.muted(t):
                continue
            if action[0] == "broadcast":
                msg = action[1]
                dsts = [r for r in node.replicas if r != node.node_id]
            else:
                _, dst, msg = action
                dsts = [dst]
            sends = (self._equivocation(node, dsts, msg)
                     if node.node_id in self.byzantine else ((dsts, msg),))
            for targets, out in sends:
                sealed = self._sealed(node, out)
                for dst in targets:
                    self.net.send(dst, sealed)

    def _equivocation(self, node: PBFTNode, dsts: list[str], msg) -> list:
        """`equivocate@H`, a stateless rewrite of what a replica in
        `byzantine` sends to `dsts`.  At a height H of its script, its
        PrePrepare (always broadcast) goes as proposed to the first half of
        the other replicas and with no transactions to the rest, and its
        Prepare and Commit go nowhere.  Everything else passes unchanged.
        A CatchUp is not one of its votes at H: it is made only for a block
        the replica executed, and hands on a commit certificate, 2f+1
        Commits for that block, even when one of them is the replica's own."""
        heights = node.fault.equivocate_heights
        if type(msg) is PrePrepare and msg.block.height in heights:
            half = (len(dsts) + 1) // 2
            return [(dsts[:half], msg),
                    (dsts[half:], replace(msg, block=replace(msg.block, txs=())))]
        if type(msg) in (Prepare, Commit) and msg.seq in heights:
            return []
        return [(dsts, msg)]

    def _sealed(self, node: PBFTNode, msg):
        if isinstance(msg, CatchUp):
            # a node may authenticate its own commit when assembling the
            # certificate; everyone else's must arrive pre-sealed
            commits = tuple(
                replace(c, mac=compute_mac(self.group, self.secret, c.sender, c))
                if c.sender == node.node_id and not c.mac else c
                for c in msg.commits)
            msg = replace(msg, commits=commits)
        return replace(msg, mac=compute_mac(self.group, self.secret, node.node_id, msg))

    def submit_client_tx(self, node_id: str, tx: Transaction, at: int | None = None) -> None:
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        self.net.schedule(self.net.time if at is None else at,
                          ClientSubmit(node_id, tx))

    # -- stepping -----------------------------------------------------------

    def _process(self, event) -> None:
        node = self.nodes[event.dst if isinstance(event, Deliver) else event.node_id]
        if node.fault.crashed(self.net.time):
            return
        if isinstance(event, TimerFire):
            self._dispatch_actions(node, node.on_timer(event.kind))
        elif isinstance(event, ClientSubmit):
            self._dispatch_actions(node, node.on_client_tx(event.tx))
        elif (message_error(self.group, node.replicas, msg := event.message)
              or msg.mac != compute_mac(self.group, self.secret, msg.sender, msg)
              or any(c.mac != compute_mac(self.group, self.secret, c.sender, c)
                     for c in getattr(msg, "commits", ()))):
            node.stats.rejected_byzantine += 1
        else:
            self._dispatch_actions(node, node.on_message(msg))

    def step(self, max_events: int | None = None) -> int:
        """Process events in (time, tiebreak) order; returns events handled."""
        handled = 0
        while self.net.pending():
            if max_events is not None and handled >= max_events:
                break
            event = self.net.pop()
            self._process(event)
            handled += 1
        return handled

    def run_until(self, predicate, deadline: int) -> bool:
        while self.net.pending() and self.net.time <= deadline:
            if predicate():
                return True
            self.step(max_events=1)
        return predicate()

    # -- inspection -----------------------------------------------------------

    def honest_ids(self) -> list[str]:
        return sorted(set(self.nodes) - self.byzantine)

    def check_safety(self) -> None:
        """Prefix consistency of honest chains, and equal ledger states at
        equal heights.  Chains only grow (`PBFTNode._drain_commits` is their
        one writer), so each block is checked once, when first seen, against
        the digest the first honest replica to reach its height showed."""
        by_height: dict[int, LedgerState] = {}
        for nid, checked in self.checked.items():
            node = self.nodes[nid]
            for h in range(checked, node.executed):
                digest = block_digest(self.group, node.chain[h])
                if h == len(self.agreed):
                    self.agreed.append((digest, nid))
                elif self.agreed[h][0] != digest:
                    first, other = sorted((self.agreed[h][1], nid))
                    raise SafetyViolation(
                        f"{first} and {other} diverge at height {h + 1}")
            self.checked[nid] = node.executed
            if node.chain and by_height.setdefault(node.executed,
                                                   node.ledger) != node.ledger:
                raise SafetyViolation("ledger state divergence")

    def tx_final_everywhere(self, tx: Transaction) -> bool:
        txid = transaction_digest(self.group, tx).hex()
        live = [nid for nid in self.honest_ids()
                if not self.nodes[nid].fault.crashed(self.net.time)]
        return all(txid in self.nodes[nid].committed_at for nid in live)

    def stats_summary(self) -> dict:
        return {
            "time": self.net.time,
            "sent": self.net.stats.sent,
            "delivered": self.net.stats.delivered,
            "dropped": self.net.stats.dropped,
            "by_type": dict(sorted(self.net.stats.by_type.items())),
            "views": {nid: n.view for nid, n in sorted(self.nodes.items())},
            "heights": {nid: n.executed for nid, n in sorted(self.nodes.items())},
        }
