"""Transaction formats, validation, and deterministic state transition for
the two-pool value model: cleartext institutional accounts (the transparent
pool) and commitment-hidden private stores (the shielded pool).

Canonical transaction digest
----------------------------
The digest is SHA-256 (tag "pvx/tx") over a length-prefixed, field-ordered
byte encoding.  Section order: kind, transparent inputs, transparent
outputs, shielded inputs, shielded outputs, fee, credentials, then the
sponsor id (intermediary for mediated batches, issuing authority for
issuance).  Within sections:

* strings are 4-byte big-endian length + UTF-8 bytes,
* amounts, fees and output references are 8-byte big-endian unsigned,
* group elements and scalars use the profile's fixed widths,
* every sequence is preceded by a 4-byte count.

Ring signatures and the excess signature sign this digest, so they are not
part of it; each shielded input's ring references and pseudo commitment
are.  A shielded input's pseudo commitment is a re-blinded commitment to
the spent amount, and its dual-key ring signature proves it opens to the
same value as the (hidden) ring member being consumed.

The digest is computed once per transaction object and kept in the
object's ``__dict__`` with the group it was computed for, as
``functools.cached_property`` keeps its value; only `transaction_digest`
writes it.  It cannot go stale: every nested field is frozen,
``dataclasses.replace`` builds a fresh object without it, and dataclass
equality and hashing ignore it.

Group elements, commitments included, are plain ints.  The ledger keeps
each shielded output as its transaction carried it: output id i, which
ring references name, is the i-th ever created, `LedgerState.outputs[i]`.

Balance rule: with netflow = (transparent out + fee - transparent in), the
point  prod(pseudo commitments) * prod(output commitments)^-1 *
commit(netflow, 0)^-1  must equal G^z for a z the excess signature proves
knowledge of.  Transparent-only transactions carry a z = 0 proof, which is
only possible when the cleartext amounts balance exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable

from .blindsig import Credential
from .group import GroupParams, tagged_hash
from .pedersen import commit, product
from .rangeproof import BitProof, RangeProof, verify_range
from .ringsig import RingSignature, dual_ring_verify

TAG_TX = "pvx/tx"
TAG_EXCESS = "pvx/excess"
TAG_STATE = "pvx/state"

MAX_AMOUNT = 2 ** 63 - 1  # amounts are 64-bit integer minor units


class TxKind(Enum):
    TRANSPARENT_TRANSFER = "TransparentTransfer"
    SHIELD = "Shield"
    UNSHIELD = "Unshield"
    SHIELDED_TRANSFER = "ShieldedTransfer"
    MEDIATED_BATCH = "MediatedBatch"
    ISSUE = "Issue"


KIND_CODES = {kind: i for i, kind in enumerate(TxKind)}


@dataclass(frozen=True)
class TransparentInput:
    account_id: str
    amount: int


@dataclass(frozen=True)
class TransparentOutput:
    account_id: str
    amount: int
    owner_id: str


@dataclass(frozen=True)
class ShieldedOutput:
    onetime_address: int
    ephemeral_public: int
    commitment: int
    range_proof: RangeProof


@dataclass(frozen=True)
class ShieldedInput:
    ring_refs: tuple[int, ...]  # ledger output ids forming the anonymity set
    pseudo_commitment: int
    signature: RingSignature


@dataclass(frozen=True)
class ExcessSignature:
    nonce_point: int
    response: int


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    tin: tuple[TransparentInput, ...] = ()
    tout: tuple[TransparentOutput, ...] = ()
    sin: tuple[ShieldedInput, ...] = ()
    sout: tuple[ShieldedOutput, ...] = ()
    fee: int = 0
    excess: ExcessSignature | None = None
    credentials: tuple[Credential, ...] = ()
    sponsor_id: str | None = None


# ---------------------------------------------------------------------------
# canonical encoding


def _enc_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def _enc_u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def _enc_rangeproof(group: GroupParams, proof: RangeProof) -> bytes:
    parts = [proof.k.to_bytes(2, "big")]
    for bp in proof.bits:
        parts.append(group.element_to_bytes(bp.bit_commitment))
        parts.append(group.element_to_bytes(bp.a0))
        parts.append(group.element_to_bytes(bp.a1))
        parts.append(group.scalar_to_bytes(bp.c0))
        parts.append(group.scalar_to_bytes(bp.s0))
        parts.append(group.scalar_to_bytes(bp.s1))
    return b"".join(parts)


DIGEST_SLOT = "_digest"  # (group, digest) in a frozen object's __dict__


def transaction_digest(group: GroupParams, tx: Transaction) -> bytes:
    carried = tx.__dict__.get(DIGEST_SLOT)
    if carried is not None and carried[0] is group:
        return carried[1]
    parts = [bytes([KIND_CODES[tx.kind]])]
    parts.append(len(tx.tin).to_bytes(4, "big"))
    for ti in tx.tin:
        parts.append(_enc_str(ti.account_id))
        parts.append(_enc_u64(ti.amount))
    parts.append(len(tx.tout).to_bytes(4, "big"))
    for to in tx.tout:
        parts.append(_enc_str(to.account_id))
        parts.append(_enc_u64(to.amount))
        parts.append(_enc_str(to.owner_id))
    parts.append(len(tx.sin).to_bytes(4, "big"))
    for si in tx.sin:
        parts.append(len(si.ring_refs).to_bytes(4, "big"))
        for ref in si.ring_refs:
            parts.append(_enc_u64(ref))
        parts.append(group.element_to_bytes(si.pseudo_commitment))
    parts.append(len(tx.sout).to_bytes(4, "big"))
    for so in tx.sout:
        parts.append(group.element_to_bytes(so.onetime_address))
        parts.append(group.element_to_bytes(so.ephemeral_public))
        parts.append(group.element_to_bytes(so.commitment))
        parts.append(_enc_rangeproof(group, so.range_proof))
    parts.append(_enc_u64(tx.fee))
    parts.append(len(tx.credentials).to_bytes(4, "big"))
    for cred in tx.credentials:
        parts.append(_enc_str(cred.attribute))
        parts.append(cred.serial.to_bytes(32, "big"))
        sig_raw = cred.signature.to_bytes((cred.signature.bit_length() + 7) // 8 or 1, "big")
        parts.append(len(sig_raw).to_bytes(4, "big") + sig_raw)
    parts.append(_enc_str(tx.sponsor_id or ""))
    digest = tagged_hash(TAG_TX, b"".join(parts))
    tx.__dict__[DIGEST_SLOT] = (group, digest)
    return digest


# ---------------------------------------------------------------------------
# excess (balance) signature


def sign_excess(group: GroupParams, z: int, digest: bytes) -> ExcessSignature:
    nonce = group.nonzero_scalar(TAG_EXCESS + "/nonce",
                                 group.scalar_to_bytes(z), digest)
    r_point = group.power(group.g, nonce)
    c = group.hash_to_scalar(TAG_EXCESS, group.element_to_bytes(r_point),
                             group.element_to_bytes(group.power(group.g, z)),
                             digest)
    return ExcessSignature(r_point, (nonce + c * z) % group.q)


def verify_excess(group: GroupParams, excess_point: int, digest: bytes,
                  sig: ExcessSignature) -> bool:
    if not (group.is_element(excess_point) and group.is_element(sig.nonce_point)):
        return False
    c = group.hash_to_scalar(TAG_EXCESS, group.element_to_bytes(sig.nonce_point),
                             group.element_to_bytes(excess_point), digest)
    return group.power(group.g, sig.response) == group.mul(
        sig.nonce_point, group.power(excess_point, c))


# ---------------------------------------------------------------------------
# ledger state


@dataclass(frozen=True)
class LedgerState:
    group: GroupParams
    range_bits: int
    balances: dict[str, int]
    outputs: tuple[ShieldedOutput, ...]  # output id i is outputs[i]
    onetime_index: dict[int, int]      # one-time address -> output id
    key_images: frozenset[int]
    credential_serials: frozenset[int]
    total_issued: int
    fees_accrued: int
    height: int

    @classmethod
    def genesis(cls, group: GroupParams, accounts: dict[str, int],
                range_bits: int) -> "LedgerState":
        """Initial state: provisioned accounts, optional genesis balances.

        Genesis balances count as issued supply; later supply changes come
        only from Issue transactions.
        """
        balances = dict(accounts)
        return cls(
            group=group,
            range_bits=range_bits,
            balances=balances,
            outputs=(),
            onetime_index={},
            key_images=frozenset(),
            credential_serials=frozenset(),
            total_issued=sum(balances.values()),
            fees_accrued=0,
            height=0,
        )

    def digest(self) -> str:
        g = self.group
        parts = [_enc_u64(self.height), _enc_u64(self.total_issued),
                 _enc_u64(self.fees_accrued), _enc_u64(len(self.outputs))]
        for acct in sorted(self.balances):
            parts.append(_enc_str(acct))
            parts.append(_enc_u64(self.balances[acct]))
        for oid, out in enumerate(self.outputs):
            parts.append(_enc_u64(oid))
            parts.append(g.element_to_bytes(out.onetime_address))
            parts.append(g.element_to_bytes(out.ephemeral_public))
            parts.append(g.element_to_bytes(out.commitment))
        for img in sorted(self.key_images):
            parts.append(g.element_to_bytes(img))
        for serial in sorted(self.credential_serials):
            parts.append(serial.to_bytes(32, "big"))
        return tagged_hash(TAG_STATE, b"".join(parts)).hex()


# ---------------------------------------------------------------------------
# validation

PolicyHook = Callable[[Transaction], "object"]


# every code a rejecting Verdict carries, besides a policy DenyReason's value
LEDGER_CODES = ("RingSignature", "DoubleSpend", "RangeProof", "BalanceProof",
                "InsufficientFunds", "UnknownAccount", "MalformedTransaction",
                "DuplicateOnetime")


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    code: str | None = None
    detail: str = ""

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def reject(cls, code: str, detail: str = "") -> "Verdict":
        return cls(False, code, detail)


def _int_in(v, lo: int, hi: int) -> bool:
    """`v` is an int, not a bool or another type, in [lo, hi)."""
    return type(v) is int and lo <= v < hi


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _element(group: GroupParams, v) -> bool:
    """`v` is an int that encodes a group element."""
    return type(v) is int and group.is_element(v)


def shape_error(group: GroupParams, tx: Transaction) -> str | None:
    """Why `tx` is not a well-formed `Transaction`, from `tx` alone, or None.
    One that passes has the declared type in every field validation reads
    and fits every fixed width the digest encodes, so neither raises on
    it.  Each of its group-element fields encodes an element
    (`GroupParams.is_element`), which is the whole membership check: a
    value outside 1..q, such as p - x for an element x, is refused here,
    before any digest is taken or any key image is compared."""
    k = tx.kind if type(tx) is Transaction else None
    if not isinstance(k, TxKind) or not all(
            type(legs) is tuple
            for legs in (tx.tin, tx.tout, tx.sin, tx.sout, tx.credentials)):
        return "malformed transaction"
    if not _int_in(tx.fee, 0, MAX_AMOUNT + 1):
        return "fee out of range"
    if tx.sponsor_id is not None and type(tx.sponsor_id) is not str:
        return "sponsor id is not a string"
    if tx.excess is not None and not (
            type(tx.excess) is ExcessSignature
            and _element(group, tx.excess.nonce_point)
            and _ints(tx.excess.response)):
        return "malformed balance proof"
    for ti in tx.tin:
        if not (type(ti) is TransparentInput and type(ti.account_id) is str
                and _int_in(ti.amount, 0, MAX_AMOUNT + 1)):
            return "malformed transparent input"
    for to in tx.tout:
        if not (type(to) is TransparentOutput and type(to.account_id) is str
                and type(to.owner_id) is str
                and _int_in(to.amount, 0, MAX_AMOUNT + 1)):
            return "malformed transparent output"
    # every field the digest encodes must fit its fixed width
    for si in tx.sin:
        if not (type(si) is ShieldedInput and type(si.ring_refs) is tuple
                and all(_int_in(ref, 0, 2 ** 64) for ref in si.ring_refs)):
            return "ring reference out of range"
        if not _element(group, si.pseudo_commitment):
            return "pseudo-commitment is not an element"
        sig = si.signature
        if not (type(sig) is RingSignature and _ints(sig.c0)
                and type(sig.responses) is tuple and _ints(*sig.responses)):
            return "malformed ring signature"
        if not _element(group, sig.key_image):
            return "key image is not an element"
    for so in tx.sout:
        if not (type(so) is ShieldedOutput
                and _element(group, so.onetime_address)
                and _element(group, so.ephemeral_public)
                and _element(group, so.commitment)):
            return "output key or commitment is not an element"
        proof = so.range_proof
        if not (type(proof) is RangeProof and type(proof.bits) is tuple
                and len(proof.bits) < 2 ** 16
                and all(type(bp) is BitProof
                        and _element(group, bp.bit_commitment)
                        and _element(group, bp.a0) and _element(group, bp.a1)
                        and _ints(bp.c0, bp.s0, bp.s1) for bp in proof.bits)):
            return "range proof out of range"
    for cred in tx.credentials:
        if not (type(cred) is Credential and type(cred.attribute) is str
                and _int_in(cred.serial, 0, 2 ** 256)
                and type(cred.signature) is int and cred.signature >= 0):
            return "credential out of range"
    if k is TxKind.ISSUE:
        if tx.tin or tx.sin or tx.sout:
            return "issuance carries only transparent outputs"
        if not tx.tout:
            return "issuance needs at least one output"
        if tx.fee != 0:
            return "issuance is fee-free"
        if not tx.sponsor_id:
            return "issuance names its authority"
    elif k is TxKind.TRANSPARENT_TRANSFER:
        if tx.sin or tx.sout:
            return "transparent transfer has no shielded legs"
        if not tx.tin or not tx.tout:
            return "transparent transfer needs inputs and outputs"
    elif k is TxKind.SHIELD:
        if tx.sin or tx.tout:
            return "shield moves account funds into new shielded outputs"
        if not tx.tin or not tx.sout:
            return "shield needs transparent inputs and shielded outputs"
    elif k is TxKind.UNSHIELD:
        if tx.tin:
            return "unshield spends only shielded inputs"
        if not tx.sin or not tx.tout:
            return "unshield needs shielded inputs and transparent outputs"
        if not tx.sout:
            return "unshield carries a change output"
    elif k is TxKind.SHIELDED_TRANSFER:
        if tx.tin or tx.tout:
            return "shielded transfer has no transparent legs"
        if not tx.sin or len(tx.sout) < 2:
            return "shielded transfer needs inputs, payment and change"
    elif k is TxKind.MEDIATED_BATCH:
        if tx.tin or tx.tout:
            return "mediated batch has no transparent legs"
        if len(tx.sin) < 2 or len(tx.sout) < 2:
            return "mediated batch swaps at least two inputs and outputs"
        if not tx.sponsor_id:
            return "mediated batch names its intermediary"
        # credential presence is a policy question: the supported mode
        # admits batches without them
    if k is not TxKind.ISSUE and tx.excess is None:
        return "missing balance proof"
    return None


def excess_point(group: GroupParams, tx: Transaction) -> int:
    """The balance remainder that must equal G^z."""
    netflow = (sum(to.amount for to in tx.tout) + tx.fee
               - sum(ti.amount for ti in tx.tin)) % group.q
    spent = product(group, (si.pseudo_commitment for si in tx.sin))
    made = product(group, (*(so.commitment for so in tx.sout),
                           commit(group, netflow, 0)))
    return group.mul(spent, group.inv(made))


def ring_rows(state: LedgerState, ring_refs: tuple[int, ...],
              pseudo: int) -> list[tuple[int, int]]:
    """An input's ring-signature rows: (P_i, C_i / C_pseudo) per member."""
    group = state.group
    pseudo_inv = group.inv(pseudo)
    return [(state.outputs[ref].onetime_address,
             group.mul(state.outputs[ref].commitment, pseudo_inv))
            for ref in ring_refs]


def validate_transaction(state: LedgerState, tx: Transaction,
                         policy_hook: PolicyHook | None = None,
                         admitted: bool = False) -> Verdict:
    """Full acceptance check; each failing clause maps to a distinct code.

    `admitted` says this very transaction already passed a full check
    against an earlier state that `state` extends.  Outputs are
    append-only, so its ring members still name the same outputs: the ring
    signatures (a) and the proofs of (c) and (d) are skipped.  Every other
    clause always runs.

    Group membership is checked once per element, where it enters:
    `shape_error` refuses every element field outside 1..q.  Ring rows
    (P_i, C_i / C_pseudo) and the excess point are computed by the group,
    so they are elements by construction.
    """
    group = state.group

    shape = shape_error(group, tx)
    if shape:
        return Verdict.reject("MalformedTransaction", shape)
    # the balance check reads the cleartext netflow mod q, so a sum that
    # reaches q could hide inflation (q = 1019 on the test profile)
    if (sum(ti.amount for ti in tx.tin) >= group.q
            or sum(to.amount for to in tx.tout) + tx.fee >= group.q):
        return Verdict.reject("MalformedTransaction",
                              "cleartext sum reaches the group order")
    # conservation then bounds every balance and the fees by MAX_AMOUNT
    if tx.kind is TxKind.ISSUE and state.total_issued + sum(
            to.amount for to in tx.tout) > MAX_AMOUNT:
        return Verdict.reject("MalformedTransaction",
                              "issued supply passes 2^63-1")

    for leg in (*tx.tin, *tx.tout):
        if leg.account_id not in state.balances:
            return Verdict.reject("UnknownAccount", leg.account_id)

    debits: dict[str, int] = {}
    for ti in tx.tin:
        debits[ti.account_id] = debits.get(ti.account_id, 0) + ti.amount
    for acct, total in debits.items():
        if total > state.balances[acct]:
            return Verdict.reject("InsufficientFunds", acct)

    digest = transaction_digest(group, tx)

    # (a) ring signatures over the tx digest
    for si in () if admitted else tx.sin:
        if len(si.ring_refs) != len(set(si.ring_refs)):
            return Verdict.reject("MalformedTransaction", "duplicate ring member")
        unknown = [ref for ref in si.ring_refs if ref >= len(state.outputs)]
        if unknown:
            return Verdict.reject("MalformedTransaction",
                                  f"unknown ring member {unknown[0]}")
        rows = ring_rows(state, si.ring_refs, si.pseudo_commitment)
        if not dual_ring_verify(group, digest, rows, si.signature):
            return Verdict.reject("RingSignature")

    # (b) key images fresh and unique in-tx
    images = [si.signature.key_image for si in tx.sin]
    if len(images) != len(set(images)):
        return Verdict.reject("DoubleSpend", "key image repeated in transaction")
    for img in images:
        if img in state.key_images:
            return Verdict.reject("DoubleSpend")

    # one-time addresses are single-use ledger-wide (checked after key
    # images so a full replay reads as the double spend it is)
    seen_onetime = set()
    for so in tx.sout:
        if so.onetime_address in seen_onetime or so.onetime_address in state.onetime_index:
            return Verdict.reject("DuplicateOnetime")
        seen_onetime.add(so.onetime_address)

    # (c) range proofs at the ledger's fixed bit width, in one batch
    for so in tx.sout:
        if so.range_proof.k != state.range_bits:
            return Verdict.reject("RangeProof", "wrong proof width")
    if tx.sout and not admitted and not verify_range(
            group, [(so.commitment, so.range_proof) for so in tx.sout]):
        return Verdict.reject("RangeProof")

    # (d) commitment balance with excess signature
    if tx.kind is not TxKind.ISSUE and not admitted:
        point = excess_point(group, tx)
        if not verify_excess(group, point, digest, tx.excess):
            return Verdict.reject("BalanceProof")

    # (e) policy
    if policy_hook is not None:
        decision = policy_hook(tx)
        if not decision.allowed:
            return Verdict.reject(decision.reason.value)

    # (f) credential serials single-use
    serials = [cred.serial for cred in tx.credentials]
    if len(serials) != len(set(serials)):
        return Verdict.reject("CredentialReused", "serial repeated in transaction")
    for serial in serials:
        if serial in state.credential_serials:
            return Verdict.reject("CredentialReused")

    return Verdict.ok()


# ---------------------------------------------------------------------------
# application


def apply_transaction(state: LedgerState, tx: Transaction) -> LedgerState:
    """State transition for a transaction that already validated."""
    balances = dict(state.balances)
    for ti in tx.tin:
        balances[ti.account_id] -= ti.amount
        if balances[ti.account_id] < 0:
            raise ValueError("apply called on unvalidated transaction")
    for to in tx.tout:
        balances[to.account_id] = balances.get(to.account_id, 0) + to.amount

    onetime_index = dict(state.onetime_index)
    for oid, so in enumerate(tx.sout, len(state.outputs)):
        onetime_index[so.onetime_address] = oid

    issued = state.total_issued
    if tx.kind is TxKind.ISSUE:
        issued += sum(to.amount for to in tx.tout)

    return replace(
        state,
        balances=balances,
        outputs=state.outputs + tx.sout,
        onetime_index=onetime_index,
        key_images=state.key_images | {si.signature.key_image for si in tx.sin},
        credential_serials=state.credential_serials | {c.serial for c in tx.credentials},
        total_issued=issued,
        fees_accrued=state.fees_accrued + tx.fee,
    )


def apply_block(state: LedgerState, txs: tuple[Transaction, ...] | list[Transaction],
                height: int) -> LedgerState:
    if height != state.height + 1:
        raise ValueError(f"height {height} does not extend {state.height}")
    for tx in txs:
        state = apply_transaction(state, tx)
    return replace(state, height=height)


# ---------------------------------------------------------------------------
# conservation audit (test harness only: requires every opening)


@lru_cache(maxsize=65536)
def _commit_opening(group: GroupParams, v: int, r: int) -> int:
    # pure memo: audits re-open the same unspent outputs block after block
    return commit(group, v, r)


def conservation_audit(state: LedgerState,
                       unspent_openings: dict[int, tuple[int, int]]) -> bool:
    """Value conservation: transparent balances plus opened unspent
    shielded values plus accrued fees must equal the issued supply.

    `unspent_openings` maps output id -> (value, blinding) for every output
    the harness knows to be unspent; openings must match the on-ledger
    commitments.
    """
    shielded_total = 0
    for oid, (v, r) in unspent_openings.items():
        if not 0 <= oid < len(state.outputs):
            return False
        if _commit_opening(state.group, v % state.group.q,
                           r % state.group.q) != state.outputs[oid].commitment:
            return False
        shielded_total += v
    return (sum(state.balances.values()) + shielded_total
            + state.fees_accrued == state.total_issued)
