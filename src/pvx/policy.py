"""Regulatory rule engine: the two architectures as switchable modes, the
flow matrix over account/store legs, blacklists, the optional
identification threshold, and credential requirements.

Deny reasons form a closed enum so every verdict is machine-checkable:
MediationRequired, BusinessToStoreForbidden, Blacklisted,
CredentialRequired, CredentialReused, ThresholdIdentificationRequired,
IssuerNotAuthorized.  `authorize` is pure and never returns
CredentialReused: a spent serial is the ledger's to refuse, under the same
name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .blindsig import Credential, IssuerPublicKey, credential_verify
from .ledger import TxKind


class EntityKind(Enum):
    REGULATED_INSTITUTION = "RegulatedInstitution"
    REGISTERED_BUSINESS = "RegisteredBusiness"
    INDIVIDUAL = "Individual"
    INTERMEDIARY = "Intermediary"
    CENTRAL_BANK = "CentralBank"
    REGULATOR = "Regulator"


class Mode(Enum):
    SUPPORTED = "Supported"
    MEDIATED = "Mediated"


class LegClass(Enum):
    ACCOUNT = "account"
    STORE = "store"


class DenyReason(Enum):
    MEDIATION_REQUIRED = "MediationRequired"
    BUSINESS_TO_STORE_FORBIDDEN = "BusinessToStoreForbidden"
    BLACKLISTED = "Blacklisted"
    CREDENTIAL_REQUIRED = "CredentialRequired"
    CREDENTIAL_REUSED = "CredentialReused"
    THRESHOLD_IDENTIFICATION_REQUIRED = "ThresholdIdentificationRequired"
    ISSUER_NOT_AUTHORIZED = "IssuerNotAuthorized"


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: DenyReason | None = None

    @classmethod
    def allow(cls) -> "Decision":
        return cls(True)

    @classmethod
    def deny(cls, reason: DenyReason) -> "Decision":
        return cls(False, reason)


# Expected (source class, destination class) per transaction kind.
KIND_SHAPES = {
    TxKind.TRANSPARENT_TRANSFER: (LegClass.ACCOUNT, LegClass.ACCOUNT),
    TxKind.SHIELD: (LegClass.ACCOUNT, LegClass.STORE),
    TxKind.UNSHIELD: (LegClass.STORE, LegClass.ACCOUNT),
    TxKind.SHIELDED_TRANSFER: (LegClass.STORE, LegClass.STORE),
    TxKind.MEDIATED_BATCH: (LegClass.STORE, LegClass.STORE),
    TxKind.ISSUE: (LegClass.ACCOUNT, LegClass.ACCOUNT),
}


@dataclass(frozen=True)
class IntentDescriptor:
    tx_kind: TxKind
    source_class: LegClass
    source_kind: EntityKind
    dest_class: LegClass
    dest_kind: EntityKind
    source_entity_id: str | None = None
    dest_entity_id: str | None = None
    dest_account_id: str | None = None
    amount: int | None = None
    credentials: tuple[Credential, ...] = ()
    intermediary_kind: EntityKind | None = None


@dataclass(frozen=True)
class RuleSet:
    """The regulator's rules.  Whether a credential's serial is already
    spent is ledger state (validation clause (f)), not a rule."""
    mode: Mode
    blacklist: frozenset[str] = frozenset()
    identification_threshold: int | None = None
    credential_issuers: tuple[IssuerPublicKey, ...] = ()
    mediation_fee: int = 0


class MalformedIntent(ValueError):
    """Descriptor incomplete or internally inconsistent."""


def _credential_ok(ruleset: RuleSet, credential: Credential) -> bool:
    """Signed by any trusted issuer."""
    return any(credential_verify(key, credential)
               for key in ruleset.credential_issuers)


def authorize(descriptor: IntentDescriptor, ruleset: RuleSet) -> Decision:
    """Pure flow-matrix decision for a payment intent.

    Rule order is fixed so each denial maps to one reason: structural
    consistency, issuance authority, blacklist (transparent-visible
    destinations only), store legs restricted to individuals, then the
    per-kind matrix.
    """
    d = descriptor
    if d.tx_kind is None or d.source_class is None or d.dest_class is None \
            or d.source_kind is None or d.dest_kind is None:
        raise MalformedIntent("descriptor incomplete")
    shape = KIND_SHAPES[d.tx_kind]
    if (d.source_class, d.dest_class) != shape:
        raise MalformedIntent(
            f"{d.tx_kind.value} runs {shape[0].value} to {shape[1].value}, "
            f"got {d.source_class.value} to {d.dest_class.value}")
    if d.tx_kind is TxKind.SHIELD and d.source_entity_id and d.dest_entity_id \
            and d.source_entity_id != d.dest_entity_id:
        raise MalformedIntent("shielding targets the payer's own store")

    if d.tx_kind is TxKind.ISSUE:
        if ruleset.mode is Mode.MEDIATED and d.source_kind is EntityKind.CENTRAL_BANK:
            return _blacklist_check(d, ruleset) or Decision.allow()
        return Decision.deny(DenyReason.ISSUER_NOT_AUTHORIZED)

    denied = _blacklist_check(d, ruleset)
    if denied:
        return denied

    for leg_class, kind in ((d.source_class, d.source_kind),
                            (d.dest_class, d.dest_kind)):
        if leg_class is LegClass.STORE and kind is not EntityKind.INDIVIDUAL:
            return Decision.deny(DenyReason.BUSINESS_TO_STORE_FORBIDDEN)

    if d.tx_kind is TxKind.TRANSPARENT_TRANSFER:
        return Decision.allow()

    if d.tx_kind is TxKind.SHIELD:
        return Decision.allow()

    if d.tx_kind is TxKind.UNSHIELD:
        if (ruleset.identification_threshold is not None
                and d.amount is not None
                and d.amount > ruleset.identification_threshold):
            if not any(_credential_ok(ruleset, c) for c in d.credentials):
                return Decision.deny(DenyReason.THRESHOLD_IDENTIFICATION_REQUIRED)
        return Decision.allow()

    if d.tx_kind is TxKind.SHIELDED_TRANSFER:
        if ruleset.mode is Mode.MEDIATED:
            return Decision.deny(DenyReason.MEDIATION_REQUIRED)
        return Decision.allow()

    if d.tx_kind is TxKind.MEDIATED_BATCH:
        if d.intermediary_kind is not None \
                and d.intermediary_kind is not EntityKind.INTERMEDIARY:
            return Decision.deny(DenyReason.MEDIATION_REQUIRED)
        if ruleset.mode is Mode.MEDIATED:
            if not d.credentials:
                return Decision.deny(DenyReason.CREDENTIAL_REQUIRED)
            if not all(_credential_ok(ruleset, c) for c in d.credentials):
                return Decision.deny(DenyReason.CREDENTIAL_REQUIRED)
        return Decision.allow()

    raise MalformedIntent(f"unhandled kind {d.tx_kind}")  # pragma: no cover


def _blacklist_check(d: IntentDescriptor, ruleset: RuleSet) -> Decision | None:
    """Blacklisting bites only transparent-visible destinations."""
    if d.dest_class is not LegClass.ACCOUNT:
        return None
    for target in (d.dest_entity_id, d.dest_account_id):
        if target is not None and target in ruleset.blacklist:
            return Decision.deny(DenyReason.BLACKLISTED)
    return None


def update_blacklist(ruleset: RuleSet, target_id: str, flagged: bool) -> RuleSet:
    """Flag or clear an entity/account id; returns a new ruleset value."""
    blacklist = set(ruleset.blacklist)
    if flagged:
        blacklist.add(target_id)
    else:
        blacklist.discard(target_id)
    return replace(ruleset, blacklist=frozenset(blacklist))


@dataclass(frozen=True)
class MatrixCell:
    tx_kind: TxKind
    source_class: LegClass
    source_kind: EntityKind
    dest_class: LegClass
    dest_kind: EntityKind
    verdict: str              # allow | deny | malformed
    reason: DenyReason | None


def authorize_matrix(ruleset: RuleSet,
                     credential: Credential | None = None) -> list[MatrixCell]:
    """Every (kind x source class x source kind x dest class x dest kind)
    combination, decided.  Shape-inconsistent combinations come back as
    "malformed" rather than a policy verdict.

    Pass a valid `credential` (under one of the ruleset's issuers) to
    decide the matrix for credentialed actors; omit it for bare ones.
    """
    creds = (credential,) if credential else ()
    cells = []
    for kind in TxKind:
        for sclass in LegClass:
            for skind in EntityKind:
                for dclass in LegClass:
                    for dkind in EntityKind:
                        desc = IntentDescriptor(
                            kind, sclass, skind, dclass, dkind,
                            credentials=creds,
                            intermediary_kind=EntityKind.INTERMEDIARY
                            if kind is TxKind.MEDIATED_BATCH else None)
                        try:
                            decision = authorize(desc, ruleset)
                        except MalformedIntent:
                            cells.append(MatrixCell(kind, sclass, skind,
                                                    dclass, dkind,
                                                    "malformed", None))
                            continue
                        cells.append(MatrixCell(
                            kind, sclass, skind, dclass, dkind,
                            "allow" if decision.allowed else "deny",
                            decision.reason))
    return cells
