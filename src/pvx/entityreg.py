"""Registry binding entities, institutional accounts and intermediary fees
-- the world-model shared by policy, ledger, and observer.

The registry owns who exists (id and kind), who holds which account, and
what each intermediary charges.  The regulator's rules (blacklist, trusted
credential issuers, identification threshold) live in `policy.RuleSet`,
and spent key images and credential serials in the ledger state.  Every
account has exactly one owner; individuals may appear with zero accounts
(pure private-store actors).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .policy import EntityKind


@dataclass(frozen=True)
class Entity:
    entity_id: str
    kind: EntityKind


@dataclass(frozen=True)
class Account:
    account_id: str
    institution_id: str
    owner_id: str


@dataclass(frozen=True)
class Registry:
    entities: dict[str, Entity] = field(default_factory=dict)
    accounts: dict[str, Account] = field(default_factory=dict)
    fee_schedule: dict[str, int] = field(default_factory=dict)

    # -- registration (copy-on-write) --------------------------------------

    def register_entity(self, entity: Entity) -> "Registry":
        if entity.entity_id in self.entities:
            raise ValueError(f"duplicate entity id {entity.entity_id!r}")
        entities = dict(self.entities)
        entities[entity.entity_id] = entity
        return replace(self, entities=entities)

    def register_account(self, account: Account) -> "Registry":
        if account.account_id in self.accounts:
            raise ValueError(f"duplicate account id {account.account_id!r}")
        if account.owner_id not in self.entities:
            raise ValueError(f"unknown owner {account.owner_id!r}")
        institution = self.entities.get(account.institution_id)
        if institution is None:
            raise ValueError(f"unknown institution {account.institution_id!r}")
        if institution.kind not in (EntityKind.REGULATED_INSTITUTION,
                                    EntityKind.CENTRAL_BANK):
            raise ValueError(
                f"{account.institution_id!r} cannot hold customer accounts")
        accounts = dict(self.accounts)
        accounts[account.account_id] = account
        return replace(self, accounts=accounts)

    # -- lookups ------------------------------------------------------------

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise LookupError(f"unknown entity {entity_id!r}") from None

    def lookup_account(self, account_id: str) -> tuple[str, str]:
        """(institution id, owner entity id) for an account."""
        try:
            acct = self.accounts[account_id]
        except KeyError:
            raise LookupError(f"unknown account {account_id!r}") from None
        return acct.institution_id, acct.owner_id

    def accounts_of(self, entity_id: str) -> list[str]:
        return sorted(a.account_id for a in self.accounts.values()
                      if a.owner_id == entity_id)

    def mediation_fee(self, intermediary_id: str, default: int) -> int:
        return self.fee_schedule.get(intermediary_id, default)
