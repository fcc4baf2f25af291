import pytest

from pvx.entityreg import Account, Entity, Registry
from pvx.policy import EntityKind


@pytest.fixture
def registry():
    reg = Registry()
    reg = reg.register_entity(Entity("bank1", EntityKind.REGULATED_INSTITUTION))
    reg = reg.register_entity(Entity("acme", EntityKind.REGISTERED_BUSINESS))
    reg = reg.register_entity(Entity("alice", EntityKind.INDIVIDUAL))
    reg = reg.register_entity(Entity("bob", EntityKind.INDIVIDUAL))
    reg = reg.register_account(Account("acme.acct", "bank1", "acme"))
    reg = reg.register_account(Account("alice.acct", "bank1", "alice"))
    return reg


def test_lookup_account(registry):
    assert registry.lookup_account("acme.acct") == ("bank1", "acme")
    with pytest.raises(LookupError):
        registry.lookup_account("nope")


def test_duplicate_ids_rejected(registry):
    with pytest.raises(ValueError, match="duplicate entity"):
        registry.register_entity(Entity("alice", EntityKind.INDIVIDUAL))
    with pytest.raises(ValueError, match="duplicate account"):
        registry.register_account(Account("acme.acct", "bank1", "acme"))


def test_accounts_need_known_parties(registry):
    with pytest.raises(ValueError, match="unknown owner"):
        registry.register_account(Account("x.acct", "bank1", "ghost"))
    with pytest.raises(ValueError, match="unknown institution"):
        registry.register_account(Account("x.acct", "ghostbank", "alice"))
    # only institutions (or the central bank) hold customer accounts
    with pytest.raises(ValueError, match="cannot hold"):
        registry.register_account(Account("x.acct", "acme", "alice"))


def test_every_account_has_exactly_one_owner(registry):
    owners = {}
    for acct_id, acct in registry.accounts.items():
        assert acct_id not in owners
        owners[acct_id] = acct.owner_id
    assert owners == {"acme.acct": "acme", "alice.acct": "alice"}


def test_accountless_individual_is_fine(registry):
    # privacy boundary: bob exists with zero accounts
    assert registry.entity("bob").kind is EntityKind.INDIVIDUAL
    assert registry.accounts_of("bob") == []


def test_mediation_fee_schedule():
    reg = Registry(fee_schedule={"mix": 5})
    reg = reg.register_entity(Entity("mix", EntityKind.INTERMEDIARY))
    assert reg.mediation_fee("mix", default=2) == 5
    assert reg.mediation_fee("other", default=2) == 2
