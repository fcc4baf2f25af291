import pytest

from pvx.blindsig import (
    Credential,
    credential_finalize,
    credential_issue,
    credential_request,
    issuer_keygen,
)
from pvx.ledger import TxKind
from pvx.policy import (
    DenyReason,
    EntityKind,
    IntentDescriptor,
    LegClass,
    MalformedIntent,
    Mode,
    RuleSet,
    authorize,
    authorize_matrix,
    update_blacklist,
)

ACCOUNT, STORE = LegClass.ACCOUNT, LegClass.STORE
KINDS = list(EntityKind)
IND = EntityKind.INDIVIDUAL


@pytest.fixture(scope="module")
def issuer():
    return issuer_keygen(b"policy-test-issuer")


@pytest.fixture(scope="module")
def credential(issuer):
    req = credential_request(issuer.public, serial=99, unblinder=123457)
    return credential_finalize(issuer.public, req,
                               credential_issue(issuer, req.blinded))


def rules(mode, issuer=None, threshold=None, blacklist=()):
    return RuleSet(mode, frozenset(blacklist), threshold,
                   (issuer.public,) if issuer else ())


def descriptor(kind, sclass, skind, dclass, dkind, **kw):
    return IntentDescriptor(kind, sclass, skind, dclass, dkind, **kw)


# ---------------------------------------------------------------------------
# the independent rule table: mirrors the flow matrix bullet by bullet,
# with rule priority written out declaratively


def expected_verdict(mode, kind, sclass, skind, dclass, dkind,
                     credentialed):
    shapes = {
        TxKind.TRANSPARENT_TRANSFER: (ACCOUNT, ACCOUNT),
        TxKind.SHIELD: (ACCOUNT, STORE),
        TxKind.UNSHIELD: (STORE, ACCOUNT),
        TxKind.SHIELDED_TRANSFER: (STORE, STORE),
        TxKind.MEDIATED_BATCH: (STORE, STORE),
        TxKind.ISSUE: (ACCOUNT, ACCOUNT),
    }
    if (sclass, dclass) != shapes[kind]:
        return "malformed"
    if kind is TxKind.ISSUE:
        if mode is Mode.MEDIATED and skind is EntityKind.CENTRAL_BANK:
            return "allow"
        return DenyReason.ISSUER_NOT_AUTHORIZED
    if sclass is STORE and skind is not IND:
        return DenyReason.BUSINESS_TO_STORE_FORBIDDEN
    if dclass is STORE and dkind is not IND:
        return DenyReason.BUSINESS_TO_STORE_FORBIDDEN
    if kind in (TxKind.TRANSPARENT_TRANSFER, TxKind.SHIELD, TxKind.UNSHIELD):
        return "allow"
    if kind is TxKind.SHIELDED_TRANSFER:
        return DenyReason.MEDIATION_REQUIRED if mode is Mode.MEDIATED else "allow"
    if kind is TxKind.MEDIATED_BATCH:
        if mode is Mode.MEDIATED and not credentialed:
            return DenyReason.CREDENTIAL_REQUIRED
        return "allow"
    raise AssertionError(kind)


@pytest.mark.parametrize("mode", [Mode.SUPPORTED, Mode.MEDIATED])
@pytest.mark.parametrize("credentialed", [False, True])
def test_exhaustive_matrix(mode, credentialed, issuer, credential):
    """Every cell of the full matrix, checked against the rule table."""
    ruleset = rules(mode, issuer=issuer)
    cells = authorize_matrix(ruleset, credential if credentialed else None)
    assert len(cells) == len(TxKind) * 2 * len(KINDS) * 2 * len(KINDS)
    for cell in cells:
        want = expected_verdict(mode, cell.tx_kind, cell.source_class,
                                cell.source_kind, cell.dest_class,
                                cell.dest_kind, credentialed)
        if want == "allow":
            assert cell.verdict == "allow", cell
        elif want == "malformed":
            assert cell.verdict == "malformed", cell
        else:
            assert cell.verdict == "deny" and cell.reason is want, cell


def test_matrix_examples_named_in_flows(issuer, credential):
    med = rules(Mode.MEDIATED, issuer=issuer)
    sup = rules(Mode.SUPPORTED, issuer=issuer)

    direct = descriptor(TxKind.SHIELDED_TRANSFER, STORE, IND, STORE, IND)
    assert authorize(direct, med).reason is DenyReason.MEDIATION_REQUIRED
    assert authorize(direct, sup).allowed

    b2s = descriptor(TxKind.SHIELD, ACCOUNT, EntityKind.REGISTERED_BUSINESS,
                     STORE, EntityKind.REGISTERED_BUSINESS)
    assert authorize(b2s, med).reason is DenyReason.BUSINESS_TO_STORE_FORBIDDEN
    assert authorize(b2s, sup).reason is DenyReason.BUSINESS_TO_STORE_FORBIDDEN

    batch = descriptor(TxKind.MEDIATED_BATCH, STORE, IND, STORE, IND,
                       credentials=(credential,),
                       intermediary_kind=EntityKind.INTERMEDIARY)
    assert authorize(batch, med).allowed
    bare = descriptor(TxKind.MEDIATED_BATCH, STORE, IND, STORE, IND,
                      intermediary_kind=EntityKind.INTERMEDIARY)
    assert authorize(bare, med).reason is DenyReason.CREDENTIAL_REQUIRED
    assert authorize(bare, sup).allowed


def test_blacklist_transparent_destinations_only(issuer):
    med = rules(Mode.MEDIATED, issuer=issuer, blacklist={"bob"})
    to_bob_acct = descriptor(TxKind.UNSHIELD, STORE, IND, ACCOUNT, IND,
                             dest_entity_id="bob", amount=10)
    assert authorize(to_bob_acct, med).reason is DenyReason.BLACKLISTED
    # a shielded destination is not transparent-visible: unaffected
    sup = rules(Mode.SUPPORTED, blacklist={"bob"})
    to_bob_store = descriptor(TxKind.SHIELDED_TRANSFER, STORE, IND, STORE, IND,
                              dest_entity_id="bob")
    assert authorize(to_bob_store, sup).allowed
    # account ids can be flagged directly too
    med2 = rules(Mode.MEDIATED, issuer=issuer, blacklist={"bob.acct"})
    flagged_acct = descriptor(TxKind.TRANSPARENT_TRANSFER, ACCOUNT, IND,
                              ACCOUNT, IND, dest_account_id="bob.acct")
    assert authorize(flagged_acct, med2).reason is DenyReason.BLACKLISTED


def test_blacklist_toggle(issuer):
    ruleset = rules(Mode.MEDIATED, issuer=issuer)
    intent = descriptor(TxKind.UNSHIELD, STORE, IND, ACCOUNT, IND,
                        dest_entity_id="bob", amount=5)
    assert authorize(intent, ruleset).allowed
    flagged = update_blacklist(ruleset, "bob", True)
    assert authorize(intent, flagged).reason is DenyReason.BLACKLISTED
    cleared = update_blacklist(flagged, "bob", False)
    assert authorize(intent, cleared).allowed


def test_threshold_rule(issuer, credential):
    ruleset = rules(Mode.MEDIATED, issuer=issuer, threshold=50)
    small = descriptor(TxKind.UNSHIELD, STORE, IND, ACCOUNT,
                       EntityKind.REGISTERED_BUSINESS, amount=50)
    assert authorize(small, ruleset).allowed
    big = descriptor(TxKind.UNSHIELD, STORE, IND, ACCOUNT,
                     EntityKind.REGISTERED_BUSINESS, amount=51)
    assert authorize(big, ruleset).reason is \
        DenyReason.THRESHOLD_IDENTIFICATION_REQUIRED
    identified = descriptor(TxKind.UNSHIELD, STORE, IND, ACCOUNT,
                            EntityKind.REGISTERED_BUSINESS, amount=51,
                            credentials=(credential,))
    assert authorize(identified, ruleset).allowed
    # threshold off by default
    assert authorize(big, rules(Mode.MEDIATED, issuer=issuer)).allowed


def test_forged_credential_rejected(issuer):
    ruleset = rules(Mode.MEDIATED, issuer=issuer)
    forged = Credential("eligible", 5, 12345)
    batch = descriptor(TxKind.MEDIATED_BATCH, STORE, IND, STORE, IND,
                       credentials=(forged,),
                       intermediary_kind=EntityKind.INTERMEDIARY)
    assert authorize(batch, ruleset).reason is DenyReason.CREDENTIAL_REQUIRED


def test_a_credential_from_any_trusted_issuer_counts(issuer, credential):
    other = issuer_keygen(b"policy-test-issuer-2")
    batch = descriptor(TxKind.MEDIATED_BATCH, STORE, IND, STORE, IND,
                       credentials=(credential,),
                       intermediary_kind=EntityKind.INTERMEDIARY)
    for trusted in ((issuer.public, other.public),
                    (other.public, issuer.public)):
        assert authorize(batch, RuleSet(Mode.MEDIATED,
                                        credential_issuers=trusted)).allowed
    untrusted = RuleSet(Mode.MEDIATED, credential_issuers=(other.public,))
    assert authorize(batch, untrusted).reason is DenyReason.CREDENTIAL_REQUIRED


def test_issue_authority(issuer):
    med = rules(Mode.MEDIATED, issuer=issuer)
    cb = descriptor(TxKind.ISSUE, ACCOUNT, EntityKind.CENTRAL_BANK, ACCOUNT,
                    EntityKind.REGULATED_INSTITUTION)
    assert authorize(cb, med).allowed
    bank = descriptor(TxKind.ISSUE, ACCOUNT, EntityKind.REGULATED_INSTITUTION,
                      ACCOUNT, EntityKind.REGULATED_INSTITUTION)
    assert authorize(bank, med).reason is DenyReason.ISSUER_NOT_AUTHORIZED
    sup = rules(Mode.SUPPORTED)
    assert authorize(cb, sup).reason is DenyReason.ISSUER_NOT_AUTHORIZED


def test_mode_monotonicity(issuer, credential):
    """Every intent allowed in mediated mode is allowed in supported mode
    with credentials stripped.  Issuance is the one structural exception:
    only the mediated ledger has an issuing authority at all, so the
    private-actor reading excludes it."""
    med = rules(Mode.MEDIATED, issuer=issuer)
    sup = rules(Mode.SUPPORTED, issuer=issuer)
    med_cells = authorize_matrix(med, credential)
    sup_cells = {(c.tx_kind, c.source_class, c.source_kind, c.dest_class,
                  c.dest_kind): c for c in authorize_matrix(sup, None)}
    for cell in med_cells:
        if cell.tx_kind is TxKind.ISSUE:
            continue
        if cell.verdict != "allow":
            continue
        stripped = sup_cells[(cell.tx_kind, cell.source_class,
                              cell.source_kind, cell.dest_class,
                              cell.dest_kind)]
        assert stripped.verdict == "allow", cell


def test_malformed_descriptors(issuer):
    ruleset = rules(Mode.SUPPORTED)
    with pytest.raises(MalformedIntent):
        authorize(descriptor(TxKind.SHIELD, STORE, IND, ACCOUNT, IND), ruleset)
    with pytest.raises(MalformedIntent):
        authorize(descriptor(TxKind.SHIELD, ACCOUNT, IND, STORE, IND,
                             source_entity_id="alice", dest_entity_id="bob"),
                  ruleset)
    with pytest.raises(MalformedIntent):
        authorize(IntentDescriptor(None, ACCOUNT, IND, ACCOUNT, IND), ruleset)


def test_authorize_is_pure(issuer, credential):
    ruleset = rules(Mode.MEDIATED, issuer=issuer)
    d = descriptor(TxKind.MEDIATED_BATCH, STORE, IND, STORE, IND,
                   credentials=(credential,),
                   intermediary_kind=EntityKind.INTERMEDIARY)
    assert authorize(d, ruleset) == authorize(d, ruleset)
