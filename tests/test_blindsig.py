import math
import random

import pytest

from pvx.blindsig import (
    Credential,
    credential_finalize,
    credential_issue,
    credential_request,
    credential_verify,
    issuer_keygen,
)


@pytest.fixture(scope="module")
def issuer():
    return issuer_keygen(b"issuer-seed")


def run_protocol(issuer, serial, unblinder, attribute="eligible"):
    req = credential_request(issuer.public, serial, unblinder, attribute)
    blind_sig = credential_issue(issuer, req.blinded)
    return credential_finalize(issuer.public, req, blind_sig)


def test_issue_finalize_verify_roundtrip(issuer):
    cred = run_protocol(issuer, serial=123456789, unblinder=987654321)
    assert credential_verify(issuer.public, cred)
    assert cred.attribute == "eligible"
    assert cred.serial == 123456789


def test_wrong_issuer_key_fails(issuer):
    other = issuer_keygen(b"another-issuer")
    cred = run_protocol(issuer, serial=42, unblinder=777777)
    assert not credential_verify(other.public, cred)


def test_tampered_serial_or_attribute_fails(issuer):
    cred = run_protocol(issuer, serial=42, unblinder=777777)
    assert not credential_verify(issuer.public,
                                 Credential(cred.attribute, 43, cred.signature))
    assert not credential_verify(issuer.public,
                                 Credential("premium", cred.serial, cred.signature))


def test_keygen_deterministic():
    assert issuer_keygen(b"seed-x") == issuer_keygen(b"seed-x")
    assert issuer_keygen(b"seed-x") != issuer_keygen(b"seed-y")


def test_issuer_transcript_unlinkable(issuer):
    # Monte-Carlo blindness check: for one fixed serial, the issuer-visible
    # blinded requests over 1000 random unblinders spread uniformly across
    # the modulus (chi-square over 8 buckets) and never repeat.
    n = issuer.public.n
    rnd = random.Random(314159)
    seen = set()
    buckets = [0] * 8
    trials = 1000
    for _ in range(trials):
        u = rnd.randrange(2, n)
        while math.gcd(u, n) != 1:
            u = rnd.randrange(2, n)
        req = credential_request(issuer.public, serial=1, unblinder=u)
        seen.add(req.blinded)
        buckets[req.blinded * 8 // n] += 1
    assert len(seen) == trials
    expected = trials / 8
    chi2 = sum((b - expected) ** 2 / expected for b in buckets)
    # 7 degrees of freedom; 24.3 is the 0.001 tail
    assert chi2 < 24.3


def test_bad_unblinder_rejected(issuer):
    with pytest.raises(ValueError):
        credential_request(issuer.public, serial=5, unblinder=1)
    with pytest.raises(ValueError):
        credential_request(issuer.public, serial=5, unblinder=0)


def test_finalize_checks_signature(issuer):
    req = credential_request(issuer.public, serial=7, unblinder=12345)
    with pytest.raises(ValueError):
        credential_finalize(issuer.public, req, blind_signature=99)


def test_crt_issue_equals_plain_pow(issuer):
    # signing mod p and mod q and recombining is pow(blinded, d, n) for
    # every blinded value in [1, n), units or not
    n, p, q = issuer.public.n, issuer.p, issuer.q
    assert p * q == n
    rnd = random.Random(2718)
    sample = [rnd.randrange(1, n) for _ in range(300)]
    sample += [p, q, 2 * p, 3 * q, (q - 1) * p, (p - 1) * q, 1, n - 1]
    for blinded in sample:
        assert credential_issue(issuer, blinded) == \
            pow(blinded, issuer.d, n), blinded
