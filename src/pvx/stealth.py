"""Stealth addresses: published scan/spend keypairs and the per-payment
one-time output keys senders derive from them.

The recipient publishes (A, B) = (G^a, G^b).  A sender with ephemeral e
computes E = G^e and the one-time address P = G^{h(A^e)} * B.  Only the
holder of the scan secret a can recognise the output (via E^a = A^e), and
the one-time spend secret is h(E^a) + b.

The payment blinding is also derived from the shared secret so a scanning
recipient can reopen the amount commitment without a side channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import GroupParams

TAG_SCAN = "pvx/stealth/scan"
TAG_SPEND = "pvx/stealth/spend"
TAG_ONETIME = "pvx/stealth/onetime"
TAG_BLIND = "pvx/stealth/blind"


@dataclass(frozen=True)
class StealthKeypair:
    scan_secret: int
    spend_secret: int
    scan_public: int
    spend_public: int

    @property
    def address(self) -> tuple[int, int]:
        """The published (A, B) pair."""
        return (self.scan_public, self.spend_public)


@dataclass(frozen=True)
class OneTimeOutputKeys:
    ephemeral_public: int
    onetime_address: int
    shared_blinding: int  # blinding the sender uses for the amount commitment


def derive_stealth_keypair(group: GroupParams, seed: bytes) -> StealthKeypair:
    a = group.nonzero_scalar(TAG_SCAN, seed)
    b = group.nonzero_scalar(TAG_SPEND, seed)
    return StealthKeypair(a, b, group.power(group.g, a), group.power(group.g, b))


def _onetime_scalar(group: GroupParams, shared: int) -> int:
    return group.hash_to_scalar(TAG_ONETIME, group.element_to_bytes(shared))


def shared_blinding(group: GroupParams, shared: int) -> int:
    return group.nonzero_scalar(TAG_BLIND, group.element_to_bytes(shared))


def make_onetime_output(group: GroupParams, address: tuple[int, int],
                        ephemeral: int) -> OneTimeOutputKeys:
    scan_pub, spend_pub = address
    if not (group.is_element(scan_pub) and group.is_element(spend_pub)):
        raise ValueError("malformed stealth address")
    if not 0 < ephemeral < group.q:
        raise ValueError("ephemeral scalar out of range")
    shared = group.power(scan_pub, ephemeral)
    t = _onetime_scalar(group, shared)
    p = group.mul(group.power(group.g, t), spend_pub)
    return OneTimeOutputKeys(group.power(group.g, ephemeral), p,
                             shared_blinding(group, shared))


def scan_output(group: GroupParams, scan_secret: int, spend_public: int,
                ephemeral_public: int, onetime_address: int) -> int | None:
    """Return the one-time spend secret's offset h(E^a) if the output is
    addressed to (scan_secret, spend_public); None otherwise.

    The full spend secret is the returned offset plus the spend secret b,
    which the caller holds.
    """
    if not (group.is_element(ephemeral_public) and group.is_element(onetime_address)):
        raise ValueError("malformed group elements")
    shared = group.power(ephemeral_public, scan_secret)
    t = _onetime_scalar(group, shared)
    if group.mul(group.power(group.g, t), spend_public) != onetime_address:
        return None
    return t


def recover_spend_secret(group: GroupParams, keypair: StealthKeypair,
                         ephemeral_public: int, onetime_address: int) -> int | None:
    """Full one-time spend secret x with G^x == onetime_address, if ours."""
    t = scan_output(group, keypair.scan_secret, keypair.spend_public,
                    ephemeral_public, onetime_address)
    if t is None:
        return None
    return (t + keypair.spend_secret) % group.q
