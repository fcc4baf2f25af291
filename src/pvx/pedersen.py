"""Pedersen commitments to amounts, with the homomorphic helpers the
ledger's balance checking relies on.

A commitment to amount v under blinding r is G^r * H^v.  Commitments
multiply componentwise, so commit(v1, r1) * commit(v2, r2) opens to
(v1 + v2, r1 + r2) mod q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import GroupParams


@dataclass(frozen=True)
class Commitment:
    value: int  # group element

    def to_bytes(self, group: GroupParams) -> bytes:
        return group.element_to_bytes(self.value)


def commit(group: GroupParams, v: int, r: int) -> Commitment:
    """C = G^r * H^v.  Scalars must already be reduced mod q."""
    if not 0 <= v < group.q:
        raise ValueError("amount scalar out of range")
    if not 0 <= r < group.q:
        raise ValueError("blinding scalar out of range")
    return Commitment(group.power(group.g, r) * group.power(group.h, v) % group.p)


def negate_commitment(group: GroupParams, a: Commitment) -> Commitment:
    return Commitment(group.inv(a.value))


def product(group: GroupParams, commitments) -> Commitment:
    """Fold a sequence of commitments; empty product is the identity."""
    acc = group.identity
    for c in commitments:
        acc = group.mul(acc, c.value)
    return Commitment(acc)
