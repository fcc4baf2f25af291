"""Pedersen commitments to amounts, with the homomorphic helpers the
ledger's balance checking relies on.

A commitment to amount v under blinding r is the group element
G^r * H^v, kept as a plain int like every other element.  Commitments
multiply componentwise, so commit(v1, r1) * commit(v2, r2) opens to
(v1 + v2, r1 + r2) mod q, and `group.inv` negates one.
"""

from __future__ import annotations

from .group import GroupParams


def commit(group: GroupParams, v: int, r: int) -> int:
    """C = G^r * H^v.  Scalars must already be reduced mod q."""
    if not 0 <= v < group.q:
        raise ValueError("amount scalar out of range")
    if not 0 <= r < group.q:
        raise ValueError("blinding scalar out of range")
    return group.power2(group.g, r, group.h, v)


def product(group: GroupParams, commitments) -> int:
    """Fold a sequence of commitments; empty product is the identity."""
    acc = group.identity
    for c in commitments:
        acc = group.mul(acc, c)
    return acc
