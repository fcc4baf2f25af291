"""Prime-order group substrate used by every cryptographic primitive.

Two built-in profiles share one implementation, both on a safe prime
p = 2q + 1:

* ``test``     -- p = 2039, q = 1019, G = 4.  Small enough that every vector
                  can be audited by hand or brute force.
* ``standard`` -- a fixed 160-bit-order group for scale runs.

Elements are the signed quadratic residues of Hofheinz and Kiltz, "The
Group of Signed Quadratic Residues and Applications" (CRYPTO 2009).  A
safe prime has p = 3 (mod 4), so -1 is a non-residue and exactly one of x
and p - x is a quadratic residue.  Each element is stored as
|x| = min(x, p - x); the integers 1..q then form a group of order q under
a * b = |ab mod p|, and |.| maps the quadratic residues (the order-q
subgroup of Z_p^*) one-to-one onto it.  So ``is_element`` is the range
check 0 < a <= q, and an element of small order (Lim and Lee, CRYPTO
1997) has no encoding at all.  ``mul``, ``inv``, ``power``, ``power2``
and ``hash_to_group`` return |x|: no other module reduces an element mod p.
Scalars are integers mod q.  H is derived by hashing the fixed domain tag
``pvx/H`` so that nobody knows log_G(H).

On a profile whose q is wider than a machine word, ``power`` and
``power2`` raise G and H through fixed-base tables; otherwise they call
builtin ``pow``.  Either way gives the same answer.  ``multi_power``
raises many variable bases at once through Pippenger's buckets, which
share one chain of squarings among all of them.

Serialization is unsigned big-endian in one fixed byte length per
profile, ``scalar_bytes``, for elements and scalars alike: no element
exceeds q.  Domain-separation tags are ASCII and part of the external
interface: "pvx/H", "pvx/ring", "pvx/range", "pvx/cred".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

TAG_H = "pvx/H"
TAG_RING = "pvx/ring"
TAG_RANGE = "pvx/range"
TAG_CRED = "pvx/cred"

# Fixed-base exponentiation for G and H (Brickell-Gordon-McCurley-Wilson
# 1992): one table row per WINDOW_BITS-bit digit of the exponent.  `power`
# reads the digits as the exponent's bytes, hence 8.  The tables pay only
# when q is wider than a machine word; on a smaller q builtin pow beats a
# Python-level loop.
WINDOW_BITS = 8
WORD_MAX = 2**64 - 1

# Bucket multi-exponentiation (Pippenger, "On the evaluation of powers and
# related problems", FOCS 1976): per MULTI_WINDOW_BITS-bit digit window,
# one mul-mod per base plus two per bucket to sum the buckets, and one
# chain of squarings shared by all bases.  On a 160-bit q that beats one
# builtin pow per base from a few dozen bases up.
MULTI_WINDOW_BITS = 5


def absorb(h, items):
    """Feed `items` to the hash state `h`, each after its 4-byte big-endian
    length, and return `h`.  The length prefixes make the encoding
    injective for a fixed tag."""
    for item in items:
        h.update(len(item).to_bytes(4, "big"))
        h.update(item)
    return h


def tagged_prefix(tag: str, *items: bytes):
    """The SHA-256 state of `tagged_hash(tag, *items)` before its digest.

    `absorb(tagged_prefix(tag, *a).copy(), b).digest()` equals
    `tagged_hash(tag, *a, *b)`, so many hashes that share a prefix can
    absorb it once (see ``ringsig._chain``)."""
    return absorb(hashlib.sha256(tag.encode("ascii") + b"\x00"), items)


def tagged_hash(tag: str, *items: bytes) -> bytes:
    """SHA-256 over an ASCII tag, a zero byte and the items, each prefixed
    by its length (`absorb`)."""
    # tagged_prefix(tag, *items).digest(), without a call that re-packs items
    return absorb(hashlib.sha256(tag.encode("ascii") + b"\x00"), items).digest()


@dataclass(frozen=True)
class GroupParams:
    """The signed quadratic residues mod a safe prime p = 2q + 1, with the
    two Pedersen bases.

    G is the blinding base, H the amount base.  Both generate the group.
    """

    name: str
    p: int
    q: int
    g: int
    h: int
    range_bits: int  # default bit width for range proofs on this profile

    def __hash__(self) -> int:
        # equal profiles have equal p, so p alone agrees with ==; profiles
        # key hot caches (ringsig._image_base), so the hash must be cheap
        return hash(self.p)

    # Derived once per profile object and kept in its __dict__, which a
    # frozen dataclass leaves writable.  A dataclasses.replace copy is a
    # new object and derives its own, from its own g and h.

    @cached_property
    def scalar_bytes(self) -> int:
        return (self.q.bit_length() + 7) // 8

    @cached_property
    def _g_table(self) -> list[list[int]]:
        return _fixed_base_table(self.g, self.p, self.q)

    @cached_property
    def _h_table(self) -> list[list[int]]:
        return _fixed_base_table(self.h, self.p, self.q)

    # -- arithmetic -------------------------------------------------------
    # Each public operation folds its result to |x| once, inline: a helper
    # call would cost more than the comparison it wraps.  Products inside
    # one operation stay unfolded, because |u * v| = ||u| * |v|| (|.| only
    # drops a sign), so a single fold at the end gives the same element.

    def mul(self, a: int, b: int) -> int:
        x = a * b % self.p
        return x if x <= self.q else self.p - x

    def inv(self, a: int) -> int:
        # 0 has no inverse; it maps to 0, which is not an element
        if not a % self.p:
            return 0
        x = pow(a, -1, self.p)
        return x if x <= self.q else self.p - x

    def power(self, base: int, exp: int) -> int:
        if self.q > WORD_MAX:
            x = self._wide_power(base, exp)
        else:
            x = pow(base, exp % self.q, self.p)
        return x if x <= self.q else self.p - x

    def power2(self, a: int, x: int, b: int, y: int) -> int:
        """|a^x * b^y|, folded once: the two-base exponentiation of every
        commitment and Fiat-Shamir verification equation."""
        p, q = self.p, self.q
        if q > WORD_MAX:
            z = self._wide_power(a, x) * self._wide_power(b, y) % p
        else:
            z = pow(a, x % q, p) * pow(b, y % q, p) % p
        return z if z <= q else p - z

    def multi_power(self, pairs) -> int:
        """|prod b^e| over the (base, exponent) `pairs`, folded once; 1 for
        no pairs.  Exponents are read mod q, so a negative one inverts."""
        p, q = self.p, self.q
        pairs = [(b, e % q) for b, e in pairs]
        mask = (1 << MULTI_WINDOW_BITS) - 1
        acc = 1
        # digit windows from the top: acc = acc^32 * prod_d bucket[d]^d
        top = (q.bit_length() - 1) // MULTI_WINDOW_BITS * MULTI_WINDOW_BITS
        for shift in range(top, -1, -MULTI_WINDOW_BITS):
            for _ in range(MULTI_WINDOW_BITS):
                acc = acc * acc % p
            buckets = [1] * (mask + 1)
            for b, e in pairs:
                d = e >> shift & mask
                if d:
                    buckets[d] = buckets[d] * b % p
            # prod_d bucket[d]^d as a running product of suffix products
            run = total = 1
            for d in range(mask, 0, -1):
                run = run * buckets[d] % p
                total = total * run % p
            acc = acc * total % p
        return acc if acc <= q else p - acc

    def _wide_power(self, base: int, exp: int) -> int:
        """base^exp mod p, unfolded: G and H through their fixed-base
        tables, any other base through builtin pow."""
        if base == self.g:
            table = self._g_table
        elif base == self.h:
            table = self._h_table
        else:
            return pow(base, exp % self.q, self.p)
        # one entry per row: row i holds base^(d * 256^i) at digit d
        digits = (exp % self.q).to_bytes(len(table), "little")
        p = self.p
        acc = 1
        for row, digit in zip(table, digits):
            acc = acc * row[digit] % p
        return acc

    def is_element(self, a: int) -> bool:
        """Whether `a` encodes a group element: 1..q (1 is the identity)."""
        return 0 < a <= self.q

    @property
    def identity(self) -> int:
        return 1

    # -- encoding ---------------------------------------------------------

    def element_to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self.scalar_bytes, "big")

    def scalar_to_bytes(self, s: int) -> bytes:
        return (s % self.q).to_bytes(self.scalar_bytes, "big")

    # -- hashing ----------------------------------------------------------

    def hash_to_scalar(self, tag: str, *items: bytes) -> int:
        return int.from_bytes(tagged_hash(tag, *items), "big") % self.q

    def nonzero_scalar(self, tag: str, *items: bytes) -> int:
        """Like hash_to_scalar but rejects zero (counter-based retry)."""
        return self.nonzero_scalar_at(tagged_prefix(tag), *items)

    def nonzero_scalar_at(self, state, *items: bytes) -> int:
        """`nonzero_scalar(tag, *a, *items)` for `state = tagged_prefix(tag,
        *a)`.  `state` is only copied, so a caller drawing many scalars
        under one prefix absorbs the prefix once."""
        ctr = 0
        while True:
            h = absorb(state.copy(), items)
            # absorb's framing of the counter, in one update
            h.update(b"\x00\x00\x00\x04" + ctr.to_bytes(4, "big"))
            s = int.from_bytes(h.digest(), "big") % self.q
            if s:
                return s
            ctr += 1

    def hash_to_group(self, tag: str, *items: bytes) -> int:
        """Map arbitrary data to an element of unknown discrete log.

        Squaring lands the digest in the quadratic residues, whose |x| is
        the element; 0 and 1 are rejected and retried with a counter.
        """
        p, ctr = self.p, 0
        while True:
            x = int.from_bytes(
                tagged_hash(tag, *items, ctr.to_bytes(4, "big")), "big") % p
            e = x * x % p
            if e not in (0, 1):
                return e if e <= self.q else p - e
            ctr += 1


def _fixed_base_table(base: int, p: int, q: int) -> list[list[int]]:
    """One row per WINDOW_BITS-bit digit of an exponent below q, with
    row[i][d] = base^(d * 2^(WINDOW_BITS * i)) mod p."""
    width = 1 << WINDOW_BITS
    table = []
    for _ in range(-(-q.bit_length() // WINDOW_BITS)):
        row = [1] * width
        for d in range(1, width):
            row[d] = row[d - 1] * base % p
        table.append(row)
        base = row[-1] * base % p
    return table


def _build(name: str, p: int, q: int, g: int, range_bits: int) -> GroupParams:
    h = GroupParams(name, p, q, g, 0, range_bits).hash_to_group(TAG_H)
    return GroupParams(name, p, q, g, h, range_bits)


# Hand-auditable profile: p = 2039 = 2*1019 + 1, both prime; 4 = 2^2 is a
# quadratic residue of order exactly 1019.  H below works out to 181.
TEST_GROUP = _build("test", p=2039, q=1019, g=4, range_bits=8)

# 160-bit-order profile: q is the smallest prime >= 2^159 + 1 with 2q + 1
# prime.  Elements and scalars are 20 bytes.
_STD_Q = 730750818665451459101842416358141509827966329493
STANDARD_GROUP = _build(
    "standard", p=2 * _STD_Q + 1, q=_STD_Q, g=4, range_bits=32)

PROFILES = {"test": TEST_GROUP, "standard": STANDARD_GROUP}


def get_profile(name: str) -> GroupParams:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown group profile {name!r}") from None
