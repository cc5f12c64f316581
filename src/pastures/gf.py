"""Deterministic small Galois fields.

Elements of GF(p^k) are encoded as integers in ``range(p**k)``: the integer
``sum(c_i * p**i)`` stands for the polynomial ``sum(c_i * T**i)`` in the
residue ring F_p[T] / (modulus).  With this encoding, numeric order on the
integers coincides with lexicographic order on coefficient tuples read from
the highest degree down, which is the order used for all canonical choices:

* modulus: the least monic irreducible polynomial of degree k,
* generator: the least element of full multiplicative order q - 1.

For prime q the generator is the least primitive root and the encoding is the
usual residue 0..p-1.  It is found by the order test: a has order q - 1
exactly when a^((q-1)/r) != 1 for each prime r dividing q - 1, each power
by square and multiply with ``mul``.  Its powers give the exponent tables
``exp`` and ``dlog``, and from them the Zech logarithms ``zech``, the
logarithm of 1 + g^j for each j.  Multiplying by a is F_p-linear on base-p
digits, so in an extension field each power of the tables is the digits of
the last times the k products T^i * a, packed one digit per field of w bits.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import lshift, mul as _mul

from .groups import SearchSpaceExceeded
from .record import InternalError


class NotPrimePower(ValueError):
    """q is not of the form p^k with p prime and k >= 1."""


class FieldConstructionFailed(InternalError, RuntimeError):
    """A step that cannot fail for a prime power q failed building GF(q)."""


class FieldTooLarge(SearchSpaceExceeded):
    """q exceeds ``MAX_Q``, past which the tables are not built."""


MAX_Q = 2**16   # the tables take O(q) memory; GF(2**16) takes seconds


def prime_power(q):
    """Split q as (p, k), or raise :class:`NotPrimePower`.

    The least divisor p >= 2 of q is prime, so q is a prime power exactly
    when dividing out p leaves 1.
    """
    if not isinstance(q, int) or q < 2:
        raise NotPrimePower(f"{q!r} is not a prime power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    n, k = q, 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, k


def _prime_divisors(n):
    """The primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class GF:
    """Arithmetic tables for GF(p^k), q <= a few thousand."""

    def __init__(self, q):
        self.p, self.k = prime_power(q)
        self.q = q
        self.modulus = self._least_irreducible() if self.k > 1 else None
        self.generator, self.exp = self._least_generator()
        self.dlog = {e: i for i, e in enumerate(self.exp)}

    # -- polynomial plumbing ------------------------------------------------

    def _digits(self, n):
        p, out = self.p, []
        for _ in range(self.k):
            out.append(n % p)
            n //= p
        return out  # coefficient of T^i at index i

    def _undigits(self, cs):
        n = 0
        for c in reversed(cs):
            n = n * self.p + c
        return n

    def _polymulmod(self, a, b, mod):
        # a, b, mod are coefficient lists (ascending), mod monic
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] = (res[i + j] + x * y) % self.p
        return self._polyrem(res, mod)

    def _least_irreducible(self):
        p, k = self.p, self.k
        for tail in range(p**k):
            cand = self._digits(tail) + [1]  # monic degree k
            if all(self._trial(cand, d) for d in range(1, k // 2 + 1)):
                return cand
        raise FieldConstructionFailed("no irreducible polynomial found")

    def _trial(self, cand, d):
        # no monic divisor of degree d
        p = self.p
        for tail in range(p**d):
            div = []
            n = tail
            for _ in range(d):
                div.append(n % p)
                n //= p
            div.append(1)
            if self._polyrem(cand, div) == [0] * d:
                return False
        return True

    def _polyrem(self, a, b):
        # remainder of a by monic b, coefficient lists ascending
        a = list(a)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                a[i] = 0
                for j in range(db):
                    a[i - db + j] = (a[i - db + j] - c * b[j]) % self.p
        return a[:db]

    # -- field operations ---------------------------------------------------

    def add(self, a, b):
        p = self.p
        return self._undigits([(x + y) % p for x, y in
                               zip(self._digits(a), self._digits(b))])

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return self._undigits(
            self._polymulmod(self._digits(a), self._digits(b), self.modulus))

    def power(self, a, n):
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    def _least_generator(self):
        """The least a of order q - 1, by the order test with ``power``,
        and its powers 1, a, a^2, ..., a^(q-2).  An extension field starts
        at a = p: each a < p lies in the prime field and has an order
        dividing p - 1."""
        n = self.q - 1
        primes = _prime_divisors(n)
        for a in range(1 if self.k == 1 else self.p, self.q):
            if all(self.power(a, n // r) != 1 for r in primes):
                return a, self._powers(a, n)
        raise FieldConstructionFailed("no generator found")

    # -- packed digits of extension fields: y * x is the sum of y_i T^i x,
    # one integer sum when each T^i x is packed one digit per field of w
    # bits, wide enough for a sum of k digit products

    @cached_property
    def _packing(self):
        """(mask, shifts): the mask of a field and each digit's shift."""
        w = (self.k * (self.p - 1) ** 2).bit_length()
        return (1 << w) - 1, range(0, self.k * w, w)

    def _columns(self, x):
        """The packed T^i x for i < k, from the digits x of x: each is the
        last times T, its digits shifted up one place and the top one
        reduced by the monic modulus."""
        p, shifts, m = self.p, self._packing[1], self.modulus
        out = []
        for _ in range(self.k):
            out.append(sum(map(lshift, x, shifts)))
            top = x[-1]
            x = [0] + x[:-1]
            if top:
                x = [(c - top * d) % p for c, d in zip(x, m)]
        return out

    def _powers(self, a, n):
        """1, a, ..., a^(n-1); in an extension field each power is the
        last times a on packed digits: the sum of its digits times the
        ``_columns`` of a, one digit per field."""
        p, out, x = self.p, [1], 1
        if self.k == 1:
            for _ in range(n - 1):
                x = x * a % p
                out.append(x)
            return out
        mask, shifts = self._packing
        cols, digits = self._columns(self._digits(a)), self._digits(1)
        weights = [p**i for i in range(self.k)]
        for _ in range(n - 1):
            acc = sum(map(_mul, digits, cols))
            digits = [(acc >> s & mask) % p for s in shifts]
            out.append(sum(map(_mul, digits, weights)))
        return out

    @cached_property
    def zech(self):
        """The Zech logarithms: ``zech[j]`` is the discrete logarithm of
        1 + g^j, or None where 1 + g^j = 0.  Adding 1 raises only the lowest
        base-p digit of an element's integer code, wrapping p - 1 to 0."""
        p, dlog = self.p, self.dlog
        return [dlog.get(x + 1 if x % p != p - 1 else x + 1 - p)
                for x in self.exp]


@lru_cache(maxsize=None)
def field(q) -> GF:
    """GF(q), or :class:`FieldTooLarge` before any table is built when
    q > ``MAX_Q``."""
    if isinstance(q, int) and q > MAX_Q:
        raise FieldTooLarge(f"GF({q}) exceeds the largest supported order "
                            f"{MAX_Q}")
    return GF(q)
