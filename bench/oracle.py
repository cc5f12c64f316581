"""Reference values the benchmark computes on its own, without the library.

Every check the workloads make compares the library's answer with a value
from this module or with a property the method must have.  Nothing here
imports ``pastures``, and nothing is read from its frozen tables, so a
change that corrupts both the library and its reference data still fails.
"""

from __future__ import annotations

import itertools
import random


def prime_power(n):
    """(p, k) with n = p**k and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n and n % p:
        p += 1
    if n % p:
        p = n
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def prime_powers(limit):
    return [q for q in range(2, limit + 1) if prime_power(q)]


def census(q):
    """Hexagon counts of F_q by kind, from the congruence rules."""
    return {
        "ternary": 1 if q % 3 == 0 else 0,
        "hexagonal": 1 if q % 3 == 1 else 0,
        "dyadic": 1 if q % 2 == 1 and q % 3 != 0 else 0,
        "near-regular": (q - 2) // 6,
    }


def descriptor_of_kinds(kinds, f2=0):
    """The tensor factor descriptor of a ternary lift whose hexagons have
    the given kinds: one model pasture per hexagon."""
    model = {"near-regular": "U", "dyadic": "D", "hexagonal": "H",
             "ternary": "F3"}
    out = {"U": 0, "D": 0, "H": 0, "F3": 0, "F2": f2}
    for kind in kinds:
        out[model[kind]] += 1
    return out


def census_kinds(q):
    return [kind for kind, n in census(q).items() for _ in range(n)]


def hom_h_count(q):
    """|Hom(H, F_q)|: a primitive sixth root of unity ζ with ζ + ζ⁻¹ = 1
    exists iff 3 | q - 1 (two of them), and for 3 | q the only image is -1."""
    return {1: 2, 0: 1, 2: 0}[q % 3]


def zagier_triples(max_q):
    """All (q, p1, p2) of prime powers with p1 <= p2, q <= max_q, 3 ∤ q and
    q - 2 = (p1 - 2)(p2 - 2), p1 >= 4."""
    out = []
    for q in prime_powers(max_q):
        if q % 3 == 0:
            continue
        for p1 in prime_powers(q):
            if p1 < 4:
                continue
            m, r = divmod(q - 2, p1 - 2)
            p2 = m + 2
            if r == 0 and p2 >= p1 and prime_power(p2):
                out.append((q, p1, p2))
    return out


# -- rank-3 matrices over a prime field ---------------------------------------


def least_primitive_root(p):
    for g in range(1, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


def det3(cols, p):
    (a, b, c), (d, e, f), (g, h, i) = cols
    return (a * (e * i - f * h) - d * (b * i - c * h)
            + g * (b * f - c * e)) % p


def random_matrix(rng: random.Random, p, n, *, uniform=False):
    """Columns of a random 3 x n matrix of rank 3 over F_p, drawn until the
    rank is full (and, with ``uniform``, until every 3-subset is a basis)."""
    while True:
        cols = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(n)]
        dets = [det3([cols[i - 1] for i in b], p)
                for b in itertools.combinations(range(1, n + 1), 3)]
        if any(dets) and (all(dets) or not uniform):
            return cols


def bases(cols, p):
    n = len(cols)
    return [b for b in itertools.combinations(range(1, n + 1), 3)
            if det3([cols[i - 1] for i in b], p)]


def plucker_exponents(cols, p, basis_list):
    """The Plücker vector of the matrix on the given (sorted) bases, scaled
    so the first basis gets 1, as discrete logs to the least primitive
    root of p."""
    g = least_primitive_root(p)
    dlog, x = {}, 1
    for k in range(p - 1):
        dlog[x] = k
        x = x * g % p
    dets = [det3([cols[i - 1] for i in b], p) for b in basis_list]
    scale = pow(dets[0], p - 2, p)
    return tuple(dlog[d * scale % p] for d in dets)
