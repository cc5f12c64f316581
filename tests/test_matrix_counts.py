"""Representation counts from matrices: an oracle that shares no code with
the search.

Over a field weak and strong representations agree (Baker and Bowler,
"Matroids over partial hyperstructures"), so the representation classes of
a rank-r matroid M on 1..n over F_p are its matrices up to row operations
and column scalings.  Every class of an M with basis 1..r has members
[I | A], and the torus (F_p^*)^n acts on these by scaling the rows of A by
the inverse of the first r scalars and its columns by the rest; the
stabiliser is one scalar per component of M, so each class holds exactly
(p - 1)^(n - c) of the matrices A (Oxley, *Matroid Theory*, ch. 6).

The test enumerates every A in F_p^(r x (n - r)), reads the labelled
matroid of [I | A] off plain-integer determinants mod p, and its components
off the nonzero pattern of A: the fundamental graph of the basis 1..r has
an edge (i, r + j) exactly when A[i][j] != 0, and its components are those
of M.  It compares the count with ``representation_classes`` for every
matroid it meets.  Nothing here reaches ``_constraints``, ``_foundation``
or ``hom_set`` except through that one call.
"""

import itertools
import math

import pytest

from pastures.matroids import Matroid, representation_classes
from pastures.pasture import finite_field


def _det(rows, p):
    """The determinant mod p of a square matrix of ints, by elimination."""
    rows = [list(r) for r in rows]
    det = 1
    for j in range(len(rows)):
        piv = next((i for i in range(j, len(rows)) if rows[i][j] % p), None)
        if piv is None:
            return 0
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            det = -det
        det = det * rows[j][j] % p
        inv = pow(rows[j][j], -1, p)
        for i in range(j + 1, len(rows)):
            f = rows[i][j] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[j])]
    return det % p


def _components(r, m, entries):
    """The number of components of the bipartite graph on r rows and m
    columns with an edge for each nonzero entry of the r x m matrix given
    row by row in ``entries``."""
    parent = list(range(r + m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.product(range(r), range(m)):
        if entries[i * m + j]:
            parent[find(i)] = find(r + j)
    return len({find(x) for x in range(r + m)})


def matrix_counts(r, n, p):
    """{bases: (count, components)} over every A in F_p^(r x (n - r)): the
    bases of the matroid of [I | A], as a tuple of r-subsets of 1..n, the
    number of matrices A that give it, and its number of components."""
    m = n - r
    subsets = list(itertools.combinations(range(n), r))
    out = {}
    for entries in itertools.product(range(p), repeat=r * m):
        cols = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        cols += [tuple(entries[i * m + j] for i in range(r))
                 for j in range(m)]
        bases = tuple(tuple(e + 1 for e in s) for s in subsets
                      if _det(zip(*[cols[e] for e in s]), p))
        if bases in out:
            out[bases][0] += 1
        else:
            out[bases] = [1, _components(r, m, entries)]
    return out


def assert_counts_match(r, n, p):
    P = finite_field(p)
    counts = matrix_counts(r, n, p)
    for bases, (count, c) in counts.items():
        orbit = (p - 1) ** (n - c)
        assert count % orbit == 0, bases
        M = Matroid.from_bases(n, r, bases)
        assert len(representation_classes(M, P, cap=10**40)) \
            == count // orbit, bases
    return counts


@pytest.mark.parametrize("r, n, p", [(2, 5, 5), (2, 5, 7), (3, 6, 3)],
                         ids=["r2n5/F5", "r2n5/F7", "r3n6/F3"])
def test_class_counts_match_matrix_counts(r, n, p):
    counts = assert_counts_match(r, n, p)
    # every matrix is counted once, under the matroid it gives
    assert sum(c for c, _ in counts.values()) == p ** (r * (n - r))
    # the uniform matroid is among them: (p - 2)...(p - n + 2) classes at r=2
    if r == 2:
        uniform = tuple(itertools.combinations(range(1, n + 1), 2))
        count, c = counts[uniform]
        assert count // (p - 1) ** (n - c) == math.prod(
            p - k for k in range(2, n - 1))


@pytest.mark.slow
def test_class_counts_match_matrix_counts_r2_n6_over_f5():
    assert_counts_match(2, 6, 5)
