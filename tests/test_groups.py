import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ, factorint
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from pastures import groups, morphisms
from pastures.groups import (AbelianGroup, EpsilonOrderError,
                             GroupMap, InfinitePasture,
                             SearchSpaceExceeded, enumerate_homs,
                             evaluate_word, hom_pools, is_surjective,
                             identity_rows, reduce_presentation,
                             smith_normal_form, snf_transforms)
from pastures.lifts import grs_lift, ternary_lift, wlum_lift
from pastures.pasture import finite_field, named, product
from oracles import reference_inv, reference_mul

matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1, max_size=4).map(lambda rows: (rows, n)))


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def full_smith_normal_form(rows, width):
    """``(diag, v, vinv)``: the diagonal with its column operations replayed
    for every coordinate.  The Smith normal form reduces its rows in place,
    so it gets a copy, and ``rows`` can go to the reference after."""
    diag, ops = smith_normal_form([list(r) for r in rows], width)
    v, vinv = snf_transforms(ops, width, range(width))
    return diag, v, [list(r) for r in vinv]


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_snf_matches_sympy_and_transforms(case):
    rows, n = case
    diag, v, vinv = full_smith_normal_form(rows, n)
    assert len(diag) == n
    # divisibility chain, nonnegative entries
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # v and vinv are mutually inverse
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(v, vinv) == ident
    assert mat_mul(vinv, v) == ident
    # transformed rows live in the lattice spanned by the diagonal
    for row in mat_mul(rows, v):
        for j, x in enumerate(row):
            if diag[j]:
                assert x % diag[j] == 0
            else:
                assert x == 0
    # invariant factors agree with sympy
    s = sympy_snf(Matrix(rows), domain=ZZ)
    theirs = sorted(abs(s[i, i]) for i in range(min(s.shape)) if s[i, i])
    assert sorted(nz) == theirs


def reference_smith_normal_form(rows, width):
    """The full-scan Smith normal form: every pivot search scans the whole
    trailing block, every pivot gets the divisibility sweep, and row and
    column operations run over whole rows and columns."""
    a = [list(row) for row in rows]
    m = len(a)
    n = width
    for row in a:
        if len(row) != n:
            raise ValueError("relation row of wrong width")
    v = [list(r) for r in identity_rows(n)]
    vinv = [list(r) for r in identity_rows(n)]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(j, i, k):
        # column j += k * column i
        for r in a:
            r[j] += k * r[i]
        for r in v:
            r[j] += k * r[i]
        vinv[i] = [x - k * y for x, y in zip(vinv[i], vinv[j])]

    def col_neg(i):
        for r in a:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]
        vinv[i] = [-x for x in vinv[i]]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_add(j, i, k):
        a[j] = [x + k * y for x, y in zip(a[j], a[i])]

    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(t, best[2])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            d = a[t][t]
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1
    diag = [a[j][j] if j < m else 0 for j in range(n)]
    for j in range(n):
        if diag[j] < 0:
            col_neg(j)
            diag[j] = -diag[j]
    return diag, v, vinv


def record_snf_inputs(monkeypatch):
    """Patch the SNF so that each call's ``(rows, width)`` is appended to the
    returned list."""
    inputs = []

    def record(rows, width):
        inputs.append(([list(r) for r in rows], width))
        return smith_normal_form(rows, width)

    monkeypatch.setattr(groups, "smith_normal_form", record)
    return inputs


def test_snf_matches_reference_on_grs_presentations(monkeypatch):
    prime_powers = [q for q in range(2, 33) if len(factorint(q)) == 1]
    pastures = [finite_field(q) for q in prime_powers]
    # Zagier products F_p1 x F_p2 with q - 2 = (p1 - 2)(p2 - 2): q = 8, 11
    pastures += [product(finite_field(4), finite_field(5)),
                 product(finite_field(5), finite_field(5))]
    # every (rows, width) that grs_lift passes to the SNF
    inputs = record_snf_inputs(monkeypatch)
    for P in pastures:
        grs_lift(P)
    assert max(len(rows) for rows, _ in inputs) > 100     # q = 31, 32
    for rows, width in inputs:
        assert full_smith_normal_form(rows, width) == \
            reference_smith_normal_form(rows, width)


def test_snf_matches_reference_on_tensor_presentations(monkeypatch):
    """The tensor presentations of the ternary and WLUM lifts of every F_q,
    q <= 128: relation rows 2 e_j (6 e_j for H) before the +-1 glue rows, so
    the row minima the pivot search keeps between pivots are used.  The
    models are built first, so that only the tensors are recorded."""
    for name in ("U", "D", "H", "F3", "F2", "F1pm"):
        named(name)
    inputs = record_snf_inputs(monkeypatch)
    for q in range(2, 129):
        if len(factorint(q)) == 1:
            ternary_lift(finite_field(q))
            wlum_lift(finite_field(q))
    assert len(inputs) == 87
    assert max(width for _, width in inputs) == 63
    for rows, width in inputs:
        assert full_smith_normal_form(rows, width) == \
            reference_smith_normal_form(rows, width)


def test_snf_matches_reference_on_largest_benchmark_lifts(monkeypatch):
    """The largest presentations of the ``presentations`` benchmark: the GRS
    lifts of F53 and of F5 x F19 (a Zagier pair, 53 - 2 = 3 * 17), each
    lifted again.  The lift of F53 gives a 553 x 52 relation matrix whose
    last pivot, 52, is not a unit."""
    inputs = record_snf_inputs(monkeypatch)
    for P in (finite_field(53), product(finite_field(5), finite_field(19))):
        grs_lift(grs_lift(P).lift)
    assert (553, 52) in {(len(rows), width) for rows, width in inputs}
    assert any(full_smith_normal_form(rows, width)[0][-1] == 52
               for rows, width in inputs)
    for rows, width in inputs:
        assert full_smith_normal_form(rows, width) == \
            reference_smith_normal_form(rows, width)


def kept_coordinates(diag):
    """The coordinates ``reduce_presentation`` keeps: torsion, then free."""
    return ([j for j, d in enumerate(diag) if d >= 2]
            + [j for j, d in enumerate(diag) if d == 0])


def test_kept_replay_slices_full_replay(monkeypatch):
    """``reduce_presentation`` replays the column operations for the kept
    coordinates only.  On every SNF input of the GRS lifts and of the
    ternary lifts (tensors of hexagon models) of a few fields, that equals
    the kept columns of v and rows of vinv of the full replay."""
    inputs = record_snf_inputs(monkeypatch)
    for q in (8, 13, 27, 31, 53, 64):
        grs_lift(finite_field(q))
        ternary_lift(finite_field(q))
    grs_lift(product(finite_field(5), finite_field(19)))
    # the lift of F53 keeps 1 of 52 coordinates, that of F64 21 of 31
    assert (553, 52) in {(len(rows), width) for rows, width in inputs}
    for rows, width in inputs:
        diag, ops = smith_normal_form(rows, width)
        keep = kept_coordinates(diag)
        v, vinv = snf_transforms(ops, width, range(width))
        assert snf_transforms(ops, width, keep) == (
            [[r[j] for j in keep] for r in v], [vinv[j] for j in keep])


# Tall and mostly zero, as relation matrices are, with entries of absolute
# value up to 3, so that pivots other than +-1 occur: those make the dirty
# row and column swaps and the divisibility sweep run on sparse input.  At
# most 7 columns: with 8 or more, some draws of this density make the
# transform's entries grow to many thousands of digits (ROADMAP item 6).
sparse_tall_matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0,) * 16 + (1, -1, 2, -2, 3, -3)),
                 min_size=n, max_size=n),
        min_size=n, max_size=24).map(lambda rows: (rows, n)))


@given(sparse_tall_matrices)
@settings(max_examples=300, deadline=None)
def test_snf_matches_reference_on_sparse_tall_matrices(case):
    rows, n = case
    assert full_smith_normal_form(rows, n) == \
        reference_smith_normal_form(rows, n)


# Rows drawn from a pool of at most four, each with either sign, so that
# duplicate rows are common, as they are in GRS presentations: a row equal
# to the pivot row or to its negative is cancelled by one subtraction or
# addition of it.
pooled_rows = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0,) * 8 + (1, -1, 2, -2, 3, -3, 4)),
                 min_size=n, max_size=n),
        min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from((1, -1))).map(
                lambda rs: [rs[1] * x for x in rs[0]]),
            max_size=20).map(lambda rows: (rows, n))))


@given(pooled_rows)
@settings(max_examples=300, deadline=None)
def test_snf_matches_reference_on_pooled_rows(case):
    rows, n = case
    assert full_smith_normal_form(rows, n) == \
        reference_smith_normal_form(rows, n)


small_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        max_size=6).map(lambda rows: (rows, n)))


@given(small_matrices)
@settings(max_examples=300, deadline=None)
def test_snf_matches_reference_on_random_matrices(case):
    rows, n = case
    assert full_smith_normal_form(rows, n) == \
        reference_smith_normal_form(rows, n)


@given(small_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_replay_of_any_coordinates_slices_full_replay(case, data):
    rows, n = case
    diag, ops = smith_normal_form(rows, n)
    keep = data.draw(st.permutations(range(n)).flatmap(
        lambda p: st.integers(0, n).map(lambda k: p[:k])))
    v, vinv = snf_transforms(ops, n, range(n))
    assert snf_transforms(ops, n, keep) == (
        [[r[j] for j in keep] for r in v], [vinv[j] for j in keep])


def test_identity_rows_match_indicator_expression():
    for n in range(13):
        assert identity_rows(n) == \
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_snf_known_values():
    assert smith_normal_form([[4, 6]], 2)[0] == [2, 0]
    assert smith_normal_form([[2, 0], [1, 3]], 2)[0] == [1, 6]
    assert smith_normal_form([], 3)[0] == [0, 0, 0]
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2, 3]], 2)
    # rows are reduced in place, so a tuple row is refused before any step
    rows = [[2, 4], (1, 3)]
    with pytest.raises(ValueError):
        smith_normal_form(rows, 2)
    assert rows == [[2, 4], (1, 3)]


@pytest.mark.parametrize("rows", [
    # a column step with quotient 2 // 3 = 0, after the divisibility sweep
    [[2, 2], [2, 3]],
    # a zero row at the pivot position, which the pivot swap moves down
    [[0, 0, 0], [0, 2, 0], [1, 0, 3]],
    # the column pass of pivot 3 swaps twice, and between the swaps turns
    # the 7 of row 1 into 1; the second swap leaves that row zero in the
    # pivot column, so no row pass touches it, and its row minimum kept from
    # the last scan, 3, must still be dropped
    [[3, 5, 4, 3], [0, 3, 7, 3]],
    # under pivot 2, row 1 is cancelled by subtracting the pivot row and
    # row 2 by adding it
    [[2, 4, 6], [2, 6, 2], [-2, 4, 8]],
    # under pivot 2, rows with 4 and -4 in the pivot column: quotient +-2,
    # remainder 0
    [[2, 2, 4], [4, 6, 10], [-4, 2, 2]],
    # under pivot 2, -3 leaves remainder 1, so row 1 becomes the pivot row
    # and row 2 is reduced by the new pivot 1
    [[2, 4, 0], [-3, 5, 2], [7, 4, 4]],
    # rows 1 and 2 become the shared zero row in the first pivot search; the
    # divisibility sweep of pivot 2 passes them and stops at row 3
    [[2, 0, 0], [0, 0, 0], [0, 0, 0], [0, 3, 5]],
    # under pivot 1 and then pivot -1, entries 3 and -2 in the pivot column:
    # the quotient is the entry times the pivot, with no division
    [[1, 2, 3], [3, 1, 0], [-2, 5, 1]],
    [[-1, 2], [3, 4], [-2, 7]],
    # the last column's pivot, 4, then 2 after the remainder of 6: every row
    # below is zero, so no divisibility sweep runs
    [[2, 0], [0, 4], [0, 6]],
], ids=["quotient-0", "zero-row-at-pivot", "column-pass-changes-a-row",
        "cancel-plus-and-minus-d", "quotient-2-remainder-0",
        "remainder-becomes-pivot", "zero-rows-before-sweep",
        "unit-pivot-quotient", "minus-one-pivot-quotient",
        "last-column-pivot"])
def test_snf_regression_cases(rows):
    width = len(rows[0])
    assert full_smith_normal_form(rows, width) == \
        reference_smith_normal_form(rows, width)


def seeded_matrix(m, n, seed):
    """The m x n matrix of ``random.Random(seed).randint(-3, 3)``, row by
    row (ROADMAP item 6)."""
    rng = random.Random(seed)
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]


def test_snf_meter_refuses_coefficient_growth():
    """The 10 x 8 matrix of seed 1, whose entries grow without bound, is
    refused at its first multiplier past ``MAX_SNF_BITS``, in pivot 5's
    column pass; the 12 x 9 matrix of seed 2, whose multipliers reach 7205
    bits, answers as the reference does."""
    assert groups.MAX_SNF_BITS == 10**4
    with pytest.raises(SearchSpaceExceeded, match=(
            "^Smith normal form multiplier of 17076 bits passed its cap of "
            "10000 bits$")):
        smith_normal_form(seeded_matrix(10, 8, 1), 8)
    rows = seeded_matrix(12, 9, 2)
    diag, ops = smith_normal_form([list(r) for r in rows], 9)
    assert max(abs(op[2]).bit_length() for op in ops if len(op) == 3) == 7205
    assert full_smith_normal_form(rows, 9) == \
        reference_smith_normal_form(rows, 9)


@pytest.mark.parametrize("rows, refused", [
    ([[2, 32]], True),              # column pass: 32 // 2 = 16, 5 bits
    ([[2, 0], [34, 3]], True),      # row pass: 34 = 17 * 2, 5 bits
    ([[1, 0], [34, 3]], False),     # row pass under pivot 1: not metered
    ([[2, 14]], False),             # column pass: 7, 3 bits
], ids=["column-pass", "row-pass", "unit-pivot", "within-cap"])
def test_snf_meter_checks_where_it_multiplies(rows, refused, monkeypatch):
    """With a cap of 3 bits, a multiplier of 5 bits is refused in the
    column pass and in the row pass under a pivot other than +-1; under a
    unit pivot the entry itself is the multiplier, and is not metered."""
    monkeypatch.setattr(groups, "MAX_SNF_BITS", 3)
    if refused:
        with pytest.raises(SearchSpaceExceeded, match=(
                "^Smith normal form multiplier of 5 bits passed its cap of "
                "3 bits$")):
            smith_normal_form(rows, 2)
    else:
        width = len(rows[0])
        assert full_smith_normal_form(rows, width) == \
            reference_smith_normal_form(rows, width)


def test_reduce_presentation_c4():
    r = reduce_presentation(2, [[0, 2], [2, 1]], [0, 1])
    assert r.group.torsion == (4,)
    assert r.group.free_rank == 0
    # projection respects the relations
    assert r.project([0, 2]) == r.group.identity()
    assert r.project([2, 1]) == r.group.identity()
    # sections invert the projection on canonical generators
    for i, w in enumerate(r.sections):
        img = r.project(w)
        want = tuple(1 if j == i else 0 for j in range(r.group.ngens))
        assert img == want


def test_epsilon_order_guard():
    # Z/3 with epsilon a generator: order 3 > 2
    with pytest.raises(EpsilonOrderError):
        reduce_presentation(1, [[3]], [1])
    # order 2 is fine
    r = reduce_presentation(1, [[2]], [1])
    assert r.group.epsilon == (1,)
    # and so is the identity
    r = reduce_presentation(1, [[2]], [0])
    assert r.group.epsilon == (0,)


def test_group_arithmetic():
    g = AbelianGroup((2, 6), 1, (1, 0, 0))
    assert g.size() is None
    assert g.mul((1, 5, 2), (1, 3, -2)) == (0, 2, 0)
    assert g.inv((1, 5, 3)) == (1, 1, -3)
    assert g.power((1, 2, -1), 3) == (1, 0, -3)
    h = AbelianGroup((2, 6), 0, (0, 0))
    assert h.size() == 12
    assert len(h.torsion_elements()) == 12
    assert len(set(h.torsion_elements())) == 12


def reference_reduce(g, vec):
    """The coordinate loop ``AbelianGroup.reduce`` ran before it reduced the
    torsion coordinates by ``zip`` and copied the others by slice."""
    out = []
    for i, c in enumerate(vec):
        if i < len(g.torsion):
            out.append(c % g.torsion[i])
        else:
            out.append(c)
    return tuple(out)


groups_and_vectors = st.tuples(
    st.lists(st.integers(2, 12), max_size=3), st.integers(0, 3)).flatmap(
    lambda tf: st.tuples(
        st.just(AbelianGroup(tuple(tf[0]), tf[1], (0,) * (len(tf[0]) + tf[1]))),
        *[st.lists(st.integers(-40, 40), max_size=len(tf[0]) + tf[1] + 2)
          .map(tuple)] * 2))


@given(groups_and_vectors)
@settings(max_examples=300, deadline=None)
def test_reduce_mul_inv_match_coordinate_loop(case):
    """Vectors of any length, shorter or longer than ``ngens``, as lists or
    tuples: the same tuples as the loop, whose mul and inv reduced
    coordinatewise sums and negations."""
    g, a, b = case
    assert g.reduce(a) == g.reduce(list(a)) == reference_reduce(g, a)
    assert g.mul(a, b) == reference_reduce(g, [x + y for x, y in zip(a, b)])
    assert g.inv(a) == reference_reduce(g, [-x for x in a])


# torsion factors need not divide each other for the arithmetic; "mixed"
# reaches the width of the widest lift in the benchmark, C6 x Z^41
GROUP_KINDS = {
    "torsion": st.tuples(st.lists(st.integers(2, 12), min_size=2, max_size=3),
                         st.just(0)),
    "cyclic": st.tuples(st.lists(st.integers(2, 12), min_size=1, max_size=1),
                        st.just(0)),
    "free": st.tuples(st.just([]), st.integers(1, 4)),
    "mixed": st.tuples(st.lists(st.integers(2, 12), min_size=1, max_size=3),
                       st.integers(1, 43)),
}


def _with_vectors(tf):
    torsion, free = tf
    g = AbelianGroup(tuple(torsion), free, (0,) * (len(torsion) + free))
    vec = st.lists(st.integers(-40, 40), max_size=g.ngens + 2).map(tuple)
    return st.tuples(st.just(g), vec, vec)


@given(st.one_of(*GROUP_KINDS.values()).flatmap(_with_vectors))
@example((AbelianGroup((6,), 2, (3, 0, 0)), (5, -1, 2, 7), (4, 3, -2, 1)))
@example((AbelianGroup((2, 4), 0, (1, 0)), (3, 5, -1), (1, 7, 2)))
@settings(max_examples=400, deadline=None)
def test_mul_inv_match_one_pass_reference(case):
    """``mul`` and ``inv``, which reduce the torsion coordinates and append
    the rest, against adding or negating all coordinates in one pass, on
    torsion-only, cyclic, free-only and mixed groups, with vectors shorter
    than, as long as and past ``ngens``."""
    g, a, b = case
    assert g.mul(a, b) == reference_mul(g, a, b)
    assert g.inv(a) == reference_inv(g, a)
    assert g.mul(b, a) == reference_mul(g, b, a)
    assert g.inv(b) == reference_inv(g, b)


def reference_key(g, a):
    """The loop ``AbelianGroup.key`` runs on vectors with coordinates past
    the torsion ones, kept for every vector."""
    out = list(a[: len(g.torsion)])
    for c in a[len(g.torsion):]:
        out.append(abs(c))
        out.append(0 if c >= 0 else 1)
    return tuple(out)


@given(groups_and_vectors)
@example((AbelianGroup((), 2, (0, 0)), (1,), (1, 0)))
@example((AbelianGroup((), 2, (0, 0)), (-1,), (1, 5)))
@example((AbelianGroup((2,), 1, (1, 0)), (1,), (1, -1)))
@settings(max_examples=300, deadline=None)
def test_key_matches_coordinate_loop(case):
    """``key`` folds each free coordinate into one int; it orders a pair of
    vectors of one group as the (absolute value, sign) pairs of the loop
    do.  Torsion-only, mixed and free groups, vectors up to two coordinates
    past ``ngens`` and of different lengths."""
    g, a, b = case
    assert g.key(a) == g.key(list(a))
    ka, kb = g.key(a), g.key(b)
    ra, rb = reference_key(g, a), reference_key(g, b)
    assert (ka < kb, ka == kb, kb < ka) == (ra < rb, ra == rb, rb < ra)


def test_key_orders_free_coords_positive_first():
    g = AbelianGroup((), 1, ())
    assert sorted([(2,), (-1,), (0,), (1,), (-2,)], key=g.key) == \
        [(0,), (1,), (-1,), (2,), (-2,)]


def test_quotient_by():
    """The quotient of a canonical group by a row: its relation rows, then
    the row, reduced as one presentation."""
    g = AbelianGroup((), 2, (0, 0))
    r = reduce_presentation(g.ngens, g.relation_rows() + [[0, 2]],
                            list(g.epsilon))
    assert r.group.torsion == (2,)
    assert r.group.free_rank == 1
    assert r.project((0, 2)) == r.group.identity()


def test_evaluate_word_and_presentation_map():
    target = AbelianGroup((4,), 0, (2,))
    assert evaluate_word(target, [(1,), (2,)], [2, 1]) == (0,)
    # the induced map is a homomorphism wherever the relations vanish
    assert evaluate_word(target, [(1,), (2,)], [0, 2]) == (0,)
    # the lifts map a presentation's canonical generators to the images of
    # their section words under the map of the presentation generators,
    # which evaluates each word as ``evaluate_word`` does
    r = reduce_presentation(2, [[0, 2], [2, 1]], [0, 1])
    images = [(1,), (2,)]
    assert tuple(map(GroupMap(target, images), r.sections)) == tuple(
        evaluate_word(target, images, w) for w in r.sections)
    z = AbelianGroup((2,), 1, (1, 0))
    for images in ([(1, 3), (0, -2)], [(0, 0), (1, 5)]):
        for w in ([3, -1], [0, 4], [-2, -7]):
            assert GroupMap(z, images)(w) == evaluate_word(z, images, w)


def reference_groupmap_call(m, vec):
    """``GroupMap.__call__`` as an indexed loop over each row, kept as its
    oracle."""
    acc = [0] * m.target.ngens
    for c, row in zip(vec, m.rows):
        if c:
            for i, r in enumerate(row):
                acc[i] += c * r
    return m.target.reduce(acc)


@st.composite
def maps_and_vectors(draw):
    """A map from Z^n into a group with up to three invariant factors and
    free rank up to three, and a vector of Z^n, coefficients 1 often; or,
    as lambda of a lift is, from up to 40 coordinates into Z/N."""
    if draw(st.booleans()):
        g = AbelianGroup((draw(st.integers(2, 130)),), 0, ())
        n = draw(st.integers(0, 40))
    else:
        g = AbelianGroup(tuple(draw(st.lists(st.integers(2, 12), max_size=3))),
                         draw(st.integers(0, 3)), ())
        n = draw(st.integers(0, 5))
    coord = st.integers(-20, 20)
    rows = draw(st.lists(st.lists(coord, min_size=g.ngens, max_size=g.ngens)
                         .map(tuple), min_size=n, max_size=n))
    vec = draw(st.lists(st.one_of(st.just(1), coord), min_size=n, max_size=n))
    return GroupMap(g, tuple(rows)), vec


@given(maps_and_vectors())
@settings(max_examples=300, deadline=None)
def test_groupmap_call_matches_coordinate_loop(case):
    m, vec = case
    assert m(vec) == m(tuple(vec)) == reference_groupmap_call(m, vec)


def dense_groupmap_call(m, vec):
    """The image of ``vec`` summed over every coefficient, zeros included,
    with each torsion coordinate reduced by hand."""
    g = m.target
    acc = [0] * g.ngens
    for c, row in zip(vec, m.rows):
        for i, r in enumerate(row):
            acc[i] += c * r
    return tuple(x % g.torsion[i] if i < len(g.torsion) else x
                 for i, x in enumerate(acc))


@st.composite
def sparse_maps_and_vectors(draw):
    """A map with zero rows among its rows, and a vector of mostly zero
    coefficients, the others often negative or past the invariant factors,
    as the units of a lift are: ``GroupMap.__call__`` visits only the
    nonzero ones."""
    g = AbelianGroup(
        tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))),
        draw(st.integers(0, 2)), ())
    n = draw(st.integers(0, 12))
    coord = st.integers(-30, 30)
    row = st.one_of(st.just((0,) * g.ngens),
                    st.lists(coord, min_size=g.ngens, max_size=g.ngens)
                    .map(tuple))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    vec = draw(st.lists(st.sampled_from((0,) * 6 + (1, -1, 2, -3, 13, -25)),
                        min_size=n, max_size=n))
    return GroupMap(g, tuple(rows)), vec


@given(sparse_maps_and_vectors())
@settings(max_examples=300, deadline=None)
def test_groupmap_call_matches_dense_loop(case):
    m, vec = case
    assert m(vec) == m(tuple(vec)) == dense_groupmap_call(m, vec)


def test_groupmap_compose():
    a = AbelianGroup((), 1, ())
    b = AbelianGroup((6,), 0, (3,))
    f = GroupMap(b, ((2,),))
    g = GroupMap(b, ((1,),))
    assert f((3,)) == (0,)
    assert f.then(GroupMap(b, tuple((x,) for x in range(6))))  # smoke
    assert g((7,)) == (1,)


def test_is_surjective():
    c6 = AbelianGroup((6,), 0, (3,))
    assert is_surjective(GroupMap(c6, ((1,),)))
    assert not is_surjective(GroupMap(c6, ((2,),)))


def test_enumerate_homs_counts():
    c2 = AbelianGroup((2,), 0, (1,))
    c4 = AbelianGroup((4,), 0, (2,))
    c6 = AbelianGroup((6,), 0, (3,))
    # eps-preserving maps C2 -> C4: generator must hit the order-2 element
    assert enumerate_homs(c2, c4) == [((2,),)]
    # C6 -> C6 eps-preserving: image of generator has order 6 or order 3*...
    homs = enumerate_homs(c6, c6)
    assert ((1,),) in homs and ((5,),) in homs
    for (img,) in homs:
        assert (3 * img[0]) % 6 == 3  # eps lands on eps


def test_enumerate_homs_infinite_target():
    z = AbelianGroup((), 1, ())
    c2 = AbelianGroup((2,), 0, (1,))
    with pytest.raises(InfinitePasture):
        enumerate_homs(z, AbelianGroup((2,), 1, (1, 0)))
    # all-torsion source into an infinite target is fine
    homs = enumerate_homs(c2, AbelianGroup((2,), 1, (1, 0)))
    assert homs == [((1, 0),)]


def test_hom_pools_refuse_before_building(monkeypatch):
    """A hom search charges the target's torsion units to its cap before
    any pool is built: U -> F128 at a cap of 126 steps is refused without
    calling ``hom_pools``.  A free generator's pool is None, which only
    ``enumerate_homs`` expands, so no torsion element is listed."""
    def listed(*args):
        raise AssertionError("pools built")

    P = finite_field(128)
    monkeypatch.setattr(morphisms, "hom_pools", listed)
    with pytest.raises(SearchSpaceExceeded,
                       match="^hom search passed its cap of 126 steps$"):
        morphisms.hom_set(named("U"), P, cap=126)
    monkeypatch.setattr(AbelianGroup, "torsion_elements", listed)
    u = named("U").units
    assert (u.torsion, u.free_rank, u.sign_generator) == ((2,), 2, 0)
    assert hom_pools(u, AbelianGroup((6,), 0, (3,))) == [[(3,)], None, None]


@pytest.mark.parametrize("source, target", [
    (AbelianGroup((2, 4), 1, (1, 0, 0)), AbelianGroup((2, 6), 0, (0, 3))),
    (AbelianGroup((6,), 2, (3, 0, 0)), AbelianGroup((4,), 1, (2, 0))),
    (AbelianGroup((3, 9), 0, (0, 0)), AbelianGroup((3, 3, 9), 0, (0, 0, 0))),
    (AbelianGroup((), 3, ()), AbelianGroup((5,), 0, (0,)))])
def test_hom_pools_cap_is_the_product_of_the_built_pools(source, target):
    """``enumerate_homs`` tries every candidate of the pools of
    ``hom_pools``, every torsion element for None, so the product of the
    pool lengths is its cap: that product passes and one less is refused.
    A free source generator meets an infinite target before the cap."""
    pools = [target.torsion_elements() if pool is None else pool
             for pool in hom_pools(source, target)]
    total = math.prod(map(len, pools))
    if source.free_rank and not target.is_finite:
        with pytest.raises(InfinitePasture):
            enumerate_homs(source, target, cap=total)
        return
    homs = enumerate_homs(source, target, cap=total)
    assert homs and all(map(list.__contains__, pools, images)
                        for images in homs)
    with pytest.raises(SearchSpaceExceeded,
                       match=f"^{total} candidate homomorphisms exceed the "
                             f"cap of {total - 1}$"):
        enumerate_homs(source, target, cap=total - 1)


@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_snf_reduces_rows_in_place(case):
    """The rows given are reduced in place, with the ``(diag, ops)`` of the
    reference on a copy: the list holding them keeps its length and its
    rows, and each row is left with at most one nonzero entry (a pivot, or
    a pivot row that the divisibility sweep replaced), so none keeps a
    second nonzero entry of the input."""
    rows, n = case
    want = reference_smith_normal_form(rows, n)
    held = list(rows)
    diag, ops = smith_normal_form(rows, n)
    v, vinv = snf_transforms(ops, n, range(n))
    assert (diag, v, [list(r) for r in vinv]) == want
    assert len(rows) == len(held)
    assert all(r is h for r, h in zip(rows, held))
    assert all(sum(map(bool, r)) <= 1 for r in rows)
