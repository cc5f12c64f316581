"""Finitely generated abelian groups in Smith normal form coordinates.

Everything downstream stores unit groups of pastures as instances of
:class:`AbelianGroup`: a tuple of invariant factors (each dividing the next),
a free rank, and a distinguished element ``epsilon`` of order at most two that
plays the role of -1.  Elements are coordinate tuples, torsion coordinates
first (reduced into ``range(d)``), free coordinates after.  All arithmetic is
exact over Python integers.

Groups presented by arbitrary integer relation rows are brought into this
canonical shape by :func:`reduce_presentation`, which also returns the
projection onto canonical coordinates and a section expressing each canonical
generator as a word in the presentation generators.
"""

from __future__ import annotations

import itertools
import math
from operator import add as _add, mod as _mod, neg as _neg

from .record import InternalError, Record, set_field as _set


class EpsilonOrderError(InternalError, ValueError):
    """The designated sign element does not square to the identity."""


class InfinitePasture(ValueError):
    """An operation that needs finitely many units met infinitely many."""


class SearchSpaceExceeded(RuntimeError):
    """A computation passed its work budget: hom search steps, candidate
    homomorphisms, product orbits, GRS lift cells, Smith normal form
    multiplier bits or a field's order."""


DEFAULT_CAP = 10**6     # the default cap of every search, --max-candidates too
MAX_SNF_BITS = 10**4    # smith_normal_form's cap on a multiplier's bit length


def identity_rows(n):
    """Rows of the n x n identity matrix: the unit vectors of Z^n, which are
    also the canonical generators of any group with n coordinates."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _grown(q):
    return SearchSpaceExceeded(
        f"Smith normal form multiplier of {q.bit_length()} bits passed its "
        f"cap of {MAX_SNF_BITS} bits")


def smith_normal_form(rows, width):
    """Diagonalize an integer relation matrix, logging its column operations.

    Returns ``(diag, ops)`` where ``diag`` has length ``width`` and lists
    the diagonal of the Smith normal form (entries nonnegative, each dividing
    the next, padded with zeros past the rank), and ``ops`` lists the column
    operations in the order they ran: ``(i, j)`` swaps columns i and j,
    ``(i, j, k)`` adds k times column i to column j, and ``(j,)`` negates
    column j.  Applied to the identity they give a unimodular ``v`` such
    that after the change of coordinates ``y = x*v`` the row lattice of the
    input equals the row lattice of the diagonal matrix;
    :func:`snf_transforms` replays them into chosen columns of ``v`` and
    rows of its inverse.

    The pivots and the row and column operations are those of the full-scan
    elimination, but no step does work whose outcome is known: the pivot
    search (first minimum in row-major order) stops at an entry of absolute
    value 1 and re-scans only the rows changed since their last scan, a
    row found zero becoming one shared zero row that later scans and the
    divisibility sweep skip; a row reduction updates the pivot row's support
    off the pivot column, writes the remainder into that column, and adds
    or subtracts the pivot row without a multiply when the entry is +-pivot;
    a column reduction updates only rows nonzero in the pivot column (after
    a swap-free row pass, the pivot row alone); a column swap is logged and
    swaps two entries of a column map, not two entries of every row; under
    a pivot of +-1 a row's multiplier is its entry times the pivot, with no
    division; the divisibility sweep is skipped for a pivot of +-1 and for
    the last column's, below which every row is zero.

    A multiplier found by division, in a row pass under a pivot other than
    +-1 or in a column pass, of more than ``MAX_SNF_BITS`` bits raises
    :class:`SearchSpaceExceeded`: the entries of some inputs grow without
    bound, and those of the library's own presentations stay far below.

    The rows, lists of ``width`` entries (checked), are reduced in place, so
    a caller passes rows it does not read after; the list holding them is
    copied, so its length stays as it was.

    >>> smith_normal_form([[4, 6]], 2)
    ([2, 0], [(0, 1, -1), (0, 1), (0, 1, -2)])
    >>> smith_normal_form([[2, 0], [1, 3]], 2)[0]
    [1, 6]
    """
    n = width
    a = list(rows)
    for row in a:
        if row.__class__ is not list or len(row) != n:
            raise ValueError("relation row is not a list of the full width")
    m = len(a)
    zero = [0] * n
    ops = []
    # col[c]: the entry of every row that holds column c, so that a column
    # swap swaps two entries of col, not two entries of every row
    col = list(range(n))

    # low[i]: the least nonzero |entry| of row i at its last scan, 0 once a
    # row or column pass changed it; rows from t on are zero in columns 0 ..
    # t - 1, so a scan of a whole row reads columns t on only, and column
    # swaps, which permute only those, leave it right
    low = [0] * m
    t = 0
    while t < m and t < n:
        best = 0
        for i in range(t, m):
            r = a[i]
            if r is zero:
                continue
            lo = low[i]
            if not lo:
                for x in filter(None, r):
                    if not lo or abs(x) < lo:
                        lo = abs(x)
                        if lo == 1:
                            break
                if not lo:
                    a[i] = zero
                    continue
                low[i] = lo
            if not best or lo < best:
                best, b = lo, i
                if lo == 1:
                    break
        if not best:
            break
        a[t], a[b] = a[b], a[t]
        low[b] = low[t]
        p = a[t]
        for c in range(t, n):
            if p[col[c]] == best or p[col[c]] == -best:
                break
        if c != t:
            col[t], col[c] = col[c], col[t]
            ops.append((t, c))
        while True:
            dirty = False
            p, pt = a[t], col[t]
            d = p[pt]
            support = list(itertools.compress(range(n), p))
            support.remove(pt)
            for i in range(t + 1, m):
                r = a[i]
                if r[pt]:
                    x = r[pt]
                    low[i] = r[pt] = 0
                    if x == d:
                        for j in support:
                            r[j] -= p[j]
                    elif x == -d:
                        for j in support:
                            r[j] += p[j]
                    else:
                        if d == 1 or d == -1:
                            q, x = x * d, 0
                        else:
                            q, x = divmod(x, d)
                            if q.bit_length() > MAX_SNF_BITS:
                                raise _grown(q)
                        for j in support:
                            r[j] -= q * p[j]
                        if x:
                            r[pt] = x
                            a[t], a[i] = r, p
                            p, d = r, x
                            support = list(itertools.compress(range(n), p))
                            support.remove(pt)
                            dirty = True
            hits = [r for r in a if r[pt]] if dirty else [p]
            for j in range(t + 1, n):
                cj = col[j]
                if p[cj]:
                    q = p[cj] // p[pt]
                    if q:
                        if q.bit_length() > MAX_SNF_BITS:
                            raise _grown(q)
                        for r in hits:
                            r[cj] -= q * r[pt]
                        ops.append((t, j, -q))
                    if p[cj]:
                        for i in range(t + 1, m):
                            if a[i][pt]:
                                low[i] = 0
                        col[t], col[j] = cj, pt
                        ops.append((t, j))
                        pt = cj
                        hits = [r for r in a if r[pt]]
                        dirty = True
            if dirty:
                continue
            # past the last column every row below is zero
            bad = None if abs(d) == 1 or t == n - 1 else next(
                (i for i in range(t + 1, m) if a[i] is not zero
                 and any(x % d for x in filter(None, a[i]))), None)
            if bad is None:
                break
            a[t] = list(map(_add, p, a[bad]))
        t += 1
    diag = [a[j][col[j]] if j < m else 0 for j in range(n)]
    for j in range(n):
        if diag[j] < 0:
            diag[j] = -diag[j]
            ops.append((j,))
    return diag, ops


def snf_transforms(ops, width, keep):
    """Columns ``keep`` of ``v`` and rows ``keep`` of ``vinv``, for the
    column operations ``ops`` of :func:`smith_normal_form` on ``width``
    columns: ``v`` is their product E_1 .. E_k, and ``vinv`` its inverse.

    Column j of v is E_1 .. E_k e_j and row j of vinv is e_j E_k^-1 ..
    E_1^-1, so each is a unit vector with the operations applied last to
    first, and a coordinate not kept costs nothing.  Returns the ``width``
    rows of v restricted to the kept columns, as lists, and the kept rows of
    vinv, as tuples; ``keep = range(width)`` gives all of v and vinv.

    >>> snf_transforms(smith_normal_form([[4, 6]], 2)[1], 2, range(2))
    ([[-1, 3], [1, -2]], [(2, 3), (1, 1)])
    """
    x = [[0] * len(keep) for _ in range(width)]   # x[i][s] = v[i][keep[s]]
    y = [[0] * len(keep) for _ in range(width)]   # y[c][s] = vinv[keep[s]][c]
    for s, j in enumerate(keep):
        x[j][s] = y[j][s] = 1
    for op in reversed(ops):
        if len(op) == 3:
            # E = 1 + k e_i e_j^T: x_i += k x_j, and y_j -= k y_i
            i, j, k = op
            if any(x[j]):
                x[i] = [c + k * d for c, d in zip(x[i], x[j])]
            if any(y[i]):
                y[j] = [c - k * d for c, d in zip(y[j], y[i])]
        elif len(op) == 2:
            i, j = op
            x[i], x[j] = x[j], x[i]
            y[i], y[j] = y[j], y[i]
        else:
            j, = op
            x[j] = [-c for c in x[j]]
            y[j] = [-c for c in y[j]]
    return x, list(zip(*y))


class AbelianGroup(Record):
    """A finitely generated abelian group in canonical coordinates.

    ``torsion`` holds the invariant factors (all >= 2, each dividing the
    next); ``free_rank`` counts free coordinates appended after the torsion
    ones; ``epsilon`` is the canonical coordinate tuple of the distinguished
    sign element.  ``cyclic`` is N for Z/N (one torsion factor, no free
    rank), else 0: there ``mul`` and ``inv`` add or negate one exponent.
    """

    _fields = ("torsion", "free_rank", "epsilon")
    __slots__ = _fields + ("cyclic",)

    def __init__(self, torsion, free_rank, epsilon):
        _set(self, "torsion", torsion)
        _set(self, "free_rank", free_rank)
        _set(self, "epsilon", epsilon)
        _set(self, "cyclic",
             torsion[0] if len(torsion) == 1 and not free_rank else 0)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.torsion, self.free_rank, self.epsilon)
                    == (other.torsion, other.free_rank, other.epsilon))
        return NotImplemented

    def __hash__(self):
        return hash((self.torsion, self.free_rank, self.epsilon))

    @property
    def ngens(self) -> int:
        return len(self.torsion) + self.free_rank

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def sign_generator(self):
        """The index of the canonical generator that ``epsilon`` is, when
        epsilon is a generator of order 2, else None.  A homomorphism that
        sends epsilon to epsilon has its image there fixed.

        >>> AbelianGroup((2,), 2, (1, 0, 0)).sign_generator
        0
        >>> AbelianGroup((6,), 0, (3,)).sign_generator is None
        True
        """
        eps = self.epsilon
        for i, d in enumerate(self.torsion):
            if d == 2 and eps[i] == 1 and eps.count(0) == len(eps) - 1:
                return i
        return None

    def size(self):
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        return math.prod(self.torsion)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def reduce(self, vec) -> tuple[int, ...]:
        """Torsion coordinates modulo their factors; the rest (free ones, and
        any past ``ngens``) copied."""
        t = self.torsion
        out = tuple(map(_mod, vec, t))
        return out + tuple(vec[len(t):]) if len(vec) > len(t) else out

    def mul(self, a, b) -> tuple[int, ...]:
        """The product: coordinates added, torsion ones reduced as in
        ``reduce``, and the free ones (and any past ``ngens``) appended when
        both sides have them; in Z/N, one exponent sum mod N."""
        if self.cyclic and len(a) == 1 == len(b):
            return ((a[0] + b[0]) % self.cyclic,)
        t = self.torsion
        out = tuple(map(_mod, map(_add, a, b), t))
        n = len(t)
        return out + tuple(map(_add, a[n:], b[n:])) if len(a) > n else out

    def inv(self, a) -> tuple[int, ...]:
        """The inverse: coordinates negated, torsion ones reduced as in
        ``mul``."""
        if self.cyclic and len(a) == 1:
            return (-a[0] % self.cyclic,)
        t = self.torsion
        out = tuple(map(_mod, map(_neg, a), t))
        return out + tuple(map(_neg, a[len(t):])) if len(a) > len(t) else out

    def power(self, a, k: int) -> tuple[int, ...]:
        return self.reduce([k * x for x in a])

    def key(self, a):
        """Total order key among elements of one group: torsion coordinates
        verbatim, then each free one c as the int 2|c| + (c < 0), which
        orders by (absolute value, sign), the positive value first.

        >>> g = AbelianGroup((), 1, ())
        >>> sorted([(2,), (-1,), (0,), (1,), (-2,)], key=g.key)
        [(0,), (1,), (-1,), (2,), (-2,)]
        """
        nt = len(self.torsion)
        if len(a) <= nt:
            return tuple(a)
        return (*a[:nt], *[c + c if c >= 0 else 1 - c - c for c in a[nt:]])

    def torsion_elements(self):
        """Elements of finite order, in total order: every element of a
        finite group."""
        pad = (0,) * self.free_rank
        boxes = itertools.product(*(range(d) for d in self.torsion))
        return [tuple(b) + pad for b in boxes]

    def relation_rows(self):
        rows = []
        for i, d in enumerate(self.torsion):
            row = [0] * self.ngens
            row[i] = d
            rows.append(row)
        return rows


class GroupMap(Record):
    """A homomorphism out of a group in canonical coordinates, given by the
    image of each canonical generator of the source."""

    __slots__ = _fields = ("target", "rows")

    def __init__(self, target, rows):
        _set(self, "target", target)
        _set(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.target, self.rows) == (other.target, other.rows)
        return NotImplemented

    def __hash__(self):
        return hash((self.target, self.rows))

    def __call__(self, vec) -> tuple[int, ...]:
        """The image of ``vec``: the sum of ``c * row`` over its nonzero
        coefficients c, reduced; into Z/N, one sum of exponents mod N."""
        if self.target.cyclic:
            return (sum([c * r for c, (r,) in itertools.compress(
                zip(vec, self.rows), vec)]) % self.target.cyclic,)
        acc = [0] * self.target.ngens
        for c, row in itertools.compress(zip(vec, self.rows), vec):
            acc = [a + c * r for a, r in zip(acc, row)]
        return self.target.reduce(acc)

    def then(self, other: "GroupMap") -> "GroupMap":
        """Composite map ``x -> other(self(x))``."""
        return GroupMap(other.target, tuple(other(r) for r in self.rows))


class Reduction(Record):
    """Result of collapsing a presentation to canonical coordinates: the
    ``group``, the ``project`` map onto it and the ``sections``."""

    _fields = ("group", "project", "sections")


def reduce_presentation(num_gens, relation_rows, epsilon_row) -> Reduction:
    """Collapse ``Z^num_gens`` modulo the rows to canonical coordinates.
    The rows, lists, are reduced in place by :func:`smith_normal_form`.

    ``epsilon_row`` is the sign element as a word in the presentation
    generators; it must have order at most 2 in the quotient, else
    :class:`EpsilonOrderError` is raised.

    >>> r = reduce_presentation(2, [[0, 2], [2, 1]], [0, 1])
    >>> r.group.torsion, r.group.free_rank
    ((4,), 0)
    """
    diag, ops = smith_normal_form(relation_rows, num_gens)
    keep = [j for j in range(num_gens) if diag[j] >= 2]
    torsion = tuple(diag[j] for j in keep)
    keep += [j for j in range(num_gens) if diag[j] == 0]
    free_rank = len(keep) - len(torsion)
    v, vinv = snf_transforms(ops, num_gens, keep)
    shell = AbelianGroup(torsion, free_rank, (0,) * len(keep))
    rows = tuple(map(shell.reduce, v))
    proj = GroupMap(shell, rows)
    eps = proj(epsilon_row)
    if shell.mul(eps, eps) != shell.identity():
        raise EpsilonOrderError(f"sign element has order > 2: {eps}")
    group = AbelianGroup(torsion, free_rank, eps)
    proj = GroupMap(group, rows)
    sections = tuple(vinv)
    return Reduction(group, proj, sections)


def evaluate_word(target: AbelianGroup, gen_images, word) -> tuple[int, ...]:
    """Evaluate a presentation word given images for presentation generators."""
    acc = target.identity()
    for c, img in zip(word, gen_images):
        if c:
            acc = target.mul(acc, target.power(img, c))
    return acc


def is_surjective(gmap: GroupMap) -> bool:
    """Whether the images of the source generators, ``gmap.rows``,
    generate the target."""
    tgt = gmap.target
    rows = tgt.relation_rows() + [list(r) for r in gmap.rows]
    diag, _ = smith_normal_form(rows, tgt.ngens)
    return all(d == 1 for d in diag)


def hom_pools(source: AbelianGroup, target: AbelianGroup):
    """The candidate images of each source generator, sorted by
    ``target.key``: the target's epsilon alone for the generator that is
    the source's epsilon (see ``sign_generator``), else the torsion elements
    whose order divides the generator's order, or None for a free generator:
    every torsion element, its free part chosen by the caller (for a finite
    target these are all the elements)."""
    forced, nt = source.sign_generator, len(source.torsion)
    per_gen = []
    pad = (0,) * target.free_rank
    for i in range(source.ngens):
        if i == forced:
            pool = [target.epsilon]
        elif i < nt:
            # d * c = 0 mod r for the multiples c of r / gcd(d, r)
            d = source.torsion[i]
            steps = (range(0, r, r // math.gcd(d, r)) for r in target.torsion)
            pool = [e + pad for e in itertools.product(*steps)]
        else:
            pool = None
        per_gen.append(pool)
    return per_gen


def enumerate_homs(source: AbelianGroup, target: AbelianGroup, *,
                   cap: int = DEFAULT_CAP):
    """All homomorphisms source -> target that send epsilon to epsilon, as
    image tuples, in a deterministic order: ``itertools.product`` over
    :func:`hom_pools`, a free generator's pool being the list of every
    torsion element of the target.  ``morphisms.hom_set`` finds the same
    morphisms without listing every candidate; this enumeration is the
    oracle the tests compare it with.

    The target may be infinite provided the source is all-torsion (every
    generator image is then confined to the finite torsion subgroup).  When a
    free source generator meets an infinite target, the hom set has no finite
    enumeration and :class:`InfinitePasture` is raised.  More than
    ``cap`` candidates raise :class:`SearchSpaceExceeded` before any is tried.
    """
    if source.free_rank and not target.is_finite:
        raise InfinitePasture("free source generator with infinite target")
    pools = [target.torsion_elements() if pool is None else pool
             for pool in hom_pools(source, target)]
    total = math.prod(map(len, pools))
    if total > cap:
        raise SearchSpaceExceeded(
            f"{total} candidate homomorphisms exceed the cap of {cap}")
    out = []
    for images in itertools.product(*pools):
        if evaluate_word(target, images, source.epsilon) == target.epsilon:
            out.append(tuple(images))
    return out
