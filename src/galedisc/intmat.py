"""Exact integer matrix algorithms.

Determinants and ranks by one fraction-free elimination, gcd of maximal
minors, Smith normal form with its unimodular transforms, and the 1-norm
reduction of a two-column basis. Everything is arbitrary-precision integer
arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul


class IntMatrix:
    """Immutable integer matrix stored row-major.

    Entries must be ints: floats, bools and other types raise TypeError
    instead of being truncated. Supports zero-column matrices but not
    zero-row ones.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if any(type(x) is not int for row in rows for x in row):
            raise TypeError("integer entries only")
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _valid(cls, rows: tuple) -> "IntMatrix":
        """The matrix with these rows, taken as they are: a nonempty tuple
        of tuples of ints, all of one length.

        Products and the Smith form build their results through here,
        skipping the per-entry test of the constructor, which guards
        outside input. Their entries are sums and products of entries of
        valid matrices, of identity entries int(i == j), and of quotients
        x // y of such ints, and sums, products and floor quotients of ints
        are ints; a product has as many rows as its left factor, each as
        long as its right factor has columns."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", len(rows[0]))
        object.__setattr__(m, "entries", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j: int):
        return tuple(r[j] for r in self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = list(zip(*other.entries))
        return IntMatrix._valid(
            tuple(tuple([sum(map(mul, r, c)) for c in ot]) for r in self.entries)
        )

    def mul_vec(self, v):
        """Matrix times column vector, exact (accepts ints or Fractions)."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(r, v)) for r in self.entries)

    def det(self) -> int:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        rank, last = _bareiss([list(r) for r in self.entries])
        return last if rank == self.rows else 0

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntMatrix(%r)" % (list(list(r) for r in self.entries),)

    def to_lists(self):
        return [list(r) for r in self.entries]


def _bareiss(m):
    """Fraction-free (Bareiss) elimination of a list-of-lists integer
    matrix: a column without a pivot is skipped, and every division is
    exact. Returns the rank and the last pivot signed by the row swaps,
    which for a square matrix of full rank is its determinant.

    Mutates its argument.
    """
    rank = 0
    prev = 1
    sign = 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if r is None:
            continue
        if r != rank:
            m[rank], m[r] = m[r], m[rank]
            sign = -sign
        pivot = m[rank][c]
        for i in range(rank + 1, len(m)):
            for j in range(c + 1, ncols):
                m[i][j] = (pivot * m[i][j] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev


def _int_rank(m) -> int:
    """Rank of a list-of-lists integer matrix; mutates its argument."""
    return _bareiss(m)[0]


def gcd_maximal_minors(c: IntMatrix) -> int:
    """gcd of all maximal (cols x cols) minors of a tall matrix, >= 0.

    It is the product of the Smith invariant factors: P c Q = D with P and
    Q unimodular keeps the gcd of the maximal minors (Cauchy-Binet), and of
    the maximal minors of D only the top square block can be nonzero."""
    if c.rows < c.cols:
        raise ValueError("expected at least as many rows as columns")
    if c.cols == 0:
        return 1
    return math.prod(smith_normal_form(c).invariant_factors)


@dataclass(frozen=True)
class SNFDecomposition:
    """P * M * Q = D with P, Q unimodular, D zero off its diagonal, and
    that diagonal as invariant_factors."""

    P: IntMatrix
    Q: IntMatrix
    invariant_factors: tuple


def smith_normal_form(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form of an n x k integer matrix, k >= 1.

    Returns P and Q with P*M*Q = D, P n x n, Q k x k, |det P| = |det Q| = 1
    and D n x k, zero off its diagonal d_1 | d_2 | ... | d_min(n, k), which
    is nonnegative and is returned as the invariant factors: every row
    operation on M is applied to P and every column operation to Q. The
    operations are unimodular, and each pivot divides the rest of the
    matrix before the next is chosen, so all of this holds by
    construction. Pivot selection is by minimal absolute value, first in
    row-major order, so the decomposition is deterministic.
    """
    if not m.cols:
        raise ValueError("at least one column required")
    n, k = m.rows, m.cols
    # a = [[M, I_n], [I_k, 0]]: row operations on the top n rows build P in
    # the top right block, column operations on the left k columns build Q
    # in the bottom left block, and M turns into D.
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.entries)]
    a += [[int(i == j) for j in range(k)] + [0] * n for i in range(k)]

    def row_add(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_add(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]

    for t in range(min(n, k)):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, k):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            a[pi], a[t] = a[t], a[pi]
            for r in a:
                r[pj], r[t] = r[t], r[pj]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    row_add(i, t, a[i][t] // a[t][t])
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, k):
                if a[t][j] != 0:
                    col_add(j, t, a[t][j] // a[t][t])
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            # Pivot now isolated; enforce divisibility of the rest.
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, k):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, -1)  # fold the offending row into row t
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    pm = IntMatrix._valid(tuple(tuple(r[k:]) for r in a[:n]))
    qm = IntMatrix._valid(tuple(tuple(r[:k]) for r in a[n:]))
    factors = tuple(a[i][i] for i in range(min(n, k)))
    return SNFDecomposition(P=pm, Q=qm, invariant_factors=factors)


def l1_reduce(c: IntMatrix) -> IntMatrix:
    """Unimodular 2 x 2 U whose product c * U has the shortest columns, in
    the 1-norm, of any basis of the column lattice of the two-column c.

    Generalized Gauss reduction (Kaib-Schnorr, J. Algorithms 21, 1996),
    which works in any norm: with a the longer column, replace a by
    a - q * b for the integer q that minimizes |a - q * b|_1, until no q
    lowers it. The function q -> |a - q * b|_1 is convex and piecewise
    linear with its kinks at the ratios a_i / b_i, so the floor and ceiling
    of those ratios hold a minimizer. The columns reached are both
    successive minima, so each column and their sum are as short as any
    basis allows. U is the identity when no step lowers the sum.
    """
    if c.cols != 2:
        raise ValueError("two columns required")
    a, b = c.col(0), c.col(1)
    ua, ub = (1, 0), (0, 1)
    na, nb = _l1(a), _l1(b)
    start = na + nb
    while True:
        if na < nb:
            a, b, ua, ub, na, nb = b, a, ub, ua, nb, na
        if not any(b):
            raise ValueError("rank deficient")
        nq, q = _l1_step(a, b)
        if nq >= na:
            break
        a = tuple(x - q * y for x, y in zip(a, b))
        ua = (ua[0] - q * ub[0], ua[1] - q * ub[1])
        na = nq
    if na + nb == start:
        return IntMatrix([[1, 0], [0, 1]])
    return IntMatrix([[ua[0], ub[0]], [ua[1], ub[1]]])


def _l1_step(a, b):
    """(|a - q * b|_1, q) for the integer q that minimizes the 1-norm, the
    one of least |q| among ties, for b not zero: one step of `l1_reduce`.
    The floor and ceiling of the ratios a_i / b_i hold a minimizer."""
    qs = {x // y + r for x, y in zip(a, b) if y for r in (0, 1)}
    nq, _, q = min((_l1(x - q * y for x, y in zip(a, b)), abs(q), q) for q in qs)
    return nq, q


def _l1(v) -> int:
    return sum(map(abs, v))
