"""Exact integer matrix algorithms.

Determinants and ranks by one fraction-free elimination, gcd of maximal
minors, Smith normal form with its unimodular transforms, and LLL
reduction over exact rationals. Everything is arbitrary-precision integer
or Fraction arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


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
        ot = list(zip(*other.entries)) if other.cols else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(r, c)) for c in ot] for r in self.entries]
        )

    def mul_vec(self, v):
        """Matrix times column vector, exact (accepts ints or Fractions)."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(r, v)) for r in self.entries)

    def det(self) -> int:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return _int_det([list(r) for r in self.entries])

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


def _int_det(m) -> int:
    """Determinant of a square list-of-lists integer matrix: the signed
    last pivot, or 0 when the rank falls short. Mutates its argument."""
    rank, last = _bareiss(m)
    return last if rank == len(m) else 0


def gcd_maximal_minors(c: IntMatrix) -> int:
    """gcd of all maximal (cols x cols) minors of a tall matrix, >= 0."""
    if c.rows < c.cols:
        raise ValueError("expected at least as many rows as columns")
    if c.cols == 0:
        return 1
    g = 0
    for rows in combinations(range(c.rows), c.cols):
        sub = [list(c.entries[i]) for i in rows]
        g = math.gcd(g, _int_det(sub))
        if g == 1:
            break
    return g


@dataclass(frozen=True)
class SNFDecomposition:
    """P * M * Q = D with P, Q unimodular and D = diag(invariant_factors)."""

    P: IntMatrix
    D: IntMatrix
    Q: IntMatrix
    invariant_factors: tuple


def smith_normal_form(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form of a square integer matrix.

    Returns P*M*Q = D with |det P| = |det Q| = 1 and nonnegative diagonal
    d_1 | d_2 | ... | d_n: every row operation on M is applied to P and
    every column operation to Q. Pivot selection is by minimal absolute
    value, first in row-major order, so the decomposition is deterministic.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    n = m.rows
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    # a = [[M, I], [I, 0]]: row operations on the top n rows build P in the
    # top right block, column operations on the left n columns build Q in
    # the bottom left block, and M turns into D.
    a = [list(r) + e for r, e in zip(m.entries, eye)] + [e + [0] * n for e in eye]

    def row_add(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_add(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]

    for t in range(n):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
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
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_add(j, t, a[t][j] // a[t][t])
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            # Pivot now isolated; enforce divisibility of the rest.
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
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

    d = IntMatrix([r[:n] for r in a[:n]])
    pm = IntMatrix([r[n:] for r in a[:n]])
    qm = IntMatrix([r[:n] for r in a[n:]])
    factors = tuple(a[i][i] for i in range(n))
    if pm * m * qm != d or abs(pm.det()) != 1 or abs(qm.det()) != 1:
        raise ArithmeticError("Smith form does not reconstruct the input")
    for f, g in zip(factors, factors[1:]):
        if (g % f if f else g) != 0:
            raise ArithmeticError("invariant factors fail the divisibility chain")
    return SNFDecomposition(P=pm, D=d, Q=qm, invariant_factors=factors)


def lll_reduce(b: IntMatrix) -> IntMatrix:
    """LLL-reduced basis (delta = 3/4) of the column lattice of b.

    Exact rational Gram-Schmidt throughout. The output spans the same
    lattice as the input, by unimodular column operations only.
    Raises 'rank deficient' when the columns are dependent.
    """
    n, m = b.rows, b.cols
    basis = [list(b.col(j)) for j in range(m)]
    delta = Fraction(3, 4)

    def gram_schmidt():
        # Returns (mu, norms) of the orthogonalized basis; norms squared.
        star = []
        mu = [[Fraction(0)] * m for _ in range(m)]
        norms = []
        for i in range(m):
            vec = [Fraction(x) for x in basis[i]]
            for j in range(i):
                dot = sum(Fraction(basis[i][k]) * star[j][k] for k in range(n))
                if norms[j] == 0:
                    raise ValueError("rank deficient")
                mu[i][j] = dot / norms[j]
                vec = [a - mu[i][j] * c for a, c in zip(vec, star[j])]
            star.append(vec)
            norms.append(sum(x * x for x in vec))
        if any(nm == 0 for nm in norms):
            raise ValueError("rank deficient")
        return mu, norms

    k = 1
    mu, norms = gram_schmidt()
    while k < m:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                basis[k] = [a - r * c for a, c in zip(basis[k], basis[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return IntMatrix(list(zip(*basis)))
