"""Staircase multiplicities and the degree of the parametrized surface.

A zero-dimensional monomial ideal in two local variables is a staircase;
its Hilbert-Samuel multiplicity is twice the area cut off by the lower
convex hull of the minimal generators, computed here by an exact shoelace
sum. Summing those local multiplicities over the base points turns the
degree d of the pencil into the degree of the image surface:

    degree = d^2 - sum of local multiplicities

valid in the uniform case, where every base point is an ordinary crossing
of exactly two arrangement lines and the parametrization is birational.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import IntMatrix
from .parametrization import build
from .basepoints import _crossings, _minimal, _sorted_base_points


def _exponent_pair(p):
    """p as a pair of nonnegative ints; other types raise TypeError."""
    a, b = p
    if type(a) is not int or type(b) is not int:
        raise TypeError("integer exponents only")
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    return a, b


def minimal_generators(points):
    """Minimal generating set of the monomial ideal spanned by the given
    (a, b) exponent pairs: duplicates and dominated pairs removed, sorted."""
    pts = [_exponent_pair(p) for p in points]
    if not pts:
        raise ValueError("empty generator set")
    return tuple(_minimal(pts))


@dataclass(frozen=True)
class Staircase2:
    """Monomial ideal in two variables, held as its minimal generators:
    whatever generators it is given are minimalized on construction."""

    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", minimal_generators(self.gens))

    @classmethod
    def of(cls, points) -> "Staircase2":
        return cls(gens=points)


def _require_zero_dimensional(gens):
    if not any(b == 0 for _, b in gens) or not any(a == 0 for a, _ in gens):
        raise ValueError("not zero-dimensional")


def _chain(points):
    """Convex chain of plane points in their order, dropping each point that
    makes no strict left turn: the lower hull of points sorted by x."""
    chain = []
    for p in points:
        x, y = p
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _multiplicity(gens):
    """Twice the area enclosed by the axes and the lower hull of the sorted
    minimal generators of a zero-dimensional staircase: the shoelace sum
    round the origin and the chain, where the origin's terms vanish."""
    chain = _chain(gens)
    total = 0
    x0, y0 = chain[0]
    for x1, y1 in chain[1:]:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return abs(total)


def staircase_multiplicity(s: Staircase2) -> int:
    """Multiplicity e = 2 * area enclosed by the axes and the lower hull of
    the staircase generators."""
    _require_zero_dimensional(s.gens)
    return _multiplicity(s.gens)


def colength(s: Staircase2) -> int:
    """Number of standard monomials under the staircase (the codimension of
    the ideal in the local ring).

    With the minimal generators (a_0, b_0), ..., (a_r, b_r) sorted by a, so
    a_0 = 0 and b_r = 0, the columns a_i <= x < a_(i+1) each hold b_i
    standard monomials: the sum of (a_(i+1) - a_i) * b_i."""
    _require_zero_dimensional(s.gens)
    return sum((a1 - a0) * b0 for (a0, b0), (a1, _) in zip(s.gens, s.gens[1:]))


@dataclass(frozen=True)
class DegreeReport:
    d: int
    points: tuple  # (BasePoint, multiplicity) pairs
    degree: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "degree": self.degree,
            "base_points": [dict(bp.to_json_dict(), e=e) for bp, e in self.points],
        }


def degree_uniform(C: IntMatrix) -> DegreeReport:
    """Degree of the parametrized surface for a uniform n x 3 matrix.

    Uniformity makes every base point the crossing of exactly two rows i
    and j, where the local ideal is the staircase spanned by the exponent
    pairs (E_k[i], E_k[j]) of the pencil members f_k.
    """
    if C.cols != 3:
        raise ValueError("degree formula needs a three-column matrix")
    pairs = _crossings(C)
    if pairs is None:
        raise ValueError("non-uniform: degree formula unsupported")
    spec = build(C)
    # No defect test is needed: on a uniform matrix the image is a surface.
    # J(u) = sum_i c_i c_i^T / l_i(u) kills u, so its rank is at most 2.
    # Near a generic point of the line l_1 = 0, J = c_1 c_1^T / l_1 + R
    # with R regular, so rank J <= 1 everywhere would make R vanish on
    # V = c_1^perp along that line. There R restricts to
    # sum_(i >= 2) (c_i|V)(c_i|V)^T / l_i, whose poles on the line are
    # pairwise distinct, as no three rows are dependent, each with a
    # nonzero residue, as no row is proportional to c_1: R is not zero on
    # V, and J has rank exactly 2.
    # No two rows are proportional and no three meet, so each pair (i, j)
    # crosses at its own point, where exactly l_i and l_j vanish: no
    # direction classes, no merging of pairs. The f_k share no l_i (see
    # ParamSpec), so some f_k misses l_i and some misses l_j: the base
    # locus is finite, and a base point's staircase holds a pair (0, b) and
    # a pair (a, 0), which makes it zero-dimensional.
    # Bit k of missing[i] marks E_k[i] = 0. A crossing is a base point
    # exactly when every f_k vanishes there, i.e. no f_k misses both lines.
    cols = list(zip(*spec.numer_exps))
    missing = [sum(1 << k for k, x in enumerate(col) if not x) for col in cols]
    found = []
    total = 0
    for i, j, p in pairs:
        if not missing[i] & missing[j]:
            e = _multiplicity(_minimal(zip(cols[i], cols[j])))
            found.append((p, (i + 1, j + 1), e))
            total += e
    degree = spec.d * spec.d - total
    if degree < 1:
        raise ValueError("degree formula produced %d, input is degenerate" % degree)
    return DegreeReport(d=spec.d, points=tuple(_sorted_base_points(found)), degree=degree)


def sparse_origin_multiplicity(exponents) -> int:
    """Multiplicity of the origin on a plane curve from its support alone.

    Needs pure powers (a, 0) and (0, b), a, b >= 1, in the support; then
    the multiplicity equals the staircase multiplicity of the monomial
    ideal the support generates, independent of the coefficients.
    """
    pts = [_exponent_pair(p) for p in exponents]
    if not any(a >= 1 and b == 0 for a, b in pts) or not any(
        a == 0 and b >= 1 for a, b in pts
    ):
        raise ValueError(
            "hypothesis violated: support must contain pure powers (a,0) and (0,b)"
        )
    return staircase_multiplicity(Staircase2.of(pts))
