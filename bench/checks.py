"""Output checks computed apart from galedisc.

Nothing here imports galedisc: the pencil forms, degrees, base points and
multiplicities are recomputed from the definitions, so a fault in the
program cannot hide in a check that shares its code.

A polynomial is a dict mapping exponent tuples to integers (`MPoly.terms`).

Curves.  For an n x 2 matrix C the cleared pencil forms are
f_0 = prod l_i^{e0_i} and f_k = prod l_i^{c_ik + e0_i}, e0_i = max(0, -min
row i), all of degree d.  By the birationality of the Horn-Kapranov map
(Kapranov, Math. Ann. 290, 1991, and its inhomogeneous extension) the image
curve has degree d, so a primitive Delta' of total degree d with the
canonical sign whose pull-back sum_e c_e f_1^e1 f_2^e2 f_0^(d-|e|) vanishes
identically is the defining polynomial, exactly.  The pull-back is a binary
form of degree d^2, so it vanishes identically when its dehomogenization at
u2 = 1 vanishes at d^2 + 1 integers; this is checked modulo the prime P
below, which keeps the numbers small.

Surfaces.  For a uniform n x 3 matrix every base point is the crossing of
two lines l_i, l_j at which every f_k vanishes; its multiplicity is twice
the area under the lower hull of the local exponents (exp of l_i, exp of
l_j) over the pencil members, summed here in vertical strips, and the
surface has degree d^2 minus the sum of the multiplicities.

Transfer.  delta1 is checked as a curve or surface polynomial of C1, and
its monomial exponent v from the identity delta1(alpha_M(y)) = y^v G(y),
where alpha_M maps a term exponent e to M e and G is the product of
delta2 over the |det M| scalings that alpha_M kills.  Each factor of G has
the support of delta2, and the least exponent of y_i in a product is the
sum of the factors' least exponents, so the least exponent of y_i in G is
|det M| times that of delta2; v is therefore the least M e over the terms
of delta1 less that, and it must lie in the column lattice of M.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

# The pull-back identities are evaluated modulo this prime (2^127 - 1).
# A polynomial of degree D over Z that vanishes at D + 1 points modulo P
# is zero modulo P; a wrong output passes only if P divides every
# coefficient of its pull-back.
P = (1 << 127) - 1


class CheckFailed(Exception):
    """An output of the program is wrong."""


def pencil_exponents(rows):
    """Exponent of l_i in f_k, as rows k = 0..m, and the common degree d."""
    m = len(rows[0])
    e0 = [max(0, -min(r)) for r in rows]
    exps = [e0] + [[r[k] + e0[i] for i, r in enumerate(rows)] for k in range(m)]
    return exps, sum(e0)


def _gl_key(e):
    # Graded lex with the last variable read first, as in galedisc.mpoly.
    return (sum(e), tuple(reversed(e)))


def check_normal_form(terms, degree):
    """Total degree, primitivity and the sign rule (the graded-lex minimal
    term is positive)."""
    if not terms:
        raise CheckFailed("zero polynomial")
    got = max(sum(e) for e in terms)
    if got != degree:
        raise CheckFailed("total degree %d, expected %d" % (got, degree))
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    if g != 1:
        raise CheckFailed("content %d, not primitive" % g)
    if terms[min(terms, key=_gl_key)] < 0:
        raise CheckFailed("sign rule: graded-lex minimal term is negative")


def _pullback_vanishes(terms, degree, exps, forms_at, points):
    """Does sum_e c_e f_1^e1 ... f_m^em f_0^(degree - |e|) vanish modulo P
    at every point?  forms_at(t) gives the values of l_1..l_n there."""
    m = len(exps) - 1
    for t in points:
        ls = [x % P for x in forms_at(t)]
        powers = []
        for row in exps:
            v = 1
            for l, k in zip(ls, row):
                if k:
                    v = v * pow(l, k, P) % P
            p = [1]
            for _ in range(degree):
                p.append(p[-1] * v % P)
            powers.append(p)
        total = 0
        for e, c in terms.items():
            v = c * powers[0][degree - sum(e)]
            for k in range(m):
                if e[k]:
                    v = v * powers[k + 1][e[k]] % P
            total += v
        if total % P:
            return False
    return True


def check_curve(rows, terms):
    """Delta' for the n x 2 matrix `rows` (curves, and transfer with m = 2)."""
    exps, d = pencil_exponents(rows)
    check_normal_form(terms, d)
    if not _pullback_vanishes(
        terms, d, exps, lambda t: [a * t + b for a, b in rows], range(d * d + 1)
    ):
        raise CheckFailed("pull-back along psi does not vanish")


def check_transfer_exponent(M, delta2, delta1, v):
    """The monomial exponent v of transfer(delta2, M) = (delta1, v)."""
    det = _det(M)
    low1 = [min(sum(a * x for a, x in zip(row, e)) for e in delta1) for row in M]
    low2 = [min(e[i] for e in delta2) for i in range(len(M))]
    expected = tuple(a - abs(det) * b for a, b in zip(low1, low2))
    if tuple(v) != expected:
        raise CheckFailed("monomial exponent %s, expected %s" % (tuple(v), expected))
    if any(x.denominator != 1 for x in _solve(M, v)):
        raise CheckFailed("monomial exponent %s outside the column lattice of M" % (tuple(v),))


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M))
    )


def _solve(M, v):
    """The rational w with M w = v, M nonsingular (Cramer's rule)."""
    det = _det(M)
    return [
        Fraction(_det([row[:j] + (x,) + row[j + 1:] for row, x in zip(M, v)]), det)
        for j in range(len(M))
    ]


def surface_base_points(rows):
    """{coords: multiplicity} over the base points of a uniform n x 3 matrix,
    coords normalized to first nonzero coordinate 1, and d."""
    exps, d = pencil_exponents(rows)
    out = {}
    for i, j in combinations(range(len(rows)), 2):
        local = [(ek[i], ek[j]) for ek in exps]
        if any(a == 0 and b == 0 for a, b in local):
            continue  # some f_k does not vanish at l_i = l_j = 0
        a, b = rows[i], rows[j]
        p = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        lead = next(x for x in p if x)
        out[tuple(Fraction(x, lead) for x in p)] = staircase_multiplicity(local)
    return out, d


def staircase_multiplicity(points):
    """Twice the area between the axes and the lower hull of the exponent
    pairs, integrated in vertical strips between hull vertices."""
    x_end = min(a for a, b in points if b == 0)
    y_top = min(b for a, b in points if a == 0)
    hull = [(0, y_top)]
    for p in sorted(set(points)):
        if p[0] == 0 or p[0] > x_end:
            continue
        # Keep the chain convex from below: drop the last vertex while it
        # lies on or above the segment from the one before it to p.
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0:
                hull.pop()
            else:
                break
        if p[1] < hull[-1][1]:
            hull.append(p)
    if hull[-1] != (x_end, 0):
        raise CheckFailed("staircase hull does not reach (%d, 0)" % x_end)
    return sum((x1 - x0) * (y0 + y1) for (x0, y0), (x1, y1) in zip(hull, hull[1:]))


def check_surface(rows, report):
    """A DegreeReport-like object (d, degree, points of (base point with
    .coords, multiplicity)) against the base points computed here."""
    expected, d = surface_base_points(rows)
    got = {}
    for bp, e in report.points:
        if bp.coords in got:
            raise CheckFailed("base point %s listed twice" % (bp.coords,))
        got[bp.coords] = e
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise CheckFailed("base points differ: missing %s, extra %s" % (missing, extra))
    for p, e in expected.items():
        if got[p] != e:
            raise CheckFailed("multiplicity %d at %s, expected %d" % (got[p], p, e))
    degree = d * d - sum(expected.values())
    if report.d != d or report.degree != degree:
        raise CheckFailed(
            "d = %d, degree %d; expected d = %d, degree %d" % (report.d, report.degree, d, degree)
        )
    return degree


def check_surface_poly(rows, terms, seed, lines=2, points_per_line=4):
    """Delta for the uniform n x 3 matrix `rows` (transfer with m = 3): the
    degree is the surface degree computed by the base-point formula, and
    the pull-back is checked at seeded random points of seeded random lines
    u = p + t q over Z/P.  A nonzero pull-back of degree D vanishes at a
    random point with probability at most D / P (Schwartz-Zippel)."""
    expected, d = surface_base_points(rows)
    degree = d * d - sum(expected.values())
    check_normal_form(terms, degree)
    exps, _ = pencil_exponents(rows)
    rng = random.Random(seed)
    for _ in range(lines):
        p = [rng.randrange(P) for _ in range(3)]
        q = [rng.randrange(P) for _ in range(3)]
        lp = [sum(c * x for c, x in zip(r, p)) for r in rows]
        lq = [sum(c * x for c, x in zip(r, q)) for r in rows]
        ts = [rng.randrange(P) for _ in range(points_per_line)]
        if not _pullback_vanishes(
            terms, degree, exps, lambda t: [a + t * b for a, b in zip(lp, lq)], ts
        ):
            raise CheckFailed("pull-back along psi does not vanish on a line")
