"""Defining polynomials of the parametrized hypersurfaces and the maps
between them.

The two-column case is implicitized exactly: clearing psi to a pair of
pencils den_k(u) y_k - num_k(u) and eliminating u with a Sylvester
resultant leaves the defining polynomial of the image curve once content
and stray monomial factors are divided out and the sign is made canonical.
The pencils are formed on the basis of C's column lattice with the
shortest columns in the 1-norm, which reaches both successive minima, so
each u-degree and the Sylvester size are as small as any basis allows and
no cost estimate is needed; a monomial substitution brings the polynomial
back to C's own basis.
No square-free pass is needed: the Horn-Kapranov parametrization is
birational, so the resultant is the defining polynomial to the first
power, and the degree check rejects anything else. Two sampled checks
certify a polynomial against the parametrization: its vanishing at
parametrized points, which validates the implicitization, and the
inversion of psi by the logarithmic Gauss map. Both evaluate in integers,
on the terms at psi(u) times one common nonzero factor (`_cleared_terms`).

Nested exponent lattices are handled by transfer: when C1 = C2 * M the two
defining polynomials determine each other through the monomial coordinate
change alpha_M and a product over the finite group of coordinate scalings
killed by it.
"""

from __future__ import annotations

import random
from math import prod
from operator import add, getitem

from .intmat import IntMatrix, gcd_maximal_minors, l1_reduce, smith_normal_form
from .mpoly import (
    MPoly,
    _det_by_interpolation,
    content_primitive,
    substitute_monomial,
    sylvester_resultant,
)
from .parametrization import (
    ParamSpec,
    Verdict,
    _forms_at,
    defect_test,
    primitive_direction,
    sample_off_arrangement,
)


# -- implicitization (m = 2) --------------------------------------------------


def _pencils(C: IntMatrix):
    """The cleared equations den_k(u) * y_k - num_k(u) in Z[u1,u2,y1,y2] of
    the n x 2 matrix C."""
    n_vars = 4
    pencils = []
    for k in range(2):
        num = MPoly.one(n_vars)
        den = MPoly.one(n_vars)
        for row in C.entries:
            c = row[k]
            if c == 0:
                continue
            form = MPoly(n_vars, {(1, 0, 0, 0): row[0], (0, 1, 0, 0): row[1]})
            if c > 0:
                num = num * form ** c
            else:
                den = den * form ** (-c)
        y = MPoly.variable(n_vars, 3 + k)
        pencils.append(den * y - num)
    return pencils


def implicitize(spec: ParamSpec, seed: int = 0) -> MPoly:
    """Defining polynomial of the closure of the image of psi, for m = 2.

    Requires a matrix without proportional rows (merge first). The
    resultant is taken on the 1-norm-reduced basis C * U of the column
    lattice (`l1_reduce`): the pencils' u-degrees are half the 1-norms of
    the columns, and the reduced columns reach both successive minima, so
    the Sylvester matrix is as small as any basis allows and no cost
    estimate is needed to choose the basis. Since psi_(C U)(u) =
    alpha_U(psi_C(U u)), the polynomial comes back by the monomial
    substitution alpha_U. Freed of its content and monomial factor and
    sign-normalized, it is the result: psi is birational onto its image,
    so the resultant is the defining polynomial to the first power and
    needs no square-free pass. It is validated on C itself, by degree
    count, which rejects any power, and by vanishing at sampled
    parametrized points.
    """
    if spec.m != 2:
        raise ValueError("implicitization needs m = 2")
    dirs = set()
    for row in spec.C.entries:
        w, _ = primitive_direction(row)
        if w in dirs:
            raise ValueError("proportional rows present: merge them first")
        dirs.add(w)
    if defect_test(spec, trials=5, seed=seed) is not Verdict.NON_DEFECTIVE:
        raise ValueError(
            "defective configuration: the closure is not a hypersurface (seed %d)" % seed
        )

    U = l1_reduce(spec.C)
    # Setting u2 = 1 keeps each pencil's u1-degree: with no two rows
    # proportional, at most one row has c_i1 = 0, and that row divides only
    # one of num_k and den_k, so the other keeps its top term in u1. C * U
    # has proportional rows only where C does.
    dehom = [g.set_var_one(2) for g in _pencils(spec.C * U)]
    resultant = sylvester_resultant(dehom[0], dehom[1], 1)
    if not resultant:
        raise ValueError(
            "implicitization validation failed: resultant vanished identically"
        )
    delta = resultant.restrict((3, 4))
    if U.entries != ((1, 0), (0, 1)):
        delta = substitute_monomial(delta, U)
    _, delta = content_primitive(delta.split_monomial()[1])

    if delta.total_degree() != spec.d:
        raise ValueError(
            "implicitization validation failed: degree %d, expected %d"
            % (delta.total_degree(), spec.d)
        )
    rng = random.Random(seed)
    for _ in range(10):
        u = sample_off_arrangement(spec, rng)
        if sum(_cleared_terms(spec, delta, u).values()):
            raise ValueError(
                "implicitization validation failed: nonzero at a parametrized "
                "point u = %s (seed %d)" % (u, seed)
            )
    return delta


# -- sampled checks in integers -----------------------------------------------


def _powers(f: int, low: int, high: int) -> dict:
    """x -> f^(x - low) for low <= x <= high, by running products."""
    p = {low: 1}
    for x in range(low + 1, high + 1):
        p[x] = p[x - 1] * f
    return p


def _cleared_terms(spec: ParamSpec, delta: MPoly, u) -> dict:
    """e -> F * c_e * y^e for each term c_e y^e of delta, at y = psi(u) for
    an integer point u off the arrangement: one common factor F makes every
    value an integer, for any m and for Laurent delta.

    With f_k(u) = prod_i l_i(u)^numer_exps[k][i] each y_k is f_k / f_0, so
    F = f_0^D * prod_k f_k^(-a_k), for D = max_e |e| and
    a_k = min(0, min_e e_k), turns the term into
    c_e f_0^(D - |e|) prod_k f_k^(e_k - a_k). Since F != 0, a sum of the
    values vanishes exactly when the same sum of the terms does at psi(u).
    For delta of degree spec.d without negative exponents F = f_0^d."""
    terms = delta.terms
    if not terms:
        return {}
    forms = _forms_at(spec.C, u)
    f0, *fs = (prod(map(pow, forms, row)) for row in spec.numer_exps)
    degs = list(map(sum, terms))
    top = max(degs)
    p0 = _powers(f0, 0, top - min(degs))
    tables = [_powers(f, min(0, *col), max(col)) for f, col in zip(fs, zip(*terms))]
    return {
        e: c * p0[top - s] * prod(map(getitem, tables, e))
        for (e, c), s in zip(terms.items(), degs)
    }


def gauss_inverse_check(
    spec: ParamSpec, delta: MPoly, trials: int = 20, seed: int = 0
) -> bool:
    """Check that the scaled gradient of delta inverts psi.

    At y = psi(u) the vector (y_k d_k delta) must be proportional to u;
    that pins delta down as the defining polynomial of the image (up to
    factors). It is taken in integers, times the common factor F of
    `_cleared_terms`: g_k = sum_e e_k F c_e y^e. A point where every g_k
    vanishes is singular and is resampled. Returns False on the first
    failed sample.
    """
    if delta.n_vars != spec.m:
        raise ValueError("variable count mismatch")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    for _ in range(trials):
        for _attempt in range(50):
            u = sample_off_arrangement(spec, rng)
            values = _cleared_terms(spec, delta, u).items()
            g = [sum(e[k] * v for e, v in values) for k in range(spec.m)]
            if any(g):
                break
        else:
            raise ValueError("could not find a smooth parametrized point")
        for i in range(spec.m):
            for j in range(i + 1, spec.m):
                if g[i] * u[j] != g[j] * u[i]:
                    return False
    return True


# -- products over scaling groups and lattice transfer ------------------------


# Work bounds checked before a norm is formed, so that a huge invariant
# factor d is refused at once. A closed form (e <= 2) takes about d steps
# over the terms of G0^d, s_d and G2^d (`_closed_form_terms`), on
# coefficients of up to about d bits: work d^2 * terms. Interpolation
# (e >= 3) takes a node per monomial of the box (e + 1) * prod_v
# (d * deg_v g0 + 1), and each node pseudo-divides t^d - Y by g in about
# d^2 integer operations: work d^2 * box. On a 2-core Xeon the norms just
# under a limit that were timed took 0.7 to 17 seconds.
_CLOSED_FORM_WORK_LIMIT = 10**10
_INTERPOLATION_WORK_LIMIT = 5 * 10**7


def _refuse_above(work: int, limit: int, d: int) -> None:
    if work > limit:
        raise ValueError(
            "group product too large: a norm of order %d needs about %d "
            "operations, above the limit of %d" % (d, work, limit)
        )


def _closed_form_terms(g_0: MPoly, g_1: MPoly, g_2: MPoly, g02: MPoly, d: int) -> int:
    """Bound on the terms of G0^d, s_d and G2^d together: the monomials in
    the bounding box of each. Each is a product of d steps, a step of s_d
    being a factor G1 or half of a factor G0 * G2, so in each variable its
    exponents span d times the span of one step (counted in half steps)."""
    total = 0
    for factors in (((g_0, 2),), ((g_2, 2),), ((g_1, 2), (g02, 1))):
        exps = [tuple(w * x for x in e) for f, w in factors for e in f.terms]
        if exps:
            total += prod(d * (max(c) - min(c)) // 2 + 1 for c in zip(*exps))
    return total


def _norm_nodes(g0: MPoly, var_index: int, d: int):
    """(active, nodes): the variables (0-based) that occur in g0, and a
    lower set of exponent tuples over them, with Y = y_k^d in the place of
    y_k, that holds the support of the norm of the polynomial g0 down to Y.

    Every term of prod_w g0(w * y) is a product of d terms of g0, so the
    norm's support lies in the d-fold sumset of supp(g0), a sum's y_k
    exponent divided by d. Each partial sum keeps, per exponent in the
    other variables, only its largest y_k exponent, since the sums below
    it stay below it; the set returned is the lower closure of the last."""
    k0 = var_index - 1
    active = [v for v in range(g0.n_vars) if g0.degree_in(v + 1) > 0]
    k = active.index(k0)
    supp = [(tuple(0 if v == k0 else e[v] for v in active), e[k0]) for e in g0.terms]
    tops = {(0,) * len(active): 0}
    for _ in range(d):
        sums = {}
        for x, t in tops.items():
            for e, s in supp:
                key = tuple(map(add, x, e))
                if sums.get(key, -1) < t + s:
                    sums[key] = t + s
        tops = sums
    nodes = {x[:k] + (t // d,) + x[k + 1 :] for x, t in tops.items()}
    stack = list(nodes)
    while stack:
        p = stack.pop()
        for i, x in enumerate(p):
            if x:
                q = p[:i] + (x - 1,) + p[i + 1 :]
                if q not in nodes:
                    nodes.add(q)
                    stack.append(q)
    return active, nodes


def _unit_root_product(g: MPoly, var_index: int, d: int) -> MPoly:
    """Product of g over the scalings y_k -> w * y_k, w^d = 1, k = var_index,
    written in Y = y_k^d: Y holds the slot of y_k.

    This is the norm of g down to y_k^d, sized by what it can hold. With
    G_j the coefficients of g in y_k and e = deg_{y_k} g:
    - e <= 2 gives the closed form G2^d * Y^2 - s_d * Y + G0^d, where
      s_j = G2^j (r1^j + r2^j) over the roots r1, r2 of g in y_k:
      s_0 = 2, s_1 = -G1 and s_j = -G1 * s_(j-1) - G0 * G2 * s_(j-2).
      With G2 = 0 it is G0^d - (-G1)^d * Y, taken by repeated squaring,
      which on the `transfer` workload is faster than the d steps of the
      recurrence;
    - e >= 3 gives the resultant against t^d - Y of g with y_k moved to t,
      interpolated on the lower closure of the d-fold sumset of supp(g)
      (`_norm_nodes`), not on the box of its degree bounds.
    Each branch estimates its work first and raises ValueError above its
    limit (_CLOSED_FORM_WORK_LIMIT, _INTERPOLATION_WORK_LIMIT). Laurent
    input is handled by shifting all exponents up front; each scaling
    multiplies the shifted monomial by a root of unity whose product over
    the group is (-1)^(d+1), and the shift comes back as y^(d * mins) in
    Y: mins[k] in slot k, d * mins[j] elsewhere."""
    n = g.n_vars
    mins, g0 = g.split_monomial()
    k0 = var_index - 1
    coeffs = g0.coeffs_in(var_index)
    e = max(coeffs)
    zero = MPoly.zero(n)
    g_0, g_1, g_2 = (coeffs.get(j, zero) for j in range(3))
    y = MPoly.variable(n, var_index)
    if e <= 2:
        g02 = g_0 * g_2
        terms = _closed_form_terms(g_0, g_1, g_2, g02, d)
        _refuse_above(d * d * terms, _CLOSED_FORM_WORK_LIMIT, d)
        if e <= 1:
            norm = g_0**d - (-g_1) ** d * y
        else:
            s_prev, s = MPoly.constant(n, 2), -g_1
            for _ in range(d - 1):
                s_prev, s = s, -g_1 * s - g02 * s_prev
            norm = g_2**d * y * y - s * y + g_0**d
    else:
        box = (e + 1) * prod(d * g0.degree_in(v + 1) + 1 for v in range(n) if v != k0)
        _refuse_above(d * d * box, _INTERPOLATION_WORK_LIMIT, d)
        pcs = [MPoly.one(n)] + [zero] * (d - 1) + [-y]
        qcs = [coeffs.get(e - j, zero) for j in range(e + 1)]
        norm = _det_by_interpolation(pcs, qcs, *_norm_nodes(g0, var_index, d))
    out = norm.shift(tuple(x if j == k0 else d * x for j, x in enumerate(mins)))
    if ((d + 1) * mins[k0]) % 2:
        out = -out
    return out


def _smith_norm(f: MPoly, snf) -> MPoly:
    """Product h of f over the scalings that alpha_M kills, for the Smith
    form P M Q = D, written in Y_k = y_k^(d_k): f moved along P, then one
    norm per invariant factor d_k > 1. The group product of f is h
    composed with alpha_(P^-1 D) = alpha_(M Q)."""
    h = substitute_monomial(f, snf.P)
    for k, dk in enumerate(snf.invariant_factors):
        if dk > 1:
            h = _unit_root_product(h, k + 1, dk)
    return h


def group_product(f: MPoly, M: IntMatrix) -> MPoly:
    """Product of f over the |det M| coordinate scalings that alpha_M kills.

    In Smith coordinates P M Q = D the group is an independent product of
    root-of-unity scalings, one per invariant factor, and the product is
    the Smith norm h composed with alpha_(M Q), as M Q = P^-1 D. The
    result has integer coefficients again, and is f itself for unimodular
    M. Laurent input gives the Laurent product: each of the |det M|
    factors carries the monomial of f, up to a root of unity.
    """
    if not M.is_square or M.rows != f.n_vars:
        raise ValueError("matrix shape mismatch")
    det = M.det()
    if det == 0:
        raise ValueError("singular matrix")
    if abs(det) == 1 or not f:
        return f
    snf = smith_normal_form(M)
    return substitute_monomial(_smith_norm(f, snf), M * snf.Q)


def transfer(delta2: MPoly, M: IntMatrix):
    """Defining polynomial across a finite-index change of exponent
    lattice.

    For C1 = C2 * M this turns the (primitive) defining polynomial of the
    C2-hypersurface into the pair (delta1, v) with

        delta1(alpha_M(y)) = y^v * prod over the scaling group of delta2,

    v a vector in the column lattice of M. The group product is the Smith
    norm h composed with alpha_(M Q), so delta1 is h composed with
    alpha_Q, as M^-1 P^-1 D = Q, once minimal exponents e are cleared;
    v = M (-e) lies in the lattice by construction."""
    if not M.is_square or M.rows != delta2.n_vars:
        raise ValueError("matrix shape mismatch")
    if M.det() == 0:
        raise ValueError("singular matrix")
    if not delta2:
        raise ValueError("zero input")
    if delta2.content() != 1:
        raise ValueError("input polynomial is not primitive")
    snf = smith_normal_form(M)
    mins, out = substitute_monomial(_smith_norm(delta2, snf), snf.Q).split_monomial()
    v = M.mul_vec([-x for x in mins])
    c, prim = content_primitive(out)
    if c != 1:
        raise ValueError("transfer consistency failure: content %d" % c)
    return prim, v


def homogenize(delta: MPoly, B: IntMatrix) -> MPoly:
    """Push the defining polynomial through the exponent embedding B.

    Each term exponent e maps to B e (B of full column rank, so terms stay
    distinct); minimal exponents are cleared and the result normalized.
    Term count and the coefficient multiset are untouched."""
    if B.cols != delta.n_vars:
        raise ValueError("matrix shape mismatch")
    if B.rows < B.cols or gcd_maximal_minors(B) == 0:
        raise ValueError("rank deficient")
    if not delta:
        raise ValueError("zero input")
    terms = {tuple(B.mul_vec(e)): c for e, c in delta.terms.items()}
    _, prim = content_primitive(MPoly(B.rows, terms).split_monomial()[1])
    return prim
