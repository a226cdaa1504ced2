"""Test-only references for maps the library does not need: seeded
integer points off the arrangement, psi at a rational point, the monomial
map alpha_M at a rational point, the commuting triangle relating the
parametrizations of C1 = C2 * M, integer solving in a column lattice, a
canonical basis of a column lattice, the gcd of maximal minors by
enumerating them, the diagonal matrix of a Smith form, LLL reduction over
`Fraction`, the 4-variable `MPoly` pencils of a curve and the
implicitization on the basis C is written in, the group product on the
basis the Smith form comes with, the scaled gradient over `Fraction` that
the library's integer Gauss check is held against, the base points of a
surface pencil enumerated and sorted over `Fraction` and the pencil
localized at one of them, the lower hull by brute force over segments,
the edges of a Newton polygon sorted by angle in integers and the rows of
C turned to match them, the work estimate of a norm of degree e <= 2 with
the product G0 G2 formed, and for polynomials: the monomial y_i, the
coefficients in one variable, the projection onto some of the variables,
and the normal form taken term by term.
"""

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, prod

import sympy
from sympy.matrices.normalforms import hermite_normal_form

from galedisc.discriminant import _unit_root_product
from galedisc.intmat import IntMatrix, smith_normal_form
from galedisc.mpoly import MPoly, _substitute, sylvester_resultant
from galedisc.parametrization import _forms_at, build, primitive_direction


def variable(n_vars: int, var_index: int) -> MPoly:
    """The monomial y_i in n_vars variables, var_index 1-based."""
    e = [0] * n_vars
    e[var_index - 1] = 1
    return MPoly(n_vars, {tuple(e): 1})


def coeffs_in(p: MPoly, var_index: int) -> dict:
    """The coefficients of p in y_i, var_index 1-based: a dict from the
    exponent k of y_i to the coefficient of y_i^k, with y_i cleared."""
    i, out = var_index - 1, {}
    for e, c in p.terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1 :]] = c
    return {k: MPoly(p.n_vars, t) for k, t in out.items()}


def project(p: MPoly, keep) -> MPoly:
    """p on the variables keep, 1-based and in that order; ValueError when
    a variable left out occurs in p."""
    if any(x for e in p.terms for i, x in enumerate(e, 1) if i not in keep):
        raise ValueError("projection drops a live variable")
    return MPoly(len(keep), {tuple(e[i - 1] for i in keep): c for e, c in p.terms.items()})


def plain_normal_form(p: MPoly):
    """(mins, content, prim) with p = content * y^mins * prim, content > 0
    and the graded-lex minimal term of prim positive, each part taken from
    its definition: the reference `mpoly._normal_form` is held to. Graded
    lex compares total degree, then the exponents from the last variable
    back; a monomial shift keeps that order, so the sign is read on p."""
    mins = tuple(min(e[i] for e in p.terms) for i in range(p.n_vars))
    content = gcd(*p.terms.values())
    lowest = min(p.terms, key=lambda e: (sum(e), e[::-1]))
    unit = content if p.terms[lowest] > 0 else -content
    prim = MPoly(p.n_vars, {tuple(x - m for x, m in zip(e, mins)): c // unit for e, c in p.terms.items()})
    return mins, content, prim


def monomial_map(M: IntMatrix, y):
    """alpha_M at a rational point: coordinate j is y^(column j of M)."""
    vals = [Fraction(x) for x in y]
    out = []
    for j in range(M.cols):
        v = Fraction(1)
        for k in range(M.rows):
            e = M.entries[k][j]
            if e:
                if vals[k] == 0 and e < 0:
                    raise ValueError("pole in monomial map")
                v *= vals[k] ** e
        out.append(v)
    return tuple(out)


def psi_at(spec, u):
    """psi at a rational point off the arrangement, in Fractions: coordinate
    k is prod_i l_i(u)^(c_ik)."""
    forms = _forms_at(spec.C, [Fraction(x) for x in u])
    return tuple(prod(l**c for l, c in zip(forms, col) if c) for col in zip(*spec.C.entries))


def sample_off_arrangement(spec, rng: random.Random, bound=10000):
    """A random integer point with every form nonzero (so u != 0), each
    coordinate drawn by rng.randint(-bound, bound): the seeded points the
    tests evaluate psi at."""
    for _ in range(1000):
        u = tuple(rng.randint(-bound, bound) for _ in range(spec.m))
        if all(_forms_at(spec.C, u)):
            return u
    raise ValueError("could not sample a point off the arrangement")


def diagram_check(C1: IntMatrix, C2: IntMatrix, M: IntMatrix, trials=20, seed=0):
    """Sampled check that psi_C1(u) = alpha_M(psi_C2(M u)) when C1 = C2 * M.

    The C2-forms at M u are the C1-forms at u, so M u is off the
    C2-arrangement whenever u is off the C1-arrangement."""
    if C2 * M != C1:
        raise ValueError("matrix relation C2 * M = C1 violated")
    s1 = build(C1)
    s2 = build(C2)
    rng = random.Random(seed)
    for _ in range(trials):
        u = sample_off_arrangement(s1, rng)
        if monomial_map(M, psi_at(s2, M.mul_vec(u))) != psi_at(s1, u):
            return False
    return True


def smith_diagonal(snf) -> IntMatrix:
    """D = P M Q of a Smith form P M Q = D, n x k for P n x n and Q k x k:
    zero off its diagonal, which holds the invariant factors."""
    f = snf.invariant_factors
    return IntMatrix([[f[i] if i == j else 0 for j in range(snf.Q.rows)] for i in range(snf.P.rows)])


def solve_in_lattice(m: IntMatrix, v):
    """Integer x with m x = v, or None when v is outside the column lattice
    of the nonsingular m: x = adj(m) v / det(m), so v is in the lattice
    exactly when adj(m) v is 0 mod det(m)."""
    det = m.det()
    if det == 0:
        raise ValueError("singular matrix")
    adj = sympy.Matrix(m.to_lists()).adjugate()
    w = [int(x) for x in adj * sympy.Matrix(v)]
    if any(x % det for x in w):
        return None
    return tuple(x // det for x in w)


def gcd_maximal_minors_by_enumeration(c: IntMatrix) -> int:
    """gcd of all C(rows, cols) maximal minors of a tall c, each its own
    determinant: the definition, against which the Smith form's product
    of invariant factors is held."""
    g = 0
    for rows in combinations(range(c.rows), c.cols):
        g = gcd(g, IntMatrix([c.entries[i] for i in rows]).det())
    return g


def hermite_column_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice of an m of full column rank,
    sympy's Hermite normal form: two such matrices span the same lattice
    iff these agree."""
    h = hermite_normal_form(sympy.Matrix(m.to_lists()))
    return IntMatrix([[int(x) for x in row] for row in h.tolist()])


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


def pencils(C: IntMatrix):
    """The cleared equations den_k(u) * y_k - num_k(u) in Z[u1,u2,y1,y2] of
    the n x 2 matrix C, as products of `MPoly` powers of the linear forms."""
    n_vars = 4
    out = []
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
        y = variable(n_vars, 3 + k)
        out.append(den * y - num)
    return out


def set_var_one(p: MPoly, var_index: int) -> MPoly:
    """Substitute 1 for one variable (1-based) of p, merging terms."""
    if not 1 <= var_index <= p.n_vars:
        raise ValueError("variable index out of range")
    i = var_index - 1
    t = {}
    for e, c in p.terms.items():
        e2 = e[:i] + (0,) + e[i + 1 :]
        nc = t.get(e2, 0) + c
        if nc:
            t[e2] = nc
        else:
            del t[e2]
    return MPoly(p.n_vars, t)


def implicitize_unreduced(spec) -> MPoly:
    """The implicitization on the basis C is written in, without the
    library's checks: the pencils of C at u2 = 1, their Sylvester resultant
    in u1, freed of its monomial factor and content and sign-normalized."""
    p, q = (set_var_one(g, 2) for g in pencils(spec.C))
    return plain_normal_form(project(sylvester_resultant(p, q, 1), (3, 4)))[2]


def partial_derivative(p: MPoly, var_index: int) -> MPoly:
    """d/dy_i with var_index 1-based; valid for Laurent terms too."""
    if not 1 <= var_index <= p.n_vars:
        raise ValueError("variable index out of range")
    i = var_index - 1
    t = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
        nc = t.get(e2, 0) + c * e[i]
        if nc:
            t[e2] = nc
        else:
            del t[e2]
    return MPoly(p.n_vars, t)


def gauss_map(delta: MPoly, y):
    """Scaled gradient (y_1 d_1 delta, ..., y_m d_m delta) at a rational
    point, in Fractions."""
    if len(y) != delta.n_vars:
        raise ValueError("point length mismatch")
    vals = tuple(
        Fraction(y[k - 1]) * partial_derivative(delta, k).evaluate(y)
        for k in range(1, delta.n_vars + 1)
    )
    if all(v == 0 for v in vals):
        raise ValueError("Gauss map undefined here: all scaled partials vanish")
    return vals


def gauss_inverse_check_fraction(spec, delta: MPoly, trials=20, seed=0) -> bool:
    """gauss_inverse_check as it ran over Fractions: gauss_map at psi(u),
    resampling where it is undefined, then proportionality to u and
    delta(psi(u)) = 0."""
    if delta.n_vars != spec.m:
        raise ValueError("variable count mismatch")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    for _ in range(trials):
        for _attempt in range(50):
            u = sample_off_arrangement(spec, rng)
            y = psi_at(spec, u)
            try:
                g = gauss_map(delta, y)
            except ValueError:
                continue
            break
        else:
            raise ValueError("could not find a smooth parametrized point")
        for i in range(spec.m):
            for j in range(i + 1, spec.m):
                if g[i] * u[j] != g[j] * u[i]:
                    return False
        if delta.evaluate(y) != 0:
            return False
    return True


def group_product_on_smith_basis(f: MPoly, M: IntMatrix) -> MPoly:
    """The group product on the basis P M Q = D that the Smith form comes
    with, without choosing a shorter norm row: f moved along P, one norm
    per invariant factor d_k > 1, then composed with alpha_(M Q)."""
    if abs(M.det()) == 1 or not f:
        return f
    snf = smith_normal_form(M)
    h = _substitute(f, snf.P)
    for k, dk in enumerate(snf.invariant_factors):
        if dk > 1:
            h = _unit_root_product(h, k + 1, dk)
    return _substitute(h, M * snf.Q)


# The base point enumeration as it ran on Fraction coordinates: each
# crossing is normalized to first nonzero coordinate 1, the vanishing set is
# read off by rational dot products, and the points sort as Fractions.


def oracle_normalize_point(p):
    idx = next((i for i, x in enumerate(p) if x != 0), None)
    if idx is None:
        return None
    lead = Fraction(p[idx])
    return tuple(Fraction(x) / lead for x in p)


def oracle_vanishing_at(C, coords):
    return tuple(
        i + 1
        for i, row in enumerate(C.entries)
        if sum(c * x for c, x in zip(row, coords)) == 0
    )


def oracle_base_points(spec):
    """(coords, vanishing) of every base point, sorted by coords."""
    C = spec.C
    seen = {}
    for i, j in combinations(range(spec.n), 2):
        a, b = C.entries[i], C.entries[j]
        p = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        coords = oracle_normalize_point(p)
        if coords is not None and coords not in seen:
            seen[coords] = oracle_vanishing_at(C, coords)
    return sorted(
        (coords, vanishing)
        for coords, vanishing in seen.items()
        if all(
            any(spec.numer_exps[k][i - 1] > 0 for i in vanishing)
            for k in range(spec.m + 1)
        )
    )


def oracle_localize(spec, coords):
    """The pencil localized at a base point, over Fractions: (vanishing,
    directions, per_form, gens, monomial). The vanishing forms fall into
    direction classes, in order of first appearance; per_form holds, for
    each pencil member, its exponent on each class and whether it has a
    factor that does not vanish there (a unit); gens are the distinct
    exponent vectors, minimal ones only when at most two classes meet, as
    the ideal is then monomial."""
    vanishing = oracle_vanishing_at(spec.C, coords)
    van0 = [i - 1 for i in vanishing]
    cls_of = {}
    for i in van0:
        cls_of.setdefault(primitive_direction(spec.C.entries[i])[0], len(cls_of))
    per_form = []
    for exps_k in spec.numer_exps:
        exps = [0] * len(cls_of)
        for i in van0:
            exps[cls_of[primitive_direction(spec.C.entries[i])[0]]] += exps_k[i]
        unit = any(exps_k[i] > 0 for i in range(spec.n) if i not in van0)
        per_form.append((tuple(exps), unit))
    gens = {exps for exps, _ in per_form}
    monomial = len(cls_of) <= 2
    if monomial:
        gens = {
            g
            for g in gens
            if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens)
        }
    return vanishing, tuple(cls_of), tuple(per_form), tuple(sorted(gens)), monomial


def minimal_by_dominance(points):
    """The minimal int pairs by their definition, sorted, each once: every
    pair that no other pair is below in both coordinates, by a scan over
    all pairs. Of nonnegative pairs, the minimal generators."""
    pts = set(points)
    return tuple(
        sorted(
            p
            for p in pts
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
        )
    )


def lower_hull_by_segments(points):
    """The points that a strict lower hull keeps, by brute force over a list
    of distinct points sorted by (x, y): the first and the last stay, and
    any other point p stays unless some segment from a point before p to a
    point after p meets the vertical through p on or below it."""

    def on_or_below(a, b, p):  # a <= p <= b in (x, y) order
        return (p[1] - a[1]) * (b[0] - a[0]) >= (b[1] - a[1]) * (p[0] - a[0])

    return [
        p
        for k, p in enumerate(points)
        if not any(on_or_below(a, b, p) for a in points[:k] for b in points[k + 1 :])
    ]


def by_angle(vectors):
    """Nonzero plane vectors sorted counterclockwise from the positive x
    axis, in integers: first the half-plane, y > 0 or y = 0 < x before the
    rest, then v before w when the cross product v x w is positive."""

    def lower(v):
        return v[1] < 0 or (v[1] == 0 and v[0] < 0)

    def order(v, w):
        return lower(v) - lower(w) or w[0] * v[1] - w[1] * v[0]

    return sorted(vectors, key=cmp_to_key(order))


def newton_polygon_edges(p: MPoly):
    """The edge vectors of the Newton polygon of the two-variable p, each
    the sum of the hull steps along one direction, sorted `by_angle`.

    The hull is Andrew's monotone chain over the sorted support, keeping
    the points on an edge, so the steps along an edge are merged here by
    their primitive direction. A segment gives two opposite edges and a
    point none."""
    points = sorted(p.terms)

    def chain(points):
        out = []
        for q in points:
            while len(out) > 1 and (
                (out[-1][0] - out[-2][0]) * (q[1] - out[-1][1])
                < (out[-1][1] - out[-2][1]) * (q[0] - out[-1][0])
            ):
                out.pop()
            out.append(q)
        return out

    ring = chain(points)[:-1] + chain(points[::-1])[:-1]
    edges = {}
    for a, b in zip(ring, ring[1:] + ring[:1]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = gcd(dx, dy)
        x, y = edges.get((dx // g, dy // g), (0, 0))
        edges[dx // g, dy // g] = (x + dx, y + dy)
    return by_angle(edges.values())


def turned_rows(rows):
    """The rows (c_i1, c_i2) of an n x 2 matrix turned to (c_i2, -c_i1),
    sorted `by_angle`: for C without proportional rows, the edges of the
    Newton polygon of its Delta (Dickenstein-Sturmfels, J. Symbolic
    Comput. 34, 2002)."""
    return by_angle((c2, -c1) for c1, c2 in rows)


def power_by_products(p: MPoly, d: int) -> MPoly:
    """p^d as d - 1 products, the reference for `MPoly.__pow__`."""
    out = MPoly.one(p.n_vars)
    for _ in range(d):
        out = out * p
    return out


def closed_form_terms(g_0: MPoly, g_1: MPoly, g_2: MPoly, g02: MPoly, d: int) -> int:
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


def norm_work_by_products(g: MPoly, var_index: int, d: int) -> int:
    """The work estimate of the norm of order d of g in y_k, k = var_index,
    of degree e <= 2 once its monomial factor is split off, from the terms
    of G0, G1, G2 and the product G0 * G2: d^2 times `closed_form_terms`.
    It is the reference for the library's estimate, which reads the boxes
    of G0, G1 and G2 alone."""
    coeffs = coeffs_in(g.split_monomial()[1], var_index)
    if max(coeffs) > 2:
        raise ValueError("degree above 2")
    g_0, g_1, g_2 = (coeffs.get(j, MPoly(g.n_vars)) for j in range(3))
    return d * d * closed_form_terms(g_0, g_1, g_2, g_0 * g_2, d)
