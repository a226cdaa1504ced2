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
back to C's own basis. They are built at u2 = 1 from integer coefficient
lists, one convolution per linear form, and each uses one y_k only, so the
resultant engine evaluates each once per line of its nodes; it packs one
y_k as a power of two, so a line of nodes takes one integer resultant. The
forms are written on a reduced basis of the lattice the rows span, which
divides the resultant by that lattice's index to the power ab, for pencil
degrees a and b (`_row_lattice_forms`). The pencils are products of linear
forms, so the resultant's two end lines along the interpolated y come in
closed form, as products of powers of resultants against single forms
(`_end_lines`), and the engine takes no integer resultant for them.
No defect test is needed, as without proportional rows psi always
parametrizes a curve, and no square-free pass, as the Horn-Kapranov
parametrization is birational: the resultant is the defining polynomial
to the first power, and the degree check rejects anything else. Nor is a
sampled vanishing check, as the resultant vanishes on psi by construction:
at y = psi(u) the two pencils share the root u. The Gauss check
certifies a given polynomial against the parametrization: it must vanish
on psi, and its logarithmic Gauss map must invert psi. It evaluates in
integers, on the terms at psi(u) times one common factor F, from the
forms' values at u, each term's value weighted by its exponents
(`_cleared_terms`), on a fixed point set.

Nested exponent lattices are handled by transfer: when C1 = C2 * M the two
defining polynomials determine each other through the monomial coordinate
change alpha_M and a product over the finite group of coordinate scalings
killed by it, taken as one norm per invariant factor of the Smith form on
a basis whose norm row spans least over the support among the primitive
rows (`_norm_basis`, `_least_primitive`). A norm of g down to Y = y_k^d
is G_e^d prod_i (r_i^d - Y) over the roots r_i of g in y_k, up to sign,
so it is formed in closed form for every degree e: its ends are powers
of g's end coefficients, and its middle coefficients come from the power
sums of the roots by Newton's identities (`_unit_root_product`), on
Kronecker-packed integers once they are dense, and from the first step
where the first power sum is. g's terms are read once, into its
coefficients G_j as plain dicts, and the norm's terms are written once,
with the Laurent shift and its sign. No resultant is taken.
"""

from __future__ import annotations

from functools import partial
from math import comb, gcd, prod
from operator import add, getitem, mul, sub

from .basepoints import _minimal
from .degree import _chain
from .intmat import IntMatrix, _l1_step, gcd_maximal_minors, l1_reduce, smith_normal_form
from .mpoly import (
    MPoly,
    _dense_at,
    _int_text,
    _kronecker,
    _normal_form,
    _packed,
    _refuse_resultant,
    _substitute,
    _term_product,
    sylvester_resultant,
)
from .parametrization import ParamSpec, _certificate_points, _direction_classes, _forms_at

# The map (u1, y1, y2) -> (y1, y2) of exponents, which drops u1.
_DROP_U1 = IntMatrix([[0, 1, 0], [0, 0, 1]])


# -- implicitization (m = 2) --------------------------------------------------


def _affine_pencils(C: IntMatrix, W: IntMatrix):
    """The cleared equations den_k(u1) * y_k - num_k(u1) of the n x 2
    matrix C at u2 = 1, in Z[u1, y1, y2], on the forms of the rows of W.

    num_k and den_k are the products of the forms w_i1 u1 + w_i2 to the
    powers |c_ik| over the rows with c_ik > 0 and c_ik < 0 (`_num_den`)."""
    pencils = []
    for k in range(2):
        num, den = _num_den(C.col(k), W.entries)
        y = (0, 1, 0) if k == 0 else (0, 0, 1)
        terms = [((j, y[1], y[2]), c) for j, c in enumerate(den)]
        terms += [((j, 0, 0), -c) for j, c in enumerate(num)]
        pencils.append(MPoly(3, terms))
    return pencils


def _num_den(col, forms):
    """(num, den): the products of the forms r0 t + r1 of forms to the
    powers |c| over the entries c > 0 and c < 0 of col, as integer
    coefficient lists ascending in t: each power by the binomial theorem,
    then one convolution per form."""
    num, den = [1], [1]
    for c, (r0, r1) in zip(col, forms):
        if c:
            a = abs(c)
            power = [comb(a, j) * r0**j * r1 ** (a - j) for j in range(a + 1)]
            if c > 0:
                num = _convolve(num, power)
            else:
                den = _convolve(den, power)
    return num, den


def _convolve(a, b):
    """Product of two polynomials given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _row_lattice_forms(E: IntMatrix) -> IntMatrix:
    """W with E = W T for an integer T with |det T| = g, the index of the
    lattice that E's rows span in Z^2, and W's columns l1-reduced: the
    linear forms of E's rows written on that lattice's basis.

    Euclid's steps on the first coordinates of each row and a running
    basis vector, which are unimodular, leave the Hermite basis
    (a, t), (0, h) of the lattice, h the gcd of the vectors with first
    coordinate 0 they shed; then w_i1 = e_i1 / a and
    w_i2 = (e_i2 - w_i1 t) / h. For g = 1, E is its own W."""
    a = b = h = 0
    for x, y in E.entries:
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        h = gcd(h, y)
    if abs(a) * h == 1:
        return E
    if a < 0:
        a, b = -a, -b
    t = b % h
    W = IntMatrix([(x // a, (y - x // a * t) // h) for x, y in E.entries])
    return W * l1_reduce(W)


def _end_lines(pencils, E: IntMatrix, W: IntMatrix, w: int):
    """(R at y_w = 0, R's coefficient of y_w^top) for the resultant R in u1
    of pencils = `_affine_pencils(E, W)`, w the 1-based index of y1 or y2
    in Z[u1, y1, y2] and top the pencil degree of the other y.

    Name f = den_f y - num_f the pencil of the other y, of degree d_f in
    u1, h the one of y_w, and l_i = w_i1 u1 + w_i2. A resultant is
    multiplicative in each argument, and for G of formal degree g with
    coefficients G_j, Res(G, l_i) = (-1)^g sum_j G_j (-w_i2)^j w_i1^(g - j),
    linear in G: one homogeneous Horner pass. So with
    L_i = Res(f, l_i) = Res(den_f, l_i) y - Res(num_f, l_i), Res(f, h) at
    y_w = 0 is (-1)^d_f prod over e_ih > 0 of L_i^e_ih, its top
    coefficient in y_w is prod over e_ih < 0 of L_i^(-e_ih), and
    R = Res(p, q) is (-1)^(dp dq) Res(q, p) when f is q."""
    kh = w - 2
    f = pencils[1 - kh]
    df = f.degree_in(1)
    y = (1, 0) if kh else (0, 1)
    # (den_j, -num_j) from the top down, for both Horner passes at once
    pairs = [(f.terms.get((j,) + y, 0), f.terms.get((j, 0, 0), 0)) for j in range(df, -1, -1)]
    sign = -1 if kh == 0 and df * pencils[0].degree_in(1) % 2 else 1
    forms = []
    for (x, z), c in zip(W.entries, E.col(kh)):
        a = b = 0
        if c:
            power = 1
            for d, n in pairs:
                a, b, power = a * -z + d * power, b * -z + n * power, power * x
        forms.append((-a, -b) if df % 2 else (a, b))

    def line(coeffs, s):
        terms = {tuple([j * (v == 2 - kh) for v in range(3)]): s * c for j, c in enumerate(coeffs) if c}
        return MPoly._valid(3, terms)

    num, den = _num_den(E.col(kh), forms)
    return line(num, -sign if df % 2 else sign), line(den, sign)


def implicitize(spec: ParamSpec) -> MPoly:
    """Defining polynomial of the closure of the image of psi, for m = 2.

    Requires a matrix without proportional rows (merge first); then the
    image is always a curve, so no defect test runs. The resultant is
    taken on the 1-norm-reduced basis C * U of the column lattice
    (`l1_reduce`): the pencils' u-degrees are half the 1-norms of the
    columns, and the reduced columns reach both successive minima, so the
    Sylvester matrix is as small as any basis allows and no cost estimate
    is needed to choose the basis. The pencils come as integer coefficient
    lists in u1 at u2 = 1 (`_affine_pencils`), on the forms of the rows'
    lattice (`_row_lattice_forms`): with C * U = W T, the forms of C * U
    are those of W composed with T, so the resultant on W's forms is the
    one on C * U's divided by det(T)^(ab), a constant that the content
    removal below drops anyway. Each pencil is evaluated once per line of
    interpolation nodes, as it uses only its own y_k, and the engine takes
    the two end lines along its interpolated y in closed form
    (`_end_lines`). Freed of
    its content and monomial factor and sign-normalized, the resultant is
    the defining polynomial on C * U: psi is birational onto its image, so
    it is the defining polynomial to the first power and needs no
    square-free pass. Since psi_(C U)(u) = alpha_U(psi_C(U u)), the
    polynomial comes back to C by the monomial substitution alpha_U.
    The degree count, which rejects any power, runs on the result over C.
    No point of psi is sampled: at y = psi(u) the pencils share the root
    u, so the resultant vanishes on the image by construction.
    """
    if spec.m != 2:
        raise ValueError("implicitization needs m = 2")
    if len(_direction_classes(spec.C.entries)) < spec.n:
        raise ValueError("proportional rows present: merge them first")
    # No defect test is needed: without proportional rows the image is a
    # curve. The log-Jacobian J kills u, so its rank is at most 1, and
    # J_11 = sum_i c_i1^2 / l_i(u) never vanishes identically: at u2 = 1
    # each row with c_i1 != 0 gives it a pole at u1 = -c_i2 / c_i1 with
    # residue c_i1, the poles are pairwise distinct, and at most one row
    # has c_i1 = 0.

    U = l1_reduce(spec.C)
    E = spec.C * U
    # Setting u2 = 1 keeps each pencil's u1-degree: with no two rows
    # proportional, at most one row has c_i1 = 0, and that row divides only
    # one of num_k and den_k, so the other keeps its top term in u1. C * U
    # has proportional rows only where C does. So the u1-degrees are half
    # the columns' 1-norms, as the columns sum to 0, and the work estimate
    # of `sylvester_resultant` is refused here, before the binomials of
    # the pencils, which are as long as those degrees, are expanded.
    a, b = (sum(map(abs, E.col(k))) // 2 for k in range(2))
    _refuse_resultant(a + b, (a + 1) * (b + 1))
    # W's rows are E's times T^-1, so no two are proportional either, and
    # the pencils on W's forms keep the same u1-degrees
    W = _row_lattice_forms(E)
    pencils = _affine_pencils(E, W)
    resultant = sylvester_resultant(*pencils, 1, ends=partial(_end_lines, pencils, E, W))
    if not resultant:
        raise ValueError(
            "implicitization validation failed: resultant vanished identically"
        )
    # the resultant is free of u1, so dropping it and then moving by the
    # unimodular U keeps the terms apart
    delta = _normal_form(resultant, U * _DROP_U1)[2]

    if delta.total_degree() != spec.d:
        raise ValueError(
            "implicitization validation failed: degree %d, expected %d"
            % (delta.total_degree(), spec.d)
        )
    return delta


# -- the Gauss check in integers ----------------------------------------------


def _powers(f: int, xs, low: int = 0) -> dict:
    """x -> f^(x - low) for each x of xs, all >= low, by running products
    over the distinct xs in increasing order, each step a power of f to
    the gap: one small product per exponent on a dense run, and no more
    powers than terms on a sparse one."""
    out, p = {}, 1
    for x in sorted(set(xs)):
        p *= f ** (x - low)
        out[x] = p
        low = x
    return out


def _cleared_terms(spec: ParamSpec, delta: MPoly, forms) -> dict:
    """e -> F * c_e * y^e for each term c_e y^e of delta, at y = psi(u) for
    an integer point u, given by the values `forms` of the linear forms
    l_i there: one common factor F makes every value an integer, for any m
    and for Laurent delta.

    With f_k(u) = prod_i l_i(u)^numer_exps[k][i] each y_k is f_k / f_0, so
    F = f_0^D * prod_k f_k^(-a_k), for D = max_e |e| and
    a_k = min(0, min_e e_k), turns the term into
    c_e f_0^(D - |e|) prod_k f_k^(e_k - a_k), each power taken from a
    table over the exponents that occur (`_powers`): forms in u, defined on
    the arrangement too. Off it F != 0, so a sum of the values vanishes
    exactly when the same sum of the terms does at psi(u). For delta of
    degree spec.d without negative exponents F = f_0^d."""
    terms = delta.terms
    if not terms:
        return {}
    f0, *fs = (prod(map(pow, forms, row)) for row in spec.numer_exps)
    degs = list(map(sum, terms))
    top = max(degs)
    p0 = _powers(f0, [top - s for s in degs])
    tables = [_powers(f, col, min(0, *col)) for f, col in zip(fs, zip(*terms))]
    return {
        e: c * p0[top - s] * prod(map(getitem, tables, e))
        for (e, c), s in zip(terms.items(), degs)
    }


# Work bound checked before the Gauss check walks its points: points times
# terms times the bits b of a term's value (N - 1 form values, each under
# 2^m N sum_j |c_ij|), weighted by 1 + b / 2^14 for long products. A unit
# took 1.1e-9 to 2.3e-9 s on a 2-core Xeon (CPython 3.11): 1.8 s for a
# degree-19 curve's square (1.7e9), 5.7 s for a degree-50 curve (2.5e9).
_GAUSS_WORK_LIMIT = 3 * 10**9


def gauss_inverse_check(spec: ParamSpec, delta: MPoly) -> bool:
    """Check that delta vanishes on psi and its scaled gradient inverts psi.

    At y = psi(u), delta must vanish and the vector (y_k d_k delta) must be
    proportional to u; that pins delta down as the defining polynomial of
    the image (up to factors), as the log Gauss map inverts psi (Kapranov,
    Math. Ann. 290, 1991). It is taken in integers, times the common
    factor F of `_cleared_terms`: the sum F delta(psi(u)) of the cleared
    terms and g_k = sum_e e_k F c_e y^e are forms in u of degree
    d (D - sum_k a_k), so they and the minors g_i u_j - g_j u_i, forms of
    degree N = that + 1, vanish iff they do on `_certificate_points` of
    degree N. Returns False on the first nonzero minor, or once the walk
    has met both a nonzero sum and a nonzero g. Raises ValueError when g
    vanishes on every point, and before any point when the work is large.
    """
    if delta.n_vars != spec.m:
        raise ValueError("variable count mismatch")
    terms = delta.terms
    lows = [min(0, *col) for col in zip(*terms)]
    N = spec.d * (max(map(sum, terms), default=0) - sum(lows)) + 1
    points = comb(N + spec.m - 1, spec.m - 1)
    bits = N * (max(sum(map(abs, row)) for row in spec.C.entries) * N << spec.m).bit_length()
    work = points * len(terms) * bits * (bits + 2**14) >> 14
    if work > _GAUSS_WORK_LIMIT:
        sizes = (*map(_int_text, (points, len(terms), bits, work)), _GAUSS_WORK_LIMIT)
        raise ValueError("Gauss check too large: %s points of %s terms of about %s bits need about %s "
                         "operations, above the limit of %d" % sizes)
    smooth = off = False
    for u in _certificate_points(N, spec.m):
        values = _cleared_terms(spec, delta, _forms_at(spec.C, u))
        g = [sum(e[k] * v for e, v in values.items()) for k in range(spec.m)]
        if any(g[i] * u[j] != g[j] * u[i] for i in range(spec.m) for j in range(i)):
            return False
        smooth = smooth or any(g)
        off = off or sum(values.values()) != 0
        if smooth and off:
            return False
    if not smooth:
        raise ValueError("could not find a smooth parametrized point")
    return True


# -- products over scaling groups and lattice transfer ------------------------


# Work bound checked before a norm is formed, so that a huge invariant
# factor d is refused at once (`_refuse_norm`). On a 2-core Xeon under
# CPython 3.11, just under the limit, the closed form of Delta_B under
# diag(1, 1500) (e = 2, 8.4e9) took 11.5 s, and the power sums of
# 1 + y + y^3 of order 27000 (8.9e9) 0.2 s, of 1 + y1 t + t^2200 of order 2
# (9.8e9) 0.5 s, and of the B_low13 shape of order 300 (9.7e9) 0.8 s. Where
# the box is large against the steps, the products that turn the power sums
# into coefficients dominate, and run up to ten times slower per unit:
# (2 y1 - y2 + 3 y1 y2) t^5 + t^2 - 2 y1 t + 1 of order 60 (8.6e8) took
# 0.6 s. Far under it, 1 + y + y^3 of order 3535 (1.7e8) takes 0.02 s.
_CLOSED_FORM_WORK_LIMIT = 10**10


def _refuse_norm(box: dict, tops, d: int) -> None:
    """Raise ValueError when the norm of order d of sum_j G_j t^j is
    estimated above _CLOSED_FORM_WORK_LIMIT, from the table box of
    `_unit_root_product` and tops = `_middle_tops`, before any product.

    For e <= 2, d steps on coefficients of up to about d bits over the
    terms that G0^d, s_d and G2^d can hold: the monomials in the bounding
    box of each, a product of d steps, a step of s_d being a factor G1 or
    half of a factor G0 G2, whose box is the sum of theirs, as over Z the
    extreme terms of a product multiply to a nonzero term. That bounds the
    packed steps too, which start only once a part holds a term per
    _PACK_DENSITY digit positions of its box. For e >= 3, the (e - 1) d
    steps of the power sums (`_middle`), each of e products on integers of
    about K times box bits: box the digit positions of tops, K the bits of
    |g|_1^d, taken as d times those of |g|_1. Those steps also bound the
    e^2 / 2 products that turn the power sums into coefficients
    (`_elementary`)."""
    e = max(box)
    if e <= 2:
        # the corners of each part's step, in half steps: 2 G0, 2 G2, and for s_d 2 G1 and G0 G2
        half = {j: [[2 * x for x in c] for c in b[:2]] for j, b in box.items()}
        parts = [half[0], half.get(2, []), half.get(1, [])]
        if 2 in box:
            parts[2] = parts[2] + [list(map(add, *c)) for c in zip(box[0][:2], box[2][:2])]
        work = d * d * sum(prod(d * (max(c) - min(c)) // 2 + 1 for c in zip(*p)) for p in parts if p)
    else:
        bits = d * sum(l1 for _, _, l1 in box.values()).bit_length()
        # a product costs the interpreter about what 1000 bits of arithmetic do
        work = (e - 1) * d * e * (bits * prod(t + 1 for t in tops) + 1000)
    if work > _CLOSED_FORM_WORK_LIMIT:
        raise ValueError(
            "group product too large: a norm of order %s needs about %s "
            "operations, above the limit of %d" % (_int_text(d), _int_text(work), _CLOSED_FORM_WORK_LIMIT)
        )


def _count_below(points) -> int:
    """The count of the points of Z^2 at or below some point of points, and
    not below their least coordinates: over the maximal points (a_i, b_i)
    by decreasing a, the columns a_(i+1) < x <= a_i reach from the least b
    up to b_i, with a_(r+1) one below the least a."""
    low_a, low_b = map(min, zip(*points))
    tops = [(-a, -b) for a, b in _minimal((-a, -b) for a, b in points)]
    return sum((a - c) * (b - low_b + 1) for (a, b), (c, _) in zip(tops, tops[1:] + [(low_a - 1, 0)]))


def _middle_tops(box: dict, e: int, d: int) -> list:
    """Degree bounds in each variable of the middle coefficients c_1, ...,
    c_(e-1) of the norm of order d of sum_j G_j t^j, from the degrees
    deg_v G_j in the table box of `_unit_root_product`. The coefficient of
    Y^(e-k) takes from each of the d factors g(w t) a term G_j t^j, the j
    summing to d (e - k), so its degree in v is at most d H(e - k), H the
    upper hull of the points (j, deg_v G_j). H is concave, so over
    1 <= x <= e - 1 it is largest at a point (j, deg_v G_j) there, or at
    x = 1 or x = e - 1, where it is the largest value of a chord from j = 0
    or j = e. For e = 2 this is d max(deg_v G1, deg_v(G0 G2) / 2)."""
    first, last = box[0][1], box[e][1]
    tops = []
    for v in range(len(first)):
        values = [d * ((j - 1) * first[v] + x[v]) // j for j, (_, x, _) in box.items() if j]
        values += [d * ((e - j - 1) * last[v] + x[v]) // (e - j) for j, (_, x, _) in box.items() if j < e]
        tops.append(max(values + [d * x[v] for j, (_, x, _) in box.items() if 0 < j < e]))
    return tops


def _power_sum_step(m: int, window, times, zero):
    """sigma_m = sum over i <= min(m, e) of F_i sigma_(m-i), with
    F_i = -G_(e-i) G_e^(i-1), where the term i = m of an m <= e is Newton's
    m F_m. window[i - 1] is sigma_(m-i), times lists the pairs (i, product
    by F_i) of the F_i != 0, and zero is the zero of the ring."""
    parts = [f(window[i - 1] if i < m else m) for i, f in times if i <= m]
    return sum(parts[1:], parts[0]) if parts else zero


def _multiplier(terms):
    """The packed product by a polynomial with packed terms (c, x): a shift
    and a small factor per term, the factor alone for a constant."""
    if len(terms) == 1 and not terms[0][1]:
        return partial(mul, terms[0][0])
    return lambda s: sum([c * (s << x) for c, x in terms])


def _exact_quotient(a: MPoly, b) -> MPoly:
    """a / b for an int or `MPoly` b that divides a, by long division in
    lex order; ArithmeticError where a term does not divide."""
    if isinstance(b, int):
        q = {}
        for e, c in a.terms.items():
            q[e], r = divmod(c, b)
            if r:
                raise ArithmeticError("inexact division in a norm")
        return MPoly._valid(a.n_vars, q)
    rest, q = dict(a.terms), {}
    lead = max(b.terms)
    while rest:
        top = max(rest)
        x = tuple(map(sub, top, lead))
        c, r = divmod(rest[top], b.terms[lead])
        if r or min(x) < 0:
            raise ArithmeticError("inexact division in a norm")
        q[x] = c
        for y, bc in b.terms.items():
            key = tuple(map(add, x, y))
            left = rest.get(key, 0) - c * bc
            if left:
                rest[key] = left
            else:
                del rest[key]
    return MPoly._valid(a.n_vars, q)


def _int_quotient(a: int, b: int) -> int:
    """a / b for packed integers, where b divides a; ArithmeticError
    otherwise, and for b = 0, which a packed nonzero polynomial is only
    when its lowest coefficient reaches 2^K. The power of 2 in b, the
    shift of its lowest term, is taken off first, so that a monomial
    divides in linear time."""
    if not b:
        raise ArithmeticError("packed divisor is 0")
    low = (b & -b).bit_length() - 1
    q, r = divmod(a >> low, b >> low)
    if r or a & ((1 << low) - 1):
        raise ArithmeticError("inexact division in a norm")
    return q


def _elementary(sums, ge_d, quotient) -> list:
    """[c_1, ..., c_(e-1)] from sums = [sigma_d, ..., sigma_((e-1)d)]: with
    eps_k = G_e^(kd) e_k(r_1^d, ..., r_e^d), Newton's identities for the
    r_i^d give eps_0 = 1 and k eps_k = sum over i <= k of
    (-1)^(i-1) eps_(k-i) sigma_(id), and c_k = eps_k / (G_e^d)^(k-1); both
    quotients are exact, and quotient raises where one is not."""
    eps, out, div = [1, sums[0]], [sums[0]], 1
    for k in range(2, len(sums) + 1):
        t = eps[k - 1] * sums[0]
        for i in range(2, k + 1):
            if i % 2:
                t = t + eps[k - i] * sums[i - 1]
            else:
                t = t - eps[k - i] * sums[i - 1]
        eps.append(quotient(t, k))
        div = div * ge_d
        out.append(quotient(eps[k], div))
    return out


def _middle(G, box: dict, tops, d: int, ge_d: MPoly) -> list:
    """The terms of the middle coefficients c_1, ..., c_(e-1) of the norm
    of order d of g = sum_j G_j t^j, c_k = G_e^d e_k(r_1^d, ..., r_e^d) over
    the roots r_i of g, given G = [G_0, ..., G_e] as dicts of their terms,
    the table box and tops = `_middle_tops` of `_unit_root_product`, and
    ge_d = G_e^d, e >= 2 (Bostan-Flajolet-Salvy-Schost, J. Symbolic
    Comput. 41, 2006).

    The scaled power sums sigma_m = G_e^m (r_1^m + ... + r_e^m) are
    polynomials, and follow Newton's identities (`_power_sum_step`) up to
    m = (e - 1) d; the c_k come from those at the multiples of d
    (`_elementary`). sigma_m takes `MPoly` steps until it holds a term per
    _PACK_DENSITY digit positions of its own box, its degree bounds
    m max_i deg_v(G_(e-i) G_e^(i-1)) / i, and Kronecker-packed integers
    (`_kronecker`) from there, on the box of the c_k, tops: one loop takes
    both kinds of step, and at the first dense step it packs the window,
    the sums so far and the multipliers. The F_i = -G_(e-i) G_e^(i-1) are
    formed once, on the G_j's terms (`_term_product`), and sigma_1 = F_1
    without a product, so a norm whose sigma_1 is dense already takes
    every step packed and no `MPoly` product. A norm that never turns
    dense divides by `MPoly` long division (`_exact_quotient`).
    Packing is a ring homomorphism, so sums, products and exact quotients
    of packed integers are the packed results, however far beyond the box
    the sigma_m or the F_i reach, and only the c_k, which lie in it, are
    read. Their coefficients are the norm's, of 1-norm at most |g|_1^d,
    the product over the d scalings of g; for e = 2, c_1 = sigma_d, and
    |sigma_j|_1 <= b_j with b_0 = 2, b_1 = |G1|_1 and
    b_j = |G1|_1 b_(j-1) + |G0|_1 |G2|_1 b_(j-2), a tighter bound. A packed
    step multiplies by the few terms of each F_i one at a time, each a
    shift and a small factor (`_multiplier`), not by their packed values,
    whose digits are mostly zero."""
    e, n = len(G) - 1, ge_d.n_vars
    F, power = [None, {x: -c for x, c in G[e - 1].items()}], {x: -c for x, c in G[e].items()}
    for i in range(2, e + 1):
        F.append(_term_product(G[e - i], power))
        if i < e:
            power = _term_product(power, G[e])
    # sigma_m reaches m max_i deg_v(F_i) / i in each v, where
    # deg_v F_i = deg_v G_(e-i) + (i - 1) deg_v G_e
    reach = [
        [(x[v] + (e - j - 1) * y, e - j) for j, (_, x, _) in box.items() if j < e]
        for v, y in enumerate(box[e][1])
    ]
    last, times = (e - 1) * d, [(i, MPoly._valid(n, f).__mul__) for i, f in enumerate(F) if f]
    zero, read = MPoly._valid(n, {}), None
    # sigma_1 is Newton's F_1 = -G_(e-1), taken without a product
    s, window, sums = MPoly._valid(n, F[1]), [], []
    for m in range(1, last + 1):
        if m > 1:
            s = _power_sum_step(m, window, times, zero)
        window = [s] + window[: e - 1]
        if m % d == 0:
            sums.append(s)
        # with every G_j constant, so is every sigma_m: packed, a box of one digit
        if read is None and m < last and (
            not any(tops) or len(s.terms) >= _dense_at([max([m * a // i for a, i in r]) for r in reach])
        ):
            if e == 2:
                g1, g02 = box[1][2] if 1 in box else 0, box[0][2] * box[2][2]
                bound, b = 2, g1
                for _ in range(d - 1):
                    bound, b = b, g1 * b + g02 * bound
            else:
                b = sum(l1 for _, _, l1 in box.values()) ** d
            shift, read = _kronecker(tops, b)
            times = [(i, _multiplier([(c, shift(x)) for x, c in F[i].items()])) for i, _ in times]
            window = [_packed(s, shift) for s in window]
            sums, zero = [_packed(s, shift) for s in sums], 0
    if read is None:
        return [c.terms.items() for c in _elementary(sums, ge_d, _exact_quotient)]
    # the divisor G_e^d comes in from c_2 on
    return [read(c) for c in _elementary(sums, e > 2 and _packed(ge_d, shift), _int_quotient)]


def _unit_root_product(g: MPoly, var_index: int, d: int) -> MPoly:
    """Product of g over the scalings y_k -> w * y_k, w^d = 1, k = var_index,
    written in Y = y_k^d: Y holds the slot of y_k.

    This is the norm of g down to y_k^d. With G_j the coefficients of g in
    y_k, e = deg_{y_k} g and r_1, ..., r_e the roots of g in y_k, the
    product over w of G_e prod_i (w y_k - r_i) is
    (-1)^(e(d+1)) G_e^d prod_i (Y - r_i^d), or
    sum_k (-1)^(e(d+1)+k) c_k Y^(e-k): its ends c_0 = G_e^d and
    c_e = (-1)^(ed) G_0^d are taken as powers (`MPoly.__pow__`), G_0^d with
    sign +1, and its middle c_k come from the power sums of the roots by
    Newton's identities (`_middle`). For e = 2 that is
    G2^d * Y^2 - s_d * Y + G0^d with s_j = G2^j (r1^j + r2^j), and for
    e <= 1 it is G0^d - (-G1)^d * Y, which takes no power sums.

    g's terms are read once. Laurent input is handled by shifting all
    exponents by the least ones, mins, up front, and each shifted term goes
    into its G_j as a dict of exponents, with y_k's cleared; from these
    comes box = {j: (low, high, l1)}, each G_j's least and greatest
    exponent in each variable and its 1-norm, from which the work is
    estimated: a norm above _CLOSED_FORM_WORK_LIMIT raises ValueError
    (`_refuse_norm`) before any product. Each part c_k is written once,
    into the norm's terms: each scaling multiplies the shifted monomial by
    a root of unity whose product over the group is (-1)^(d+1), so the
    shift comes back as y^(d * mins) in Y, mins[k] in slot k and d * mins[j]
    elsewhere, with the sign (-1)^((d+1) mins[k])."""
    n, k0 = g.n_vars, var_index - 1
    mins = [min(c) for c in zip(*g.terms)]
    coeffs = {}
    for x, c in g.terms.items():
        x = list(map(sub, x, mins))
        j, x[k0] = x[k0], 0
        coeffs.setdefault(j, {})[tuple(x)] = c
    box = {}
    for j, t in coeffs.items():
        cols = list(zip(*t))
        box[j] = [min(c) for c in cols], [max(c) for c in cols], sum(map(abs, t.values()))
    e = max(box)
    tops = _middle_tops(box, e, d) if e > 1 else []
    _refuse_norm(box, tops, d)
    G = [coeffs.get(j, {}) for j in range(e + 1)]
    sign = -1 if e * (d + 1) % 2 else 1
    # The middle c_k divide by powers of G_e^d and grow with G_e^m, so the
    # end of fewer terms, and of the two the one of lower degree, leads: the
    # norm of sum_j G_(e-j) t^j is (-1)^(e(d+1)) Y^e N(1/Y), N the norm of g,
    # and has the same tops.
    flip = e > 1 and (len(G[e]), max(map(sum, G[e]))) > (len(G[0]), max(map(sum, G[0])))
    if flip:
        G, box = G[::-1], {e - j: b for j, b in box.items()}
    ge_d = MPoly._valid(n, G[e]) ** d
    parts = [(e, sign, ge_d.terms.items())]
    if e > 1:
        for k, items in enumerate(_middle(G, box, tops, d, ge_d), 1):
            parts.append((e - k, -sign if k % 2 else sign, items))
    if e:
        parts.append((0, 1, (MPoly._valid(n, G[0]) ** d).terms.items()))
    lift, terms = [d * x for x in mins], {}
    laurent = -1 if (d + 1) * mins[k0] % 2 else 1
    for j, s, items in parts:
        if flip:
            j, s = e - j, s * sign
        lift[k0], s = j + mins[k0], s * laurent
        terms.update({tuple(map(add, x, lift)): s * c for x, c in items})
    return MPoly._valid(n, terms)


def _hull_edges(points):
    """Edge vectors of the convex hull of sorted distinct plane points, in
    order round it: two opposite ones for a segment, none for a point.
    Round a convex polygon r . x goes up once and down once, so half the
    sum of |r . g| over the edges g is the span max r . e - min r . e over
    the points, a norm in r when the hull has area."""
    ring = _chain(points)[:-1] + _chain(points[::-1])[:-1]
    return [(q[0] - p[0], q[1] - p[1]) for p, q in zip(ring, ring[1:] + ring[:1])]


def _least_primitive(u, v, r, G: IntMatrix):
    """The primitive vector of least norm |G x|_1 in the lattice with the
    reduced basis u, v, |u| <= |v|, neither of them primitive, given r, a
    primitive vector of it: r itself unless some a u + b v is shorter.

    As |v| <= |v + t u| for every integer t, and some such t is within
    1/2 of any real one, the distance from v to the line R u is at least
    |v| - |u| / 2 >= |v| / 2, so |a u + b v| >= |b| |v| / 2, and only
    0 < b < 2 |r| / |v| can beat r, up to sign (b = 0 gives multiples of
    u). For each b, a -> |a u + b v| is convex: a is walked out both ways
    from its least point (`_l1_step`), each way up to a primitive vector
    or one no shorter than the best so far. A b is skipped where a prime
    of gcd(u) divides b gcd(v), as it then divides every a u + b v. On any
    other b each prime forbids at most one residue of a, and only the
    primes of the lattice's index and of b divide any a u + b v, so each
    walk ends within a few steps."""
    Gu, Gv, gu, gv = G.mul_vec(u), G.mul_vec(v), gcd(*u), gcd(*v)
    best, nv, b = sum(map(abs, G.mul_vec(r))), sum(map(abs, Gv)), 1
    while b * nv < 2 * best:
        bGv = [b * x for x in Gv]
        a0 = -_l1_step(bGv, Gu)[1]
        for a, step in ((a0, 1), (a0 - 1, -1)) if gcd(gu, b * gv) == 1 else ():
            while (norm := sum(abs(a * x + y) for x, y in zip(Gu, bGv))) < best:
                w = (a * u[0] + b * v[0], a * u[1] + b * v[1])
                if gcd(*w) == 1:
                    best, r = norm, w
                    break
                a += step
        b += 1
    return r


def _norm_basis(f: MPoly, M: IntMatrix, snf):
    """(P, Q) with P M Q = D, the Smith form of M: Smith's own, or for a
    2 x 2 M with D = diag(1, d) one whose second row, the norm row, spans
    less over supp(f).

    The norm runs in the variable of the norm row r, and its degree there
    is span(r) = max r . e - min r . e over supp(f). Any primitive r with
    r M = 0 mod d serves: completed by s to a unimodular P, P M = D X with
    X unimodular, and Q = X^-1. These r form the lattice spanned by d P_1
    and P_2. Twice the span is the 1-norm of r -> (r . g) over the hull
    edges g of supp(f) (`_hull_edges`), so `l1_reduce` of the edges times
    that basis gives its successive minima (generalized Gauss reduction,
    Kaib-Schnorr, J. Algorithms 21, 1996). The shorter reduced vector
    that is primitive in Z^2 is the row, as every vector outside R u is
    at least as long as v; where neither is, the primitive row of least
    span comes from `_least_primitive`. s = s0 - q r is the
    completion of least span, which sets the norm's degrees in the other
    variable. Of the signs of s and r, which orient the support, the one
    with the fewest points below the support moved by P, counted from its
    least corner (`_count_below`), is taken. Smith's P stays unless the
    row is strictly shorter, and when its own row has span <= 2."""
    P, Q = snf.P, snf.Q
    if M.rows != 2 or snf.invariant_factors[0] != 1:
        return P, Q
    d = snf.invariant_factors[1]
    first, row = P.entries
    exps = sorted(f.terms)
    dots = [row[0] * x + row[1] * y for x, y in exps]
    if max(dots) - min(dots) <= 2:
        return P, Q
    edges = _hull_edges(exps)
    if len(edges) < 3:  # supp(f) on a line: the span is no norm
        return P, Q
    G = IntMatrix(edges)

    def span2(v):  # twice the span of v over supp(f)
        return sum(map(abs, G.mul_vec(v)))

    L = IntMatrix([[d * first[0], row[0]], [d * first[1], row[1]]])
    LU = L * l1_reduce(G * L)
    u, v = sorted((LU.col(0), LU.col(1)), key=span2)
    r = min((w for w in (u, v) if gcd(*w) == 1), key=span2, default=None) or _least_primitive(u, v, row, G)
    if span2(r) >= span2(row):
        return P, Q
    # complete r to det (s; r) = s_1 r_2 - s_2 r_1 = 1, by s_1 = r_2^-1 mod r_1
    s1 = pow(r[1], -1, r[0]) if r[0] else r[1]
    s = (s1, (s1 * r[1] - 1) // r[0] if r[0] else 0)
    q = _l1_step(G.mul_vec(s), G.mul_vec(r))[1]
    s = (s[0] - q * r[0], s[1] - q * r[1])
    pts = [(s[0] * x + s[1] * y, r[0] * x + r[1] * y) for x, y in exps]

    a, b = min(
        ((1, 1), (1, -1), (-1, 1), (-1, -1)),
        key=lambda ab: _count_below([(ab[0] * x, ab[1] * y) for x, y in pts]),
    )
    P = IntMatrix([[a * s[0], a * s[1]], [b * r[0], b * r[1]]])
    (x00, x01), r_m = (P * M).entries
    x10, x11 = (x // d for x in r_m)
    det = x00 * x11 - x01 * x10
    Q = IntMatrix([[det * x11, -det * x01], [-det * x10, det * x00]])
    return P, Q


def _smith_form(f: MPoly, M: IntMatrix):
    """The Smith form of M, the one check of a lattice change: M must be
    square of f's size, and it is singular exactly when an invariant factor
    is 0, as their product is |det M|."""
    if not M.is_square or M.rows != f.n_vars:
        raise ValueError("matrix shape mismatch")
    snf = smith_normal_form(M)
    if 0 in snf.invariant_factors:
        raise ValueError("singular matrix")
    return snf


def _smith_norm(f: MPoly, M: IntMatrix, snf):
    """(h, Q): the product h of f over the scalings that alpha_M kills,
    written in Y_k = y_k^(d_k) on a basis P M Q = D of the Smith form
    (`_norm_basis`): f moved along P, then one norm per invariant factor
    d_k > 1. The group product of f is h composed with
    alpha_(P^-1 D) = alpha_(M Q)."""
    P, Q = _norm_basis(f, M, snf)
    h = _substitute(f, P)
    for k, dk in enumerate(snf.invariant_factors):
        if dk > 1:
            h = _unit_root_product(h, k + 1, dk)
    return h, Q


def group_product(f: MPoly, M: IntMatrix) -> MPoly:
    """Product of f over the |det M| coordinate scalings that alpha_M kills.

    In Smith coordinates P M Q = D the group is an independent product of
    root-of-unity scalings, one per invariant factor, and the product is
    the Smith norm h composed with alpha_(M Q), as M Q = P^-1 D. The
    result has integer coefficients again, and is f itself for unimodular
    M. Laurent input gives the Laurent product: each of the |det M|
    factors carries the monomial of f, up to a root of unity.
    """
    snf = _smith_form(f, M)
    if prod(snf.invariant_factors) == 1 or not f:
        return f
    h, Q = _smith_norm(f, M, snf)
    return _substitute(h, M * Q)


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
    snf = _smith_form(delta2, M)
    if not delta2:
        raise ValueError("zero input")
    if delta2.content() != 1:
        raise ValueError("input polynomial is not primitive")
    h, Q = _smith_norm(delta2, M, snf)
    mins, c, prim = _normal_form(h, Q)
    v = M.mul_vec([-x for x in mins])
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
    return _normal_form(delta, B)[2]
