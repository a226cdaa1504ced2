"""Implicitization, Gauss map checks, lattice transfer, and homogenization."""

import random
import time
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import galedisc.discriminant
import galedisc.parametrization
from galedisc import mpoly
from galedisc.discriminant import (
    _affine_pencils,
    _cleared_terms,
    _count_below,
    _end_lines,
    _hull_edges,
    _norm_basis,
    _row_lattice_forms,
    gauss_inverse_check,
    group_product,
    homogenize,
    implicitize,
    transfer,
)
from galedisc.intmat import IntMatrix, gcd_maximal_minors, l1_reduce, smith_normal_form
from galedisc.mpoly import MPoly, _normal_form, substitute_monomial, sylvester_resultant
from galedisc.parametrization import (
    Verdict,
    _forms_at,
    build,
    defect_test,
    evaluate_psi,
    primitive_direction,
    sample_off_arrangement,
)
from oracles import (
    by_angle,
    coeffs_in,
    diagram_check,
    gauss_inverse_check_fraction,
    gauss_map,
    group_product_on_smith_basis,
    implicitize_unreduced,
    monomial_map,
    newton_polygon_edges,
    partial_derivative,
    pencils,
    plain_normal_form,
    project,
    set_var_one,
    solve_in_lattice,
    turned_rows,
)

B = IntMatrix([[1, 2], [-2, -3], [1, 0], [0, 1]])
C = IntMatrix([[1, 2], [0, -3], [-3, 0], [2, 1]])
BPRIME = IntMatrix([[-5, -3], [13, 8], [-11, -7], [3, 2]])
C42 = IntMatrix([[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]])
M35 = IntMatrix([[-3, 0], [2, 1]])
M36 = IntMatrix([[-11, -7], [3, 2]])
M36_INV = IntMatrix([[-2, -7], [3, 11]])

DELTA_B = MPoly(2, {(3, 0): 4, (0, 2): 27, (1, 1): -18, (2, 0): -1, (0, 1): 4})

DELTA_C = MPoly(
    2,
    {
        (3, 3): -19683,
        (2, 3): -8748,
        (3, 2): -8748,
        (1, 3): -1296,
        (2, 2): 4698,
        (3, 1): -1296,
        (0, 3): -64,
        (1, 2): 24,
        (2, 1): 24,
        (3, 0): -64,
        (1, 1): 1,
    },
)

DELTA_BPRIME = MPoly(2, {(0, 16): -27, (5, 8): 18, (7, 5): -4, (8, 3): -4, (10, 0): 1})

# degree-4 vanishing locus of the uniform 4 x 3 configuration; a plausible
# mistranscription of it (same monomial flavor, wrong exponent pairing) is
# kept alongside as a negative control
QUARTIC42 = MPoly(3, {(3, 0, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1, (0, 3, 1): 1})
QUARTIC42_WRONG = MPoly(3, {(2, 0, 1): 1, (1, 1, 0): 1, (3, 0, 0): 1, (0, 2, 2): 1})

# transfer(QUARTIC42, [[1, 0, 0], [0, 1, 0], [2, 0, 13]]), taken when its
# norm of degree 7 was interpolated
QUARTIC42_UNDER_K13 = {
    (0, 39, 7): 1, (6, 33, 6): -13, (6, 34, 6): 13, (11, 29, 5): -13, (11, 30, 5): 78,
    (11, 31, 5): -130, (11, 32, 5): 65, (12, 27, 5): 39, (12, 28, 5): -65, (12, 29, 5): 26,
    (13, 26, 5): 1, (16, 28, 4): 39, (16, 29, 4): -91, (16, 30, 4): 52, (17, 22, 4): 39,
    (17, 23, 4): -286, (17, 24, 4): 637, (17, 25, 4): -572, (17, 26, 4): 195, (17, 27, 4): -13,
    (18, 21, 4): -13, (18, 22, 4): 13, (21, 27, 3): -13, (21, 28, 3): 13, (22, 19, 3): 39,
    (22, 20, 3): -286, (22, 21, 3): 637, (22, 22, 3): -572, (22, 23, 3): 195, (22, 24, 3): -13,
    (23, 16, 3): 39, (23, 17, 3): -91, (23, 18, 3): 52, (26, 26, 2): 1, (27, 18, 2): 39,
    (27, 19, 2): -65, (27, 20, 2): 26, (28, 11, 2): -13, (28, 12, 2): 78, (28, 13, 2): -130,
    (28, 14, 2): 65, (33, 9, 1): -13, (33, 10, 1): 13, (39, 0, 0): 1,
}

HOMOG_B = MPoly(
    4,
    {
        (2, 0, 0, 2): -27,
        (1, 1, 1, 1): 18,
        (0, 3, 0, 1): -4,
        (1, 0, 3, 0): -4,
        (0, 2, 2, 0): 1,
    },
)


# ---------------------------------------------------------------- implicitization


def test_implicitize_cubic_dependency_matrix():
    assert implicitize(build(B)) == DELTA_B


def test_implicitize_index_three_rescaling():
    delta = implicitize(build(C))
    assert delta == DELTA_C
    assert len(delta.terms) == 11
    assert delta.total_degree() == 6


def test_implicitize_output_is_normalized():
    delta = implicitize(build(B))
    assert plain_normal_form(delta) == ((0, 0), 1, delta)


def test_implicitize_rejects_proportional_rows():
    dup = IntMatrix([[1, 1], [2, 2], [-1, -1], [-2, -2]])
    with pytest.raises(ValueError, match="proportional rows present: merge them first"):
        implicitize(build(dup))


@pytest.mark.parametrize(
    "rows, size, nodes",
    [
        ([[29, 1], [1, 27], [-30, -28]], 56, 841),
        ([[97, 1], [1, 91], [-98, -92]], 188, 9021),
        ([[3000, 1], [1, 3000], [-3001, -3001]], 6000, 9006000),
    ],
    ids=["size-56", "size-188", "size-6000"],
)
def test_a_too_large_resultant_is_refused_before_any_node(rows, size, nodes):
    """The first two, already reduced, take 46 s and more than a minute;
    the pencils of the third, of degree about 3000, took seconds just to
    expand. The work estimate refuses each at once, from C * U, with the
    size and the node count."""
    t0 = time.perf_counter()
    with pytest.raises(
        ValueError, match="resultant too large: a Sylvester matrix of size %d on %d nodes " % (size, nodes)
    ):
        implicitize(build(IntMatrix(rows)))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("t", [28, 29, 40])
def test_the_early_resultant_refusal_is_the_one_of_sylvester_resultant(t):
    """The estimate implicitize makes from C * U is, to the byte, the one
    sylvester_resultant makes of the pencils."""
    C = IntMatrix([[t, 1], [1, t - 2], [-t - 1, -t + 1]])
    with pytest.raises(ValueError, match="resultant too large") as early:
        implicitize(build(C))
    cu = build(C * l1_reduce(C)).C
    with pytest.raises(ValueError) as late:
        sylvester_resultant(*_affine_pencils(cu, cu), 1)
    assert str(early.value) == str(late.value)


def test_refusals_give_integers_above_the_text_limit_as_digit_counts(int_text_limit):
    """A size of 5001 digits in the refusal of a resultant, a group order
    of 5001 digits in the refusal of a group product."""
    t = 10**5000
    p = MPoly(3, {(t // 2, 1, 0): 1, (0, 0, 0): 1})
    q = MPoly(3, {(t // 2, 0, 1): 1, (0, 0, 0): 1})
    with pytest.raises(ValueError) as err:
        sylvester_resultant(p, q, 1)
    assert str(err.value).startswith("resultant too large: a Sylvester matrix of size [5001 digits] on ")
    assert str(err.value).endswith(" digits] operations, above the limit of 50000000000")
    M = IntMatrix([[1, 0], [0, t]])
    for call in (transfer, group_product):
        with pytest.raises(ValueError) as err:
            call(DELTA_B, M)
        message = str(err.value)
        assert message.startswith("group product too large: a norm of order [5001 digits] needs about [")
        assert message.endswith(" digits] operations, above the limit of 10000000000")


@st.composite
def nonproportional_matrices(draw):
    """n x 2 matrices, n = 3..5: zero column sums, no zero row and no two
    proportional rows."""
    head = draw(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=4)
    )
    rows = [list(r) for r in head] + [[-sum(r[0] for r in head), -sum(r[1] for r in head)]]
    assume(all(any(r) for r in rows))
    assume(len({primitive_direction(r)[0] for r in rows}) == len(rows))
    return IntMatrix(rows)


@st.composite
def curve_specs(draw):
    """n x 2 inputs of implicitize, n = 3..5: nonproportional matrices,
    whose image is always a curve."""
    return build(draw(nonproportional_matrices()))


def assert_vanishes_on_the_image(mat, rng, points):
    """implicitize's output is zero at points psi(u), u drawn off the
    arrangement, evaluated exactly in `Fraction`s."""
    spec = build(mat)
    delta = implicitize(spec)
    for _ in range(points):
        u = sample_off_arrangement(spec, rng)
        assert delta.evaluate(evaluate_psi(spec, u)) == 0


@pytest.mark.parametrize("mat", [B, C], ids=["cubic", "rescaled"])
def test_implicitize_output_vanishes_on_the_image(mat):
    assert_vanishes_on_the_image(mat, random.Random(77), 20)


@given(nonproportional_matrices(), st.integers(0, 2**32))
@settings(deadline=None, max_examples=60)
def test_implicitize_output_vanishes_on_random_curves(mat, seed):
    """implicitize samples no point of psi, as its resultant vanishes there
    by construction; this holds it to that on random curves."""
    assert_vanishes_on_the_image(mat, random.Random(seed), 3)


@pytest.mark.parametrize("mat", [B, C, BPRIME], ids=["cubic", "rescaled", "degree-16"])
def test_newton_polygon_edges_are_the_turned_rows(mat):
    """For C without proportional rows the edges of Newt(Delta) are C's
    rows turned by 90 degrees (Dickenstein-Sturmfels, J. Symbolic Comput.
    34, 2002; Dickenstein-Feichtner-Sturmfels, J. AMS 20, 2007): an
    oracle of the whole support that shares no code with implicitize."""
    assert newton_polygon_edges(implicitize(build(mat))) == turned_rows(mat.entries)


@given(nonproportional_matrices())
@settings(deadline=None, max_examples=100)
def test_newton_polygon_edges_of_random_curves_are_the_turned_rows(mat):
    assert newton_polygon_edges(implicitize(build(mat))) == turned_rows(mat.entries)


def test_newton_polygon_edges_merge_and_sort_in_integers():
    """Collinear support points merge into one edge, edges sort from the
    positive x axis counterclockwise, and a segment gives two opposite
    edges."""
    square = MPoly(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (2, 2): 1, (0, 2): 1, (1, 1): 1})
    assert newton_polygon_edges(square) == [(2, 0), (0, 2), (-2, 0), (0, -2)]
    assert newton_polygon_edges(MPoly(2, {(0, 0): 1, (1, 1): 1, (3, 3): 1})) == [(3, 3), (-3, -3)]
    assert by_angle([(0, -1), (-1, 0), (1, -1), (1, 0), (-1, 1), (1, 1)]) == [
        (1, 0), (1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)
    ]


def test_implicitize_of_a_badly_written_basis_runs_on_the_reduced_one():
    """B * V, V = [[89, 34], [34, 13]] unimodular, has degree 280, and its
    reduced basis degree 3: the resultant on it takes milliseconds. The
    result is Delta_B moved by alpha_(V^-1): the unreduced resultant of
    B * V itself, of Sylvester size 387, is far above the work limit."""
    v, v_inv = IntMatrix([[89, 34], [34, 13]]), IntMatrix([[13, -34], [-34, 89]])
    spec = build(B * v)
    assert spec.d == 280
    t0 = time.perf_counter()
    delta = implicitize(spec)
    assert time.perf_counter() - t0 < 2.0
    assert delta == pulled_back(implicitize_unreduced(build(B)), v_inv)
    assert pulled_back(delta, v) == DELTA_B


def test_implicitize_runs_no_defect_test(monkeypatch):
    """Without proportional rows the image is always a curve
    (`test_nonproportional_matrices_are_never_defective`), so implicitize
    leaves the log-Jacobian alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("implicitize ran a defect test")

    for name in ("defect_test", "_log_jacobian_scaled"):
        monkeypatch.setattr(galedisc.parametrization, name, refuse)
    monkeypatch.setattr(galedisc, "defect_test", refuse)
    assert not hasattr(galedisc.discriminant, "defect_test")
    for mat, delta in ((B, DELTA_B), (C, DELTA_C), (BPRIME, DELTA_BPRIME)):
        assert implicitize(build(mat)) == delta


@pytest.mark.parametrize(
    "mat, delta",
    [
        (B, DELTA_B),
        (C, DELTA_C),
        (BPRIME, DELTA_BPRIME),
        (C42, QUARTIC42),
        (B, DELTA_B.shift((-2, 1))),
    ],
)
def test_cleared_value_is_delta_at_psi_times_f0_to_the_d(mat, delta):
    """The cleared terms sum to F * delta(psi(u)) computed in Fractions,
    F = f_0^D * prod_k f_k^(-a_k), for the defining polynomial (zero) and
    for each of its one-coefficient changes (nonzero); F = f_0^d for a
    polynomial of degree d without negative exponents. The cases cover
    m = 2, m = 3 and a Laurent shift."""
    spec = build(mat)
    rng = random.Random(3)
    changed = []
    for e in delta.terms:
        terms = dict(delta.terms)
        terms[e] *= 2
        changed.append(MPoly(spec.m, terms))
    top = max(sum(e) for e in delta.terms)
    lows = [min(0, *col) for col in zip(*delta.terms)]
    for _ in range(3):
        u = sample_off_arrangement(spec, rng)
        f = []
        for exps in spec.numer_exps:
            fk = 1
            for row, k in zip(spec.C.entries, exps):
                fk *= sum(c * x for c, x in zip(row, u)) ** k
            f.append(fk)
        factor = Fraction(f[0]) ** top
        for fk, a in zip(f[1:], lows):
            factor /= Fraction(fk) ** a
        if not delta.is_laurent and top == spec.d:
            assert factor == f[0] ** spec.d
        y = evaluate_psi(spec, u)
        forms = _forms_at(spec.C, u)
        values = _cleared_terms(spec, delta, forms)
        assert values == {e: factor * MPoly(spec.m, {e: c}).evaluate(y) for e, c in delta.terms.items()}
        for p in [delta] + changed:
            expected = factor * p.evaluate(y)
            assert sum(_cleared_terms(spec, p, forms).values()) == expected
            assert (expected == 0) == (p is delta)


def sympy_squarefree_part(p):
    """Square-free part of p by sympy, primitive and sign-normalized."""
    syms = sympy.symbols("y1:%d" % (p.n_vars + 1))
    sf = sympy.Poly.from_dict(dict(p.terms), *syms, domain=sympy.ZZ).sqf_part()
    terms = {tuple(int(x) for x in e): int(c) for e, c in sf.terms()}
    return _normal_form(MPoly(p.n_vars, terms), IntMatrix([[1, 0], [0, 1]]))[2]


@given(nonproportional_matrices(), st.integers(0, 2**32))
@settings(max_examples=200)
def test_nonproportional_matrices_are_never_defective(mat, seed):
    """What lets implicitize skip the defect test: with no two rows
    proportional, J_11 = sum_i c_i1^2 / l_i(u) has pairwise distinct poles,
    so it never vanishes identically, and J u = 0 caps the rank at 1. One
    sample settles it at any seed."""
    assert defect_test(build(mat), trials=1, seed=seed) is Verdict.NON_DEFECTIVE


@st.composite
def unimodular_2x2(draw):
    """A product of up to three elementary column operations and a sign."""
    v = IntMatrix([[1, 0], [0, draw(st.sampled_from([1, -1]))]])
    for q in draw(st.lists(st.integers(-2, 2), max_size=3)):
        v = v * IntMatrix([[1, q], [0, 1]]) * IntMatrix([[0, 1], [1, 0]])
    return v


def pulled_back(delta, v):
    """The defining polynomial of C from that of C * V: psi_(C V)(u) =
    alpha_V(psi_C(V u)), so it is delta composed with alpha_V."""
    return _normal_form(delta, v)[2]


@pytest.mark.parametrize("mat", [B, C, BPRIME], ids=["cubic", "rescaled", "degree-16"])
def test_implicitize_matches_the_unreduced_resultant_on_acceptance_matrices(mat):
    spec = build(mat)
    assert implicitize(spec) == implicitize_unreduced(spec)


@given(curve_specs())
@settings(deadline=None, max_examples=30)
def test_implicitize_matches_the_unreduced_resultant_on_random_matrices(spec):
    assert implicitize(spec) == implicitize_unreduced(spec)


@given(curve_specs(), unimodular_2x2())
@settings(deadline=None, max_examples=30)
def test_implicitize_obeys_the_transfer_law_for_unimodular_changes(spec, v):
    assert pulled_back(implicitize(build(spec.C * v)), v) == implicitize(spec)


# The engine's two routes: 0 takes every line node by node, and the
# module's own limit packs the lines of these small pencils.
WIDTH_LIMITS = (0, mpoly._PACK_WIDTH_LIMIT)


def check_end_lines(E, W, limit):
    """For the pencils of E on the forms of W, each of `_end_lines`' two
    pairs is R at y_w = 0 and R's top coefficient in y_w, and the engine
    with `_PACK_WIDTH_LIMIT` set to limit asks for the end lines once and
    gives R with them, which is sympy's resultant. Returns the variable
    index the engine asked the end lines for."""
    pencils = _affine_pencils(E, W)
    dp, dq = (f.degree_in(1) for f in pencils)
    R = sylvester_resultant(*pencils, 1)
    for w, top in ((2, dq), (3, dp)):
        low, lead = _end_lines(pencils, E, W, w)
        other = 5 - w
        assert low == MPoly(3, {e: c for e, c in R.terms.items() if e[w - 1] == 0})
        assert lead == MPoly(3, {e[:w - 1] + (0,) + e[w:]: c for e, c in R.terms.items() if e[w - 1] == top})
        assert all(e[0] == 0 and e[other - 1] >= 0 for e in low.terms)
    asked = []

    def ends(w):
        asked.append(w)
        return _end_lines(pencils, E, W, w)

    with mock.patch.object(mpoly, "_PACK_WIDTH_LIMIT", limit):
        assert sylvester_resultant(*pencils, 1, ends=ends) == R
    assert len(asked) == 1
    u, y1, y2 = sympy.symbols("u y1 y2")
    P, Q = [sum(c * u**a * y1**b * y2**d for (a, b, d), c in f.terms.items()) for f in pencils]
    # sympy's resultant puts the taller operand first, without the sign of the swap
    theirs = sympy.resultant(P, Q, u) if dp >= dq else (-1) ** (dp * dq) * sympy.resultant(Q, P, u)
    theirs = sympy.Poly(theirs, y1, y2)
    assert R == MPoly(3, {(0,) + e: int(c) for e, c in theirs.terms()})
    return asked


@pytest.mark.parametrize(
    "E, W",
    [
        # dp = dq = 1
        ([[1, 1], [-1, 0], [0, -1]], [[2, 3], [-1, 4], [5, -7]]),
        # dq = 1 < dp, a form with w_i1 = 0 in num_1 and zero exponents
        ([[2, 1], [-1, 0], [-1, -1]], [[0, 3], [1, -2], [4, 1]]),
        # dp = 1 < dq, the w_i1 = 0 form in den_2
        ([[1, 2], [-1, -3], [0, 1]], [[3, -1], [0, 5], [2, 2]]),
        # dp = 2 < dq = 3: B's own pencils
        (B.to_lists(), B.to_lists()),
        # dp = 3 > dq = 2
        ([[2, 1], [-3, -2], [0, 1], [1, 0]], [[1, 1], [-2, 1], [0, -3], [4, 0]]),
    ],
)
def test_end_lines_are_the_resultants_ends(E, W):
    for limit in WIDTH_LIMITS:
        check_end_lines(IntMatrix(E), IntMatrix(W), limit)


def test_end_lines_serve_both_packing_orders():
    """The engine walks y1 and asks for y2's ends when dq <= dp, and the
    other way round when dq > dp, packed or node by node."""
    E, W = IntMatrix([[2, 1], [-3, -2], [0, 1], [1, 0]]), IntMatrix([[1, 1], [-2, 1], [0, -3], [4, 0]])
    for limit in WIDTH_LIMITS:
        assert check_end_lines(E, W, limit) == [3]
        assert check_end_lines(B, B, limit) == [2]


@given(nonproportional_matrices(), st.data())
@settings(deadline=None, max_examples=40)
def test_end_lines_on_random_pencils(mat, data):
    """Random forms W, entries from -4 to 4 with zeros, no two rows
    proportional, on the exponents of a random nonproportional matrix,
    packed and node by node."""
    rows = data.draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=mat.rows, max_size=mat.rows))
    assume(all(any(r) for r in rows))
    assume(len({primitive_direction(r)[0] for r in rows}) == len(rows))
    for limit in WIDTH_LIMITS:
        check_end_lines(mat, IntMatrix(rows), limit)


def test_b_takes_one_integer_resultant_with_the_end_lines():
    """On B's reduced basis the interpolated axis has top 2: its two ends
    come in closed form, and only the line at 1 takes a resultant, against
    3 lines without them."""
    E = B * l1_reduce(B)
    W = _row_lattice_forms(E)
    pencils = _affine_pencils(E, W)
    with mock.patch.object(mpoly, "_int_resultant", wraps=mpoly._int_resultant) as spy:
        plain = sylvester_resultant(*pencils, 1)
    assert spy.call_count == 3
    with mock.patch.object(mpoly, "_int_resultant", wraps=mpoly._int_resultant) as spy:
        assert sylvester_resultant(*pencils, 1, ends=partial(_end_lines, pencils, E, W)) == plain
    assert spy.call_count == 1


def test_end_lines_are_asked_for_on_the_per_node_route():
    """With packing off, each line takes a resultant per node, 3 on B's
    reduced basis: the engine asks for the end lines once, takes its
    resultants only on the line at 1, 3 against 9 without the end lines,
    and gives the resultant it gives without them; `implicitize` keeps its
    outputs with one call of `_end_lines` each."""
    E = B * l1_reduce(B)
    W = _row_lattice_forms(E)
    pencils = _affine_pencils(E, W)
    plain = sylvester_resultant(*pencils, 1)
    ends = mock.Mock(wraps=partial(_end_lines, pencils, E, W))
    with mock.patch.object(mpoly, "_PACK_WIDTH_LIMIT", 0):
        with mock.patch.object(mpoly, "_int_resultant", wraps=mpoly._int_resultant) as spy:
            assert sylvester_resultant(*pencils, 1) == plain
        assert spy.call_count == 9
        with mock.patch.object(mpoly, "_int_resultant", wraps=mpoly._int_resultant) as spy:
            assert sylvester_resultant(*pencils, 1, ends=ends) == plain
        assert spy.call_count == 3
        ends.assert_called_once()
        with mock.patch.object(galedisc.discriminant, "_end_lines", wraps=_end_lines) as spy:
            for mat, delta in ((B, DELTA_B), (C, DELTA_C), (BPRIME, DELTA_BPRIME)):
                assert implicitize(build(mat)) == delta
        assert spy.call_count == 3


def test_a_curve_too_wide_to_pack_takes_its_end_lines_node_by_node():
    """[[9, 4], [-7, 3], [5, -11], [-7, 4]] would pack into 14628 bits,
    above the module's own limit, so its lines go node by node: the end
    lines are asked for once, and 144 integer resultants are taken, against
    168 without them, for the unreduced implicitization."""
    spec = build(IntMatrix([[9, 4], [-7, 3], [5, -11], [-7, 4]]))
    with mock.patch.object(galedisc.discriminant, "_end_lines", wraps=_end_lines) as ends:
        with mock.patch.object(mpoly, "_int_resultant", wraps=mpoly._int_resultant) as spy:
            out = implicitize(spec)
    assert ends.call_count == 1
    assert spy.call_count == 144
    assert out == implicitize_unreduced(spec)


@given(nonproportional_matrices())
@settings(deadline=None, max_examples=60)
def test_the_rows_lattice_sheds_its_index_to_the_power_ab(mat):
    """E = C * U is W T with T integer of |det T| = g, the gcd of E's 2 x 2
    minors, and W's minors coprime: so the resultant of E's pencils is
    +-g^(ab) times that of the pencils on W's forms, a and b their
    degrees."""
    E = mat * l1_reduce(mat)
    W = _row_lattice_forms(E)
    g = gcd_maximal_minors(E)
    assert gcd_maximal_minors(W) == 1
    # T from two rows of W of nonzero minor; then E = W T on every row
    i, j = next((i, j) for i in range(W.rows) for j in range(i) if IntMatrix([W.entries[i], W.entries[j]]).det())
    T = sympy.Matrix([W.entries[i], W.entries[j]]).inv() * sympy.Matrix([E.entries[i], E.entries[j]])
    assert all(x.is_integer for x in T)
    T = IntMatrix([[int(x) for x in T.row(r)] for r in range(2)])
    assert W * T == E and abs(T.det()) == g
    p, q = _affine_pencils(E, E)
    a, b = p.degree_in(1), q.degree_in(1)
    R, R_W = sylvester_resultant(p, q, 1), sylvester_resultant(*_affine_pencils(E, W), 1)
    assert R in (R_W * g ** (a * b), R_W * -(g ** (a * b)))


@given(nonproportional_matrices())
@settings(deadline=None, max_examples=60)
def test_u2_one_keeps_each_pencil_degree(mat):
    """Setting u2 = 1 never lowers a pencil's u1-degree, the sum of the
    positive entries of its column, on C and on its reduced basis: no two
    rows are proportional, so at most one has c_i1 = 0. The pencils built
    from integer coefficient lists are the `MPoly` products at u2 = 1."""
    for m in (mat, mat * l1_reduce(mat)):
        for k, (g, h) in enumerate(zip(pencils(m), _affine_pencils(m, m))):
            g = set_var_one(g, 2)
            assert g.degree_in(1) == sum(max(x, 0) for x in m.col(k))
            assert h == project(g, (1, 3, 4))


@pytest.mark.parametrize("mat", [B, C, BPRIME], ids=["cubic", "rescaled", "degree-16"])
def test_implicitize_is_squarefree_on_acceptance_matrices(mat):
    """psi is birational, so the normalized resultant is already square-free."""
    delta = implicitize(build(mat))
    assert sympy_squarefree_part(delta) == delta
    # the oracle does see a square
    assert sympy_squarefree_part(delta * delta) == delta


@given(curve_specs())
@settings(deadline=None, max_examples=20)
def test_implicitize_is_squarefree_on_random_matrices(spec):
    delta = implicitize(spec)
    assert sympy_squarefree_part(delta) == delta


# ---------------------------------------------------------------- Gauss map


def test_gauss_map_on_simple_polynomials():
    lin = MPoly(2, {(1, 0): 1, (0, 1): 1})
    assert gauss_map(lin, (Fraction(1), Fraction(2))) == (Fraction(1), Fraction(2))
    hyp = MPoly(2, {(1, 1): 1, (0, 0): -1})
    assert gauss_map(hyp, (Fraction(2), Fraction(1, 2))) == (Fraction(1), Fraction(1))


def test_gauss_map_scaled_gradient_of_the_cubic_discriminant():
    got1 = MPoly(2, {(1, 0): 1}) * partial_derivative(DELTA_B, 1)
    got2 = MPoly(2, {(0, 1): 1}) * partial_derivative(DELTA_B, 2)
    assert got1 == MPoly(2, {(3, 0): 12, (1, 1): -18, (2, 0): -2})
    assert got2 == MPoly(2, {(0, 2): 54, (1, 1): -18, (0, 1): 4})


def test_gauss_map_undefined_on_constants():
    with pytest.raises(ValueError, match="Gauss map undefined here"):
        gauss_map(MPoly.constant(2, 5), (Fraction(1), Fraction(1)))


@pytest.mark.parametrize(
    "mat, delta, expected",
    [
        (B, DELTA_B, True),
        (C, DELTA_C, True),
        (C42, QUARTIC42, True),
        (C42, QUARTIC42_WRONG, False),
    ],
    ids=["cubic", "rescaled", "quartic-surface", "mistranscribed-quartic"],
)
def test_gauss_inverse_check(mat, delta, expected):
    assert gauss_inverse_check(build(mat), delta, trials=20, seed=0) is expected


def test_gauss_inverse_check_rejects_unrelated_polynomial():
    lin = MPoly(2, {(1, 0): 1, (0, 1): 1})
    assert gauss_inverse_check(build(B), lin, trials=20, seed=0) is False


def test_gauss_inverse_check_rejects_constant_polynomial():
    with pytest.raises(ValueError, match="could not find a smooth parametrized point"):
        gauss_inverse_check(build(B), MPoly.constant(2, 5))


def gauss_outcome(check, spec, delta, trials, seed):
    """The verdict of a Gauss check, or its ValueError message."""
    try:
        return check(spec, delta, trials=trials, seed=seed)
    except ValueError as e:
        return "ValueError: %s" % e


def gauss_candidates(data, delta):
    """A candidate for the Gauss check in the variables of delta: a random
    polynomial with Laurent exponents, y^a * delta, delta^2, zero or a
    constant."""
    m = delta.n_vars
    kind = data.draw(st.sampled_from(["random", "shifted", "square", "zero", "constant"]))
    if kind == "random":
        terms = data.draw(
            st.dictionaries(
                st.tuples(*(st.integers(-2, 3) for _ in range(m))),
                st.integers(-5, 5).filter(bool),
                max_size=5,
            )
        )
        return MPoly(m, terms)
    if kind == "shifted":
        return delta.shift(data.draw(st.tuples(*(st.integers(-3, 3) for _ in range(m)))))
    if kind == "square":
        return delta * delta
    if kind == "zero":
        return MPoly.zero(m)
    return MPoly.constant(m, data.draw(st.integers(-5, 5).filter(bool)))


@given(st.booleans(), st.data())
@settings(deadline=None, max_examples=60)
def test_integer_gauss_check_agrees_with_the_fraction_oracle(surface, data):
    """Same verdict, or the same error, as the scaled gradient taken in
    Fractions at psi(u), for curves (m = 2) and the quartic surface (m = 3)."""
    if surface:
        spec, delta = build(C42), QUARTIC42
    else:
        spec = data.draw(curve_specs())
        delta = implicitize(spec)
    candidate = gauss_candidates(data, delta)
    trials = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 10**6))
    assert gauss_outcome(gauss_inverse_check, spec, candidate, trials, seed) == gauss_outcome(
        gauss_inverse_check_fraction, spec, candidate, trials, seed
    )


@pytest.mark.parametrize(
    "mat, delta",
    [
        (B, DELTA_B),
        (B, DELTA_B.shift((-1, 2))),
        (B, DELTA_B * DELTA_B),
        (B, DELTA_C),
        (B, MPoly.zero(2)),
        (B, MPoly.constant(2, -3)),
        (C, DELTA_C.shift((3, -4))),
        (C42, QUARTIC42.shift((0, -1, 2))),
        (C42, QUARTIC42 * QUARTIC42),
        (C42, QUARTIC42_WRONG),
        (C42, MPoly.zero(3)),
    ],
    ids=[
        "cubic",
        "cubic-laurent",
        "cubic-squared",
        "unrelated",
        "zero",
        "constant",
        "rescaled-laurent",
        "quartic-laurent",
        "quartic-squared",
        "mistranscribed-quartic",
        "quartic-zero",
    ],
)
def test_integer_gauss_check_agrees_with_the_fraction_oracle_on_fixed_inputs(mat, delta):
    spec = build(mat)
    for seed in (0, 1):
        got = gauss_outcome(gauss_inverse_check, spec, delta, 20, seed)
        assert got == gauss_outcome(gauss_inverse_check_fraction, spec, delta, 20, seed)


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_checks_need_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        gauss_inverse_check(build(B), DELTA_B, trials=trials)


def test_quartic_vanishes_and_its_mistranscription_does_not():
    spec = build(C42)
    rng = random.Random(4)
    hits = 0
    for _ in range(10):
        u = sample_off_arrangement(spec, rng)
        y = evaluate_psi(spec, u)
        assert QUARTIC42.evaluate(y) == 0
        hits += QUARTIC42_WRONG.evaluate(y) != 0
    assert hits == 10


# ---------------------------------------------------------------- torus maps


def test_lambda_map_golden():
    assert M35.mul_vec((1, 1)) == (-3, 3)


def test_monomial_map_golden():
    out = monomial_map(M35, (Fraction(2), Fraction(5)))
    assert out == (Fraction(25, 8), Fraction(5))


def test_monomial_map_composes_contravariantly():
    """alpha_A after alpha_B is alpha_{B*A} on exponents."""
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[2, 0], [1, 1]])
    y = (Fraction(2), Fraction(3))
    lhs = monomial_map(a, monomial_map(b, y))
    rhs = monomial_map(b * a, y)
    assert lhs == rhs


def test_diagram_commutes_for_the_cubic_pair():
    assert diagram_check(C, B, M35, trials=20, seed=0)


def test_diagram_check_rejects_wrong_matrix():
    with pytest.raises(ValueError, match=r"matrix relation C2 \* M = C1 violated"):
        diagram_check(C, B, IntMatrix([[1, 0], [0, 1]]))


# ---------------------------------------------------------------- group products


def test_group_product_diagonal_golden():
    f = MPoly(2, {(1, 0): 1, (0, 1): 1})
    out = group_product(f, IntMatrix([[1, 0], [0, 3]]))
    assert out == MPoly(2, {(3, 0): 1, (0, 3): 1})


def test_group_product_unimodular_is_identity():
    for m in (IntMatrix([[1, 1], [0, 1]]), M36, M36_INV):
        assert group_product(DELTA_B, m) == DELTA_B


def test_group_product_of_constant():
    five = MPoly.constant(2, 5)
    assert group_product(five, M35) == MPoly.constant(2, 125)


def test_group_product_degree_scales_with_group_order():
    out = group_product(DELTA_B, M35)
    assert out.total_degree() == 3 * DELTA_B.total_degree()


def test_group_product_laurent_identity():
    """The product over the kernel group equals the transferred polynomial
    composed with the monomial map, up to the stripped monomial."""
    prod = group_product(-DELTA_B, M35)
    _, v = transfer(DELTA_B, M35)
    assert v == (-9, 3)
    shifted = substitute_monomial(DELTA_C, M35).shift(tuple(-x for x in v))
    assert prod == shifted


def test_group_product_of_a_laurent_shift():
    """Laurent input gives the Laurent product: y1^-1 Delta_B over the
    kernel of M35 is the transferred polynomial composed with the monomial
    map, over y^v with the v = (-6, 3) of its transfer."""
    f = DELTA_B.shift((-1, 0))
    _, v = transfer(f, M35)
    assert v == (-6, 3)
    shifted = substitute_monomial(DELTA_C, M35).shift(tuple(-x for x in v))
    assert group_product(-f, M35) == shifted
    assert group_product(f, M35) == group_product(DELTA_B, M35).shift((-3, 0))


def _in_last_variable(terms, n):
    return MPoly(n, {(0,) * (n - 1) + e: c for e, c in terms.items()})


@pytest.mark.parametrize(
    "f",
    [
        DELTA_B,
        _in_last_variable({(0,): 1, (1,): 3, (2,): 1}, 1),
        _in_last_variable({(0,): 1, (1,): 3, (2,): 1}, 2),
        _in_last_variable({(0,): 1, (1,): 1, (3,): 1}, 1),
        _in_last_variable({(0,): 1, (1,): 1, (3,): 1}, 2),
    ],
    ids=["DeltaB", "closed_form_1var", "closed_form_2var", "power_sums_1var", "power_sums_2var"],
)
def test_a_huge_group_order_is_refused_before_any_norm(f):
    """An invariant factor d = 10^6 in the last variable is refused at
    once, also where g has no other variable and every box factor
    d * deg_v g + 1 is 1: the recurrences take d steps, or (e - 1) d for
    the power sums of e >= 3, on integers that grow with d, so each
    estimate grows with d^2."""
    n = f.n_vars
    M = IntMatrix([[10**6 if i == j == n - 1 else int(i == j) for j in range(n)] for i in range(n)])
    for call in (transfer, group_product):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="group product too large: a norm of order 1000000 "):
            call(f, M)
        assert time.perf_counter() - t0 < 1.0


def test_a_sparse_norm_of_large_order_is_not_refused():
    """y1 + y2 under diag(1, 20000) spans a box of 20001 monomials in y1,
    but its closed form has two terms: the estimate takes the span of each
    of G0^d and s_d, so the norm y1^20000 - Y is formed."""
    f = MPoly(2, {(1, 0): 1, (0, 1): 1})
    delta1, v = transfer(f, IntMatrix([[1, 0], [0, 20000]]))
    assert delta1 == MPoly(2, {(0, 1): 1, (20000, 0): -1})
    assert v == (0, 0)


@given(st.integers(2, 3), st.data())
@settings(deadline=None, max_examples=30)
def test_group_product_of_laurent_input_obeys_the_transfer_law(n, data):
    """For Laurent f = y^a g, the group product is +-(delta1 composed with
    alpha_M) / y^v with (delta1, v) = transfer(f, M)."""
    M = lattice_change(data, n)
    f = primitive_poly(data, n).shift(data.draw(st.tuples(*(st.integers(-2, 2) for _ in range(n)))))
    delta1, v = transfer(f, M)
    shifted = substitute_monomial(delta1, M).shift(tuple(-x for x in v))
    assert group_product(f, M) in (shifted, -shifted)


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=15)
def test_group_product_keeps_content_one(seed):
    rng = random.Random(seed)
    while True:
        f = MPoly(
            2,
            {
                (rng.randrange(3), rng.randrange(3)): rng.randint(-5, 5)
                for _ in range(3)
            },
        )
        if f != MPoly.zero(2) and f.content() == 1:
            break
    m = IntMatrix([[rng.choice((1, 2)), 0], [rng.randint(-1, 1), rng.choice((1, 2))]])
    assert group_product(f, m).content() == 1


def span(row, f):
    dots = [row[0] * x + row[1] * y for x, y in f.terms]
    return max(dots) - min(dots)


@st.composite
def lattice_changes_2x2(draw):
    """A 2 x 2 M with 1 < |det M| <= 12; a scale c of 2 or 3 makes D =
    diag(c, c k) non-cyclic."""
    c = draw(st.sampled_from([1, 1, 2, 3]))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2))
    M = IntMatrix([[c * x for x in row] for row in rows])
    assume(1 < abs(M.det()) <= 12)
    return M


@st.composite
def laurent_polys_2(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-4, 4).filter(bool),
            min_size=1,
            max_size=5,
        )
    )
    return MPoly(2, terms)


@given(lattice_changes_2x2(), laurent_polys_2())
@settings(deadline=None, max_examples=80)
def test_group_product_on_the_reduced_basis_equals_smith_basis(M, f):
    """Exactly, not up to sign: the product over the group does not
    depend on the basis its norm is taken in."""
    assert group_product(f, M) == group_product_on_smith_basis(f, M)


@given(lattice_changes_2x2(), laurent_polys_2())
@settings(deadline=None, max_examples=80)
def test_norm_basis_is_a_smith_basis_with_a_row_no_longer_than_smith(M, f):
    """P M Q = D with P and Q unimodular; the norm row spans no more than
    Smith's over supp(f), and when it is new the first row spans least
    among its completions s + t r."""
    snf = smith_normal_form(M)
    P, Q = _norm_basis(f, M, snf)
    assert P * M * Q == snf.D
    assert abs(P.det()) == 1 and abs(Q.det()) == 1
    assert span(P.entries[1], f) <= span(snf.P.entries[1], f)
    if P != snf.P:
        assert span(P.entries[1], f) < span(snf.P.entries[1], f)
        s, r = P.entries
        assert all(span(s, f) <= span((s[0] + t * r[0], s[1] + t * r[1]), f) for t in range(-6, 7))


@st.composite
def norm_rows_to_search(draw):
    """(M, f): M with D = diag(1, d), entries up to 20, and f with the unit
    triangle 1, y1, y2 in its support, so that span(r) >= max(|r_1|, |r_2|)
    and the rows of span at most S lie in the box |r_i| <= S."""
    M = IntMatrix(draw(st.lists(st.lists(st.integers(-20, 20), min_size=2, max_size=2), min_size=2, max_size=2)))
    assume(abs(M.det()) > 1)
    snf = smith_normal_form(M)
    assume(snf.invariant_factors[0] == 1)
    points = draw(st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=3))
    return M, snf, MPoly(2, dict.fromkeys(points | {(0, 0), (1, 0), (0, 1)}, 1))


LONG_SMITH_ROW = IntMatrix([[-21, 2], [-330, 30]])


def search_case(rows, points):
    M = IntMatrix(rows)
    return M, smith_normal_form(M), MPoly(2, dict.fromkeys(points, 1))


@given(norm_rows_to_search())
@example(search_case([[9, -5], [-17, -10]], [(0, 0), (1, 0), (0, 1)]))
@example(search_case([[-1, 3], [15, -3]], [(0, 0), (1, 0), (0, 1), (-2, -1), (-2, 6), (5, 5)]))
@settings(deadline=None, max_examples=100)
def test_the_norm_row_is_the_primitive_row_of_least_span(case):
    """Where Smith's row spans more than 2, the norm row spans least among
    the primitive rows r with r M = 0 mod d, against a search of the box
    that holds every row no longer than it. Some M have no primitive
    reduced row; in the two examples the combination v - u of
    the reduced basis, (17, 9) and (9, -5), is shorter than Smith's row
    (-37, 1) or (15, 1), of d = 175 and 42."""
    M, snf, f = case
    P, _ = _norm_basis(f, M, snf)
    if span(snf.P.entries[1], f) <= 2:
        assert P == snf.P
        return
    d, S = snf.invariant_factors[1], span(P.entries[1], f)
    (a, b), (c, e) = M.entries
    rows = product(range(-S, S + 1), repeat=2)
    least = min(
        span(r, f)
        for r in rows
        if gcd(*r) == 1 and (r[0] * a + r[1] * c) % d == 0 and (r[0] * b + r[1] * e) % d == 0
    )
    assert S == least


def test_b_low13_norm_degree_and_nodes_on_the_reduced_basis():
    """The benchmark's B_low13 shape: the norm of Delta_B goes from degree
    11 in Smith's basis to degree 6 in the reduced one, with the same group
    product. The orientation taken has the fewest nodes of order 1, 13
    against Smith's 25, and a constant leading coefficient G_6 = 27, so
    the power sums take no division by a polynomial."""
    M = IntMatrix([[1, 0], [3, 13]])
    snf = smith_normal_form(M)
    P, _ = _norm_basis(DELTA_B, M, snf)
    for basis, degree, nodes in ((snf.P, 11, 25), (P, 6, 13)):
        g0 = substitute_monomial(DELTA_B, basis).split_monomial()[1]
        assert g0.degree_in(2) == degree
        assert _count_below(g0.terms) == nodes
    assert coeffs_in(g0, 2)[6] == MPoly.constant(2, 27)
    assert group_product(DELTA_B, M) == group_product_on_smith_basis(DELTA_B, M)


def test_a_norm_row_of_span_two_keeps_smith_basis():
    """Smith's own row of span <= 2 already takes the closed form."""
    M = IntMatrix([[1, 2], [0, 7]])
    snf = smith_normal_form(M)
    assert span(snf.P.entries[1], DELTA_B) <= 2
    assert _norm_basis(DELTA_B, M, snf) == (snf.P, snf.Q)


@given(
    st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_hull_edges_give_twice_the_span(points, r):
    edges = _hull_edges(sorted(points))
    dots = [r[0] * x + r[1] * y for x, y in points]
    assert sum(abs(r[0] * x + r[1] * y) for x, y in edges) == 2 * (max(dots) - min(dots))
    assert sum(x for x, _ in edges) == sum(y for _, y in edges) == 0


@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8))
def test_count_below_the_support_matches_the_box(points):
    """The points of N^2 at or below some point of the support, shifted to
    start at 0: the count `_norm_basis` compares to orient the norm,
    against a scan of the support's bounding box."""
    g = MPoly(2, dict.fromkeys(points, 1)).split_monomial()[1]
    box = [(a, b) for a in range(g.degree_in(1) + 1) for b in range(g.degree_in(2) + 1)]
    below = [p for p in box if any(p[0] <= x and p[1] <= y for x, y in g.terms)]
    assert _count_below(g.terms) == len(below)


# ---------------------------------------------------------------- transfer


def test_transfer_through_a_norm_of_degree_seven_golden():
    """QUARTIC42 under [[1, 0, 0], [0, 1, 0], [2, 0, 13]]: one norm of order
    13 and degree e = 7 in the scaled variable, by the power sums."""
    delta1, v = transfer(QUARTIC42, IntMatrix([[1, 0, 0], [0, 1, 0], [2, 0, 13]]))
    assert v == (0, 0, 78)
    assert delta1 == MPoly(3, QUARTIC42_UNDER_K13)


def test_transfer_through_the_least_primitive_norm_row_golden():
    """y1^4 y2^63 + y1 y2^16 + 1 under M = [[-21, 2], [-330, 30]], D =
    diag(1, 30): neither reduced norm row is primitive, and the search of
    their combinations finds (-300, 19), of span 7, where Smith's row (0, 1)
    spans 63. The output is the one Smith's basis gives, through a norm of
    e = 63 that the work estimate admits."""
    f, M = MPoly(2, {(4, 63): 1, (1, 16): 1, (0, 0): 1}), LONG_SMITH_ROW
    snf = smith_normal_form(M)
    assert span(snf.P.entries[1], f) == 63
    assert span(_norm_basis(f, M, snf)[0].entries[1], f) == 7
    assert group_product(f, M) == group_product_on_smith_basis(f, M)
    delta1, v = transfer(f, M)
    assert v == (-114, -1800)
    assert delta1 == MPoly(
        2,
        {
            (0, 3): 1, (1, 3): -100, (2, 2): -195, (2, 3): 2690, (2, 4): -3,
            (3, 1): -30, (3, 2): -3756, (3, 3): -16700, (3, 4): -750, (4, 0): -1,
            (4, 1): 75, (4, 2): -1575, (4, 3): 8440, (4, 4): -4815, (4, 5): 3,
            (5, 3): -2, (5, 4): -150, (5, 5): -150, (6, 6): -1,
        },
    )


def test_transfer_recovers_the_rescaled_discriminant():
    out, v = transfer(DELTA_B, M35)
    assert out == DELTA_C
    assert v == (-9, 3)


def test_transfer_ignores_input_sign():
    assert transfer(DELTA_B, M35) == transfer(-DELTA_B, M35)


def test_transfer_identity_matrix():
    out, v = transfer(DELTA_B, IntMatrix([[1, 0], [0, 1]]))
    assert out == DELTA_B and v == (0, 0)


def test_transfer_between_unimodular_bases_both_ways():
    """The two degree-16/degree-3 vanishing loci exchange under inverse matrices."""
    out, v = transfer(DELTA_BPRIME, M36_INV)
    assert out == DELTA_B and v == (-14, 6)
    back, w = transfer(DELTA_B, M36)
    assert back == DELTA_BPRIME and w == (-112, 30)


def test_transfer_rejects_imprimitive_input():
    with pytest.raises(ValueError, match="not primitive"):
        transfer(MPoly.constant(2, 2) * DELTA_B, M35)


SINGULAR = IntMatrix([[1, 2], [2, 4]])
ZERO2 = MPoly.zero(2)


@pytest.mark.parametrize(
    "call, f, M, message",
    [
        (transfer, DELTA_B, IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), "matrix shape mismatch"),
        (group_product, DELTA_B, IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), "matrix shape mismatch"),
        (transfer, DELTA_B, IntMatrix([[1, 0, 0], [0, 2, 0]]), "matrix shape mismatch"),
        (group_product, DELTA_B, IntMatrix([[1, 0, 0], [0, 2, 0]]), "matrix shape mismatch"),
        (transfer, ZERO2, IntMatrix([[1, 2, 0], [2, 4, 0]]), "matrix shape mismatch"),
        (group_product, ZERO2, IntMatrix([[1, 2, 0], [2, 4, 0]]), "matrix shape mismatch"),
        (transfer, DELTA_B, SINGULAR, "singular matrix"),
        (group_product, DELTA_B, SINGULAR, "singular matrix"),
        (transfer, ZERO2, SINGULAR, "singular matrix"),
        (group_product, ZERO2, SINGULAR, "singular matrix"),
        (transfer, DELTA_B * 2, SINGULAR, "singular matrix"),
        (transfer, ZERO2, M35, "zero input"),
    ],
)
def test_the_error_contract_of_transfer_and_group_product(call, f, M, message):
    """Shape first, then singularity, then, for transfer, a zero and an
    imprimitive polynomial: each check is made before the next."""
    with pytest.raises(ValueError) as err:
        call(f, M)
    assert str(err.value) == message


def test_group_product_of_zero_is_zero():
    assert group_product(ZERO2, M35) == ZERO2


@given(st.integers(2, 3), st.data())
@settings(deadline=None, max_examples=60)
def test_group_product_is_singular_or_unchanged_exactly_by_the_determinant(n, data):
    """group_product reads singularity and the unimodular shortcut off the
    Smith form: it refuses exactly when det M = 0 and returns f itself
    exactly when |det M| = 1. A product of |det M| > 1 factors, each with
    the Newton polytope of f, has |det M| times that polytope, so it is not
    f while f has two terms or more."""
    entry = st.integers(-3, 3) if n == 2 else st.integers(-2, 2)
    M = IntMatrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    f = primitive_poly(data, n)
    assume(len(f.terms) > 1)
    det = M.det()
    assume(abs(det) <= 8)
    if det == 0:
        with pytest.raises(ValueError, match="^singular matrix$"):
            group_product(f, M)
    else:
        assert (group_product(f, M) == f) == (abs(det) == 1)


def test_transfer_composes_with_implicitization():
    """Implicitizing the column-transformed matrix equals transferring the
    implicitization, for a handful of unimodular column operations."""
    d_b = implicitize(build(B))
    mats = [
        IntMatrix([[1, 1], [0, 1]]),
        IntMatrix([[0, 1], [1, 0]]),
        IntMatrix([[1, 0], [-1, 1]]),
        IntMatrix([[2, 1], [1, 1]]),
    ]
    for m in mats:
        direct = implicitize(build(B * m))
        moved, _ = transfer(d_b, m)
        assert direct == moved


def test_transfer_reports_lattice_membership_of_v():
    """v lies in the column lattice of M, i.e. adj(M) v = 0 mod det M, for
    M35 and the benchmark's "tri" [[1, b], [0, k]] and "low" [[1, 0], [b, k]]
    shapes."""
    for rows in ([[-3, 0], [2, 1]], [[1, 2], [0, 3]], [[1, 0], [3, 3]], [[1, 0], [4, 5]]):
        M = IntMatrix(rows)
        _, v = transfer(DELTA_B, M)
        assert solve_in_lattice(M, v) is not None


def lattice_change(data, n):
    """A nonsingular n x n matrix with |det| <= 8."""
    entry = st.integers(-3, 3) if n == 2 else st.integers(-2, 2)
    m = IntMatrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(0 < abs(m.det()) <= 8)
    return m


def primitive_poly(data, n):
    """A primitive polynomial with at most four terms of degree <= 2 in
    each variable."""
    terms = data.draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, 2) for _ in range(n))),
            st.integers(-4, 4).filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    f = MPoly(n, terms)
    assume(f.content() == 1)
    return f


def transfer_by_adjugate(f, M):
    """transfer by the adjugate route: the group product composed with
    alpha_(adj M), every exponent divided by det M, the minimal exponents e
    cleared and v = M (-e)."""
    det = M.det()
    adj = sympy.Matrix(M.to_lists()).adjugate()
    q = substitute_monomial(group_product(f, M), IntMatrix([[int(x) for x in r] for r in adj.tolist()]))
    assert all(x % det == 0 for e in q.terms for x in e)
    q = MPoly(f.n_vars, {tuple(x // det for x in e): c for e, c in q.terms.items()})
    mins, c, prim = plain_normal_form(q)
    assert c == 1
    return prim, M.mul_vec([-x for x in mins])


@given(st.integers(2, 3), st.data())
@settings(deadline=None, max_examples=40)
def test_transfer_matches_the_adjugate_route(n, data):
    M = lattice_change(data, n)
    f = primitive_poly(data, n)
    assert transfer(f, M) == transfer_by_adjugate(f, M)


@given(st.integers(2, 3), st.data())
@settings(deadline=None, max_examples=40)
def test_transfer_of_a_laurent_shift(n, data):
    """transfer(y^a f, M) = (delta1, v - |det M| a): each of the |det M|
    factors of the group product carries y^a, up to a root of unity."""
    M = lattice_change(data, n)
    f = primitive_poly(data, n)
    a = data.draw(st.tuples(*(st.integers(-2, 2) for _ in range(n))))
    delta1, v = transfer(f, M)
    det = abs(M.det())
    assert transfer(f.shift(a), M) == (delta1, tuple(x - det * y for x, y in zip(v, a)))


# ---------------------------------------------------------------- homogenization


def test_homogenize_cubic_discriminant_to_four_variables():
    assert homogenize(DELTA_B, B) == HOMOG_B


def test_homogenize_coefficients_survive_up_to_global_sign():
    ours = sorted(HOMOG_B.terms.values())
    theirs = sorted(DELTA_B.terms.values())
    flipped = sorted(-c for c in DELTA_B.terms.values())
    assert len(HOMOG_B.terms) == len(DELTA_B.terms)
    assert ours == theirs or ours == flipped


def test_homogenize_quartic_gives_linear_form():
    out = homogenize(QUARTIC42, C42)
    assert out == MPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})


def test_homogenize_two_row_example():
    out = homogenize(MPoly(1, {(1,): 1, (0,): -1}), IntMatrix([[1], [-1]]))
    assert out == MPoly(2, {(1, 0): 1, (0, 1): -1})


def test_homogenize_rejects_rank_deficient_matrix():
    with pytest.raises(ValueError, match="rank deficient"):
        homogenize(MPoly(2, {(1, 0): 1, (0, 1): 1}), IntMatrix([[1, 2], [-1, -2], [2, 4], [-2, -4]]))


def test_homogenize_output_is_primitive_and_normalized():
    out = homogenize(DELTA_B, B)
    assert plain_normal_form(out) == ((0, 0, 0, 0), 1, out)
