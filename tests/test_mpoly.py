"""Sparse exact polynomial arithmetic, canonical signs, resultants, monomial substitution."""

from fractions import Fraction
from itertools import product
from math import prod
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from galedisc.discriminant import _unit_root_product
from galedisc import discriminant, mpoly
from galedisc.intmat import IntMatrix
from galedisc.mpoly import (
    MPoly,
    substitute_monomial,
    sylvester_resultant,
)
from galedisc.mpoly import (
    _det_by_interpolation,
    _digits,
    _divided_differences,
    _gl_key,
    _int_resultant,
    _interpolate,
    _kronecker,
    _newton_to_monomial,
    _normal_form,
    _packed,
)
from oracles import (
    coeffs_in,
    norm_work_by_products,
    partial_derivative,
    plain_normal_form,
    power_by_products,
    project,
    set_var_one,
    variable,
)

X = variable(2, 1)
Y = variable(2, 2)


def poly2(data, max_terms=5, cmax=9, emax=4, laurent=False):
    lo = -2 if laurent else 0
    terms = data.draw(
        st.dictionaries(
            st.tuples(st.integers(lo, emax), st.integers(lo, emax)),
            st.integers(-cmax, cmax).filter(bool),
            max_size=max_terms,
        )
    )
    return MPoly(2, terms)


def to_sympy(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        t = sympy.Integer(c)
        for s, k in zip(syms, e):
            t *= s**k
        expr += t
    return sympy.expand(expr)


# ---------------------------------------------------------------- ring basics


def test_constructors_and_predicates():
    assert MPoly.zero(3).terms == {}
    assert MPoly.one(2) == MPoly.constant(2, 1)
    assert MPoly.constant(2, 0) == MPoly.zero(2)
    assert MPoly.constant(2, 7).total_degree() == 0
    assert (X + Y).total_degree() != 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: MPoly(2, {(1.9, 0): 1}),
        lambda: MPoly(2, {(True, 0): 1}),
        lambda: MPoly(2, {(Fraction(1), 0): 1}),
        lambda: MPoly(2, {(1, 0): 2.0}),
        lambda: MPoly(2, {(1, 0): True}),
        lambda: MPoly.constant(2, 2.7),
        lambda: MPoly.constant(2, True),
    ],
    ids=[
        "float-exponent",
        "bool-exponent",
        "fraction-exponent",
        "float-coefficient",
        "bool-coefficient",
        "float-constant",
        "bool-constant",
    ],
)
def test_non_integers_are_rejected_not_truncated(make):
    with pytest.raises(TypeError, match="integer"):
        make()


@pytest.mark.parametrize(
    "op",
    [
        lambda p, b: p + b,
        lambda p, b: b + p,
        lambda p, b: p - b,
        lambda p, b: b - p,
        lambda p, b: p * b,
        lambda p, b: b * p,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
@pytest.mark.parametrize("b", [True, False])
def test_bool_scalars_are_rejected_by_every_operator(op, b):
    """A bool is an int to isinstance, but not a coefficient: the scalar
    paths refuse it as the constructor does."""
    with pytest.raises(TypeError, match="^integer coefficients only$"):
        op(Y, b)


def test_zero_coefficients_are_dropped():
    p = MPoly(2, {(1, 0): 1, (0, 1): 0})
    assert p == X


def test_repeated_exponents_that_cancel_are_dropped():
    """Terms given as pairs may repeat an exponent; they are summed, and a
    sum of 0 leaves no term behind."""
    p = MPoly(2, [((1, 0), 3), ((1, 0), -3), ((0, 1), 1)])
    assert p == Y and p.terms == {(0, 1): 1}


def test_arithmetic_goldens():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + Y) ** 3 == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3
    assert X - X == MPoly.zero(2)
    assert 2 * X == X + X
    assert -(X - Y) == Y - X


def test_power_is_the_repeated_product():
    """Square-and-multiply stops squaring after the last bit of k. The
    bases are a Laurent monomial, 1 + 2 y1 - y1^-1 y2, whose 3 terms fill
    half the 6 digit positions of its box once y1^-1 is split off, and a
    Laurent base of four terms: every power of the last two is taken on
    packed integers, and never packing gives the same powers."""
    bases = [
        MPoly(2, {(-2, 3): -7}),
        MPoly(2, {(0, 0): 1, (1, 0): 2, (-1, 1): -1}),
        MPoly(2, {(-1, 2): 3, (2, -1): -2, (1, 1): 1, (0, 0): 5}),
    ]
    with mock.patch.object(mpoly, "_kronecker", wraps=mpoly._kronecker) as spy:
        for p in bases:
            for k in range(18):
                assert p**k == power_by_products(p, k)
    assert spy.call_count == 2 * 18
    with mock.patch.object(mpoly, "_PACK_DENSITY", 10**12):
        for p in bases:
            for k in range(18):
                assert p**k == power_by_products(p, k)


# Bases whose terms fill few digit positions of their boxes, each with the
# squarings after which its powers move onto packed integers. y1^20 + y2^20
# + 1 has 3 terms against _dense_at([20, 20]) = 28, and its squares never
# catch up with their boxes; the univariate ones pack after one, two and
# three squarings.
SPARSE_BASES = {
    "y1^20+y2^20+1": ({(20, 0): 1, (0, 20): 1, (0, 0): 1}, None),
    "1+y1+y1^2+y1^64": ({(0, 0): 1, (1, 0): 1, (2, 0): 1, (64, 0): 1}, 1),
    "1-2y1+3y1^48": ({(0, 0): 1, (1, 0): -2, (48, 0): 3}, 2),
    "1+y1+y1^60": ({(0, 0): 1, (1, 0): 1, (60, 0): 1}, 3),
}


@pytest.mark.parametrize("shift", [(0, 0), (-3, 2)], ids=["polynomial", "laurent"])
@pytest.mark.parametrize("base", sorted(SPARSE_BASES))
def test_sparse_powers_square_until_they_fill_their_box(base, shift):
    """`MPoly.__pow__` squares a sparse base as `MPoly`s while its square
    holds fewer terms than one per _PACK_DENSITY digit positions of its
    box, and packs from the squaring that reaches it on. A Laurent shift,
    split off first, changes neither."""
    terms, squarings = SPARSE_BASES[base]
    p = MPoly(2, terms).shift(shift)
    for d in range(2, 10):
        with mock.patch.object(mpoly, "_kronecker", wraps=mpoly._kronecker) as spy:
            assert p**d == power_by_products(p, d)
        assert spy.call_count == (squarings is not None and d >= 2**squarings)


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_powers_of_sparse_bases_match_repeated_products(data):
    """Bases of 3 to 5 terms spread over exponents up to 30, Laurent ones
    included, mostly too sparse to pack at once, against repeated
    multiplication."""
    n = data.draw(st.integers(1, 3))
    exps = st.tuples(*(st.integers(-3, 30) for _ in range(n)))
    terms = data.draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), min_size=3, max_size=5))
    f = MPoly(n, terms)
    d = data.draw(st.integers(0, 9))
    assert f**d == power_by_products(f, d)


@given(st.data())
@settings(deadline=None, max_examples=30)
def test_packing_many_terms_matches_the_plain_sum(data):
    """`_packed` sums more than 16 terms in halves; the sum is that of
    c << shift(e) over the terms, and `_kronecker`'s read gives the terms
    back."""
    tops = data.draw(st.lists(st.integers(4, 20), min_size=2, max_size=3))
    box = list(product(*[range(t + 1) for t in tops]))
    support = data.draw(st.lists(st.sampled_from(box), min_size=17, max_size=min(300, len(box)), unique=True))
    nonzero = st.integers(-(10**30), 10**30).filter(bool)
    coeffs = data.draw(st.lists(nonzero, min_size=len(support), max_size=len(support)))
    p = MPoly(len(tops), dict(zip(support, coeffs)))
    shift, read = _kronecker(tops, max(map(abs, coeffs)))
    packed = _packed(p, shift)
    assert packed == sum(c << shift(e) for e, c in p.terms.items())
    assert MPoly(len(tops), read(packed)) == p


def test_powers_of_zero_and_negative_powers():
    zero = MPoly.zero(2)
    assert zero**0 == MPoly.one(2)
    assert zero**3 == zero
    with pytest.raises(ValueError, match="negative power"):
        X ** -1


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        X + variable(3, 1)


def test_degree_accounting():
    p = MPoly(2, {(3, 0): 4, (1, 1): -1})
    assert p.total_degree() == 3
    assert p.degree_in(1) == 3
    assert p.degree_in(2) == 1
    assert MPoly.zero(2).total_degree() == -1
    assert MPoly.zero(2).degree_in(1) == -1


def test_laurent_support():
    inv = MPoly(2, {(-1, 0): 1})
    assert inv.is_laurent
    assert not (X + Y).is_laurent
    assert (inv * X) == MPoly.one(2)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_ring_axioms(data):
    p, q, r = poly2(data), poly2(data), poly2(data)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def assert_valid(r):
    """What the public constructor would have made of r's terms: int
    exponent tuples of the right length and nonzero int coefficients."""
    assert r == MPoly(r.n_vars, dict(r.terms))
    for e, c in r.terms.items():
        assert type(e) is tuple and len(e) == r.n_vars
        assert all(type(x) is int for x in e)
        assert type(c) is int and c


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_arithmetic_results_are_valid_polynomials(data):
    """The arithmetic builds its results without the constructor's per-term
    checks; each result still passes them and stores no zero. The monomial
    substitution by a drawn nonsingular m, which forms each exponent from
    m's rows, moves each exponent to m times it."""
    p, q = poly2(data, laurent=True), poly2(data, laurent=True)
    shift = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    k = data.draw(st.integers(0, 3))
    c = data.draw(st.integers(-5, 5))
    results = [p + q, p - q, p * q, p**k, -p, p * 0, 0 * p, p - p, p + (-p), p * c, c + p, c - p]
    results.append(p.shift(shift))
    entries = st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2)
    m = data.draw(entries.map(IntMatrix).filter(IntMatrix.det))
    moved = substitute_monomial(p, m)
    assert moved == MPoly(2, {m.mul_vec(e): c for e, c in p.terms.items()})
    results.append(moved)
    if p:
        results.append(_normal_form(p, m)[2])
    for r in results:
        assert_valid(r)
    for r in (p * 0, 0 * p, p - p, p + (-p)):
        assert r.terms == {}


@pytest.mark.parametrize("delta", [(0.5, 0), (Fraction(1), 0)], ids=["float", "fraction"])
def test_shift_takes_integer_exponents_only(delta):
    with pytest.raises(TypeError, match="integer exponents only"):
        X.shift(delta)


def test_shift_by_a_bool_is_a_shift_by_an_int():
    """e + True is the int e + 1, so a bool in delta gives int exponents."""
    r = X.shift((True, False))
    assert r == X.shift((1, 0))
    assert_valid(r)


# ---------------------------------------------------------------- ordering / signs


def test_text_rendering_matches_descending_graded_order():
    p = MPoly(2, {(3, 0): 4, (0, 2): 27, (1, 1): -18, (2, 0): -1, (0, 1): 4})
    assert p.to_text(("y1", "y2")) == "4*y1^3 + 27*y2^2 - 18*y1*y2 - y1^2 + 4*y2"


def test_sorted_terms_graded_then_lex_tiebreak():
    p = MPoly(2, {(0, 2): 1, (1, 1): 1, (2, 0): 1, (0, 1): 1})
    assert [e for e, _ in p.sorted_terms()] == [(0, 2), (1, 1), (2, 0), (0, 1)]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_normal_form_is_the_chain_it_replaces(data):
    """_normal_form(p, m) is alpha_m(p) split into its monomial, its
    content and its sign-normalized primitive part, as
    `substitute_monomial` and then `plain_normal_form`, term by term, give
    them; under the identity, the same of p itself."""
    p = poly2(data, laurent=True)
    assume(p)
    m = IntMatrix([[data.draw(st.integers(-3, 3)) for _ in range(2)] for _ in range(2)])
    assume(m.det())
    for image, a in ((p, IntMatrix([[1, 0], [0, 1]])), (substitute_monomial(p, m), m)):
        assert _normal_form(p, a) == plain_normal_form(image)
    assert p.content() == plain_normal_form(p)[1]


def test_zero_input_has_no_normal_form():
    zero = MPoly.zero(2)
    for read in (MPoly.content, MPoly.min_exponents, lambda p: _normal_form(p, IntMatrix([[1, 0], [0, 1]]))):
        with pytest.raises(ValueError, match="zero input"):
            read(zero)


# ---------------------------------------------------------------- calculus / evaluation


def test_partial_derivative_goldens():
    p = MPoly(2, {(3, 0): 4, (0, 2): 27, (1, 1): -18, (2, 0): -1, (0, 1): 4})
    assert partial_derivative(p, 1) == MPoly(2, {(2, 0): 12, (0, 1): -18, (1, 0): -2})
    assert partial_derivative(p, 2) == MPoly(2, {(0, 1): 54, (1, 0): -18, (0, 0): 4})
    laurent = MPoly(2, {(-2, 0): 3})
    assert partial_derivative(laurent, 1) == MPoly(2, {(-3, 0): -6})


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_derivative_is_linear_and_leibniz(data):
    p, q = poly2(data), poly2(data)
    dp, dq = partial_derivative(p, 1), partial_derivative(q, 1)
    assert partial_derivative(p + q, 1) == dp + dq
    assert partial_derivative(p * q, 1) == dp * q + p * dq


def test_evaluate_exact():
    p = MPoly(2, {(3, 0): 4, (0, 2): 27})
    assert p.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(4, 8) + Fraction(27, 9)
    laurent = MPoly(2, {(-1, 0): 1})
    assert laurent.evaluate((Fraction(2), Fraction(1))) == Fraction(1, 2)
    with pytest.raises(ValueError, match="pole at variable 1"):
        laurent.evaluate((Fraction(0), Fraction(1)))
    # A zero coordinate with a positive exponent hides no pole at another
    # variable, whichever comes first.
    for exponent, pole in (((1, -1), 2), ((-1, 1), 1)):
        with pytest.raises(ValueError, match="pole at variable %d" % pole):
            MPoly(2, {exponent: 1}).evaluate((0, 0))


def test_shift_and_min_exponents():
    p = MPoly(2, {(2, 1): 5, (1, 3): -2})
    assert p.min_exponents() == (1, 1)
    q = p.shift((-1, -1))
    assert q == MPoly(2, {(1, 0): 5, (0, 2): -2})
    assert q.shift((1, 1)) == p


@given(st.data())
@settings(deadline=None, max_examples=30)
def test_split_monomial_inverts_shift(data):
    p = poly2(data, max_terms=4, laurent=True)
    if not p:
        return
    mins, q = p.split_monomial()
    assert mins == p.min_exponents()
    assert q.shift(mins) == p
    assert q.min_exponents() == (0, 0)
    # shifting keeps graded-lex order, so a sign-normalized p stays
    # normalized: the graded-lex minimal terms of p and q share a coefficient
    def lowest(f):
        return f.terms[min(f.terms, key=lambda e: (sum(e), e[::-1]))]

    assert lowest(q) == lowest(p)


def test_set_var_one():
    p = MPoly(3, {(2, 0, 1): 5, (0, 0, 3): 1})
    assert set_var_one(p, 3) == MPoly(3, {(2, 0, 0): 5, (0, 0, 0): 1})


def test_coeffs_in_collects_by_degree():
    p = X * X * Y + 2 * X + MPoly.constant(2, 3)
    by_deg = coeffs_in(p, 1)
    assert by_deg[2] == MPoly(2, {(0, 1): 1})
    assert by_deg[1] == MPoly.constant(2, 2)
    assert by_deg[0] == MPoly.constant(2, 3)


# ---------------------------------------------------------------- serialization


def test_json_round_trip_with_names():
    p = MPoly(2, {(3, 0): 4, (0, 2): 27, (1, 1): -18})
    d = p.to_json_dict(("y1", "y2"))
    assert d["vars"] == ["y1", "y2"]
    assert d["terms"][0] == {"c": "4", "e": [3, 0]}  # descending canonical order
    q, names = MPoly.from_json_dict(d)
    assert q == p and tuple(names) == ("y1", "y2")


def test_json_repeated_exponents_that_cancel():
    terms = [{"c": "3", "e": [1, 0]}, {"c": -3, "e": [1, 0]}, {"c": "1", "e": [0, 1]}]
    d = {"vars": ["y1", "y2"], "terms": terms}
    assert MPoly.from_json_dict(d) == (Y, ["y1", "y2"])


def test_json_coefficients_are_strings():
    big = MPoly(1, {(0,): 10**40})
    assert big.to_json_dict()["terms"][0]["c"] == str(10**40)
    back, _ = MPoly.from_json_dict(big.to_json_dict())
    assert back == big


@pytest.mark.parametrize(
    "term, error, message",
    [
        # int(1.5) would read 1
        pytest.param({"c": 1.5, "e": [1, 0]}, ValueError, "not an integer", id="term0"),
        pytest.param({"c": True, "e": [1, 0]}, ValueError, "not an integer", id="term1"),
        # would read (1, 0); the MPoly constructor rejects it
        pytest.param({"c": 1, "e": [True, 0.7]}, TypeError, "integer exponents only", id="term2"),
        # the string would iterate into (1, 0)
        pytest.param({"c": 1, "e": "10"}, ValueError, "not a list of integers", id="term3"),
        # a zero coefficient does not let a bad exponent through
        pytest.param({"c": 0, "e": [0.5, 0]}, TypeError, "integer exponents only", id="zero-coefficient"),
    ],
)
def test_json_rejects_non_integer_fields(term, error, message):
    with pytest.raises(error, match=message):
        MPoly.from_json_dict({"vars": ["y1", "y2"], "terms": [term]})


@pytest.mark.parametrize("k", [1, 2, 9, 10, 11, 99, 100, 4299, 4300, 4301])
def test_digits_counts_without_forming_text(k):
    for c in (10 ** (k - 1), 10**k - 1, -(10**k - 1), 2 * 10 ** (k - 1) + 7):
        assert _digits(c) == k
    assert _digits(2 ** (3 * k)) == len(str(2 ** (3 * k)))


def test_coefficients_beyond_the_interpreters_text_limit_are_refused_by_size(int_text_limit):
    """The interpreter turns ints of at most 4300 digits into text and
    back; a longer coefficient is refused with its size, on the way in
    and on the way out, and one at the limit goes through."""
    at_limit = {"vars": ["y"], "terms": [{"c": "9" * 4300, "e": [1]}]}
    p, names = MPoly.from_json_dict(at_limit)
    assert p.to_json_dict(names) == at_limit
    with pytest.raises(ValueError, match="^an integer has 4301 digits, above the limit of 4300 digits on integer text$"):
        MPoly.from_json_dict({"vars": ["y"], "terms": [{"c": "-" + "1" * 4301, "e": [1]}]})
    for out in (MPoly.to_text, MPoly.to_json_dict):
        with pytest.raises(ValueError, match="^a coefficient has 8600 digits, above the limit of 4300 digits on integer text$"):
            out(p * p)


# ---------------------------------------------------------------- resultants


def test_resultant_small_goldens():
    two, three = MPoly.constant(2, 2), MPoly.constant(2, 3)
    assert sylvester_resultant(X * X + 3 * X + two, 2 * X + three, 1) == MPoly.constant(2, -1)
    assert sylvester_resultant(X * X - Y, X - Y, 1) == Y * Y - Y
    assert sylvester_resultant(X * X - Y * Y, X + Y, 1) == MPoly.zero(2)


def test_resultant_requires_something_to_eliminate():
    with pytest.raises(ValueError, match="nothing to eliminate"):
        sylvester_resultant(Y, Y + MPoly.one(2), 1)


def test_resultant_rejects_laurent_input():
    with pytest.raises(ValueError):
        sylvester_resultant(MPoly(2, {(-1, 0): 1}), X + Y, 1)


def assert_resultant_matches_sympy(p, q):
    """sylvester_resultant(p, q, 1) against sympy's resultant in the first
    variable."""
    syms = sympy.symbols("y1:%d" % (p.n_vars + 1))
    assert to_sympy(sylvester_resultant(p, q, 1), syms) == sympy_resultant(p, q, syms)


def sympy_resultant(p, q, syms):
    """sympy's resultant of p and q in the first variable, as the Sylvester
    determinant with the rows of p first."""
    dp, dq = p.degree_in(1), q.degree_in(1)
    # sympy's PRS resultant effectively reorders the arguments tall-first and
    # drops the (-1)^(dp*dq) swap sign, so hand it the taller one and restore
    # the sign ourselves; ours is the Sylvester determinant with p rows first
    if dp >= dq:
        theirs = sympy.resultant(to_sympy(p, syms), to_sympy(q, syms), syms[0])
    else:
        swapped = sympy.resultant(to_sympy(q, syms), to_sympy(p, syms), syms[0])
        theirs = (-1) ** (dp * dq) * swapped
    return sympy.expand(theirs)


@given(st.data())
@settings(deadline=None, max_examples=30)
def test_resultant_matches_sympy(data):
    p = poly2(data, max_terms=4, cmax=5, emax=3)
    q = poly2(data, max_terms=4, cmax=5, emax=3)
    if p.degree_in(1) < 1 or q.degree_in(1) < 1:
        return
    assert_resultant_matches_sympy(p, q)


@given(st.data(), st.sampled_from(["pencils", "norm", "shared", "constant"]))
@settings(deadline=None, max_examples=40)
def test_resultant_matches_sympy_whatever_variables_each_side_uses(data, shape):
    """In Z[x, y1, y2], x eliminated, the engine evaluates each side once
    per projection of a node onto the variables it uses: curve pencils
    den(x) y1 - num(x) against den'(x) y2 - num'(x); the group products'
    x^d - y1 against a polynomial in x and y2; two sides sharing y1; and a
    side in x alone."""

    def ints(min_size):
        return data.draw(st.lists(st.integers(-5, 5), min_size=min_size, max_size=5))

    def pencil(k):
        y = (0, 1, 0) if k == 1 else (0, 0, 1)
        den, num = ints(1), ints(2)
        return MPoly(3, [((j, y[1], y[2]), c) for j, c in enumerate(den)] + [((j, 0, 0), -c) for j, c in enumerate(num)])

    def poly(vars_):
        exps = st.tuples(st.integers(0, 4), *(st.integers(0, 2) if v in vars_ else st.just(0) for v in (1, 2)))
        return MPoly(3, data.draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool), min_size=1, max_size=5)))

    if shape == "pencils":
        p, q = pencil(1), pencil(2)
    elif shape == "norm":
        d = data.draw(st.integers(1, 5))
        p, q = MPoly(3, {(d, 0, 0): 1, (0, 1, 0): -1}), poly((2,))
    elif shape == "shared":
        p, q = poly((1,)), poly((1, 2))
    else:
        p, q = poly(()), poly((1, 2))
    assume(p.degree_in(1) >= 1 and q.degree_in(1) >= 1)
    assert_resultant_matches_sympy(p, q)


@given(st.data())
@settings(deadline=None, max_examples=25)
def test_resultant_multiplicative_in_second_argument(data):
    p = poly2(data, max_terms=3, cmax=4, emax=2)
    q = poly2(data, max_terms=3, cmax=4, emax=2)
    r = poly2(data, max_terms=3, cmax=4, emax=2)
    if min(p.degree_in(1), q.degree_in(1), r.degree_in(1)) < 1:
        return
    lhs = sylvester_resultant(p, q * r, 1)
    rhs = sylvester_resultant(p, q, 1) * sylvester_resultant(p, r, 1)
    assert lhs == rhs


# ---------------------------------------------------------------- Bareiss oracle


def _exact_div(num, den):
    """Exact division num/den, for use inside fraction-free elimination.

    Raises ArithmeticError if the division does not come out exact; the
    Bareiss invariant guarantees it always does there.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return num
    if den.total_degree() == 0:
        d = den.terms[(0,) * den.n_vars]
        t = {}
        for e, c in num.terms.items():
            q, r = divmod(c, d)
            if r:
                raise ArithmeticError("non-exact constant division")
            t[e] = q
        return MPoly(num.n_vars, t)
    den_lead = max(den.terms, key=_gl_key)
    dc = den.terms[den_lead]
    rem = dict(num.terms)
    quo = {}
    while rem:
        e_r = max(rem, key=_gl_key)
        c_r = rem[e_r]
        e_q = tuple(a - b for a, b in zip(e_r, den_lead))
        if any(x < 0 for x in e_q):
            raise ArithmeticError("non-exact division (exponents)")
        c_q, r = divmod(c_r, dc)
        if r:
            raise ArithmeticError("non-exact division (coefficients)")
        quo[e_q] = quo.get(e_q, 0) + c_q
        for e_d, c_d in den.terms.items():
            e = tuple(a + b for a, b in zip(e_q, e_d))
            nc = rem.get(e, 0) - c_q * c_d
            if nc:
                rem[e] = nc
            else:
                rem.pop(e, None)
    return MPoly(num.n_vars, quo)


def _det_bareiss_poly(mat, n_vars):
    """Fraction-free Bareiss determinant of a square matrix of MPoly, taken
    on the polynomial entries: the oracle for the interpolation engine."""
    n = len(mat)
    m = [list(row) for row in mat]
    sign = 1
    prev = MPoly.one(n_vars)
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(n_vars)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _exact_div(pivot * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = MPoly.zero(n_vars)
        prev = pivot
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


def sylvester_matrix(p, q, var_index):
    """The Sylvester matrix of p and q in one variable, rows of p first."""
    dp, dq = p.degree_in(var_index), q.degree_in(var_index)
    pc, qc = coeffs_in(p, var_index), coeffs_in(q, var_index)
    zero = MPoly.zero(p.n_vars)
    size = dp + dq
    rows = [[zero] * size for _ in range(size)]
    for i in range(dq):
        for j in range(dp + 1):
            rows[i][i + j] = pc.get(dp - j, zero)
    for i in range(dp):
        for j in range(dq + 1):
            rows[dq + i][i + j] = qc.get(dq - j, zero)
    return rows


# Leading coefficients in Z[y1, y2] (variables 2 and 3 of Z[x, y1, y2]) that
# vanish on nodes of the interpolation grid, one of them vanishing with each
# of the others at (y1, y2) = (2, 1), plus a unit that never does.
LEADS3 = {
    "y1 - 2": MPoly(3, {(0, 1, 0): 1, (0, 0, 0): -2}),
    "y1*y2": MPoly(3, {(0, 1, 1): 1}),
    "y2 - 1": MPoly(3, {(0, 0, 1): 1, (0, 0, 0): -1}),
    "3": MPoly.constant(3, 3),
}


@given(st.data())
@settings(deadline=None, max_examples=15)
def test_interpolation_engine_agrees_with_bareiss(data):
    """On Z[x, y1, y2] pairs of Sylvester size 2 to 12, whose leading
    coefficients vanish on grid nodes (both at once on some), the
    resultant is the Bareiss determinant of the same matrix."""

    def draw(d):
        lead = LEADS3[data.draw(st.sampled_from(sorted(LEADS3)))]
        rest = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, d - 1), st.integers(0, 1), st.integers(0, 1)),
                st.integers(-3, 3).filter(bool),
                min_size=1,
                max_size=4,
            )
        )
        return lead * MPoly(3, {(d, 0, 0): 1}) + MPoly(3, rest)

    p, q = draw(data.draw(st.integers(1, 6))), draw(data.draw(st.integers(1, 6)))
    assert sylvester_resultant(p, q, 1) == _det_bareiss_poly(sylvester_matrix(p, q, 1), 3)


# ---------------------------------------------------------------- packed axis

# Both sides of the engine's width limit: 0 takes every node on its own,
# 10**9 packs one axis on every call with an active variable.
WIDTH_LIMITS = pytest.mark.parametrize("limit", [0, 10**9], ids=["per-node", "packed"])


def engine(p, q, limit):
    """`_det_by_interpolation` eliminating the first variable, with
    `_PACK_WIDTH_LIMIT` set to limit."""
    with mock.patch.object(mpoly, "_PACK_WIDTH_LIMIT", limit):
        return _det_by_interpolation(p, q, 1, None)


@WIDTH_LIMITS
@given(st.data())
@settings(deadline=None, max_examples=40)
def test_engine_agrees_with_bareiss_and_sympy(limit, data):
    """In Z[x, y1..yk], k = 1 to 3, x eliminated: coefficients up to 10^12,
    leading coefficients that vanish on nodes, now and then a common factor
    x - y1 that makes the resultant vanish identically. The engine, packed
    or node by node, gives the Bareiss determinant of the Sylvester matrix,
    and that is sympy's resultant."""
    k = data.draw(st.integers(1, 3))
    n = k + 1
    big = st.builds(int.__mul__, st.integers(1, 10**12), st.sampled_from([1, -1]))
    leads = [MPoly.constant(n, data.draw(big)), variable(n, 2) - MPoly.constant(n, 2)]
    leads.append(variable(n, 2) * variable(n, n))

    def draw(deg):
        rest = data.draw(
            st.dictionaries(st.tuples(st.integers(0, deg - 1), *[st.integers(0, 1)] * k), big, min_size=1, max_size=3)
        )
        lead = data.draw(st.sampled_from(leads))
        return lead * variable(n, 1) ** deg + MPoly(n, rest)

    top = 3 if k < 3 else 2
    p, q = draw(data.draw(st.integers(1, top))), draw(data.draw(st.integers(1, top)))
    if data.draw(st.integers(0, 4)) == 0:
        common = variable(n, 1) - variable(n, 2)
        p, q = p * common, q * common
    expected = _det_bareiss_poly(sylvester_matrix(p, q, 1), n)
    assert engine(p, q, limit) == expected
    syms = sympy.symbols("y1:%d" % (n + 1))
    assert to_sympy(expected, syms) == sympy_resultant(p, q, syms)


@WIDTH_LIMITS
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("bits", [2, 3, 64, 300])
def test_packed_digits_at_the_edge_of_their_range(limit, sign, bits):
    """p = x against q = x + sign * b y^2 has the resultant sign * b y^2.
    The row-sum bound |p|_1 |q|_1 = b + 1 = 2^bits - 1 misses it only by
    the 1 of q's leading coefficient, so K = bits + 1, and the digit of
    y^2 is +-(X/2 - 2), above 0 for y and for the constant term. With K one
    bit narrower, that digit would overflow its range."""
    x, y = variable(2, 1), variable(2, 2)
    b = 2**bits - 2
    p, q = x, x + sign * b * y * y
    expected = sign * b * y * y
    assert _det_bareiss_poly(sylvester_matrix(p, q, 1), 2) == expected
    assert engine(p, q, limit) == expected


@WIDTH_LIMITS
def test_a_resultant_that_vanishes_identically(limit):
    """(x^2 - y1 y2)(x - y1 + 3) against 10^12 (x^2 - y1 y2) share a factor:
    the resultant is zero on every node and on every packed line."""
    n = 3
    x, y1, y2 = (variable(n, i) for i in (1, 2, 3))
    f = x * x - y1 * y2
    p, q = f * (x - y1 + MPoly.constant(n, 3)), f * MPoly.constant(n, 10**12)
    assert engine(p, q, limit) == MPoly.zero(n)


@pytest.mark.parametrize("limit, calls", [(0, 6), (10**9, 3)], ids=["per-node", "packed"])
def test_packing_takes_one_resultant_per_line(limit, calls):
    """x - y1 against x^2 y2 - 5 has the resultant y1^2 y2 - 5, taken on the
    box of its degree bounds, 3 nodes along y1 by 2 along y2. The packed
    engine takes one integer resultant per line along the shorter axis, 3,
    and the per-node one 6."""
    n = 3
    x, y1, y2 = (variable(n, i) for i in (1, 2, 3))
    p, q = x - y1, x * x * y2 - MPoly.constant(n, 5)
    with mock.patch.object(mpoly, "_int_resultant", wraps=_int_resultant) as spy:
        out = engine(p, q, limit)
    assert out == sylvester_resultant(q, p, 1) == y1 * y1 * y2 - MPoly.constant(n, 5)
    assert spy.call_count == calls


def test_curve_pencils_pack_under_the_width_limit():
    """The pencils of the cubic B pack at the module's own limit: one
    resultant per line along the shorter axis of the box, and the same
    polynomial as node by node."""
    from galedisc.discriminant import _affine_pencils

    B = IntMatrix([[1, 2], [-2, -3], [1, 0], [0, 1]])
    p, q = _affine_pencils(B, B)
    with mock.patch.object(mpoly, "_int_resultant", wraps=_int_resultant) as spy:
        packed = sylvester_resultant(p, q, 1)
    dp, dq = p.degree_in(1), q.degree_in(1)
    assert spy.call_count == max(dp, dq) + 1 < (dp + 1) * (dq + 1)
    with mock.patch.object(mpoly, "_PACK_WIDTH_LIMIT", 0):
        assert sylvester_resultant(p, q, 1) == packed


def unit_root_product_by_sylvester(g, var_index, d):
    """The group product by its definition: Laurent exponents shifted off,
    the Sylvester determinant of t^d - y_k^d and g with y_k moved to t, the
    shift put back with the sign (-1)^((d+1) * min_k)."""
    n, k0 = g.n_vars, var_index - 1
    mins, g0 = g.split_monomial()
    b = MPoly(n + 1, {e[:k0] + (0,) + e[k0 + 1 :] + (e[k0],): c for e, c in g0.terms.items()})
    y_d = [0] * (n + 1)
    y_d[k0] = d
    a = MPoly(n + 1, {(0,) * n + (d,): 1, tuple(y_d): -1})
    det = _det_bareiss_poly(sylvester_matrix(a, b, n + 1), n + 1)
    out = project(det, range(1, n + 1)).shift(tuple(d * x for x in mins))
    return -out if (d + 1) * mins[k0] % 2 else out


@given(st.data())
@settings(deadline=None, max_examples=12)
def test_unit_root_product_matches_the_sylvester_definition(data):
    """The closed form of every e from 0 to 4, written in Y = y_k^d and put
    back with Y = y_k^d, in 2 and 3 variables
    with Laurent shifts, against the polynomial Bareiss determinant of the
    Sylvester matrix, with the power sums packed at once, once dense, or
    never: the shift d * mins and the sign (-1)^((d+1) min_k) are written
    into the norm's terms on either route. Each coefficient G_j has at most
    4 - n terms: the oracle's cost grows steeply with the terms of g."""
    g, k, d = draw_norm_input(data, data.draw(st.integers(0, 4)))
    assert_unit_root_product_matches(g, k, d)


@given(st.data())
@settings(deadline=None, max_examples=20)
def test_unit_root_product_of_degree_two_matches_the_sylvester_definition(data):
    """The e = 2 closed form G2^d Y^2 - s_d Y + G0^d, with d up to 16, in 2
    and 3 variables with Laurent shifts, against the Bareiss oracle."""
    g, k, d = draw_norm_input(data, 2)
    assume(g.split_monomial()[1].degree_in(k) == 2)
    assert_unit_root_product_matches(g, k, d)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_the_norm_work_estimate_matches_the_product_oracle(data):
    """For e = 0, 1 and 2 the estimate read off the boxes of G0, G1 and G2,
    with the box of G0 G2 taken as the sum of theirs, is the one the
    product G0 G2 gives (`norm_work_by_products`), Laurent shifts and an
    absent G1 included: a limit at the estimate admits the norm, and one
    below it refuses it with the estimate in the message."""
    g, k, d = draw_norm_input(data, data.draw(st.integers(0, 2)))
    work = norm_work_by_products(g, k, d)
    with mock.patch.object(discriminant, "_CLOSED_FORM_WORK_LIMIT", work):
        _unit_root_product(g, k, d)
    message = "a norm of order %d needs about %d operations, above the limit of %d$" % (d, work, work - 1)
    with mock.patch.object(discriminant, "_CLOSED_FORM_WORK_LIMIT", work - 1):
        with pytest.raises(ValueError, match=message):
            _unit_root_product(g, k, d)


def draw_norm_input(data, e):
    """(g, k, d): g of degree e in y_k before a drawn Laurent shift, d in
    1..16."""
    n = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, n))
    d = data.draw(st.integers(1, 16))
    others = st.tuples(*(st.integers(0, 1) if i != k - 1 else st.just(0) for i in range(n)))
    g = MPoly.zero(n)
    for j in range(e + 1):
        coeff = data.draw(
            st.dictionaries(others, st.integers(-3, 3).filter(bool), min_size=int(j == e), max_size=4 - n)
        )
        g = g + MPoly(n, coeff) * variable(n, k) ** j
    return g.shift(data.draw(st.tuples(*(st.integers(-2, 2) for _ in range(n))))), k, d


def assert_unit_root_product_matches(g, k, d):
    """The norm, at each density that packs its power sums at once, once
    dense, or never, put back with Y = y_k^d, is the Sylvester oracle's."""
    n = g.n_vars
    y_d = IntMatrix([[d if i == j == k - 1 else int(i == j) for j in range(n)] for i in range(n)])
    expected = unit_root_product_by_sylvester(g, k, d)
    for density in (10**12, mpoly._PACK_DENSITY, Fraction(1, 2)):
        with mock.patch.object(mpoly, "_PACK_DENSITY", density):
            assert substitute_monomial(_unit_root_product(g, k, d), y_d) == expected


def test_small_norms_read_g_once_and_take_no_polynomial_product():
    """Delta_B under diag(1, d), d = 2 to 10, is one norm of e = 2 in y2,
    with sigma_1 = -G1 = 18 y1 - 4 dense from the start, as in nearly every
    e >= 2 norm of the benchmark's `transfer`: it packs once, at its first
    step, and takes no `MPoly` product, as G2 = 27 is a monomial and
    G0 = y1^2 (4 y1 - 1) a binomial. The e = 1 norm of QUARTIC42 in y3,
    G1 = y1 y2^2 + y2^3 and G0 = y1^3 + y1^2 y2^2, takes neither. Each norm
    is the one of the Sylvester definition."""
    delta_b = MPoly(2, {(3, 0): 4, (0, 2): 27, (1, 1): -18, (2, 0): -1, (0, 1): 4})
    quartic = MPoly(3, {(3, 0, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1, (0, 3, 1): 1})
    for g, k, d, packings in [(delta_b, 2, d, 1) for d in range(2, 11)] + [(quartic, 3, 5, 0)]:
        with mock.patch.object(MPoly, "__mul__", autospec=True, side_effect=MPoly.__mul__) as products:
            with mock.patch.object(discriminant, "_kronecker", wraps=_kronecker) as kronecker:
                _unit_root_product(g, k, d)
        assert (products.call_count, kronecker.call_count) == (0, packings)
        assert_unit_root_product_matches(g, k, d)


# ---------------------------------------------------------------- packed closed form


def unit_root_product_by_sympy(g, var_index, d):
    """sympy's resultant(t^d - Y, g, t), g with y_k moved to t, read back
    with Y in the slot of y_k; Laurent shifts go back as in
    `unit_root_product_by_sylvester`."""
    n, k0 = g.n_vars, var_index - 1
    mins, g0 = g.split_monomial()
    ys = list(sympy.symbols("y1:%d" % (n + 1)))
    t, Y = sympy.symbols("t Y")
    res = sympy.resultant(t**d - Y, to_sympy(g0, ys[:k0] + [t] + ys[k0 + 1 :]), t)
    norm = sympy.Poly(res, *ys[:k0], Y, *ys[k0 + 1 :])
    out = MPoly(n, {e: int(c) for e, c in norm.terms()})
    out = out.shift(tuple(x if j == k0 else d * x for j, x in enumerate(mins)))
    return -out if (d + 1) * mins[k0] % 2 else out


@given(st.data())
@settings(deadline=None, max_examples=25)
def test_packed_closed_form_matches_bareiss_and_sympy(data):
    """The e = 2 closed form on Kronecker-packed integers and on `MPoly`
    steps, in 2 and 3 variables with Laurent shifts, coefficients up to
    10^6 and d from 2 to 40, against the polynomial Bareiss determinant of
    the Sylvester matrix and sympy's resultant(t^d - Y, g, t). Each G_j
    has one term, or two for d up to 12: the Bareiss oracle's cost grows
    steeply with d and the terms of g."""
    n = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, n))
    d = data.draw(st.integers(2, 40))
    others = st.tuples(*(st.integers(0, 2) if i != k - 1 else st.just(0) for i in range(n)))
    big = st.builds(int.__mul__, st.integers(1, 10**6), st.sampled_from([1, -1]))
    g = MPoly.zero(n)
    for j, least in ((0, 1), (1, 0), (2, 1)):
        coeff = data.draw(st.dictionaries(others, big, min_size=least, max_size=1 + (d <= 12)))
        g = g + MPoly(n, coeff) * variable(n, k) ** j
    g = g.shift(data.draw(st.tuples(*(st.integers(-2, 2) for _ in range(n)))))
    y_d = IntMatrix([[d if i == j == k - 1 else int(i == j) for j in range(n)] for i in range(n)])
    norms = []
    # a part packs at once, once it is dense, or never
    for density in (10**12, mpoly._PACK_DENSITY, Fraction(1, 2)):
        with mock.patch.object(mpoly, "_PACK_DENSITY", density):
            norms.append(_unit_root_product(g, k, d))
    assert norms[0] == norms[1] == norms[2] == unit_root_product_by_sympy(g, k, d)
    assert substitute_monomial(norms[0], y_d) == unit_root_product_by_sylvester(g, k, d)


def test_a_sparse_norm_stays_on_polynomial_steps():
    """g = Y^2 + m Y + 1 with m = (y1 y2 y3)^670, Y = y4, of order 2: the
    work estimate admits it (9.6e9), and its packing would be 1341^3 digit
    positions of 3 bits, 7.2e9 bits for a norm of four terms. No part
    reaches a term per `_PACK_DENSITY` positions, so none packs."""

    def spy(tops, bound):
        raise AssertionError("packed a sparse norm")

    m = MPoly(4, {(670, 670, 670, 0): 1})
    Y = variable(4, 4)
    with mock.patch.object(discriminant, "_kronecker", spy):
        norm = _unit_root_product(Y * Y + m * Y + 1, 4, 2)
    assert norm == Y * Y - (m * m - 2) * Y + 1


def test_a_dense_norm_packs_after_a_few_steps():
    """Delta_B under diag(1, 300) takes a closed-form norm of order 300:
    s_1 = -G1 = 18 y1 - 4 is dense already, so the power sums are packed
    from their first step, into integers wide enough that reading them
    takes the halving of `_balanced_digits`. G2 = 27 is a monomial
    and G0 = y1^2 (4 y1 - 1) a binomial, so neither power packs. The norm
    is the one the `MPoly` steps give alone."""
    packings = []

    def spy(tops, bound):
        packings.append(list(tops))
        return mpoly._kronecker(tops, bound)

    delta_b = MPoly(2, {(3, 0): 4, (0, 2): 27, (1, 1): -18, (2, 0): -1, (0, 1): 4})
    M = IntMatrix([[1, 0], [0, 300]])
    with mock.patch.object(discriminant, "_kronecker", spy):
        out = discriminant.transfer(delta_b, M)
    # s_300 of degree 300 * max(1, 3 / 2) in y1
    assert packings == [[450, 0]]
    with mock.patch.object(mpoly, "_PACK_DENSITY", Fraction(1, 2)):
        assert discriminant.transfer(delta_b, M) == out


def norm_by_sylvester_box(g, var_index, d):
    """The norm of g down to Y = y_k^d, Y in the slot of y_k, as the
    resultant of t^d - Y and g with y_k moved to t, interpolated on the
    full box of `sylvester_resultant`."""
    n, k0 = g.n_vars, var_index - 1
    b = MPoly(n + 1, {e[:k0] + (0,) + e[k0 + 1 :] + (e[k0],): c for e, c in g.terms.items()})
    y = [0] * (n + 1)
    y[k0] = 1
    a = MPoly(n + 1, {(0,) * n + (d,): 1, tuple(y): -1})
    return project(sylvester_resultant(a, b, n + 1), range(1, n + 1))


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 1): 2, (0, 0): -1},
        {(1, 0): 1, (0, 1): 3},
        {(2, 0): 1, (1, 1): -2, (0, 0): 5},
        {(3, 0): 1, (2, 0): 1, (1, 1): 2, (0, 0): 3},
        {(4, 1): 2, (1, 0): 1, (0, 2): -1},
    ],
    ids=["e0", "e1", "e2", "e3", "e4"],
)
def test_a_norm_of_order_one_is_its_input(terms):
    """The product over the trivial group is g itself, for every e: the
    power sums of order 1 keep sigma_1 to sigma_(e-1), which the middle
    coefficients of y1^3 + y1^2 + 2 y1 y2 + 3 need."""
    g = MPoly(2, terms)
    assert _unit_root_product(g, 1, 1) == g


def test_unit_root_product_golden_b_low13():
    """The e = 11, d = 13 norm of the benchmark's B_low13 shape in Smith's
    basis, g = 27t^11 + 4t^10 - 18vt^7 - v^2t^3 + 4v^3: equal to the
    resultant on the 12 x 40 box, with the leading and constant terms
    27^13 Y^11 and 4^13 v^39 of the product over w^13 = 1."""
    g = MPoly(2, {(0, 11): 27, (0, 10): 4, (1, 7): -18, (2, 3): -1, (3, 0): 4})
    norm = _unit_root_product(g, 2, 13)
    assert norm == norm_by_sylvester_box(g, 2, 13)
    assert len(norm.terms) == 28
    assert norm.terms[(0, 11)] == 27**13 and norm.terms[(39, 0)] == 4**13


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_power_sum_norms_match_the_resultant_on_the_box(data):
    """The norm of every e from 2 to 8 by the power sums, e = 2 pinning the
    recurrence that e >= 3 shares, against the resultant of t^d - Y and g
    on the full box of `sylvester_resultant`, for d from 2 to 13 in 1 to 3
    variables, with a Laurent shift put back as in
    `unit_root_product_by_sympy`. The leading coefficient G_e may be
    negative or have two terms, and so may G_0, so that the quotients by
    G_e^((k-1)d) are by polynomials where G_e leads; each density sends
    the power sums onto packed integers at once, once they are dense, or
    never, where the quotients are `MPoly` long divisions."""
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, n))
    e = data.draw(st.integers(2, 8))
    d = data.draw(st.integers(2, 13 if n < 3 else 6))
    others = st.tuples(*(st.integers(0, 1) if i != k - 1 else st.just(0) for i in range(n)))
    coeff = st.integers(-4, 4).filter(bool)
    t = variable(n, k)
    g = MPoly(n, data.draw(st.dictionaries(others, coeff, min_size=1, max_size=2))) * t**e
    for j in [0] + data.draw(st.lists(st.integers(1, e - 1), max_size=2, unique=True)):
        g = g + MPoly(n, data.draw(st.dictionaries(others, coeff, min_size=1, max_size=1 + (j == 0)))) * t**j
    g = g.shift(data.draw(st.tuples(*(st.integers(-2, 2) for _ in range(n)))))
    mins, g0 = g.split_monomial()
    expected = norm_by_sylvester_box(g0, k, d).shift(
        tuple(x if j == k - 1 else d * x for j, x in enumerate(mins))
    )
    if (d + 1) * mins[k - 1] % 2:
        expected = -expected
    for density in (10**12, mpoly._PACK_DENSITY, Fraction(1, 2)):
        with mock.patch.object(mpoly, "_PACK_DENSITY", density):
            assert _unit_root_product(g, k, d) == expected


def test_a_packed_divisor_of_zero_raises():
    """g = (4 - y2) t^3 + t^2 + t + 1 + y2 packed with X = 2^2: y2 packs to
    4, so G_3 = 4 - y2 packs to 0, and with it the divisor G_3^d of c_2
    (G_3 leads, as G_0 has no fewer terms). The norm raises
    ArithmeticError, never a polynomial read from a wrong quotient."""

    def narrow(tops, bound):
        return mpoly._kronecker(tops, 1)

    g = MPoly(2, {(3, 0): 4, (3, 1): -1, (2, 0): 1, (1, 0): 1, (0, 0): 1, (0, 1): 1})
    assert _unit_root_product(g, 1, 5) == norm_by_sylvester_box(g, 1, 5)
    with mock.patch.object(discriminant, "_kronecker", narrow):
        with pytest.raises(ArithmeticError, match="packed divisor is 0"):
            _unit_root_product(g, 1, 5)


def test_a_sparse_norm_divides_by_a_leading_polynomial():
    """G_3 = y1 + y2 leads against G_0 = 1 + y1 y2, which has as many terms
    and a higher degree, so c_2 is a quotient by the polynomial
    (y1 + y2)^d, packed and by `MPoly` long division."""
    g = MPoly(3, {(1, 0, 3): 1, (0, 1, 3): 1, (1, 0, 1): -2, (0, 0, 0): 1, (1, 1, 0): 1})
    for density in (10**12, Fraction(1, 2)):
        with mock.patch.object(mpoly, "_PACK_DENSITY", density):
            assert _unit_root_product(g, 3, 4) == norm_by_sylvester_box(g, 3, 4)


@pytest.mark.parametrize("d", [4, 16, 48, 100])
def test_a_norm_just_under_the_density_packs_by_the_box_of_its_step(d):
    """G1 = y1^4 + y2 with G0 = G2 = 1 fills about one digit position in
    16 of its final box, so it was packed in its last steps only; the
    power sums now compare each step with its own box. The norm is the one
    packing at once and never packing give."""
    g = MPoly(3, {(0, 0, 2): 1, (4, 0, 1): 1, (0, 1, 1): 1, (0, 0, 0): 1})
    norms = []
    for density in (10**12, mpoly._PACK_DENSITY, Fraction(1, 2)):
        with mock.patch.object(mpoly, "_PACK_DENSITY", density):
            norms.append(_unit_root_product(g, 3, d))
    assert norms[0] == norms[1] == norms[2]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_binomial_powers_match_repeated_products(data):
    """The binomial theorem of `MPoly.__pow__` on two-term bases, Laurent
    ones included, against repeated multiplication."""
    n = data.draw(st.integers(1, 3))
    exps = st.tuples(*(st.integers(-3, 4) for _ in range(n)))
    terms = data.draw(st.dictionaries(exps, st.integers(-50, 50).filter(bool), min_size=2, max_size=2))
    f = MPoly(n, terms)
    d = data.draw(st.integers(0, 30))
    assert f**d == power_by_products(f, d)


def test_resultant_with_constant_coefficients_on_the_interpolation_kernel():
    # size 10 and no other variable: a one-node grid; Res = prod (i - j)
    p = q = MPoly.one(2)
    for i in range(1, 6):
        p = p * (X - i)
        q = q * (X - (i + 5))
    expected = 1
    for i in range(1, 6):
        for j in range(6, 11):
            expected *= i - j
    assert sylvester_resultant(p, q, 1) == MPoly.constant(2, expected)
    assert sylvester_resultant(p, q * (X - 3), 1) == MPoly.zero(2)


def test_newton_interpolation_round_trip():
    coeffs = [3, -2, 0, 5]  # 3 - 2t + 5t^3
    values = [sum(c * t**i for i, c in enumerate(coeffs)) for t in range(4)]
    assert _newton_to_monomial(_divided_differences(values)) == coeffs


def test_newton_interpolation_rejects_non_integer_polynomial():
    # 0, 0, 1 at t = 0, 1, 2 interpolate to t(t - 1)/2, not in Z[t]
    with pytest.raises(ArithmeticError):
        _divided_differences([0, 0, 1])


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_box_interpolation_round_trip(data):
    """An integer polynomial of degree at most tops[v] in each y_v, in 1 to
    3 variables, comes back exactly from its values on the box of tops.
    With an axis skipped, the grid holds at (j, b), j on that axis, the
    value at b of the coefficient of y^j, and the same coefficients come
    back."""
    tops = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    box = list(product(*[range(t + 1) for t in tops]))
    support = data.draw(st.lists(st.sampled_from(box), unique=True, max_size=8))
    coeffs = {e: data.draw(st.integers(-(10**20), 10**20)) for e in support}
    skip = data.draw(st.sampled_from([None, *range(len(tops))]))

    def value(x):
        return sum(
            c * prod(pow(xi, ei) for i, (xi, ei) in enumerate(zip(x, e)) if i != skip)
            for e, c in coeffs.items()
            if skip is None or e[skip] == x[skip]
        )

    grid = {x: value(x) for x in box}
    _interpolate(grid, tops, skip, None)
    assert grid == {x: coeffs.get(x, 0) for x in box}


@pytest.mark.parametrize("axis", [0, 1], ids=["first-axis", "second-axis"])
def test_box_interpolation_rejects_non_integer_polynomial(axis):
    """t(t - 1)/2 in one coordinate of the 3 x 3 box, integer-valued but
    not in Z[t1, t2], raises."""
    grid = {x: x[axis] * (x[axis] - 1) // 2 for x in product(range(3), range(3))}
    with pytest.raises(ArithmeticError):
        _interpolate(grid, [2, 2], None, None)


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=8),
    st.lists(st.integers(-9, 9), min_size=2, max_size=8),
    st.integers(-9, 9).filter(bool),
    st.integers(-9, 9).filter(bool),
)
@settings(deadline=None, max_examples=60)
def test_int_resultant_matches_sympy(a, b, lead_a, lead_b):
    """The per-node kernel against sympy.resultant, and the formal-degree
    corrections against the identities of the expanded Sylvester matrix."""
    a, b = [lead_a] + a, [lead_b] + b  # leading coefficient first
    t = sympy.symbols("t")
    dp, dq = len(a) - 1, len(b) - 1

    def expr(cs):
        return sum(c * t ** (len(cs) - 1 - i) for i, c in enumerate(cs))

    # the argument-order sign quirk, as in test_resultant_matches_sympy
    if dp >= dq:
        theirs = sympy.resultant(expr(a), expr(b), t)
    else:
        theirs = (-1) ** (dp * dq) * sympy.resultant(expr(b), expr(a), t)
    assert _int_resultant(a, b) == theirs
    assert _int_resultant([0] + a, b) == (-1) ** dq * lead_b * theirs
    assert _int_resultant(a, [0] + b) == lead_a * theirs
    assert _int_resultant([0] + a, [0] + b) == 0


# ---------------------------------------------------------------- monomial substitution


def test_substitute_monomial_golden():
    p = X + Y
    out = substitute_monomial(p, IntMatrix([[1, 0], [1, 1]]))
    assert out == MPoly(2, {(1, 1): 1, (0, 1): 1})


def test_substitute_monomial_rejects_singular():
    with pytest.raises(ValueError, match="singular matrix"):
        substitute_monomial(X + Y, IntMatrix([[1, 2], [2, 4]]))


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_substitute_monomial_is_multiplicative(data):
    p = poly2(data, max_terms=3)
    q = poly2(data, max_terms=3)
    m = IntMatrix([[1, 1], [0, 1]])
    assert substitute_monomial(p * q, m) == substitute_monomial(p, m) * substitute_monomial(q, m)
