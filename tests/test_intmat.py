"""Exact integer matrix layer: determinants, minors, Smith form, the 1-norm
reduction of two columns, and the LLL oracle."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from galedisc.intmat import (
    IntMatrix,
    gcd_maximal_minors,
    l1_reduce,
    smith_normal_form,
)
from oracles import (
    gcd_maximal_minors_by_enumeration,
    hermite_column_basis,
    lll_reduce,
    smith_diagonal,
    solve_in_lattice,
)


def small_matrix(rows, cols, lo=-9, hi=9):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(IntMatrix)


# ---------------------------------------------------------------- basics


def test_construction_and_accessors():
    m = IntMatrix([[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.col(1) == (2, 4, 6)
    assert m.to_lists() == [[1, 2], [3, 4], [5, 6]]


def test_equality_and_hash():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert a != IntMatrix([[1, 2], [3, 5]])


@pytest.mark.parametrize(
    "entries",
    [[[1.7, 2], [1, 3]], [[1, 2], [True, 3]], [[True, 0], [0, 1]], [[1, 2], [Fraction(3), 3]], [[1, "2"]]],
    ids=["float", "bool", "leading-bool", "fraction", "string"],
)
def test_non_integer_entries_are_rejected_not_truncated(entries):
    with pytest.raises(TypeError, match="integer entries only"):
        IntMatrix(entries)


def assert_valid_matrix(m):
    """What the public constructor would have made of m's rows: a tuple of
    tuples of exact ints, all of one length, with the shape to match."""
    assert m == IntMatrix(m.entries) and hash(m) == hash(IntMatrix(m.entries))
    assert type(m.entries) is tuple and (m.rows, m.cols) == (len(m.entries), len(m.entries[0]))
    for r in m.entries:
        assert type(r) is tuple and len(r) == m.cols
        assert all(type(x) is int for x in r)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.data())
@settings(deadline=None, max_examples=60)
def test_products_and_smith_forms_are_valid_matrices(n, k, l, data):
    """Products and the P and Q of the Smith form are built without the
    constructor's per-entry test; each still passes it, and a product is
    the sum of products of entries."""
    a, b = data.draw(small_matrix(n, k)), data.draw(small_matrix(k, l))
    ab = a * b
    assert_valid_matrix(ab)
    assert ab.to_lists() == [[sum(a[i, t] * b[t, j] for t in range(k)) for j in range(l)] for i in range(n)]
    dec = smith_normal_form(a)
    for m in (dec.P, dec.Q):
        assert_valid_matrix(m)


def test_zero_column_matrix_is_allowed():
    m = IntMatrix([[], []])
    assert (m.rows, m.cols) == (2, 0)


def test_matrix_product_golden():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert a.mul_vec((1, -1)) == (-1, -1)


@pytest.mark.parametrize(
    "entries, det",
    [
        ([[5]], 5),
        ([[1, 2], [3, 4]], -2),
        ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0),
        ([[-3, 0], [2, 1]], -3),
        ([[-11, -7], [3, 2]], -1),
    ],
)
def test_det_goldens(entries, det):
    assert IntMatrix(entries).det() == det


@given(small_matrix(3, 3), small_matrix(3, 3))
@settings(deadline=None, max_examples=60)
def test_det_is_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(small_matrix(3, 3))
@settings(deadline=None, max_examples=60)
def test_det_transpose_invariant(m):
    assert IntMatrix(list(zip(*m.entries))).det() == m.det()


@given(st.integers(1, 5), st.data())
@settings(deadline=None, max_examples=120)
def test_det_matches_sympy(n, data):
    """Random, singular (a row repeated or scaled) and row-swap-needing
    (a zero leading entry) matrices against sympy's determinant."""
    rows = data.draw(small_matrix(n, n)).to_lists()
    shape = data.draw(st.sampled_from(["random", "singular", "swap"]))
    if shape == "singular" and n > 1:
        rows[-1] = [data.draw(st.integers(-3, 3)) * x for x in rows[0]]
    elif shape == "swap":
        rows[0][0] = 0
    m = IntMatrix(rows)
    assert m.det() == sympy.Matrix(rows).det()


# ---------------------------------------------------------------- minors


@pytest.mark.parametrize(
    "entries, g",
    [
        ([[1, 2], [-2, -3], [1, 0], [0, 1]], 1),
        ([[1, 2], [0, -3], [-3, 0], [2, 1]], 3),
        ([[2, 0], [0, 2], [-2, 0], [0, -2]], 4),
        ([[1], [1], [2]], 1),
        ([[], []], 1),
    ],
)
def test_gcd_maximal_minors_goldens(entries, g):
    assert gcd_maximal_minors(IntMatrix(entries)) == g


@given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 6), st.booleans(), st.data())
@settings(deadline=None, max_examples=150)
def test_gcd_maximal_minors_matches_the_enumeration(m, extra, factor, deficient, data):
    """n = m + extra <= 7 rows. The first column carries a drawn common
    factor; a deficient matrix has as last column the sum of the others
    (zero when m = 1), so that every maximal minor vanishes."""
    rows = data.draw(small_matrix(m + extra, m, -5, 5)).to_lists()
    for r in rows:
        r[0] *= factor
        if deficient:
            r[-1] = sum(r[:-1])
    c = IntMatrix(rows)
    assert gcd_maximal_minors(c) == gcd_maximal_minors_by_enumeration(c)


def test_gcd_maximal_minors_rejects_wide_matrix():
    with pytest.raises(ValueError, match="at least as many rows"):
        gcd_maximal_minors(IntMatrix([[1, 2, 3], [4, 5, 6]]))


# ---------------------------------------------------------------- Smith form


def test_snf_golden_invariant_factors():
    dec = smith_normal_form(IntMatrix([[-3, 0], [2, 1]]))
    assert dec.invariant_factors == (1, 3)
    assert dec.P * IntMatrix([[-3, 0], [2, 1]]) * dec.Q == IntMatrix([[1, 0], [0, 3]])
    assert abs(dec.P.det()) == 1 and abs(dec.Q.det()) == 1


def test_snf_rejects_zero_columns():
    with pytest.raises(ValueError, match="at least one column"):
        smith_normal_form(IntMatrix([[], []]))


def test_snf_of_diagonal_with_swapped_divisibility():
    dec = smith_normal_form(IntMatrix([[4, 0], [0, 6]]))
    assert dec.invariant_factors == (2, 12)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=120)
def test_snf_reconstruction_and_chain(n, k, data):
    m = data.draw(small_matrix(n, k))
    dec = smith_normal_form(m)
    assert (dec.P.rows, dec.P.cols, dec.Q.rows, dec.Q.cols) == (n, n, k, k)
    f = dec.invariant_factors
    assert len(f) == min(n, k)
    assert dec.P * m * dec.Q == smith_diagonal(dec)
    assert abs(dec.P.det()) == 1
    assert abs(dec.Q.det()) == 1
    assert all(x >= 0 for x in f)
    for a, b in zip(f, f[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(small_matrix(3, 3))
@settings(deadline=None, max_examples=60)
def test_snf_invariant_factor_product_is_det(m):
    dec = smith_normal_form(m)
    prod = math.prod(dec.invariant_factors)
    assert prod == abs(m.det())


# ---------------------------------------------------------------- solving


@pytest.mark.parametrize(
    "m, v, x",
    [
        ([[-3, 0], [2, 1]], (-9, 3), (3, -3)),
        ([[-3, 0], [2, 1]], (1, 0), None),
        ([[1, 0], [0, 1]], (7, -2), (7, -2)),
        ([[2, 0], [0, 2]], (4, 6), (2, 3)),
        ([[2, 0], [0, 2]], (3, 0), None),
    ],
)
def test_solve_in_lattice(m, v, x):
    assert solve_in_lattice(IntMatrix(m), v) == x


def test_solve_in_lattice_rejects_singular():
    with pytest.raises(ValueError, match="singular matrix"):
        solve_in_lattice(IntMatrix([[1, 2], [2, 4]]), (1, 1))


# ---------------------------------------------------------------- Hermite / LLL


def test_hermite_column_basis_is_canonical():
    m = IntMatrix([[2, 1], [0, 3]])
    h = hermite_column_basis(m)
    assert hermite_column_basis(h) == h
    assert hermite_column_basis(m * IntMatrix([[1, 1], [0, 1]])) == h


def test_lll_golden():
    red = lll_reduce(IntMatrix([[105, 821], [44, 344]]))
    assert red.to_lists() == [[-1, 0], [0, -4]]


def test_lll_preserves_the_lattice():
    b = IntMatrix([[105, 821], [44, 344]])
    assert hermite_column_basis(lll_reduce(b)) == hermite_column_basis(b)


def test_lll_rejects_dependent_columns():
    with pytest.raises(ValueError, match="rank deficient"):
        lll_reduce(IntMatrix([[1, 2], [2, 4]]))


@given(small_matrix(2, 2, -30, 30).filter(lambda m: m.det() != 0))
@settings(deadline=None, max_examples=60)
def test_lll_property(b):
    red = lll_reduce(b)
    assert hermite_column_basis(red) == hermite_column_basis(b)
    assert abs(red.det()) == abs(b.det())


# ---------------------------------------------------------------- 1-norm reduction

BPRIME = IntMatrix([[-5, -3], [13, 8], [-11, -7], [3, 2]])
IDENTITY = IntMatrix([[1, 0], [0, 1]])
UNIMODULAR_UP_TO_3 = [
    IntMatrix([[a, b], [c, d]])
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if abs(a * d - b * c) == 1
]


def column_norms(m: IntMatrix):
    """The 1-norms of the columns, shorter first."""
    return sorted(sum(map(abs, m.col(j))) for j in range(m.cols))


def two_columns(lo, hi):
    """n x 2 matrices of rank 2, n = 2..5."""
    return (
        st.integers(2, 5)
        .flatmap(lambda n: small_matrix(n, 2, lo, hi))
        .filter(lambda m: gcd_maximal_minors(m) != 0)
    )


@given(two_columns(-30, 30))
@settings(deadline=None, max_examples=60)
def test_l1_reduce_is_unimodular_and_keeps_the_lattice(c):
    u = l1_reduce(c)
    assert abs(u.det()) == 1
    assert hermite_column_basis(c * u) == hermite_column_basis(c)


@given(two_columns(-30, 30))
@settings(deadline=None, max_examples=60)
def test_l1_reduce_is_never_longer_than_the_input_or_lll(c):
    """The sum of the column norms never rises, is at most that of the LLL
    basis, and U is the identity unless the sum falls."""
    u = l1_reduce(c)
    total = sum(column_norms(c * u))
    assert total <= sum(column_norms(c))
    assert total <= sum(column_norms(lll_reduce(c)))
    assert u == IDENTITY or total < sum(column_norms(c))


@given(two_columns(-2, 2))
@settings(deadline=None, max_examples=60)
def test_l1_reduce_reaches_the_brute_force_minimum(c):
    """Both successive minima: on small matrices no unimodular V with
    entries in [-3, 3] gives a shorter column in either place, and the
    smallest sum among them is the reduced one."""
    reduced = column_norms(c * l1_reduce(c))
    others = [column_norms(c * v) for v in UNIMODULAR_UP_TO_3]
    assert all(x >= r for norms in others for x, r in zip(norms, reduced))
    assert sum(reduced) == min(map(sum, others))


@pytest.mark.parametrize(
    "c",
    [
        IntMatrix([[1, 2], [0, -3], [-3, 0], [2, 1]]),
        IntMatrix([[1, 0], [0, 1], [-1, -1]]),
        IntMatrix([[3, 1], [1, 3]]),
    ],
    ids=["rescaled", "triangle", "tie"],
)
def test_l1_reduce_returns_the_identity_when_nothing_lowers_the_size(c):
    assert l1_reduce(c) == IDENTITY


def test_l1_reduce_golden_degree_16_example():
    """BPRIME's pencils have u-degrees (16, 10), half its column norms; on
    the reduced basis they have (2, 2), those of B, whose lattice it
    spans."""
    u = l1_reduce(BPRIME)
    assert u == IntMatrix([[3, 2], [-5, -3]])
    assert [n // 2 for n in column_norms(BPRIME)] == [10, 16]
    assert [n // 2 for n in column_norms(BPRIME * u)] == [2, 2]


@pytest.mark.parametrize(
    "c, message",
    [
        (IntMatrix([[1, 2, 3], [3, 2, 1]]), "two columns required"),
        (IntMatrix([[1, 2], [2, 4], [3, 6]]), "rank deficient"),
        (IntMatrix([[0, 1], [0, 2]]), "rank deficient"),
    ],
)
def test_l1_reduce_rejects(c, message):
    with pytest.raises(ValueError, match=message):
        l1_reduce(c)
