"""Base point enumeration on three-column matrices, and the localization
oracle the degree tests read staircases from."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from galedisc.basepoints import _minimal, base_points, is_uniform
from galedisc.intmat import IntMatrix
from galedisc.parametrization import build
from oracles import minimal_by_dominance, oracle_base_points, oracle_localize

C42 = IntMatrix([[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]])
C43 = IntMatrix([[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]])
CDERIVED = IntMatrix([[1, 1, 2], [1, -1, 0], [-1, 1, -1], [-1, -1, -1]])
C44A = IntMatrix([[1, 1, 2], [-1, 0, 1], [0, 1, 3], [0, -1, -2], [0, -1, -4]])
C53 = IntMatrix([[1, -7, -6], [-1, 4, 3], [1, 0, 4], [0, 1, -1], [-1, 2, 0]])


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------- Fraction oracle
#
# oracle_base_points (tests/oracles.py) runs the enumeration on Fraction
# coordinates; base_points works on integer points and must agree with it
# exactly.


def random_surface_matrix(rng):
    """A regular n x 3 matrix with a finite base locus. Small entries make
    three or more concurrent lines and proportional rows common, as in C43."""
    while True:
        n = rng.randint(4, 8)
        bound = rng.choice((1, 2, 5))
        rows = [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(n - 1)]
        rows.append([-sum(r[k] for r in rows) for k in range(3)])
        if not all(any(r) for r in rows):
            continue
        spec = build(IntMatrix(rows))
        try:
            return spec, base_points(spec)
        except ValueError as exc:
            assert "base locus not finite" in str(exc)


# ---------------------------------------------------------------- uniformity


def test_uniformity_goldens():
    assert is_uniform(C42)
    assert not is_uniform(C43)
    assert is_uniform(CDERIVED)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=6))
@settings(deadline=None, max_examples=100)
def test_uniformity_matches_every_three_by_three_minor(rows):
    """The cross-product test agrees with the determinants of all 3 x 3
    row selections; small entries make vanishing minors common."""
    picks = combinations(range(len(rows)), 3)
    minors = [IntMatrix([rows[i] for i in pick]).det() for pick in picks]
    assert is_uniform(IntMatrix(rows)) == all(minors)


def test_uniformity_input_validation():
    with pytest.raises(ValueError, match="three columns"):
        is_uniform(IntMatrix([[1, 2], [0, -3], [-3, 0], [2, 1]]))
    with pytest.raises(ValueError, match="at least three rows"):
        is_uniform(IntMatrix([[1, 1, 2], [-1, -1, -2]]))


# ---------------------------------------------------------------- enumeration


def test_base_points_of_uniform_quartic_surface():
    pts = base_points(build(C42))
    assert [(p.coords, p.vanishing) for p in pts] == [
        ((F(1), F(-2), F(0)), (1, 2)),
        ((F(1), Fraction(-1, 2), Fraction(-1, 2)), (1, 4)),
    ]


def test_base_points_of_nonuniform_matrix():
    pts = base_points(build(C43))
    assert [(p.coords, p.vanishing) for p in pts] == [
        ((F(0), F(0), F(1)), (1, 3, 4)),
        ((F(1), Fraction(1, 2), Fraction(-1, 2)), (2, 4)),
        ((F(1), Fraction(1, 2), Fraction(-1, 4)), (4, 5)),
        ((F(1), F(1), F(0)), (1, 2, 3, 5)),
        ((F(1), F(1), F(1)), (1, 3, 6)),
        ((F(1), F(2), F(1)), (2, 6)),
        ((F(1), F(3), F(1)), (5, 6)),
    ]


def test_base_points_vanishing_sets_of_four_point_surface():
    pts = base_points(build(CDERIVED))
    assert [p.vanishing for p in pts] == [(1, 4), (1, 3), (1, 2), (2, 3)]


def test_proportional_rows_through_a_crossing_join_its_vanishing_set():
    """Rows 3 and 4 are proportional, so they never cross each other, yet
    both pass through the crossing (0:0:1) of rows 1 and 2 and through the
    point where row 6 meets them."""
    spec = build(IntMatrix([[1, 0, 0], [0, 1, 0], [1, -1, 0], [3, -3, 0], [-1, -1, 1], [-4, 4, -1]]))
    pts = [(p.coords, p.vanishing) for p in base_points(spec)]
    assert pts == [
        ((F(0), F(0), F(1)), (1, 2, 3, 4)),
        ((F(0), F(1), F(4)), (1, 6)),
        ((F(1), F(1), F(0)), (3, 4, 6)),
    ]
    assert pts == oracle_base_points(spec)


def test_base_points_requires_three_columns():
    with pytest.raises(ValueError, match="needs m = 3"):
        base_points(build(IntMatrix([[1, 2], [-2, -3], [1, 0], [0, 1]])))


def test_base_points_rejects_positive_dimensional_locus():
    rows = [[1, 0, 0], [-1, 0, 0], [0, 1, -1], [0, -1, 1]]
    with pytest.raises(ValueError, match="base locus not finite"):
        base_points(build(IntMatrix(rows)))


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=80)
def test_base_points_match_the_fraction_oracle(seed):
    spec, pts = random_surface_matrix(random.Random(seed))
    assert [(p.coords, p.vanishing) for p in pts] == oracle_base_points(spec)


def test_base_point_oracle_sees_concurrent_lines():
    """The oracle's cases include points where three or more lines meet."""
    specs = [random_surface_matrix(random.Random(seed)) for seed in range(40)]
    assert any(len(p.vanishing) >= 3 for _, pts in specs for p in pts)
    assert oracle_base_points(build(C43)) == [
        (p.coords, p.vanishing) for p in base_points(build(C43))
    ]


def test_coords_normalized_first_nonzero_one():
    for p in base_points(build(C43)):
        lead = next(c for c in p.coords if c)
        assert lead == 1


# ---------------------------------------------------------------- localization oracle


# `oracle_localize` is the staircase reference of the degree tests; these
# goldens pin it.


def test_localize_monomial_corner():
    """At (0:0:1) the length-7 matrix localizes to a two-class monomial ideal."""
    vanishing, directions, _, gens, monomial = oracle_localize(build(C43), (F(0), F(0), F(1)))
    assert vanishing == (1, 3, 4)
    assert monomial
    assert len(directions) == 2
    assert gens == ((0, 3), (2, 1), (4, 0))


def test_localize_at_all_quartic_surface_points():
    spec = build(C42)
    out = [oracle_localize(spec, p.coords) for p in base_points(spec)]
    assert all(monomial for *_, monomial in out)
    assert out[0][3] == ((0, 2), (1, 1), (2, 0))
    assert out[1][3] == ((0, 1), (1, 0))


def test_localize_three_direction_classes_are_not_monomial():
    spec = build(C44A)
    p = next(q for q in base_points(spec) if q.coords == (F(1), F(0), F(0)))
    assert p.vanishing == (3, 4, 5)
    vanishing, directions, _, gens, monomial = oracle_localize(spec, p.coords)
    assert vanishing == p.vanishing
    assert not monomial
    assert len(directions) == 3
    assert set(gens) == {(0, 2, 4), (1, 1, 3), (3, 0, 0)}


def test_localize_five_row_matrix_regression():
    spec = build(C53)
    assert spec.d == 10
    p = next(q for q in base_points(spec) if q.coords == (F(1), F(1), F(-1)))
    assert p.vanishing == (1, 2)
    _, _, _, gens, monomial = oracle_localize(spec, p.coords)
    assert monomial
    assert gens == ((0, 5), (1, 4), (7, 1), (8, 0))


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=12))
def test_minimal_of_negated_signed_pairs_matches_the_dominance_scan(points):
    """`_count_below` in `discriminant` hands the sweep its points negated,
    int pairs of either sign; it keeps, sorted and once each, the pairs
    that no other pair is below in both coordinates."""
    negated = [(-a, -b) for a, b in points]
    assert tuple(_minimal(negated)) == minimal_by_dominance(negated)
