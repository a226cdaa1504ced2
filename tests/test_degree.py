"""Staircase multiplicities, colengths, and the degree formula for parametrized surfaces."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import galedisc.parametrization
from galedisc.basepoints import base_points, is_uniform, localize
from galedisc.degree import (
    Staircase2,
    _chain,
    colength,
    degree_uniform,
    minimal_generators,
    sparse_origin_multiplicity,
    staircase_multiplicity,
)
from galedisc.intmat import IntMatrix
from galedisc.parametrization import Verdict, build, defect_test
from oracles import lower_hull_by_segments, oracle_base_points

C42 = IntMatrix([[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]])
C43 = IntMatrix([[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]])
# Uniform, with rows 1 and 2 proportional in their last two columns and rows
# 3 and 4 zero in their last: crossings with leading coordinates 0.
CZERO_LEADS = IntMatrix([[-1, -2, -1], [0, 2, 1], [-1, -2, 0], [2, 2, 0]])
CDERIVED = IntMatrix([[1, 1, 2], [1, -1, 0], [-1, 1, -1], [-1, -1, -1]])


# ---------------------------------------------------------------- oracle helpers


def hull_envelope_height(gens, x):
    """Lower-hull height over abscissa x, by exact linear interpolation.

    Test-local oracle. Walks every hull edge of the minimal staircase rather
    than reusing any library geometry.
    """
    pts = sorted(minimal_generators(gens))
    # lower convex hull from (0, b) to (a, 0), monotone chain
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
    raise AssertionError("abscissa outside hull range")


def multiplicity_by_trapezoids(gens):
    """Twice the area under the hull, via unit-interval trapezoid strips."""
    pts = sorted(minimal_generators(gens))
    a = pts[-1][0]
    total = Fraction(0)
    for x in range(a):
        total += (hull_envelope_height(gens, x) + hull_envelope_height(gens, x + 1)) / 2
    e = 2 * total
    assert e.denominator == 1
    return int(e)


def colength_by_counting(gens):
    """Count monomials outside the ideal by brute-force membership checks."""
    pts = minimal_generators(gens)
    amax = max(p[0] for p in pts)
    bmax = max(p[1] for p in pts)
    count = 0
    for x in range(amax + 2):
        for y in range(bmax + 2):
            if not any(a <= x and b <= y for a, b in pts):
                count += 1
    return count


# ---------------------------------------------------------------- generators


def test_minimal_generators_dedupes_and_drops_dominated():
    gens = minimal_generators([(4, 0), (0, 3), (2, 1), (5, 5), (4, 0), (2, 1)])
    assert gens == ((0, 3), (2, 1), (4, 0))


def minimal_by_dominance(points):
    """The minimal generators by their definition: every pair that no other
    pair is below in both coordinates, by a scan over all pairs."""
    pts = set(points)
    return tuple(
        sorted(
            p
            for p in pts
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
        )
    )


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12))
@settings(deadline=None, max_examples=200)
def test_minimal_generators_match_the_dominance_scan(points):
    assert minimal_generators(points) == minimal_by_dominance(points)


def test_minimal_generators_rejections():
    with pytest.raises(ValueError, match="nonnegative"):
        minimal_generators([(-1, 2)])
    with pytest.raises(ValueError, match="empty generator set"):
        minimal_generators([])


@pytest.mark.parametrize(
    "call",
    [minimal_generators, Staircase2.of, sparse_origin_multiplicity],
    ids=["minimal_generators", "Staircase2.of", "sparse_origin_multiplicity"],
)
@pytest.mark.parametrize(
    "points",
    [
        [(1.9, 0), (0, 2.7)],  # would read (1, 0) and (0, 2)
        [(2.9, 0), (0, True)],  # would read (2, 0) and (0, 1)
        [(2, 0), (0, Fraction(3))],
        [(2, 0), ("0", 3)],
    ],
    ids=["floats", "float-and-bool", "fraction", "string"],
)
def test_non_integer_exponents_are_rejected_not_truncated(call, points):
    with pytest.raises(TypeError, match="integer exponents only"):
        call(points)


def test_staircase_of_convenience():
    s = Staircase2.of([(4, 0), (0, 3), (2, 1)])
    assert s.gens == ((0, 3), (2, 1), (4, 0))


def test_staircase_holds_minimal_generators_by_construction():
    s = Staircase2(gens=[(4, 0), (0, 3), (2, 1), (4, 4), (0, 3)])
    assert s.gens == ((0, 3), (2, 1), (4, 0))
    assert s == Staircase2.of(s.gens)


# ---------------------------------------------------------------- multiplicities


@pytest.mark.parametrize(
    "gens, e",
    [
        ([(4, 0), (0, 3), (2, 1)], 10),
        ([(3, 0), (2, 1), (1, 3), (0, 4)], 11),
        ([(6, 0), (4, 1), (0, 3)], 18),
        ([(1, 0), (0, 1)], 1),
        ([(2, 0), (0, 2)], 4),
        ([(5, 0), (0, 7)], 35),
        ([(8, 0), (0, 5), (1, 4), (7, 1)], 37),
    ],
)
def test_staircase_multiplicity_goldens(gens, e):
    assert staircase_multiplicity(Staircase2.of(gens)) == e


@pytest.mark.parametrize(
    "gens, length",
    [
        ([(4, 0), (0, 3), (2, 1)], 8),
        ([(2, 0), (1, 1), (0, 2)], 3),
        ([(1, 0), (0, 1)], 1),
        ([(3, 0), (0, 4)], 12),
        ([(8, 0), (0, 5), (1, 4), (7, 1)], 30),
    ],
)
def test_colength_goldens(gens, length):
    assert colength(Staircase2.of(gens)) == length


@pytest.mark.parametrize("a", [10**6, 10**12, 10**30])
def test_colength_of_a_huge_pure_power_is_immediate(a):
    """The closed form does no work per column: a pure power of any size
    costs the same as a small one."""
    assert colength(Staircase2.of([(a, 0), (0, 3), (1, 1)])) == 3 + (a - 1)


def test_multiplicity_requires_pure_powers_on_both_axes():
    with pytest.raises(ValueError, match="not zero-dimensional"):
        staircase_multiplicity(Staircase2.of([(1, 1)]))
    with pytest.raises(ValueError, match="not zero-dimensional"):
        colength(Staircase2.of([(2, 0), (1, 1)]))


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_multiplicity_matches_trapezoid_oracle(data):
    a = data.draw(st.integers(1, 6))
    b = data.draw(st.integers(1, 6))
    extra = data.draw(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=4)
    )
    gens = [(a, 0), (0, b)] + extra
    assert staircase_multiplicity(Staircase2.of(gens)) == multiplicity_by_trapezoids(gens)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_colength_matches_counting_oracle(data):
    a = data.draw(st.integers(1, 6))
    b = data.draw(st.integers(1, 6))
    extra = data.draw(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=4)
    )
    gens = [(a, 0), (0, b)] + extra
    assert colength(Staircase2.of(gens)) == colength_by_counting(gens)


# ---------------------------------------------------------------- lower hull


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12, unique=True
    )
)
@example([(0, 0), (1, 1), (2, 2), (3, 3)])
@example([(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)])
@example([(0, 2), (1, 1), (1, 3), (2, 0), (2, 5), (4, 0)])
@settings(deadline=None, max_examples=300)
def test_chain_matches_the_segment_oracle(points):
    """The strict-left-turn rule that the staircase multiplicity and the
    hull edges rely on: collinear runs and points over a repeated x go,
    except the last point's column, which the chain climbs to its end."""
    pts = sorted(points)
    assert _chain(pts) == lower_hull_by_segments(pts)


def test_segment_oracle_goldens():
    assert lower_hull_by_segments([(0, 0), (1, 1), (2, 2), (3, 3)]) == [(0, 0), (3, 3)]
    assert lower_hull_by_segments([(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]) == [
        (0, 0),
        (2, 0),
        (2, 1),
    ]


# ---------------------------------------------------------------- degree formula


def test_degree_of_the_quartic_surface():
    rep = degree_uniform(C42)
    assert rep.d == 3 and rep.degree == 4
    assert [(p.vanishing, e) for p, e in rep.points] == [((1, 2), 4), ((1, 4), 1)]


def test_degree_report_json_shape():
    obj = degree_uniform(C42).to_json_dict()
    assert obj == {
        "d": 3,
        "degree": 4,
        "base_points": [
            {"point": ["1", "-2", "0"], "vanishing": [1, 2], "e": 4},
            {"point": ["1", "-1/2", "-1/2"], "vanishing": [1, 4], "e": 1},
        ],
    }


def test_degree_of_four_point_configuration():
    rep = degree_uniform(CDERIVED)
    assert rep.d == 3 and rep.degree == 4
    assert sorted(e for _, e in rep.points) == [1, 1, 1, 2]
    # d^2 = deg(psi) * degree + sum e, with deg(psi) = 1 as psi is birational
    assert rep.d**2 == 1 * rep.degree + sum(e for _, e in rep.points)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2], [0, 0], [3, 1], [2, 2]], "degree formula needs a three-column matrix"),
        ([[1, 0, 0], [0, 0, 0]], "need at least three rows"),
        # The uniformity test runs before build, which would say "zero row".
        ([[1, 2, 3], [0, 0, 0], [-2, 1, -1], [1, -3, -2]], "non-uniform: degree formula unsupported"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "not regular: column 1 sums to 2"),
        (C43.entries, "non-uniform: degree formula unsupported"),
    ],
    ids=["four-by-two", "two-by-three", "zero-row", "not-regular", "C43"],
)
def test_degree_refusals_in_order(rows, message):
    """The first three inputs also break a later check, so their messages
    show which check runs first."""
    with pytest.raises(ValueError, match="^%s$" % message):
        degree_uniform(IntMatrix(rows))


def test_degree_never_samples(monkeypatch):
    """Uniformity alone makes the image a surface (see degree_uniform), so
    no randomized defect test runs and no point is sampled."""

    def sampled(*args, **kwargs):
        raise AssertionError("degree_uniform sampled a point")

    for name in ("defect_test", "_log_jacobian_scaled", "sample_off_arrangement"):
        monkeypatch.setattr(galedisc.parametrization, name, sampled)
    assert degree_uniform(C42).degree == 4
    C, spec, _, _ = random_uniform_spec(random.Random(1))
    assert degree_uniform(C).d == spec.d


def random_uniform_matrix(rng, bound=None):
    """A uniform n x 3 matrix, n = 4..16, with zero column sums; entries up
    to bound, or by default up to 3, 6 and 9 for n up to 8, 12 and 16, the
    sizes of the benchmark's surfaces."""
    while True:
        n = rng.randint(4, 16)
        b = bound or (3 if n <= 8 else 6 if n <= 12 else 9)
        rows = [[rng.randint(-b, b) for _ in range(3)] for _ in range(n - 1)]
        rows.append([-sum(r[k] for r in rows) for k in range(3)])
        C = IntMatrix(rows)
        if is_uniform(C):
            return C


def random_uniform_spec(rng):
    """A uniform matrix as above with degree at least 1; with build(C), its
    base points and the local ideals localize finds at them."""
    while True:
        C = random_uniform_matrix(rng)
        spec = build(C)
        pts = base_points(spec)
        ideals = [localize(spec, p) for p in pts]
        if spec.d**2 > sum(staircase_multiplicity(Staircase2.of(li.gens)) for li in ideals):
            return C, spec, pts, ideals


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=50)
def test_uniform_crossings_need_no_checks(seed):
    """What lets degree_uniform skip checks: on a uniform matrix the base
    locus is finite, and every row pair's staircase holds a pair (0, b) and
    a pair (a, 0), so it is zero-dimensional."""
    C = random_uniform_matrix(random.Random(seed))
    spec = build(C)
    base_points(spec)  # raises when the base locus is not finite
    for i, j in combinations(range(spec.n), 2):
        stairs = [(e[i], e[j]) for e in spec.numer_exps]
        assert any(a == 0 for a, _ in stairs) and any(b == 0 for _, b in stairs)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_degree_matches_the_localize_oracle(seed):
    """Each point's multiplicity, read off the pair of crossing rows, equals
    the staircase multiplicity of the ideal that localize finds there."""
    C, spec, pts, ideals = random_uniform_spec(random.Random(seed))
    assert all(li.monomial for li in ideals)
    local = [staircase_multiplicity(Staircase2.of(li.gens)) for li in ideals]
    rep = degree_uniform(C)
    assert [(p.coords, p.vanishing, e) for p, e in rep.points] == [
        (p.coords, p.vanishing, e) for p, e in zip(pts, local)
    ]
    assert rep.degree == spec.d**2 - sum(local)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=50)
def test_base_point_order_matches_the_fraction_oracle(seed):
    """degree_uniform and base_points share one sort, so the order is held
    against an oracle that sorts Fractions. Entries up to 10^6 make the
    lcm of the leads hundreds of bits long."""
    C = random_uniform_matrix(random.Random(seed), bound=10**6)
    rep = degree_uniform(C)
    assert [(p.coords, p.vanishing) for p, _ in rep.points] == oracle_base_points(build(C))


def test_base_point_order_with_zero_leading_coordinates():
    rep = degree_uniform(CZERO_LEADS)
    pts = [(p.coords, p.vanishing) for p, _ in rep.points]
    assert pts == oracle_base_points(build(CZERO_LEADS))
    assert pts == [
        ((Fraction(0), Fraction(0), Fraction(1)), (3, 4)),
        ((Fraction(0), Fraction(1), Fraction(-2)), (1, 2)),
        ((Fraction(1), Fraction(-1), Fraction(1)), (1, 4)),
        ((Fraction(1), Fraction(-1, 2), Fraction(1)), (2, 3)),
    ]
    assert (rep.d, rep.degree, [e for _, e in rep.points]) == (4, 6, [4, 2, 2, 2])


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(deadline=None, max_examples=100)
def test_uniform_matrices_are_never_defective(matrix_seed, seed):
    """The rank argument in degree_uniform, sampled: one trial at any seed
    finds the log-Jacobian of a regular uniform n x 3 matrix, n = 4..16 and
    entries up to 9, at rank 2."""
    spec = build(random_uniform_matrix(random.Random(matrix_seed), bound=9))
    assert defect_test(spec, trials=1, seed=seed) is Verdict.NON_DEFECTIVE


# ---------------------------------------------------------------- sparse corner multiplicity


@pytest.mark.parametrize(
    "support, e",
    [
        ([(2, 0), (0, 2)], 4),
        ([(2, 0), (0, 3), (1, 1)], 5),
        ([(1, 0), (0, 1)], 1),
        ([(3, 0), (0, 4), (1, 1)], 7),
    ],
)
def test_sparse_origin_multiplicity_goldens(support, e):
    assert sparse_origin_multiplicity(support) == e


def test_sparse_origin_multiplicity_needs_pure_powers():
    with pytest.raises(ValueError, match="hypothesis violated"):
        sparse_origin_multiplicity([(1, 1), (2, 2)])


def test_sparse_origin_multiplicity_order_insensitive():
    rng = random.Random(3)
    support = [(2, 0), (0, 3), (1, 1)]
    for _ in range(5):
        rng.shuffle(support)
        assert sparse_origin_multiplicity(support) == 5
