"""End-to-end acceptance gate.

Every check here is exact: polynomial comparisons are bit-for-bit equality on
integer coefficients, verdicts are compared as values, and the stated wall
clock budgets are asserted with a timer around the call under test.
"""

import math
import random
import time
from fractions import Fraction

from galedisc.degree import (
    Staircase2,
    colength,
    degree_uniform,
    minimal_generators,
    sparse_origin_multiplicity,
    staircase_multiplicity,
)
from galedisc.discriminant import (
    gauss_inverse_check,
    group_product,
    homogenize,
    implicitize,
    transfer,
)
from galedisc.intmat import IntMatrix, gcd_maximal_minors, smith_normal_form
from galedisc.mpoly import MPoly, substitute_monomial, sylvester_resultant
from galedisc.parametrization import (
    Verdict,
    _log_jacobian_scaled,
    build,
    defect_test,
    evaluate_psi,
    sample_off_arrangement,
)
from oracles import diagram_check, plain_normal_form

B = IntMatrix([[1, 2], [-2, -3], [1, 0], [0, 1]])
C = IntMatrix([[1, 2], [0, -3], [-3, 0], [2, 1]])
BPRIME = IntMatrix([[-5, -3], [13, 8], [-11, -7], [3, 2]])
C42 = IntMatrix([[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]])
C43 = IntMatrix([[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]])
ANTIPODAL = IntMatrix([[1, 0], [0, 1], [-1, 0], [0, -1]])
M35 = IntMatrix([[-3, 0], [2, 1]])

DELTA_B_DISPLAY = MPoly(2, {(0, 1): -4, (0, 2): -27, (2, 0): 1, (1, 1): 18, (3, 0): -4})

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

QUARTIC42 = MPoly(3, {(3, 0, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1, (0, 3, 1): 1})
QUARTIC42_MISTRANSCRIBED = MPoly(3, {(2, 0, 1): 1, (1, 1, 0): 1, (3, 0, 0): 1, (0, 2, 2): 1})


def test_implicitize_cubic_discriminant_under_five_seconds():
    t0 = time.perf_counter()
    delta = implicitize(build(B))
    elapsed = time.perf_counter() - t0
    assert delta == DELTA_B_DISPLAY or delta == -DELTA_B_DISPLAY
    assert plain_normal_form(delta) == ((0, 0), 1, delta)
    assert elapsed < 5.0


def test_implicitize_index_three_sublattice_under_thirty_seconds():
    t0 = time.perf_counter()
    delta = implicitize(build(C))
    elapsed = time.perf_counter() - t0
    assert delta == DELTA_C
    assert delta.total_degree() == 6
    assert elapsed < 30.0


def test_implicitize_degree_sixteen_basis_under_five_minutes():
    t0 = time.perf_counter()
    delta = implicitize(build(BPRIME))
    elapsed = time.perf_counter() - t0
    assert delta == DELTA_BPRIME
    assert elapsed < 300.0


def test_surface_degree_from_base_point_multiplicities():
    rep = degree_uniform(C42)
    assert rep.d == 3
    assert rep.degree == 4
    by_point = {p.coords: e for p, e in rep.points}
    assert by_point[(Fraction(1), Fraction(-2), Fraction(0))] == 4
    assert by_point[(Fraction(1), Fraction(-1, 2), Fraction(-1, 2))] == 1
    assert rep.d**2 - 1 - 4 == rep.degree


def test_staircase_multiplicity_and_colength_goldens():
    assert staircase_multiplicity(Staircase2.of([(4, 0), (0, 3), (2, 1)])) == 10
    assert staircase_multiplicity(Staircase2.of([(3, 0), (2, 1), (1, 3), (0, 4)])) == 11
    assert staircase_multiplicity(Staircase2.of([(6, 0), (4, 1), (0, 3)])) == 18
    assert colength(Staircase2.of([(4, 0), (0, 3), (2, 1)])) == 8
    assert colength(Staircase2.of([(2, 0), (1, 1), (0, 2)])) == 3


def test_gauss_map_is_birational_on_the_three_known_loci():
    assert gauss_inverse_check(build(B), implicitize(build(B)), trials=20, seed=0)
    assert gauss_inverse_check(build(C), implicitize(build(C)), trials=20, seed=0)
    assert gauss_inverse_check(build(C42), QUARTIC42, trials=20, seed=0)
    # the mistranscribed quartic is not the vanishing locus, and the check sees that
    assert not gauss_inverse_check(build(C42), QUARTIC42_MISTRANSCRIBED, trials=20, seed=0)


def test_transfer_theorem_with_exact_unit_group_factorization():
    delta_c, v = transfer(-DELTA_B_DISPLAY, M35)
    assert delta_c == DELTA_C
    assert v == (-9, 3)
    lhs = substitute_monomial(delta_c, M35).shift(tuple(-x for x in v))
    rhs = group_product(DELTA_B_DISPLAY, M35)
    assert lhs == rhs


def test_transfer_through_norms_of_degree_seven_and_eleven_under_twenty_seconds():
    # Each transfer takes a norm of degree e = 7 or 11 and order 8 or 12 by
    # the power sums; implicitizing B*M directly is the independent side.
    t0 = time.perf_counter()
    delta_b = implicitize(build(B))
    for rows in ([[1, 0], [3, 12]], [[1, 0], [4, 8]], [[2, 1], [0, 4]]):
        M = IntMatrix(rows)
        assert transfer(delta_b, M)[0] == implicitize(build(B * M))
    assert time.perf_counter() - t0 < 20.0


def test_quartic_transfers_through_high_degree_group_products_under_ten_seconds():
    # deg_{y_k} g = 7 and 12 at the scaling variable, so both group products
    # are resultants in three variables; the transferred polynomial must
    # vanish on the C42 * M parametrization, sampled apart from any resultant.
    t0 = time.perf_counter()
    for rows in ([[1, 0, 0], [0, 1, 0], [2, 0, 13]], [[7, 3, 0], [0, 1, 0], [0, 0, 1]]):
        M = IntMatrix(rows)
        delta1, _ = transfer(QUARTIC42, M)
        spec = build(C42 * M)
        rng = random.Random(0)
        for _ in range(5):
            y = evaluate_psi(spec, sample_off_arrangement(spec, rng))
            assert delta1.evaluate(y) == 0
            assert (delta1 + 1).evaluate(y) != 0
    assert time.perf_counter() - t0 < 10.0


def test_parametrization_diagram_commutes_at_twenty_points():
    assert diagram_check(C, B, M35, trials=20, seed=0)


def test_defect_verdicts_and_lattice_indices():
    assert defect_test(build(ANTIPODAL)) is Verdict.PROBABLY_DEFECTIVE
    assert defect_test(build(B)) is Verdict.NON_DEFECTIVE
    assert defect_test(build(C)) is Verdict.NON_DEFECTIVE
    assert defect_test(build(C42)) is Verdict.NON_DEFECTIVE
    assert gcd_maximal_minors(B) == 1
    assert gcd_maximal_minors(C) == 3


def test_nonuniform_surface_partial_pipeline():
    from galedisc.basepoints import base_points, localize

    spec = build(C43)
    assert spec.d == 7
    try:
        degree_uniform(C43)
        raised = False
    except ValueError as e:
        raised = "non-uniform" in str(e)
    assert raised
    corner = next(
        p for p in base_points(spec) if p.coords == (Fraction(0), Fraction(0), Fraction(1))
    )
    li = localize(spec, corner)
    assert li.monomial
    assert li.gens == ((0, 3), (2, 1), (4, 0))
    assert staircase_multiplicity(Staircase2.of(li.gens)) == 10
    # the advertised total: degree 13 once all seven multiplicities sum to 36
    assert spec.d**2 - 36 == 13


# ---------------------------------------------------------------- property suites


def _random_poly(rng, min_deg_in_x=0):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-4, 4)
        p = MPoly(2, terms)
        if p != MPoly.zero(2) and p.degree_in(1) >= min_deg_in_x:
            return p


def _random_regular(rng, n, m):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n - 1)]
        rows.append([-sum(r[k] for r in rows) for k in range(m)])
        if all(any(r) for r in rows):
            return IntMatrix(rows)


def _hull_height(gens, x):
    pts = sorted(minimal_generators(gens))
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


def _multiplicity_by_strips(gens):
    pts = sorted(minimal_generators(gens))
    a = pts[-1][0]
    area = sum((_hull_height(gens, x) + _hull_height(gens, x + 1)) / 2 for x in range(a))
    e = 2 * area
    assert e == int(e)
    return int(e)


def test_property_suites_within_sixty_seconds():
    t0 = time.perf_counter()

    # resultant multiplicativity, 50 cases
    rng = random.Random(101)
    for _ in range(50):
        p = _random_poly(rng, min_deg_in_x=1)
        q = _random_poly(rng, min_deg_in_x=1)
        r = _random_poly(rng, min_deg_in_x=1)
        lhs = sylvester_resultant(p, q * r, 1)
        rhs = sylvester_resultant(p, q, 1) * sylvester_resultant(p, r, 1)
        assert lhs == rhs

    # Smith form reconstruction and divisibility, 200 cases
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        dec = smith_normal_form(m)
        assert dec.P * m * dec.Q == dec.D
        assert abs(dec.P.det()) == 1 and abs(dec.Q.det()) == 1
        f = dec.invariant_factors
        assert math.prod(f) == abs(m.det())
        for a, b in zip(f, f[1:]):
            assert (b % a == 0) if a else (b == 0)

    # scaled log-Jacobian symmetry and Euler annihilation, 50 cases
    rng = random.Random(303)
    for _ in range(50):
        mm = rng.choice((2, 3))
        spec = build(_random_regular(rng, mm + rng.randint(1, 3), mm))
        u = sample_off_arrangement(spec, rng)
        j = _log_jacobian_scaled(spec, u)
        for a in range(mm):
            for b in range(mm):
                assert j[a][b] == j[b][a]
            assert sum(j[a][b] * u[b] for b in range(mm)) == 0

    # staircase shoelace versus trapezoid strips, 100 cases, coordinates <= 6
    rng = random.Random(404)
    for _ in range(100):
        gens = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))]
        gens += [
            (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(0, 4))
        ]
        assert staircase_multiplicity(Staircase2.of(gens)) == _multiplicity_by_strips(gens)

    # homogenization preserves the shape of both known discriminants
    delta_b = implicitize(build(B))
    hom_b = homogenize(delta_b, B)
    assert len(hom_b.terms) == len(delta_b.terms)
    ours, plain = sorted(hom_b.terms.values()), sorted(delta_b.terms.values())
    flipped = sorted(-c for c in delta_b.terms.values())
    assert ours == plain or ours == flipped
    hom_q = homogenize(QUARTIC42, C42)
    assert len(hom_q.terms) == len(QUARTIC42.terms)
    assert sorted(hom_q.terms.values()) == sorted(QUARTIC42.terms.values())

    assert time.perf_counter() - t0 < 60.0


def test_sparse_corner_multiplicities():
    assert sparse_origin_multiplicity([(2, 0), (0, 2)]) == 4
    assert sparse_origin_multiplicity([(2, 0), (0, 3), (1, 1)]) == 5
