"""Building the rational parametrization from an integer matrix and probing its rank."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import galedisc.parametrization
from galedisc.intmat import IntMatrix, _int_rank
from galedisc.parametrization import (
    Verdict,
    _forms_at,
    _certificate_points,
    _log_jacobian_scaled,
    build,
    defect_test,
    merge_proportional_rows,
    primitive_direction,
)
from oracles import psi_at, sample_off_arrangement

B = IntMatrix([[1, 2], [-2, -3], [1, 0], [0, 1]])
C = IntMatrix([[1, 2], [0, -3], [-3, 0], [2, 1]])
BPRIME = IntMatrix([[-5, -3], [13, 8], [-11, -7], [3, 2]])
C42 = IntMatrix([[2, 1, 3], [-2, -1, -2], [1, 1, 0], [-1, -1, -1]])
C43 = IntMatrix([[1, -1, 0], [1, -1, 1], [1, -1, 0], [-1, 2, 0], [-1, 1, -2], [-1, 0, 1]])
ANTIPODAL = IntMatrix([[1, 0], [0, 1], [-1, 0], [0, -1]])


def rank_of_fractions(rows) -> int:
    """Rank of a matrix given as rows of Fractions, by Gaussian elimination:
    the reference for the integer rank that defect_test takes."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / pr[c]
                m[r] = [a - f * b for a, b in zip(m[r], pr)]
        rank += 1
        if rank == len(m):
            break
    return rank


def random_regular_matrix(rng, n, m):
    """Random matrix with zero column sums, no zero rows."""
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n - 1)]
        last = [-sum(r[k] for r in rows) for k in range(m)]
        rows.append(last)
        if all(any(x for x in r) for r in rows):
            return IntMatrix(rows)


# ---------------------------------------------------------------- build


def test_build_cubic_dependency_matrix():
    spec = build(B)
    assert (spec.n, spec.m, spec.d) == (4, 2, 3)
    assert spec.numer_exps == ((0, 3, 0, 0), (1, 1, 1, 0), (2, 0, 0, 1))


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=30)
def test_build_pencil_shares_no_form(seed):
    """No l_i divides every f_k, so the pencil needs no common factor
    stripped."""
    rng = random.Random(seed)
    m = rng.choice((2, 3))
    spec = build(random_regular_matrix(rng, m + rng.randint(0, 3), m))
    assert all(min(e[i] for e in spec.numer_exps) == 0 for i in range(spec.n))


@pytest.mark.parametrize(
    "mat, d",
    [(B, 3), (C, 6), (BPRIME, 16), (C42, 3), (C43, 7)],
)
def test_build_common_degree(mat, d):
    assert build(mat).d == d


def test_build_numerator_exponent_table_shape():
    spec = build(C)
    assert len(spec.numer_exps) == spec.m + 1
    assert all(len(e) == spec.n for e in spec.numer_exps)
    assert all(min(col) == 0 for col in zip(*spec.numer_exps))  # columnwise minima stripped
    assert all(sum(e) == spec.d for e in spec.numer_exps)


@pytest.mark.parametrize(
    "rows, msg",
    [
        ([[0, 0], [1, -1], [-1, 1], [0, 0]], "zero row"),
        ([[1, 1], [2, 3]], "not regular: column 1 sums to 3"),
        ([[5], [-5]], "need n >= m >= 2"),
        ([[1, 2, 3], [-1, -2, -3]], "need n >= m >= 2"),
    ],
)
def test_build_rejections(rows, msg):
    with pytest.raises(ValueError, match=msg.replace("(", "\\(")):
        build(IntMatrix(rows))


# ---------------------------------------------------------------- psi, the oracle


def test_psi_value_golden():
    assert psi_at(build(B), (1, 1)) == (Fraction(3, 25), Fraction(-9, 125))


def test_psi_is_scale_invariant():
    """Degree-zero homogeneity: psi(t*u) = psi(u)."""
    spec = build(C)
    assert psi_at(spec, (2, 5)) == psi_at(spec, (6, 15))


# ---------------------------------------------------------------- jacobian


def log_jacobian(spec, u):
    """The m x m matrix J_jk = sum_i c_ij c_ik / l_i(u) over Fractions, at an
    exact rational point off the arrangement: the oracle of
    _log_jacobian_scaled."""
    forms = _forms_at(spec.C, [Fraction(x) for x in u])
    return tuple(
        tuple(
            sum(Fraction(row[j] * row[k]) / l for row, l in zip(spec.C.entries, forms))
            for k in range(spec.m)
        )
        for j in range(spec.m)
    )


def test_log_jacobian_golden():
    spec = build(B)
    j = log_jacobian(spec, (Fraction(1), Fraction(1)))
    s = Fraction(8, 15)
    assert j == ((s, -s), (-s, s))


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=20)
def test_log_jacobian_symmetry_and_euler(seed):
    rng = random.Random(seed)
    m = rng.choice((2, 3))
    spec = build(random_regular_matrix(rng, m + rng.randint(1, 3), m))
    u = sample_off_arrangement(spec, rng)
    j = log_jacobian(spec, u)
    for a in range(m):
        for b in range(m):
            assert j[a][b] == j[b][a]
    for a in range(m):
        assert sum(j[a][b] * u[b] for b in range(m)) == 0


# ---------------------------------------------------------------- defect verdicts


@pytest.mark.parametrize(
    "mat, verdict",
    [
        (B, Verdict.NON_DEFECTIVE),
        (C, Verdict.NON_DEFECTIVE),
        (C42, Verdict.NON_DEFECTIVE),
        (C43, Verdict.NON_DEFECTIVE),
        (ANTIPODAL, Verdict.PROBABLY_DEFECTIVE),
    ],
)
def test_defect_verdicts(mat, verdict):
    assert defect_test(build(mat)) is verdict


def test_defect_rank_deficient_matrix_is_defective():
    rows = [[1, 1], [2, 2], [-1, -1], [-2, -2]]
    assert defect_test(build(IntMatrix(rows))) is Verdict.PROBABLY_DEFECTIVE


def random_defective_matrix(rng, m, shape):
    """A regular n x m matrix whose log-Jacobian has rank below m - 1:
    antipodal row pairs, whose terms cancel; the rows of an n x k regular
    matrix, k < m, pushed into Z^m, whose Jacobian has rank at most k; or
    n = m, where the zero column sums leave C of rank below m."""
    if shape == "square":
        return random_regular_matrix(rng, m, m)
    while True:
        if shape == "antipodal":
            half = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(max(2, (m + 1) // 2), 4))]
            rows = half + [[-x for x in r] for r in half]
        else:
            k = rng.randint(1, m - 1)
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(m, m + 2) - 1)]
            a.append([-sum(col) for col in zip(*a)])
            lift = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
            rows = [[sum(r[t] * lift[t][j] for t in range(k)) for j in range(m)] for r in a]
        if all(any(r) for r in rows):
            return IntMatrix(rows)


def defect_test_by_fractions(spec, rng, trials=5):
    """The sampled defect test over Fractions: the rank of the unscaled
    log-Jacobian by Gaussian elimination at seeded points off the
    arrangement, NonDefective on the first of rank m - 1."""
    for _ in range(trials):
        u = sample_off_arrangement(spec, rng)
        if rank_of_fractions(log_jacobian(spec, u)) == spec.m - 1:
            return Verdict.NON_DEFECTIVE
    return Verdict.PROBABLY_DEFECTIVE


def defect_outcome(spec):
    """defect_test's verdict, or "refused" when it gives up."""
    try:
        return defect_test(spec)
    except ValueError as e:
        assert str(e).startswith("defect test too large")
        return "refused"


@given(st.integers(0, 10_000), st.sampled_from(["regular", "antipodal", "lifted", "square"]))
@settings(deadline=None, max_examples=80)
def test_integer_rank_matches_fraction_rank_of_log_jacobian(seed, shape):
    """m = 2..5: the scaled log-Jacobian is L times the Fraction one at
    sampled points, with the same rank, and the exact verdict is the
    oracle's; the three defective shapes are defective."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    if shape == "regular":
        mat = random_regular_matrix(rng, m + rng.randint(0, 4), m)
    else:
        mat = random_defective_matrix(rng, m, shape)
    spec = build(mat)
    for _ in range(3):
        u = sample_off_arrangement(spec, rng)
        scaled = _log_jacobian_scaled(spec, u)
        total = 1
        for row in mat.entries:
            total *= sum(c * x for c, x in zip(row, u))
        assert scaled == [[total * x for x in row] for row in log_jacobian(spec, u)]
        assert _int_rank(scaled) == rank_of_fractions(log_jacobian(spec, u))
    verdict = defect_test(spec)
    assert verdict is defect_test_by_fractions(spec, rng)
    if shape != "regular":
        assert verdict is Verdict.PROBABLY_DEFECTIVE


@st.composite
def regular_matrices(draw):
    """n x m matrices with zero column sums and no zero row, m = 2..5 and
    n = m..m + 3, entries of the first n - 1 rows in -4..4."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(m, m + 3))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=n - 1, max_size=n - 1))
    rows.append([-sum(col) for col in zip(*rows)])
    assume(all(any(r) for r in rows))
    return IntMatrix(rows)


@given(regular_matrices())
@settings(deadline=None, max_examples=100)
def test_exact_defect_test_matches_the_fraction_oracle_on_drawn_matrices(mat):
    """The verdict is the sampled oracle's, and a refusal comes only where
    the oracle finds the image defective."""
    spec = build(mat)
    expected = defect_test_by_fractions(spec, random.Random(0))
    got = defect_outcome(spec)
    assert got is expected or (got == "refused" and expected is Verdict.PROBABLY_DEFECTIVE)


@pytest.mark.parametrize(
    "rows, verdict",
    [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], Verdict.PROBABLY_DEFECTIVE),
        ([[1, -1, 0, 0], [2, 3, 0, 0], [-3, -2, 0, 0], [0, 0, 1, 2], [0, 0, -2, -3], [0, 0, 1, 1]], Verdict.PROBABLY_DEFECTIVE),
        ([[1, -1, 0, 0], [2, 3, 0, 0], [-3, -2, 1, 0], [0, 0, 1, 2], [0, 0, -2, -3], [0, 0, 0, 1]], Verdict.NON_DEFECTIVE),
        ([[2, 1], [-1, 3], [-1, -4]], Verdict.NON_DEFECTIVE),
    ],
    ids=["antipodal-6x3", "two-blocks-6x4", "joined-blocks-6x4", "three-rows"],
)
def test_defect_verdicts_of_full_rank_matrices(rows, verdict):
    """C of rank m, so no shortcut: a defective image is proved by the whole
    point set, here the product of two curves, and one row joining the
    blocks makes a hypersurface."""
    spec = build(IntMatrix(rows))
    assert _int_rank(spec.C.to_lists()) == spec.m
    assert defect_test(spec) is verdict is defect_test_by_fractions(spec, random.Random(1))


def monomials(m, N):
    """The exponents of the monomials of degree N in m variables."""
    return [e for e in product(range(N + 1), repeat=m) if sum(e) == N]


@pytest.mark.parametrize("N, m", [(0, 2), (1, 2), (7, 2), (0, 3), (5, 3), (4, 4), (3, 5)])
def test_certificate_points_prove_forms_of_their_degree(N, m):
    """comb(N + m - 1, m - 1) distinct points u = v + N w, v >= 0 summing to
    N, w_j = 2^(j - 1); the monomials of degree N take a nonsingular square
    matrix of values on them, so no nonzero form of degree N vanishes on
    all of them."""
    points = list(_certificate_points(N, m))
    assert len(points) == len(set(points)) == comb(N + m - 1, m - 1)
    for u in points:
        v = [x - (N << j) for j, x in enumerate(u)]
        assert min(v) >= 0 and sum(v) == N
    values = [[prod(x**k for x, k in zip(u, e)) for e in monomials(m, N)] for u in points]
    assert _int_rank(values) == len(points)


@pytest.mark.parametrize("N", [1, 4, 9])
def test_certificate_points_do_not_prove_one_degree_more(N):
    """The bound is tight: on two variables the product of the lines
    through the N + 1 points is a nonzero form of degree N + 1 that
    vanishes on all of them."""
    points = list(_certificate_points(N, 2))

    def lines(x, y):
        return prod(b * x - a * y for a, b in points)

    assert all(lines(*u) == 0 for u in points)
    assert lines(1, 0) != 0


def test_defect_test_walks_the_points_of_degree_m_minus_1_times_n_minus_1(monkeypatch):
    """Without a witness the walk takes every point of degree (m - 1)(n - 1),
    comb((m - 1) n, m - 1) of them: 4 for ANTIPODAL and 66 for a 6 x 3
    antipodal matrix of rank 3. With C of rank below m it takes none."""
    walked = []
    real = galedisc.parametrization._log_jacobian_scaled
    monkeypatch.setattr(galedisc.parametrization, "_log_jacobian_scaled", lambda spec, u: walked.append(u) or real(spec, u))
    for rows, count in [
        (ANTIPODAL.entries, 4),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], 66),
        ([[1, 1], [2, 2], [-1, -1], [-2, -2]], 0),
    ]:
        walked.clear()
        spec = build(IntMatrix(rows))
        assert defect_test(spec) is Verdict.PROBABLY_DEFECTIVE
        assert walked == list(_certificate_points((spec.m - 1) * (spec.n - 1), spec.m))[:count]
        assert len(walked) == count


def test_defect_test_refuses_past_its_point_limit(monkeypatch):
    """The refusal is lazy: with the limit below the 66 points of a
    defective 6 x 3 matrix it refuses after the limit, and a matrix whose
    witness comes first is still decided."""
    monkeypatch.setattr(galedisc.parametrization, "_CERTIFICATE_POINTS_LIMIT", 10)
    spec = build(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    with pytest.raises(ValueError) as err:
        defect_test(spec)
    assert str(err.value) == "defect test too large: no witness among the first 10 of 66 certificate points"
    assert defect_test(build(C42)) is Verdict.NON_DEFECTIVE


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_int_rank_matches_fraction_rank(seed):
    """Low-rank products make columns without a pivot, which the
    fraction-free elimination skips."""
    rng = random.Random(seed)
    rows, cols, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
    left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
    mat = [[sum(l[t] * right[t][j] for t in range(inner)) for j in range(cols)] for l in left]
    expected = rank_of_fractions([[Fraction(x) for x in r] for r in mat])
    assert _int_rank([list(r) for r in mat]) == expected


# ---------------------------------------------------------------- proportional rows


@pytest.mark.parametrize(
    "row, direction, scale",
    [
        ((2, -2, 0), (1, -1, 0), 2),
        ((-3, 6), (1, -2), -3),
        ((0, -5), (0, 1), -5),
    ],
)
def test_primitive_direction(row, direction, scale):
    assert primitive_direction(row) == (direction, scale)


def test_merge_collapses_duplicate_rows():
    merged, lam = merge_proportional_rows(C43)
    assert merged.to_lists() == [
        [2, -2, 0],
        [1, -1, 1],
        [-1, 2, 0],
        [-1, 1, -2],
        [-1, 0, 1],
    ]
    assert lam == (Fraction(1, 4), Fraction(4), Fraction(1))


def test_merge_is_identity_on_generic_rows():
    merged, lam = merge_proportional_rows(B)
    assert merged == B
    assert lam == (Fraction(1), Fraction(1))


def test_merge_scaling_invariant():
    """psi of the original equals the coordinatewise scaling of psi of the merged matrix."""
    merged, lam = merge_proportional_rows(C43)
    full_spec, merged_spec = build(C43), build(merged)
    rng = random.Random(5)
    for _ in range(4):
        u = sample_off_arrangement(full_spec, rng)
        a = psi_at(full_spec, u)
        b = psi_at(merged_spec, u)
        assert a == tuple(lk * bk for lk, bk in zip(lam, b))


def test_merge_can_consume_everything():
    with pytest.raises(ValueError, match="all rows merged away"):
        merge_proportional_rows(ANTIPODAL)


@pytest.mark.parametrize("t", [10**4, 10**5, 10**6])
def test_merge_refuses_a_huge_scaling_before_forming_it(t):
    """prod t^t over a class is not formed when it would run to millions of
    bits: the refusal is immediate, and carries the estimate."""
    C = IntMatrix([[t, 0], [-t, 1], [2 * t, 0], [-2 * t, -1]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"proportional rows too large: the coordinate scaling needs about \d+ bits, above the limit of 10000"):
        merge_proportional_rows(C)
    assert time.perf_counter() - start < 0.1


def test_a_scaling_estimate_above_the_text_limit_is_given_as_a_digit_count(int_text_limit):
    """The class [[t, 0], [2t, 0]] has g = t and bases 2^2 3^-3, so the
    estimate is 10 t bits: for t = 10^5000, an integer of 5002 digits."""
    t = 10**5000
    C = IntMatrix([[t, 0], [-t, 1], [2 * t, 0], [-2 * t, -1]])
    with pytest.raises(ValueError) as err:
        merge_proportional_rows(C)
    assert str(err.value) == (
        "proportional rows too large: the coordinate scaling needs about [5002 digits] "
        "bits, above the limit of 10000"
    )


@pytest.mark.parametrize(
    "rows, lam",
    [
        ([[300, 300], [-300, 0], [0, -300]], (1, 1)),
        ([[10**6, 0], [-(10**6), 0], [10**6, 0], [-(10**6), 1], [0, -1]], (1, 1)),
        ([[300, 300], [600, 600], [-900, 0], [0, -900]], (Fraction(2**600, 3**900),) * 2),
    ],
    ids=["single-rows", "cancelling-class", "common-factor"],
)
def test_merge_sizes_the_scaling_after_cancellation(rows, lam):
    """Large multipliers are no refusal when the scaling they give is
    small: a row alone in its class scales by t^t / t^t = 1, a class
    whose multipliers cancel by 1, and one with common factor g by the
    g-th power of a small ratio, here (300^300 600^600 / 900^900)."""
    start = time.perf_counter()
    assert merge_proportional_rows(IntMatrix(rows))[1] == lam
    assert time.perf_counter() - start < 0.1


@given(
    st.lists(
        st.tuples(st.sampled_from([(1, 0), (0, 1), (1, -1), (2, 1), (1, 3)]), st.integers(-20, 20).filter(bool)),
        min_size=2,
        max_size=7,
    )
)
@settings(max_examples=150)
def test_merge_scaling_bits_estimate_is_an_upper_bound(rows):
    """With the limit one bit below the scaling's actual size, the merge
    refuses: its estimate never falls short of what it forms. The size of
    p/q is floor(log2 |p|) + floor(log2 q), which is 0 for 1."""
    C = IntMatrix([[t * x for x in w] for w, t in rows])
    assume(all(any(col) for col in zip(*C.entries)))
    try:
        _, lam = merge_proportional_rows(C)
    except ValueError as e:
        assume("merged away" not in str(e))
        raise
    bits = sum(x.numerator.bit_length() + x.denominator.bit_length() - 2 for x in lam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(galedisc.parametrization, "_SCALING_BITS_LIMIT", bits - 1)
        with pytest.raises(ValueError, match="proportional rows too large"):
            merge_proportional_rows(C)
