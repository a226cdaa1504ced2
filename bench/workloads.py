"""The inputs of the three workloads, made from the seed alone.

Each workload is a fixed list of operations, solved in that order once per
round.  The seeded inputs are drawn slot by slot from a fixed profile (size
of the elimination, lattice index, row count), so that every seed gives a
round of about the same cost and the metrics compare across seeds; the
seed changes the entries, not the shape of the work.

Nothing here imports galedisc; bench/run.py makes the galedisc objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

import checks

# The acceptance inputs, copied from tests/test_acceptance.py so that the
# benchmark does not depend on the test suite.
B = ((1, 2), (-2, -3), (1, 0), (0, 1))
C = ((1, 2), (0, -3), (-3, 0), (2, 1))
BPRIME = ((-5, -3), (13, 8), (-11, -7), (3, 2))
C42 = ((2, 1, 3), (-2, -1, -2), (1, 1, 0), (-1, -1, -1))
QUARTIC42 = {(3, 0, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1, (0, 3, 1): 1}
# Delta_B, the defining polynomial of B, and M35, with C = B * M35.
DELTA_B = {(3, 0): 4, (0, 2): 27, (1, 1): -18, (2, 0): -1, (0, 1): 4}
M35 = ((-3, 0), (2, 1))

WORKLOADS = ("curves", "transfer", "surfaces")

# curves: (rows n, u-degrees s1 and s2 of the two pencils, pencil degree d)
# per seeded slot.  The Sylvester matrix has size s1 + s2: below 10 it
# takes the polynomial Bareiss engine, from 10 up interpolation on an
# (s2 + 1) x (s1 + 1) grid.  Pinning s1, s2 and d (to common values for
# that n and size) keeps the cost of a slot nearly the same across seeds.
CURVE_SLOTS = (
    [(3, 2, 2, 3), (3, 2, 2, 3), (3, 2, 3, 4), (3, 2, 3, 5), (3, 3, 3, 5), (3, 3, 3, 6)]
    + [(3, 3, 4, 7), (3, 3, 4, 5), (3, 4, 4, 8), (3, 4, 4, 7), (3, 4, 5, 9), (3, 5, 4, 8)]
    + [(4, 3, 3, 5), (4, 4, 3, 6), (4, 4, 4, 7), (4, 5, 4, 8), (4, 5, 5, 9), (4, 6, 5, 10)]
    + [(4, 7, 5, 11), (4, 7, 6, 13), (4, 5, 5, 8), (4, 6, 5, 9), (4, 5, 7, 12)]
    + [(5, 5, 5, 9), (5, 6, 5, 8), (5, 5, 7, 10), (5, 6, 7, 11), (5, 7, 7, 11)]
    + [(5, 5, 5, 8), (5, 6, 5, 9), (5, 6, 6, 11), (5, 6, 7, 12)]
    + [(3, 5, 5, 10), (3, 6, 5, 11), (3, 6, 6, 12), (3, 7, 6, 13), (3, 7, 7, 14)]
)

# transfer, lattice changes of Delta_B: (|det M|, family).  "tri" is
# M = [[1, b], [0, k]], whose scaling group needs no change of coordinates,
# so its cost is fixed by k: k + deg_y2(Delta_B) < 10 takes Bareiss, 8 to
# 10 interpolation.  "low" is M = [[1, 0], [b, k]] with b in 3..5, whose
# grid exceeds the interpolation limit and falls back to Bareiss on a
# matrix of size 24 or more (larger b costs more, up to 3x at b = 12).
# Column signs are left out: a negative one changes the Smith form's
# coordinate change, and with it the cost, by up to 2x.
TRANSFER_B_SLOTS = (
    [(k, "tri") for k in (2, 3, 4, 5, 6, 7) for _ in range(2)]
    + [(8, "tri"), (9, "tri"), (10, "tri"), (13, "low")]
)
# transfer, seeded small curves C2 (3 rows, pencil u-degrees and degree
# (2, 2, 3) or (2, 3, 4)), each shared by three "tri" matrices M of index
# <= 4: all of them stay on the Bareiss side (k + deg_y2 < 10).
TRANSFER_CURVE_SIZES = ((2, 2, 3), (2, 2, 3), (2, 3, 4), (2, 3, 4))
TRANSFER_CURVE_DETS = (2, 3, 4)
# transfer, 3 x 3 matrices M = [[1, 0, b1], [0, 1, b2], [0, 0, k]] applied
# to C42; from k = 9 the elimination has three live variables and takes
# the Bareiss fallback.
TRANSFER_C42_DETS = tuple(range(2, 14))

# surfaces: row counts of the seeded uniform n x 3 matrices.  The number of
# base points, on which the cost of a slot depends most after n, is held
# within 5% (at least 1) of 0.7 * C(n, 2), about its typical value.
SURFACE_SLOTS = [n for n in range(4, 17) for _ in range(3)]
BASE_POINT_SHARE = 0.7


@dataclass(frozen=True)
class Op:
    """One operation of a workload: what to call, on what, and the matrix
    the output is checked against."""

    label: str
    kind: str  # "curve", "transfer" or "surface"
    matrix: tuple  # C for curves and surfaces, M for transfer
    check_matrix: tuple  # C, or C1 = C2 * M for transfer
    poly_key: str = ""  # transfer: which Delta_2 the operation starts from


def primitive_direction(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    first = next(x for x in row if x)
    t = g if first > 0 else -g
    return tuple(x // t for x in row)


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def pencil_u_degrees(rows):
    """The u-degree of each pencil of an n x 2 matrix, half the 1-norm of
    its column; their sum is the Sylvester size dp + dq."""
    return tuple(sum(abs(r[k]) for r in rows) // 2 for k in range(2))


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _zero_sum_rows(rng, n, m, bound, nonzero):
    pool = [x for x in range(-bound, bound + 1) if x or not nonzero]
    rows = [tuple(rng.choice(pool) for _ in range(m)) for _ in range(n - 1)]
    rows.append(tuple(-sum(r[k] for r in rows) for k in range(m)))
    return tuple(rows)


def random_curve(rng, n, s1, s2, d):
    """An n x 2 matrix with zero column sums, no zero entry (so neither
    dehomogenization degenerates), pairwise non-proportional rows, pencil
    u-degrees s1 and s2 and pencil degree d."""
    bound = max(2, (s1 + s2 + n - 2) // (n - 1))
    while True:
        rows = _zero_sum_rows(rng, n, 2, bound, nonzero=True)
        if any(0 in r for r in rows) or pencil_u_degrees(rows) != (s1, s2):
            continue
        if checks.pencil_exponents(rows)[1] != d:
            continue
        if len({primitive_direction(r) for r in rows}) == n:
            return rows


def is_uniform(rows):
    return all(_det3(*t) != 0 for t in combinations(rows, 3))


def base_point_count(rows):
    """Pairs of lines l_i = l_j = 0 at which every pencil form vanishes."""
    exps, _ = checks.pencil_exponents(rows)
    return sum(all(e[i] or e[j] for e in exps) for i, j in combinations(range(len(rows)), 2))


def random_uniform_surface(rng, n):
    """A uniform n x 3 matrix (every 3 x 3 minor nonzero) with zero column
    sums and about the typical number of base points.  Larger entries for
    more rows keep rejection rare."""
    bound = 3 if n <= 8 else 6 if n <= 12 else 9
    pairs = n * (n - 1) / 2
    while True:
        rows = _zero_sum_rows(rng, n, 3, bound, nonzero=False)
        if not is_uniform(rows):
            continue
        if abs(base_point_count(rows) - BASE_POINT_SHARE * pairs) <= max(1, 0.05 * pairs):
            return rows


def _tri(rng, k):
    return ((1, rng.randrange(k)), (0, k))


def _low(rng, k):
    return ((1, 0), (rng.randrange(3, 6), k))


def make_inputs(workload, seed):
    """The workload's fixed operation list for this seed, and for transfer
    the matrices C2 whose Delta_2 the operations start from, keyed as in
    Op.poly_key (C42's quartic is given, not computed)."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops, sources = [], {}
    if workload == "curves":
        for i, (n, s1, s2, d) in enumerate(CURVE_SLOTS):
            rows = random_curve(rng, n, s1, s2, d)
            ops.append(Op("curve%02d_n%d_s%d+%d_d%d" % (i, n, s1, s2, d), "curve", rows, rows))
        for name, rows in (("B", B), ("C", C), ("BPRIME", BPRIME)):
            ops.append(Op(name, "curve", rows, rows))
    elif workload == "transfer":
        sources["B"] = B
        for i, (k, family) in enumerate(TRANSFER_B_SLOTS):
            M = _tri(rng, k) if family == "tri" else _low(rng, k)
            ops.append(Op("B_%s%d_%d" % (family, k, i), "transfer", M, matmul(B, M), "B"))
        for j, (s1, s2, d) in enumerate(TRANSFER_CURVE_SIZES):
            C2 = sources["c%d" % j] = random_curve(rng, 3, s1, s2, d)
            for k in TRANSFER_CURVE_DETS:
                M = _tri(rng, k)
                ops.append(Op("c%d_tri%d" % (j, k), "transfer", M, matmul(C2, M), "c%d" % j))
        for k in TRANSFER_C42_DETS:
            M = ((1, 0, rng.randrange(k)), (0, 1, rng.randrange(k)), (0, 0, k))
            ops.append(Op("C42_k%d" % k, "transfer", M, matmul(C42, M), "C42"))
    elif workload == "surfaces":
        for i, n in enumerate(SURFACE_SLOTS):
            rows = random_uniform_surface(rng, n)
            ops.append(Op("surface%02d_n%d" % (i, n), "surface", rows, rows))
        ops.append(Op("C42", "surface", C42, C42))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return ops, sources
