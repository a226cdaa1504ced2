"""Rational parametrizations attached to an integer exponent matrix.

An n x m integer matrix C with zero column sums and no zero row determines
linear forms l_i = <C_i, u> and the map

    psi_C(u) = ( prod_i l_i(u)^{c_i1}, ..., prod_i l_i(u)^{c_im} ),

together with its clearing to a pencil of degree-d forms f_0, ..., f_m.
This module builds that data, merges proportional rows (tracking the
induced coordinate scaling), and runs the exact rank test on the
logarithmic Jacobian that distinguishes the hypersurface case from the
defective one. psi itself is never evaluated: the forms' integer values
at integer points (`_forms_at`) serve the rank test here and the Gauss
check in `discriminant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd, prod
from operator import mul

from .intmat import IntMatrix, _int_rank
from .mpoly import _int_text


class Verdict(Enum):
    """Both answers are proofs; ProbablyDefective keeps its sampled-era bytes."""

    NON_DEFECTIVE = "NonDefective"
    PROBABLY_DEFECTIVE = "ProbablyDefective"


@dataclass(frozen=True)
class ParamSpec:
    """C plus the cleared numerator exponents.

    numer_exps[k][i] is the exponent of l_i in f_k, with k = 0 the common
    denominator row; every f_k has the same total degree d. The f_k share
    no factor l_i: f_0 misses l_i when row i has no negative entry, and
    otherwise f_k does, for k the column of the most negative entry.
    """

    C: IntMatrix
    numer_exps: tuple
    d: int

    @property
    def n(self) -> int:
        return self.C.rows

    @property
    def m(self) -> int:
        return self.C.cols


def build(C: IntMatrix) -> ParamSpec:
    n, m = C.rows, C.cols
    if m < 2 or n < m:
        raise ValueError("need n >= m >= 2")
    for i, row in enumerate(C.entries):
        if not any(row):
            raise ValueError("zero row (row %d)" % (i + 1,))
    for k in range(m):
        s = sum(C.entries[i][k] for i in range(n))
        if s != 0:
            raise ValueError("not regular: column %d sums to %d" % (k + 1, s))
    e0 = [-min(0, min(C.entries[i])) for i in range(n)]
    exps = [tuple(e0)]
    for k in range(m):
        exps.append(tuple(C.entries[i][k] + e0[i] for i in range(n)))
    # Row k + 1 sums to sum(e0) plus column k's sum, which the loop above
    # has found to be 0: every f_k has degree sum(e0).
    return ParamSpec(C=C, numer_exps=tuple(exps), d=sum(e0))


def primitive_direction(row):
    """Primitive vector with positive first nonzero entry spanning the same
    line as row, plus the (signed) multiplier t with row = t * direction."""
    g = gcd(*row)
    if g == 0:
        raise ValueError("zero row")
    first = next(x for x in row if x)
    t = g if first > 0 else -g
    return tuple(x // t for x in row), t


def _direction_classes(rows):
    """Primitive direction -> [(i, t)] over the rows i = t * direction, in
    order of first appearance."""
    classes = {}
    for i, row in enumerate(rows):
        w, t = primitive_direction(row)
        classes.setdefault(w, []).append((i, t))
    return classes


# The largest scaling merge_proportional_rows forms, in bits: about 3000
# decimal digits, under the 4300 that Python converts to a string.
_SCALING_BITS_LIMIT = 10**4


def _class_ratio(ts):
    """A class's ratio prod_t t^t / s^s, s = sum(ts), or prod_t t^t when
    s = 0, as (g, sign, powers): the ratio is (sign * prod b^E)^g over the
    bases b >= 2 and exponents E != 0 of powers.

    With g = gcd(ts), t = g t' and s = g s', and g^(g s') cancels above
    and below the line, leaving (prod t'^t' / s'^s')^g. Each x^k, from
    t'^t' and s'^-s', puts k on the base |x| and, for x < 0, (-1)^k on the
    sign, so equal |t'| pool their exponents and a single row's t^t / t^t
    leaves nothing."""
    g = gcd(*ts)
    s = sum(ts) // g
    pairs = [(t // g, t // g) for t in ts] + ([(s, -s)] if s else [])
    powers = {}
    odd = 0
    for x, k in pairs:
        if x < 0:
            odd ^= k & 1
        powers[abs(x)] = powers.get(abs(x), 0) + k
    powers = {b: e for b, e in powers.items() if b > 1 and e}
    return g, -1 if odd else 1, powers


def merge_proportional_rows(C: IntMatrix):
    """Collapse each class of proportional rows to a single row.

    Returns (C', lam) where lam is the coordinate scaling with
    psi_C = lam * psi_C' away from the arrangements; classes whose row
    multiplicities sum to zero disappear entirely. All exactly rational.
    Raises ValueError when the scaling would take more than
    _SCALING_BITS_LIMIT bits, before any of it is formed.
    """
    classes = [(w, [t for _, t in cls]) for w, cls in _direction_classes(C.entries).items()]
    classes = [(w, ts, _class_ratio(ts)) for w, ts in classes]
    # A ratio (sign * prod b^E)^g has at most g sum |E| log2(b) bits above
    # and below the line together, and enters coordinate k to the power
    # w_k.
    bits = sum(
        sum(map(abs, w)) * g * sum(abs(e) * b.bit_length() for b, e in powers.items())
        for w, _, (g, _, powers) in classes
    )
    if bits > _SCALING_BITS_LIMIT:
        raise ValueError(
            "proportional rows too large: the coordinate scaling needs about %s "
            "bits, above the limit of %d" % (_int_text(bits), _SCALING_BITS_LIMIT)
        )
    merged = []
    scale = [Fraction(1)] * C.cols
    for w, ts, (g, sign, powers) in classes:
        s = sum(ts)
        if s != 0:
            merged.append([s * x for x in w])
        if sign == 1 and not powers:
            continue
        ratio = (Fraction(sign) * prod(Fraction(b) ** e for b, e in powers.items())) ** g
        for k in range(C.cols):
            scale[k] *= ratio ** w[k]
    if not merged:
        raise ValueError("all rows merged away")
    return IntMatrix(merged), tuple(scale)


def _forms_at(C: IntMatrix, u):
    return [sum(map(mul, row, u)) for row in C.entries]


def _log_jacobian_scaled(spec: ParamSpec, u):
    """The logarithmic Jacobian J_jk = sum_i c_ij c_ik / l_i(u) of psi,
    scaled by L = prod_i l_i(u), at an integer point u: entries
    sum_i c_ij c_ik prod_(k != i) l_k(u), forms of degree n - 1 defined on
    the arrangement too, and off it with the rank of J."""
    forms = _forms_at(spec.C, u)
    after = list(accumulate(reversed(forms[1:]), mul, initial=1))[::-1]
    cofactors = list(map(mul, accumulate(forms[:-1], mul, initial=1), after))
    rows, m = spec.C.entries, spec.m
    return [[sum(r[j] * r[k] * q for r, q in zip(rows, cofactors)) for k in range(m)] for j in range(m)]


def _certificate_points(N: int, m: int):
    """The comb(N + m - 1, m - 1) points u = v + N w, v >= 0 in Z^m with
    sum v = N (bars in lex order), w_j = 2^(j - 1). A nonzero form F of
    degree at most N misses one: v -> v + (sum v) w is invertible, so on
    sum v = N, F(v + (sum v) w) is a nonzero polynomial of degree at most
    N in m - 1 variables, which misses a point of the lattice simplex of
    side N (Alon's Combinatorial Nullstellensatz, principal lattice)."""
    for bars in combinations(range(N + m - 1), m - 1):
        ends = (-1,) + bars + (N + m - 1,)
        yield tuple(b - a - 1 + (N << j) for j, (a, b) in enumerate(zip(ends, ends[1:])))


# Points the defect test walks without a witness before it refuses. A
# hypersurface's came by point 22 on 300 seeded regular matrices up to
# 20 x 10; a defective image takes all comb((m - 1) n, m - 1): m = 3 up to
# n = 50, m = 4 up to n = 10. A 16 x 8 point takes 0.3 ms (2-core Xeon).
_CERTIFICATE_POINTS_LIMIT = 5000


def defect_test(spec: ParamSpec) -> Verdict:
    """Exact check that psi parametrizes a hypersurface: the logarithmic
    Jacobian J kills u, and the image is one iff J generically has rank
    m - 1. Scaled, its (m - 1)-minors are forms of degree (m - 1)(n - 1),
    so `_certificate_points` of that degree hold a point of rank m - 1 iff
    it is. C of rank below m (every n = m input) is defective at once, as
    J kills ker C too. Raises ValueError when more than
    _CERTIFICATE_POINTS_LIMIT points go without a witness."""
    m = spec.m
    if _int_rank(spec.C.to_lists()) < m:
        return Verdict.PROBABLY_DEFECTIVE
    for count, u in enumerate(_certificate_points((m - 1) * (spec.n - 1), m), 1):
        if count > _CERTIFICATE_POINTS_LIMIT:
            total = _int_text(comb((m - 1) * spec.n, m - 1))
            raise ValueError("defect test too large: no witness among the first %d of %s certificate points"
                             % (_CERTIFICATE_POINTS_LIMIT, total))
        if _int_rank(_log_jacobian_scaled(spec, u)) == m - 1:
            return Verdict.NON_DEFECTIVE
    return Verdict.PROBABLY_DEFECTIVE
