"""Rational parametrizations attached to an integer exponent matrix.

An n x m integer matrix C with zero column sums and no zero row determines
linear forms l_i = <C_i, u> and the map

    psi_C(u) = ( prod_i l_i(u)^{c_i1}, ..., prod_i l_i(u)^{c_im} ),

together with its clearing to a pencil of degree-d forms f_0, ..., f_m.
This module builds that data, evaluates psi exactly, merges proportional
rows (tracking the induced coordinate scaling), and runs the randomized
rank test on the logarithmic Jacobian that distinguishes the hypersurface
case from the defective one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, prod
from operator import mul

from .intmat import IntMatrix, _int_rank
from .mpoly import _int_text


class Verdict(Enum):
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


def _forms_off_arrangement(spec: ParamSpec, u):
    """The forms l_i at an exact rational point, which must make none of
    them vanish."""
    if len(u) != spec.m:
        raise ValueError("point length mismatch")
    forms = _forms_at(spec.C, [Fraction(x) for x in u])
    dead = [i + 1 for i, l in enumerate(forms) if l == 0]
    if dead:
        raise ValueError(
            "point on the arrangement: form%s %s vanish%s"
            % ("s" if len(dead) > 1 else "",
               ", ".join(map(str, dead)),
               "" if len(dead) > 1 else "es")
        )
    return forms


def evaluate_psi(spec: ParamSpec, u):
    """psi at an exact rational point off the arrangement."""
    forms = _forms_off_arrangement(spec, u)
    out = []
    for k in range(spec.m):
        y = Fraction(1)
        for i in range(spec.n):
            c = spec.C.entries[i][k]
            if c:
                y *= forms[i] ** c
        out.append(y)
    return tuple(out)


def _log_jacobian_scaled(spec: ParamSpec, u):
    """The logarithmic Jacobian J_jk = sum_i c_ij c_ik / l_i(u) of psi,
    scaled by L = prod_i l_i(u), at an integer point u off the arrangement:
    entries sum_i c_ij c_ik (L / l_i(u)), integers with the rank of J since
    L != 0."""
    forms = _forms_at(spec.C, u)
    total = prod(forms)
    cofactors = [total // l for l in forms]
    m = spec.m
    return [
        [
            sum(row[j] * row[k] * q for row, q in zip(spec.C.entries, cofactors))
            for k in range(m)
        ]
        for j in range(m)
    ]


_SAMPLE_BOUND = 10000  # the largest |coordinate| of a sampled point


def sample_off_arrangement(spec: ParamSpec, rng: random.Random):
    """Random integer point with every form nonzero (so u != 0)."""
    return _sample_forms(spec, rng)[0]


def _sample_forms(spec: ParamSpec, rng: random.Random):
    """(u, the forms' values at u) for the point `sample_off_arrangement`
    draws: each coordinate by rng.randrange(-B, B + 1), the call that
    rng.randint(-B, B) makes, so a seed gives the same points."""
    for _ in range(1000):
        u = tuple([rng.randrange(-_SAMPLE_BOUND, _SAMPLE_BOUND + 1) for _ in range(spec.m)])
        forms = _forms_at(spec.C, u)
        if all(forms):
            return u, forms
    raise RuntimeError("could not sample a point off the arrangement")


def defect_test(spec: ParamSpec, trials: int = 5, seed: int = 0) -> Verdict:
    """Randomized check that psi parametrizes a hypersurface.

    The image is a hypersurface iff the logarithmic Jacobian generically has
    rank m - 1 (it always kills u itself). One witness sample settles the
    question; if every sample comes out smaller the configuration is
    reported as probably defective, which for these integer samples is
    wrong only with vanishing probability. The rank is taken in integers,
    on the log-Jacobian scaled by prod_i l_i(u).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    for _ in range(trials):
        u = sample_off_arrangement(spec, rng)
        if _int_rank(_log_jacobian_scaled(spec, u)) == spec.m - 1:
            return Verdict.NON_DEFECTIVE
    return Verdict.PROBABLY_DEFECTIVE
