"""Base points of the cleared pencil in the plane case.

All of this is for m = 3: the forms l_i cut out a line arrangement in P^2,
and the pencil f_0, ..., f_3 has a finite base locus exactly when no
arrangement line lies in it entirely. The base points are the crossings of
row pairs through which every pencil member vanishes. The CLI's
`analyze` lists them, and `degree_uniform` reads each one's local
multiplicity off the pair of rows that cross there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .intmat import IntMatrix
from .parametrization import ParamSpec, _direction_classes, primitive_direction


@dataclass(frozen=True)
class BasePoint:
    """A common zero of the pencil, as a point of P^2.

    coords is the representative with first nonzero coordinate 1; vanishing
    lists the 1-based indices of the forms through the point, sorted.
    """

    coords: tuple
    vanishing: tuple

    def to_json_dict(self) -> dict:
        return {"point": [str(c) for c in self.coords], "vanishing": list(self.vanishing)}


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def base_points(spec: ParamSpec):
    """All base points of the pencil, sorted by coordinates.

    A point's vanishing set is the union of the row pairs crossing there: a
    line k through the crossing w of non-proportional rows i and j is
    non-proportional to one of them, and that pair crosses at w too.

    Raises when m != 3 or when an entire arrangement line consists of base
    points, which happens exactly when some direction class carries a
    positive exponent in every pencil member.
    """
    if spec.m != 3:
        raise ValueError("base point enumeration needs m = 3")
    C = spec.C
    for w, members in _direction_classes(C.entries).items():
        if all(any(exps[i] > 0 for i, _ in members) for exps in spec.numer_exps):
            raise ValueError("base locus not finite (direction %s)" % (w,))

    through = {}
    for i, j in combinations(range(spec.n), 2):
        p = _cross3(C.entries[i], C.entries[j])
        if not any(p):  # proportional rows
            continue
        w, _ = primitive_direction(p)
        through.setdefault(w, set()).update((i, j))

    found = [
        (w, tuple(i + 1 for i in sorted(van0)), None)
        for w, van0 in through.items()
        if all(any(exps[i] > 0 for i in van0) for exps in spec.numer_exps)
    ]
    return [bp for bp, _ in _sorted_base_points(found)]


_ZERO, _ONE = Fraction(0), Fraction(1)


def _sorted_base_points(found):
    """(BasePoint, tag) pairs for the found (p, vanishing, tag) triples,
    sorted by coordinates.

    p is any nonzero integer vector on the point, of any scale or sign; the
    coordinates are p / lead, lead its first nonzero entry. p scaled by
    L / lead, L the lcm of the leads, sorts as those coordinates.
    """
    leads = [p[0] or p[1] or p[2] for p, _, _ in found]
    L = lcm(*leads)
    scales = map({lead: L // lead for lead in set(leads)}.get, leads)
    keys = [(p0 * s, p1 * s, p2 * s) for ((p0, p1, p2), _, _), s in zip(found, scales)]
    out = []
    for t in sorted(range(len(found)), key=keys.__getitem__):
        p, vanishing, tag = found[t]
        lead = leads[t]
        coords = tuple([_ZERO if not x else _ONE if x == lead else Fraction(x, lead) for x in p])
        out.append((BasePoint(coords=coords, vanishing=vanishing), tag))
    return out


def _minimal(points):
    """The minimal ones of int pairs in the componentwise order, sorted:
    of nonnegative pairs, the minimal generators of their monomial ideal.
    In sorted order a point is dominated exactly when its last coordinate
    is not below that of every earlier point, so one sweep keeps the
    points whose last coordinate drops below that of the last one kept,
    held as low. Signs play no part: `_count_below` in `discriminant`
    passes negated points."""
    gens = []
    for p in sorted(points):
        if not gens or p[-1] < low:
            gens.append(p)
            low = p[-1]
    return gens


def _crossings(C: IntMatrix):
    """(i, j, C_i x C_j) for every row pair i < j of a uniform n x 3
    matrix, or None when some 3 x 3 minor vanishes."""
    if C.cols != 3:
        raise ValueError("uniformity test needs three columns")
    if C.rows < 3:
        raise ValueError("need at least three rows")
    # det(C_i, C_j, C_k) is the dot product of C_k with C_i x C_j.
    rows = C.entries
    out = []
    for i, j in combinations(range(len(rows)), 2):
        p0, p1, p2 = p = _cross3(rows[i], rows[j])
        for r0, r1, r2 in rows[j + 1 :]:
            if p0 * r0 + p1 * r1 + p2 * r2 == 0:
                return None
        out.append((i, j, p))
    return out


def is_uniform(C: IntMatrix) -> bool:
    """True when every 3 x 3 minor of the n x 3 matrix is nonzero."""
    return _crossings(C) is not None
