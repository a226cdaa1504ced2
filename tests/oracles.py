"""Test-only references for maps the library does not need: the monomial
map alpha_M at a rational point, the commuting triangle relating the
parametrizations of C1 = C2 * M, and integer solving in a column lattice.
"""

import random
from fractions import Fraction

import sympy

from galedisc.intmat import IntMatrix
from galedisc.parametrization import build, evaluate_psi, sample_off_arrangement


def monomial_map(M: IntMatrix, y):
    """alpha_M at a rational point: coordinate j is y^(column j of M)."""
    vals = [Fraction(x) for x in y]
    out = []
    for j in range(M.cols):
        v = Fraction(1)
        for k in range(M.rows):
            e = M.entries[k][j]
            if e:
                if vals[k] == 0 and e < 0:
                    raise ValueError("pole in monomial map")
                v *= vals[k] ** e
        out.append(v)
    return tuple(out)


def diagram_check(C1: IntMatrix, C2: IntMatrix, M: IntMatrix, trials=20, seed=0):
    """Sampled check that psi_C1(u) = alpha_M(psi_C2(M u)) when C1 = C2 * M.

    The C2-forms at M u are the C1-forms at u, so M u is off the
    C2-arrangement whenever u is off the C1-arrangement."""
    if C2 * M != C1:
        raise ValueError("matrix relation C2 * M = C1 violated")
    s1 = build(C1)
    s2 = build(C2)
    rng = random.Random(seed)
    for _ in range(trials):
        u = sample_off_arrangement(s1, rng)
        if monomial_map(M, evaluate_psi(s2, M.mul_vec(u))) != evaluate_psi(s1, u):
            return False
    return True


def solve_in_lattice(m: IntMatrix, v):
    """Integer x with m x = v, or None when v is outside the column lattice
    of the nonsingular m: x = adj(m) v / det(m), so v is in the lattice
    exactly when adj(m) v is 0 mod det(m)."""
    det = m.det()
    if det == 0:
        raise ValueError("singular matrix")
    adj = sympy.Matrix(m.to_lists()).adjugate()
    w = [int(x) for x in adj * sympy.Matrix(v)]
    if any(x % det for x in w):
        return None
    return tuple(x // det for x in w)
