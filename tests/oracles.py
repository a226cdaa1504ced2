"""Test-only references for maps the library does not need: the monomial
map alpha_M at a rational point, the commuting triangle relating the
parametrizations of C1 = C2 * M, integer solving in a column lattice, and
the scaled gradient over `Fraction` that the library's integer Gauss check
is held against.
"""

import random
from fractions import Fraction

import sympy

from galedisc.intmat import IntMatrix
from galedisc.mpoly import MPoly
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


def partial_derivative(p: MPoly, var_index: int) -> MPoly:
    """d/dy_i with var_index 1-based; valid for Laurent terms too."""
    if not 1 <= var_index <= p.n_vars:
        raise ValueError("variable index out of range")
    i = var_index - 1
    t = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
        nc = t.get(e2, 0) + c * e[i]
        if nc:
            t[e2] = nc
        else:
            del t[e2]
    return MPoly(p.n_vars, t)


def gauss_map(delta: MPoly, y):
    """Scaled gradient (y_1 d_1 delta, ..., y_m d_m delta) at a rational
    point, in Fractions."""
    if len(y) != delta.n_vars:
        raise ValueError("point length mismatch")
    vals = tuple(
        Fraction(y[k - 1]) * partial_derivative(delta, k).evaluate(y)
        for k in range(1, delta.n_vars + 1)
    )
    if all(v == 0 for v in vals):
        raise ValueError("Gauss map undefined here: all scaled partials vanish")
    return vals


def gauss_inverse_check_fraction(spec, delta: MPoly, trials=20, seed=0) -> bool:
    """gauss_inverse_check as it ran over Fractions: gauss_map at psi(u),
    resampling where it is undefined, then proportionality to u."""
    if delta.n_vars != spec.m:
        raise ValueError("variable count mismatch")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    for _ in range(trials):
        for _attempt in range(50):
            u = sample_off_arrangement(spec, rng)
            try:
                g = gauss_map(delta, evaluate_psi(spec, u))
            except ValueError:
                continue
            break
        else:
            raise ValueError("could not find a smooth parametrized point")
        for i in range(spec.m):
            for j in range(i + 1, spec.m):
                if g[i] * u[j] != g[j] * u[i]:
                    return False
    return True
