"""The reference kernel that compute times are divided by.

One *ref* is the time of one call of `kernel()` on the machine at that
moment.  The kernel does the same kinds of work as galedisc's hot paths,
fraction-free integer elimination and exact `Fraction` interpolation, on
fixed inputs, and imports neither galedisc nor sympy, so a change to the
program cannot change the unit.  Sampled every 10 ms while a workload runs
(`RefClock` in bench/run.py), it follows the speed phases of a shared
machine, which raw seconds cannot.
"""

from fractions import Fraction

_N = 12
_POINTS = 24


def _matrix():
    # Fixed pseudo-random entries in [-99, 99] from a linear congruential
    # sequence, so the kernel's work never depends on a seed.
    x = 12345
    rows = []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            x = (1103515245 * x + 12345) % (1 << 31)
            row.append(x % 199 - 99)
        rows.append(row)
    return rows


_MATRIX = _matrix()
_XS = list(range(_POINTS))
_YS = [x ** 5 - 3 * x ** 3 + 7 for x in _XS]


def _bareiss_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        p = m[k][k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            a = mi[k]
            for j in range(k + 1, n):
                mi[j] = (p * mi[j] - a * mk[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


def _newton(xs, ys):
    dd = [Fraction(y) for y in ys]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    return dd


def kernel():
    """One unit of reference work; returns a value so it cannot be elided."""
    return _bareiss_det(_MATRIX), _newton(_XS, _YS)[-1]
