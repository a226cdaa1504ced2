"""Sparse multivariate integer polynomials and the exact operations the
discriminant pipeline needs.

Coefficients are arbitrary-precision ints; exponent vectors are tuples and
may go negative (Laurent polynomials show up as intermediate objects in the
monomial substitutions). Rational numbers appear only in `evaluate`.

Resultants have a single engine, evaluation and interpolation in integers
(Collins, J. ACM 1971): no determinant is ever taken over polynomials. Its
nodes are the integer points of the box of the resultant's degree bounds,
which it reads off the two operands. Each line of nodes along one variable
gives one integer, the resultant with that variable set to a power of two
X (Kronecker substitution): by a single integer resultant at X while the
packed integers stay narrow enough to be cheaper than one resultant per
node, and otherwise node by node, packed after Newton interpolation along
the line. Newton interpolation along each other axis of the box in turn,
on those packed integers, gives the polynomial's coefficients packed, and
their balanced digits in base X are read once. Powers and the closed-form
norms in `discriminant` pack every variable the same way (`_kronecker`),
and one reader of balanced digits serves all three. Each of the two
polynomials is evaluated once per distinct point projected onto the
variables it uses, so a curve's pencils, each in one y_k, are evaluated
once per line of nodes. A caller that knows the resultant's two
end lines along an interpolated axis, its value at 0 and its top
coefficient there, may hand them in: those lines then take no resultant.

The canonical form used everywhere for "the" defining polynomial of a
hypersurface: integer content removed, and the sign chosen so that the
graded-lex *minimal* term has positive coefficient. One helper,
`_normal_form`, takes it, with a monomial map applied first and the
monomial factor split off. Graded lex here compares total degree first,
then exponents read from the last variable backwards.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from operator import add, mul

from .intmat import IntMatrix


def _gl_key(e):
    return (sum(e), tuple(reversed(e)))


def _refuse_long_text(digits: int, what: str) -> None:
    """Raise ValueError, naming the size, when an integer of this many
    decimal digits is above the interpreter's limit on turning ints into
    text and back (`sys.get_int_max_str_digits`, 4300 by default)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ValueError(
            "%s has %d digits, above the limit of %d digits on integer text" % (what, digits, limit)
        )


def _digits(c: int) -> int:
    """Decimal digits of a nonzero int, without forming its text: the least
    k with 10^k > |c|, corrected from a float estimate."""
    c = abs(c)
    k = int(c.bit_length() * 0.30102999566398120) + 1
    while 10**k <= c:
        k += 1
    while k > 1 and 10 ** (k - 1) > c:
        k -= 1
    return k


def _int_text(c: int) -> str:
    """c as text for an error message: its decimal digits, or, above the
    interpreter's limit on integer text, their count, as "[k digits]"."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _digits(c)
    return "[%d digits]" % digits if limit and digits > limit else str(c)


def _int_from_text(text: str) -> int:
    """int(text), refusing by `_refuse_long_text` a numeral with more digits
    than the interpreter converts."""
    _refuse_long_text(sum(ch.isdecimal() for ch in text), "an integer")
    return int(text)


def _term_product(a: dict, b: dict) -> dict:
    """The terms of the product of the polynomials with the terms a and b,
    dicts from exponent tuples to coefficients; terms that cancel are
    dropped."""
    t = {}
    for x, c in a.items():
        for y, f in b.items():
            z = tuple(map(add, x, y))
            t[z] = t.get(z, 0) + c * f
    return {z: c for z, c in t.items() if c}


class MPoly:
    """Immutable sparse polynomial in n_vars variables over Z.

    Exponents and coefficients must be ints: floats, bools and other types
    raise TypeError instead of being truncated."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms=None):
        if n_vars < 1:
            raise ValueError("need at least one variable")
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                e = tuple(e)
                if len(e) != n_vars:
                    raise ValueError("exponent length mismatch")
                for x in e:
                    if type(x) is not int:
                        raise TypeError("integer exponents only")
                if type(c) is not int:
                    raise TypeError("integer coefficients only")
                if c:
                    clean[e] = clean.get(e, 0) + c
                    if not clean[e]:
                        del clean[e]
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _valid(cls, n_vars: int, terms: dict) -> "MPoly":
        """The polynomial with these terms, taken as they are: exponent
        tuples of n_vars ints, each with a nonzero int coefficient.

        The arithmetic builds its results through here, skipping the
        per-term checks of the constructor, which guard outside input. Its
        results are made from the terms of valid polynomials, and only two
        facts keep them valid: sums and products of ints are ints, so the
        exponents and coefficients stay ints, and no zero coefficient is
        ever stored, so every path that can cancel a term or multiply by 0
        drops it before it gets here."""
        p = object.__new__(cls)
        object.__setattr__(p, "n_vars", n_vars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, n_vars: int) -> "MPoly":
        return cls(n_vars, {(0,) * n_vars: 1})

    @classmethod
    def constant(cls, n_vars: int, c: int) -> "MPoly":
        return cls(n_vars, {(0,) * n_vars: c})

    # -- ring structure ----------------------------------------------------

    def _check_compat(self, other):
        if not isinstance(other, MPoly) or other.n_vars != self.n_vars:
            raise ValueError("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.n_vars, other)
        self._check_compat(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            nc = t.get(e, 0) + c
            if nc:
                t[e] = nc
            else:
                t.pop(e, None)
        return MPoly._valid(self.n_vars, t)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._valid(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.n_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if type(other) is not int:
                raise TypeError("integer coefficients only")
            if not other:
                return MPoly._valid(self.n_vars, {})
            return MPoly._valid(self.n_vars, {e: c * other for e, c in self.terms.items()})
        self._check_compat(other)
        return MPoly._valid(self.n_vars, _term_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, d: int):
        """self^d. A monomial or a binomial is expanded at once, the binomial
        a y^x + b y^z by the binomial theorem: its exponents j x + (d - j) z
        are distinct, so no terms merge. Any other polynomial by repeated
        squaring, moved onto Kronecker-packed integers (`_kronecker`) once
        the square holds a term per _PACK_DENSITY digit positions of its own
        box. With self = y^m h, m its monomial content, h^d has degree at
        most d deg_v h in each v, and 1-norm at most |h|_1^d, as the 1-norm
        of a product is at most the product of the 1-norms."""
        if d < 0:
            raise ValueError("negative power")
        n = self.n_vars
        if not self.terms:
            return self if d else MPoly.one(n)
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return MPoly._valid(n, {tuple([d * x for x in e]): c**d})
        if len(self.terms) == 2:
            (x, a), (z, b) = self.terms.items()
            return MPoly._valid(
                n,
                {
                    tuple([j * u + (d - j) * w for u, w in zip(x, z)]): comb(d, j) * a**j * b ** (d - j)
                    for j in range(d + 1)
                },
            )
        mins, h = self.split_monomial()
        lift = [d * x for x in mins]
        degs = [h.degree_in(v + 1) for v in range(n)]
        result, base, k, step = MPoly.one(n), h, d, 1
        while len(base.terms) < _dense_at([step * x for x in degs]):
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result.shift(tuple(lift))
            base = base * base
            step *= 2
        shift, read = _kronecker([d * x for x in degs], sum(map(abs, h.terms.values())) ** d)
        r = _packed(result, shift) * _packed(base, shift) ** k
        return MPoly._valid(n, {tuple(map(add, e, lift)): c for e, c in read(r)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __repr__(self):
        return "MPoly(%d, %s)" % (self.n_vars, self.to_text())

    # -- structure queries -------------------------------------------------

    @property
    def is_laurent(self) -> bool:
        return any(x < 0 for e in self.terms for x in e)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var_index: int) -> int:
        """Degree in one variable (1-based); -1 for the zero polynomial."""
        if not 1 <= var_index <= self.n_vars:
            raise ValueError("variable index out of range")
        if not self.terms:
            return -1
        return max(e[var_index - 1] for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _gl_key(t[0]), reverse=True)

    def content(self) -> int:
        if not self.terms:
            raise ValueError("zero input")
        return gcd(*self.terms.values())

    def min_exponents(self):
        """Componentwise minimum of the exponent vectors."""
        if not self.terms:
            raise ValueError("zero input")
        return tuple(min(e[i] for e in self.terms) for i in range(self.n_vars))

    def split_monomial(self):
        """Split off the largest monomial factor: (e, q) with self = y^e * q,
        e the componentwise minimal exponents."""
        mins = self.min_exponents()
        return mins, self.shift(tuple(-x for x in mins))

    def shift(self, delta) -> "MPoly":
        """Multiply by the (Laurent) monomial with exponent vector delta."""
        if len(delta) != self.n_vars:
            raise ValueError("exponent length mismatch")
        # Each exponent of the result is e_i + x; that is an int, the
        # constructor's test, exactly when x is an int instance.
        if not all(isinstance(x, int) for x in delta):
            raise TypeError("integer exponents only")
        return MPoly._valid(
            self.n_vars, {tuple(map(add, e, delta)): c for e, c in self.terms.items()}
        )

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a rational point. Raises 'pole' when a zero
        coordinate meets a negative exponent."""
        if len(point) != self.n_vars:
            raise ValueError("point length mismatch")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = Fraction(c)
            for i, k in enumerate(e):
                if k < 0 and pt[i] == 0:
                    raise ValueError("pole at variable %d" % (i + 1))
                if k:
                    val *= pt[i] ** k
            total += val
        return total

    # -- printing and serialization ----------------------------------------

    def _refuse_long_coefficients(self):
        if self.terms:
            _refuse_long_text(_digits(max(self.terms.values(), key=abs)), "a coefficient")

    def to_text(self, var_names=None) -> str:
        """The polynomial as text, refusing by `_refuse_long_text` a
        coefficient longer than the interpreter prints."""
        self._refuse_long_coefficients()
        if var_names is None:
            var_names = ["y%d" % (i + 1) for i in range(self.n_vars)]
        if len(var_names) != self.n_vars:
            raise ValueError("variable name count mismatch")
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = []
            for name, k in zip(var_names, e):
                if k == 0:
                    continue
                mono.append(name if k == 1 else "%s^%d" % (name, k))
            body = "*".join(mono)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_json_dict(self, var_names=None) -> dict:
        """The poly JSON schema, coefficients as strings, refusing like
        `to_text` a coefficient longer than the interpreter prints."""
        self._refuse_long_coefficients()
        if var_names is None:
            var_names = ["y%d" % (i + 1) for i in range(self.n_vars)]
        if len(var_names) != self.n_vars:
            raise ValueError("variable name count mismatch")
        return {
            "vars": list(var_names),
            "terms": [
                {"c": str(c), "e": list(e)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Parse the poly JSON schema; returns (poly, var_names)."""
        names = d["vars"]
        if not isinstance(names, list) or not names or not all(isinstance(s, str) for s in names):
            raise ValueError("bad 'vars' field")
        n = len(names)
        terms = []
        for t in d["terms"]:
            c, e = t["c"], t["e"]
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise ValueError("coefficient %r is not an integer" % (c,))
            if not isinstance(e, list):
                raise ValueError("exponent %r is not a list of integers" % (e,))
            terms.append((e, _int_from_text(c) if isinstance(c, str) else c))
        return cls(n, terms), list(names)


# -- normal forms ------------------------------------------------------------


def _normal_form(p: MPoly, m: IntMatrix):
    """(mins, content, prim) with alpha_m(p) = content * y^mins * prim:
    each exponent e of p first mapped to m e, as `_substitute` maps it,
    which m must keep injective on supp(p). content > 0, mins is the
    componentwise least exponent and prim is sign-normalized, its
    graded-lex minimal term positive. One pass over the terms for each
    part, by exponent columns, and the content by one `gcd`."""
    if not p.terms:
        raise ValueError("zero input")
    values = list(p.terms.values())
    cols = [[sum(map(mul, r, e)) for e in p.terms] for r in m.entries]
    mins = tuple(map(min, cols))
    exps = list(zip(*[[x - low for x in col] for col, low in zip(cols, mins)]))
    c = gcd(*values)
    signed = c if min(zip(map(_gl_key, exps), values))[1] > 0 else -c
    return mins, c, MPoly._valid(len(mins), {e: v // signed for e, v in zip(exps, values)})


# -- resultants --------------------------------------------------------------


def _divided_differences(ys):
    """Newton coefficients of the integer polynomial of degree < len(ys)
    that takes the values ys at the nodes 0, 1, ..., len(ys) - 1: the
    coefficients on the falling factorials t(t - 1)...(t - j + 1).

    The divided differences of an integer polynomial at consecutive integers
    are integers, so each division must come out exact; raises
    ArithmeticError when one does not.
    """
    n = len(ys)
    dd = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i], r = divmod(dd[i] - dd[i - 1], j)
            if r:
                raise ArithmeticError("interpolated resultant is not integral")
    return dd


def _newton_to_monomial(dd):
    """Ascending monomial coefficients of sum_j dd[j] t(t - 1)...(t - j + 1)."""
    n = len(dd)
    coeffs = [0] * n
    coeffs[0] = dd[n - 1]
    for i in range(n - 2, -1, -1):
        # multiply by (t - i) then add dd[i]
        for k in range(n - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - i * coeffs[k]
        coeffs[0] = dd[i] - i * coeffs[0]
    return coeffs


def _interpolate(grid, tops, ends) -> None:
    """Turn the values of an integer polynomial at the nodes of the box
    0 <= y_v <= tops[v] (a dict from exponent tuples to ints) into its
    coefficients, in place. The polynomial's degree in each y_v must be at
    most tops[v].

    Along each axis in turn, every line of the box takes divided
    differences, giving the coefficients on the falling factorials, and
    then the change of basis to monomials. On a box both are applied line
    by line along one axis while the other coordinates stay fixed, so the
    steps along different axes commute, and each axis can finish before
    the next starts. Raises ArithmeticError on values no integer
    polynomial takes. The resultant engine hands it a polynomial whose
    coefficients are packed integers, with top 0 on the packed axis.

    ends, an axis of top t or None: the grid holds at each node (t, b) on
    it the value at b of the coefficient of y^t, not the polynomial's
    value: on each line along that axis, of values r(0), ..., r(t - 1) and
    top coefficient c, the polynomial r - r(0) - c y^t has degree below t
    and vanishes at 0, so its values at 0, ..., t - 1 give its
    coefficients, to which r(0) and c y^t are added back.
    """
    for i, top in enumerate(tops):
        if not top:
            continue
        for b in product(*[range(t + 1) if v != i else (0,) for v, t in enumerate(tops)]):
            line = [b[:i] + (j,) + b[i + 1 :] for j in range(top + 1)]
            ys = [grid[x] for x in line]
            if i != ends:
                grid.update(zip(line, _newton_to_monomial(_divided_differences(ys))))
                continue
            low, lead = ys[0], ys[top]
            ys = [0] + [y - low - lead * j**top for j, y in enumerate(ys[1:top], 1)]
            grid.update(zip(line, [low] + _newton_to_monomial(_divided_differences(ys))[1:] + [lead]))


def _exact_quo(n, d):
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError("non-exact subresultant division")
    return q


def _prem(a, b):
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b, for integer
    coefficient lists (leading first) with len(a) >= len(b)."""
    lb, n = b[0], len(b)
    r = list(a)
    for i in range(len(a) - n + 1):
        c = r[i]
        for j in range(i + 1, len(r)):
            r[j] *= lb
        if c:
            for j in range(1, n):
                r[i + j] -= c * b[j]
    r = r[len(a) - n + 1 :]
    while r and not r[0]:
        del r[0]
    return r


def _int_resultant(a, b):
    """Resultant of two integer polynomials given as coefficient lists,
    leading first, of formal degrees len(a) - 1 and len(b) - 1: the
    determinant of their Sylvester matrix with the rows of a first.

    Vanishing leading coefficients are peeled off by expanding that matrix
    along its first column; what is left goes through the subresultant PRS
    (Cohen, GTM 138, Alg. 3.3.7), O(len(a) * len(b)) integer operations.
    """
    f = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da == 0:
            return f * a[0] ** db
        if db == 0:
            return f * b[0] ** da
        if a[0] and b[0]:
            break
        if a[0]:
            f *= a[0]
            b = b[1:]
        elif b[0]:
            f *= -b[0] if db & 1 else b[0]
            a = a[1:]
        else:
            return 0
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            f = -f
    g = h = 1
    while db:
        delta = da - db
        if da & db & 1:
            f = -f
        r = _prem(a, b)
        if not r:
            return 0
        d = g * h**delta
        a, b = b, [_exact_quo(x, d) for x in r]
        g = a[0]
        if delta:
            h = _exact_quo(g**delta, h ** (delta - 1))
        da, db = db, len(b) - 1
    return f * _exact_quo(b[0] ** da, h ** (da - 1))


# Widest packed resultant, in bits: the nodes' extent along the packed axis
# times the digit width K. Each PRS step on such integers divides them,
# which CPython does in time quadratic in their length, so past this width
# the longer integers cost more than the PRS runs they save. On curve
# pencils of Sylvester size 10 to 26 (the grid in CHANGES.md) a packed
# resultant took 0.40 to 0.75 of the per-node time at widths up to 2496
# bits, 0.93 to 1.03 from 2570 to 2900 bits and 1.03 to 3.8 from 3150 on.
# Re-timed on a 2-core Xeon under CPython 3.11, with K bounding the
# resultant's coefficients only, `implicitize` with packing forced took
# 0.28 s against 0.080 s node by node on [[20, 1], [1, 20], [-21, -21]]
# (8440 bits), and 0.17 s against 0.034 s on [[9, 4], [-7, 3], [5, -11],
# [-7, 4]] (14052).
_PACK_WIDTH_LIMIT = 2500


def _balanced_digits(r: int, K: int, count: int) -> list:
    """The first count digits of r in base X = 2^K, each balanced into
    -X/2 <= digit < X/2: the coefficients c_j of r = sum_j c_j X^j, for
    j < count, when every |c_j| < X/2.

    A long run is halved: the first h digits are those of the one number
    congruent to r mod X^h in [-X^h/2, X^h/2), which their sum is, and the
    rest are those of (r - that number) / X^h. So the integers shorten as
    the digits come off, and reading a packed integer costs about its
    length times the depth of the halving, not times the count; a run of
    zero digits, as a sparse polynomial leaves, takes one step."""
    if not r:
        return [0] * count
    if count > 16:
        h = count // 2
        W = h * K
        low = r & ((1 << W) - 1)
        if low >> (W - 1):
            low -= 1 << W
        return _balanced_digits(low, K, h) + _balanced_digits((r - low) >> W, K, count - h)
    X = 1 << K
    half, mask = X >> 1, X - 1
    out = []
    for _ in range(count):
        digit = r & mask
        if digit >= half:
            digit -= X
        out.append(digit)
        r = (r - digit) >> K
    return out


def _kronecker(tops, bound: int):
    """(shift, read) for the Kronecker substitution y_v -> X^stride_v,
    X = 2^K (Harvey, J. Symbolic Comput. 44, 2009). The packed integers are
    K * prod_v (tops[v] + 1) bits wide, however few terms they hold.

    It serves polynomials with exponents 0 <= e_v <= tops[v] and every
    coefficient of absolute value at most bound. The strides are mixed
    radix, stride_v = prod over w > v of (tops[w] + 1), so each exponent
    tuple has its own digit position, ordered as `itertools.product`
    orders the tuples, and K = bound.bit_length() + 1 makes every
    coefficient less than X/2 in absolute value. A term c y^e packs to
    c << shift(e), shift(e) = K * sum_v e_v stride_v, and a polynomial to
    the sum of its terms' values (`_packed`). As substitution is a ring
    homomorphism, sums and products of packed integers are the packed
    results, whatever the sizes along the way, and read(r) lists the terms
    (e, c) of the polynomial in that range whose packed value is r, by its
    balanced digits (`_balanced_digits`)."""
    K = bound.bit_length() + 1
    shifts, size = [], 1
    for t in reversed(tops):
        shifts.append(K * size)
        size *= t + 1
    shifts.reverse()

    def shift(e) -> int:
        return sum(map(mul, e, shifts))

    def read(r: int) -> list:
        exps = product(*[range(t + 1) for t in tops])
        return [(e, c) for e, c in zip(exps, _balanced_digits(r, K, size)) if c]

    return shift, read


# Digit positions per term at which a power or the power sums of a norm
# move onto Kronecker-packed integers (`MPoly.__pow__` and `_middle` in
# `discriminant`), each part compared with the box of the step it has
# reached; power sums whose first one, -G_(e-1), is that dense start
# packed, and take no `MPoly` step. A packed integer spans every digit
# position of its box, the `MPoly` steps only the terms they reach, so
# packing wins where most positions hold a term and loses where few do,
# in time and in memory alike: a g with G1 = (y1 y2 y3)^670 and
# G0 = G2 = 1, a work of 9.6e9 at d = 2, would pack into 7.2e9 bits for a
# norm of four terms. A part whose terms fill its box so packs within its
# first steps, and a sparse one never does. On a 2-core Xeon under CPython
# 3.11 (grid in CHANGES.md, d = 16 to 100), against `MPoly` steps alone,
# the e = 2 norm took 0.08 to 0.7 of the time on shapes of at most 8 digit
# positions per term and was within noise of it on shapes of 19 to 101
# (forced to pack, 0.7 to 19 times it). G1 = y1^4 + y2, with a term per
# 15.6 positions of its final box, took 0.28 to 0.93 of it at d = 4 to 100
# compared step by step, and 1.06 to 1.42 of it compared with that box.
_PACK_DENSITY = 16


def _dense_at(tops) -> int:
    """The terms at which a part with degree bounds tops moves onto packed
    integers: one per _PACK_DENSITY digit positions of its box."""
    return -(-prod(t + 1 for t in tops) // _PACK_DENSITY)


def _shifted_sum(items, low: int) -> int:
    """The sum of c << (x - low) over the pairs (x, c) of items, which are
    sorted by x, each x >= low. It is taken in halves, so that each level
    of the halving adds integers about as wide as the whole once, not once
    per pair."""
    if len(items) <= 16:
        return sum([c << (x - low) for x, c in items])
    h = len(items) // 2
    mid = items[h][0]
    return _shifted_sum(items[:h], low) + (_shifted_sum(items[h:], mid) << (mid - low))


def _packed(p: MPoly, shift) -> int:
    """The packed value of p, the sum of c << shift(e) over its terms."""
    items = [(shift(e), c) for e, c in p.terms.items()]
    return _shifted_sum(sorted(items) if len(items) > 16 else items, 0)


def _det_by_interpolation(p: MPoly, q: MPoly, k: int, ends) -> MPoly:
    """Resultant of p and q in y_k (k 1-based) by evaluation and
    interpolation (Collins, J. ACM 1971); ValueError "nothing to eliminate"
    unless both have degree at least 1 in it.

    Each operand is read once, by its exponent columns: they give its
    degree in every variable, the variables other than y_k that it uses,
    and its terms as (slot, c, exponents over those variables), where the
    slot is the place of the term's coefficient of y_k in its Sylvester
    row, leading first. Row by row, the Sylvester matrix has dq rows of
    p's coefficients and dp of q's, so its determinant has degree at most
    tops[v] = dq deg_v p + dp deg_v q in each v other than y_k, and the
    nodes are the box 0 <= y_v <= tops[v], with tops 0 along y_k. The work
    is refused by `_refuse_resultant` before any node is evaluated. Each
    operand's coefficient list is evaluated in integers once per distinct
    node projected onto the variables it uses: the cleared pencils of a
    curve each use one y_k, and an operand with no such variable is
    evaluated once.

    The lines of the box along one axis A, of least positive top (the first
    by index among equals) or y_k when no top is positive, are walked once,
    and each gives one integer, R(X, b) = sum_j R_j(b) X^j for the
    coefficients R_j of y_A^j, X = 2^K, at the point b of the other axes:
    packed (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009)
    where (tops[A] + 1) K is at most _PACK_WIDTH_LIMIT bits, as one
    `_int_resultant` at y_A = X and b; otherwise by one `_int_resultant`
    per node and Newton interpolation along the line, its coefficients
    R_j(b) then packed. These integers are the values at the nodes b of
    R(X, .), whose coefficients in the other variables are R's
    coefficients in them packed along y_A, so `_interpolate`, on the box
    with top 0 along A, gives those packed coefficients, and the balanced
    base-X digits of each, read once, are R's coefficients. This is exact:
    - substituting X for y_A is a ring homomorphism, and Newton
      interpolation is linear, so each step on a packed integer is the
      packed step on every digit; as every divided difference of an
      integer polynomial at consecutive integers is an integer, every
      division of a packed integer is exact;
    - the digits are read only off R's coefficients, never off the node
      values R_j(b), so K need only bound those by X/2. Each term of the
      Sylvester determinant takes one entry from each row, and the 1-norm
      of a product is at most the product of the 1-norms, so the 1-norm of
      R is at most the product over the rows of their entries' 1-norms,
      |p|_1^dq |q|_1^dp, and K = bound.bit_length() + 1 makes that bound
      < 2^(K - 1) = X/2.

    ends, when given and the box has a positive axis w other than A, the
    first such, is called once with w's 1-based index and returns two
    polynomials free of y_k and y_w: R at y_w = 0, and R's coefficient of
    y_w^tops[w]. The lines at those two ends, on either route, then take
    no `_int_resultant`: their integer is that polynomial at y_A = X and
    the line's point. `_interpolate` takes w with its ends known.
    """
    k -= 1
    sides = []
    for f in (p, q):
        cols = list(zip(*f.terms))
        degs = [max(col) for col in cols]
        if not degs or degs[k] < 1:
            raise ValueError("nothing to eliminate")
        used = [v for v, t in enumerate(degs) if t and v != k]
        slots = [degs[k] - x for x in cols[k]]
        exps = zip(*[cols[v] for v in used]) if used else [()] * len(slots)
        sides.append((degs, used, list(zip(slots, f.terms.values(), exps)), {}))
    (ps, *_), (qs, *_) = sides
    dp, dq = ps[k], qs[k]
    tops = [dq * a + dp * b if v != k else 0 for v, (a, b) in enumerate(zip(ps, qs))]
    _refuse_resultant(dp + dq, prod(t + 1 for t in tops))

    def resultant_at(point):
        vals = []
        for degs, used, terms, seen in sides:
            key = tuple([point[v] for v in used])
            side = seen.get(key)
            if side is None:
                side = seen[key] = [0] * (degs[k] + 1)
                for slot, c, e in terms:
                    for x, j in zip(key, e):
                        c *= x**j
                    side[slot] += c
            vals.append(side)
        return _int_resultant(*vals)

    positive = [t for t in tops if t]
    A = tops.index(min(positive)) if positive else k
    p_norm, q_norm = (sum(map(abs, f.terms.values())) for f in (p, q))
    K = (p_norm**dq * q_norm**dp).bit_length() + 1
    top, flat, known = tops[A], tops[:A] + [0] + tops[A + 1 :], {}
    packed = (top + 1) * K <= _PACK_WIDTH_LIMIT
    w = next((v for v, t in enumerate(tops) if t and v != A), None) if ends is not None else None
    if w is not None:
        known = dict(zip((0, tops[w]), ends(w + 1)))
    grid = {}
    for b in product(*[range(t + 1) for t in flat]):
        at = b[:A] + (1 << K,) + b[A + 1 :]
        end = known.get(b[w]) if known else None
        if end is not None:
            grid[b] = sum([c * prod(map(pow, at, e)) for e, c in end.terms.items()])
        elif packed:
            grid[b] = resultant_at(at)
        else:
            line = [resultant_at(b[:A] + (j,) + b[A + 1 :]) for j in range(top + 1)]
            coeffs = _newton_to_monomial(_divided_differences(line))
            grid[b] = sum([c << j * K for j, c in enumerate(coeffs)])
    _interpolate(grid, flat, w)
    terms = {}
    for b, r in grid.items():
        for j, c in enumerate(_balanced_digits(r, K, top + 1)):
            if c:
                terms[b[:A] + (j,) + b[A + 1 :]] = c
    return MPoly._valid(p.n_vars, terms)


# Work bound checked before any node is evaluated. Each node runs a PRS of
# about size^2 steps on integers that grow about size times longer than the
# coefficients, and the interpolation grows alike, so the work is taken as
# nodes * size^5. The engine packs a line of nodes into one PRS only where
# that is cheaper (_PACK_WIDTH_LIMIT), so this stays an upper bound. Timed
# on a 2-core Xeon under CPython 3.11, `implicitize` took 0.039 s on
# [[16, 1], [1, 16], [-17, -17]] (size 32 on 288 nodes, 9.7e9) and 0.10 s
# on [[20, 1], [1, 20], [-21, -21]] (size 40 on 440 nodes, 4.5e10); with
# the limit lifted, 0.25 s on [[24, 1], [1, 24], [-25, -25]] (size 48 on
# 624 nodes, 1.6e11) and 0.63 s on [[29, 1], [1, 27], [-30, -28]] (size 56
# on 841 nodes, 4.6e11), which it refuses. None of the four packs, and the
# end lines spare one node in 9 to 15. That is 1.4e-12 to 4e-12 s per
# unit, where the limit was set at 4e-11 to 7e-11 (0.4, 2.1 and 30 s for
# the first, second and fourth): the estimate now counts 20 to 50 times
# the work done. The limit is kept, and with it every refusal, until one
# unit of work serves all limits (ROADMAP.md).
_RESULTANT_WORK_LIMIT = 5 * 10**10


def _refuse_resultant(size: int, nodes: int) -> None:
    """Raise ValueError when a Sylvester matrix of this size on this many
    nodes is above _RESULTANT_WORK_LIMIT."""
    work = nodes * size**5
    if work > _RESULTANT_WORK_LIMIT:
        raise ValueError(
            "resultant too large: a Sylvester matrix of size %s on %s nodes needs "
            "about %s operations, above the limit of %d"
            % (_int_text(size), _int_text(nodes), _int_text(work), _RESULTANT_WORK_LIMIT)
        )


def sylvester_resultant(p: MPoly, q: MPoly, var_index: int, *, ends=None) -> MPoly:
    """Resultant of p and q with respect to one variable (1-based): the
    determinant of their Sylvester matrix, with the rows of p first.

    The determinant is never formed over polynomials: on the integer nodes
    of the box of its degree bounds in the other variables, the
    coefficients of p and of q are evaluated in integers, a univariate
    subresultant PRS gives the resultant on each line of nodes along one
    variable set to a power of two, or at each node where packing would
    make the integers too wide, integer Newton interpolation on those
    packed integers recovers the polynomial packed, and its coefficients
    are read off as digits. This checks the operands and hands them, with
    ends, to that engine, `_det_by_interpolation`, which raises ValueError
    when either operand has degree 0 in y_k, and when the estimated work
    is above _RESULTANT_WORK_LIMIT. ends, a function of the 1-based index
    of an interpolated variable, gives the resultant's two end lines along
    it, which the engine then takes without a resultant.
    """
    if p.n_vars != q.n_vars:
        raise ValueError("operands live in different rings")
    if p.is_laurent or q.is_laurent:
        raise ValueError("negative exponents unsupported")
    if not 1 <= var_index <= p.n_vars:
        raise ValueError("variable index out of range")
    return _det_by_interpolation(p, q, var_index, ends)


def _substitute(p: MPoly, m: IntMatrix) -> MPoly:
    """Monomial change of coordinates alpha_m: each variable y_j is replaced
    by the monomial with exponent vector given by column j of m, so a term
    exponent e maps to m e, and the result is Laurent wherever m e goes
    negative. m needs a column per variable of p, and its map e -> m e must
    be injective on supp(p), which no check here enforces: `group_product`
    takes P and M Q from one Smith form P M Q of a square M with no
    invariant factor 0."""
    return MPoly._valid(
        m.rows, {tuple([sum(map(mul, r, e)) for r in m.entries]): c for e, c in p.terms.items()}
    )
