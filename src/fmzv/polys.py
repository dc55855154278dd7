"""Exact polynomial and rational-function arithmetic.

Two flavors live here:

* ``Poly`` / ``RatFunc``: one-variable carriers with
  ``fractions.Fraction`` coefficients, and ``BiSeries``, a truncated
  two-variable coefficient grid.  No rounding anywhere; all rational
  functions are kept reduced with a monic denominator, by a gcd or, for
  a quotient of known linear factors, by cancelling the common roots
  (``RatFunc.from_roots``).  The gcd is Euclid's algorithm on ``Poly``
  division, the one polynomial division here over Q; the monic gcd is
  unique, so a reduced ``RatFunc`` does not depend on the route.
* list-based polynomials over Z/pZ (``fp_*`` helpers and ``FpRatFunc``).
  No command reaches them: the hypcong suite reads each side pointwise.
  They are the tests' reference for that suite, and
  ``perfbench/tracing.py`` patches their names.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_NEG_INF = float("-inf")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction coefficient, got {type(x).__name__}")


class Poly:
    """A polynomial in one indeterminate with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, with -inf as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly((other,))
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            return Poly(c * x for x in self.coeffs)
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [_ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.leading
        dlen = len(other.coeffs)
        for i in range(len(rem) - dlen, -1, -1):
            c = rem[i + dlen - 1] / dlead
            if c != 0:
                q[i] = c
                for j, bj in enumerate(other.coeffs):
                    rem[i + j] -= c * bj
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def subs_neg(self) -> "Poly":
        """Substitute z -> -z."""
        return Poly(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        return Poly(c / lead for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("z" if c == 1 else f"{c}*z")
            else:
                terms.append(f"z^{i}" if c == 1 else f"{c}*z^{i}")
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by Euclid's algorithm on ``Poly`` division."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def _int_linear_product(roots) -> tuple[list[int], int]:
    """prod(q z - p) over the roots p/q, ascending, and its leading prod(q)."""
    out = [1]
    for r in roots:
        p, q = r.numerator, r.denominator
        out = [q * hi - p * lo for lo, hi in zip(out + [0], [0] + out)]
    return out, out[-1]


class RatFunc:
    """A reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if den is None:
            den = Poly((1,))
        elif not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", Poly())
            object.__setattr__(self, "den", Poly((1,)))
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_roots(cls, const, num_roots, den_roots) -> "RatFunc":
        """const * prod(z - a) / prod(z - b), with no gcd.

        The roots are ints or Fractions.  No root may lie on both sides,
        so the quotient is already reduced.  Each side is expanded on
        ints, a root p/q as the factor (q z - p), and its leading
        coefficient prod(q) divided out once per coefficient.
        """
        const = _as_fraction(const)
        if const == 0:
            return cls(Poly())
        num_roots, den_roots = tuple(num_roots), tuple(den_roots)
        if not set(num_roots).isdisjoint(den_roots):
            raise ValueError("a root on both sides: the quotient is not reduced")
        num, num_lead = _int_linear_product(num_roots)
        den, den_lead = _int_linear_product(den_roots)
        a, b = const.numerator, const.denominator * num_lead
        self = object.__new__(cls)
        object.__setattr__(self, "num", Poly(Fraction(a * c, b) for c in num))
        object.__setattr__(self, "den", Poly(Fraction(c, den_lead) for c in den))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # Both operands are RatFuncs: a scalar or a Poly is wrapped by the caller.
    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def subs_neg(self) -> "RatFunc":
        return RatFunc(self.num.subs_neg(), self.den.subs_neg())

    def regular_at_zero(self) -> bool:
        return self.den.coeff(0) != 0

    def taylor(self, order: int) -> list[Fraction]:
        """Series coefficients at z = 0 up to the given order."""
        if not self.regular_at_zero():
            raise ZeroDivisionError("pole at z = 0")
        num, den, out = self.num.coeffs, self.den.coeffs, []
        for i in range(order + 1):
            acc = num[i] if i < len(num) else _ZERO
            for j in range(1, min(i, len(den) - 1) + 1):
                acc -= den[j] * out[i - j]
            out.append(acc / den[0])
        return out

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __str__(self):
        if self.den == Poly((1,)):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


class BiSeries:
    """A double power series in x and z truncated at orders (dx, dz).

    An immutable grid of Fraction coefficients, zero-padded to the
    orders; it carries no arithmetic, only ``coeff`` reads it.
    """

    __slots__ = ("dx", "dz", "grid")

    def __init__(self, grid, dx: int, dz: int):
        if dx < 0 or dz < 0:
            raise ValueError("truncation orders must be >= 0")
        rows = []
        for i in range(dx + 1):
            row = grid[i] if i < len(grid) else ()
            rows.append(tuple(_as_fraction(row[j]) if j < len(row) else _ZERO
                              for j in range(dz + 1)))
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dz", dz)
        object.__setattr__(self, "grid", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    def coeff(self, i: int, j: int) -> Fraction:
        if not (0 <= i <= self.dx and 0 <= j <= self.dz):
            raise ValueError(
                f"coefficient ({i},{j}) beyond truncation orders ({self.dx},{self.dz})"
            )
        return self.grid[i][j]

    def __repr__(self):
        return f"BiSeries(dx={self.dx}, dz={self.dz})"


# ---------------------------------------------------------------------------
# polynomials over Z/pZ: plain int lists, ascending degree, trailing zeros
# trimmed


def fp_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fp_add(a, b, p):
    n = max(len(a), len(b))
    return fp_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                    for i in range(n)])


def fp_sub(a, b, p):
    n = max(len(a), len(b))
    return fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                    for i in range(n)])


def fp_scale(a, c, p):
    c %= p
    return fp_trim([c * x % p for x in a])


def fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return fp_trim(out)


def fp_mul_linear(a, c0, c1, p):
    """a * (c0 + c1*z) in one O(len a) pass."""
    if not a:
        return []
    out = [(c0 * x + c1 * y) % p for x, y in zip(a, [0] + a)]
    out.append(c1 * a[-1] % p)
    return fp_trim(out)


def fp_eval(a, x, p):
    out = 0
    for c in reversed(a):
        out = (out * x + c) % p
    return out


def fp_monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db] * inv_lead % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return fp_trim(q), fp_trim(rem)


def fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return fp_monic(a, p)


def fp_pochhammer_poly(shift, scale, n, p):
    """(scale*z + shift)(scale*z + shift + 1)...(n factors) over Z/pZ."""
    out = [1]
    for i in range(n):
        out = fp_mul_linear(out, shift + i, scale, p)
    return out


class FpRatFunc:
    """A reduced rational function over Z/pZ with monic denominator."""

    __slots__ = ("p", "num", "den")

    def __init__(self, num, den, p):
        num = fp_trim([c % p for c in num])
        den = fp_trim([c % p for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = fp_gcd(num, den, p)
            if len(g) > 1:
                num = fp_divmod(num, g, p)[0]
                den = fp_divmod(den, g, p)[0]
            inv_lead = pow(den[-1], p - 2, p)
            num = [c * inv_lead % p for c in num]
            den = [c * inv_lead % p for c in den]
        else:
            den = [1]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("FpRatFunc is immutable")

    def __mul__(self, other: "FpRatFunc"):
        return FpRatFunc(fp_mul(list(self.num), list(other.num), self.p),
                         fp_mul(list(self.den), list(other.den), self.p), self.p)

    def __sub__(self, other: "FpRatFunc"):
        p = self.p
        num = fp_sub(fp_mul(list(self.num), list(other.den), p),
                     fp_mul(list(other.num), list(self.den), p), p)
        return FpRatFunc(num, fp_mul(list(self.den), list(other.den), p), p)

    def scale(self, c: int) -> "FpRatFunc":
        return FpRatFunc(fp_scale(list(self.num), c, self.p), list(self.den), self.p)

    def eval_at(self, x: int):
        """Value at x, or None when the (reduced) denominator vanishes."""
        d = fp_eval(list(self.den), x, self.p)
        if d == 0:
            return None
        return fp_eval(list(self.num), x, self.p) * pow(d, self.p - 2, self.p) % self.p

    def __eq__(self, other):
        if not isinstance(other, FpRatFunc):
            return NotImplemented
        return (self.p, self.num, self.den) == (other.p, other.num, other.den)

    def __hash__(self):
        return hash(("FpRatFunc", self.p, self.num, self.den))

    def __repr__(self):
        return f"FpRatFunc(num={list(self.num)}, den={list(self.den)}, p={self.p})"
