"""Exact-rational verification of the generating-function machinery.

The two-variable generating function under test aggregates non-strict
polylogarithm truncations over index families, graded by weight (x) and
height (z); its t^n coefficient is a finite sum of partial fractions

    sum over l of [ W(n,l)(z)/(x+z-l) + W(n,l)(-z)/(x-z-l) ]

whose weights W(n,l) are ratios of rising factorials.  This module
builds those weights exactly from their linear factors (``pole_weight``),
expands the t^n coefficient as a double power series on ints
(``gf_coeff_series``: W's Laurent series in z once per l, then one
division by the linear factor z - l per power of x, and each z -> -z
pair as twice its even part), and checks the expansion
coefficient-by-coefficient against the polylog family sums
(``polylog_family_coeff``, from ``gf_coefficient_check``).  Those sums
come, for every (k, s) at once, from harmonic's (weight, height) pass,
the one every family sweep reads, run on exact ints.  It also certifies
the terminating evaluation of the Gauss series at 1 and, over Z/pZ, the
truncation congruences that connect the finite sums to that evaluation,
at sampled points, from rows of Laurent coefficients there, one per point
for every l, 4 bytes an entry (``hypergeom_congruence_check``).

All arithmetic is exact, and the rational suites run on ints with one
Fraction per reported value; re-running any check yields bit-identical
rationals.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import mul

from .errors import AllSamplesSkippedError, DegenerateParametersError, PoleCancellationError
from .harmonic import family_pass
from .indices import Index
# Unused here: perfbench/tracing.py patches this name on this module.
from .indices import iter_admissible_indices  # noqa: F401
from .modfield import PrimeCtx, inverses, prime_ctx
from .polys import BiSeries, Poly, RatFunc, _ZERO, _as_fraction
# Unused here: perfbench/tracing.py patches these names on this module.
from .polys import fp_add, fp_mul, fp_pochhammer_poly, fp_scale  # noqa: F401
from .records import VerificationRecord, comparison_record, skipped_record


def frac_str(q: Fraction) -> str:
    """Canonical num/den rendering used by all symbolic reports."""
    return f"{q.numerator}/{q.denominator}"


class Lcg:
    """64-bit linear congruential generator; reproducible across platforms."""

    MASK = (1 << 64) - 1
    MULT = 6364136223846793005
    INC = 1442695040888963407

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state >> 33

    def below(self, n: int) -> int:
        return self._step() % n


def pochhammer_poly(shift: int, scale: int, n: int) -> Poly:
    """(scale*z + shift)(scale*z + shift + 1)...(n factors) as a Poly,
    expanded on ints."""
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    out = [1]
    for i in range(n):
        out = [(shift + i) * lo + scale * hi for lo, hi in zip(out + [0], [0] + out)]
    return Poly(out)


def pole_weight(n: int, l: int) -> RatFunc:
    """The partial-fraction weight at the pole x = l - z, canonical form.

    Built from rising factorials with the offset m = n - l:

        (-1)^l / (2z) * (z-l+1)_(l-1) / (2z-l+1)_(l-1)
                      * (l)_m (z)_m / ((2z+1)_m m!)

    Every factor is linear with a known root.  The numerator's roots are
    1..l-1 and 0, -1, ..., -(m-1); the denominator's are 0, the halves
    1/2..(l-1)/2 and -1/2..-m/2, under the leading coefficient 2^n.  The
    roots of each side are distinct, so the common ones cancel as sets,
    and ``RatFunc.from_roots`` expands the rest with no gcd.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    m = n - l
    num = {*range(1, l), *range(0, -m, -1)}
    den = {0, *(Fraction(i, 2) for i in range(1, l)),
           *(Fraction(-i, 2) for i in range(1, m + 1))}
    const = Fraction((-1) ** l * prod(range(l, n)), factorial(m) << n)
    return RatFunc.from_roots(const, num - den, den - num)


def pole_weight_product_form(n: int, l: int) -> RatFunc:
    """The same weight as a single binomial-times-products display.

    Boundary cases l = 1 and l = n read the trailing runs as empty
    products; ``anl_form_agreement`` certifies that reading.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    c = Fraction((-1) ** l * comb(n - 1, l - 1))
    num = pochhammer_poly(1 - l, 1, l - 1) * pochhammer_poly(0, 1, n - l)
    den = (pochhammer_poly(1 - l, 2, l - 1)
           * Poly((0, 2))
           * pochhammer_poly(1, 2, n - l))
    return RatFunc(num * c, den)


def anl_form_agreement(n_max: int) -> list[VerificationRecord]:
    """Compare the two weight displays as reduced rational functions."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    records = []
    for n in range(1, n_max + 1):
        for l in range(1, n + 1):
            a = pole_weight(n, l)
            b = pole_weight_product_form(n, l)
            records.append(comparison_record(
                "anl", str(a), str(b), extra=(("n", n), ("l", l))))
    return records


@lru_cache(maxsize=64)
def gf_coeff_series(n: int, dx: int = 12, dz: int = 12) -> BiSeries:
    """Double power series of the t^n generating-function coefficient.

    The x^j coefficient of W(z)/(x+z-l) is (-1)^j W(z)/(z-l)^(j+1), and
    its z -> -z partner W(-z)/(x-z-l) gives the same function at -z, so
    each pair contributes twice its even part in z.  W's Laurent series
    is taken once per l; each further power of 1/(z-l) is one O(dz)
    division of that series by the linear factor.  Only at l = n may W
    have a pole at z = 0, a simple one, whose odd z^-1 terms cancel in
    the pair; any other pole raises PoleCancellationError (a bug, not
    bad input).

    The divisions run on ints.  With W = N/Q on int lists, Q = z^v Q',
    X_i = Q'_0^e [z^i] N/Q' = (Q'_0^e N_i - sum_j Q'_j X_(i-j)) / Q'_0 is
    an int for e = dz+v+1.  With D the lcm of every l's Q'_0^e, big =
    lcm(1..n) and t_i the z^i coefficient after j+1 divisions, U_i = D *
    big^(i+j+1) * t_i; dividing by z - l is then U_i <- (big/l) *
    (U_(i-1) - U_i).  Every l's term in the cell (j, i) has the
    denominator D * big^(i+j+1+v), so each even cell sums ints and
    becomes one Fraction.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    laurent = []  # (l, v, scale, the z^(i-v) coefficients of W times scale)
    for l in range(1, n + 1):
        w = pole_weight(n, l)
        common = lcm(*(c.denominator for c in w.num.coeffs + w.den.coeffs))
        num, den = ([int(c * common) for c in f.coeffs] for f in (w.num, w.den))
        v = next(i for i, c in enumerate(den) if c)  # pole order at z = 0
        if l == n and v > 1:
            raise PoleCancellationError(
                f"pole at z=0 survived the l={l} pair of the n={n} term")
        if l < n and v:
            raise PoleCancellationError(
                f"unexpected z=0 pole in the (n={n}, l={l}) term")
        e, q0, rest, x = dz + v + 1, den[v], den[v + 1:], []
        power = q0 ** e
        for c in (num + [0] * e)[:e]:
            x.append((c * power - sum(map(mul, rest, reversed(x)))) // q0)
        laurent.append((l, v, power, x))
    big = lcm(*range(1, n + 1))
    d = lcm(*(s for _, _, s, _ in laurent))
    top = max(v for _, v, _, _ in laurent)
    nums = [[0] * (dz + 1) for _ in range(dx + 1)]
    for l, v, scale, t in laurent:
        q = big // l
        u = [c * (d // scale) * big ** i for i, c in enumerate(t)]
        lift = big ** (top - v)  # onto the common denominator of the cell
        for j in range(dx + 1):
            # (z - l) * new = old, so new_i = (new_(i-1) - old_i) / l
            prev = 0
            for i, s in enumerate(u):
                prev = u[i] = q * (prev - s)
            twice = -2 * lift if j % 2 else 2 * lift
            row = nums[j]
            for i in range(0, dz + 1, 2):
                row[i] += twice * u[i + v]
    grid = [[Fraction(row[i], d * big ** (i + j + 1 + top)) if i % 2 == 0 else _ZERO
             for i in range(dz + 1)]
            for j, row in enumerate(nums)]
    return BiSeries(grid, dx, dz)


def polylog_star_coeff(ix: Index, n: int) -> Fraction:
    """Coefficient of t^n in the non-strict polylogarithm of ``ix``.

    For parts (k_1, ..., k_r) this is n^(-k_1) times the sum over
    n >= m_2 >= ... >= m_r >= 1 of prod m_j^(-k_j), run as a suffix
    recursion over m.  Every term has a denominator dividing
    L^weight with L = lcm(1..n), so the recursion runs on plain ints
    scaled by a power of L (a step of part k adds (L/m)^k * suffix[m]),
    and only the single Fraction at the end is reduced.

    This is the per-index reference of ``polylog_family_coeff``, which
    gives a whole family's sum at once; no suite calls it.
    """
    parts = tuple(ix)
    if not parts:
        raise ValueError("index must have depth >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    big = lcm(*range(1, n + 1))
    q = [big // m for m in range(1, n + 1)]
    # suffix[m-1]: sum over non-strict chains bounded by m of the tail
    # product, times big^(weight of the tail)
    suffix = [1] * n
    for k in reversed(parts[1:]):
        acc = 0
        new = []
        for qm, sm in zip(q, suffix):
            acc += qm ** k * sm
            new.append(acc)
        suffix = new
    return Fraction(q[-1] ** parts[0] * suffix[-1], big ** sum(parts))


@lru_cache(maxsize=64)
def _free_star_table(n: int, weight: int) -> list[list[int]]:
    """free[h][w] for w <= weight: L^w times the star sum over the indices
    of weight w and height h and the chains n >= m_1 >= ... >= m_r >= 1,
    with L = lcm(1..n).

    It is harmonic's ``family_pass`` run on exact ints, with the steps L/m
    and (L/m)^2 for m = n .. 1 and a modulus no star cell reaches: there
    are 2^(w-1) indices of weight w, each with at most n^w chains, and
    each term is at most L^w, so no cell exceeds (2nL)^w.  Only the free
    table is filled.
    """
    big = lcm(*range(1, n + 1))
    steps = ((big // m, (big // m) ** 2) for m in range(n, 0, -1))
    return family_pass(weight, steps, (2 * n * big) ** weight + 1, ("free",))[2]


def polylog_family_coeff(n: int, k: int, s: int, order: int | None = None) -> Fraction:
    """Coefficient of t^n summed over the admissible family (k, s).

    The sum of ``polylog_star_coeff`` over every index of weight k and
    height s with k_1 >= 2: the first part k_1 sits at m = n, and the
    tail after it has weight k - k_1 and height s - 1 with a free first
    part, so the family sum is sum over k_1 of q_n^(k_1) free[s-1][k-k_1]
    / L^k, with q_n = L/n and free the table of ``_free_star_table`` at
    weight ``order``, which must be at least k - 2 (by default k - 2).  A
    cell of weight w is the same in every table of weight >= w, as no cell
    reaches a table's modulus, so all (k, s) of one n may read one table.
    """
    if n < 1 or k < 0 or s < 1:
        raise ValueError(f"need n >= 1, k >= 0 and s >= 1, got n={n}, k={k}, s={s}")
    if order is None:
        order = k - 2
    elif order < k - 2:
        raise ValueError(f"need order >= k - 2, got order={order}, k={k}")
    if 2 * s > k:
        return _ZERO
    big = lcm(*range(1, n + 1))
    free = _free_star_table(n, order)[s - 1]
    q = big // n
    num = sum(q ** k1 * free[k - k1] for k1 in range(2, k - 2 * s + 3))
    return Fraction(num, big ** k)


def gf_coefficient_check(n: int, k: int, s: int, order: int | None = None) -> VerificationRecord:
    """[x^(k-2s) z^(2s-2)] of the series vs the polylog family sum.

    The coefficient is read from the grid of ``gf_coeff_series`` cut at
    ``order`` on both axes, which must be at least k - 2; by default
    max(12, k - 2), so every s of one (n, k) reads the same grid.  The
    coefficients of a grid do not depend on its cut.  The family sum
    reads the free star table of n at the same weight (see
    ``polylog_family_coeff``), so every (k, s) of one n reads one table.
    """
    if n < 1 or s < 1 or 2 * s > k:
        raise ValueError(f"need n >= 1, s >= 1, 2s <= k; got n={n}, k={k}, s={s}")
    if order is None:
        order = max(12, k - 2)
    lhs = gf_coeff_series(n, order, order).coeff(k - 2 * s, 2 * s - 2)
    rhs = polylog_family_coeff(n, k, s, order)
    return comparison_record("phi0", frac_str(lhs), frac_str(rhs),
                             k=k, s=s, extra=(("n", n),))


def gauss_terminating_check(m: int, b, c) -> VerificationRecord:
    """Terminating Gauss series at 1 vs its closed rising-factorial form.

    Checks sum_{j<=m} (-m)_j (b)_j / ((c)_j j!) = (c-b)_m / (c)_m with
    exact rationals; b and c must be ints or Fractions, and a vanishing
    (c)_j factor raises DegenerateParametersError.

    Both sides run on ints over one denominator each.  With b = bn/bd
    and c = cn/cd, term j is P_j/Q_j, where P_j and Q_j are the products
    over i < j of (i-m)(bn + i bd) cd and (cn + i cd)(i+1) bd, so the sum
    is sum_j P_j (Q_m/Q_j) / Q_m, with Q_m/Q_j a suffix product; the
    closed form is prod_{i<m} (cn bd - bn cd + i bd cd) over
    prod_{i<m} (cn + i cd) times bd^m.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    b, c = _as_fraction(b), _as_fraction(c)
    bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
    for j in range(m):
        if cn + j * cd == 0:
            raise DegenerateParametersError(
                f"(c)_{j + 1} vanishes at c={frac_str(c)}")
    p = [1]  # p[j] = P_j
    for i in range(m):
        p.append(p[-1] * (i - m) * (bn + i * bd) * cd)
    lhs_num, suffix = p[m], 1  # suffix = Q_m / Q_j
    for j in range(m - 1, -1, -1):
        suffix *= (cn + j * cd) * (j + 1) * bd
        lhs_num += p[j] * suffix
    rhs_num = rhs_den = 1
    for i in range(m):
        rhs_num *= cn * bd - bn * cd + i * bd * cd
        rhs_den *= cn + i * cd
    lhs = Fraction(lhs_num, suffix)
    rhs = Fraction(rhs_num, rhs_den * bd ** m)
    return comparison_record(
        "gauss", frac_str(lhs), frac_str(rhs),
        extra=(("m", m), ("b", frac_str(b)), ("c", frac_str(c))))


# ---------------------------------------------------------------------------
# congruence checks over Z/pZ, each side read at one sampled point z0 at a
# time from its Laurent coefficients there

_CONGRUENCES = ("truncation", "closed-form", "tail-term")


class _LaurentRows(dict):
    """z0 -> (poles, values), built when z0 is first read: the eps^-1 and
    eps^0 coefficients of r_n(z) = (z)_n / (2z+1)_n at z0 + eps for n < p,
    2 bytes each for p < 2^16.  r_(n+1) = r_n (z+n)/(2z+1+n): with f =
    2z0+1+n and g = z0+n, the step is g/f + (1-n)/f^2 eps on r_n's
    (eps^0, eps^1) until f vanishes, and there (g+eps)/(2 eps), which
    shifts that pair to (eps^-1, eps^0).  For n < p, f vanishes at one n
    at most."""

    def __init__(self, p: int):  # dict.__new__ makes the empty mapping
        self.p, self.inv = p, inverses(p)

    def __missing__(self, z0: int):
        p, inv = self.p, self.inv
        at = (-2 * z0 - 1) % p  # the n whose factor 2z+1+n vanishes at z0
        a, b, lo, hi = 1, 0, [1], [0]
        for n in range(p - 1):
            if n == at:
                a, b = (z0 + n) * a * inv[2] % p, ((z0 + n) * b + a) * inv[2] % p
            else:
                i = inv[(n - at) % p]
                g = (z0 + n) * i % p
                a, b = g * a % p, (g * b + (1 - n) * i * i * a) % p
            lo.append(a)
            hi.append(b)
        cut, code = at + 1, "H" if p < 1 << 16 else "Q"
        row = self[z0] = (array(code, [0] * cut + lo[cut:]), array(code, lo[:cut] + hi[cut:]))
        return row


def _congruence_values(l: int, z0: int, rows: _LaurentRows, head: list[int], t: int, ctx):
    """(lhs, rhs) at z0 of each congruence, in the order of _CONGRUENCES.

    head holds c_n = (l)_n / n! for n < M = p - l, and t = c_M.  A left
    side is a pole where its eps^-1 coefficient is nonzero, else its eps^0
    one: the truncation is head . r, the tail term t r_M, the full series
    their sum, and the right side of (i), ((z+1)_M - t (z)_M) / (2z+1)_M,
    is r_M ((z0+M)/z0 - M/z0^2 eps) - t r_M.  The closed forms of (ii) and
    (iii) come from their linear factors' (order, lead), with their Fermat
    quotient (z^(p-1)-1)/((2z)^(p-1)-1) cancelled: it is 1 in Z/pZ(z), as
    2^(p-1) = 1 mod p.  Without it, both sides, raw products of ~p
    consecutive shifts, would vanish at every prime-field point.
    """
    (fact, inv_fact), p, inv = ctx.factorials(), rows.p, rows.inv
    def poch(shift, scale, n):
        # (order, lead) of prod_{i<n} (scale z + shift + i), n < p: the factors at z0
        # run a, a+1, ... from a in [1, p], and the one at p is scale (z - z0)
        a = (scale * z0 + shift - 1) % p + 1
        if a + n <= p:
            return 0, fact[a + n - 1] * inv_fact[a - 1] % p
        return 1, -scale * inv_fact[a - 1] * fact[a + n - 1 - p] % p  # (p-1)! = -1

    def side(pole, value):
        return None if pole % p else value % p

    def quotient(order, lead, den):  # lead z^order / den, den an (order, lead) pair
        order -= den[0]
        return (None if order < 0 else 0) if order else lead * inv[den[1]] % p

    poles, values = rows[z0]
    m = len(head)
    sp, sv = sum(map(mul, head, poles)), sum(map(mul, head, values))
    rp, rv, k = poles[m], values[m], (z0 + m) * inv[z0] - t
    (ho, hc), sign_z = poch(1 - l, 2, l - 1), z0 if l % 2 else -z0  # sign_z: (-1)^(l+1) z
    return [(side(sp, sv), side(k * rp, k * rv - m * inv[z0] ** 2 * rp)),
            (side(sp + t * rp, sv + t * rv), quotient(ho, hc, poch(1 - l, 1, l - 1))),
            (side(t * rp, t * rv), quotient(ho, sign_z * hc, poch(-l, 1, l)))]


def hypergeom_congruence_check(l: int, ctx: PrimeCtx, samples: int = 20,
                               seed: int = 7, rows=None) -> VerificationRecord:
    """Sample the three truncation/closed-form congruences at random z0.

    Each side is a rational function over Z/pZ, read at seeded
    pseudorandom z0 in [1, p-1] from its Laurent coefficients at z0 + eps,
    which give its reduced form's value with no gcd.  The left sides sum
    c_n r_n(z0), r_n = (z)_n / (2z+1)_n free of l: ``rows`` (a suite's,
    for every l) holds r_n for n < p at each z0 drawn, 4 bytes per (z0, n)
    for p < 2^16; with none, the check builds the same rows of its own.  A
    z0 where either side has a pole is skipped and reported.  Raises
    AllSamplesSkippedError when a congruence never finds an admissible z0.
    """
    p = ctx.p
    if not 1 <= l <= p - 2:
        raise ValueError(f"need 1 <= l <= p-2, got l={l}, p={p}")
    if samples < 1:
        raise ValueError("need samples >= 1")
    rows = _LaurentRows(p) if rows is None else rows
    fact, inv_fact = ctx.factorials()
    *head, t = [fact[l + n - 1] * inv_fact[l - 1] * inv_fact[n] % p for n in range(p - l + 1)]
    rng = Lcg((seed << 20) ^ (p << 8) ^ l)
    evaluated, skipped, mismatch, seen = [0, 0, 0], [0, 0, 0], None, {}
    for _ in range(samples * 16):
        if all(e >= samples for e in evaluated):
            break
        z0 = 1 + rng.below(p - 1)
        if z0 not in seen:  # draws repeat
            seen[z0] = _congruence_values(l, z0, rows, head, t, ctx)
        for idx, (name, (lv, rv)) in enumerate(zip(_CONGRUENCES, seen[z0])):
            if evaluated[idx] >= samples:
                continue
            if lv is None or rv is None:
                skipped[idx] += 1
                continue
            evaluated[idx] += 1
            if lv != rv and mismatch is None:
                mismatch = (name, z0, lv, rv)
    starved = [name for name, e in zip(_CONGRUENCES, evaluated) if e == 0]
    if starved:
        raise AllSamplesSkippedError(
            f"no admissible z0 for {', '.join(starved)} (l={l}, p={p})")
    extra = (("l", l), ("seed", seed), ("samples", samples),
             ("evaluated", "/".join(str(e) for e in evaluated)),
             ("skipped_samples", "/".join(str(s) for s in skipped)))
    if mismatch is None:
        return VerificationRecord(check="hypcong", p=p, passed=True, extra=extra)
    name, z0, lv, rv = mismatch
    return VerificationRecord(
        check="hypcong", p=p, lhs=str(lv), rhs=str(rv), passed=False,
        reason=f"{name} congruence failed at z0={z0}", extra=extra)


# ---------------------------------------------------------------------------
# suite drivers (used by the CLI and the acceptance tests)


def run_gauss_suite(m_max: int = 8, pairs: int = 25, seed: int = 42) -> list[VerificationRecord]:
    """Seeded random rational (b, c) pairs, checked at every m <= m_max."""
    rng = Lcg(seed)
    records = []
    for _ in range(pairs):
        b = Fraction(rng.below(25) - 12, 1 + rng.below(10))
        c = Fraction(rng.below(25) - 12, 1 + rng.below(10))
        for m in range(m_max + 1):
            try:
                records.append(gauss_terminating_check(m, b, c))
            except DegenerateParametersError as err:
                records.append(skipped_record(
                    "gauss", str(err),
                    extra=(("m", m), ("b", frac_str(b)), ("c", frac_str(c)))))
    return records


def run_anl_suite(n_max: int = 6) -> list[VerificationRecord]:
    return anl_form_agreement(n_max)


def run_phi0_suite(n_max: int = 5, k_max: int = 6) -> list[VerificationRecord]:
    """Every (k, s) with k <= k_max at each n <= n_max, all of one n read
    from one grid, cut at max(12, k_max - 2)."""
    order = max(12, k_max - 2)
    records = []
    for n in range(1, n_max + 1):
        for k in range(2, k_max + 1):
            for s in range(1, k // 2 + 1):
                records.append(gf_coefficient_check(n, k, s, order))
    return records


def run_hypcong_suite(p: int, samples: int = 20, seed: int = 7) -> list[VerificationRecord]:
    ctx = prime_ctx(p)
    rows = _LaurentRows(p)  # every l reads them; dropped on return
    records = []
    for l in range(1, p - 1):
        try:
            records.append(hypergeom_congruence_check(l, ctx, samples, seed, rows))
        except AllSamplesSkippedError as err:
            records.append(VerificationRecord(
                check="hypcong", p=p, passed=False,
                reason=str(err), extra=(("l", l), ("seed", seed))))
    return records
