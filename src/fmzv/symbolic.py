"""Exact-rational verification of the generating-function machinery.

The two-variable generating function under test aggregates non-strict
polylogarithm truncations over index families, graded by weight (x) and
height (z); its t^n coefficient is a finite sum of partial fractions

    sum over l of [ W(n,l)(z)/(x+z-l) + W(n,l)(-z)/(x-z-l) ]

whose weights W(n,l) are ratios of rising factorials.  This module
builds those weights exactly (``pole_weight``), expands the t^n
coefficient as a double power series (``gf_coeff_series``: W's Laurent
series in z once per l, then one division by the linear factor z - l
per power of x, and each z -> -z pair as twice its even part), and
checks the expansion coefficient-by-coefficient against brute polylog
sums (``gf_coefficient_check``).  It also certifies the terminating
evaluation of the Gauss series at 1 and, working over Z/pZ, the
truncation congruences that connect the finite sums to that evaluation.

All arithmetic is exact; re-running any check yields bit-identical
rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .errors import (
    AllSamplesSkippedError,
    DegenerateParametersError,
    PoleCancellationError,
)
from .indices import Index, iter_admissible_indices
from .modfield import PrimeCtx, prime_ctx
from .polys import (
    BiSeries,
    FpRatFunc,
    Poly,
    RatFunc,
    fp_add,
    fp_mul,
    fp_mul_linear,
    fp_pochhammer_poly,
    fp_scale,
    fp_trim,
)
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
    """(scale*z + shift)(scale*z + shift + 1)...(n factors) as a Poly."""
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    out = Poly((1,))
    for i in range(n):
        out = out * Poly((shift + i, scale))
    return out


def _poch_frac(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def pole_weight(n: int, l: int) -> RatFunc:
    """The partial-fraction weight at the pole x = l - z, canonical form.

    Built from rising factorials with the offset m = n - l:

        (-1)^l / (2z) * (z-l+1)_(l-1) / (2z-l+1)_(l-1)
                      * (l)_m (z)_m / ((2z+1)_m m!)
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    m = n - l
    num = pochhammer_poly(1 - l, 1, l - 1) * pochhammer_poly(0, 1, m)
    den = (pochhammer_poly(1 - l, 2, l - 1)
           * Poly((0, 2))
           * pochhammer_poly(1, 2, m))
    const = Fraction((-1) ** l) * _poch_frac(Fraction(l), m) / factorial(m)
    return RatFunc(num * const, den)


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
    """
    if n < 1:
        raise ValueError("need n >= 1")
    grid = [[Fraction(0)] * (dz + 1) for _ in range(dx + 1)]
    for l in range(1, n + 1):
        w = pole_weight(n, l)
        den = w.den.coeffs
        v = next(i for i, c in enumerate(den) if c)  # pole order at z = 0
        if l == n and v > 1:
            raise PoleCancellationError(
                f"pole at z=0 survived the l={l} pair of the n={n} term")
        if l < n and v:
            raise PoleCancellationError(
                f"unexpected z=0 pole in the (n={n}, l={l}) term")
        # t[i]: the z^(i-v) coefficient of W, then of W/(z-l)^(j+1)
        t = RatFunc(w.num, Poly(den[v:])).taylor(dz + v)
        for j in range(dx + 1):
            # (z - l) * new = old, so new_i = (new_(i-1) - old_i) / l
            prev = 0
            for i, s in enumerate(t):
                prev = t[i] = (prev - s) / l
            twice = -2 if j % 2 else 2
            row = grid[j]
            for i in range(0, dz + 1, 2):
                row[i] += twice * t[i + v]
    return BiSeries(grid, dx, dz)


def polylog_star_coeff(ix: Index, n: int) -> Fraction:
    """Coefficient of t^n in the non-strict polylogarithm of ``ix``.

    For parts (k_1, ..., k_r) this is n^(-k_1) times the sum over
    n >= m_2 >= ... >= m_r >= 1 of prod m_j^(-k_j), run as a suffix
    recursion over m.  Every term has a denominator dividing
    L^weight with L = lcm(1..n), so the recursion runs on plain ints
    scaled by a power of L (a step of part k adds (L/m)^k * suffix[m]),
    and only the single Fraction at the end is reduced.
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


def gf_coefficient_check(n: int, k: int, s: int) -> VerificationRecord:
    """[x^(k-2s) z^(2s-2)] of the series vs the brute polylog family sum."""
    if n < 1 or s < 1 or 2 * s > k:
        raise ValueError(f"need n >= 1, s >= 1, 2s <= k; got n={n}, k={k}, s={s}")
    i, j = k - 2 * s, 2 * s - 2
    series = gf_coeff_series(n, max(12, i), max(12, j))
    lhs = series.coeff(i, j)
    rhs = sum((polylog_star_coeff(ix, n) for ix in iter_admissible_indices(k, s)),
              Fraction(0))
    return comparison_record("phi0", frac_str(lhs), frac_str(rhs),
                             k=k, s=s, extra=(("n", n),))


def gauss_terminating_check(m: int, b, c) -> VerificationRecord:
    """Terminating Gauss series at 1 vs its closed rising-factorial form.

    Checks sum_{j<=m} (-m)_j (b)_j / ((c)_j j!) = (c-b)_m / (c)_m with
    exact rationals; a vanishing (c)_j factor raises
    DegenerateParametersError.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    b, c = Fraction(b), Fraction(c)
    for j in range(m):
        if c + j == 0:
            raise DegenerateParametersError(
                f"(c)_{j + 1} vanishes at c={frac_str(c)}")
    lhs = Fraction(0)
    term = Fraction(1)
    for j in range(m + 1):
        lhs += term
        if j < m:
            term *= Fraction((-m + j)) * (b + j) / ((c + j) * (j + 1))
    rhs = _poch_frac(c - b, m) / _poch_frac(c, m)
    return comparison_record(
        "gauss", frac_str(lhs), frac_str(rhs),
        extra=(("m", m), ("b", frac_str(b)), ("c", frac_str(c))))


# ---------------------------------------------------------------------------
# congruence checks over Z/pZ


def _build_congruence_sides(l: int, ctx: PrimeCtx):
    """The three displayed congruences as reduced pairs over Z/pZ.

    Returns [(name, lhs, rhs), ...].  The Fermat-quotient factor
    (z^(p-1)-1)/((2z)^(p-1)-1) is built literally and reduces to 1 in
    Z/pZ(z), which is what lets the closed forms be sampled at all:
    written as raw products of ~p consecutive shifts, both sides vanish
    at every prime-field point.
    """
    p = ctx.p
    M = p - l
    inv_fact = ctx.factorials()[1]

    # The series' terms are c_n (z)_n / (2z+1)_n with c_n = (l)_n / n!.
    # Over the common denominator (2z+1)_N the first N+1 terms sum to
    #   acc_N = sum_{n<=N} c_n (z)_n prod_{n<=i<N} (2z+1+i),
    # and acc_(N+1) = acc_N (2z+1+N) + c_(N+1) (z)_(N+1): one pass of
    # Horner's rule.  The truncated sum (i) stops at N = M-1, the full
    # series (ii) at N = M.  Each step multiplies by linear factors in
    # O(N) (``fp_mul_linear``), then adds c_(N+1) (z)_(N+1) in one zip.
    # acc_N has degree <= N, but its top coefficient can vanish mod p,
    # so the product is padded to (z)_(N+1)'s length before the zip.
    z_poch, den, acc = [1], [1], [1]  # (z)_N, (2z+1)_N, acc_N at N = 0
    poch_l = 1  # (l)_N mod p
    for n in range(M):
        if n == M - 1:
            num_i, den_M1 = acc, den
        den = fp_mul_linear(den, 1 + n, 2, p)
        z_poch = fp_mul_linear(z_poch, n, 1, p)
        poch_l = poch_l * ((l + n) % p) % p
        c = poch_l * inv_fact[n + 1] % p
        step = fp_mul_linear(acc, 1 + n, 2, p)
        step += [0] * (len(z_poch) - len(step))
        acc = fp_trim([(x + c * w) % p for x, w in zip(step, z_poch)])
    num_ii, den_M = acc, den
    tail_const = poch_l * inv_fact[M] % p  # (l)_M / M!

    # (i) truncated sum vs terminating series minus its last term
    lhs_i = FpRatFunc(num_i, den_M1, p)
    rhs_i_num = fp_add(fp_pochhammer_poly(1, 1, M, p),
                       fp_scale(z_poch, -tail_const % p, p), p)
    rhs_i = FpRatFunc(rhs_i_num, den_M, p)

    # (ii) full terminating series vs the Fermat-quotient closed form
    lhs_ii = FpRatFunc(num_ii, den_M, p)
    fermat = FpRatFunc([-1] + [0] * (p - 2) + [1],
                       [-1] + [0] * (p - 2) + [pow(2, p - 1, p)], p)
    rhs_ii = fermat * FpRatFunc(fp_pochhammer_poly(1 - l, 2, l - 1, p),
                                fp_pochhammer_poly(1 - l, 1, l - 1, p), p)

    # (iii) the subtracted tail term vs its closed form
    lhs_iii = FpRatFunc(fp_scale(z_poch, tail_const, p), den_M, p)
    sign = 1 if l % 2 == 1 else -1
    rhs_iii = fermat * FpRatFunc(
        fp_mul([0, 1], fp_pochhammer_poly(1 - l, 2, l - 1, p), p),
        fp_pochhammer_poly(-l, 1, l, p), p)
    rhs_iii = rhs_iii.scale(sign)

    return [("truncation", lhs_i, rhs_i),
            ("closed-form", lhs_ii, rhs_ii),
            ("tail-term", lhs_iii, rhs_iii)]


def hypergeom_congruence_check(l: int, ctx: PrimeCtx, samples: int = 20,
                               seed: int = 1) -> VerificationRecord:
    """Sample the three truncation/closed-form congruences at random z0.

    Each congruence is built symbolically as a reduced rational function
    over Z/pZ, then evaluated pointwise at seeded pseudorandom z0 in
    [1, p-1]; a z0 where either reduced denominator vanishes is skipped
    and reported.  Raises AllSamplesSkippedError when some congruence
    never finds an admissible z0.
    """
    p = ctx.p
    if not 1 <= l <= p - 2:
        raise ValueError(f"need 1 <= l <= p-2, got l={l}, p={p}")
    if samples < 1:
        raise ValueError("need samples >= 1")
    sides = _build_congruence_sides(l, ctx)
    rng = Lcg((seed << 20) ^ (p << 8) ^ l)
    evaluated = [0] * len(sides)
    skipped = [0] * len(sides)
    mismatch = None
    cap = samples * 16
    for _ in range(cap):
        if all(e >= samples for e in evaluated):
            break
        z0 = 1 + rng.below(p - 1)
        for idx, (name, lhs, rhs) in enumerate(sides):
            if evaluated[idx] >= samples:
                continue
            lv = lhs.eval_at(z0)
            rv = rhs.eval_at(z0)
            if lv is None or rv is None:
                skipped[idx] += 1
                continue
            evaluated[idx] += 1
            if lv != rv and mismatch is None:
                mismatch = (name, z0, lv, rv)
    if any(e == 0 for e in evaluated):
        starved = [sides[i][0] for i in range(len(sides)) if evaluated[i] == 0]
        raise AllSamplesSkippedError(
            f"no admissible z0 for {', '.join(starved)} (l={l}, p={p})")
    extra = (
        ("l", l),
        ("seed", seed),
        ("samples", samples),
        ("evaluated", "/".join(str(e) for e in evaluated)),
        ("skipped_samples", "/".join(str(s) for s in skipped)),
    )
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
    records = []
    for n in range(1, n_max + 1):
        for k in range(2, k_max + 1):
            for s in range(1, k // 2 + 1):
                records.append(gf_coefficient_check(n, k, s))
    return records


def run_hypcong_suite(p: int, samples: int = 20, seed: int = 7,
                      ls=None) -> list[VerificationRecord]:
    ctx = prime_ctx(p)
    if ls is None:
        ls = range(1, p - 1)
    records = []
    for l in ls:
        try:
            records.append(hypergeom_congruence_check(l, ctx, samples, seed))
        except AllSamplesSkippedError as err:
            records.append(VerificationRecord(
                check="hypcong", p=p, passed=False,
                reason=str(err), extra=(("l", l), ("seed", seed))))
    return records
