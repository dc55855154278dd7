"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: direct chain enumeration for
harmonic sums, bitmask composition generation, the textbook rational
Bernoulli recurrence and its O(p^2) table mod p, B_(p-k)/k from the
power sum mod p^2 term by term over l < p, the family DP in its
older running-tail form, and hypcong's sides from one Horner pass on
first-order jets per (l, z0).  None of it shares code with the package
paths it checks; the hypcong reference builds its sides as whole
polynomials over Z/pZ with ``fmzv.polys``, which the pointwise evaluator
it checks does not use, and shares only the seeded draws and the record
type with it.  It imports ``fmzv`` when called, so the module loads
without the package on the path.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import prod


def brute_mhs_strict(parts, p):
    """Sum over p > m1 > ... > mr > 0 of prod mi^-ki, by raw enumeration."""
    r = len(parts)
    if r == 0:
        return 1
    total = 0
    for combo in combinations(range(1, p), r):
        chain = combo[::-1]  # decreasing
        term = 1
        for m, k in zip(chain, parts):
            term = term * pow(m, (p - 1 - k % (p - 1)) % (p - 1), p) % p
        total += term
    return total % p


def brute_mhs_star(parts, p):
    """Non-strict variant of brute_mhs_strict."""
    r = len(parts)
    if r == 0:
        return 1
    total = 0
    for combo in combinations_with_replacement(range(1, p), r):
        chain = combo[::-1]
        term = 1
        for m, k in zip(chain, parts):
            term = term * pow(m, (p - 1 - k % (p - 1)) % (p - 1), p) % p
        total += term
    return total % p


def all_compositions(k):
    """All compositions of k, via the 2^(k-1) bitmask bijection."""
    if k == 0:
        return [()]
    out = []
    for mask in range(1 << (k - 1)):
        parts = []
        run = 1
        for bit in range(k - 1):
            if mask >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def compositions_filtered(k, s=None, first_min=1):
    """Compositions of k filtered by height and minimum first part."""
    out = []
    for parts in all_compositions(k):
        if parts and parts[0] < first_min:
            continue
        if s is not None and sum(1 for x in parts if x >= 2) != s:
            continue
        out.append(parts)
    return out


def naive_mhs(parts, p, star):
    """Truncated harmonic sum by the suffix recursion, one pow per term.

    state[j] sums prod m_i^-k_i over the chains of parts j..r-1 whose
    largest m is at most the current m; O(p * depth) with no tables.
    """
    r = len(parts)
    state = [0] * r + [1]
    order = range(r - 1, -1, -1) if star else range(r)
    for m in range(1, p):
        for j in order:
            state[j] = (state[j] + pow(m, -parts[j], p) * state[j + 1]) % p
    return state[0]


def family_sums(k, p):
    """s -> (alternating strict, star, star with free first part) family sums.

    Enumerates every composition of weight k and sums naive_mhs over it:
    the first two over first part >= 2, the last over all compositions.
    """
    out = {s: [0, 0, 0] for s in range(k // 2 + 1)}
    for parts in all_compositions(k):
        s = sum(1 for x in parts if x >= 2)
        star = naive_mhs(parts, p, star=True)
        out[s][2] += star
        if parts and parts[0] >= 2:
            out[s][0] += (-1) ** len(parts) * naive_mhs(parts, p, star=False)
            out[s][1] += star
    return {s: tuple(v % p for v in sums) for s, sums in out.items()}


def family_pass_with_tail(k_max, steps, modulus):
    """The (weight, height) family DP with the parts e >= 2 at each m
    carried as a running tail per height, three products and two
    reductions per cell: the pass ``fmzv.harmonic.family_pass`` ran before
    it multiplied through by (1 - aX)^2.  Same steps, modulus and output.

    The tail G[w][h] = sign * b * T[w-2][h-1] + a * G[w-1][h] sums the
    parts e >= 2 placed at m.  The star tables sweep their heights upward
    and read the values already updated at m; the strict table (sign -1)
    sweeps them downward and reads the values from before m.
    """
    h_max = k_max // 2
    width = k_max + 1
    zero = [0] * width

    def columns():
        return [[1] + [0] * k_max] + [[0] * width for _ in range(h_max)]

    def plan(cols, heights):
        return [(cols[h], cols[h - 1] if h else zero, 2 * h or 1) for h in heights]

    alt, star, free = columns(), columns(), columns()
    alt_plan = plan(alt, range(h_max, 0, -1))
    star_plan = plan(star, range(1, h_max + 1)) + plan(free, range(h_max + 1))
    for a, b in steps:
        na, nb = modulus - a, modulus - b
        for col, below, start in alt_plan:
            prev, g = col[start - 1], 0
            for w in range(start, width):
                g = (nb * below[w - 2] + a * g) % modulus
                old = col[w]
                col[w] = (old + na * prev + g) % modulus
                prev = old
        for col, below, start in star_plan:
            prev, g = col[start - 1], 0
            for w in range(start, width):
                g = (b * below[w - 2] + a * g) % modulus
                prev = col[w] = (col[w] + a * prev + g) % modulus
    return [alt, star, free]


def power_sum(k, p):
    """Sum of l^(-k) over l = 1..p-1, mod p, term by term."""
    return sum(pow(l, -k, p) for l in range(1, p)) % p


def power_sum_mod_p2(n, p):
    """Sum of l^n over l = 1..p-1, mod p^2, term by term over the full range."""
    p2 = p * p
    return sum(pow(l, n, p2) for l in range(1, p)) % p2


@lru_cache(maxsize=None)
def zeta_residue(k, p):
    """B_(p-k)/k mod p for p > k+1: B_(p-k) = sum(l^(p-k), l < p) / p mod p
    for odd k (power_sum_mod_p2), and 0 for even k."""
    if k % 2 == 0:
        return 0
    return power_sum_mod_p2(p - k, p) // p * pow(k, -1, p) % p


def alternating_power_sum(k, p):
    """Sum of (-1)^(l-1) * l^(-k) over l = 1..p-1, mod p, term by term."""
    return sum((-1) ** (l - 1) * pow(l, -k, p) for l in range(1, p)) % p


@lru_cache(maxsize=None)
def frac_bernoulli(n):
    """Exact rational B_n from sum(C(m+1, j) B_j) = 0, with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += _choose(n + 1, j) * frac_bernoulli(j)
    return -total / (n + 1)


def bernoulli_even_table(p):
    """[B_0, B_2, ..., B_(p-3)] mod p from sum(C(m+1, j) B_j, j <= m) = 0.

    O(p^2) over even m, with B_1 = -1/2 and the odd B_j (j >= 3) zero;
    the factorials and their inverses are built here, by Fermat.
    """
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [pow(f, p - 2, p) for f in fact]
    b1 = (p - 1) // 2
    ev = [1]
    for m in range(2, p - 2, 2):
        total = (m + 1) * b1
        for j in range(0, m, 2):
            total += fact[m + 1] * inv_fact[j] * inv_fact[m + 1 - j] * ev[j // 2]
        ev.append(-total * pow(m + 1, p - 2, p) % p)
    return ev


def _choose(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def frac_mod(q, p):
    """Reduce an exact Fraction mod p (denominator must be coprime to p)."""
    num = q.numerator % p
    den = q.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"denominator of {q} vanishes mod {p}")
    return num * pow(den, p - 2, p) % p


def brute_li_star_coeff(parts, n):
    """Coefficient of t^n in the non-strict polylog for `parts`, by chains."""
    r = len(parts)

    def rec(level, upper):
        if level == r:
            return Fraction(1)
        total = Fraction(0)
        for m in range(1, upper + 1):
            total += Fraction(1, m ** parts[level]) * rec(level + 1, m)
        return total

    return Fraction(1, n ** parts[0]) * rec(1, n)


def closed_form_a1_coeff(i, j):
    """[x^i z^j] of 1/((1-x)^2 - z^2): C(j+1+i, j+1) for even j, else 0."""
    if j % 2 == 1:
        return Fraction(0)
    return Fraction(_choose(j + 1 + i, j + 1))


def poly_mul_mod(a, b, p):
    """Schoolbook product of coefficient lists (ascending degree) mod p,
    trailing zeros trimmed."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def hypcong_left_sides(l, p):
    """The three left sides of the hypcong congruences at (l, p), each as
    (numerator, denominator) coefficient lists mod p.

    With M = p - l and c_n = (l)_n / n!, the terms c_n (z)_n / (2z+1)_n
    go over a common denominator by the suffix products they lack:

      truncation   sum_{n<M}  c_n (z)_n suf(n, M-1)  over (2z+1)_(M-1)
      closed-form  sum_{n<=M} c_n (z)_n suf(n, M)    over (2z+1)_M
      tail-term    c_M (z)_M                         over (2z+1)_M

    where suf(n, N) is the product of (2z+1+i) for n <= i < N.
    """
    M = p - l
    z_poch = [[1]]
    for i in range(M):
        z_poch.append(poly_mul_mod(z_poch[-1], [i % p, 1], p))

    def suffixes(top):
        suf = [[1]] * (top + 1)
        for i in range(top - 1, -1, -1):
            suf[i] = poly_mul_mod(suf[i + 1], [(1 + i) % p, 2], p)
        return suf

    c, poch, fact = [], 1, 1
    for n in range(M + 1):
        c.append(poch * pow(fact, p - 2, p) % p)
        poch, fact = poch * (l + n) % p, fact * (n + 1) % p

    def numerator(top):
        suf = suffixes(top)
        total = [0] * (2 * top + 1)
        for n in range(top + 1):
            for i, x in enumerate(poly_mul_mod(z_poch[n], suf[n], p)):
                total[i] = (total[i] + c[n] * x) % p
        return poly_mul_mod(total, [1], p), suf[0]

    tail = poly_mul_mod(z_poch[M], [c[M]], p)
    return [numerator(M - 1), numerator(M), (tail, suffixes(M)[0])]


def horner_jets(z0, coeffs, p):
    """First-order jets (value, derivative) at z0 of the series' sides.

    The terms are c_n (z)_n / (2z+1)_n, coeffs[n] = c_n = (l)_n / n! for
    n <= M = p - l.  Over (2z+1)_N the first N+1 terms sum to acc_N, and
    acc_(N+1) = acc_N (2z+1+N) + c_(N+1) (z)_(N+1): one Horner pass, run
    on jets beside those of (z)_N, (z+1)_N and (2z+1)_N.  Returns the
    (numerator, denominator) jets of the truncated sum (i), which stops
    at N = M-1, the full series (ii), the tail term c_M (z)_M / (2z+1)_M
    (iii) and the right side of (i), ((z+1)_M - c_M (z)_M) / (2z+1)_M.
    """
    av, ad, zv, zd, sv, sd, dv, dd = 1, 0, 1, 0, 1, 0, 1, 0  # acc, (z), (z+1), (2z+1)
    last = len(coeffs) - 2
    for n, c in enumerate(coeffs[1:]):
        if n == last:
            trunc = ((av, ad), (dv, dd))
        f, g = (2 * z0 + 1 + n) % p, (z0 + n) % p
        zv, zd = zv * g % p, (zd * g + zv) % p
        sv, sd = sv * (g + 1) % p, (sd * (g + 1) + sv) % p
        av, ad = (av * f + c * zv) % p, (ad * f + 2 * av + c * zd) % p
        dv, dd = dv * f % p, (dd * f + 2 * dv) % p
    t, den = coeffs[-1], (dv, dd)
    return (trunc, ((av, ad), den), ((t * zv % p, t * zd % p), den),
            (((sv - t * zv) % p, (sd - t * zd) % p), den))


def jet_ratio(num, den, p):
    """num/den at z0 from their jets there; None at a pole.

    Every den here is (2z+1)_N with N <= p-1, whose roots are distinct
    mod p, so it vanishes to order <= 1, and a num whose jet is (0, 0)
    leaves a zero of the quotient, not a pole.
    """
    (a0, a1), (b0, b1) = num, den
    if b0:
        return a0 * pow(b0, p - 2, p) % p
    if not b1:
        raise ArithmeticError("a denominator vanishes to order >= 2 at a sampled point")
    return None if a0 else a1 * pow(b1, p - 2, p) % p


@lru_cache(maxsize=None)
def _factorials(p):
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    return fact, [pow(f, p - 2, p) for f in fact]


def hypcong_horner_values(l, z0, p):
    """(lhs, rhs) at z0 of each hypcong congruence, None at a pole: the
    left sides and the right side of (i) from ``horner_jets``, the closed
    forms of (ii) and (iii) from the (order, lead) pairs of their linear
    factors, the Fermat binomials by ``pow``, multiplied out factor by
    factor."""
    fact, inv_fact = _factorials(p)
    coeffs = [fact[l + n - 1] * inv_fact[l - 1] * inv_fact[n] % p for n in range(p - l + 1)]

    def poch(shift, scale, n):
        # (order, lead) of prod_{i<n} (scale z + shift + i), n < p: the factors
        # at z0 run a, a+1, ... from a in [1, p] and vanish only at p, where the
        # factor is scale (z - z0); (p-1)! = -1 mod p
        a = (scale * z0 + shift - 1) % p + 1
        if a + n <= p:
            return 0, fact[a + n - 1] * inv_fact[a - 1] % p
        return 1, -scale * inv_fact[a - 1] * fact[a + n - 1 - p] % p

    def fermat(c):  # c z^(p-1) - 1 vanishes at z0 != 0 to order one at most
        v = (c * pow(z0, p - 1, p) - 1) % p
        return (0, v) if v else (1, -c * pow(z0, p - 2, p) % p)

    def quotient(nums, dens):
        order = sum(o for o, _ in nums) - sum(o for o, _ in dens)
        if order:
            return None if order < 0 else 0
        return prod(c for _, c in nums) * pow(prod(c for _, c in dens), p - 2, p) % p

    trunc, full, tail, rhs_trunc = horner_jets(z0, coeffs, p)
    halves, top, over = poch(1 - l, 2, l - 1), fermat(1), fermat(pow(2, p - 1, p))
    sign = (0, 1 if l % 2 else p - 1)
    return [(jet_ratio(*trunc, p), jet_ratio(*rhs_trunc, p)),
            (jet_ratio(*full, p), quotient((top, halves), (over, poch(1 - l, 1, l - 1)))),
            (jet_ratio(*tail, p),
             quotient((sign, top, poch(0, 1, 1), halves), (over, poch(-l, 1, l))))]


@lru_cache(maxsize=None)
def hypcong_sides(l, p):
    """The three hypcong congruences at (l, p) as reduced FpRatFunc pairs.

    Returns [(name, lhs, rhs), ...].  Both left numerators come from one
    Horner pass on dense coefficient lists, acc_(N+1) = acc_N (2z+1+N) +
    c_(N+1) (z)_(N+1) over the common denominator (2z+1)_N, and every
    side is reduced by its gcd.  The Fermat-quotient factor
    (z^(p-1)-1)/((2z)^(p-1)-1) is built literally and reduces to 1.
    """
    from fmzv.polys import (FpRatFunc, fp_add, fp_mul, fp_mul_linear,
                            fp_pochhammer_poly, fp_scale, fp_trim)
    M = p - l
    z_poch, den, acc = [1], [1], [1]  # (z)_N, (2z+1)_N, acc_N at N = 0
    poch_l, fact = 1, 1  # (l)_N and N! mod p
    for n in range(M):
        if n == M - 1:
            num_i, den_M1 = acc, den
        den = fp_mul_linear(den, 1 + n, 2, p)
        z_poch = fp_mul_linear(z_poch, n, 1, p)
        poch_l, fact = poch_l * (l + n) % p, fact * (n + 1) % p
        c = poch_l * pow(fact, p - 2, p) % p
        step = fp_mul_linear(acc, 1 + n, 2, p)
        step += [0] * (len(z_poch) - len(step))
        acc = fp_trim([(x + c * w) % p for x, w in zip(step, z_poch)])
    tail_const = c  # (l)_M / M!

    lhs_i = FpRatFunc(num_i, den_M1, p)
    rhs_i = FpRatFunc(fp_add(fp_pochhammer_poly(1, 1, M, p),
                             fp_scale(z_poch, -tail_const % p, p), p), den, p)
    lhs_ii = FpRatFunc(acc, den, p)
    fermat = FpRatFunc([-1] + [0] * (p - 2) + [1],
                       [-1] + [0] * (p - 2) + [pow(2, p - 1, p)], p)
    rhs_ii = fermat * FpRatFunc(fp_pochhammer_poly(1 - l, 2, l - 1, p),
                                fp_pochhammer_poly(1 - l, 1, l - 1, p), p)
    lhs_iii = FpRatFunc(fp_scale(z_poch, tail_const, p), den, p)
    rhs_iii = (fermat * FpRatFunc(fp_mul([0, 1], fp_pochhammer_poly(1 - l, 2, l - 1, p), p),
                                  fp_pochhammer_poly(-l, 1, l, p), p)
               ).scale(1 if l % 2 == 1 else -1)
    return [("truncation", lhs_i, rhs_i),
            ("closed-form", lhs_ii, rhs_ii),
            ("tail-term", lhs_iii, rhs_iii)]


def hypcong_check(l, p, samples, seed):
    """The hypcong record at (l, p), sampling the reduced sides with eval_at.

    Draws z0 as ``fmzv.symbolic.hypergeom_congruence_check`` does and
    raises AllSamplesSkippedError with its message when a congruence
    never finds a z0 where both its sides are defined.
    """
    from fmzv.errors import AllSamplesSkippedError
    from fmzv.records import VerificationRecord
    from fmzv.symbolic import Lcg
    sides = hypcong_sides(l, p)
    rng = Lcg((seed << 20) ^ (p << 8) ^ l)
    evaluated, skipped, mismatch = [0, 0, 0], [0, 0, 0], None
    for _ in range(samples * 16):
        if all(e >= samples for e in evaluated):
            break
        z0 = 1 + rng.below(p - 1)
        for idx, (name, lhs, rhs) in enumerate(sides):
            if evaluated[idx] >= samples:
                continue
            lv, rv = lhs.eval_at(z0), rhs.eval_at(z0)
            if lv is None or rv is None:
                skipped[idx] += 1
                continue
            evaluated[idx] += 1
            if lv != rv and mismatch is None:
                mismatch = (name, z0, lv, rv)
    starved = [name for (name, _, _), e in zip(sides, evaluated) if e == 0]
    if starved:
        raise AllSamplesSkippedError(
            f"no admissible z0 for {', '.join(starved)} (l={l}, p={p})")
    extra = (("l", l), ("seed", seed), ("samples", samples),
             ("evaluated", "/".join(map(str, evaluated))),
             ("skipped_samples", "/".join(map(str, skipped))))
    if mismatch is None:
        return VerificationRecord(check="hypcong", p=p, passed=True, extra=extra)
    name, z0, lv, rv = mismatch
    return VerificationRecord(check="hypcong", p=p, lhs=str(lv), rhs=str(rv), passed=False,
                              reason=f"{name} congruence failed at z0={z0}", extra=extra)
