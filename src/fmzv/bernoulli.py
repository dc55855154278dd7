"""Bernoulli numbers mod p and the finite zeta values B_(p-k)/k mod p.

Every value is an int in [0, p).

Two independent routes are kept deliberately separate.  Both run over
l <= h = (p-1)/2 only, because l and p - l pair up:

* the power sum sum(l^n, l < p) = p * B_n mod p^2, one O(p) sum per
  value (the route every check reads).  For even n, (p-l)^n = l^n -
  n*p*l^(n-1) mod p^2, so the sum is 2*sum(l^n) - n*p*sum(l^(n-1))
  over l <= h, the second sum needed only mod p.  l -> l^(n-1) mod p^2
  is completely multiplicative, so ``pow`` runs only at prime l and a
  composite takes the product of two earlier terms, split at its
  smallest prime factor.  That factor comes from one sieve shared by
  all primes, grown on demand;
* the alternating inverse power sum, which a classical congruence ties
  to 2*(1 - 2^(1-k)) * B_(p-k)/k whenever 2^(k-1) is not 1 mod p.  As
  (p-l)^(-k) = (-1)^k * l^(-k) mod p and l, p - l have opposite parity,
  the sum is 2*sum((-1)^(l-1) * l^(-k), l <= h) for odd k and 0 for
  even k.  It keeps that sum as one running fraction N/D mod p, with
  D the product of the l^k, and inverts D once at the end, so it holds
  no table at all.

The two routes share no arithmetic: one works mod p^2 from the sieve,
the other mod p with one Fermat inverse.

The classical recurrence sum(C(m+1, j) * B_j, j <= m) = 0 is kept only
as a test oracle.  ``check_euler_congruence`` confronts the two routes;
``zeta_sweep_row`` runs the confrontation at one prime of a hunt for
zero residues of B_(p-k)/k.  Both report VerificationRecords; a sweep
row carries the residue as lhs and ``zero``/``cross`` extras.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .errors import VonStaudtPoleError
from .modfield import PrimeCtx, prime_ctx
from .records import VerificationRecord, comparison_record, skipped_record

# _spf[l] is the smallest prime factor of l, for 2 <= l < len(_spf).  One
# table serves every prime.  A larger prime swaps in a table at least twice
# the size, built whole, so a reader never sees a half-built one.
_spf: list[int] = []


def _smallest_prime_factors(n: int) -> list[int]:
    """The shared sieve, grown to cover every l < n."""
    global _spf
    spf = _spf
    if len(spf) < n:
        size = max(n, 2 * len(spf))
        spf = list(range(size))
        for q in range(2, isqrt(size - 1) + 1):
            if spf[q] == q:
                for m in range(q * q, size, q):
                    if spf[m] == m:
                        spf[m] = q
        _spf = spf
    return spf


def _power_sum_mod_p2(n: int, p: int) -> int:
    """sum(l^n, l < p) mod p^2 for even n, from l <= h = (p-1)/2 only.

    For even n, (p-l)^n = l^n - n*p*l^(n-1) mod p^2, so with
    u[l] = l^(n-1) mod p^2 the sum is 2*sum(l*u[l]) - n*p*(sum(u[l]) mod p)
    over l <= h.  ``pow`` runs at prime l only.
    """
    p2 = p * p
    h = (p - 1) // 2
    spf = _smallest_prime_factors(h + 1)
    u = [0, 1] + [0] * (h - 1)
    for l in range(2, h + 1):
        q = spf[l]
        u[l] = pow(l, n - 1, p2) if q == l else u[q] * u[l // q] % p2
    return (2 * sum(map(mul, range(h + 1), u)) - n * p * (sum(u) % p)) % p2


def bernoulli_mod(n: int, ctx: PrimeCtx) -> int:
    """B_n mod p for n in {0, 1}, odd n <= p-2 and even n <= p-3.

    Odd n >= 3 give 0; n with (p-1) | n (n > 0) are von Staudt poles.
    An even n is read off sum(l^n, l < p) = p * B_n mod p^2, which holds
    for 2 <= n <= p-3, and memoized on the context.
    """
    p = ctx.p
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    if n == 0:
        return 1
    if n % (p - 1) == 0:
        raise VonStaudtPoleError(f"(p-1) | {n}: B_{n} is not p-integral mod {p}")
    if n == 1:
        return (p - 1) // 2  # representative of -1/2
    if n % 2 == 1:
        # B_n = 0 exactly for odd n >= 3, so any representable odd
        # index below the pole is fine.
        if n > p - 2:
            raise ValueError(f"Bernoulli index {n} out of range for p={p}")
        return 0
    if n > p - 3:
        raise ValueError(f"Bernoulli index {n} out of range for p={p}")

    return ctx.memo(("bernoulli_even", n), lambda: _power_sum_mod_p2(n, p) // p)


def alternating_power_sum(k: int, ctx: PrimeCtx) -> int:
    """Sum of (-1)^(l-1) * l^(-k) over l = 1..p-1, mod p.

    (p-l)^(-k) = (-1)^k * l^(-k) mod p, and l, p - l have opposite
    parity, so the terms at l and p - l are equal for odd k and cancel
    for even k: the sum is 2*sum((-1)^(l-1) * l^(-k), l <= (p-1)/2) for
    odd k and 0 for even k.  That half sum is kept as one fraction N/D:
    with t = l^k mod p, N <- N*t +- D and D <- D*t, and D (a product of
    units) is inverted once at the end.  Nothing p-sized is built.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if k % 2 == 0:
        return 0
    p = ctx.p
    h = (p - 1) // 2
    num, den = 0, 1
    # two terms a step, odd l and even l + 1:
    # N/D + 1/t - 1/u = (N*t*u + D*(u - t)) / (D*t*u)
    for l in range(1, h, 2):
        t = pow(l, k, p)
        u = pow(l + 1, k, p)
        tu = t * u
        num = (num * tu + den * (u - t)) % p
        den = den * tu % p
    if h % 2:  # h is odd, and its term is left over
        t = pow(h, k, p)
        num = (num * t + den) % p
        den = den * t % p
    return 2 * num * pow(den, p - 2, p) % p


def zeta_residue(k: int, ctx: PrimeCtx) -> int:
    """The p-component B_(p-k) / k of the finite zeta analogue; zero for even k."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if ctx.p <= k + 1:
        raise ValueError(f"prime {ctx.p} too small: need p > {k + 1}")
    p = ctx.p
    return bernoulli_mod(p - k, ctx) * pow(k, p - 2, p) % p


def _alternating_factor(k: int, p: int) -> int:
    """2 * (1 - 2^(1-k)) mod p; zero iff 2^(k-1) = 1 mod p."""
    two_pow = pow(2, k - 1, p)
    return 2 * (1 - pow(two_pow, p - 2, p)) % p


def check_euler_congruence(k: int, ctx: PrimeCtx) -> VerificationRecord:
    """Alternating power sum vs 2*(1 - 2^(1-k)) * B_(p-k)/k, as a record."""
    p = ctx.p
    if not 2 <= k <= p - 3:
        raise ValueError(f"need 2 <= k <= p-3, got k={k}, p={p}")
    lhs = alternating_power_sum(k, ctx)
    rhs = _alternating_factor(k, p) * zeta_residue(k, ctx) % p
    return comparison_record("euler", str(lhs), str(rhs), p=p, k=k)


def zeta_sweep_row(k: int, p: int) -> VerificationRecord:
    """One prime of the zeta-residue hunt, as a "zsweep" record.

    ``lhs`` is the residue B_(p-k)/k and ``rhs`` the alternating route's
    value of it ("" when that route cannot divide).  The extras say
    whether the residue is zero and how the cross-check went: "ok",
    "fail" or "degenerate".
    """
    if p <= k + 1:
        return skipped_record("zsweep", f"p <= {k + 1}", p=p, k=k)
    ctx = prime_ctx(p)
    res = zeta_residue(k, ctx)
    factor = _alternating_factor(k, p)
    if factor == 0:
        return VerificationRecord(
            check="zsweep", p=p, k=k, lhs=str(res), rhs="", passed=True,
            reason="2^(k-1) = 1 mod p: alternating route cannot divide",
            extra=(("zero", res == 0), ("cross", "degenerate")),
        )
    derived = alternating_power_sum(k, ctx) * pow(factor, p - 2, p) % p
    cross = "ok" if derived == res else "fail"
    return comparison_record("zsweep", str(res), str(derived), p=p, k=k,
                             extra=(("zero", res == 0), ("cross", cross)))
