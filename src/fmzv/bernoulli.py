"""Bernoulli numbers mod p and the finite zeta values B_(p-k)/k mod p.

Every value is an int in [0, p).

Two independent routes are kept deliberately separate:

* Glaisher's route, sum(l^(-(k-1)), l < p) = (k-1)/k * p * B_(p-k)
  mod p^2 for odd k and p >= k+2 (``_glaisher_residues``).  The zeta
  hunt reads it for its residues, ``verify`` for the right side of ao
  and lm, and the public ``bernoulli_mod`` and ``zeta_residue`` as its
  block of one: an even B_n with 2 <= n <= p-3 is k * (B_(p-k)/k) at
  the odd k = p - n, which is that route's domain (B_(p-k)/k is 0 for
  even k).  Its steps l^(k-1) do not depend on p, so one pass over l
  serves a whole block of primes, modulo the product of their squares;
* the alternating inverse power sum, which a classical congruence ties
  to 2*(1 - 2^(1-k)) * B_(p-k)/k whenever 2^(k-1) is not 1 mod p, the
  hunt's cross-check (``_alternating_sums``; ``alternating_power_sum``
  is its block of one).  As (p-l)^(-k) = (-1)^k * l^(-k) mod p and l,
  p - l have opposite parity, the sum is 2*sum((-1)^(l-1) * l^(-k),
  l <= h) for odd k and 0 for even k, one pass over l <= h modulo the
  product of a block's primes.

The routes share no arithmetic: Glaisher's route works mod a block's
product of p^2 over the full range l < p, the alternating route mod a
block's product of p over signed terms at l <= h.  Both passes keep
their sum as one running fraction N/D, each prime a Chinese remainder
lane that reads N/D where its range ends and then leaves the modulus, so
neither holds a table.

The term-by-term power sum and the classical recurrence sum(C(m+1, j) *
B_j, j <= m) = 0 are kept only as test oracles.  ``check_euler_congruence``
confronts Glaisher's route, through ``zeta_residue``, with the
alternating route at one prime; ``zeta_sweep_rows`` does so at a block of
primes of a hunt for zero residues of B_(p-k)/k.  Both report
VerificationRecords; a sweep row carries the residue as lhs and
``zero``/``cross`` extras.
"""

from __future__ import annotations

from math import prod

from .errors import VonStaudtPoleError
from .modfield import PrimeCtx
# Unused here: perfbench/tracing.py patches this name on this module.
from .modfield import prime_ctx  # noqa: F401
from .records import VerificationRecord, comparison_record, skipped_record


def bernoulli_mod(n: int, ctx: PrimeCtx) -> int:
    """B_n mod p for n in {0, 1}, odd n <= p-2 and even n <= p-3.

    Odd n >= 3 give 0; n with (p-1) | n (n > 0) are von Staudt poles.
    An even n is k * (B_(p-k)/k) at the odd k = p - n, 3 <= k <= p-2,
    Glaisher's domain: the block of one of ``_glaisher_residues``,
    memoized on the context.
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

    k = p - n
    return ctx.memo(("bernoulli_even", n), lambda: _glaisher_residues(k, (p,))[0] * k % p)


def _alternating_sums(k: int, primes) -> list[int]:
    """2*sum((-1)^(l-1) * l^(-k), l <= (p-1)/2) mod p at each of the
    ascending odd primes of a block, for odd k.

    The half sum is one running fraction N/D with D the product of the
    l^k, taken two terms a step, modulo M, the product of the block's
    primes: each prime p is a Chinese remainder lane that reads N/D mod p
    when l reaches (p-1)/2, and then leaves M.  A step is l^k reduced mod
    M, so a large k costs a few products mod M a step.  Nothing p-sized
    is built.
    """
    mod = prod(primes)
    num, den, start = 0, 1, 1  # start: the odd l of the next step
    sums = []
    for p in primes:
        h = (p - 1) // 2
        # two terms a step, odd l and even l + 1:
        # N/D + 1/t - 1/u = (N*t*u + D*(u - t)) / (D*t*u)
        for l in range(start, h, 2):
            t, u = pow(l, k, mod), pow(l + 1, k, mod)
            tu = t * u
            num = (num * tu + den * (u - t)) % mod
            den = den * tu % mod
        start = h + 1 - h % 2
        if h % 2:  # h is odd, and its term is left over: N/D + 1/t
            t = pow(h, k, p)
            sums.append(2 * (num * t + den) * pow(den * t, -1, p) % p)
        else:
            sums.append(2 * num * pow(den, -1, p) % p)
        mod //= p
        num, den = num % mod, den % mod
    return sums


def alternating_power_sum(k: int, ctx: PrimeCtx) -> int:
    """Sum of (-1)^(l-1) * l^(-k) over l = 1..p-1, mod p.

    (p-l)^(-k) = (-1)^k * l^(-k) mod p, and l, p - l have opposite
    parity, so the terms at l and p - l are equal for odd k and cancel
    for even k: the sum is 2*sum((-1)^(l-1) * l^(-k), l <= (p-1)/2) for
    odd k and 0 for even k.  The half sum is the block of one of
    ``_alternating_sums``.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if k % 2 == 0:
        return 0
    return _alternating_sums(k, (ctx.p,))[0]


def _glaisher_residues(k: int, primes) -> list[int]:
    """B_(p-k)/k mod p at each of the ascending primes p >= k+2 of a
    block, for odd k >= 3, by Glaisher's congruence

        sum(l^(-(k-1)), l < p) = (k-1)/k * p * B_(p-k)  (mod p^2)

    (J. W. L. Glaisher, 1900).  Its steps t = l^(k-1) do not depend on p,
    so the sum is one running fraction N/D, N <- N*t + D and D <- D*t,
    modulo M, the product of the p^2.  Each prime reads H = N/D mod p^2,
    a multiple of p, when l reaches p-1, takes (H/p) / (k-1) mod p and
    leaves M.  A step is l^(k-1) reduced mod M.  An H that is not 0 mod p
    (a prime outside the domain, or a wrong sum) raises ArithmeticError.
    """
    e = k - 1
    mod = prod(p * p for p in primes)
    num, den, start = 0, 1, 1
    residues = []
    for p in primes:
        # two terms a step, odd l and even l + 1, so that the steps end at
        # the even p-1: N/D + 1/t + 1/u = (N*t*u + D*(t + u)) / (D*t*u)
        for l in range(start, p, 2):
            t, u = pow(l, e, mod), pow(l + 1, e, mod)
            tu = t * u
            num = (num * tu + den * (t + u)) % mod
            den = den * tu % mod
        start = p
        p2 = p * p
        total = num * pow(den, -1, p2) % p2
        if total % p:
            raise ArithmeticError(f"Glaisher's power sum is not 0 mod p={p} at k={k}")
        residues.append(total // p * pow(e, -1, p) % p)
        mod //= p2
        num, den = num % mod, den % mod
    return residues


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


def zeta_sweep_rows(k: int, primes) -> list[VerificationRecord]:
    """The zeta-residue hunt at a block of ascending primes, one "zsweep"
    record a prime.

    ``lhs`` is the residue B_(p-k)/k (``_glaisher_residues``) and ``rhs``
    the alternating route's value of it (``_alternating_sums``), "" when
    that route cannot divide.  The extras say whether the residue is zero
    and how the cross-check went: "ok", "fail" or "degenerate".  Each
    route runs one pass over l for the whole block; for even k both
    values are 0 and neither runs.  Primes p <= k+1 get skipped records.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    live = [p for p in primes if p > k + 1]
    if k % 2:
        values = zip(_glaisher_residues(k, live), _alternating_sums(k, live))
    else:
        values = [(0, 0)] * len(live)
    rows = [skipped_record("zsweep", f"p <= {k + 1}", p=p, k=k)
            for p in primes if p <= k + 1]
    for p, (res, alt) in zip(live, values):
        factor = _alternating_factor(k, p)
        if factor == 0:
            rows.append(VerificationRecord(
                check="zsweep", p=p, k=k, lhs=str(res), rhs="", passed=True,
                reason="2^(k-1) = 1 mod p: alternating route cannot divide",
                extra=(("zero", res == 0), ("cross", "degenerate")),
            ))
            continue
        derived = alt * pow(factor, p - 2, p) % p
        cross = "ok" if derived == res else "fail"
        rows.append(comparison_record("zsweep", str(res), str(derived), p=p, k=k,
                                      extra=(("zero", res == 0), ("cross", cross))))
    return rows


def zeta_sweep_row(k: int, p: int) -> VerificationRecord:
    """One prime of the zeta-residue hunt: the block of one of
    ``zeta_sweep_rows``."""
    return zeta_sweep_rows(k, (p,))[0]
