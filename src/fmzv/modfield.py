"""Primes, and the per-prime tables that arithmetic in Z/pZ reads.

A value mod p is a plain int in [0, p) everywhere in the package:
harmonic sums, Bernoulli values and identity sweeps do their own
``% p`` arithmetic.  A ``PrimeCtx`` owns the per-prime lookup tables
(factorials, inverse powers, ...) so sweeps over many primes amortize
table construction; the tables are built at most once per context under
a lock and are read-only afterwards.  ``inverses(p)`` is the table of
all inverses mod p, built in O(p) by a recurrence (the harmonic layer's
rows read it).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import compress
from math import isqrt

# Primes are capped so that a value mod p fits in a machine word.  All
# arithmetic is on Python ints, so products stay exact whatever their size.
PRIME_CAP = 1 << 61

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in the inclusive range [lo, hi], by a sieve of the window:
    the multiples of each prime q <= min(isqrt(hi), 2^16, hi - lo + 1) are
    struck from q^2 on, and survivors are confirmed by ``is_prime`` when
    that bound is below isqrt(hi).  O((hi - lo) + 2^16) at any height."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    bound = min(root, 1 << 16, hi - lo + 1)  # past the width, q strikes <= 1 number
    window = bytearray([1]) * (hi - lo + 1)
    for q in primes_in_range(2, bound):
        first = max(q * q, -(-lo // q) * q) - lo
        window[first::q] = bytes(len(range(first, len(window), q)))
    primes = list(compress(range(lo, hi + 1), window))
    return primes if bound == root else [n for n in primes if is_prime(n)]


class PrimeCtx:
    """An odd prime p together with lazily built per-prime tables.

    Instances are immutable from the caller's point of view and hash and
    compare by p alone, so they can be shared freely across threads.
    """

    __slots__ = ("p", "_lock", "_memo")

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"prime must be an int, got {type(p).__name__}")
        if p < 3 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        if p >= PRIME_CAP:
            raise ValueError(f"prime {p} exceeds the 2^61 cap")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)
        # reentrant: table builders may consult other per-context tables
        object.__setattr__(self, "_lock", threading.RLock())
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("PrimeCtx is immutable")

    def __repr__(self):
        return f"PrimeCtx({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeCtx) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeCtx", self.p))

    def __reduce__(self):
        # Caches are rebuilt on the receiving side.
        return (PrimeCtx, (self.p,))

    def memo(self, key, build):
        """Return the memoized table for ``key``, building it once under the lock."""
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        with self._lock:
            if key not in memo:
                memo[key] = build()
            return memo[key]

    def factorials(self):
        """(fact, inv_fact) tables for 0..p-1, memoized."""
        return self.memo("factorials", self._build_factorials)

    def _build_factorials(self):
        p = self.p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        inv_fact = [1] * p
        inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
        for i in range(p - 1, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        return fact, inv_fact


@lru_cache(maxsize=256)
def prime_ctx(p: int) -> PrimeCtx:
    """Shared PrimeCtx factory; reuses contexts (and their tables) per prime."""
    return PrimeCtx(p)


def inverses(p: int) -> list[int]:
    """inv[l] = l^(-1) mod p for 1 <= l < p, dummy zero at l = 0.

    O(p) without any exponentiation: p = (p // l) * l + p % l gives
    l^(-1) = -(p // l) * (p % l)^(-1), and p % l < l is already known.
    """
    inv = [0, 1] + [0] * (p - 2)
    for l in range(2, p):
        inv[l] = -(p // l) * inv[p % l] % p
    return inv


def binom_mod(n: int, k: int, ctx: PrimeCtx) -> int:
    """C(n, k) mod p via factorial tables; requires 0 <= n < p."""
    if n < 0:
        raise ValueError(f"binomial row must be >= 0, got {n}")
    if n >= ctx.p:
        raise ValueError(f"binomial row {n} >= p={ctx.p}; factorial tables do not apply")
    if k < 0 or k > n:
        return 0
    fact, inv_fact = ctx.factorials()
    return fact[n] * inv_fact[k] % ctx.p * inv_fact[n - k] % ctx.p
