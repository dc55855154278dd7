"""Exact arithmetic in Z/pZ for odd primes p.

Everything downstream (harmonic sums, Bernoulli residues, identity
sweeps) computes on the values defined here.  A ``PrimeCtx`` owns the
per-prime lookup tables (factorials, inverse powers, ...) so sweeps over
many primes amortize table construction; the tables are built at most
once per context under a lock and are read-only afterwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from .errors import ZeroInverseError

# Primes are capped so that a residue fits in a machine word.  All arithmetic
# is on Python ints, so products stay exact whatever their size.
PRIME_CAP = 1 << 61

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """All primes in the inclusive range [lo, hi]."""
    lo = max(lo, 2)
    return [n for n in range(lo, hi + 1) if is_prime(n)]


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

    def residue(self, value: int) -> "Residue":
        return Residue(value % self.p, self)

    @property
    def zero(self) -> "Residue":
        return Residue(0, self)

    @property
    def one(self) -> "Residue":
        return Residue(1, self)

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


@dataclass(frozen=True, slots=True)
class Residue:
    """An element of Z/pZ, tied to its PrimeCtx.

    Arithmetic between residues of different primes is rejected.
    """

    value: int
    ctx: PrimeCtx

    def __post_init__(self):
        if not 0 <= self.value < self.ctx.p:
            raise ValueError(
                f"residue value {self.value} out of range for p={self.ctx.p}"
            )

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.ctx.p != self.ctx.p:
                raise ValueError(
                    f"mixed moduli: p={self.ctx.p} vs p={other.ctx.p}"
                )
            return other
        if isinstance(other, int):
            return Residue(other % self.ctx.p, self.ctx)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue((self.value + o.value) % self.ctx.p, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue((self.value - o.value) % self.ctx.p, self.ctx)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue((o.value - self.value) % self.ctx.p, self.ctx)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue(self.value * o.value % self.ctx.p, self.ctx)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value % self.ctx.p, self.ctx)

    def __pow__(self, n: int):
        if n < 0:
            return mod_inv(self) ** (-n)
        return Residue(pow(self.value, n, self.ctx.p), self.ctx)

    def inv(self) -> "Residue":
        return mod_inv(self)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Residue({self.value} mod {self.ctx.p})"


def mod_inv(a: Residue) -> Residue:
    """Multiplicative inverse of a nonzero residue."""
    if a.value == 0:
        raise ZeroInverseError(f"0 is not invertible mod {a.ctx.p}")
    return Residue(pow(a.value, a.ctx.p - 2, a.ctx.p), a.ctx)


def batch_inv(values: list[Residue]) -> list[Residue]:
    """Invert many residues with a single modular exponentiation.

    Montgomery's trick: prefix products, one inversion of the total
    product, then a backward sweep.  All entries must be nonzero and
    share one prime.
    """
    if not values:
        return []
    ctx = values[0].ctx
    raw = []
    for i, v in enumerate(values):
        if v.ctx.p != ctx.p:
            raise ValueError(f"mixed moduli in batch: p={ctx.p} vs p={v.ctx.p}")
        if v.value == 0:
            raise ZeroInverseError(
                f"0 is not invertible mod {ctx.p} (batch position {i})", position=i
            )
        raw.append(v.value)
    return [Residue(v, ctx) for v in batch_inv_ints(raw, ctx.p)]


def batch_inv_ints(values: list[int], p: int) -> list[int]:
    """Integer-level batch inversion; entries must already be nonzero mod p."""
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % p
        prefix[i] = acc
    inv_acc = pow(acc, p - 2, p)
    out = [0] * n
    for i in range(n - 1, 0, -1):
        out[i] = inv_acc * prefix[i - 1] % p
        inv_acc = inv_acc * values[i] % p
    out[0] = inv_acc
    return out


def pochhammer_mod(a: Residue, n: int) -> Residue:
    """Rising factorial a(a+1)...(a+n-1) mod p; the empty product is 1."""
    if n < 0:
        raise ValueError(f"pochhammer length must be >= 0, got {n}")
    p = a.ctx.p
    acc = 1
    v = a.value
    for i in range(n):
        acc = acc * ((v + i) % p) % p
    return Residue(acc, a.ctx)


def binom_mod(n: int, k: int, ctx: PrimeCtx) -> Residue:
    """C(n, k) mod p via factorial tables; requires 0 <= n < p."""
    if n < 0:
        raise ValueError(f"binomial row must be >= 0, got {n}")
    if n >= ctx.p:
        raise ValueError(f"binomial row {n} >= p={ctx.p}; factorial tables do not apply")
    if k < 0 or k > n:
        return ctx.zero
    fact, inv_fact = ctx.factorials()
    return Residue(fact[n] * inv_fact[k] % ctx.p * inv_fact[n - k] % ctx.p, ctx)


def power_sum_mod(m: int, ctx: PrimeCtx) -> Residue:
    """Sum of l^(-m) over l = 1..p-1, mod p."""
    if m < 1:
        raise ValueError(f"exponent must be >= 1, got {m}")
    p = ctx.p
    e = (-m) % (p - 1)
    total = 0
    for l in range(1, p):
        total += pow(l, e, p)
    return Residue(total % p, ctx)
