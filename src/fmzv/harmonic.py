"""Truncated multiple harmonic sums mod p and their family aggregates.

``mhs_strict(ix, ctx)`` is the strict sum over p > m1 > ... > mr > 0 of
1/(m1^k1 ... mr^kr) mod p, as an int in [0, p); ``mhs_star`` is the
non-strict (>=) variant.  Both use a suffix recursion over m = 1..p-1
with precomputed inverse power tables, giving O(p * depth) per index.

Family sums aggregate these values over every index of fixed weight and
height.  They come from one engine: a (weight, height) dynamic program
that fills the whole table up to a weight in a single pass over m, kept
on the ``PrimeCtx``.  Enumerating the family index by index is the
independent oracle of the tests, not a production path.
"""

from __future__ import annotations

from .indices import Index
# Unused here: perfbench/tracing.py patches these names on this module.
from .indices import iter_admissible_indices, iter_all_indices  # noqa: F401
from .modfield import PrimeCtx, inverses


def _inverse_power_rows(ctx: PrimeCtx, k_max: int) -> list[list[int]]:
    """rows[j][l] = l^(-j) mod p for 1 <= l < p, 0 <= j <= k_max.

    Rows are grown on demand and cached on the context; the l = 0 slot
    is a dummy zero.
    """
    rows = ctx.memo("inverse_power_rows", list)
    if len(rows) <= k_max:
        with ctx._lock:
            p = ctx.p
            if not rows:
                rows.append([1] * p)  # j = 0; dummy value at l = 0 is fine here
                rows.append(inverses(p))
            inv = rows[1]
            while len(rows) <= k_max:
                prev = rows[-1]
                rows.append([prev[l] * inv[l] % p for l in range(p)])
    return rows


def _mhs_int(parts: tuple[int, ...], ctx: PrimeCtx, star: bool) -> int:
    if not parts:
        return 1
    p = ctx.p
    r = len(parts)
    if not star and r >= p:
        return 0  # no strictly decreasing chain of that length below p
    rows = _inverse_power_rows(ctx, max(parts))
    pr = [rows[k] for k in parts]
    # state[j] accumulates the suffix sum starting at part j; state[r] = 1.
    state = [0] * r + [1]
    if star:
        for m in range(1, p):
            for j in range(r - 1, -1, -1):
                state[j] = (state[j] + pr[j][m] * state[j + 1]) % p
    else:
        for m in range(1, p):
            for j in range(r):
                state[j] = (state[j] + pr[j][m] * state[j + 1]) % p
    return state[0]


def mhs_strict(ix: Index, ctx: PrimeCtx) -> int:
    """Strict truncated sum for ``ix`` mod p; empty index gives 1."""
    return _mhs_int(tuple(ix), ctx, star=False)


def mhs_star(ix: Index, ctx: PrimeCtx) -> int:
    """Non-strict truncated sum for ``ix`` mod p; empty index gives 1."""
    return _mhs_int(tuple(ix), ctx, star=True)


def _require_prime_above(k: int, ctx: PrimeCtx) -> None:
    if ctx.p <= k + 1:
        raise ValueError(f"prime {ctx.p} too small: need p > {k + 1} for weight {k}")


def _family_sweep(k_max: int, ctx: PrimeCtx, sign: int, first_min: int) -> list[list[int]]:
    """One pass over m = p-1 .. 1 of the (weight, height) DP; returns T[w][h].

    T[w][h] holds the contribution of all partial indices of weight w and
    height h whose parts sit at positions > m; T[0][0] = 1 is the empty
    index.  A part e placed at m multiplies by m^(-e) and moves (w, h) to
    (w + e, h + [e >= 2]); the first part placed is k1 and must be
    >= ``first_min``.  ``sign = -1`` gives strict chains with (-1)^depth
    folded in: at most one part per m, so w sweeps downward and reads the
    values from before m.  ``sign = +1`` gives star chains: several parts
    may share m, so w sweeps upward and reads the values already updated.
    """
    p = ctx.p
    h_max = k_max // 2
    rows = _inverse_power_rows(ctx, k_max)
    table = [[0] * (h_max + 1) for _ in range(k_max + 1)]
    table[0][0] = 1
    weights = range(k_max, 0, -1) if sign < 0 else range(1, k_max + 1)
    for m in range(p - 1, 0, -1):
        ipw = [sign * rows[e][m] for e in range(k_max + 1)]
        for w in weights:
            row = table[w]
            # a part 1 keeps the height; from the empty state it is k1
            ones = table[w - 1] if w > 1 or first_min < 2 else None
            for h in range(min(w // 2, h_max) + 1):
                acc = row[h]
                if ones is not None:
                    acc += ipw[1] * ones[h]
                if h:
                    for e in range(2, w + 1):
                        acc += ipw[e] * table[w - e][h - 1]
                row[h] = acc % p
    return table


def family_table(k: int, ctx: PrimeCtx) -> list[list[list[int]]]:
    """[alternating strict, star, star with free first part], each as T[w][h].

    The tables live on the context and grow on demand like the inverse
    power rows: a table of weight >= k answers any query for k.
    """
    tables = ctx.memo("family_table", lambda: _family_tables(k, ctx))
    if len(tables[0]) <= k:
        with ctx._lock:
            if len(tables[0]) <= k:
                tables[:] = _family_tables(k, ctx)
    return tables


def _family_tables(k: int, ctx: PrimeCtx) -> list[list[list[int]]]:
    return [_family_sweep(k, ctx, -1, 2), _family_sweep(k, ctx, 1, 2),
            _family_sweep(k, ctx, 1, 1)]


def family_sum_star(k: int, s: int, ctx: PrimeCtx) -> int:
    """Sum of mhs_star over the admissible family of weight k, height s."""
    if k < 1 or s < 1:
        raise ValueError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    _require_prime_above(k, ctx)
    if s > k // 2:
        return 0
    return family_table(k, ctx)[1][k][s]


def family_sum_alt_strict(k: int, s: int, ctx: PrimeCtx) -> int:
    """Sum of (-1)^depth * mhs_strict over the admissible family."""
    if k < 1 or s < 1:
        raise ValueError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    _require_prime_above(k, ctx)
    if s > k // 2:
        return 0
    return family_table(k, ctx)[0][k][s]


def family_sum_star_unrestricted(k: int, s: int, ctx: PrimeCtx) -> int:
    """Sum of mhs_star over ALL indices of weight k, height s (free first part)."""
    if k < 0 or s < 0:
        raise ValueError(f"need k >= 0 and s >= 0, got k={k}, s={s}")
    _require_prime_above(k, ctx)
    if s > k // 2:
        return 0
    return family_table(k, ctx)[2][k][s]
