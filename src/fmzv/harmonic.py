"""Truncated multiple harmonic sums mod p and their family aggregates.

``mhs_strict(ix, ctx)`` is the strict sum over p > m1 > ... > mr > 0 of
1/(m1^k1 ... mr^kr) mod p, as an int in [0, p); ``mhs_star`` is the
non-strict (>=) variant.  Both use a suffix recursion over m = 1..p-1
with precomputed inverse power tables, giving O(p * depth) per index.

Family sums aggregate these values over every index of fixed weight and
height.  They come from one engine: a (weight, height) dynamic program
that fills its three tables (alternating strict, star, and star with a
free first part) up to a weight in a single pass over m.  The parts
e >= 2 placed at one m sum to the geometric tail y * (x/m)^2 / (1 - x/m)
of Aoki and Ohno's generating series; multiplied through by (1 - x/m)^2,
each cell of a step costs two products and one reduction, from m^(-1)
and m^(-2) alone (see ``family_pass``), and the pass O(p * k * h).

One pass serves a block of primes at once (``family_tables``): it runs
modulo the product M of the block's primes, one Chinese remainder lane
per prime q, over m from the top prime down.  Its step m^(-1) is m^(-1)
mod q in the lane of each q > m and 0 in the lane of each q <= m, and a
zero step leaves its lane as it was, so each lane sums over its own
m < q alone; each table cell is reduced mod q at the end.  A block then
costs the top prime's m-steps on ints of a few machine words, not the
sum of its primes' steps.  The pass fills only the tables it is asked
for, and each table reads only its own columns, so a sweep whose checks
read one table pays for that one.  A sweep hands each prime its lane
(see ``verify.block_rows``); each ``family_sum_*`` call reads a block of
one, filling only its own table, and keeps nothing on the context.

The same pass (``family_pass``), on the steps lcm(1..n)/m and under a
modulus no cell reaches, gives the exact family sums that phi0 checks
against Aoki and Ohno's generating series (``symbolic``).
Enumerating the family index by index is the independent oracle of the
tests, not a production path.
"""

from __future__ import annotations

from math import prod

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


def mhs_strict(ix: Index | tuple[int, ...], ctx: PrimeCtx) -> int:
    """Strict truncated sum for ``ix``, an Index or parts tuple, mod p; empty gives 1."""
    return _mhs_int(tuple(ix), ctx, star=False)


def mhs_star(ix: Index | tuple[int, ...], ctx: PrimeCtx) -> int:
    """Non-strict truncated sum for ``ix``, an Index or parts tuple, mod p; empty gives 1."""
    return _mhs_int(tuple(ix), ctx, star=True)


# The names of the three family tables, in the order the passes return them.
FAMILY_TABLES = ("alt", "star", "free")


def family_pass(k_max: int, steps, modulus: int,
                tables=FAMILY_TABLES) -> list[list[list[int]] | None]:
    """[alternating strict, star, star with free first part], each as
    columns cols[h][w] = T[w][h], from one pass of the (weight, height) DP.
    Only the tables named in ``tables`` (see ``FAMILY_TABLES``) are filled;
    the others come back as None, and their columns cost nothing.

    ``steps`` gives one pair (a, b) per position m, from the top m down,
    with a standing for m^(-1) and b for a^2 mod ``modulus``, which every
    cell is kept under.  T[w][h] holds the contribution of all
    partial indices of weight w and height h whose parts sit at the
    positions already passed; T[0][0] = 1 is the empty index.  A part e
    placed at m multiplies by sign * a^e and moves (w, h) to
    (w + e, h + [e >= 2]); the first part placed is k1, which must be
    >= 2 in the first two tables.

    In the series sum over w of T[w][h] X^w, the parts e >= 2 at m add
    sign * b X^2 / (1 - aX) times the column below, B.  Multiplied through
    by (1 - aX)^2, the step from T to T' is a recurrence in w,

        star:   T'[w] = T[w] + a (2 T'[w-1] - T[w-1]) + b (B'[w-2] - T'[w-2])
        strict: T'[w] = T[w] + a (T'[w-1] - 2 T[w-1]) + b (T[w-2] - B[w-2])

    with 0 read at w - 2 < 0: two products and one reduction a cell.  A
    zero step leaves the tables as they were.  The star tables (sign +1)
    let parts share m: their heights go upward, so B' is already updated
    at m.  The strict table (sign -1, which folds in (-1)^depth) allows
    one part per m: its heights go downward, so B is from before m.  A
    plan lists the columns, each with the column below and the first
    weight it can reach, in the order they are swept.  Each table reads
    only its own columns, so leaving one out changes no other.
    """
    h_max = k_max // 2
    width = k_max + 1
    zero = [0] * width

    def columns():
        # cols[h][w] = T[w][h]; with k1 >= 2 height 0 holds only the empty index
        return [[1] + [0] * k_max] + [[0] * width for _ in range(h_max)]

    def plan(cols, heights):
        # T[w][h] = 0 for w < 2h, and every part has weight >= 1
        return [(cols[h], cols[h - 1] if h else zero, 2 * h or 1) for h in heights]

    alt, star, free = (columns() if name in tables else None for name in FAMILY_TABLES)
    alt_plan = plan(alt, range(h_max, 0, -1)) if alt else []
    star_plan = ((plan(star, range(1, h_max + 1)) if star else [])
                 + (plan(free, range(h_max + 1)) if free else []))
    for a, b in steps:
        for col, below, start in alt_plan:
            # old1, old2 are T[w-1], T[w-2] from before m, new1 is T'[w-1]
            old2, old1 = col[start - 2], col[start - 1]
            new1 = old1
            for w in range(start, width):
                old = col[w]
                new1 = col[w] = (old + a * (new1 - 2 * old1)
                                 + b * (old2 - below[w - 2])) % modulus
                old2, old1 = old1, old
        for col, below, start in star_plan:
            # new1, new2 are T'[w-1], T'[w-2], old1 is T[w-1] from before m
            old1 = new1 = col[start - 1]
            new2 = col[start - 2] if start > 1 else 0
            for w in range(start, width):
                old = col[w]
                new = col[w] = (old + a * (2 * new1 - old1)
                                + b * (below[w - 2] - new2)) % modulus
                new2, new1, old1 = new1, new, old
    return [alt, star, free]


def family_tables(k_max: int, primes: list[int],
                  tables=FAMILY_TABLES) -> list[list[list[list[int]] | None]]:
    """Each prime's [alternating strict, star, star with free first part],
    each as T[w][h], in the order of ``primes``: one ``family_pass`` over
    m = top-1 .. 1, top the largest prime, modulo the product of the
    primes, each prime a Chinese remainder lane (see the module docstring).
    Only the ``tables`` named are filled; the others are None.
    """
    modulus = prod(primes)

    def steps():
        lanes = sorted(primes)  # a lane leaves `lanes` as m falls below its prime
        low = modulus  # the product of the primes <= m
        for m in range(lanes[-1] - 1, 0, -1):
            while lanes and lanes[-1] > m:
                low //= lanes.pop()
            # a = m^(-1) mod every prime > m and 0 mod every other, by the CRT
            a = low * pow(low * m, -1, modulus // low)
            yield a, a * a % modulus

    block = [None if cols is None else list(zip(*cols))
             for cols in family_pass(k_max, steps(), modulus, tables)]
    return [[None if table is None else [[cell % q for cell in row] for row in table]
             for table in block] for q in primes]


def _family_sum(k: int, s: int, ctx: PrimeCtx, table: str) -> int:
    """Cell (k, s) of one family table at the prime of ``ctx``, from a
    block of one of ``family_tables`` that fills that table alone."""
    if ctx.p <= k + 1:
        raise ValueError(f"prime {ctx.p} too small: need p > {k + 1} for weight {k}")
    if s > k // 2:
        return 0
    return family_tables(k, [ctx.p], (table,))[0][FAMILY_TABLES.index(table)][k][s]


def family_sum_star(k: int, s: int, ctx: PrimeCtx) -> int:
    """Sum of mhs_star over the admissible family of weight k, height s."""
    if k < 1 or s < 1:
        raise ValueError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    return _family_sum(k, s, ctx, "star")


def family_sum_alt_strict(k: int, s: int, ctx: PrimeCtx) -> int:
    """Sum of (-1)^depth * mhs_strict over the admissible family."""
    if k < 1 or s < 1:
        raise ValueError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    return _family_sum(k, s, ctx, "alt")


def family_sum_star_unrestricted(k: int, s: int, ctx: PrimeCtx) -> int:
    """Sum of mhs_star over ALL indices of weight k, height s (free first part)."""
    if k < 0 or s < 0:
        raise ValueError(f"need k >= 0 and s >= 0, got k={k}, s={s}")
    return _family_sum(k, s, ctx, "free")
