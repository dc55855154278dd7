"""Identity-level checks, each yielding a VerificationRecord.

The two headline identities share one right-hand side,

    2 * C(k-1, 2s-1) * (1 - 2^(1-k)) * B_(p-k)/k  (mod p),

facing the star family sum ("ao") and the depth-alternating strict
family sum ("lm") respectively.  Supporting checks cover the sign
relation between the two left-hand sides ("lemma"), the strict/star
convolution identity ("antipode"), the reversal sign law ("reversal"),
and the vanishing of unrestricted star family sums ("heightsum").

Primes at or below the per-check guard (k+1, or weight+1 for the index
checks) produce skipped records, never failures: identities of
prime-indexed families are insensitive to finitely many primes.  A
failing record carries both residues and every parameter needed to
reproduce it, and sweeps keep going past failures.

``CHECKS`` is the one registry of the checks: each name maps to the
``Grid`` it is swept over (family (k, s), height (k, s >= 0) or index),
which fixes its tasks, its guard and its record fields, and to its
``sides``, which maps the task's parameters and its prime's row
(``_Row``) to the text of the check's two sides.  Every record of a
prime comes from one row, in ``evaluate_tasks_for_prime``, and each
``verify_*`` is that function's block of one.  Sweeps, resumes and the
CLI read the registry and name no check themselves.

A task is ``(check, k, s)`` or ``(check, parts)``, and one prime's records
follow its tasks: sorted, the tasks give the order of ``record_sort_key``.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .bernoulli import zeta_residue
from .errors import InfeasibleFamilyError
from .harmonic import family_table, family_tables, mhs_star, mhs_strict
from .indices import Index, iter_indices_of_weight
from .modfield import PrimeCtx
from .records import VerificationRecord, skipped_record
# Unused here: perfbench/tracing.py patches these names on this module.
from .harmonic import family_sum_star, family_sum_alt_strict  # noqa: F401
from .harmonic import family_sum_star_unrestricted  # noqa: F401
from .indices import iter_all_indices  # noqa: F401
from .modfield import binom_mod, prime_ctx  # noqa: F401
from .records import comparison_record  # noqa: F401


class _Row(dict):
    """What one prime's checks read: its ``ctx``, which the index checks
    pass to ``mhs_strict`` and ``mhs_star`` (the row keeps no value of
    theirs), its three family tables as given, when they are not None,
    and the text of the right side 2 * C(k-1, 2s-1) * (1 - 2^(1-k)) *
    B_(p-k)/k that ao and lm share, an entry per (k, s) computed when first
    read from the half factor (1 - 2^(1-k)) * B_(p-k)/k, once per k.  The
    binomial is exact (``math.comb``), so the row reads no table of size p."""

    def __init__(self, tables: list | None, ctx: PrimeCtx):
        self.p, self.ctx, self.half = ctx.p, ctx, {}
        if tables is not None:
            self.alt, self.star, self.free = tables

    def __missing__(self, key):
        k, s = key
        p, half = self.p, self.half
        if k not in half:
            half[k] = (1 - pow(2, 1 - k, p)) * zeta_residue(k, self.ctx) % p
        text = self[key] = str(2 * comb(k - 1, 2 * s - 1) * half[k] % p)
        return text


def _family_guards(k: int, s: int) -> None:
    if k < 2 or s < 1:
        raise ValueError(f"need k >= 2 and s >= 1, got k={k}, s={s}")
    if 2 * s > k:
        raise InfeasibleFamilyError(f"no indices of weight {k} and height {s}")


def verify_ao(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Star family sum vs the shared binomial-Bernoulli right side."""
    _family_guards(k, s)
    return evaluate_tasks_for_prime(ctx.p, [("ao", k, s)], ctx=ctx)[0]


def verify_lm(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Depth-alternating strict family sum vs the same right side."""
    _family_guards(k, s)
    return evaluate_tasks_for_prime(ctx.p, [("lm", k, s)], ctx=ctx)[0]


def verify_lemma(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Sign relation: star family sum = (-1)^(k-1) * alternating strict sum."""
    _family_guards(k, s)
    return evaluate_tasks_for_prime(ctx.p, [("lemma", k, s)], ctx=ctx)[0]


def verify_antipode(ix: Index | tuple[int, ...], ctx: PrimeCtx) -> VerificationRecord:
    """Alternating strict/star convolution over prefix splits sums to zero.

    Empty prefix/suffix factors contribute 1, so the i = 0 and i = depth
    boundary terms are the plain star and signed strict values.
    """
    parts = tuple(ix)
    if not parts:
        raise ValueError("antipode check needs depth >= 1")
    return evaluate_tasks_for_prime(ctx.p, [("antipode", parts)], ctx=ctx)[0]


def verify_reversal(ix: Index | tuple[int, ...], ctx: PrimeCtx) -> VerificationRecord:
    """Strict sum of the reversed index vs (-1)^weight times the original."""
    return evaluate_tasks_for_prime(ctx.p, [("reversal", tuple(ix))], ctx=ctx)[0]


def verify_height_sum(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Unrestricted star family sum vanishes (except the empty (0,0) cell)."""
    if k < 0 or s < 0:
        raise ValueError(f"need k >= 0 and s >= 0, got k={k}, s={s}")
    if k == 0 and s == 0:
        raise ValueError("(k, s) = (0, 0) is excluded: its value is 1, not 0")
    if k == 0 or k < 2 * s:
        raise InfeasibleFamilyError(f"no indices of weight {k} and height {s}")
    return evaluate_tasks_for_prime(ctx.p, [("heightsum", k, s)], ctx=ctx)[0]


# ---------------------------------------------------------------------------
# the check registry


def _s_top(k: int, s_max: int | None) -> int:
    return k // 2 if s_max is None else min(k // 2, s_max)


def _family_params(k_max: int, w_max: int, s_max: int | None) -> list[tuple]:
    return [(k, s) for k in range(2, k_max + 1) for s in range(1, _s_top(k, s_max) + 1)]


def _height_params(k_max: int, w_max: int, s_max: int | None) -> list[tuple]:
    # no cell is empty: s parts 2 and k - 2s parts 1 have weight k and height s
    return [(k, s) for k in range(1, k_max + 1) for s in range(0, _s_top(k, s_max) + 1)]


def _index_params(k_max: int, w_max: int, s_max: int | None) -> list[tuple]:
    return [(tuple(ix),) for ix in iter_indices_of_weight(w_max)]


class Grid(NamedTuple):
    """A parameter grid that checks are swept over.

    ``params(k_max, w_max, s_max)`` lists the grid's parameter tuples,
    (k, s) or (parts,), in sweep order.  ``key`` takes one such tuple and
    gives (weight, k, s, index): its weight (primes up to weight + 1 are
    skipped) and the k, s and index its record carries, None where the
    grid has none.  ``flags`` names the options that size the grid, and
    ``family`` says whether its checks read the family tables.
    """

    params: Callable[[int, int, int | None], list[tuple]]
    key: Callable[..., tuple[int, int | None, int | None, str | None]]
    flags: tuple[str, ...]
    family: bool


FAMILY = Grid(_family_params, lambda k, s: (k, k, s, None), ("kmax", "smax"), True)
HEIGHT = FAMILY._replace(params=_height_params)
# the index text is str(Index(parts))
INDEX = Grid(_index_params, lambda parts: (sum(parts), None, None, ",".join(map(str, parts))),
             ("wmax",), False)


def _antipode_sides(parts: tuple[int, ...], row: _Row) -> tuple[str, str]:
    p, ctx, total = row.p, row.ctx, 0
    for i in range(len(parts) + 1):
        sign = -1 if i % 2 else 1
        total = (total + sign * mhs_strict(parts[:i][::-1], ctx) * mhs_star(parts[i:], ctx)) % p
    return str(total), "0"


def _reversal_sides(parts: tuple[int, ...], row: _Row) -> tuple[str, str]:
    lhs = mhs_strict(parts[::-1], row.ctx)
    value = mhs_strict(parts, row.ctx)
    return str(lhs), str(value if sum(parts) % 2 == 0 else -value % row.p)


class Check(NamedTuple):
    """A grid and the check's ``sides``: a task's parameters and its
    prime's row to the text of the check's two sides."""

    grid: Grid
    sides: Callable[..., tuple[str, str]]


CHECKS = {
    "ao": Check(FAMILY, lambda k, s, row: (str(row.star[k][s]), row[k, s])),
    "lm": Check(FAMILY, lambda k, s, row: (str(row.alt[k][s]), row[k, s])),
    # star = (-1)^(k-1) * alternating strict
    "lemma": Check(FAMILY, lambda k, s, row: (
        str(row.star[k][s]), str(row.alt[k][s] if k % 2 else -row.alt[k][s] % row.p))),
    "antipode": Check(INDEX, _antipode_sides),
    "reversal": Check(INDEX, _reversal_sides),
    "heightsum": Check(HEIGHT, lambda k, s, row: (str(row.free[k][s]), "0")),
}
CHECK_NAMES = tuple(CHECKS)


# ---------------------------------------------------------------------------
# batch driving


def check_tasks(check: str, *, k_max: int = 8, w_max: int = 6,
                s_max: int | None = None) -> list[tuple]:
    """Parameter grid for one check, in deterministic order."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; known: {', '.join(CHECK_NAMES)}")
    return [(check, *params) for params in CHECKS[check].grid.params(k_max, w_max, s_max)]


def require_tasks(checks: list[str], tasks: list[tuple], *, k_max: int, w_max: int,
                  s_max: int | None) -> None:
    """Refuse a sweep that has no check, a check named twice or no task,
    naming the options that sized an empty grid."""
    if not checks:
        raise ValueError("no checks given")
    if len(set(checks)) < len(checks):
        raise ValueError(f"a check is named twice in {','.join(checks)}")
    if not tasks:
        named = {flag for check in checks for flag in CHECKS[check].grid.flags}
        sizes = {"kmax": k_max, "smax": s_max, "wmax": w_max}
        flags = " ".join(f"--{flag} {value}" for flag, value in sizes.items()
                         if flag in named and value is not None)
        raise ValueError(f"no tasks for {','.join(checks)} with {flags}")


def _family_weight(tasks: list[tuple]) -> int | None:
    """The largest k of the family tasks, None when there is none."""
    return max((k for check, k, *_ in tasks if CHECKS[check].grid.family), default=None)


def build_family_tables(primes: list[int], tasks: list[tuple]) -> dict[int, list]:
    """Each prime of a block to its family tables (see ``family_table``),
    at the largest weight of the family tasks, from one ``family_tables``
    pass; {} when no task is a family task.  Every prime gets a lane; the
    lanes of primes at or below a task's guard are never read."""
    k_max = _family_weight(tasks)
    return {} if k_max is None else dict(zip(primes, family_tables(k_max, primes)))


def evaluate_tasks_for_prime(p: int, tasks: list[tuple], tables: list | None = None,
                             ctx: PrimeCtx | None = None) -> list[VerificationRecord]:
    """All records for one prime, in task order: the one place a check's
    record is built.  A task at or below its guard (weight + 1) is skipped;
    the rest read the sides of their check off one ``_Row``, built at the
    first of them on ``ctx``, or on a fresh ``PrimeCtx(p)`` when none is
    given.  Its family tables are ``tables``, the prime's entry of
    ``build_family_tables``, or, without them, ``family_table`` at the
    largest k of the family tasks, kept on the context."""
    row = None
    out = []
    for check, *params in tasks:
        grid, sides = CHECKS[check]
        weight, k, s, index = grid.key(*params)
        if p <= weight + 1:
            out.append(skipped_record(check, f"p <= {weight + 1}", p=p, k=k, s=s, index=index))
            continue
        if row is None:
            ctx = PrimeCtx(p) if ctx is None else ctx
            if tables is None:
                k_max = _family_weight(tasks)
                tables = None if k_max is None else family_table(k_max, ctx)
            row = _Row(tables, ctx)
        lhs, rhs = sides(*params, row)
        out.append(VerificationRecord(check, p, k, s, index, lhs, rhs, lhs == rhs))
    return out


def task_record_keys(tasks: list[tuple]) -> list[dict]:
    """The check, k, s and index of the records one prime's tasks yield,
    in sorted task order (the order ``record_sort_key`` puts them in)."""
    out = []
    for check, *params in sorted(tasks):
        _, k, s, index = CHECKS[check].grid.key(*params)
        out.append({"check": check, "k": k, "s": s, "index": index})
    return out


def record_sort_key(rec: VerificationRecord):
    parts = tuple(Index.parse(rec.index)) if rec.index is not None else ()
    return (rec.check,
            rec.k if rec.k is not None else -1,
            rec.s if rec.s is not None else -1,
            parts,
            rec.p if rec.p is not None else -1)
