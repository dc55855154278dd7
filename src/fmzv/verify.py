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

``CHECKS`` is the one registry of the checks.  Each name maps to a
``Check``: the ``Grid`` it is swept over (family (k, s), height (k, s >=
0) or index), which fixes its tasks, its guard and its record fields;
its ``sides``, which maps the task's parameters and its prime's row
(``_Row``) to the text of the check's two sides; and its ``reads``, what
those sides read off the row: a family table ("alt", "star" or "free"),
the residues B_(p-k)/k ("zeta") or the index sums ("index").

A sweep resolves its tasks once (``plan_tasks``): each task's sides,
guard and record key, and the union of what its checks read.  The block
builder ``block_rows`` then runs only the passes that give those reads
over a block of primes: one ``family_tables`` pass that fills only the
tables some check reads, and one pass of Glaisher's congruence
(``bernoulli._glaisher_residues``) per odd k of the tasks that read
"zeta".  Each prime gets a row of plain values, and a context for its
index sums, built when first read.  Every side of a prime's tasks comes
from its row, in one loop over the plan (``prime_sides``), which applies
each task's guard: ``evaluate_tasks_for_prime`` builds a prime's records
from it, and ``verify``'s sweep its lines, from the heads the plan holds
(``records.json_head``).  Each ``verify_*`` is a block of one through the
same builder, so no check calls a public block of one
(``bernoulli.zeta_residue``).  Sweeps, resumes and the CLI read
the registry and name no check themselves.

A task is ``(check, k, s)`` or ``(check, parts)``, and one prime's records
follow its tasks: sorted, the tasks give the order of ``record_sort_key``.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from typing import Callable, Iterator, NamedTuple

from .bernoulli import _glaisher_residues
from .errors import InfeasibleFamilyError
from .harmonic import FAMILY_TABLES, family_tables, mhs_star, mhs_strict
from .indices import Index, iter_indices_of_weight
from .modfield import PrimeCtx
from .records import VerificationRecord, json_head, skipped_record
# Unused here: perfbench/tracing.py patches these names on this module.
from .bernoulli import zeta_residue  # noqa: F401
from .harmonic import family_sum_star, family_sum_alt_strict  # noqa: F401
from .harmonic import family_sum_star_unrestricted  # noqa: F401
from .indices import iter_all_indices  # noqa: F401
from .modfield import binom_mod, prime_ctx  # noqa: F401
from .records import comparison_record  # noqa: F401


class _Row(dict):
    """What one prime's checks read, as plain values: its family tables
    as given (``alt``, ``star`` and ``free``, None where no check reads
    them), ``zeta``, its residues B_(p-k)/k from its block's Glaisher
    passes, by odd k, and ``ctx``, the context the index checks pass to
    ``mhs_strict`` and ``mhs_star``: the caller's, or a fresh one built
    when first read (the row keeps no value of theirs).

    As a dict, the row maps (k, s) to the text of the right side
    2 * C(k-1, 2s-1) * (1 - 2^(1-k)) * B_(p-k)/k that ao and lm share,
    computed when first read from the half factor (1 - 2^(1-k)) *
    B_(p-k)/k, once per k; B_(p-k) is 0 for even k.  The binomial is
    exact (``math.comb``), so the row reads no table of size p."""

    def __init__(self, p: int, tables, zeta: dict[int, int], ctx: PrimeCtx | None = None):
        self.p, self.zeta, self.half, self._ctx = p, zeta, {}, ctx
        self.alt, self.star, self.free = tables

    @property
    def ctx(self) -> PrimeCtx:
        if self._ctx is None:
            self._ctx = PrimeCtx(self.p)
        return self._ctx

    def __missing__(self, key):
        k, s = key
        p, half = self.p, self.half
        if k not in half:
            half[k] = (1 - pow(2, 1 - k, p)) * self.zeta[k] % p if k % 2 else 0
        text = self[key] = str(2 * comb(k - 1, 2 * s - 1) * half[k] % p)
        return text


def _family_guards(k: int, s: int) -> None:
    if k < 2 or s < 1:
        raise ValueError(f"need k >= 2 and s >= 1, got k={k}, s={s}")
    if 2 * s > k:
        raise InfeasibleFamilyError(f"no indices of weight {k} and height {s}")


def _block_of_one(task: tuple, ctx: PrimeCtx) -> VerificationRecord:
    """The record of one task at the prime of ``ctx``, from a block of one
    of ``block_rows`` whose index sums run on ``ctx``."""
    plan = plan_tasks([task])
    [row] = block_rows((ctx.p,), plan, ctx)
    return evaluate_tasks_for_prime(ctx.p, plan, row)[0]


def verify_ao(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Star family sum vs the shared binomial-Bernoulli right side."""
    _family_guards(k, s)
    return _block_of_one(("ao", k, s), ctx)


def verify_lm(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Depth-alternating strict family sum vs the same right side."""
    _family_guards(k, s)
    return _block_of_one(("lm", k, s), ctx)


def verify_lemma(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Sign relation: star family sum = (-1)^(k-1) * alternating strict sum."""
    _family_guards(k, s)
    return _block_of_one(("lemma", k, s), ctx)


def verify_antipode(ix: Index | tuple[int, ...], ctx: PrimeCtx) -> VerificationRecord:
    """Alternating strict/star convolution over prefix splits sums to zero.

    Empty prefix/suffix factors contribute 1, so the i = 0 and i = depth
    boundary terms are the plain star and signed strict values.
    """
    parts = tuple(ix)
    if not parts:
        raise ValueError("antipode check needs depth >= 1")
    return _block_of_one(("antipode", parts), ctx)


def verify_reversal(ix: Index | tuple[int, ...], ctx: PrimeCtx) -> VerificationRecord:
    """Strict sum of the reversed index vs (-1)^weight times the original."""
    return _block_of_one(("reversal", tuple(ix)), ctx)


def verify_height_sum(k: int, s: int, ctx: PrimeCtx) -> VerificationRecord:
    """Unrestricted star family sum vanishes (except the empty (0,0) cell)."""
    if k < 0 or s < 0:
        raise ValueError(f"need k >= 0 and s >= 0, got k={k}, s={s}")
    if k == 0 and s == 0:
        raise ValueError("(k, s) = (0, 0) is excluded: its value is 1, not 0")
    if k == 0 or k < 2 * s:
        raise InfeasibleFamilyError(f"no indices of weight {k} and height {s}")
    return _block_of_one(("heightsum", k, s), ctx)


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
    grid has none.  ``flags`` names the ``check_tasks`` keywords that size it.
    """

    params: Callable[[int, int, int | None], list[tuple]]
    key: Callable[..., tuple[int, int | None, int | None, str | None]]
    flags: tuple[str, ...]


FAMILY = Grid(_family_params, lambda k, s: (k, k, s, None), ("k_max", "s_max"))
HEIGHT = FAMILY._replace(params=_height_params)
# the index text is str(Index(parts))
INDEX = Grid(_index_params, lambda parts: (sum(parts), None, None, ",".join(map(str, parts))),
             ("w_max",))


def _ao_sides(k: int, s: int, row: _Row) -> tuple[str, str]:
    return str(row.star[k][s]), row[k, s]


def _lm_sides(k: int, s: int, row: _Row) -> tuple[str, str]:
    return str(row.alt[k][s]), row[k, s]


def _lemma_sides(k: int, s: int, row: _Row) -> tuple[str, str]:
    # star = (-1)^(k-1) * alternating strict
    alt = row.alt[k][s]
    return str(row.star[k][s]), str(alt if k % 2 else -alt % row.p)


def _heightsum_sides(k: int, s: int, row: _Row) -> tuple[str, str]:
    return str(row.free[k][s]), "0"


def _antipode_sides(parts: tuple[int, ...], row: _Row) -> tuple[str, str]:
    p, ctx, total = row.p, row.ctx, 0
    for i in range(len(parts) + 1):
        sign = -1 if i % 2 else 1
        total = (total + sign * mhs_strict(parts[:i][::-1], ctx) * mhs_star(parts[i:], ctx)) % p
    return str(total), "0"


def _reversal_sides(parts: tuple[int, ...], row: _Row) -> tuple[str, str]:
    ctx = row.ctx
    lhs = mhs_strict(parts[::-1], ctx)
    value = mhs_strict(parts, ctx)
    return str(lhs), str(value if sum(parts) % 2 == 0 else -value % row.p)


class Check(NamedTuple):
    """A grid, the check's ``sides`` (a task's parameters and its prime's
    row to the text of the check's two sides) and its ``reads``, the names
    of what its sides read off the row: "alt", "star", "free" (the family
    tables), "zeta" (B_(p-k)/k) or "index" (the index sums)."""

    grid: Grid
    sides: Callable[..., tuple[str, str]]
    reads: tuple[str, ...]


CHECKS = {
    "ao": Check(FAMILY, _ao_sides, ("star", "zeta")),
    "lm": Check(FAMILY, _lm_sides, ("alt", "zeta")),
    "lemma": Check(FAMILY, _lemma_sides, ("alt", "star")),
    "antipode": Check(INDEX, _antipode_sides, ("index",)),
    "reversal": Check(INDEX, _reversal_sides, ("index",)),
    "heightsum": Check(HEIGHT, _heightsum_sides, ("free",)),
}
CHECK_NAMES = tuple(CHECKS)
# The reads that a pass over a block of primes gives.
_BLOCK_READS = frozenset(FAMILY_TABLES) | {"zeta"}


# ---------------------------------------------------------------------------
# batch driving


def check_tasks(check: str, *, k_max: int = 8, w_max: int = 6,
                s_max: int | None = None) -> list[tuple]:
    """Parameter grid for one check, in deterministic order."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; known: {', '.join(CHECK_NAMES)}")
    return [(check, *params) for params in CHECKS[check].grid.params(k_max, w_max, s_max)]


def require_tasks(checks: list[str], tasks: list[tuple], **grid: int) -> None:
    """Refuse a sweep that has no check, a check named twice, a ``grid``
    keyword of ``check_tasks`` (k_max is --kmax) that none of its checks
    reads, or no task."""
    if not checks:
        raise ValueError("no checks given")
    if len(set(checks)) < len(checks):
        raise ValueError(f"a check is named twice in {','.join(checks)}")
    read = {key for check in checks for key in CHECKS[check].grid.flags}
    options = {key: f"--{key.replace('_', '')}" for key in grid}
    unread = [options[key] for key in grid if key not in read]
    if unread:
        raise ValueError(f"no check of {','.join(checks)} reads {' or '.join(unread)}")
    if not tasks:
        flags = " ".join(f"{options[key]} {value}" for key, value in grid.items())
        raise ValueError(f"no tasks for {','.join(checks)} with {flags}")


class Plan(NamedTuple):
    """A list of tasks, resolved once for a whole sweep.

    ``tasks`` holds, in the given order, one tuple (check, sides, params,
    guard, reason, k, s, index) per task: its check's name and sides, its
    parameters, its guard weight + 1 (primes up to it are skipped, for
    ``reason``) and its record's k, s and index.  ``heads`` holds each
    task's JSON head (``records.json_head``), in the same order.
    ``reads`` is the union of what the checks read, ``k_max`` the largest
    k of the tasks whose check reads a block pass (None when none does),
    and ``zeta`` the odd k of the tasks that read "zeta", ascending.
    """

    tasks: tuple[tuple, ...]
    heads: tuple[str, ...]
    reads: frozenset[str]
    k_max: int | None
    zeta: tuple[int, ...]


def plan_tasks(tasks: list[tuple]) -> Plan:
    """The plan of ``tasks``: each task's check, guard, record key and
    JSON head looked up once, and what the block passes must give."""
    resolved, heads, reads, block_ks, zeta = [], [], set(), [], set()
    for check, *params in tasks:
        grid, sides, check_reads = CHECKS[check]
        weight, k, s, index = grid.key(*params)
        resolved.append((check, sides, tuple(params), weight + 1, f"p <= {weight + 1}",
                         k, s, index))
        heads.append(json_head(check, k, s, index))
        reads.update(check_reads)
        if not _BLOCK_READS.isdisjoint(check_reads):
            block_ks.append(k)
        if "zeta" in check_reads and k % 2:
            zeta.add(k)
    return Plan(tuple(resolved), tuple(heads), frozenset(reads),
                max(block_ks, default=None), tuple(sorted(zeta)))


def block_rows(primes, plan: Plan, ctx: PrimeCtx | None = None) -> Iterator[_Row]:
    """The block builder: the row of each of a block of ascending primes,
    in order, from only the passes that ``plan`` reads.

    One ``family_tables`` pass at ``plan.k_max`` fills the family tables
    that some check reads, and one ``_glaisher_residues`` pass per k of
    ``plan.zeta`` gives B_(p-k)/k at the block's primes p > k + 1, the
    only primes a task of weight k is not skipped at.  Both run when the
    first row is asked for.  The index sums of a row run on ``ctx``, for
    a block of one, or on a fresh context built when first read, which
    goes with its row.
    """
    tables = [name for name in FAMILY_TABLES if name in plan.reads]
    lanes = family_tables(plan.k_max, primes, tables) if tables else repeat((None,) * 3)
    zeta = {p: {} for p in primes}
    for k in plan.zeta:
        live = [p for p in primes if p > k + 1]
        for p, residue in zip(live, _glaisher_residues(k, live)):
            zeta[p][k] = residue
    for p, lane in zip(primes, lanes):
        yield _Row(p, lane, zeta[p], ctx)


def prime_sides(p: int, plan: Plan, row: _Row) -> list[tuple[str, str] | None]:
    """The (lhs, rhs) text of each task of ``plan`` at ``p``, in the plan's
    task order, or None for a task skipped at p, one at or below its
    guard: the one place a task's guard is applied and its check's sides
    are read off the prime's row (see ``block_rows``)."""
    return [None if p <= guard else sides(*params, row)
            for _, sides, params, guard, _, _, _, _ in plan.tasks]


def evaluate_tasks_for_prime(p: int, plan: Plan, row: _Row) -> list[VerificationRecord]:
    """All records for one prime, in the plan's task order, from its
    tasks' sides (``prime_sides``): a skipped record, with the task's
    reason, where a task has none."""
    out = []
    for (check, _, _, _, reason, k, s, index), sides in zip(plan.tasks,
                                                            prime_sides(p, plan, row)):
        if sides is None:
            out.append(skipped_record(check, reason, p=p, k=k, s=s, index=index))
        else:
            lhs, rhs = sides
            out.append(VerificationRecord(check, p, k, s, index, lhs, rhs, lhs == rhs))
    return out


def record_sort_key(rec: VerificationRecord):
    parts = tuple(Index.parse(rec.index)) if rec.index is not None else ()
    return (rec.check,
            rec.k if rec.k is not None else -1,
            rec.s if rec.s is not None else -1,
            parts,
            rec.p if rec.p is not None else -1)
