"""Command-line front end.

* ``compute``: one truncated harmonic sum mod one prime.
* ``verify``: identity sweeps (``verify.CHECKS``) over a prime range, in
  parallel over blocks of primes, resumable from the output file itself.
* ``zsweep``: the zeta-residue hunt with its two-method cross-check, one
  pass over l per route for each block of primes.
* ``symbolic``: the exact-arithmetic suites (gauss, anl, phi0, hypcong),
  the only command that loads ``symbolic`` (with ``polys``, ``fractions``
  and ``decimal``): its ``run_*_suite`` names import it when first called.

A command reads every flag it accepts.  A sizing flag not given is not
passed on, so ``check_tasks`` and the ``run_*_suite`` signatures hold the
only defaults; one given to a suite (``SUITE_FLAGS``) or to checks
(``Grid.flags``) that do not read it is a usage error.

Every command that reports records opens stdout or ``--out`` with
``_open_out`` (a fresh CSV gets its header there) and writes each
VerificationRecord with ``_emit``: a JSON line straight from its fields
(``json_line``) or a CSV row from ``to_json_dict``, counted for the stderr
summary line.  ``verify`` and ``zsweep`` share ``_open_sweep``: it parses
``--primes`` and, for ``--resume``, checks that ``--out`` holds a prefix
of this run's records (``_resume_primes``).  Every usage error is raised
before any record is computed.  The records a resume keeps count in the
summary line and the exit code, so both describe the whole file.

Exit codes: 0 all records passed or were skipped, 1 at least one failed,
2 usage error (a flag that leaves nothing to check, too), 3 a ``verify``
pool lost a worker (killed, say, for want of memory): the output holds
whole primes only, one stderr line names the last, and ``--resume``
continues after it, 141 (128 + SIGPIPE) the reader of stdout went away
(``fmzv zsweep ... | head -1``), a quiet stop with no traceback and no
summary line.  Fixed seeds give byte-identical output, and the record
order does not depend on --jobs: ``verify`` sorts its task list once, and
each prime's records follow it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
from math import ceil, log2
from operator import attrgetter, methodcaller

from .bernoulli import zeta_sweep_rows
from .indices import Index
from .modfield import PrimeCtx, is_prime, primes_in_range
from .harmonic import mhs_star, mhs_strict
from .records import VerificationRecord, json_line
from .verify import (
    CHECK_NAMES,
    block_rows,
    check_tasks,
    evaluate_tasks_for_prime,
    plan_tasks,
    require_tasks,
)
# Unused here: perfbench/tracing.py patches these names on this module.
from .bernoulli import zeta_sweep_row  # noqa: F401
from .verify import record_sort_key  # noqa: F401

VERIFY_COLUMNS = ("check", "k", "s", "index", "p", "lhs", "rhs", "pass", "skipped", "reason")
ZSWEEP_COLUMNS = ("check", "k", "p", "lhs", "rhs", "pass", "skipped", "reason", "zero", "cross")
EXIT_WORKER_LOST = 3  # a verify pool lost a worker process (see above)
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a killed writer
# The bits, give or take a prime, of the product of the primes of one block
# of a family sweep (see ``_blocks``): its family DP runs modulo that product.
BLOCK_BITS = 192
# The same for the zeta hunt, whose two passes over l run modulo that
# product and its square.  Up to this width a step costs little more than
# at BLOCK_BITS, so wider blocks, with fewer passes, are faster: the k = 3
# hunt to 17000 took 0.40, 0.23, 0.17, 0.15 and 0.15 s at 192, 512, 1024,
# 2048 and 4096 bits, in process on one core.
ZETA_BLOCK_BITS = 2048


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_prime_range(text: str) -> list[int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(f"bad prime range {text!r}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"bad prime range {text!r}")
    primes = primes_in_range(lo, hi)
    if not primes:
        raise ValueError(f"no prime in {text!r}")
    return primes


class _StdoutClosed(Exception):
    """The reader of stdout went away; stdout now points at os.devnull."""


def _open_out(path, fmt, columns, resuming):
    """stdout, or ``path`` to append to (when resuming) or to write.  A
    fresh CSV gets its header here, before any work."""
    if path is None:
        handle, resumed = sys.stdout, False
    else:
        resumed = resuming and os.path.exists(path) and os.path.getsize(path) > 0
        handle = open(path, "a" if resumed else "w", newline="")
    if fmt == "csv" and not resumed:
        handle.write(",".join(columns) + "\n")
    return handle


def _new_tally() -> dict:
    return dict.fromkeys(("records", "failed", "skipped", "zero", "degenerate"), 0)


_passed, _skipped, _extra = attrgetter("passed"), attrgetter("skipped"), attrgetter("extra")
_zero, _cross = methodcaller("get", "zero", False), methodcaller("get", "cross")


def _count(tally, batch) -> None:
    """Add a batch of records to ``tally``: records, failed and skipped,
    and of zsweep rows (their extras) the zero residues and the degenerate
    cross-checks.  Each is a C-level count over the batch, with no Python
    call per record."""
    extras = [dict(extra) for extra in map(_extra, batch) if extra]
    tally["records"] += len(batch)
    tally["failed"] += len(batch) - sum(map(_passed, batch))
    tally["skipped"] += sum(map(_skipped, batch))
    tally["zero"] += sum(map(_zero, extras))
    tally["degenerate"] += list(map(_cross, extras)).count("degenerate")


def _emit(batches, handle, fmt, columns, tally=None) -> dict:
    """Write every batch of VerificationRecords to ``handle`` as JSON lines
    or as CSV rows of ``columns``, flushing after each, then close it
    unless it is stdout.

    Returns ``tally`` (a fresh one by default) with the written records
    counted in (see ``_count``).  A broken pipe on stdout stops the run
    quietly: stdout is pointed at os.devnull, so the interpreter's last
    flush cannot fail again, and ``_StdoutClosed`` unwinds the command
    (tearing down its pool) up to ``main``.
    """
    if tally is None:
        tally = _new_tally()
    writer = csv.writer(handle, lineterminator="\n") if fmt == "csv" else None
    try:
        for batch in batches:
            if writer is None:
                # a write per line, not one joined write per batch: a batch
                # larger than a pipe could then land whole after a reader
                # like `head -1` took its line, and the run would not see
                # the closed pipe
                handle.writelines(map(json_line, batch))
            else:
                for rec in batch:
                    # true/false as in JSON; csv writes None as an empty
                    # field (``_csv_record`` reads a row back)
                    writer.writerow([str(v).lower() if isinstance(v, bool) else v
                                     for v in map(rec.to_json_dict().get, columns)])
            _count(tally, batch)
            handle.flush()
    except BrokenPipeError:
        if handle is not sys.stdout:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _StdoutClosed from None
    finally:
        if handle is not sys.stdout:
            handle.close()
    return tally


def _csv_record(columns, row) -> dict:
    """The record dict of a CSV row as ``_emit`` writes it: an empty field
    is left out, as JSON leaves out None, and true/false are booleans."""
    return {c: v == "true" if v in ("true", "false") else v
            for c, v in zip(columns, row) if v}


def _text(value) -> str:
    return "" if value is None else str(value)


def _resume_primes(path, fmt, columns, keys, primes) -> tuple[list[int], dict]:
    """Cut ``path`` back to its last complete prime; return the primes after
    it and the tally of the records kept (see ``_count``).

    The output file is the checkpoint: it must hold a prefix of the lines
    this run writes, a CSV header of ``columns`` and then its records.
    ``keys`` holds the fields (check, k, ...) that name each record of one
    prime, in the run's order, so record i names ``keys[i % len(keys)]``
    at ``primes[i // len(keys)]``.  Only a torn last line and the records
    of an unfinished last prime are cut.  A file that breaks the rule
    anywhere else (another command, check list, grid or --k, a moved
    bottom prime, primes past this run's top, or a stub record: a CSV row
    of another field count than the header's, or a record whose ``pass``
    and ``skipped`` are not both booleans, or whose ``zero``, where it is
    given, is not one) is left as it is, and a ValueError is raised.  So is
    a file with a record that disagrees with itself: ``pass`` must be true
    on a skipped record and ``lhs == rhs`` on any other, but for a zsweep
    row whose ``cross`` is "degenerate", which has ``pass`` true and
    ``rhs`` empty; and ``zero``, where it is given, is ``lhs == "0"``.
    """
    tally = _new_tally()
    if not os.path.exists(path):
        return primes, tally
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")[:-1]  # the piece after the last newline is torn
    per_prime = len(keys)
    keep = 0
    if fmt == "csv" and lines:
        if lines[0] != ",".join(columns).encode():
            raise ValueError(f"{path}: CSV header {lines[0][:60]!r} is not this "
                             f"run's {','.join(columns)}")
        keep = len(lines[0]) + 1
        lines = lines[1:]
    pos = keep
    pending = []  # the records of the prime being read, as far as _count reads them
    for i, line in enumerate(lines):
        pos += len(line) + 1
        lineno = i + 1 + (fmt == "csv")
        try:
            if fmt == "csv":
                row = next(csv.reader([line.decode()]))
                if len(row) != len(columns):
                    raise ValueError
                rec = _csv_record(columns, row)
            else:
                rec = json.loads(line)
            # the flags _count tallies; a non-object JSON line fails here too
            passed, skipped, zero = rec["pass"], rec["skipped"], rec.get("zero", False)
            if not all(isinstance(flag, bool) for flag in (passed, skipped, zero)):
                raise ValueError
            extra = tuple((key, rec[key]) for key in ("zero", "cross") if key in rec)
            int(rec["p"])
        except (ValueError, KeyError, IndexError, TypeError):
            raise ValueError(f"{path}: unreadable record {line[:60]!r}") from None
        if i == per_prime * len(primes):
            raise ValueError(f"{path}: line {lineno} is not this run's: it ends "
                             f"at prime {primes[-1]}")
        want = dict(keys[i % per_prime], p=primes[i // per_prime])
        if any(_text(rec.get(field)) != _text(value) for field, value in want.items()):
            named = " ".join(f"{field}={value}" for field, value in want.items()
                             if value is not None)
            raise ValueError(f"{path}: line {lineno} is not this run's {named}")
        lhs, rhs = _text(rec.get("lhs")), _text(rec.get("rhs"))
        if skipped:
            agrees = passed
        elif rec.get("cross") == "degenerate":
            agrees = passed and rhs == ""
        else:
            agrees = passed == (lhs == rhs)
        if not agrees or "zero" in rec and zero != (lhs == "0"):
            raise ValueError(f"{path}: line {lineno} disagrees with itself: its pass or "
                             f"zero does not follow from its lhs and rhs")
        pending.append(VerificationRecord(rec.get("check"), passed=passed, skipped=skipped,
                                          extra=extra))
        if (i + 1) % per_prime == 0:
            keep = pos
            _count(tally, pending)
            pending.clear()
    if keep < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(keep)
    return primes[len(lines) // per_prime:], tally


def _open_sweep(args, columns, keys):
    """A sweep's primes left to run, the handle for its records and the
    tally of the records a resume keeps (None without --resume): parse
    --primes, resume --out against ``keys`` (see ``_resume_primes``) and
    open it, raising ValueError or OSError before any record is computed."""
    primes = _parse_prime_range(args.primes)
    if args.resume and not args.out:
        raise ValueError("--resume requires --out")
    kept = None
    if args.resume:
        primes, kept = _resume_primes(args.out, args.format, columns, keys, primes)
    return primes, _open_out(args.out, args.format, columns, args.resume), kept


def _blocks(primes: list[int], size: int, bits: int) -> list[tuple[int, ...]]:
    """``primes`` cut into n nonempty runs of consecutive primes, n the
    larger of the least numbers of runs of ``size`` primes and of ``bits``
    bits that hold them.  A run ends where the running sum of log2 p, with
    half of the prime at the cut, passes the next multiple of total / n, so
    the runs' bits are about equal and no short tail pays a whole pass."""
    if not primes:
        return []
    logs = [log2(p) for p in primes]
    total = sum(logs)
    n = min(len(primes), max(-(-len(primes) // size), ceil(total / bits)))
    blocks, start, run = [], 0, 0.0
    for i, bits_p in enumerate(logs):
        cut = len(blocks) + 1
        if i > start and (run + bits_p / 2 > cut * total / n or len(primes) - i == n - cut):
            blocks.append(tuple(primes[start:i]))
            start = i
        run += bits_p
    return blocks + [tuple(primes[start:])]


# ---------------------------------------------------------------------------
# verify


def _verify_worker(shard):
    """The records of a shard (primes, plan), one batch per prime, computed
    as they are read, each from its prime's row of the block builder
    (``block_rows``), whose passes over the block run at the first."""
    primes, plan = shard
    return (evaluate_tasks_for_prime(row.p, plan, row) for row in block_rows(primes, plan))


def _pool_worker(shard):
    # a pool hands its results back pickled, which a generator cannot be
    return list(_verify_worker(shard))


class _WorkerLost(Exception):
    """A pool worker died, and the shards it held are lost."""


def _pool_shards(results):
    """A pool's shards of records, in order; a lost worker raises _WorkerLost."""
    from concurrent.futures.process import BrokenProcessPool
    try:
        yield from results
    except BrokenProcessPool:
        raise _WorkerLost from None


def _usable_cores() -> int:
    """The cores this process may run on; the machine's where the platform
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_verify(args) -> int:
    checks = [c for c in args.checks.split(",") if c]
    grid = {key: value for key, value in (("k_max", args.kmax), ("s_max", args.smax),
                                          ("w_max", args.wmax)) if value is not None}
    try:
        tasks = sorted(task for c in checks for task in check_tasks(c, **grid))
        require_tasks(checks, tasks, **grid)
        # before the resume scan, which may cut --out
        jobs = _usable_cores() if args.jobs is None else args.jobs
        if jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {jobs}")
        plan = plan_tasks(tasks)
        # each prime's records follow the sorted tasks, so their plan names them
        keys = ([{"check": check, "k": k, "s": s, "index": index}
                 for check, *_, k, s, index in plan.tasks] if args.resume else ())
        primes, handle, kept = _open_sweep(args, VERIFY_COLUMNS, keys)
    except (ValueError, OSError) as err:
        return _fail(str(err))
    # a sweep that reads a block pass runs it once per block of primes, in
    # at least as many blocks as runs of ceil(len(primes) / jobs) primes, so
    # that every worker gets one; other sweeps have nothing to share
    # between primes, and run one prime a block
    size = 1 if plan.k_max is None else -(-len(primes) // jobs)
    shard_args = [(block, plan) for block in _blocks(primes, size, BLOCK_BITS)]
    tally = _new_tally() if kept is None else kept
    resumed = tally["records"]
    try:
        with contextlib.ExitStack() as stack:
            shards = map(_verify_worker, shard_args)
            if jobs > 1 and len(shard_args) > 1:
                # imported here, the only place a pool starts: every other
                # command starts up without it; a worker past the shard
                # count would start and never get a shard
                from concurrent.futures import ProcessPoolExecutor
                pool = ProcessPoolExecutor(max_workers=min(jobs, len(shard_args)))
                # a run that stops early (a closed stdout) drops the shards
                # no worker has started
                stack.callback(pool.shutdown, cancel_futures=True)
                shards = _pool_shards(pool.map(_pool_worker, shard_args))
            _emit(itertools.chain.from_iterable(shards), handle, args.format,
                  VERIFY_COLUMNS, tally)
    except _WorkerLost:
        done = (tally["records"] - resumed) // len(tasks)
        where = f"whole up to p = {primes[done - 1]}" if done else f"whole below p = {primes[0]}"
        print(f"error: a worker process was lost; the records are {where}, and --resume "
              f"continues after them", file=sys.stderr)
        return EXIT_WORKER_LOST
    print(f"verify: {tally['records']} records, {tally['failed']} failed, "
          f"{tally['skipped']} skipped", file=sys.stderr)
    return 1 if tally["failed"] else 0


# ---------------------------------------------------------------------------
# zsweep


def cmd_zsweep(args) -> int:
    if args.k < 2:
        return _fail(f"need k >= 2, got {args.k}")
    try:
        primes, handle, kept = _open_sweep(args, ZSWEEP_COLUMNS,
                                           [{"check": "zsweep", "k": args.k}])
    except (ValueError, OSError) as err:
        return _fail(str(err))
    # each block's rows come from one pass over l; they are written one
    # batch a prime, so the file is flushed, and can be resumed, per prime
    blocks = map(functools.partial(zeta_sweep_rows, args.k),
                 _blocks(primes, len(primes), ZETA_BLOCK_BITS))
    rows = ([row] for row in itertools.chain.from_iterable(blocks))
    tally = _emit(rows, handle, args.format, ZSWEEP_COLUMNS, kept)
    print(
        f"zsweep k={args.k}: {tally['records']} primes, {tally['zero']} zero residues, "
        f"{tally['failed']} cross-check failures, {tally['degenerate']} degenerate, "
        f"{tally['skipped']} skipped",
        file=sys.stderr,
    )
    return 1 if tally["failed"] else 0


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    try:
        ix = Index.parse(args.index)
        ctx = PrimeCtx(args.prime)
    except (ValueError, TypeError) as err:
        return _fail(str(err))
    if ctx.p <= ix.weight + 1:
        return _fail(f"prime {ctx.p} too small for weight {ix.weight}: need p > weight+1")
    value = mhs_star(ix, ctx) if args.star else mhs_strict(ix, ctx)
    star = "true" if args.star else "false"
    print(f"index={args.index} prime={ctx.p} star={star} value={value}")
    return 0


# ---------------------------------------------------------------------------
# symbolic


def _symbolic_suite(name):
    """A stand-in for ``symbolic.<name>`` that imports the exact-arithmetic
    layer (``symbolic``, ``polys``, ``fractions``) when it is first called,
    so that no other command loads it at start-up."""
    def run(*args, **kwargs):
        from . import symbolic
        return getattr(symbolic, name)(*args, **kwargs)
    run.__name__ = run.__qualname__ = name
    return run


# Module-level names: perfbench/tracing.py and the tests patch them on this module.
run_gauss_suite = _symbolic_suite("run_gauss_suite")
run_anl_suite = _symbolic_suite("run_anl_suite")
run_phi0_suite = _symbolic_suite("run_phi0_suite")
run_hypcong_suite = _symbolic_suite("run_hypcong_suite")


# The flags each suite reads: flag -> (the suite function's keyword, the
# least value, None for any).  A flag not given is not passed: the suite's
# signature holds the only default.
SUITE_FLAGS = {
    "gauss": {"mmax": ("m_max", 0), "pairs": ("pairs", 1), "seed": ("seed", None)},
    "anl": {"nmax": ("n_max", 1)},
    "phi0": {"nmax": ("n_max", 1), "kmax": ("k_max", 2)},
    "hypcong": {"prime": ("p", 5), "samples": ("samples", 1), "seed": ("seed", None)},
}
_SUITE_OPTIONS = dict.fromkeys(flag for flags in SUITE_FLAGS.values() for flag in flags)


def _suite_batch(suite, kwargs):
    """The suite's records, one batch computed when ``_emit`` asks for it."""
    yield globals()[f"run_{suite}_suite"](**kwargs)


def cmd_symbolic(args) -> int:
    suite, reads, kwargs = args.suite, SUITE_FLAGS[args.suite], {}
    for flag in _SUITE_OPTIONS:
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in reads:
            return _fail(f"{suite} reads --{' --'.join(reads)} and --out, not --{flag}")
        keyword, least = reads[flag]
        if least is not None and value < least:
            return _fail(f"{suite} needs --{flag} >= {least}, got {value}")
        kwargs[keyword] = value
    if suite == "hypcong" and not (args.prime and is_prime(args.prime)):
        return _fail("hypcong needs --prime, a prime >= 5")
    try:
        handle = _open_out(args.out, "jsonl", (), False)
    except OSError as err:
        return _fail(str(err))
    tally = _emit(_suite_batch(suite, kwargs), handle, "jsonl", ())
    print(f"symbolic {suite}: {tally['records']} records, {tally['failed']} failed",
          file=sys.stderr)
    return 1 if tally["failed"] else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmzv",
        description="Finite multiple zeta value sweeps and exact symbolic checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one truncated harmonic sum mod p")
    p_compute.add_argument("--index", required=True,
                           help='comma-separated parts, e.g. "2,1"; "" is empty')
    p_compute.add_argument("--prime", type=int, required=True)
    p_compute.add_argument("--star", action="store_true",
                           help="non-strict (>=) chains instead of strict")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="identity sweeps over a prime range")
    p_verify.add_argument("checks",
                          help=f"comma-separated subset of: {','.join(CHECK_NAMES)}")
    p_verify.add_argument("--kmax", type=int,
                          help="max weight k for ao/lm/lemma/heightsum")
    p_verify.add_argument("--smax", type=int,
                          help="max height s for ao/lm/lemma/heightsum")
    p_verify.add_argument("--wmax", type=int,
                          help="max index weight for antipode/reversal")
    p_verify.add_argument("--primes", required=True, help='inclusive range "A..B"')
    p_verify.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: usable cores)")
    p_verify.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--resume", action="store_true",
                          help="continue past the last prime recorded in --out")
    p_verify.set_defaults(func=cmd_verify)

    p_zsweep = sub.add_parser("zsweep", help="zeta-residue hunt over primes")
    p_zsweep.add_argument("--k", type=int, required=True)
    p_zsweep.add_argument("--primes", required=True)
    p_zsweep.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_zsweep.add_argument("--out", default=None)
    p_zsweep.add_argument("--resume", action="store_true")
    p_zsweep.set_defaults(func=cmd_zsweep)

    p_symbolic = sub.add_parser("symbolic", help="exact-arithmetic check suites")
    p_symbolic.add_argument("suite", choices=tuple(SUITE_FLAGS))
    for flag in _SUITE_OPTIONS:
        readers = "/".join(suite for suite, reads in SUITE_FLAGS.items() if flag in reads)
        p_symbolic.add_argument(f"--{flag}", type=int, help=f"read by {readers}")
    p_symbolic.add_argument("--out", default=None)
    p_symbolic.set_defaults(func=cmd_symbolic)

    return parser


# Built on the first call and reused: parse_args keeps no state between
# calls, and in-process callers run main many times.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _StdoutClosed:
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
