import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

import oracles
import fmzv.bernoulli
import fmzv.harmonic
import fmzv.verify
from fmzv import cli
from fmzv.errors import InfeasibleFamilyError
from fmzv.indices import Index
from fmzv.records import VerificationRecord
from fmzv.modfield import PrimeCtx, prime_ctx, primes_in_range
from fmzv.verify import (
    block_rows,
    check_tasks,
    evaluate_tasks_for_prime,
    plan_tasks,
    record_sort_key,
    verify_antipode,
    verify_ao,
    verify_height_sum,
    verify_lemma,
    verify_lm,
    verify_reversal,
)

IX = Index.of


def prime_records(p, tasks):
    """The records of ``tasks`` at ``p``, in task order, from a block of one."""
    plan = plan_tasks(tasks)
    [row] = block_rows((p,), plan)
    return evaluate_tasks_for_prime(p, plan, row)


def block_records(block, plan):
    """The records of a block of primes, prime by prime, each from its row
    of one run of the block builder."""
    return [rec for row in block_rows(block, plan)
            for rec in evaluate_tasks_for_prime(row.p, plan, row)]


def sweep(checks, primes, **grid):
    """The records of ``fmzv verify`` in its order: prime by prime, each
    prime's records sorted by ``record_sort_key``."""
    tasks = [task for check in checks for task in check_tasks(check, **grid)]
    records = []
    for p in primes:
        records.extend(sorted(prime_records(p, tasks), key=record_sort_key))
    return records


def test_verify_ao_examples():
    rec = verify_ao(3, 1, prime_ctx(7))
    assert rec.lhs == "3" and rec.rhs == "3" and rec.passed and not rec.skipped
    for p in primes_in_range(5, 31):
        assert verify_ao(2, 1, prime_ctx(p)).lhs == "0"
        assert verify_ao(2, 1, prime_ctx(p)).passed
    rec = verify_ao(4, 1, prime_ctx(11))
    assert rec.lhs == "0" and rec.rhs == "0" and rec.passed


def test_verify_ao_skip_and_infeasible():
    rec = verify_ao(6, 2, prime_ctx(7))
    assert rec.skipped and rec.passed and rec.lhs is None and rec.rhs is None
    assert rec.reason == "p <= 7"
    with pytest.raises(InfeasibleFamilyError):
        verify_ao(3, 2, prime_ctx(11))
    with pytest.raises(ValueError):
        verify_ao(1, 1, prime_ctx(11))


def test_verify_lm_examples():
    rec = verify_lm(3, 1, prime_ctx(7))
    assert rec.lhs == "3" and rec.rhs == "3" and rec.passed
    assert verify_lm(2, 1, prime_ctx(13)).lhs == "0"
    rec = verify_lm(6, 3, prime_ctx(13))  # single index (2,2,2), even weight
    assert rec.lhs == "0" and rec.rhs == "0" and rec.passed


def test_rhs_identical_between_ao_and_lm():
    for p in primes_in_range(7, 61):
        for k in range(2, 7):
            for s in range(1, k // 2 + 1):
                a = verify_ao(k, s, prime_ctx(p))
                b = verify_lm(k, s, prime_ctx(p))
                if not a.skipped:
                    assert a.rhs == b.rhs, (k, s, p)


def test_even_weight_left_sides_vanish():
    for k in (2, 4, 6):
        for s in range(1, k // 2 + 1):
            for p in primes_in_range(k + 2, 61):
                assert verify_ao(k, s, prime_ctx(p)).lhs == "0", (k, s, p)
                assert verify_lm(k, s, prime_ctx(p)).lhs == "0", (k, s, p)


def test_verify_lemma_examples():
    assert verify_lemma(3, 1, prime_ctx(7)).lhs == "3"
    rec = verify_lemma(4, 1, prime_ctx(7))
    assert rec.lhs == "0" and rec.rhs == "0" and rec.passed
    assert verify_lemma(5, 2, prime_ctx(11)).passed


def test_verify_antipode_examples():
    for k in (1, 2, 5):
        for p in (7, 11):
            if p > k + 1:
                rec = verify_antipode(IX(k), prime_ctx(p))
                assert rec.passed and rec.lhs == "0"
    assert verify_antipode(IX(2, 1), prime_ctx(5)).passed
    assert verify_antipode(IX(1, 1), prime_ctx(7)).passed
    assert verify_antipode(IX(2, 1), prime_ctx(3)).skipped
    with pytest.raises(ValueError):
        verify_antipode(Index(()), prime_ctx(7))


def test_verify_reversal_examples():
    rec = verify_reversal(IX(2, 1), prime_ctx(5))
    assert rec.lhs == "4" and rec.rhs == "4" and rec.passed
    assert verify_reversal(IX(3), prime_ctx(7)).passed
    rec = verify_reversal(IX(2, 2), prime_ctx(7))  # even-weight palindrome
    assert rec.passed
    assert verify_reversal(IX(4), prime_ctx(5)).skipped


def test_index_checks_take_a_parts_tuple():
    # the sweep passes each index as its parts tuple and builds no Index
    for parts in [(1,), (2, 1), (1, 3, 1), (2, 2, 1, 1)]:
        for p in (3, 7, 11, 13):
            ctx = prime_ctx(p)
            assert verify_antipode(parts, ctx) == verify_antipode(Index(parts), ctx)
            assert verify_reversal(parts, ctx) == verify_reversal(Index(parts), ctx)
    assert verify_reversal((2, 1), prime_ctx(5)).index == "2,1"
    with pytest.raises(ValueError):
        verify_antipode((), prime_ctx(7))


def test_sorted_tasks_give_the_record_order():
    # the sweep sorts its tasks once instead of each prime's records
    tasks = [task for check in ("ao", "lm", "lemma", "antipode", "reversal", "heightsum")
             for task in check_tasks(check, k_max=7, w_max=5)]
    random.Random(17).shuffle(tasks)
    for p in (2, 7, 31):
        want = sorted(prime_records(p, tasks), key=record_sort_key)
        assert prime_records(p, sorted(tasks)) == want, p


def test_verify_height_sum_examples():
    for p in (5, 7, 13):
        assert verify_height_sum(2, 1, prime_ctx(p)).passed
    rec = verify_height_sum(3, 1, prime_ctx(5))
    assert rec.lhs == "0" and rec.passed
    assert verify_height_sum(4, 0, prime_ctx(7)).passed
    assert verify_height_sum(1, 0, prime_ctx(7)).passed
    with pytest.raises(ValueError):
        verify_height_sum(0, 0, prime_ctx(7))
    with pytest.raises(InfeasibleFamilyError):
        verify_height_sum(3, 2, prime_ctx(11))
    with pytest.raises(InfeasibleFamilyError):
        verify_height_sum(0, 2, prime_ctx(11))
    assert verify_height_sum(6, 1, prime_ctx(7)).skipped


def test_check_tasks_grids():
    assert check_tasks("ao", k_max=4) == [("ao", 2, 1), ("ao", 3, 1), ("ao", 4, 1), ("ao", 4, 2)]
    assert ("heightsum", 1, 0) in check_tasks("heightsum", k_max=2)
    assert ("heightsum", 1, 1) not in check_tasks("heightsum", k_max=2)
    anti = check_tasks("antipode", w_max=3)
    assert ("antipode", (1,)) in anti and ("antipode", (2, 1)) in anti
    with pytest.raises(ValueError):
        check_tasks("nope")


@pytest.mark.parametrize("s_max", [None, 0, 1, 3])
def test_height_grid_has_no_empty_cell(s_max):
    # the heightsum grid is the whole triangle 0 <= s <= k // 2 (cut at
    # --smax), and every cell of it holds a composition of weight k and
    # height s, so filtering out empty families would drop nothing
    heights = {k: {sum(1 for x in c if x >= 2) for c in oracles.all_compositions(k)}
               for k in range(1, 15)}
    for k_max in range(1, 15):
        grid = [(k, s) for _, k, s in check_tasks("heightsum", k_max=k_max, s_max=s_max)]
        assert grid == [(k, s) for k in range(1, k_max + 1)
                        for s in range(k // 2 + 1) if s_max is None or s <= s_max]
        assert grid == [(k, s) for k, s in grid if s in heights[k]]


def test_evaluate_tasks_for_prime_skips_without_ctx():
    # p = 2 is not a valid PrimeCtx but every task is guarded, so no ctx
    # is ever built and the records all come back skipped
    tasks = check_tasks("ao", k_max=6) + check_tasks("antipode", w_max=3)
    records = prime_records(2, tasks)
    assert len(records) == len(tasks) and all(r.skipped for r in records)


def test_family_table_built_once_per_prime(monkeypatch):
    # a block of primes runs one DP pass and hands each prime its lane,
    # at the largest weight of the family checks, so that no prime builds
    # a table of its own, or any other memo entry, while its tasks run
    memo_builds, passes = [], []
    memo = PrimeCtx.memo
    block_pass = fmzv.verify.family_tables

    def counting_memo(ctx, key, build):
        def counted():
            memo_builds.append((ctx.p, key))
            return build()
        return memo(ctx, key, counted)

    def counting_tables(k, primes, tables):
        passes.append(tuple(primes))
        return block_pass(k, primes, tables)

    monkeypatch.setattr(PrimeCtx, "memo", counting_memo)
    monkeypatch.setattr(fmzv.verify, "family_tables", counting_tables)
    primes = primes_in_range(5, 200)
    for checks in (["ao", "lm", "lemma", "heightsum"], ["heightsum"]):
        plan = plan_tasks(sorted(task for check in checks
                                 for task in check_tasks(check, k_max=10)))
        for jobs in (1, 4):
            memo_builds.clear()
            passes.clear()
            blocks = cli._blocks(primes, -(-len(primes) // jobs), cli.BLOCK_BITS)
            assert len(blocks) >= max(jobs, 2)
            records = [rec for block in blocks for rec in block_records(block, plan)]
            assert passes == blocks, (checks, jobs)
            assert memo_builds == [], (checks, jobs)
            assert records == sweep(checks, primes, k_max=10)
            assert all(r.passed for r in records)


def test_family_sums_park_no_table_on_a_context():
    # the public family sums and verify_* read a block of one and keep
    # nothing on the context they are given
    ctx = PrimeCtx(31)
    for k in range(2, 10):
        for s in range(1, k // 2 + 1):
            fmzv.harmonic.family_sum_star(k, s, ctx)
            fmzv.harmonic.family_sum_alt_strict(k, s, ctx)
            fmzv.harmonic.family_sum_star_unrestricted(k, s, ctx)
            assert verify_ao(k, s, ctx).passed
    assert ctx._memo == {}


@pytest.mark.parametrize("checks", [["antipode", "reversal"], ["ao", "lm", "lemma", "heightsum"],
                                    ["reversal", "heightsum", "antipode", "lm"]])
def test_sweep_builds_no_shared_context(checks):
    # each prime's context is its own and goes with it: a sweep over
    # index, family or mixed blocks leaves the shared prime_ctx cache empty
    primes = primes_in_range(2, 80)
    plan = plan_tasks(sorted(task for check in checks
                             for task in check_tasks(check, k_max=8, w_max=4)))
    prime_ctx.cache_clear()
    for blocks in ([(p,) for p in primes], cli._blocks(primes, 4, cli.BLOCK_BITS)):
        records = [rec for block in blocks for rec in block_records(block, plan)]
        assert len(records) == len(plan.tasks) * len(primes)
        assert all(r.passed for r in records)
    assert prime_ctx.cache_info().misses == 0


def test_verify_range_sorted_and_green():
    checks, primes = ["ao", "lm", "lemma"], primes_in_range(7, 31)
    records = sweep(checks, primes, k_max=6)
    # each prime's records come in the order --resume expects them in:
    # that of the plan of the sorted tasks
    plan = plan_tasks(sorted(t for c in checks for t in check_tasks(c, k_max=6)))
    keys = [(check, k, s, index) for check, *_, k, s, index in plan.tasks]
    for p in primes:
        assert [(r.check, r.k, r.s, r.index) for r in records if r.p == p] == keys, p
    assert all(r.passed for r in records)
    assert any(r.skipped for r in records)  # small primes vs k=6
    live = [r for r in records if not r.skipped]
    assert live and all(r.lhs == r.rhs for r in live)


def test_verify_range_antipode_small():
    records = sweep(["antipode", "reversal"], primes_in_range(11, 31), w_max=5)
    assert all(r.passed for r in records)
    assert all(r.index is not None for r in records)


FAMILY_CHECKS = ["ao", "heightsum", "lemma", "lm"]
PUBLIC = {"ao": verify_ao, "lm": verify_lm, "lemma": verify_lemma,
          "heightsum": verify_height_sum}


def _sweep_records(checks, primes, size=None, **grid):
    """The records of ``fmzv verify`` over ``primes``: one DP pass per
    block of at most ``size`` primes, each prime's records from its row."""
    plan = plan_tasks(sorted(task for check in checks for task in check_tasks(check, **grid)))
    blocks = cli._blocks(primes, size or len(primes), cli.BLOCK_BITS)
    return [rec for block in blocks for rec in block_records(block, plan)]


@lru_cache(maxsize=None)
def _oracle_sums(k, p):
    return oracles.family_sums(k, p)


def _oracle_record(check, k, s, p):
    """The record of a family check, from the enumerated family sums and
    the rational Bernoulli numbers alone."""
    if p <= k + 1:
        return VerificationRecord(check, p, k, s, passed=True, skipped=True,
                                  reason=f"p <= {k + 1}")
    alt, star, free = _oracle_sums(k, p)[s]
    shared = oracles.frac_mod(2 * comb(k - 1, 2 * s - 1) * (1 - Fraction(1, 2 ** (k - 1)))
                              * oracles.frac_bernoulli(p - k) / k, p) if s else None
    lhs, rhs = {"ao": (star, shared), "lm": (alt, shared),
                "lemma": (star, (-1) ** (k - 1) * alt % p), "heightsum": (free, 0)}[check]
    return VerificationRecord(check, p, k, s, lhs=str(lhs), rhs=str(rhs), passed=lhs == rhs)


def test_sweep_family_records_match_the_oracles():
    # every family record for p in 2..60 and k <= 8, skipped rows included
    primes = primes_in_range(2, 60)
    records = _sweep_records(FAMILY_CHECKS, primes, k_max=8)
    tasks = sorted(t for c in FAMILY_CHECKS for t in check_tasks(c, k_max=8))
    want = [_oracle_record(check, k, s, p) for p in primes for check, k, s in tasks]
    assert records == want
    assert any(r.skipped for r in records) and all(r.passed for r in records)


def test_public_family_checks_equal_the_sweep():
    # verify_ao and the rest are each the row's block of one; on a shared
    # context, on a fresh one, and in any order they give the sweep's record
    primes = primes_in_range(3, 60)
    for rec in _sweep_records(FAMILY_CHECKS, primes, k_max=8):
        verify = PUBLIC[rec.check]
        assert verify(rec.k, rec.s, prime_ctx(rec.p)) == rec, rec
        assert verify(rec.k, rec.s, PrimeCtx(rec.p)) == rec, rec


INDEX_CHECKS = ["antipode", "reversal"]
PUBLIC_INDEX = {"antipode": verify_antipode, "reversal": verify_reversal}
INDEX_PRIMES = primes_in_range(2, 29)


@lru_cache(maxsize=None)
def _brute(parts, p, star):
    return (oracles.brute_mhs_star if star else oracles.brute_mhs_strict)(parts, p)


def _oracle_index_record(check, parts, p):
    """The record of an index check, from the sums by raw enumeration."""
    index, weight = ",".join(map(str, parts)), sum(parts)
    if p <= weight + 1:
        return VerificationRecord(check, p, index=index, passed=True, skipped=True,
                                  reason=f"p <= {weight + 1}")
    if check == "antipode":
        lhs = sum((-1) ** i * _brute(parts[:i][::-1], p, False) * _brute(parts[i:], p, True)
                  for i in range(len(parts) + 1)) % p
        rhs = 0
    else:
        lhs, rhs = _brute(parts[::-1], p, False), (-1) ** weight * _brute(parts, p, False) % p
    return VerificationRecord(check, p, index=index, lhs=str(lhs), rhs=str(rhs),
                              passed=lhs == rhs)


def test_sweep_index_records_match_the_oracles():
    # every index record for p in 2..29 and weight <= 5, skipped rows included
    records = _sweep_records(INDEX_CHECKS, INDEX_PRIMES, w_max=5)
    tasks = sorted(t for c in INDEX_CHECKS for t in check_tasks(c, w_max=5))
    want = [_oracle_index_record(check, parts, p) for p in INDEX_PRIMES for check, parts in tasks]
    assert records == want
    assert any(r.skipped for r in records) and all(r.passed for r in records)


def test_public_index_checks_equal_the_sweep():
    # verify_antipode and verify_reversal are the sweep's block of one, on a
    # shared context and on a fresh one
    for rec in _sweep_records(INDEX_CHECKS, INDEX_PRIMES[1:], w_max=5):
        verify, parts = PUBLIC_INDEX[rec.check], tuple(Index.parse(rec.index))
        assert verify(parts, prime_ctx(rec.p)) == rec, rec
        assert verify(parts, PrimeCtx(rec.p)) == rec, rec


RELATION_PRIMES = primes_in_range(5, 400)


def _oracle_rhs(k, s, p):
    """The right side of ao and lm with B_(p-k)/k from the term-by-term
    power sum mod p^2 (``oracles.zeta_residue``)."""
    half = (1 - pow(2, 1 - k, p)) * oracles.zeta_residue(k, p) % p
    return str(2 * comb(k - 1, 2 * s - 1) * half % p)


def _relation_rhs(tmp_path, jobs):
    """(check, k, s, p) -> rhs of every live record of ``fmzv verify ao,lm
    --kmax 12`` over 5..400 at ``--jobs``."""
    out = tmp_path / f"relations{jobs}.jsonl"
    cli.main(["verify", "ao,lm", "--kmax", "12", "--primes", "5..400", "--jobs", str(jobs),
              "--out", str(out)])
    records = map(json.loads, out.read_text().splitlines())
    return {(r["check"], r["k"], r["s"], r["p"]): r["rhs"] for r in records if not r["skipped"]}


def _oracle_mismatches(rhs):
    return [key for key, text in rhs.items() if text != _oracle_rhs(*key[1:])]


@pytest.mark.parametrize("cut", ["jobs 1", "jobs 2", "blocks of 5"])
def test_block_residues_equal_the_oracle(cut, tmp_path):
    # every ao/lm right side of the sweep reads its block's Glaisher
    # residues; over 5..400 --jobs 1 and 2 both cut three blocks (the
    # second spread over a pool), and blocks of 5 primes cut sixteen; at
    # p = k + 2 and through the public checks too, they equal the
    # term-by-term power sum's
    if cut.startswith("jobs"):
        rhs = _relation_rhs(tmp_path, int(cut[-1]))
    else:
        rhs = {(r.check, r.k, r.s, r.p): r.rhs
               for r in _sweep_records(["ao", "lm"], RELATION_PRIMES, k_max=12, size=5)
               if not r.skipped}
    # two checks, k // 2 heights of each k, at each prime past the guard
    assert len(rhs) == sum(2 * (k // 2) for k in range(2, 13) for p in RELATION_PRIMES
                           if p > k + 1)
    assert {(k, p) for _, k, _, p in rhs if p == k + 2} == {(3, 5), (5, 7), (9, 11), (11, 13)}
    assert _oracle_mismatches(rhs) == []
    for p in (5, 7, 11, 13, 397):
        for k in range(2, min(12, p - 2) + 1):
            for s in range(1, k // 2 + 1):
                for check, verify in (("ao", verify_ao), ("lm", verify_lm)):
                    assert verify(k, s, PrimeCtx(p)).rhs == rhs[check, k, s, p], (check, k, s, p)


def test_block_residues_no_sweep_calls_a_public_block_of_one(tmp_path, monkeypatch):
    # sweeps and the public checks read Glaisher's pass through the block
    # builder, never through the public bernoulli_mod or zeta_residue
    def no_block_of_one(*args):
        raise AssertionError("a sweep called a public block of one")

    monkeypatch.setattr(fmzv.bernoulli, "bernoulli_mod", no_block_of_one)
    monkeypatch.setattr(fmzv.bernoulli, "zeta_residue", no_block_of_one)
    monkeypatch.setattr(fmzv.verify, "zeta_residue", no_block_of_one)
    argv = ["verify", "ao,lm,lemma,heightsum", "--kmax", "12", "--primes", "5..400",
            "--out", str(tmp_path / "v.jsonl")]
    for jobs in ("1", "2"):
        assert cli.main(argv + ["--jobs", jobs]) == 0
    for verify in (verify_ao, verify_lm):
        assert verify(9, 2, PrimeCtx(11)).passed


@pytest.mark.parametrize("mutant", ["wrong k", "shifted lane"])
def test_block_residues_test_sees_a_wrong_residue(mutant, tmp_path, monkeypatch):
    # the comparison above fails when a block pass reads the residues of
    # another k, or hands each prime its neighbour's; the other k is read
    # only at the primes of its own domain, p >= k + 4, where its pass
    # raises nothing (see the test below)
    glaisher = fmzv.verify._glaisher_residues

    def wrong_k(k, primes):
        cut = sum(p < k + 4 for p in primes)
        return glaisher(k, primes[:cut]) + glaisher(k + 2, primes[cut:])

    def shifted_lane(k, primes):
        residues = glaisher(k, primes)
        return residues[1:] + residues[:1]

    monkeypatch.setattr(fmzv.verify, "_glaisher_residues",
                        {"wrong k": wrong_k, "shifted lane": shifted_lane}[mutant])
    rhs = _relation_rhs(tmp_path, 1)
    assert _oracle_mismatches(rhs)


def test_block_residues_of_another_k_outside_its_domain_raise(tmp_path, monkeypatch):
    # a block pass that reads k + 2 at p = k + 2, below that k's domain, is
    # stopped by Glaisher's self-check before any right side is compared
    glaisher = fmzv.verify._glaisher_residues
    monkeypatch.setattr(fmzv.verify, "_glaisher_residues",
                        lambda k, primes: glaisher(k + 2, primes))
    with pytest.raises(ArithmeticError, match="p=5 at k=5"):
        _relation_rhs(tmp_path, 1)


@pytest.mark.parametrize("checks, filled", [
    (["ao"], {"star"}),
    (["lm"], {"alt"}),
    (["heightsum"], {"free"}),
    (["lemma"], {"alt", "star"}),
    (["ao", "lm"], {"alt", "star"}),
    (["ao", "heightsum", "lemma", "lm"], {"alt", "star", "free"}),
])
def test_each_check_fills_only_the_tables_it_reads(checks, filled, monkeypatch):
    # the block pass fills the columns of the tables the checks read, and
    # no other: an ao,lm sweep fills no free column
    family_pass, filled_by_pass = fmzv.harmonic.family_pass, []

    def spy(k_max, steps, modulus, tables):
        out = family_pass(k_max, steps, modulus, tables)
        filled_by_pass.append({name for name, cols in zip(("alt", "star", "free"), out)
                               if cols is not None})
        return out

    monkeypatch.setattr(fmzv.harmonic, "family_pass", spy)
    records = _sweep_records(checks, primes_in_range(5, 200), k_max=8)
    assert all(r.passed for r in records)
    assert len(filled_by_pass) >= 2 and all(f == filled for f in filled_by_pass)


def test_single_check_sweeps_write_the_lines_of_the_four(tmp_path):
    # each check alone writes exactly its own lines of the four-check sweep
    def lines(checks):
        out = tmp_path / f"{checks}.jsonl"
        assert cli.main(["verify", checks, "--kmax", "10", "--primes", "5..151", "--jobs", "1",
                         "--out", str(out)]) == 0
        return out.read_text().splitlines()

    four = lines("ao,lm,lemma,heightsum")
    for check in FAMILY_CHECKS:
        assert lines(check) == [line for line in four if json.loads(line)["check"] == check]
