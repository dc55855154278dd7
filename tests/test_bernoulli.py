import tracemalloc

import pytest

import oracles
from fmzv import bernoulli, cli
from fmzv.bernoulli import (
    alternating_power_sum,
    bernoulli_mod,
    check_euler_congruence,
    zeta_residue,
    zeta_sweep_row,
    zeta_sweep_rows,
)
from fmzv.errors import VonStaudtPoleError
from fmzv.modfield import PrimeCtx, binom_mod, prime_ctx, primes_in_range
from fmzv.records import VerificationRecord


def test_bernoulli_examples():
    assert bernoulli_mod(0, prime_ctx(5)) == 1
    assert bernoulli_mod(4, prime_ctx(7)) == 3  # B_4 = -1/30
    assert bernoulli_mod(3, prime_ctx(11)) == 0
    for p in (5, 11, 61):
        assert bernoulli_mod(1, prime_ctx(p)) == (p - 1) // 2


def test_bernoulli_matches_rational_oracle():
    for p in primes_in_range(5, 61):
        ctx = prime_ctx(p)
        for n in range(0, min(p - 2, 25)):
            if n > 0 and n % (p - 1) == 0:
                continue
            want = oracles.frac_mod(oracles.frac_bernoulli(n), p)
            assert bernoulli_mod(n, ctx) == want, (n, p)


def test_bernoulli_pole_and_range_errors():
    ctx = prime_ctx(11)
    with pytest.raises(VonStaudtPoleError):
        bernoulli_mod(10, ctx)
    with pytest.raises(VonStaudtPoleError):
        bernoulli_mod(20, ctx)
    with pytest.raises(ValueError):
        bernoulli_mod(-1, ctx)
    with pytest.raises(ValueError):
        bernoulli_mod(12, ctx)  # even, above p-3, not a pole
    assert bernoulli_mod(9, ctx) == 0  # odd slots up to p-2 are fine
    for n in (11, 13):  # odd, past p-2, and not poles
        with pytest.raises(ValueError, match="out of range"):
            bernoulli_mod(n, ctx)


def test_bernoulli_mod_block_of_one_matches_recurrence_oracle():
    # bernoulli_mod, Glaisher's pass on a block of one, at every even
    # n <= p-3, against the O(p^2) recurrence table, and the zeta residues
    # B_(p-k)/k read from it
    for p in primes_in_range(5, 400) + [1009, 2999]:
        ctx = PrimeCtx(p)
        table = oracles.bernoulli_even_table(p)
        assert len(table) == (p - 3) // 2 + 1, p
        for i, want in enumerate(table):
            assert bernoulli_mod(2 * i, ctx) == want, (2 * i, p)
        for k in range(3, min(9, p - 2) + 1):
            want = table[(p - k) // 2] * pow(k, -1, p) % p if k % 2 else 0
            assert zeta_residue(k, ctx) == want, (k, p)


# The irregular pairs (p, 2j) with p < 160, p | B_2j (Buhler, Crandall,
# Ernvall and Metsänkylä, Math. Comp. 61 (1993); Washington, Cyclotomic
# Fields, table).
IRREGULAR_PAIRS_BELOW_160 = {(37, 32), (59, 44), (67, 58), (101, 68), (103, 24),
                             (131, 22), (149, 130), (157, 62), (157, 110)}


def test_zeta_residue_vanishes_at_the_irregular_pairs():
    zeros = {(p, p - k) for p in primes_in_range(5, 159)
             for k in range(3, p - 1, 2) if zeta_residue(k, prime_ctx(p)) == 0}
    assert zeros == IRREGULAR_PAIRS_BELOW_160


def test_recurrence_consistency_invariant():
    # sum_{j<=m} C(m+1, j) B_j = 0 mod p for every tabulated m
    for p in (5, 13, 61, 199):
        ctx = prime_ctx(p)
        for m in range(1, p - 2):
            total = 0
            for j in range(m + 1):
                total += binom_mod(m + 1, j, ctx) * bernoulli_mod(j, ctx)
            assert total % p == 0, (p, m)


def test_alternating_power_sum_examples():
    for p in (5, 7, 13):
        for k in (2, 4, 6):
            assert alternating_power_sum(k, prime_ctx(p)) == 0
    assert alternating_power_sum(3, prime_ctx(7)) == 5
    assert alternating_power_sum(1, prime_ctx(5)) == 1
    with pytest.raises(ValueError):
        alternating_power_sum(0, prime_ctx(5))


def test_alternating_power_sum_matches_term_by_term_oracle():
    for p in primes_in_range(5, 400) + [1009, 2999, 16843]:
        ctx = prime_ctx(p)
        for k in range(1, 14):
            assert alternating_power_sum(k, ctx) == oracles.alternating_power_sum(k, p), (k, p)


def test_alternating_power_sum_builds_no_table():
    # the half sum is one running fraction: a few ints, no list over l
    ctx = PrimeCtx(10007)
    tracemalloc.start()
    try:
        alternating_power_sum(3, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak


def test_alternating_split_identity():
    # alt(k) = power_sum(k) - 2^(1-k) * sum over the first half, split at even l
    for p in primes_in_range(5, 97):
        ctx = prime_ctx(p)
        for k in range(1, 11):
            half = 0
            e = (-k) % (p - 1)
            for l in range(1, (p - 1) // 2 + 1):
                half += pow(l, e, p)
            rhs = (oracles.power_sum(k, p)
                   - pow(2, (1 - k) % (p - 1), p) * half) % p
            assert alternating_power_sum(k, ctx) == rhs, (p, k)


def test_zeta_residue_examples():
    assert zeta_residue(3, prime_ctx(7)) == 1  # B_4/3 = 3 * inv(3) mod 7
    assert zeta_residue(5, prime_ctx(11)) == 1  # B_6/5 = 1/42 / 5 mod 11
    for k in (2, 4, 6):
        for p in primes_in_range(k + 3, 31):
            assert zeta_residue(k, prime_ctx(p)) == 0
    with pytest.raises(ValueError):
        zeta_residue(3, prime_ctx(3))
    with pytest.raises(ValueError):
        zeta_residue(1, prime_ctx(7))


def test_check_euler_congruence_examples():
    rec = check_euler_congruence(3, prime_ctx(7))
    assert rec.lhs == "5" and rec.rhs == "5" and rec.passed
    rec = check_euler_congruence(4, prime_ctx(11))
    assert rec.lhs == "0" and rec.rhs == "0" and rec.passed
    assert check_euler_congruence(5, prime_ctx(13)).passed
    with pytest.raises(ValueError):
        check_euler_congruence(1, prime_ctx(7))
    with pytest.raises(ValueError):
        check_euler_congruence(5, prime_ctx(7))  # k > p-3


def test_two_method_agreement_small():
    for p in primes_in_range(7, 61):
        for k in range(3, min(13, p - 3) + 1, 2):
            if pow(2, k - 1, p) == 1:
                continue
            assert check_euler_congruence(k, prime_ctx(p)).passed, (k, p)


def test_zeta_sweep_rows():
    rows = [zeta_sweep_row(3, p) for p in primes_in_range(3, 100)]
    assert all(isinstance(row, VerificationRecord) for row in rows)
    by_p = {row.p: row for row in rows}
    assert by_p[3].skipped and by_p[3].lhs is None
    assert not by_p[5].skipped
    assert by_p[7].lhs == "1"
    live = [row for row in rows if not row.skipped]
    assert all(dict(row.extra)["cross"] == "ok" for row in live)
    assert all(dict(row.extra)["zero"] is False for row in live)


def test_zeta_sweep_even_k_all_zero():
    rows = [zeta_sweep_row(4, p) for p in primes_in_range(11, 31)]
    assert rows and all(row.lhs == "0" and dict(row.extra)["zero"] for row in rows)
    with pytest.raises(ValueError):
        zeta_sweep_row(1, 7)


def test_zeta_sweep_rows_at_k_2():
    # k = 2 is the guard's boundary: it is swept, its primes to 3 are
    # skipped, and every row past them is a zero whose cross-check is "ok"
    primes = primes_in_range(2, 100)
    rows = zeta_sweep_rows(2, primes)
    assert [row.p for row in rows] == primes
    assert [row.p for row in rows if row.skipped] == [2, 3]
    live = [row for row in rows if not row.skipped]
    assert len(live) == len(primes) - 2
    assert all(row.passed and row.lhs == row.rhs == "0"
               and dict(row.extra) == {"zero": True, "cross": "ok"} for row in live)


@pytest.mark.parametrize("k, p", [(3, 3), (5, 5), (7, 7), (5, 3)])
def test_glaisher_pass_raises_outside_its_domain(k, p):
    # below p = k + 2 the power sum is not 0 mod p, so the pass has no
    # residue to give: it raises, naming the prime and k
    with pytest.raises(ArithmeticError, match=f"p={p} at k={k}"):
        bernoulli._glaisher_residues(k, (p,))


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 13, 21])
def test_blocked_passes_match_oracles_that_share_no_code_with_them(k):
    # every prime from k+2 to 2000, cut into the hunt's blocks: each
    # Glaisher residue is the term-by-term power sum's, each alternating
    # value the term-by-term sum, and each block's rows are its primes' own
    # rows
    primes = primes_in_range(k + 2, 2000)
    blocks = cli._blocks(primes, len(primes), cli.ZETA_BLOCK_BITS)
    assert len(blocks) >= 2 and min(map(len, blocks)) > 1
    assert blocks[0][0] == primes[0]  # k+2 where it is prime
    for block in blocks:
        residues = bernoulli._glaisher_residues(k, block)
        sums = bernoulli._alternating_sums(k, block)
        assert len(residues) == len(sums) == len(block)
        for p, res, alt in zip(block, residues, sums):
            assert res == oracles.zeta_residue(k, p), (k, p)
            assert alt == oracles.alternating_power_sum(k, p), (k, p)
        assert zeta_sweep_rows(k, block) == [zeta_sweep_row(k, p) for p in block], k


def test_a_block_with_a_degenerate_prime():
    # 2^10 = 1 mod 31: at k = 11 the row at 31 has no alternating value,
    # and the primes of its block around it are read as before
    primes = primes_in_range(2, 2000)
    block = next(b for b in cli._blocks(primes, len(primes), cli.ZETA_BLOCK_BITS)
                 if 31 in b)
    assert block[0] < 13 < 31 < block[-1]
    rows = zeta_sweep_rows(11, block)
    assert rows == [zeta_sweep_row(11, p) for p in block]
    by_p = {row.p: row for row in rows}
    assert all(by_p[p].skipped for p in block if p <= 12)
    assert by_p[31].rhs == "" and dict(by_p[31].extra)["cross"] == "degenerate"
    assert by_p[31].lhs == str(oracles.zeta_residue(11, 31))
    live = [row for row in rows if not row.skipped and row.p != 31]
    assert live and all(dict(row.extra)["cross"] == "ok" for row in live)


def test_the_wolstenholme_prime_inside_a_block():
    # 16843 | B_16840: its residue is 0 read from the middle of a block
    primes = primes_in_range(16000, 18000)
    block = next(b for b in cli._blocks(primes, len(primes), cli.ZETA_BLOCK_BITS)
                 if 16843 in b)
    assert block[0] < 16843 < block[-1]
    residues = bernoulli._glaisher_residues(3, block)
    sums = bernoulli._alternating_sums(3, block)
    i = block.index(16843)
    assert residues[i] == oracles.zeta_residue(3, 16843) == 0
    assert sums[i] == oracles.alternating_power_sum(3, 16843) == 0
    rows = zeta_sweep_rows(3, block)
    assert [row.p for row in rows if dict(row.extra)["zero"]] == [16843]
    assert all(dict(row.extra)["cross"] == "ok" for row in rows)


def test_even_k_rows_need_no_pass(monkeypatch):
    # both values are 0 at even k: the rows come with neither pass run
    def no_pass(*args):
        raise AssertionError("a pass ran at even k")

    monkeypatch.setattr(bernoulli, "_glaisher_residues", no_pass)
    monkeypatch.setattr(bernoulli, "_alternating_sums", no_pass)
    rows = zeta_sweep_rows(4, primes_in_range(2, 100))
    assert [row.p for row in rows if row.skipped] == [2, 3, 5]
    assert all(row.lhs == "0" for row in rows if not row.skipped)
