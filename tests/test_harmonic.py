import random

import pytest

import oracles
from fmzv.harmonic import (
    family_pass,
    family_sum_alt_strict,
    family_sum_star,
    family_sum_star_unrestricted,
    family_tables,
    mhs_star,
    mhs_strict,
)
from fmzv.indices import Index, iter_indices_of_weight
from fmzv.modfield import PrimeCtx, prime_ctx, primes_in_range

IX = Index.of


def test_mhs_strict_examples():
    assert mhs_strict(IX(1), prime_ctx(5)) == 0
    assert mhs_strict(IX(2, 1), prime_ctx(5)) == 1
    for k in range(1, 5):
        for p in primes_in_range(k + 2, 23):
            if k % (p - 1) != 0:
                assert mhs_strict(IX(k), prime_ctx(p)) == 0


def test_mhs_star_examples():
    assert mhs_star(IX(2), prime_ctx(7)) == 0
    assert mhs_star(IX(1, 1), prime_ctx(5)) == 0
    assert mhs_star(IX(2, 1), prime_ctx(5)) == 1


def test_mhs_empty_and_deep():
    for p in (5, 7):
        assert mhs_strict(Index(()), prime_ctx(p)) == 1
        assert mhs_star(Index(()), prime_ctx(p)) == 1
    # depth >= p leaves no strictly decreasing chain
    assert mhs_strict(Index((1,) * 6), prime_ctx(5)) == 0
    assert mhs_strict(Index((1,) * 5), prime_ctx(5)) == 0
    assert oracles.brute_mhs_strict((1,) * 5, 5) == 0


def test_mhs_matches_bruteforce():
    for p in (5, 7, 11):
        for ix in iter_indices_of_weight(5):
            parts = tuple(ix)
            assert mhs_strict(ix, prime_ctx(p)) == oracles.brute_mhs_strict(parts, p)
            assert mhs_star(ix, prime_ctx(p)) == oracles.brute_mhs_star(parts, p)


def test_star_strict_inclusion_exclusion():
    # star sum = sum of strict sums over all coarsenings by merging
    # adjacent parts (2^(r-1) merge patterns)
    primes = primes_in_range(5, 97)
    for ix in iter_indices_of_weight(7):
        parts = tuple(ix)
        r = len(parts)
        merges = []
        for mask in range(1 << (r - 1)):
            merged = [parts[0]]
            for i in range(1, r):
                if mask >> (i - 1) & 1:
                    merged[-1] += parts[i]
                else:
                    merged.append(parts[i])
            merges.append(tuple(merged))
        for p in primes:
            ctx = prime_ctx(p)
            want = sum(mhs_strict(Index(m), ctx) for m in merges) % p
            assert mhs_star(ix, ctx) == want, (parts, p)


def test_reversal_sign_law():
    for ix in iter_indices_of_weight(7):
        sign = -1 if ix.weight % 2 else 1
        for p in primes_in_range(5, 97):
            ctx = prime_ctx(p)
            lhs = mhs_strict(ix.reverse(), ctx)
            rhs = sign * mhs_strict(ix, ctx) % p
            assert lhs == rhs, (tuple(ix), p)


def test_family_sum_star_examples():
    assert family_sum_star(2, 1, prime_ctx(7)) == 0
    assert family_sum_star(3, 1, prime_ctx(7)) == 3
    assert family_sum_star(4, 2, prime_ctx(11)) == 0


def test_family_sum_alt_strict_examples():
    assert family_sum_alt_strict(2, 1, prime_ctx(7)) == 0
    assert family_sum_alt_strict(3, 1, prime_ctx(7)) == 3
    assert family_sum_alt_strict(4, 1, prime_ctx(7)) == 0


def test_family_sum_star_unrestricted_examples():
    assert family_sum_star_unrestricted(2, 1, prime_ctx(5)) == 0
    assert family_sum_star_unrestricted(3, 1, prime_ctx(5)) == 0
    assert family_sum_star_unrestricted(3, 0, prime_ctx(7)) == 0
    assert family_sum_star_unrestricted(0, 0, prime_ctx(5)) == 1


def test_family_sum_guards():
    with pytest.raises(ValueError):
        family_sum_star(6, 1, prime_ctx(7))  # p <= k+1
    with pytest.raises(ValueError):
        family_sum_alt_strict(5, 1, prime_ctx(5))
    with pytest.raises(ValueError):
        family_sum_star_unrestricted(4, 1, prime_ctx(5))
    with pytest.raises(ValueError):
        family_sum_star(0, 1, prime_ctx(7))
    # infeasible height is an empty sum, not an error
    assert family_sum_star(4, 2, prime_ctx(7)) == oracles.family_sums(4, 7)[2][1]
    assert family_sum_star(3, 4, prime_ctx(11)) == 0


def test_family_sums_dp_matches_enumeration():
    # the DP engine against enumeration plus the naive suffix sum
    for p in primes_in_range(11, 199):
        ctx = prime_ctx(p)
        for k in range(0, 9):
            for s, (alt, star, star_all) in oracles.family_sums(k, p).items():
                if k >= 1 and s >= 1:
                    assert family_sum_alt_strict(k, s, ctx) == alt, (k, s, p)
                    assert family_sum_star(k, s, ctx) == star, (k, s, p)
                assert family_sum_star_unrestricted(k, s, ctx) == star_all, (k, s, p)


def test_family_sums_dp_matches_enumeration_at_large_weight():
    # k = 9..12, the weights of the benchmark and the CLI sweeps, down to
    # the boundary p = k + 2 (11 for k = 9, 13 for k = 11)
    for p in (11, 13, 17, 31):
        ctx = PrimeCtx(p)
        for k in range(9, min(12, p - 2) + 1):
            for s, (alt, star, star_all) in oracles.family_sums(k, p).items():
                if s >= 1:
                    assert family_sum_alt_strict(k, s, ctx) == alt, (k, s, p)
                    assert family_sum_star(k, s, ctx) == star, (k, s, p)
                assert family_sum_star_unrestricted(k, s, ctx) == star_all, (k, s, p)


def _assert_tables_match_enumeration(tables, k_max, p):
    # every cell (w, h) of the three tables, w <= k_max, against the sums
    # over every composition; the first two tables count the empty index
    # at (0, 0) and no other index with a first part 1
    alt, star, free = tables
    assert len(alt) == len(star) == len(free) == k_max + 1
    for w in range(k_max + 1):
        want = oracles.family_sums(w, p)
        for h in range(k_max // 2 + 1):
            cell = (alt[w][h], star[w][h], free[w][h])
            if w == 0:
                assert cell == ((h == 0,) * 3), (w, h, p)
            else:
                assert cell == want.get(h, (0, 0, 0)), (w, h, p)


@pytest.mark.parametrize("p", [11, 13, 17, 31, 37])
def test_one_pass_tables_match_enumeration(p):
    _assert_tables_match_enumeration(family_tables(9, [p])[0], 9, p)


@pytest.mark.parametrize("k", [1, 3, 5, 9])
def test_one_pass_tables_match_enumeration_at_the_boundary_prime(k):
    # p = k + 2, the least prime each weight is checked at
    _assert_tables_match_enumeration(family_tables(k, [k + 2])[0], k, k + 2)


# Blocks that mix primes <= k + 1 = 10, the top prime and the primes
# between, in and out of order.  The lane of a prime q below the top must
# see no step for m >= q, or it sums over m >= q as well.
BLOCKS = [(3, 5, 7, 11, 13, 17, 31, 37), (37, 3, 29, 7), (5, 11), (13,)]


@pytest.mark.parametrize("block", BLOCKS)
def test_block_tables_equal_each_primes_own(block):
    tables = family_tables(9, list(block))
    assert len(tables) == len(block)
    for q, lane in zip(block, tables):
        assert lane == family_tables(9, [q])[0], q
        _assert_tables_match_enumeration(lane, 9, q)


def test_family_sums_dp_small_prime_guard():
    for family_sum in (family_sum_star, family_sum_alt_strict, family_sum_star_unrestricted):
        with pytest.raises(ValueError):
            family_sum(6, 1, prime_ctx(7))
    ctx = prime_ctx(7)
    assert family_sum_alt_strict(3, 1, ctx) == 3
    assert family_sum_star(3, 1, ctx) == 3
    assert family_sum_alt_strict(2, 1, ctx) == 0
    assert family_sum_star(2, 1, ctx) == 0


def _random_steps(rng, modulus, count):
    # a = 0 is a lane below its prime; b = a^2 mod the modulus, as the
    # sweeps and phi0 give it
    steps = []
    for _ in range(count):
        a = rng.randrange(modulus) if rng.random() < 0.8 else 0
        steps.append((a, a * a % modulus))
    return steps


@pytest.mark.parametrize("seed", range(6))
def test_family_pass_equals_the_running_tail_pass(seed):
    # multiplying through by (1 - aX)^2 drops the tail and changes no cell,
    # up to height 8, as the CI pin to weight 16
    rng = random.Random(seed)
    for k_max in (0, 1, 2, 3, 5, 8, 11, 16):
        modulus = rng.choice([rng.randrange(2, 100), rng.getrandbits(64) | 1,
                              rng.getrandbits(200) + 2])
        steps = _random_steps(rng, modulus, rng.randrange(1, 30))
        assert (family_pass(k_max, steps, modulus)
                == oracles.family_pass_with_tail(k_max, steps, modulus)), (k_max, modulus)

