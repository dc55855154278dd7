import pytest

from fmzv.modfield import (
    PrimeCtx,
    binom_mod,
    inverses,
    is_prime,
    prime_ctx,
    primes_in_range,
)


def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_prime_ctx_rejects_bad_moduli():
    for bad in (0, 1, 2, 4, 9, 15, 21):
        with pytest.raises(ValueError):
            PrimeCtx(bad)
    with pytest.raises(ValueError):
        PrimeCtx(2**61 + 27)  # prime but above the cap
    with pytest.raises(TypeError):
        PrimeCtx(7.0)


def test_prime_ctx_identity():
    a, b = PrimeCtx(7), PrimeCtx(7)
    assert a == b and hash(a) == hash(b)
    assert prime_ctx(11) is prime_ctx(11)
    with pytest.raises(AttributeError):
        prime_ctx(7).p = 11


def test_inverses_examples():
    assert inverses(3) == [0, 1, 2]
    assert inverses(7) == [0, 1, 4, 5, 2, 3, 6]
    out = inverses(11)
    assert out[0] == 0 and sorted(out[1:]) == list(range(1, 11))


def test_inverses_match_fermat():
    for p in primes_in_range(3, 199) + [1009, 16843]:
        fermat = [0] + [pow(l, p - 2, p) for l in range(1, p)]
        assert inverses(p) == fermat, p


def test_binom_examples():
    assert binom_mod(2, 1, PrimeCtx(7)) == 2
    assert binom_mod(3, 3, PrimeCtx(7)) == 1
    assert binom_mod(4, 2, PrimeCtx(5)) == 1
    assert binom_mod(4, -1, PrimeCtx(5)) == 0
    assert binom_mod(4, 5, PrimeCtx(5)) == 0
    with pytest.raises(ValueError):
        binom_mod(5, 2, PrimeCtx(5))
    with pytest.raises(ValueError):
        binom_mod(-1, 0, PrimeCtx(5))


def test_binom_pascal_rule():
    # C(n, k) + C(n, k-1) = C(n+1, k) wherever all rows stay below p
    for p in primes_in_range(3, 31):
        ctx = prime_ctx(p)
        for n in range(p - 1):
            for k in range(n + 1):
                lhs = (binom_mod(n, k, ctx) + binom_mod(n, k - 1, ctx)) % p
                assert lhs == binom_mod(n + 1, k, ctx)


def _filtered(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def test_primes_in_range_equals_the_is_prime_filter():
    for lo in range(1, 7):
        for hi in range(lo - 1, 400):
            assert primes_in_range(lo, hi) == _filtered(lo, hi), (lo, hi)
    assert primes_in_range(10, 9) == primes_in_range(100, 3) == []
    # windows whose strike bound is isqrt(hi) or, with each survivor
    # confirmed, the width, around 2^16 and 2^32 and far above
    for lo, hi in [(10**6, 10**6 + 2000), (2**16 - 40, 2**16 + 40),
                   (2**32 - 300, 2**32 + 300), (2**32 - 1, 2**32 + 1),
                   (10**18, 10**18 + 300), (2124679, 2124679), (2124678, 2124680)]:
        for a in range(lo, hi + 1, max(1, (hi - lo) // 6)):
            assert primes_in_range(a, hi) == _filtered(a, hi), (a, hi)
            assert primes_in_range(lo, a) == _filtered(lo, a), (lo, a)
    # a bound of 2^16: above 2^32 and wider than 2^16
    lo = 2**40
    assert primes_in_range(lo, lo + 70000) == _filtered(lo, lo + 70000)

