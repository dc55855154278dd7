import gc
import random
import weakref
from fractions import Fraction
from math import comb, factorial

import pytest

import fmzv.symbolic
import oracles
from fmzv.errors import AllSamplesSkippedError, DegenerateParametersError, PoleCancellationError
from fmzv.harmonic import family_sum_star
from fmzv.indices import Index, iter_admissible_indices, iter_indices_of_weight
from fmzv.modfield import prime_ctx
from fmzv.polys import FpRatFunc, Poly, RatFunc
from fmzv.symbolic import (
    Lcg,
    _congruence_values,
    _LaurentRows,
    anl_form_agreement,
    gauss_terminating_check,
    gf_coeff_series,
    gf_coefficient_check,
    hypergeom_congruence_check,
    pochhammer_poly,
    pole_weight,
    pole_weight_product_form,
    polylog_family_coeff,
    polylog_star_coeff,
    run_gauss_suite,
    run_hypcong_suite,
    run_phi0_suite,
)

F = Fraction
Z = Poly((0, 1))  # the polynomial z


def test_pochhammer_poly_examples():
    assert pochhammer_poly(0, 1, 0) == Poly((1,))
    assert pochhammer_poly(1, 2, 2) == Poly((2, 6, 4))  # (2z+1)(2z+2)
    assert pochhammer_poly(-1, 1, 3) == Z * Z * Z - Z  # (z-1)z(z+1)
    with pytest.raises(ValueError):
        pochhammer_poly(0, 1, -1)


def test_pochhammer_poly_matches_poly_factors():
    # the int expansion against the product of its Poly factors, scale 0
    # (a constant product) included
    for shift in range(-8, 9):
        for scale in range(-3, 4):
            want = Poly((1,))
            for n in range(9):
                assert pochhammer_poly(shift, scale, n) == want, (shift, scale, n)
                want = want * Poly((shift + n, scale))


def test_pole_weight_examples():
    assert pole_weight(1, 1) == RatFunc(Poly((-1,)), 2 * Z)
    # cancellation of the z factor: -1/(2(2z+1))
    assert pole_weight(2, 1) == RatFunc(Poly((-1,)), Poly((2, 4)))
    # (z-1)/(2z(2z-1))
    assert pole_weight(2, 2) == RatFunc(Z - 1, Poly((0, -2, 4)))
    with pytest.raises(ValueError):
        pole_weight(2, 3)
    with pytest.raises(ValueError):
        pole_weight(2, 0)


def _raw_pole_weight(n, l):
    """W(n, l) as the raw products of its rising factorials, reduced by gcd."""
    m = n - l
    num = pochhammer_poly(1 - l, 1, l - 1) * pochhammer_poly(0, 1, m)
    den = pochhammer_poly(1 - l, 2, l - 1) * Poly((0, 2)) * pochhammer_poly(1, 2, m)
    const = F((-1) ** l)
    for i in range(m):
        const *= l + i
    return RatFunc(num * (const / factorial(m)), den)


def test_pole_weight_matches_raw_products():
    for n in range(1, 15):
        for l in range(1, n + 1):
            got, want = pole_weight(n, l), _raw_pole_weight(n, l)
            assert got == want, (n, l)
            assert str(got) == str(want), (n, l)


def test_pole_weight_forms_agree():
    records = anl_form_agreement(6)
    assert len(records) == 21
    assert all(r.passed for r in records)
    assert pole_weight_product_form(3, 2) == pole_weight(3, 2)
    assert pole_weight_product_form(1, 1) == pole_weight(1, 1)


def test_gf_series_n1_matches_closed_form():
    # t^1 coefficient is 1/((1-x)^2 - z^2)
    series = gf_coeff_series(1, 8, 8)
    for i in range(9):
        for j in range(9):
            assert series.coeff(i, j) == oracles.closed_form_a1_coeff(i, j), (i, j)


def test_gf_series_point_values():
    assert gf_coeff_series(2, 4, 4).coeff(0, 0) == F(1, 4)
    # x^(k-2s) z^(2s-2) coefficient of the t^1 term counts the family
    for k in range(2, 8):
        for s in range(1, k // 2 + 1):
            got = gf_coeff_series(1, 8, 8).coeff(k - 2 * s, 2 * s - 2)
            assert got == len(list(iter_admissible_indices(k, s)))


def test_gf_series_even_in_z():
    for n in range(1, 9):
        series = gf_coeff_series(n)
        for i in range(series.dx + 1):
            for j in range(1, series.dz + 1, 2):
                assert series.coeff(i, j) == 0, (n, i, j)


def _ratfunc_gf_series(n, dx, dz):
    """The t^n coefficient expanded in x by dividing RatFuncs.

    The reference for ``gf_coeff_series``: each x-order divides both
    pole terms by their linear factor as reduced rational functions, and
    the l = n pair is summed before its Taylor series is taken.
    """
    grid = [[F(0)] * (dz + 1) for _ in range(dx + 1)]
    for l in range(1, n + 1):
        cur_pos = pole_weight(n, l)
        cur_neg = cur_pos.subs_neg()
        lin_pos, lin_neg = RatFunc(Poly((-l, 1))), RatFunc(Poly((-l, -1)))
        for j in range(dx + 1):
            cur_pos, cur_neg = cur_pos / lin_pos, cur_neg / lin_neg
            parts = [cur_pos + cur_neg] if l == n else [cur_pos, cur_neg]
            for part in parts:
                for i, c in enumerate(part.taylor(dz)):
                    grid[j][i] += (-1) ** j * c
    return grid


@pytest.mark.parametrize("n", range(1, 11))
def test_gf_series_matches_ratfunc_expansion(n):
    # a truncated series' coefficients do not depend on where it is cut,
    # so one reference grid at the largest orders serves all four
    ref = _ratfunc_gf_series(n, 14, 16)
    for dx, dz in ((12, 12), (14, 12), (12, 16), (3, 5)):
        series = gf_coeff_series(n, dx, dz)
        assert series.grid == tuple(tuple(row[:dz + 1]) for row in ref[:dx + 1]), (dx, dz)


@pytest.mark.parametrize("n", range(1, 6))
def test_gf_series_matches_brute_polylog_sums(n):
    # every even cell of weight k = i + j + 2 <= 10 against the family sum
    # over admissible compositions of height s = (j + 2) / 2
    series = gf_coeff_series(n, 8, 8)
    for k in range(2, 11):
        for j in range(0, k - 1, 2):
            i = k - j - 2
            want = sum((oracles.brute_li_star_coeff(c, n)
                        for c in oracles.compositions_filtered(k, (j + 2) // 2, first_min=2)),
                       F(0))
            assert series.coeff(i, j) == want, (n, i, j)


@pytest.mark.parametrize("bad_l, weight, message", [
    (3, RatFunc(Poly((1,)), Z * Z), "survived the l=3 pair"),  # double pole, l = n
    (2, RatFunc(Poly((1,)), Z), r"unexpected z=0 pole in the \(n=3, l=2\)"),
])
def test_gf_series_refuses_a_surviving_pole(monkeypatch, bad_l, weight, message):
    real = pole_weight
    monkeypatch.setattr(fmzv.symbolic, "pole_weight",
                        lambda n, l: weight if l == bad_l else real(n, l))
    gf_coeff_series.cache_clear()
    try:
        with pytest.raises(PoleCancellationError, match=message):
            gf_coeff_series(3)
    finally:
        gf_coeff_series.cache_clear()


def test_polylog_star_coeff_examples():
    assert polylog_star_coeff(Index.of(2), 3) == F(1, 9)
    assert polylog_star_coeff(Index.of(1, 1), 2) == F(3, 4)
    for ix in (Index.of(3), Index.of(1, 2), Index.of(2, 1, 1)):
        assert polylog_star_coeff(ix, 1) == 1
    with pytest.raises(ValueError):
        polylog_star_coeff(Index(()), 2)
    with pytest.raises(ValueError):
        polylog_star_coeff(Index.of(2), 0)


def test_polylog_star_coeff_matches_bruteforce():
    # every index of weight <= 7; n = 4, 6 and 8 are where lcm(1..n) < n!
    for ix in iter_indices_of_weight(7):
        for n in range(1, 9):
            got = polylog_star_coeff(ix, n)
            assert got == oracles.brute_li_star_coeff(tuple(ix), n), (tuple(ix), n)


@pytest.mark.parametrize("n", range(1, 7))
def test_polylog_family_coeff_matches_brute_chains(n):
    for k in range(2, 10):
        for s in range(1, k // 2 + 1):
            want = sum((oracles.brute_li_star_coeff(c, n)
                        for c in oracles.compositions_filtered(k, s, first_min=2)),
                       F(0))
            assert polylog_family_coeff(n, k, s) == want, (n, k, s)


@pytest.mark.parametrize("n", range(1, 11))
def test_polylog_family_coeff_matches_per_index_sums(n):
    for k in range(2, 13):
        for s in range(1, k // 2 + 1):
            want = sum((polylog_star_coeff(ix, n) for ix in iter_admissible_indices(k, s)),
                       F(0))
            assert polylog_family_coeff(n, k, s) == want, (n, k, s)


def test_polylog_family_coeff_empty_families_and_bad_input():
    for k in (0, 1, 3):
        assert polylog_family_coeff(3, k, 2) == 0  # 2s > k
    for n, k, s in ((0, 2, 1), (1, -1, 1), (1, 2, 0)):
        with pytest.raises(ValueError):
            polylog_family_coeff(n, k, s)


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
def test_polylog_family_sums_reduce_to_the_sweep_star_sums(p):
    # the finite star sum mod p is the sum over n < p of the coefficients
    # of t^n: the paper's route, on Q, meets the sweep engine, on F_p
    ctx = prime_ctx(p)
    for k in range(1, p - 1):
        for s in range(1, k // 2 + 1):
            total = sum((polylog_family_coeff(n, k, s) for n in range(1, p)), F(0))
            got = total.numerator * pow(total.denominator, -1, p) % p
            assert got == family_sum_star(k, s, ctx), (p, k, s)


def test_phi0_reads_one_grid_per_order():
    # every (k, s) of one n reads the one grid cut at max(12, k_max - 2),
    # which holds every coefficient to weight k_max: one grid for each of
    # the 4 values of n, where a cut per k would build 5 (orders 12..16)
    gf_coeff_series.cache_clear()
    try:
        records = run_phi0_suite(n_max=4, k_max=18)
        assert records and all(r.passed for r in records)
        assert gf_coeff_series.cache_info().misses == 4
        # a lone check cuts at max(12, k - 2) unless told otherwise, and
        # reads the same coefficient from any grid that holds it
        lone = gf_coefficient_check(3, 18, 4)
        assert gf_coeff_series.cache_info().misses == 4 and lone in records
        assert gf_coefficient_check(3, 10, 2) == gf_coefficient_check(3, 10, 2, order=8)
        with pytest.raises(ValueError):
            gf_coefficient_check(3, 10, 1, order=7)
    finally:
        gf_coeff_series.cache_clear()


def test_gf_coefficient_check_examples():
    rec = gf_coefficient_check(1, 4, 1)
    assert rec.passed and rec.lhs == "3/1"
    rec = gf_coefficient_check(2, 2, 1)
    assert rec.passed and rec.lhs == "1/4"
    rec = gf_coefficient_check(3, 3, 1)
    assert rec.passed and rec.lhs == "13/54"
    with pytest.raises(ValueError):
        gf_coefficient_check(1, 3, 2)


def test_gauss_terminating_examples():
    assert gauss_terminating_check(0, F(3, 7), F(-9, 2)).passed
    rec = gauss_terminating_check(1, F(2, 3), F(5, 7))
    assert rec.passed
    # m=1: 1 - b/c = (c-b)/c
    assert Fraction(*map(int, rec.lhs.split("/"))) == 1 - F(2, 3) / F(5, 7)
    rec = gauss_terminating_check(2, 1, 3)
    assert rec.passed and rec.lhs == "1/2"
    with pytest.raises(DegenerateParametersError):
        gauss_terminating_check(3, F(1, 2), -2)
    with pytest.raises(ValueError):
        gauss_terminating_check(-1, 1, 1)


def _fraction_gauss(m, b, c):
    """Both sides of the terminating Gauss evaluation, term by term."""
    lhs, term = F(0), F(1)
    for j in range(m + 1):
        lhs += term
        if j < m:
            term *= F(j - m) * (b + j) / ((c + j) * (j + 1))
    num = den = F(1)
    for i in range(m):
        num *= c - b + i
        den *= c + i
    return lhs, num / den


def _gauss_pairs():
    """240 seeded (b, c): negative values, b = c and integer c among them."""
    rng = random.Random(20181)
    pairs = [(F(3, 4), F(3, 4)), (F(-5, 3), F(-5, 3)), (F(2, 7), F(4)), (F(-9, 2), F(-23))]
    for i in range(236):
        b = F(rng.randint(-30, 30), rng.randint(1, 12))
        c = F(rng.randint(-30, 30), rng.randint(1, 12) if i % 4 else 1)
        pairs.append((b, b if i % 10 == 0 else c))
    return pairs


def test_gauss_matches_fraction_loop():
    degenerate = 0
    for b, c in _gauss_pairs():
        for m in range(21):
            if any(c + j == 0 for j in range(m)):
                degenerate += 1
                with pytest.raises(DegenerateParametersError):
                    gauss_terminating_check(m, b, c)
                continue
            lhs, rhs = _fraction_gauss(m, b, c)
            rec = gauss_terminating_check(m, b, c)
            assert rec.passed and lhs == rhs, (m, b, c)
            assert (rec.lhs, rec.rhs) == (f"{lhs.numerator}/{lhs.denominator}",) * 2, (m, b, c)
    assert degenerate > 100


@pytest.mark.parametrize("b, c", [(0.1, 3), (F(1, 2), 2.0), ("1/2", 3), (None, 1)])
def test_gauss_rejects_inexact_parameters(b, c):
    with pytest.raises(TypeError):
        gauss_terminating_check(2, b, c)


def test_gauss_suite_runs_clean():
    records = run_gauss_suite(m_max=5, pairs=10, seed=42)
    assert len(records) == 60
    assert all(r.passed or r.skipped for r in records)
    assert any(not r.skipped for r in records)
    # deterministic under the same seed
    again = run_gauss_suite(m_max=5, pairs=10, seed=42)
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in records]


def test_hypergeom_congruence_small():
    ctx = prime_ctx(11)
    rec = hypergeom_congruence_check(1, ctx, samples=20, seed=7)
    assert rec.passed and rec.p == 11
    rec = hypergeom_congruence_check(11, prime_ctx(13), samples=20, seed=7)
    assert rec.passed  # boundary l = p-2
    with pytest.raises(ValueError):
        hypergeom_congruence_check(0, ctx)
    with pytest.raises(ValueError):
        hypergeom_congruence_check(10, ctx)


@pytest.mark.parametrize("p", [13, 61])
def test_lone_hypcong_check_is_the_suites_record(p):
    # the check's default seed and samples are the suite's, so a check run
    # alone at l writes the suite's record for l
    ctx = prime_ctx(p)
    lone = [hypergeom_congruence_check(l, ctx).to_json_dict() for l in range(1, p - 1)]
    assert lone == [rec.to_json_dict() for rec in run_hypcong_suite(p)]


def test_hypergeom_congruence_reports_skips():
    # large l keeps low-degree reduced denominators, so some draws skip
    recs = run_hypcong_suite(11, samples=10, seed=3)
    assert len(recs) == 9
    assert all(r.passed for r in recs)
    extras = dict(recs[-1].extra)
    assert "evaluated" in extras and "skipped_samples" in extras


def test_lcg_determinism():
    a = Lcg(5)
    b = Lcg(5)
    seq_a = [a.below(100) for _ in range(10)]
    seq_b = [b.below(100) for _ in range(10)]
    assert seq_a == seq_b
    assert seq_a != [Lcg(6).below(100) for _ in range(10)]


def test_phi0_suite_small():
    records = run_phi0_suite(n_max=3, k_max=5)
    assert records and all(r.passed for r in records)


def _jet(poly, x, p):
    """(value, derivative) of a coefficient list at x, mod p."""
    return (sum(c * x ** i for i, c in enumerate(poly)) % p,
            sum(i * c * x ** (i - 1) for i, c in enumerate(poly) if i) % p)


def _series_coeffs(l, p):
    """c_n = (l)_n / n! mod p for n <= p - l, term by term."""
    out, poch, fact = [], 1, 1
    for n in range(p - l + 1):
        out.append(poch * pow(fact, p - 2, p) % p)
        poch, fact = poch * (l + n) % p, fact * (n + 1) % p
    return out


def _row_sides(p):
    """(l, z0, the six sides) at every (l, z0), read from one set of rows
    as the suite reads them."""
    ctx, rows = prime_ctx(p), _LaurentRows(p)
    for l in range(1, p - 1):
        *head, t = _series_coeffs(l, p)
        for z0 in range(1, p):
            yield l, z0, _congruence_values(l, z0, rows, head, t, ctx)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61])
def test_congruence_sides_match_suffix_product_oracle(p):
    # the three left sides read from the rows against those built term by
    # term from suffix products: value, or pole, at every (l, z0)
    sides = {l: oracles.hypcong_left_sides(l, p) for l in range(1, p - 1)}
    for l, z0, got in _row_sides(p):
        want = [oracles.jet_ratio(_jet(num, z0, p), _jet(den, z0, p), p) for num, den in sides[l]]
        assert [lhs for lhs, _ in got] == want, (l, z0)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61, 101, 151])
def test_rows_match_the_horner_oracle(p):
    # all six sides, right sides included, against one Horner pass on jets
    # per (l, z0)
    for l, z0, got in _row_sides(p):
        assert got == oracles.hypcong_horner_values(l, z0, p), (l, z0)


def test_rows_of_8_byte_entries_past_2_16():
    # from p = 2^16 + 1 the rows hold 8-byte entries, and the sides read
    # from them still match the Horner pass at both ends of l and z0
    p = 65537
    ctx, rows = prime_ctx(p), _LaurentRows(p)
    for l in (1, 2, p - 3):
        *head, t = _series_coeffs(l, p)
        for z0 in (1, 2, 32768, p - 1):
            got = _congruence_values(l, z0, rows, head, t, ctx)
            assert got == oracles.hypcong_horner_values(l, z0, p), (l, z0)
    assert rows[1][0].typecode == "Q"


def _taylor(poly, x, p, order):
    """The first order + 1 Taylor coefficients of a coefficient list at x,
    mod p: comb(i, k) x^(i-k) is the k-th derivative of x^i over k!."""
    return [sum(comb(i, k) * c * x ** (i - k) for i, c in enumerate(poly) if i >= k) % p
            for k in range(order + 1)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_laurent_rows_expand_each_ratio(p):
    # (eps^-1, eps^0) of (z)_n / (2z+1)_n at z0 + eps, for every z0 and
    # n < p, from the Taylor coefficients of both products
    rows = _LaurentRows(p)
    for z0 in range(1, p):
        poles, values = rows[z0]
        num, den = [1], [1]
        for n in range(p):
            (a0, a1, _), (b0, b1, b2) = _taylor(num, z0, p, 2), _taylor(den, z0, p, 2)
            if b0:
                want = (0, a0 * pow(b0, p - 2, p) % p)
            else:  # (a0 + a1 e) / (b1 e + b2 e^2) = a0/b1 e^-1 + (a1 - a0 b2/b1)/b1
                inv = pow(b1, p - 2, p)
                want = (a0 * inv % p, (a1 - a0 * b2 * inv) * inv % p)
            assert (poles[n], values[n]) == want, (z0, n)
            num = oracles.poly_mul_mod(num, [n, 1], p)
            den = oracles.poly_mul_mod(den, [1 + n, 2], p)


def test_hypcong_suite_keeps_no_rows(monkeypatch):
    # the rows live for one run of the suite: none is parked on the shared
    # context, and none is reachable once the suite returns
    made = []

    class Rows(_LaurentRows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(fmzv.symbolic, "_LaurentRows", Rows)
    before = set(prime_ctx(31)._memo)
    records = run_hypcong_suite(31, samples=5, seed=7)
    assert len(records) == 29 and len(made) == 1
    gc.collect()
    assert made[0]() is None
    assert set(prime_ctx(31)._memo) - before <= {"factorials"}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61])
def test_hypergeom_congruence_matches_reduced_ratfunc_oracle(p):
    # every record, skip counts included, against the sides built as
    # whole polynomials, reduced by gcd and sampled with eval_at
    ctx = prime_ctx(p)

    def outcome(check, *args):
        try:
            return check(*args)
        except AllSamplesSkippedError as err:
            return str(err)

    for seed in (1, 3, 7):
        for samples in (3, 20):
            for l in range(1, p - 1):
                assert (outcome(hypergeom_congruence_check, l, ctx, samples, seed)
                        == outcome(oracles.hypcong_check, l, p, samples, seed)), (seed, samples, l)


def test_jet_ratio_reads_the_local_order():
    p = 7
    # (z-3)^2 (z+1) over (z-3)(z+2): a double root over a simple one is a
    # zero of the quotient at z = 3, not a pole
    num = oracles.poly_mul_mod(oracles.poly_mul_mod([4, 1], [4, 1], p), [1, 1], p)
    den = oracles.poly_mul_mod([4, 1], [2, 1], p)
    assert _jet(num, 3, p) == (0, 0)
    assert oracles.jet_ratio(_jet(num, 3, p), _jet(den, 3, p), p) == 0
    assert FpRatFunc(num, den, p).eval_at(3) == 0
    # a simple root over a simple root: the ratio of the derivatives
    num = oracles.poly_mul_mod([4, 1], [1, 1], p)
    assert (oracles.jet_ratio(_jet(num, 3, p), _jet(den, 3, p), p)
            == FpRatFunc(num, den, p).eval_at(3))
    # no root over a simple root: a pole
    assert oracles.jet_ratio(_jet([1, 1], 3, p), _jet(den, 3, p), p) is None
    assert FpRatFunc([1, 1], den, p).eval_at(3) is None
    # a denominator vanishing to order 2 breaks the premise and raises
    with pytest.raises(ArithmeticError):
        oracles.jet_ratio(_jet(num, 3, p), (0, 0), p)
