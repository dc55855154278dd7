from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fmzv.polys import (
    BiSeries,
    FpRatFunc,
    Poly,
    RatFunc,
    fp_divmod,
    fp_eval,
    fp_gcd,
    fp_mul,
    fp_mul_linear,
    fp_pochhammer_poly,
    poly_gcd,
)

F = Fraction
Z = Poly((0, 1))  # the polynomial z

frac_st = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
)
poly_st = st.lists(frac_st, min_size=0, max_size=6).map(Poly)
nonzero_poly_st = poly_st.filter(lambda q: not q.is_zero)


def test_poly_basics():
    p = Poly((1, 0, -2))
    assert p.degree == 2
    assert Poly(()).degree == float("-inf")
    assert Poly((0, 0)).is_zero
    assert p.coeff(0) == 1 and p.coeff(5) == 0
    assert p(F(2)) == 1 - 8
    assert (Z * Z * Z - Z).subs_neg() == Z - Z * Z * Z
    assert str(Poly((F(1, 2), -1, 1))) == "z^2 - 1*z + 1/2"
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_poly_arithmetic():
    a = Z * Z + 2 * Z + 1
    b = Z + 1
    assert a == b * b
    q, r = divmod(a, b)
    assert q == b and r.is_zero
    q, r = divmod(Z * Z * Z + 1, Z * Z)
    assert q == Z and r == Poly((1,))
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly(()))
    with pytest.raises(ArithmeticError):
        (Z * Z + 1).exact_div(Z + 1)


@given(poly_st, nonzero_poly_st)
@settings(max_examples=120, deadline=None)
def test_poly_divmod_property(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def _euclid_gcd(a, b):
    # poly_gcd's own route, written out: it pins the monic normal form and
    # the zero cases; test_poly_gcd_of_known_factors is the independent check
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic() if not a.is_zero else a


@given(poly_st, poly_st)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_matches_euclid(a, b):
    assert poly_gcd(a, b) == _euclid_gcd(a, b)


@given(nonzero_poly_st, nonzero_poly_st, nonzero_poly_st)
@settings(max_examples=60, deadline=None)
def test_poly_gcd_divides_common_multiple(a, b, c)  :
    g = poly_gcd(a * c, b * c)
    assert divmod(a * c, g)[1].is_zero and divmod(b * c, g)[1].is_zero
    assert g.degree >= c.degree  # c divides both arguments


def _roots_product(roots):
    out = Poly((1,))
    for r in roots:
        out = out * (Z - r)
    return out


# distinct values (1/1 and 2/2 are one root), split into the disjoint root
# lists A, B and C of test_poly_gcd_of_known_factors
roots_st = st.lists(frac_st, max_size=9, unique=True).flatmap(
    lambda rs: st.tuples(st.just(rs), st.integers(0, len(rs)), st.integers(0, len(rs))))
unit_st = frac_st.filter(lambda c: c != 0)


@given(roots_st, unit_st, unit_st)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_of_known_factors(split, k1, k2):
    # gcd(k1 prod A prod C, k2 prod B prod C) = prod C, monic by construction
    rs, i, j = split
    i, j = sorted((i, j))
    a, b, c = (_roots_product(part) for part in (rs[:i], rs[i:j], rs[j:]))
    assert poly_gcd(a * c * k1, b * c * k2) == c


def test_ratfunc_normalization():
    r = RatFunc(2 * Z + 2, Z * Z - 1)  # 2(z+1)/((z-1)(z+1))
    assert r.num == Poly((2,)) and r.den == Z - 1
    assert RatFunc(Z, 2 * Z).num == Poly((F(1, 2),))
    assert RatFunc(Poly(()), Z).is_zero
    with pytest.raises(ZeroDivisionError):
        RatFunc(Z, Poly(()))
    assert RatFunc(Z * Z - 1, Z + 1) == RatFunc(Z - 1)


def _linear(root):
    return Poly((-root, 1))


@given(st.lists(frac_st, max_size=5, unique=True),
       frac_st.filter(lambda q: q != 0), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_ratfunc_from_roots_matches_the_reduced_product(roots, const, split):
    # the same quotient through the gcd: products of the linear factors
    num_roots, den_roots = roots[:split], roots[split:]
    num, den = Poly((const,)), Poly((1,))
    for r in num_roots:
        num = num * _linear(r)
    for r in den_roots:
        den = den * _linear(r)
    got = RatFunc.from_roots(const, num_roots, den_roots)
    assert got == RatFunc(num, den)
    assert str(got) == str(RatFunc(num, den))


def test_ratfunc_from_roots_edges():
    assert RatFunc.from_roots(F(-1, 2), [], [0]) == RatFunc(Poly((-1,)), 2 * Z)
    assert RatFunc.from_roots(0, [1], [2]).is_zero
    assert RatFunc.from_roots(3, (), ()) == RatFunc(Poly((3,)))
    with pytest.raises(ValueError):
        RatFunc.from_roots(1, [F(1, 2), 2], [2])  # 2 is a root of both sides
    with pytest.raises(TypeError):
        RatFunc.from_roots(0.5, [1], [2])


@given(poly_st, nonzero_poly_st, poly_st, nonzero_poly_st)
@settings(max_examples=60, deadline=None)
def test_ratfunc_field_axioms(a, b, c, d):
    x = RatFunc(a, b)
    y = RatFunc(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if not y.is_zero:
        assert (x / y) * y == x


def test_ratfunc_rejects_operands_that_are_not_ratfuncs():
    r = RatFunc(Z)
    for op in (lambda: r + 2, lambda: r - 2, lambda: r * 2, lambda: r / 2,
               lambda: r / Z):
        with pytest.raises(TypeError):
            op()


def test_ratfunc_eval_and_taylor():
    r = RatFunc(Poly((1,)), Poly((1, -1)))  # 1/(1-z)
    assert r.taylor(5) == [F(1)] * 6
    pole = RatFunc(Poly((1,)), Z)
    assert not pole.regular_at_zero()
    with pytest.raises(ZeroDivisionError):
        pole.taylor(3)
    geo = RatFunc(Poly((0, 1)), Poly((1, 0, -1)))  # z/(1-z^2)
    assert geo.taylor(5) == [F(0), F(1), F(0), F(1), F(0), F(1)]


def test_biseries_ops():
    one = BiSeries([[1]], 2, 2)
    assert one.coeff(0, 0) == 1 and one.coeff(2, 2) == 0
    xz = BiSeries([[0, 0], [0, 1]], 2, 2)  # x*z, zero-padded to the orders
    assert xz.coeff(1, 1) == 1 and xz.coeff(1, 2) == 0 and xz.coeff(2, 1) == 0
    with pytest.raises(ValueError):
        one.coeff(3, 0)


def test_fp_poly_helpers():
    p = 13
    a = [1, 2, 3]
    b = [4, 5]
    assert fp_eval(fp_mul(a, b, p), 7, p) == fp_eval(a, 7, p) * fp_eval(b, 7, p) % p
    q, r = fp_divmod(a, b, p)
    got = fp_mul(q, b, p)
    got = [(got[i] if i < len(got) else 0) + (r[i] if i < len(r) else 0) for i in range(3)]
    assert [c % p for c in got] == a
    assert fp_gcd([p - 1, 0, 1], [1, 1], p) == [1, 1]  # z+1 divides z^2-1
    assert fp_pochhammer_poly(1, 2, 2, p) == [2, 6, 4]  # (2z+1)(2z+2)


@given(st.sampled_from([5, 13, 31]), st.data())
@settings(max_examples=60, deadline=None)
def test_fp_matches_rational_route(p, data):
    ints = st.lists(st.integers(min_value=-10, max_value=10), min_size=0, max_size=5)
    a = data.draw(ints)
    b = data.draw(ints)
    pa, pb = Poly(a), Poly(b)
    prod = (pa * pb).coeffs
    want = [int(c) % p for c in prod]
    got = fp_mul([c % p for c in a], [c % p for c in b], p)
    got += [0] * (len(want) - len(got))
    assert got[: len(want)] == want


def _pochhammer_by_oracle(shift, scale, n, p):
    out = [1]
    for i in range(n):
        out = oracles.poly_mul_mod(out, [(shift + i) % p, scale % p], p)
    return out


@pytest.mark.parametrize("p", [5, 7, 13])
def test_fp_pochhammer_poly_matches_factor_by_factor_oracle(p):
    # shifts and scales past p and below 0, a shift that is 0 mod p (the
    # factor scale*z), a scale that is 0 mod p (constant factors, one of
    # them 0), and n >= p
    for shift in (0, 1, 3, p, p + 2, -1, -p - 1):
        for scale in (1, 2, -1, p + 2, 0, p):
            for n in range(p + 3):
                want = _pochhammer_by_oracle(shift, scale, n, p)
                assert fp_pochhammer_poly(shift, scale, n, p) == want, (shift, scale, n)
    # p consecutive shifts of z multiply to z^p - z, not to 0
    for shift in (0, 1, p - 1):
        assert fp_pochhammer_poly(shift, 1, p, p) == [0, p - 1] + [0] * (p - 2) + [1]


def test_fp_mul_linear_matches_oracle():
    p = 7
    polys = [[], [3], [0, 1], [1, 2, 3], [6, 0, 0, 5], [2, 5, 1, 4, 6]]
    for a in polys:
        for c0 in (0, 1, 3, p, -2):
            for c1 in (0, 1, 2, p, -1, 2 * p + 5):
                want = oracles.poly_mul_mod(a, [c0 % p, c1 % p], p)
                assert fp_mul_linear(a, c0, c1, p) == want, (a, c0, c1)
    # c1 = 0 mod p: the top coefficient vanishes and is trimmed
    assert fp_mul_linear([1, 2, 3], 2, p, p) == [2, 4, 6]
    assert fp_mul_linear([1, 2, 3], p, 2 * p, p) == []


def test_fp_ratfunc_reduction_and_eval():
    p = 11
    r = FpRatFunc([p - 1, 0, 1], [p - 1, 1], p)  # (z^2-1)/(z-1) = z+1
    assert r.num == (1, 1) and r.den == (1,)
    assert r.eval_at(4) == 5
    s = FpRatFunc([1], [p - 2, 1], p)  # 1/(z-2)
    assert s.eval_at(2) is None
    assert s.eval_at(3) == 1
    prod = r * s
    assert prod.eval_at(3) == 4
    diff = r - r
    assert diff.eval_at(5) == 0
    assert r.scale(3).eval_at(4) == 15 % 11
    with pytest.raises(ZeroDivisionError):
        FpRatFunc([1], [0], p)
