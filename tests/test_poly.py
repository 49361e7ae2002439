import functools
import hashlib
import itertools
import random

import numpy as np
import pytest

import kummerlog as kl
from kummerlog import ff, poly
from kummerlog.poly import DivisionByZeroPoly, Poly, ext_gcd


def P(field, *coeffs):
    return Poly(field, list(coeffs))


def test_mul_example(f5):
    assert P(f5, 1, 1) * P(f5, 3, 1) == P(f5, 3, 4, 1)  # (x+1)(x+3) = x^2+4x+3


def test_gcd_example(f5):
    assert kl.gcd(P(f5, 4, 0, 1), P(f5, 4, 1)) == P(f5, 4, 1)  # gcd(x^2-1, x-1) = x-1
    assert kl.gcd(Poly.zero(f5), Poly.zero(f5)).is_zero()
    assert kl.gcd(P(f5, 0, 2), Poly.zero(f5)) == P(f5, 0, 1)  # monic


def test_eval_example(f5):
    f = P(f5, 1, 4, 4, 1)
    assert (64 + 64 + 16 + 1) % 5 == 0
    assert f.eval(4) == 0


def test_divrem(f5, f9, f8):
    # dense divisors of every degree from 0 (constants) with any leading
    # coefficient, the sparse x^n - a and x^p - x - a, and dividends both
    # shorter and longer than the divisor
    rng = random.Random(3)
    for field in (f5, f9, f8, kl.build_field(2**31 - 1)):
        x = Poly.x(field)
        divisors = []
        for _ in range(20):
            a = Poly.constant(field, field.random_element(rng))
            dense = [field.random_element(rng) for _ in range(rng.randrange(6))]
            divisors.append(Poly(field, dense + [field.random_nonzero(rng)]))
            divisors.append(Poly.monomial(field, rng.randrange(1, 9)) - a)
            if field.p < 10:
                divisors.append(Poly.monomial(field, field.p) - x - a)
        for g in divisors:
            f = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(13))])
            q, r = f.divrem(g)
            assert q * g + r == f
            assert r.degree < g.degree
            assert (f // g, f % g) == (q, r)
    for op in (Poly.divrem, Poly.__floordiv__, Poly.__mod__):
        with pytest.raises(DivisionByZeroPoly):
            op(P(f5, 1), Poly.zero(f5))


def test_gcd_and_eval_match_sympy():
    # an independent oracle: sympy's gcd and evaluation over GF(p)
    sp = pytest.importorskip("sympy")
    rng = random.Random(43)
    for p in (2, 31, 2**31 - 1):
        field = kl.build_field(p)

        def rand(deg):
            return Poly(field, [rng.randrange(p) for _ in range(deg + 1)])

        for _ in range(30):
            common = rand(rng.randrange(-1, 4))
            f, g = common * rand(rng.randrange(-1, 6)), common * rand(rng.randrange(-1, 6))
            want = _to_sympy(f, sp)
            if f or g:
                want = sp.gcd(want, _to_sympy(g, sp)).monic()
            assert kl.gcd(f, g) == Poly(field, [int(c) % p for c in reversed(want.all_coeffs())])
            a = rng.randrange(p)
            assert f.eval(a) == int(_to_sympy(f, sp).eval(a)) % p


def test_powmod_examples(f5):
    x = Poly.x(f5)
    m = P(f5, 3, 0, 0, 0, 1)  # x^4 - 2
    assert kl.powmod(x, 5, m) == P(f5, 0, 2)  # x^5 = 2x mod x^4 - 2
    f = P(f5, 2, 3, 1)
    assert kl.powmod(f, 0, m) == Poly.one(f5)
    assert kl.powmod(f, 1, m) == f % m
    e = kl.ExponentDigits(5, (1, 0, 2, 0))
    assert kl.powmod(f, e, m) == kl.powmod(f, 51, m)
    with pytest.raises(DivisionByZeroPoly):
        kl.powmod(x, 2, Poly.one(f5))


def test_derivative(f5):
    assert P(f5, 1, 4, 4, 1).derivative() == P(f5, 4, 3, 3)
    assert P(f5, 2).derivative().is_zero()
    # d/dx of x^5 vanishes in characteristic 5
    assert Poly.monomial(f5, 5).derivative().is_zero()


def test_factor_examples(f5):
    lc, fs = kl.factor(P(f5, 3, 4, 1))
    assert lc == 1 and fs == [(P(f5, 1, 1), 1), (P(f5, 3, 1), 1)]

    # derived oracle for x^3+4x^2+4x+1: root 4 simple, root 1 double
    f = P(f5, 1, 4, 4, 1)
    d = f.derivative()
    assert f.eval(4) == 0 and d.eval(4) != 0
    assert f.eval(1) == 0 and d.eval(1) == 0
    lc, fs = kl.factor(f)
    assert lc == 1 and fs == [(P(f5, 1, 1), 1), (P(f5, 4, 1), 2)]

    lc, fs = kl.factor(P(f5, 3, 0, 0, 0, 1))  # x^4 - 2 stays irreducible
    assert lc == 1 and fs == [(P(f5, 3, 0, 0, 0, 1), 1)]


def test_x4_minus_2_irreducible_by_exhaustion(f5):
    f = P(f5, 3, 0, 0, 0, 1)
    assert all(f.eval(c) != 0 for c in range(5))  # no linear factor
    for b0, b1 in itertools.product(range(5), repeat=2):  # no quadratic factor
        g = P(f5, b0, b1, 1)
        assert not (f % g).is_zero()
    assert kl.is_irreducible(f)


def test_roots_examples(f5):
    assert kl.roots(P(f5, 3, 4, 1)) == [(2, 1), (4, 1)]
    assert kl.roots(P(f5, 1, 4, 4, 1)) == [(1, 2), (4, 1)]
    assert kl.roots(P(f5, 3, 0, 0, 0, 1)) == []


def test_roots_match_exhaustive_evaluation(f5, f9, f8):
    rng = random.Random(11)
    for field in (f5, f9, f8):
        for _ in range(40):
            f = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 8))])
            if f.is_zero():
                continue
            got = dict(kl.roots(f, rng))
            simple = {x for x in field.elements() if f.eval(x) == field.zero}
            assert set(got) == simple
            assert kl.roots(f, random.Random(1)) == kl.roots(f, random.Random(2))


def test_roots_edge_cases(f5):
    with pytest.raises(ValueError):
        kl.roots(Poly.zero(f5))
    assert kl.roots(P(f5, 3)) == []
    assert kl.factor(P(f5, 3)) == (3, [])


def test_root_selection_sides():
    # walk the field while q <= EVAL_CROSSOVER * log2(q) * deg, never past ENUM_LIMIT
    assert poly._by_evaluation(31, 1) and poly._by_evaluation(31, 15)
    assert poly._by_evaluation(191, 2) and poly._by_evaluation(49, 1)
    assert not poly._by_evaluation(65537, 16)
    assert not poly._by_evaluation(2**31 - 1, 1000)
    assert not poly._by_evaluation(ff.ENUM_LIMIT + 1, 10**6)
    # the embedding's view of F_{5^4} finds the roots of a quartic by the gcd side
    assert not poly._by_evaluation(5**4, 4)


@pytest.mark.parametrize("p", [5, 31, 191])
def test_linear_part_sides_agree(monkeypatch, p, f9, f8):
    # each side on the same inputs: the roots with multiplicities and the cofactor
    rng = random.Random(p)
    for field in (kl.build_field(p), f9, f8):
        cases = []
        for _ in range(30):
            f = Poly.one(field)
            for _ in range(rng.randrange(0, 4)):
                g = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 4))]
                         + [field.one])
                f = f * g * g if rng.random() < 0.3 else f * g
            cases.append(f)
        results = []
        for by_eval in (True, False):
            monkeypatch.setattr(poly, "_by_evaluation", lambda q, deg, by_eval=by_eval: by_eval)
            results.append([(sorted(lin), rest) for lin, rest in
                            (poly._linear_part(f, random.Random(3)) for f in cases)])
        assert results[0] == results[1]
        for f, (lin, rest) in zip(cases, results[0]):
            assert all(rest.eval(x) != field.zero for x in field.elements())
            prod = rest
            for r, mult in lin:
                for _ in range(mult):
                    prod = prod * Poly(field, [field.neg(r), field.one])
            assert prod == f


def test_is_irreducible_examples(f5):
    assert kl.is_irreducible(P(f5, 3, 0, 0, 0, 1))
    assert not kl.is_irreducible(P(f5, 4, 0, 1))  # x^2 - 1
    f = P(f5, 4, 4, 0, 0, 0, 1)  # x^5 - x - 1
    assert kl.is_irreducible(f)
    # cross-check: no monic factor of degree 1 or 2
    assert all(f.eval(c) != 0 for c in range(5))
    for b0, b1 in itertools.product(range(5), repeat=2):
        assert not (f % P(f5, b0, b1, 1)).is_zero()
    with pytest.raises(ValueError, match="degree >= 1"):
        kl.is_irreducible(P(f5, 3))


def test_repr_of_zero(f5):
    assert repr(Poly.zero(f5)) == "0"


def test_factor_round_trip_500(f5, f7, f4, f8, f9):
    rng = random.Random(23)
    fields = [f5, f7, f4, f8, f9]
    for _ in range(500):
        field = rng.choice(fields)
        deg = rng.randrange(1, 13)
        coeffs = [field.random_element(rng) for _ in range(deg)] + [field.random_nonzero(rng)]
        f = Poly(field, coeffs)
        lc, fs = kl.factor(f, rng)
        prod = Poly.constant(field, lc)
        for g, mult in fs:
            assert g.lc() == field.one
            assert kl.is_irreducible(g)
            for _ in range(mult):
                prod = prod * g
        assert prod == f


def test_wild_multiplicities(f5, f4):
    # multiplicity divisible by the characteristic exercises p-th root extraction
    f = P(f5, 1, 1)
    lc, fs = kl.factor(_pow(f, 5))
    assert lc == 1 and fs == [(f, 5)]
    g = Poly(f4, [f4.from_coeffs([0, 1]), f4.one])  # x + t over F_4
    lc, fs = kl.factor(_pow(g, 4))
    assert lc == f4.one and fs == [(g, 4)]


def _pow(f, e):
    r = Poly.one(f.field)
    for _ in range(e):
        r = r * f
    return r


def test_degree_additivity(f5, f8):
    rng = random.Random(31)
    for field in (f5, f8):
        for _ in range(50):
            f = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 7))]
                     + [field.random_nonzero(rng)])
            g = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 7))]
                     + [field.random_nonzero(rng)])
            assert (f * g).degree == f.degree + g.degree


def test_ext_gcd(f5, f8):
    rng = random.Random(37)
    for field in (f5, f8):
        for _ in range(40):
            f = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 7))])
            g = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 7))])
            if f.is_zero() and g.is_zero():
                continue
            d, u, v = ext_gcd(f, g)
            assert u * f + v * g == d
            assert d == kl.gcd(f, g)


def test_factor_zero_rejected(f5):
    with pytest.raises(ValueError):
        kl.factor(Poly.zero(f5))


def _to_sympy(f, sp):
    """f as a sympy polynomial over GF(p)."""
    return sp.Poly(list(reversed(f.coeffs)) or [0], sp.Symbol("x"), modulus=f.field.p)


def _sympy_factors(f, sp):
    """(lc, {monic factor coeffs low to high: multiplicity}) from sympy over GF(p)."""
    p = f.field.p
    lc, facs = _to_sympy(f, sp).factor_list()
    return int(lc) % p, {tuple(int(c) % p for c in reversed(g.all_coeffs())): e
                         for g, e in facs}


def test_factor_and_roots_match_sympy():
    # an oracle independent of this package: sympy's factor_list over GF(p)
    sp = pytest.importorskip("sympy")
    rng = random.Random(19)
    # 191 walks the field; 65537 and 2^31 - 1 split gcd(f, x^q - x) instead
    for p in (2, 3, 5, 7, 31, 101, 191, 65537, 2**31 - 1):
        field = kl.build_field(p)
        for _ in range(25):
            f = Poly.constant(field, field.random_nonzero(rng))
            for _ in range(rng.randrange(1, 5)):
                g = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                for _ in range(rng.randrange(1, 4)):
                    f = f * g
            lc, facs = kl.factor(f, rng)
            want_lc, want = _sympy_factors(f, sp)
            assert (lc, {g.coeffs: e for g, e in facs}) == (want_lc, want)
            want_roots = sorted((-c[0] % p, e) for c, e in want.items() if len(c) == 2)
            assert kl.roots(f, rng) == want_roots
            # the results are unique, so the rng state does not show in them
            assert kl.factor(f, random.Random(1)) == kl.factor(f, random.Random(2))
            assert kl.roots(f, random.Random(1)) == kl.roots(f, random.Random(2))


def test_frobenius_rows_match_powmod(monkeypatch, f5, f31, f9, f8):
    # row i is x^(q*i) mod f; p = 2^31 - 1 at degree >= 4 catches an int64
    # overflow in the products, degrees 1 and 2 are the matrix edges
    rng = random.Random(41)
    f49 = kl.build_field(7, 2, rng_seed=1)
    big = kl.build_field(2**31 - 1)
    cases = [(field, deg) for field in (f5, f31, f9, f49, f8) for deg in (1, 2, 3, 5, 8)]
    cases += [(big, deg) for deg in (1, 2, 4, 6, 9)]
    for field, deg in cases:
        x = Poly.x(field)
        for _ in range(3):
            f = Poly(field, [field.random_element(rng) for _ in range(deg)] + [field.one])
            rows = poly._frobenius_rows(f)
            assert rows.shape == (deg, deg)
            for i in range(deg):
                assert Poly(field, rows[i].tolist()) == kl.powmod(x, field.q * i, f)
            h = Poly(field, [field.random_element(rng) for _ in range(deg)])
            assert poly._frobenius(h, rows) == kl.powmod(h, field.q, f)
    # a block bound below n*n splits the matrix products into single rows
    monkeypatch.setattr(poly, "ROWS_BLOCK", 1)
    for field in (f31, f9, big):
        a = [[field.random_element(rng) for _ in range(7)] for _ in range(5)]
        b = [[field.random_element(rng) for _ in range(3)] for _ in range(7)]
        want = [[functools.reduce(field.add, (field.mul(a[i][k], b[k][j]) for k in range(7)))
                 for j in range(3)] for i in range(5)]
        assert poly._matmul(field, np.array(a), np.array(b)).tolist() == want
        f = Poly(field, [field.random_element(rng) for _ in range(7)] + [field.one])
        rows = poly._frobenius_rows(f)
        assert [Poly(field, r.tolist()) for r in rows] == [
            kl.powmod(Poly.x(field), field.q * i, f) for i in range(7)]


def _random_irreducible(field, deg, rng):
    while True:
        g = Poly(field, [field.random_element(rng) for _ in range(deg)] + [field.one])
        if kl.is_irreducible(g):
            return g


def test_factor_draws_pinned(f31, f9, f8):
    # factor's output and the rng state it leaves behind, over 200 products of
    # irreducibles of degree 2-4 (so distinct- and equal-degree splitting both
    # run), hashed; the digest was taken from the powmod-based chain, so a
    # change in how the q-th powers are computed must not move a single draw
    fields = [f31, f9, kl.build_field(7, 2, rng_seed=1), f8]
    gen = random.Random(2024)
    digest = hashlib.sha256()
    for i in range(200):
        field = fields[i % 4]
        f = Poly.constant(field, field.random_nonzero(gen))
        for _ in range(gen.randrange(1, 4)):
            g = _random_irreducible(field, gen.randrange(2, 5), gen)
            for _ in range(1 if gen.random() < 0.8 else 2):
                f = f * g
        rng = random.Random(i)
        lc, fs = kl.factor(f, rng)
        digest.update(repr((lc, [(g.coeffs, m) for g, m in fs], rng.random())).encode())
    assert digest.hexdigest() == "25fe2ae776829d89941bb78fa651016881952f09eeea67f93e0dc3c19f7a7102"
