import random

import pytest

import kummerlog as kl
from kummerlog import extfield, ff, oracle
from kummerlog.poly import Poly


def _irreducible_binomial(base, n, a):
    return kl.is_irreducible(Poly(base, [base.neg(a)] + [base.zero] * (n - 1) + [base.one]))


def test_kummer_worked_context(kummer54):
    ctx = kummer54
    assert ctx.h == 2
    assert ctx.conj_table == (1, 2, 4, 3)
    assert ctx.denom == 4  # (-1)^4 - 2
    assert ctx.point_xs == (4, 2, 1, 3)


def test_kummer_reducible(f5):
    with pytest.raises(extfield.ReducibleBinomial):
        kl.build_kummer(f5, 4, 1, 1)  # x^4 - 1 has root 1


def test_kummer_order_criterion_matches_rabin():
    # x^n - a (n | q - 1) is irreducible iff h = a^((q-1)/n) has order n;
    # the context decides by that order, Rabin's test is the oracle
    fields = [kl.build_field(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    fields += [kl.build_field(p, d, rng_seed=1)
               for p, d in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))]
    seen = set()
    for base in fields:
        q = base.q
        for n in range(2, q):
            if (q - 1) % n:
                continue
            for a in range(1, q):
                expected = _irreducible_binomial(base, n, a)
                try:
                    kl.build_kummer(base, n, a, 1)
                    built = True
                except extfield.ReducibleBinomial:
                    built = False
                assert built == expected, (q, n, a)
                seen.add(expected)
    assert seen == {True, False}


def test_kummer_f7_cube_check(f7):
    # 2 is not a cube mod 7: the cubes are exactly {1, 6}
    cubes = {pow(c, 3, 7) for c in range(1, 7)}
    assert cubes == {1, 6}
    ctx = kl.build_kummer(f7, 3, 2, 1)
    assert ctx.h == 4  # 2^((7-1)/3) = 4


def test_kummer_not_dividing(f5):
    with pytest.raises(extfield.NotDividing):
        kl.build_kummer(f5, 3, 2, 1)  # 3 does not divide 4


def test_kummer_zero_offset(f5):
    with pytest.raises(extfield.ZeroOffset):
        kl.build_kummer(f5, 4, 2, 0)


def test_as_contexts():
    ctx = kl.build_artin_schreier(5, 1, 0)
    assert ctx.conj_offsets == (0, 1, 2, 3, 4)
    assert ctx.h == 1 and ctx.conj_table == (1,) * 5
    ctx7 = kl.build_artin_schreier(7, 3, 2)
    assert ctx7.conj_offsets == (2, 5, 1, 4, 0, 3, 6)
    with pytest.raises(extfield.ZeroConstant):
        kl.build_artin_schreier(5, 0, 1)
    with pytest.raises(ff.NotPrime):
        kl.build_artin_schreier(4, 1, 0)


def test_as_modulus_is_irreducible(as5, as7):
    assert kl.is_irreducible(as5.modulus)  # x^5 - x - 1
    assert kl.is_irreducible(as7.modulus)


def test_ext_arith_examples(kummer54):
    ctx = kummer54
    alpha = ctx.alpha
    assert alpha * alpha.pow_int(3) == ctx.constant(2)  # alpha^4 = a = 2
    g = ctx.element([1, 1])
    assert g * ctx.one_element == g
    assert alpha.inv() * alpha == ctx.one_element
    with pytest.raises(ff.ZeroInverse):
        ctx.zero_element.inv()


def test_reduce_matches_poly_mod(f31, f8, as5, as7):
    # one top-down pass of x^N = r(x) against long division by the modulus,
    # for products and for element() on inputs of degree up to 3N
    rng = random.Random(12)
    f25 = kl.build_field(5, 2, rng_seed=1)
    a25 = next(a for a in range(2, 25) if _irreducible_binomial(f25, 8, a))
    contexts = [kl.build_kummer(f31, 15, 3, 1), kl.build_kummer(f8, 7, 2, 1),
                kl.build_kummer(f25, 8, a25, 1), as5, as7]
    for ctx in contexts:
        base, n, m = ctx.base, ctx.degree, ctx.modulus
        for _ in range(40):
            x, y = ctx.random_element(rng), ctx.random_element(rng)
            assert (x * y).poly == (x.poly * y.poly) % m
            f = Poly(base, [base.random_element(rng) for _ in range(rng.randint(0, 3 * n + 1))])
            assert ctx.element(f).poly == f % m
            assert ctx.element(list(f.coeffs)).poly == f % m


def test_ext_context_mismatch(kummer54, as5):
    with pytest.raises(extfield.ContextMismatch):
        kummer54.alpha * as5.alpha


def test_frobenius_examples(kummer54, as5):
    assert kl.frobenius_power(kummer54, 1).poly.coeffs == (1, 2)  # 2 alpha + 1
    assert kl.frobenius_power(kummer54, 0).poly.coeffs == (1, 1)  # alpha + 1
    assert kl.frobenius_power(as5, 2).poly.coeffs == (2, 1)       # alpha + 2
    with pytest.raises(extfield.IndexOutOfRange):
        kl.frobenius_power(kummer54, 4)
    with pytest.raises(extfield.IndexOutOfRange):
        kl.frobenius_power(as5, -1)


def test_encode_digits_examples(kummer54):
    ctx = kummer54
    e = kl.ExponentDigits(5, (1, 0, 2, 0))
    assert kl.encode_digits(ctx, e).poly.coeffs == (1, 4, 4, 1)
    assert kl.encode_digits(ctx, kl.ExponentDigits(5, (0, 0, 0, 0))) == ctx.one_element
    assert kl.encode_digits(ctx, kl.ExponentDigits(5, (0, 1, 0, 0))).poly.coeffs == (1, 2)
    with pytest.raises(extfield.DigitOutOfRange):
        kl.encode_digits(ctx, kl.ExponentDigits(5, (1, 0, 2)))
    with pytest.raises(extfield.DigitOutOfRange):
        kl.encode_digits(ctx, kl.ExponentDigits(7, (1, 0, 2, 6)))


def test_ext_pow_examples(kummer54):
    g = kummer54.generator
    assert kl.ext_pow(g, kl.ExponentDigits(5, (0, 1, 0, 0))).poly.coeffs == (1, 2)
    assert kl.ext_pow(g, kl.ExponentDigits(5, (0, 0, 0, 0))) == kummer54.one_element
    assert kl.ext_pow(g, kl.ExponentDigits(5, (1, 0, 2, 0))).poly.coeffs == (1, 4, 4, 1)
    assert kl.ext_pow(g, 5) == kl.ext_pow(g, kl.ExponentDigits(5, (0, 1, 0, 0)))
    with pytest.raises(ff.ZeroToZero):
        kl.ext_pow(kummer54.zero_element, 0)
    with pytest.raises(ff.ZeroToZero):
        kl.ext_pow(kummer54.zero_element, kl.ExponentDigits(5, (0, 0, 0, 0)))


def test_relation_table_artin_schreier(as5, as7):
    for ctx in (as5, as7):
        g = ctx.generator
        for i in range(ctx.degree):
            assert kl.ext_pow(g, ctx.p ** i) == kl.frobenius_power(ctx, i)


def test_encode_matches_ext_pow_500(kummer54, as5):
    rng = random.Random(71)
    f8 = kl.build_field(2, 3, rng_seed=1)
    ctx87 = kl.build_kummer(f8, 7, 2, 1)
    cases = [(kummer54, 250), (as5, 150), (ctx87, 100)]
    for ctx, reps in cases:
        n, q = ctx.degree, ctx.base.q
        g = ctx.generator
        for _ in range(reps):
            e = kl.ExponentDigits(q, tuple(rng.randrange(q) for _ in range(n)))
            assert kl.encode_digits(ctx, e) == kl.ext_pow(g, e)


def test_denominator_constancy(kummer54, as5, as7):
    ctx = kummer54
    for x in ctx.point_xs:
        assert ctx.modulus.eval(x) == ctx.denom
    for actx in (as5, as7):
        for x in actx.point_xs:
            assert actx.modulus.eval(x) == actx.denom


def test_h_has_exact_order_n(kummer54, f7, f31):
    cases = [kummer54, kl.build_kummer(f7, 6, 3, 1), kl.build_kummer(f31, 15, 3, 1)]
    for ctx in cases:
        base, n, h = ctx.base, ctx.n, ctx.h
        assert base.pow_(h, n) == base.one
        for m in range(1, n):
            if n % m == 0:
                assert base.pow_(h, m) != base.one


def test_order_exceeds_2_pow_n(kummer54, f7):
    cases = [(kummer54, 4), (kl.build_kummer(f7, 6, 3, 1), 6),
             (kl.build_artin_schreier(5, 1, 0), 5), (kl.build_artin_schreier(7, 1, 0), 7)]
    for ctx, n in cases:
        group = ctx.base.q ** ctx.degree - 1
        order = oracle.element_order(ctx.generator, group, oracle.factorize(group))
        assert order > 2 ** n


def test_embed_binomial_root(kummer54):
    # u = x^4 - 2 itself: any root rho satisfies rho^4 = 2
    rng = random.Random(5)
    u = Poly(kummer54.base, [3, 0, 0, 0, 1])
    rho, psi = kl.embed_from_prime_model(kummer54, u, rng)
    assert rho.pow_int(4) == kummer54.constant(2)
    assert psi(Poly(kummer54.base, [0, 1])) == rho


def test_embed_minimal_polynomial_of_g(kummer54):
    # derived oracle: the minimal polynomial of alpha+1 is the product of its
    # conjugates y - (h^i alpha + 1), expanded via the relation table
    ctx = kummer54
    view = extfield._ExtFieldView(ctx)
    minpoly = Poly.one(view)
    for i in range(4):
        conj = kl.frobenius_power(ctx, i)
        minpoly = minpoly * Poly(view, [-conj, view.one])
    base_coeffs = []
    for c in minpoly.coeffs:
        assert c.poly.degree <= 0  # coefficients collapse into F_5
        base_coeffs.append(c.poly.coeff(0))
    u = Poly(ctx.base, base_coeffs)
    assert u.lc() == 1 and u.degree == 4
    rng = random.Random(6)
    rho, psi = kl.embed_from_prime_model(ctx, u, rng)
    # u(rho) = 0 and rho is one of the four conjugates of alpha + 1
    conjugates = {kl.frobenius_power(ctx, i) for i in range(4)}
    assert rho in conjugates
    assert psi(u).is_zero()


def test_embed_walks_the_view(monkeypatch):
    # F_9 = F_3[x]/(x^2 + 1) is small enough that roots walks its 9 elements
    # through the view rather than splitting gcd(u, y^9 - y)
    walks = []
    elements = extfield._ExtFieldView.elements
    monkeypatch.setattr(extfield._ExtFieldView, "elements",
                        lambda view: walks.append(view.q) or elements(view))
    f3 = kl.build_field(3)
    ctx = kl.build_kummer(f3, 2, 2, 1)
    u = Poly(f3, [1, 0, 1])  # y^2 + 1
    rho, psi = kl.embed_from_prime_model(ctx, u, random.Random(9))
    assert walks == [9]
    assert psi(u).is_zero()
    rng = random.Random(10)
    for _ in range(20):
        v, w = (Poly(f3, [rng.randrange(3) for _ in range(3)]) for _ in range(2))
        assert psi(v + w) == psi(v) + psi(w)
        assert psi(v * w) == psi(v) * psi(w)


def test_embed_errors(kummer54):
    rng = random.Random(8)
    prime = kummer54.base
    with pytest.raises(extfield.WrongDegree):
        kl.embed_from_prime_model(kummer54, Poly(prime, [1, 1]), rng)
    with pytest.raises(extfield.NotIrreducible):
        kl.embed_from_prime_model(kummer54, Poly(prime, [1, 0, 2, 0, 1]), rng)  # (x^2+1)^2
    f7 = kl.build_field(7)
    with pytest.raises(extfield.ContextMismatch):
        kl.embed_from_prime_model(kummer54, Poly(f7, [3, 0, 0, 0, 1]), rng)
    rho, psi = kl.embed_from_prime_model(kummer54, Poly(prime, [3, 0, 0, 0, 1]), rng)
    with pytest.raises(extfield.ContextMismatch, match="prime field"):
        psi(Poly(f7, [0, 1]))


def test_context_refusals(f5, f9, kummer3115):
    with pytest.raises(extfield.ContextMismatch, match="ff.Field"):
        extfield.KummerContext(5, 4, 2, 1)
    with pytest.raises(ValueError, match="n must be >= 2"):
        extfield.KummerContext(f5, 1, 2, 1)
    with pytest.raises(extfield.ContextMismatch, match="prime field"):
        extfield.ASContext(f9, 1, 0)
    # 31^15 elements are far past the enumeration guard
    with pytest.raises(ff.TooLarge):
        extfield._ExtFieldView(kummer3115).elements()
