import functools
import hashlib
import itertools
import random
import time

import numpy as np
import pytest

import kummerlog as kl
from kummerlog import ff
from kummerlog.poly import Poly


def test_build_prime_field(f5):
    assert (f5.p, f5.d, f5.q) == (5, 1, 5)
    assert f5.modulus is None


def test_build_f4_explicit_modulus(f4):
    assert f4.q == 4
    assert f4.modulus == (1, 1, 1)


def test_build_f25_modulus_has_no_root(f5):
    # the derived oracle: t^2 + 2 has no root among the 5 candidates
    for c in range(5):
        assert (c * c + 2) % 5 != 0
    f25 = kl.build_field(5, 2, [2, 0, 1])
    assert f25.q == 25
    t = f25.from_coeffs([0, 1])
    assert f25.mul(t, t) == f25.from_coeffs([3, 0])  # t^2 = -2 = 3


def test_build_field_errors():
    with pytest.raises(ff.NotPrime):
        kl.build_field(6)
    with pytest.raises(ff.NotPrime):
        kl.build_field(1)
    for n in (2047, 1373653):  # strong pseudoprimes to the smallest bases
        with pytest.raises(ff.NotPrime):
            kl.build_field(n)
    with pytest.raises(ff.ReducibleModulus):
        kl.build_field(2, 2, [1, 0, 1])  # t^2 + 1 = (t + 1)^2
    with pytest.raises(ff.DegreeMismatch):
        kl.build_field(5, 2, [1, 1])  # degree 1, not 2
    with pytest.raises(ff.DegreeMismatch):
        kl.build_field(5, 0)
    with pytest.raises(ff.DegreeMismatch):
        kl.build_field(5, 1, [1, 1])
    with pytest.raises(ff.TooLarge):
        kl.build_field(2147483659)  # first prime at or above 2^31
    with pytest.raises(ff.NotPrime):
        kl.build_field(5.0)
    # the constructor itself checks the modulus' shape
    with pytest.raises(ff.DegreeMismatch, match="monic of degree d"):
        ff.Field(5, 2, (1, 2))


def test_field_refuses_every_reducible_modulus():
    # the primitive-element search always stops, at the latest at a zero
    # divisor, whose powers never reach 1; the group order then refuses it
    for p, d in ((2, 2), (2, 3), (3, 2), (5, 2)):
        for low in itertools.product(range(p), repeat=d):
            modulus = tuple(low) + (1,)
            if kl.is_irreducible(Poly(ff.Field(p), list(modulus))):
                assert ff.Field(p, d, modulus).q == p ** d
            else:
                with pytest.raises(ff.ReducibleModulus, match="wrong order"):
                    ff.Field(p, d, modulus)


def test_build_field_refuses_a_large_prime_at_once():
    # the bounds on p and on p^d come before the primality test and the
    # modulus search; a degree-600 search would take minutes
    for args in ((2**61 - 1,), (2, 600)):
        t0 = time.perf_counter()
        with pytest.raises(ff.TooLarge):
            kl.build_field(*args)
        assert time.perf_counter() - t0 < 1.0


def _table_digest(field):
    q = field.q
    h = hashlib.sha256(repr(field.modulus).encode())
    h.update(repr([field.mul(x, y) for x in range(q) for y in range(q)]).encode())
    h.update(repr([field.inv(x) for x in range(1, q)]).encode())
    h.update(repr([field.neg(x) for x in range(q)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("args, kwargs, digest", [
    ((2, 2, [1, 1, 1]), {}, "8482c59aaed78a441dc01929c8f5327cc0315cbb388211f55ede2826919af876"),
    ((2, 3), {"rng_seed": 1}, "bfb1b037b7001a1d2202c6869111711ce143b436cb8e8f85538b59f67ba89c05"),
    ((3, 2), {"rng_seed": 1}, "bfabc6464ad422b106ee228879bfae9495efe477493c3806bb372544b4ab9d70"),
    ((5, 2, [2, 0, 1]), {}, "30d16680a02a7e33a3f6209d6905661078ad608e0674f62ceb3ef2286b110ff5"),
    ((7, 2), {"rng_seed": 1}, "d9c1dcbd69089f9a47816aa4fb834610c019ead7e02d8c80351bac7d647890f0"),
    ((2, 8), {"rng_seed": 1}, "287b2e88eb63c908dc69f9ef50dae7d851d3925d6cbfa1837c912861bd501a81"),
    ((3, 5), {"rng_seed": 1}, "d8920b1b6df42eb5b8e9a467d029939bba9cd468f6c8ae46072e674929aac311"),
], ids=["F4", "F8", "F9", "F25", "F49", "F256", "F243"])
def test_field_tables_pinned(args, kwargs, digest):
    # the modulus and the full mul, inv and neg tables, hashed when the log
    # tables were filled by a dedicated coefficient multiplication
    assert _table_digest(kl.build_field(*args, **kwargs)) == digest


def test_is_prime_matches_sympy():
    sp = pytest.importorskip("sympy")
    assert [ff.is_prime(n) for n in range(20000)] == [sp.isprime(n) for n in range(20000)]
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 561, 41041):
        assert (ff.is_prime(n), sp.isprime(n)) == (False, False)


def test_factorize_matches_sympy():
    sp = pytest.importorskip("sympy")
    for m in range(1, 5000):
        assert sorted(set(ff.factorize(m))) == sorted(sp.factorint(m))
    # q - 1, n and q^n - 1 of the benchmark contexts (perfbench/workloads.py)
    for q, n in ((31, 15), (29, 14), (49, 12), (25, 8), (29, 7), (31, 6), (11, 11), (7, 7)):
        for m in (q - 1, n, q ** n - 1):
            assert sorted(set(ff.factorize(m))) == sorted(sp.factorint(m))


def test_modulus_search_is_seeded():
    a = kl.build_field(3, 4, rng_seed=7)
    b = kl.build_field(3, 4, rng_seed=7)
    assert a.modulus == b.modulus


def test_arith_examples(f5, f4):
    assert f5.add(3, 4) == 2
    t, t1 = f4.from_coeffs([0, 1]), f4.from_coeffs([1, 1])
    assert f4.mul(t, t1) == f4.one  # t^2 + t = 1 under t^2 = t + 1
    assert f5.inv(3) == 2
    with pytest.raises(ff.ZeroInverse):
        f5.inv(0)


def test_pow_examples(f5, f4):
    assert f5.pow_(2, 3) == 3
    assert f5.pow_(2, 4) == 1  # Fermat
    t = f4.from_coeffs([0, 1])
    assert f4.pow_(t, 3) == f4.one  # group order 3
    with pytest.raises(ff.ZeroToZero):
        f5.pow_(0, 0)
    assert f5.pow_(0, 7) == 0


def test_pow_matches_repeated_multiplication(f5, f8):
    rng = random.Random(5)
    for field in (f5, f8):
        for _ in range(30):
            x = field.random_nonzero(rng)
            acc = field.one
            for e in range(64):
                assert field.pow_(x, e) == acc
                acc = field.mul(acc, x)
    # exponents up to q^15, the size of ext_pow's, reduce mod q - 1
    for field in (kl.build_field(2**31 - 1), kl.build_field(7, 2, rng_seed=1)):
        for _ in range(30):
            x, e = field.random_nonzero(rng), rng.randrange(field.q ** 15)
            assert field.pow_(x, e) == field.pow_(x, e % (field.q - 1))
            if field.d == 1:
                assert field.pow_(x, e) == pow(x, e, field.p)


def test_pow_digit_vector(f5):
    e = kl.ExponentDigits(5, (1, 0, 2, 0))  # 51
    assert f5.pow_(2, e) == f5.pow_(2, 51)
    with pytest.raises(ff.ZeroToZero):
        f5.pow_(0, kl.ExponentDigits(5, (0, 0)))


def test_power_contract(f5, kummer54):
    # ff.power is the one square-and-multiply loop behind powmod and pow_int
    mul5 = lambda a, b: a * b % 5  # noqa: E731
    m, f = kl.Poly(f5, [3, 0, 0, 0, 1]), kl.Poly(f5, [2, 3, 1])  # mod x^4 - 2
    g = kummer54.generator
    e = kl.ExponentDigits(5, (1, 0, 2, 0))  # 51
    # a digit vector is its integer value
    assert ff.power(2, e, 1, mul5) == ff.power(2, 51, 1, mul5) == pow(2, 51, 5)
    assert kl.powmod(f, e, m) == kl.powmod(f, 51, m)
    assert kl.ext_pow(g, e) == g.pow_int(51) == ff.power(g, e, kummer54.one_element,
                                                         lambda a, b: a * b)
    # e = 0 is the identity
    assert ff.power(3, 0, 1, mul5) == 1
    assert kl.powmod(f, 0, m) == kl.Poly.one(f5)
    assert g.pow_int(0) == kummer54.one_element
    # a negative exponent is refused by the loop and by Field.pow_
    for call in (lambda: ff.power(2, -1, 1, mul5), lambda: kl.powmod(f, -1, m),
                 lambda: g.pow_int(-1), lambda: f5.pow_(2, -1)):
        with pytest.raises(ValueError, match="negative exponent"):
            call()
    # 0^0: pow_int and Field.pow_ refuse it, powmod gives 1
    with pytest.raises(ff.ZeroToZero):
        kummer54.zero_element.pow_int(0)
    with pytest.raises(ff.ZeroToZero):
        f5.pow_(0, 0)
    assert kl.powmod(kl.Poly.zero(f5), 0, m) == kl.Poly.one(f5)


def test_enumerate_examples(f4, f5):
    two = kl.build_field(2)
    assert two.elements() == [0, 1]
    assert f5.elements() == [0, 1, 2, 3, 4]
    assert [f4.coeffs(x) for x in f4.elements()] == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_enumerate_guard():
    big = kl.build_field(2147483629)  # prime just under 2^31
    with pytest.raises(ff.TooLarge):
        big.elements()


def test_field_axioms_random_triples(f5, f9, f8):
    rng = random.Random(17)
    for field in (f5, f9, f8):
        for _ in range(1000 // 3):
            x, y, z = (field.random_element(rng) for _ in range(3))
            assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
            assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
            if x != field.zero:
                assert field.mul(x, field.inv(x)) == field.one
            assert field.add(x, field.neg(x)) == field.zero
            assert field.sub(x, y) == field.add(x, field.neg(y))


def test_frobenius_fixes_field(f4, f8, f9):
    f25 = kl.build_field(5, 2, [2, 0, 1])
    for field in (f4, f8, f9, f25):
        for x in field.elements():
            assert field.pow_(x, field.q) == x or x == 0
            # x^p applied d times is the identity
            y = x
            for _ in range(field.d):
                y = field.pow_(y, field.p) if y else y
            assert y == x


def test_coeffs_roundtrip(f8, f9, f31):
    for field in (f8, f9, f31):
        for x in field.elements():
            assert len(field.coeffs(x)) == field.d
            assert field.from_coeffs(field.coeffs(x)) == x
        with pytest.raises(ff.FieldMismatch):
            field.from_coeffs([0] * (field.d + 1))
    # instance files may hold non-canonical ints
    assert f31.from_coeffs([-1]) == 30
    assert f31.from_coeffs([33]) == 2


def test_validate(f5, f4):
    assert f5.validate(3) == 3
    with pytest.raises(ff.FieldMismatch):
        f5.validate(5)
    with pytest.raises(ff.FieldMismatch):
        f5.validate(-1)
    with pytest.raises(ff.FieldMismatch):
        f4.validate("t")
    with pytest.raises(ff.FieldMismatch):
        f4.from_coeffs([1])


def test_embed_int(f5, f4):
    assert f5.embed_int(12) == 2
    assert f4.embed_int(3) == 1  # 3 mod 2, as a constant


def _array_sample(field, rng, size):
    # zeros, and the top residues: in F_{2^31 - 1} their products come
    # within a few p of 2^62, the bound the prime path relies on
    edge = [0, 0, 1] + [field.q - 1 - i for i in range(min(3, field.q - 1))]
    vals = edge + [field.random_element(rng) for _ in range(size - len(edge))]
    rng.shuffle(vals)
    return vals


@pytest.mark.parametrize("p, d", [(2, 1), (31, 1), (2**31 - 1, 1), (2, 2), (2, 3),
                                  (3, 2), (5, 2), (2, 9), (3, 6)])
def test_array_methods_match_scalar_ops(p, d):
    # covers every add path: mod p, xor (p = 2), the add table (odd p,
    # q <= 256) and coefficient by coefficient (F_{3^6}: odd p, q > 256)
    field = kl.build_field(p, d, rng_seed=1)
    rng = random.Random(p + d)
    xs, ys, cs = (_array_sample(field, rng, 120) for _ in range(3))
    x, y, c = (np.array(v, dtype=np.int64) for v in (xs, ys, cs))
    assert field.vmul(x, y).tolist() == [field.mul(a, b) for a, b in zip(xs, ys)]
    assert field.vaxpy(y, c, x).tolist() == [
        field.add(b, field.mul(s, a)) for a, b, s in zip(xs, ys, cs)]
    assert field.vreduce(field.vaxpy_lazy(y, c, x)).tolist() == [
        field.add(b, field.mul(s, a)) for a, b, s in zip(xs, ys, cs)]
    for s in (0, 1, field.q - 1, cs[0]):
        # a scalar factor, as plain int, broadcasts
        assert field.vmul(x, s).tolist() == [field.mul(a, s) for a in xs]
        assert field.vaxpy(y, s, x).tolist() == [
            field.add(b, field.mul(s, a)) for a, b in zip(xs, ys)]

    def total(vals):
        return functools.reduce(field.add, vals, field.zero)

    grid = x.reshape(8, 15)
    rows = grid.tolist()
    assert field.vsum(grid, 0).tolist() == [total(col) for col in zip(*rows)]
    assert field.vsum(grid, -1).tolist() == [total(row) for row in rows]


@pytest.mark.parametrize("p, d, inner", [
    (5, 1, (2, 40)), (31, 1, (2, 40)), (2, 3, (2, 12)), (3, 2, (2, 12)), (7, 2, (2, 12)),
    (2**31 - 1, 1, (2, 7)),
    # 31 (p - 1)^2 < 2^63 <= 32 (p - 1)^2: one exact int64 product at K = 31,
    # products reduced before the sum at K = 32
    (536870923, 1, (31, 32)),
])
def test_vmatmul_matches_vsum_of_vmul(p, d, inner):
    field = kl.build_field(p, d, rng_seed=1)
    rng = random.Random(p + d)
    for K in inner:
        # random residues, and every entry the top residue, which leaves an
        # int64 sum of K products no room past the threshold
        for x, y in ((np.array(_array_sample(field, rng, 6 * K)).reshape(2, 3, K),
                      np.array(_array_sample(field, rng, 4 * K)).reshape(K, 4)),
                     (np.full((2, 3, K), field.q - 1), np.full((K, 4), field.q - 1))):
            want = field.vsum(field.vmul(x[:, :, :, None], y[None, None]), 2)
            assert field.vmatmul(x, y).tolist() == want.tolist()
            # batch axes broadcast on either side
            assert field.vmatmul(x[0], y[None]).tolist() == want[:1].tolist()
    if p == 536870923:
        assert 31 * (p - 1) ** 2 < 2**63 <= 32 * (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 31, 536870923, 1073741789, 2**31 - 1])
def test_lazy_steps_is_the_int64_headroom(p):
    # lazy_steps products of two top residues fit onto a top residue, one
    # more would not; numpy int64 arrays wrap on overflow without a warning
    field, top = kl.build_field(p), p - 1
    assert top + field.lazy_steps * top * top < 2**63 <= top + (field.lazy_steps + 1) * top * top
    if field.lazy_steps <= 64:
        acc, full = np.full(3, top), np.full(3, top)
        for _ in range(field.lazy_steps):
            acc = field.vaxpy_lazy(acc, top, full)
        exact = top + field.lazy_steps * top * top
        assert acc.tolist() == [exact] * 3
        assert field.vreduce(acc).tolist() == [exact % p] * 3
