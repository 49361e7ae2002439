import hashlib
import itertools
import math
import random

import pytest

import kummerlog as kl
from kummerlog import digits
from kummerlog import listdecode as ld
from kummerlog.ff import FieldMismatch
from kummerlog.poly import Poly, roots

from bivariate_reference import eval_y, evaluate, hasse_eval, mul, vanishes_to_order, y_minus
from module_reference import least_element


def test_select_params_examples():
    p = kl.select_params(15, 4, 9)
    assert (p.multiplicity, p.weighted_degree_bound) == (3, 26)
    assert len(p.monomials()) == 105
    assert p.n_points * p.multiplicity * (p.multiplicity + 1) // 2 == 90

    p = kl.select_params(4, 1, 3)
    assert (p.multiplicity, p.weighted_degree_bound) == (1, 2)

    with pytest.raises(ld.AgreementTooSmall):
        kl.select_params(15, 4, 7)  # 49 < 60

    # A^2 = kn + 1 needs m > kn = 624, past the multiplicity cap
    with pytest.raises(ld.NoSolution):
        kl.select_params(156, 4, 25)
    with pytest.raises(ValueError, match="n_points >= 1"):
        kl.select_params(0, 1, 1)


def test_select_params_invariant():
    rng = random.Random(9)
    for _ in range(60):
        k = rng.randrange(0, 4)
        n = rng.randrange(2, 16)
        a_min = math.isqrt(k * n) + 1
        A = rng.randrange(a_min, a_min + 6)
        p = kl.select_params(n, k, A)
        m, D = p.multiplicity, p.weighted_degree_bound
        assert D == m * A - 1
        assert A * A * m > k * n * (m + 1)
        assert len(p.monomials()) > n * m * (m + 1) // 2


def test_interpolate_line(f7):
    pts = [(x, x) for x in range(4)]
    params = kl.select_params(4, 1, 3)
    Q = kl.interpolate(f7, pts, params)
    assert not Q.is_zero()
    assert eval_y(Q, Poly.x(f7)).is_zero()  # Q(x, x) = 0


def test_interpolate_single_point(f7):
    params = kl.select_params(1, 1, 2)
    Q = kl.interpolate(f7, [(0, 0)], params)
    assert not Q.is_zero()
    assert evaluate(Q, 0, 0) == 0


def test_interpolate_multiplicity(f31, kummer3115):
    # the solver pipeline case: multiplicity 3 at all 15 points
    rng = random.Random(10)
    pts = [(x, f31.random_element(rng)) for x in kummer3115.point_xs]
    params = kl.select_params(15, 4, 9)
    Q = kl.interpolate(f31, pts, params)
    assert not Q.is_zero()
    assert Q.weighted_degree() <= params.weighted_degree_bound
    for a, b in pts:
        assert vanishes_to_order(Q, a, b, 3)


def test_interpolate_rejects_repeated_x(f7):
    params = kl.select_params(2, 1, 2)
    with pytest.raises(ValueError):
        kl.interpolate(f7, [(1, 2), (1, 3)], params)


def test_interpolate_rejects_params_for_another_point_count(f7):
    with pytest.raises(ValueError, match="point count"):
        kl.interpolate(f7, [(1, 2), (2, 3), (3, 4)], kl.select_params(2, 1, 2))


def test_interpolate_rejects_non_field_coordinates(f7, f9):
    # 8 = 1 in GF(7) would pass the distinct-x check; 20 is past F_9
    params = kl.select_params(2, 1, 2)
    for field, pts in ((f7, [(1, 2), (8, 3)]), (f9, [(1, 2), (3, 20)]),
                       (f7, [(-1, 2), (3, 4)]), (f7, [(1, 2), (3, -4)])):
        with pytest.raises(FieldMismatch):
            kl.interpolate(field, pts, params)


def test_interpolate_pinned_at_benchmark_sizes():
    # Q on the decoding points of planted instances at the contexts of the
    # decode and cliff benchmarks, hashed; the digest was taken from the
    # interpolation without re-encoding, which imposed every point's
    # constraints (the dense reference is too slow at these sizes)
    contexts = [kl.build_kummer(kl.build_field(29), 7, 2, 1),
                kl.build_artin_schreier(7, 1, 0),
                kl.build_kummer(kl.build_field(29), 14, 2, 1),
                kl.build_kummer(kl.build_field(31), 15, 3, 1),
                kl.build_artin_schreier(11, 1, 0),
                kl.build_kummer(kl.build_field(5, 2, rng_seed=1), 8, 6, 1)]
    digest = hashlib.sha256()
    mults = []
    for i, ctx in enumerate(contexts):
        n, q = ctx.degree, ctx.base.q
        params = kl.select_params(n, max(1, digits.curve_degree_bound(n)), digits.agreement_bound(n))
        mults.append(params.multiplicity)
        rng = random.Random(30 + i)
        for _ in range(2):
            e = digits.sample_decodable(n, q, rng)
            pts = kl.build_points(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)))
            Q = kl.interpolate(ctx.base, pts, params)
            digest.update(repr(sorted(Q.coeffs.items())).encode())
    assert mults == [8, 8, 8, 3, 3, 2]
    assert digest.hexdigest() == "57afca5ff4b9c601210cb23b94e61b8d478a5da1f05af586d69007fea3433357"


def test_interpolate_matches_module_reference_at_benchmark_sizes():
    # Q is the interpolation module's unique monic element with the least
    # leading monomial, so reducing the module's basis must give it bit for bit
    instances = list(_benchmark_size_instances())
    assert len(instances) == 12
    for field, pts, params in instances:
        assert kl.interpolate(field, pts, params).coeffs == least_element(field, pts, params)


def test_interpolate_generic_field_path(f9):
    # extension coefficients take the log/exp-table side of the ff array methods
    rng = random.Random(11)
    xs = rng.sample(f9.elements(), 5)
    t = Poly(f9, [f9.random_element(rng), f9.random_element(rng)])
    pts = [(x, t.eval(x)) for x in xs]
    params = kl.select_params(5, 1, 3)
    Q = kl.interpolate(f9, pts, params)
    assert eval_y(Q, t).is_zero()


def _dense_interpolate(field, points, params):
    """Reference Q: Gauss-Jordan elimination over the Hasse-derivative system.

    Columns are the monomials in ascending (wdeg, j, i) order; the kernel
    vector of the first free column, with a 1 there, is the answer.
    """
    zero, one = field.zero, field.one

    def power(x, e):
        acc = one
        for _ in range(e):
            acc = field.mul(acc, x)
        return acc

    monos = params.monomials()
    m = params.multiplicity
    M = []
    for a, b in points:
        for r in range(m):
            for s in range(m - r):
                M.append([field.mul(field.embed_int(math.comb(i, r) * math.comb(j, s)),
                                    field.mul(power(a, i - r), power(b, j - s)))
                          if i >= r and j >= s else zero for i, j in monos])
    pivots = {}
    for c in range(len(monos)):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c] != zero), None)
        if pr is None:
            vec = {monos[c]: one}
            for pc, prow in pivots.items():
                vec[monos[pc]] = field.neg(M[prow][c])
            return {ij: v for ij, v in vec.items() if v != zero}
        M[r], M[pr] = M[pr], M[r]
        inv = field.inv(M[r][c])
        M[r] = [field.mul(v, inv) for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != zero:
                fac = M[i][c]
                M[i] = [field.sub(u, field.mul(fac, v)) for u, v in zip(M[i], M[r])]
        pivots[c] = r
    raise AssertionError("the system has no free column")


def _corpus_fields(f8, f9):
    return ([kl.build_field(p) for p in (2, 3, 7, 31, 65537, 2**31 - 1)]
            + [f8, f9, kl.build_field(5, 2, rng_seed=1)])


def _interpolation_corpus(f8, f9, count):
    """(field, points, params) with random points over prime and extension fields:
    re-encoding edge cases first, then `count` random draws."""
    fields = _corpus_fields(f8, f9)
    rng = random.Random(18)
    f2 = fields[0]
    # (n, k, A): n <= k + 1 leaves no constraint after re-encoding ((1, 2, 5),
    # (2, 3, 4), (3, 2, 3)); k = 0 re-encodes one point; V^m y^0 starts above
    # D at (3, 1, 2), (3, 2, 3) and (2, 0, 1), and V^2 y^2 at (1, 3, 2)
    for field in (f2, f8, f9):
        for npts, k, A in ((1, 2, 5), (2, 3, 4), (3, 2, 3), (3, 1, 2), (5, 0, 2),
                           (2, 0, 1), (1, 3, 2)):
            if npts <= field.q:
                xs = rng.sample(range(field.q), npts)
                yield (field, [(x, field.random_element(rng)) for x in xs],
                       kl.select_params(npts, k, A))
    checked = 0
    while checked < count:
        # the least agreement above sqrt(k n) gives multiplicities up to 4
        # within the column cap; k = 0 (one case in four) always has m = 1
        field = fields[checked % len(fields)]
        npts = rng.randrange(min(field.q, 3), min(field.q, 8) + 1)
        k = checked % 4
        params = kl.select_params(npts, k, math.isqrt(k * npts) + 1)
        if len(params.monomials()) > 150:
            continue
        xs = rng.sample(range(field.q), npts)
        yield field, [(x, field.random_element(rng)) for x in xs], params
        checked += 1


def test_interpolate_matches_dense_elimination(f8, f9):
    for field, pts, params in _interpolation_corpus(f8, f9, 216):
        got = kl.interpolate(field, pts, params)
        assert got.coeffs == _dense_interpolate(field, pts, params), (field, pts, params)


def test_interpolate_reduces_inside_a_point():
    # just below 2^30 an int64 entry takes 8 unreduced products of residues,
    # and m = 4 imposes 10 constraints a point, so the lazy reduction of the
    # rank-1 updates runs in mid-point; int64 overflow would wrap silently
    field = kl.build_field(1073741789)
    assert field.lazy_steps == 8
    rng = random.Random(30)
    for npts, k, A in ((3, 1, 2), (6, 2, 4), (7, 4, 6), (9, 3, 6)):
        params = kl.select_params(npts, k, A)
        assert params.multiplicity == 4
        for _ in range(2):
            pts = [(x, field.random_element(rng)) for x in rng.sample(range(field.q), npts)]
            assert kl.interpolate(field, pts, params).coeffs == _dense_interpolate(field, pts, params)
    # m = 8 takes 36 constraints a point, past what an int64 holds on average
    # without the reduction; the dense reference is too slow at this size
    params = kl.select_params(7, 2, 4)
    pts = [(x, field.random_element(rng)) for x in rng.sample(range(field.q), 7)]
    Q = kl.interpolate(field, pts, params)
    assert not Q.is_zero() and Q.weighted_degree() <= params.weighted_degree_bound
    assert all(vanishes_to_order(Q, a, b, 8) for a, b in pts)


def _reference_y_roots(Q, k, rng):
    """Reference Roth-Ruckenstein recursion on Q's coefficient dict."""
    f = Q.field

    def power(x, e):
        return f.one if e == 0 else f.pow_(x, e)

    def strip_x(Q):
        v = min(i for i, _ in Q.coeffs)
        if v == 0:
            return Q
        return ld.BivariatePoly(f, Q.k, {(i - v, j): c for (i, j), c in Q.coeffs.items()})

    def shift(Q, c):
        # Q(x, x y + c), term by term through the binomial expansion
        out = {}
        for (i, j), coef in Q.coeffs.items():
            cp = f.one
            # (x y + c)^j expanded from s = j down to 0 so c-powers build up
            for s in range(j, -1, -1):
                term = f.mul(coef, f.mul(f.embed_int(math.comb(j, s)), cp))
                if term != f.zero:
                    out[(i + s, s)] = f.add(out.get((i + s, s), f.zero), term)
                if s:
                    cp = f.mul(cp, c)
        return ld.BivariatePoly(f, Q.k, out)

    def x0_section(Q):
        cs = [f.zero] * (Q.y_degree() + 1)
        for (i, j), c in Q.coeffs.items():
            if i == 0:
                cs[j] = c
        return Poly(f, cs)

    def y_section(Q, c):
        out = {}
        for (i, j), coef in Q.coeffs.items():
            out[i] = f.add(out.get(i, f.zero), f.mul(coef, power(c, j)))
        return Poly(f, [out.get(i, f.zero) for i in range(max(out, default=-1) + 1)])

    found = []

    def rec(cur, depth, prefix):
        cur = strip_x(cur)
        for c, _mult in roots(x0_section(cur), rng):
            if depth == k:
                if y_section(cur, c).is_zero():
                    found.append(Poly(f, prefix + [c]))
            else:
                rec(shift(cur, c), depth + 1, prefix + [c])

    rec(Q, 0, [])
    return sorted(set(found), key=Poly.sort_key)


def _assert_y_roots_match(Q, k, seed):
    # same list, and the same draws taken from the shared rng
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = kl.y_roots(Q, k, rng)
    assert got == _reference_y_roots(Q, k, ref_rng), (Q.field, Q.coeffs, k)
    assert rng.random() == ref_rng.random()
    return got


def _benchmark_size_instances():
    """(field, points, params) for the planted instances of
    `test_interpolate_pinned_at_benchmark_sizes`, built the same way."""
    contexts = [kl.build_kummer(kl.build_field(29), 7, 2, 1),
                kl.build_artin_schreier(7, 1, 0),
                kl.build_kummer(kl.build_field(29), 14, 2, 1),
                kl.build_kummer(kl.build_field(31), 15, 3, 1),
                kl.build_artin_schreier(11, 1, 0),
                kl.build_kummer(kl.build_field(5, 2, rng_seed=1), 8, 6, 1)]
    for i, ctx in enumerate(contexts):
        n, q = ctx.degree, ctx.base.q
        params = kl.select_params(n, max(1, digits.curve_degree_bound(n)), digits.agreement_bound(n))
        rng = random.Random(30 + i)
        for _ in range(2):
            e = digits.sample_decodable(n, q, rng)
            pts = kl.build_points(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)))
            yield ctx.base, pts, params


def test_y_roots_matches_reference_recursion(f8, f9):
    for n, (field, pts, params) in enumerate(_interpolation_corpus(f8, f9, 216)):
        _assert_y_roots_match(kl.interpolate(field, pts, params), params.k, n)
    for n, (field, pts, params) in enumerate(_benchmark_size_instances()):
        _assert_y_roots_match(kl.interpolate(field, pts, params), params.k, 300 + n)
    # two degree-2 curves through 6 of 12 points each over F_{2^31 - 1}, where
    # poly.roots splits the sections with draws from the rng
    big = kl.build_field(2**31 - 1)
    rng = random.Random(41)
    ts = [Poly(big, [big.random_nonzero(rng) for _ in range(3)]) for _ in range(2)]
    pts = [(x, ts[i % 2].eval(x)) for i, x in enumerate(rng.sample(range(big.q), 12))]
    params = kl.select_params(12, 2, 6)
    assert params.multiplicity == 3
    Q = kl.interpolate(big, pts, params)
    got = _assert_y_roots_match(Q, 2, 400)
    assert {t.coeffs for t in ts} <= {t.coeffs for t in got}
    rng = random.Random(400)
    kl.y_roots(Q, 2, rng)
    assert rng.getstate() != random.Random(400).getstate()


def test_y_roots_matches_reference_on_known_roots(f8, f9):
    fields = _corpus_fields(f8, f9)
    rng = random.Random(19)
    for n in range(72):
        field, k = fields[n % len(fields)], n % 4
        ts = [Poly(field, [field.random_element(rng) for _ in range(k + 1)])
              for _ in range(rng.randrange(1, 4))]
        # an x-power factor checks the strip at the root of the recursion
        Q = ld.BivariatePoly(field, k, {(rng.randrange(3), 0): field.one})
        for t in ts:
            Q = mul(Q, y_minus(field, k, t))
        got = _assert_y_roots_match(Q, k, n)
        assert {t.coeffs for t in got} == {t.coeffs for t in ts}


def test_y_roots_product(f7):
    t1 = Poly(f7, [1, 1])   # x + 1
    t2 = Poly(f7, [0, 2])   # 2x
    Q = mul(y_minus(f7, 1, t1), y_minus(f7, 1, t2))
    got = {t.coeffs for t in kl.y_roots(Q, 1)}
    assert got == {t1.coeffs, t2.coeffs}


def test_y_roots_edge_cases(f7):
    just_y = ld.BivariatePoly(f7, 1, {(0, 1): 1})
    assert [t.coeffs for t in kl.y_roots(just_y, 1)] == [()]  # t = 0
    just_x = ld.BivariatePoly(f7, 1, {(1, 0): 1})
    assert kl.y_roots(just_x, 1) == []
    with pytest.raises(ValueError):
        kl.y_roots(ld.BivariatePoly.zero(f7, 1), 1)
    with pytest.raises(ValueError):
        kl.y_roots(just_y, -1)


def test_y_roots_bound(f31):
    rng = random.Random(12)
    for _ in range(20):
        pts = [(x, f31.random_element(rng)) for x in rng.sample(range(31), 10)]
        k = rng.randrange(1, 3)
        A = math.isqrt(k * 10) + 1 + rng.randrange(0, 3)
        if A > 10:
            continue
        params = kl.select_params(10, k, A)
        Q = kl.interpolate(f31, pts, params)
        roots = kl.y_roots(Q, k)
        assert len(roots) <= params.weighted_degree_bound // k


def test_list_decode_planted(f31):
    rng = random.Random(13)
    for _ in range(10):
        t = Poly(f31, [rng.randrange(31) for _ in range(5)])
        xs = rng.sample(range(31), 15)
        pts = []
        for idx, x in enumerate(xs):
            if idx < 9:
                pts.append((x, t.eval(x)))
            else:
                pts.append((x, rng.randrange(31)))
        found = kl.list_decode(f31, pts, 4, 9, rng)
        assert any(s == t for s in found)


def test_list_decode_all_points_on_curve(f7):
    t = Poly(f7, [3, 2])
    pts = [(x, t.eval(x)) for x in range(7)]
    found = kl.list_decode(f7, pts, 1, 4, random.Random(14))
    assert any(s == t for s in found)


def test_list_decode_exhaustive_f5(f5):
    # completeness against all 25 linear candidates with agreement >= 3
    rng = random.Random(15)
    for _ in range(20):
        pts = [(x, rng.randrange(5)) for x in range(5)]
        found = {t.coeffs for t in kl.list_decode(f5, pts, 1, 3, rng)}
        for c0, c1 in itertools.product(range(5), repeat=2):
            t = Poly(f5, [c0, c1])
            if ld.agreement(t, pts) >= 3:
                assert t.coeffs in found


def test_list_decode_completeness_extension_field(f4, f9):
    rng = random.Random(16)
    for field in (f4, f9):
        q = field.q
        for _ in range(10):
            npts = rng.randrange(3, q + 1)
            xs = rng.sample(field.elements(), npts)
            pts = [(x, field.random_element(rng)) for x in xs]
            k = 1
            a_min = math.isqrt(k * npts) + 1
            if a_min > npts:
                continue
            A = rng.randrange(a_min, npts + 1)
            found = {t.coeffs for t in kl.list_decode(field, pts, k, A, rng)}
            for cand in itertools.product(field.elements(), repeat=k + 1):
                t = Poly(field, list(cand))
                if ld.agreement(t, pts) >= A:
                    assert t.coeffs in found


def _lagrange(p, pts):
    """Coefficients, low to high, of the curve of degree < len(pts) through
    pts over F_p, by Lagrange's formula."""
    coeffs = [0] * len(pts)
    for i, (xi, yi) in enumerate(pts):
        basis, denom = [1], 1
        for j, (xj, _) in enumerate(pts):
            if j != i:
                basis = [(a - xj * b) % p for a, b in zip([0] + basis, basis + [0])]
                denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p) % p
        coeffs = [(c + scale * b) % p for c, b in zip(coeffs, basis)]
    return coeffs


def _horner(p, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@pytest.mark.parametrize("q, n, k, A", [(31, 15, 4, 9), (29, 14, 4, 8)])
def test_list_decode_complete_at_benchmark_sizes(q, n, k, A):
    # a curve of degree <= k through >= A of the points passes through some
    # k + 1 of them, so interpolating every (k + 1)-subset lists every curve
    # that list_decode must return
    field = kl.build_field(q)
    for seed in range(4):
        rng = random.Random(seed)
        xs = rng.sample(range(q), n)
        ys = [rng.randrange(q) for _ in range(n)]
        planted = [_lagrange(q, list(zip(xs, ys))[:k + 1])]
        ys[:A] = [_horner(q, planted[0], x) for x in xs[:A]]
        if seed % 2:
            # a second curve through 2A - n of the first one's points and the
            # other n - A, so it too meets A points
            pts = list(zip(xs, ys))
            planted.append(_lagrange(q, pts[n - A:A] + pts[A:A + k + 1 - (2 * A - n)]))
            ys[A:] = [_horner(q, planted[1], x) for x in xs[A:]]
        pts = list(zip(xs, ys))
        rng.shuffle(pts)
        want = set()
        for subset in itertools.combinations(pts, k + 1):
            coeffs = _lagrange(q, subset)
            if sum(_horner(q, coeffs, x) == y for x, y in pts) >= A:
                want.add(Poly(field, coeffs).coeffs)
        assert len({Poly(field, c).coeffs for c in planted} & want) == len(planted) == 1 + seed % 2
        got = {t.coeffs for t in kl.list_decode(field, pts, k, A, rng)}
        assert want <= got


def test_list_decode_constants_k0(f7):
    rng = random.Random(17)
    pts = [(x, 3 if x < 4 else x % 3) for x in range(7)]
    found = {t.coeffs for t in kl.list_decode(f7, pts, 0, 3, rng)}
    assert (3,) in found  # the constant 3 agrees with 4 points


def test_hasse_derivative_values(f5):
    # D^(r,s) of x^2 y at (a, b): comb-shifted coefficients
    Q = ld.BivariatePoly(f5, 1, {(2, 1): 1})
    assert hasse_eval(Q, 2, 3, 0, 0) == (4 * 3) % 5
    assert hasse_eval(Q, 2, 3, 1, 0) == (2 * 2 * 3) % 5   # 2ab
    assert hasse_eval(Q, 2, 3, 2, 0) == 3                 # b
    assert hasse_eval(Q, 2, 3, 0, 1) == 4                 # a^2
    assert hasse_eval(Q, 2, 3, 1, 1) == 4                 # 2a
