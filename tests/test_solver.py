import random

import pytest

import kummerlog as kl
from kummerlog import solver
from kummerlog.digits import agreement_bound, curve_degree_bound, relaxed_sum_bound
from kummerlog.extfield import ContextMismatch


def _instance(ctx, digits):
    e = kl.ExponentDigits(ctx.base.q, digits)
    return e, kl.DlpInstance(ctx, kl.encode_digits(ctx, e))


def test_instance_validation(kummer54, as5):
    with pytest.raises(ValueError):
        kl.DlpInstance(kummer54, kummer54.zero_element)
    with pytest.raises(ContextMismatch):
        kl.DlpInstance(kummer54, as5.one_element)


def test_build_points_examples(kummer54, as5):
    _, inst = _instance(kummer54, (1, 0, 2, 0))
    assert [x for x, _ in kl.build_points(inst)] == [4, 2, 1, 3]
    # target 1: y_i = -1/denom = 1 for every point
    one = kl.DlpInstance(kummer54, kummer54.one_element)
    assert [y for _, y in kl.build_points(one)] == [1, 1, 1, 1]
    _, ainst = _instance(as5, (1, 0, 0, 0, 0))
    assert [x for x, _ in kl.build_points(ainst)] == [0, 4, 3, 2, 1]


def test_points_lie_on_planted_curve(kummer3115):
    # whenever digit i is nonzero, the candidate curve passes point i
    ctx = kummer3115
    rng = random.Random(20)
    for _ in range(10):
        e = kl.sample_bounded_sum(15, 31, relaxed_sum_bound(15), rng)
        inst = kl.DlpInstance(ctx, kl.encode_digits(ctx, e))
        pts = kl.build_points(inst)
        f = inst.target.poly
        prod = kl.Poly.one(ctx.base)
        for i, d in enumerate(e.digits):
            for _ in range(d):
                prod = prod * kl.frobenius_power(ctx, i).poly
        t = (prod - f) // ctx.modulus
        assert f + ctx.modulus * t == prod
        for i, d in enumerate(e.digits):
            if d:
                x, y = pts[i]
                assert t.eval(x) == y


def test_solve_bounded_worked_value(kummer54):
    target = kummer54.element([1, 4, 4, 1])
    out = kl.solve_bounded(kl.DlpInstance(kummer54, target))
    assert tuple(out.digits) == (1, 0, 2, 0)
    assert out.exponent() == 51
    assert out.method == "direct"
    assert out.verified


def test_solve_bounded_identity(kummer54):
    out = kl.solve_bounded(kl.DlpInstance(kummer54, kummer54.one_element))
    assert tuple(out.digits) == (0, 0, 0, 0)


def test_solve_bounded_boundary(kummer54):
    e, inst = _instance(kummer54, (1, 1, 1, 1))  # digit sum = n
    out = kl.solve_bounded(inst)
    assert tuple(out.digits) == tuple(e)
    assert out.method == "boundary"


def test_solve_bounded_rejects_unrepresentable(kummer54):
    # ord(g) = 312 < 5^4, so some big-sum exponents alias to bounded ones;
    # gate on the exhaustive oracle finding no bounded representation at all
    rng = random.Random(21)
    checked = 0
    for _ in range(60):
        e = kl.ExponentDigits(5, tuple(rng.randrange(5) for _ in range(4)))
        if e.digit_sum() <= 4:
            continue
        target = kl.encode_digits(kummer54, e)
        if kl.exhaustive_dlp_bounded(kummer54, target, 4):
            continue
        checked += 1
        with pytest.raises((solver.NotSplit, solver.RootNotInTable)):
            kl.solve_bounded(kl.DlpInstance(kummer54, target), rng)
    assert checked > 10


def test_solve_bounded_lc_mismatch(kummer54):
    # 2(x + 4) splits with a tabled root but the wrong leading coefficient
    target = kummer54.element([3, 2])
    with pytest.raises((solver.NotSplit, solver.RootNotInTable)):
        kl.solve_bounded(kl.DlpInstance(kummer54, target))


def test_solve_bounded_roundtrip_all_contexts(f5, f7, f31):
    cases = [kl.build_kummer(f5, 4, 2, 1), kl.build_kummer(f7, 6, 3, 1),
             kl.build_kummer(f7, 3, 2, 1), kl.build_kummer(f31, 15, 3, 1),
             kl.build_kummer(kl.build_field(13), 4, 2, 1),
             kl.build_kummer(kl.build_field(2, 3, rng_seed=1), 7, 2, 1)]
    rng = random.Random(22)
    for ctx in cases:
        n, q = ctx.degree, ctx.base.q
        for _ in range(30):
            e = kl.sample_bounded_sum(n, q, n, rng)
            out = kl.solve_bounded(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
            assert tuple(out.digits) == tuple(e)


def test_solve_bounded_artin_schreier(as5, as7):
    rng = random.Random(23)
    for ctx in (as5, as7, kl.build_artin_schreier(11, 1, 0)):
        p = ctx.p
        for _ in range(30):
            e = kl.sample_bounded_sum(p, p, p - 1, rng)
            out = kl.solve_bounded(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
            assert tuple(out.digits) == tuple(e)


def test_uniqueness_small(kummer54):
    seen = {}
    vecs = [v for v in _all_vectors(4, 5) if sum(v) <= 4]
    assert len(vecs) == 70
    for v in vecs:
        key = kl.encode_digits(kummer54, kl.ExponentDigits(5, v)).key()
        assert key not in seen
        seen[key] = v


def _all_vectors(n, q):
    import itertools
    return list(itertools.product(range(q), repeat=n))


def test_solve_listdecode_planted(kummer3115):
    ctx = kummer3115
    rng = random.Random(24)
    n, q = 15, 31
    bound, need = relaxed_sum_bound(n), agreement_bound(n)
    for _ in range(15):
        while True:
            e = kl.sample_bounded_sum(n, q, bound, rng)
            if e.nonzero_count() >= need:
                break
        out = kl.solve_listdecode(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
        assert tuple(out.digits) == tuple(e)
        assert out.method == "list_decode"


def test_solve_listdecode_subsumes_bounded(kummer54, as5):
    rng = random.Random(25)
    for ctx in (kummer54, as5):
        n, q = ctx.degree, ctx.base.q
        for _ in range(20):
            e = kl.sample_bounded_sum(n, q, n if ctx.kind == "kummer" else n - 1, rng)
            out = kl.solve_listdecode(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
            assert tuple(out.digits) == tuple(e)


def test_solve_listdecode_boundary_sum_p(as5):
    # Artin-Schreier digit sum exactly p exercises the t = 1 candidate;
    # uniqueness is only promised below p, so compare against the oracle's
    # full bounded-representation set
    e = kl.ExponentDigits(5, (2, 1, 1, 1, 0))
    target = kl.encode_digits(as5, e)
    reps = {tuple(r) for r in kl.exhaustive_dlp_bounded(as5, target, 5)}
    assert tuple(e) in reps
    out = kl.solve_listdecode(kl.DlpInstance(as5, target))
    assert tuple(out.digits) in reps
    assert kl.encode_digits(as5, out.digits) == target


def test_as_all_ones_collision(as5):
    # with b = 0 the product over every conjugate is x^p - x at alpha, i.e. a;
    # for a = 1 the all-ones digit vector collides with zero (digit sum p is
    # outside the uniqueness regime, which stops at p - 1)
    top = kl.encode_digits(as5, kl.ExponentDigits(5, (1, 1, 1, 1, 1)))
    assert top == as5.one_element


def test_solve_listdecode_identity(kummer54):
    out = kl.solve_listdecode(kl.DlpInstance(kummer54, kummer54.one_element))
    assert tuple(out.digits) == (0, 0, 0, 0)


def test_solve_listdecode_no_candidate(kummer3115):
    # digit sum far above 1.32n cannot be expressed with deg t <= k
    ctx = kummer3115
    e = kl.ExponentDigits(31, (2,) * 15)  # sum 30 > 19
    inst = kl.DlpInstance(ctx, kl.encode_digits(ctx, e))
    with pytest.raises(solver.NoCandidate):
        kl.solve_listdecode(inst, random.Random(26))


def test_solve_listdecode_artin_schreier_relaxed(as7):
    ctx = as7
    rng = random.Random(27)
    p = ctx.p
    bound, need = relaxed_sum_bound(p), agreement_bound(p)
    hits = 0
    for _ in range(40):
        e = kl.sample_bounded_sum(p, p, bound, rng)
        if e.nonzero_count() < need:
            continue
        hits += 1
        out = kl.solve_listdecode(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
        assert tuple(out.digits) == tuple(e)
    assert hits > 5


def test_solve_auto_methods(kummer54, kummer3115):
    rng = random.Random(28)
    e, inst = _instance(kummer54, (1, 0, 2, 0))
    assert kl.solve_auto(inst, rng=rng).method == "direct"

    ctx = kummer3115
    while True:
        e = kl.sample_bounded_sum(15, 31, 19, rng)
        if e.nonzero_count() >= 9 and e.digit_sum() > 15:
            break
    out = kl.solve_auto(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng=rng)
    assert out.method == "list_decode"
    assert tuple(out.digits) == tuple(e)


def test_solve_auto_fallback(kummer54):
    # digit sum 15 with low agreement defeats both structured solvers;
    # the BSGS fallback still returns a verified exponent (624 group elements)
    e, inst = _instance(kummer54, (4, 4, 4, 3))
    out = kl.solve_auto(inst, rng=random.Random(29))
    assert out.method == "fallback"
    assert kl.encode_digits(kummer54, out.digits) == inst.target


def test_solve_auto_w_hint_changes_start_only(kummer54):
    e, inst = _instance(kummer54, (1, 0, 2, 0))
    for hint in (2, 5, 100):
        out = kl.solve_auto(inst, w_hint=hint, rng=random.Random(30))
        assert kl.encode_digits(kummer54, out.digits) == inst.target


def test_solve_auto_always_verifies(kummer54, as5):
    rng = random.Random(31)
    for ctx in (kummer54, as5):
        q, n = ctx.base.q, ctx.degree
        for _ in range(25):
            e = kl.ExponentDigits(q, tuple(rng.randrange(q) for _ in range(n)))
            if kl.sum_of_digits(e) == 0:
                continue
            inst = kl.DlpInstance(ctx, kl.encode_digits(ctx, e))
            out = kl.solve_auto(inst, rng=rng)
            assert out.verified
            assert kl.encode_digits(ctx, out.digits) == inst.target


def test_agreement_always_exceeds_the_johnson_bound():
    # lets the solver call list_decode without catching AgreementTooSmall
    for n in range(2, 10_001):
        assert agreement_bound(n) ** 2 > max(1, curve_degree_bound(n)) * n


def _factor_calls(monkeypatch, solve, inst):
    calls = []
    real = solver.factor

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "factor", counting)
        try:
            solve(inst, rng=random.Random(32))
        except solver.NoCandidate:
            pass
    return len(calls)


def test_solve_auto_reads_each_candidate_off_once(monkeypatch, kummer3115, kummer54):
    rng = random.Random(33)
    while True:
        e = kl.sample_bounded_sum(15, 31, 19, rng)
        if e.nonzero_count() >= agreement_bound(15) and e.digit_sum() > 15:
            break
    decodable = kl.DlpInstance(kummer3115, kl.encode_digits(kummer3115, e))
    _, undecodable = _instance(kummer54, (4, 4, 4, 3))
    for inst in (decodable, undecodable):
        # solve_auto reads off what solve_listdecode does; BSGS adds no read-off
        assert (_factor_calls(monkeypatch, kl.solve_auto, inst)
                == _factor_calls(monkeypatch, kl.solve_listdecode, inst))
