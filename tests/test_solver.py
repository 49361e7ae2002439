import random
from fractions import Fraction

import pytest

import kummerlog as kl
from kummerlog import oracle, solver
from kummerlog.digits import (agreement_bound, curve_degree_bound, decodable, failure_share,
                              relaxed_sum_bound, sample_decodable)
from kummerlog.extfield import ContextMismatch
from kummerlog.poly import Poly


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


def test_read_off_refuses_a_multiplicity_past_the_digits(kummer54):
    # a digit is below q = 5, so (x - x_0)^5 reads off no digit vector
    base = kummer54.base
    F = Poly.one(base)
    for _ in range(5):
        F = F * Poly(base, [base.neg(kummer54.point_xs[0]), base.one])
    with pytest.raises(solver.RootNotInTable, match="multiplicity 5 exceeds the digit range"):
        solver._read_digits(kummer54, F, random.Random(0))


def test_read_off_failures_are_one_type(kummer54):
    # NotSplit and RootNotInTable name the two reasons; callers catch the base
    assert issubclass(solver.NotSplit, solver.ReadOffFailed)
    assert issubclass(solver.RootNotInTable, solver.ReadOffFailed)
    with pytest.raises(solver.ReadOffFailed):
        kl.solve_bounded(kl.DlpInstance(kummer54, kummer54.element([3, 2])))


def test_solve_bounded_artin_schreier(as5, as7):
    rng = random.Random(23)
    for ctx in (as5, as7, kl.build_artin_schreier(11, 1, 0)):
        p = ctx.p
        for _ in range(30):
            e = kl.sample_bounded_sum(p, p, p - 1, rng)
            out = kl.solve_bounded(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
            assert tuple(out.digits) == tuple(e)


def _all_vectors(n, q):
    import itertools
    return list(itertools.product(range(q), repeat=n))


def _decoded_only(n, q, rng):
    """A `sample_decodable` draw with digit sum above n: only the decoder reaches it."""
    e = sample_decodable(n, q, rng)
    while e.digit_sum() <= n:
        e = sample_decodable(n, q, rng)
    return e


def test_solve_listdecode_planted(kummer3115):
    ctx = kummer3115
    rng = random.Random(24)
    for _ in range(15):
        e = sample_decodable(15, 31, rng)
        out = kl.solve_listdecode(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
        assert tuple(out.digits) == tuple(e)
        assert out.method == "list_decode"


def test_solve_listdecode_worst_cliff():
    # (q, n) = (191, 19) has the largest interpolation system below n = 30:
    # m = 17 and 3008 monomial columns
    n, q = 19, 191
    params = kl.select_params(n, max(1, curve_degree_bound(n)), agreement_bound(n))
    assert (params.multiplicity, len(params.monomials())) == (17, 3008)
    ctx = kl.build_kummer(kl.build_field(q), n, 2, 1)
    rng = random.Random(25)
    e = _decoded_only(n, q, rng)
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
    relaxed = 0
    for _ in range(30):
        e = sample_decodable(p, p, rng)
        relaxed += e.digit_sum() > p
        out = kl.solve_listdecode(kl.DlpInstance(ctx, kl.encode_digits(ctx, e)), rng)
        assert tuple(out.digits) == tuple(e)
    assert relaxed > 5


def test_every_decodable_vector_is_solved(kummer54, as5, f7):
    # exhaustive over the relaxed range: whatever `decodable` accepts, the
    # relaxed solver returns verified, and the share it rejects is exact
    for ctx in (kummer54, as5, kl.build_kummer(f7, 6, 3, 1)):
        n, q = ctx.degree, ctx.base.q
        vecs = [kl.ExponentDigits(q, v) for v in _all_vectors(n, q)
                if sum(v) <= relaxed_sum_bound(n)]
        reached = [e for e in vecs if decodable(e)]
        rng = random.Random(34)
        for e in reached:
            inst = kl.DlpInstance(ctx, kl.encode_digits(ctx, e))
            out = kl.solve_listdecode(inst, rng)
            assert kl.encode_digits(ctx, out.digits) == inst.target, tuple(e)
        assert Fraction(len(vecs) - len(reached), len(vecs)) == failure_share(n, q)


def test_solve_auto_methods(kummer54, kummer3115):
    rng = random.Random(28)
    e, inst = _instance(kummer54, (1, 0, 2, 0))
    assert kl.solve_auto(inst, rng=rng).method == "direct"

    ctx = kummer3115
    e = _decoded_only(15, 31, rng)
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


def test_solve_auto_fallback_outside_the_subgroup(kummer54):
    # ord(g) = 312 < 624 and alpha has order 16, so no exponent reaches it
    with pytest.raises(solver.Unsolvable, match="not a power of g") as exc:
        kl.solve_auto(kl.DlpInstance(kummer54, kummer54.alpha), rng=random.Random(37))
    assert "all strategies failed" in str(exc.value)


def test_solve_auto_fallback_budget(f31):
    # the largest prime of ord(g) at (31, 6) is 331, which needs 19 baby steps
    ctx = kl.build_kummer(f31, 6, 3, 1)
    e, inst = _instance(ctx, (30, 30, 29, 30, 30, 30))
    with pytest.raises(solver.Unsolvable, match="exceeded budget"):
        kl.solve_auto(inst, rng=random.Random(38), budget=oracle.GroupBudget(max_baby_steps=18))
    out = kl.solve_auto(inst, rng=random.Random(38), budget=oracle.GroupBudget(max_baby_steps=19))
    assert out.method == "fallback"


def test_solve_auto_fallback_factoring_guard(monkeypatch):
    # a group order at the guard is refused before any factoring starts
    ctx = kl.build_kummer(kl.build_field(5), 4, 2, 1)
    _, inst = _instance(ctx, (4, 4, 4, 3))
    monkeypatch.setattr(oracle, "FACTOR_GUARD", 1 << 9)
    monkeypatch.setattr(oracle, "factorize", None)
    with pytest.raises(solver.Unsolvable, match=r"factoring guard \(2\^9\)"):
        kl.solve_auto(inst, rng=random.Random(39))


def test_solve_auto_uniform_exponent_in_f_q_to_the_q_minus_1():
    # the paper's F_{q^(q-1)} at q = 13: plain BSGS would need 4.8M baby steps,
    # while the largest prime of the group order is 28393
    q = 13
    ctx = kl.build_kummer(kl.build_field(q), q - 1, 2, 1)
    group_order = q ** (q - 1) - 1
    e = random.Random(40).randrange(group_order)
    target = kl.ext_pow(ctx.generator, e)
    with pytest.raises(oracle.BudgetExceeded):
        kl.bsgs_dlp(ctx.generator, target, group_order)
    out = kl.solve_auto(kl.DlpInstance(ctx, target), w_hint=(q - 1) * (q - 1),
                        rng=random.Random(41))
    assert out.method == "fallback"
    order, _ = ctx.generator_order
    assert out.exponent() == e % order
    assert kl.encode_digits(ctx, out.digits) == target


def test_solve_auto_w_hint_changes_start_only(kummer54):
    e, inst = _instance(kummer54, (1, 0, 2, 0))
    for hint in (2, 5, 100):
        out = kl.solve_auto(inst, w_hint=hint, rng=random.Random(30))
        assert kl.encode_digits(kummer54, out.digits) == inst.target


def test_solve_auto_fallback_first_then_read_off(kummer54):
    # w_hint 100 > relaxed bound 5 runs the fallback first.  Alpha is not a
    # power of g, so both strategies fail; with 2 baby steps the fallback is
    # refused (ord(g) = 312 has the prime 13, which needs 4) and the read-off
    # still solves
    assert relaxed_sum_bound(4) == 5
    with pytest.raises(solver.Unsolvable, match="all strategies failed"):
        kl.solve_auto(kl.DlpInstance(kummer54, kummer54.alpha), w_hint=100,
                      rng=random.Random(42))
    e, inst = _instance(kummer54, (1, 0, 2, 0))
    out = kl.solve_auto(inst, w_hint=100, rng=random.Random(43),
                        budget=oracle.GroupBudget(max_baby_steps=2))
    assert out.method == "direct"
    assert tuple(out.digits) == tuple(e)


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
    e = _decoded_only(15, 31, rng)
    reached = kl.DlpInstance(kummer3115, kl.encode_digits(kummer3115, e))
    _, unreached = _instance(kummer54, (4, 4, 4, 3))
    for inst in (reached, unreached):
        # solve_auto reads off what solve_listdecode does; BSGS adds no read-off
        assert (_factor_calls(monkeypatch, kl.solve_auto, inst)
                == _factor_calls(monkeypatch, kl.solve_listdecode, inst))
