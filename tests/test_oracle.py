import itertools
import math
import random

import pytest

import kummerlog as kl
from kummerlog import ff, oracle
from kummerlog.oracle import GroupBudget


class FieldUnit:
    """A unit of F_q^* wrapped with group operations, for the generic engines."""

    __slots__ = ("field", "value")

    def __init__(self, field: ff.Field, value: int):
        self.field = field
        self.value = field.validate(value)

    def __mul__(self, other):
        return FieldUnit(self.field, self.field.mul(self.value, other.value))

    def inv(self):
        return FieldUnit(self.field, self.field.inv(self.value))

    def pow_int(self, e: int):
        return FieldUnit(self.field, self.field.pow_(self.value, e))

    def __eq__(self, other):
        return (isinstance(other, FieldUnit) and self.field == other.field
                and self.value == other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"FieldUnit({self.value} in {self.field!r})"


def test_bsgs_prime_field_example(f5):
    g, y = FieldUnit(f5, 2), FieldUnit(f5, 3)
    assert kl.bsgs_dlp(g, y, 4) == 3  # 2^3 = 8 = 3 mod 5
    assert kl.bsgs_dlp(g, FieldUnit(f5, 1), 4) == 0


def test_bsgs_extension_example(kummer54):
    target = kummer54.element([1, 4, 4, 1])
    assert kl.bsgs_dlp(kummer54.generator, target, 624) == 51


def test_bsgs_returns_least_exponent(f5):
    g = FieldUnit(f5, 4)  # order 2
    assert kl.bsgs_dlp(g, FieldUnit(f5, 1), 100) == 0
    assert kl.bsgs_dlp(g, FieldUnit(f5, 4), 100) == 1


def test_bsgs_refuses_an_empty_order_bound(f5):
    with pytest.raises(ValueError, match="order_bound"):
        kl.bsgs_dlp(FieldUnit(f5, 2), FieldUnit(f5, 3), 0)


def test_bsgs_not_in_subgroup(f5):
    g = FieldUnit(f5, 4)  # powers are {1, 4}
    with pytest.raises(oracle.NotInSubgroup):
        kl.bsgs_dlp(g, FieldUnit(f5, 2), 100)


def test_bsgs_budget(f5):
    with pytest.raises(oracle.BudgetExceeded):
        kl.bsgs_dlp(FieldUnit(f5, 2), FieldUnit(f5, 3), 100, GroupBudget(max_baby_steps=5))
    with pytest.raises(ValueError):
        GroupBudget(max_baby_steps=10, max_order=1000)


def test_engines_refuse_a_zero_g(f5, kummer54):
    # the identity is g^0, which a zero g (no group element) refuses at once
    one = kummer54.one_element
    for g in (FieldUnit(f5, 0), kummer54.zero_element):
        with pytest.raises(ff.ZeroToZero):
            kl.bsgs_dlp(g, g, 4)
        with pytest.raises(ff.ZeroToZero):
            kl.bsgs_dlp(g, g, 4, None, [2, 2])
        with pytest.raises(ff.ZeroToZero):
            kl.element_order(g, 4, [2, 2])
    with pytest.raises(ff.ZeroToZero):
        kl.meet_in_middle_binary(kummer54.zero_element, one, 4, 0)


def test_element_order_examples(f5, kummer54):
    assert kl.element_order(FieldUnit(f5, 2), 4, [2, 2]) == 4
    assert kl.element_order(FieldUnit(f5, 1), 4, [2, 2]) == 1
    order = kl.element_order(kummer54.generator, 624, [2, 2, 2, 2, 3, 13])
    assert 624 % order == 0 and order > 2 ** 4
    g = kummer54.generator
    assert kl.ext_pow(g, order) == kummer54.one_element
    for r in set(kl.factorize(order)):
        assert kl.ext_pow(g, order // r) != kummer54.one_element


def test_element_order_bad_factorization(f5):
    with pytest.raises(oracle.BadFactorization):
        kl.element_order(FieldUnit(f5, 2), 4, [2])          # wrong product
    with pytest.raises(oracle.BadFactorization):
        kl.element_order(FieldUnit(f5, 2), 4, [4])          # composite entry
    with pytest.raises(oracle.BadFactorization):
        kl.element_order(FieldUnit(f5, 2), 3, [3])          # 2^3 != 1


def test_exhaustive_dlp_unique_answer(kummer54):
    target = kl.encode_digits(kummer54, kl.ExponentDigits(5, (1, 0, 2, 0)))
    found = kl.exhaustive_dlp_bounded(kummer54, target, 4)
    assert [tuple(e) for e in found] == [(1, 0, 2, 0)]


def test_exhaustive_dlp_empty_for_unbounded_target(kummer54):
    # digit sum 10; no vector with sum <= 4 can reach it, including modulo ord(g)
    e = kl.ExponentDigits(5, (4, 4, 2, 0))
    order = kl.element_order(kummer54.generator, 624, kl.factorize(624))
    assert all((e.to_int() - other) % order for other in range(0, 625)
               if _digit_sum_base5(other) <= 4 and other != e.to_int())
    target = kl.encode_digits(kummer54, e)
    assert kl.exhaustive_dlp_bounded(kummer54, target, 4) == []


def _digit_sum_base5(v):
    s = 0
    while v:
        s += v % 5
        v //= 5
    return s


def test_exhaustive_dlp_zero_bound(kummer54):
    found = kl.exhaustive_dlp_bounded(kummer54, kummer54.one_element, 0)
    assert [tuple(e) for e in found] == [(0, 0, 0, 0)]


def test_exhaustive_dlp_negative_bound(kummer54):
    assert kl.exhaustive_dlp_bounded(kummer54, kummer54.one_element, -1) == []


def test_exhaustive_dlp_budget(kummer3115):
    with pytest.raises(oracle.BudgetExceeded):
        kl.exhaustive_dlp_bounded(kummer3115, kummer3115.one_element, 15, budget=1000)


def test_meet_in_middle_examples(kummer54):
    g = kummer54.generator
    e = kl.ExponentDigits(5, (1, 0, 1, 0))
    y = kl.encode_digits(kummer54, e)
    assert kl.meet_in_middle_binary(g, y, 4, 2) == 26  # 1 + 25
    assert kl.meet_in_middle_binary(g, kummer54.one_element, 4, 0) == 0


def test_meet_in_middle_weight3(f7):
    ctx = kl.build_kummer(f7, 6, 3, 1)
    g = ctx.generator
    rng = random.Random(33)
    for _ in range(10):
        # plant patterns compatible with the half-split +-1 slack
        while True:
            pos = rng.sample(range(6), 3)
            wl = sum(1 for i in pos if i < 3)
            if 0 <= wl <= 2:
                break
        e = kl.ExponentDigits(7, tuple(1 if i in pos else 0 for i in range(6)))
        y = kl.encode_digits(ctx, e)
        assert kl.meet_in_middle_binary(g, y, 6, 3) == e.to_int()


def test_meet_in_middle_slack_violation(f7):
    # all three 1-digits on the left half exceeds the +-1 slack: documented NotFound
    ctx = kl.build_kummer(f7, 6, 3, 1)
    e = kl.ExponentDigits(7, (1, 1, 1, 0, 0, 0))
    y = kl.encode_digits(ctx, e)
    with pytest.raises(oracle.NotFound):
        kl.meet_in_middle_binary(ctx.generator, y, 6, 3)
    # at w = 4 the slack is centred on w // 2: every split of four 1s over
    # the two halves of 3 (left weight 1 to 3) is found
    for pos in itertools.combinations(range(6), 4):
        e = kl.ExponentDigits(7, tuple(1 if i in pos else 0 for i in range(6)))
        y = kl.encode_digits(ctx, e)
        assert kl.meet_in_middle_binary(ctx.generator, y, 6, 4) == e.to_int()


def test_meet_in_middle_wrong_weight(kummer54):
    with pytest.raises(oracle.NotFound):
        kl.meet_in_middle_binary(kummer54.generator, kummer54.one_element, 4, 1)
    # weight 0 claims y = 1
    alpha = kummer54.element([0, 1, 0, 0])
    with pytest.raises(oracle.NotFound, match="weight 0"):
        kl.meet_in_middle_binary(kummer54.generator, alpha, 4, 0)


def test_factorize_basic():
    assert kl.factorize(1) == []
    assert kl.factorize(12) == [2, 2, 3]
    assert kl.factorize(624) == [2, 2, 2, 2, 3, 13]
    assert kl.factorize(7 ** 7 - 1) == [2, 3, 29, 4733]
    with pytest.raises(ValueError):
        kl.factorize(0)


def test_factorize_random_roundtrip():
    rng = random.Random(34)
    for _ in range(30):
        m = rng.randrange(2, 10 ** 9)
        fac = kl.factorize(m)
        assert math.prod(fac) == m
        assert all(oracle._is_probable_prime(p) for p in fac)


def test_factorize_semiprime_pollard():
    p, q = 1_000_003, 1_000_033
    assert kl.factorize(p * q) == [p, q]
    # around 2^60, well past trial division
    p2, q2 = 1_073_741_827, 1_073_741_831
    assert kl.factorize(p2 * q2) == sorted([p2, q2])


def test_bsgs_agrees_with_solver_full_sweep(kummer54):
    # every bounded exponent at (q, n) = (5, 4): bsgs and the reader agree
    import itertools
    rng = random.Random(35)
    for v in itertools.product(range(5), repeat=4):
        if sum(v) > 4:
            continue
        e = kl.ExponentDigits(5, v)
        target = kl.encode_digits(kummer54, e)
        out = kl.solve_bounded(kl.DlpInstance(kummer54, target), rng)
        x = kl.bsgs_dlp(kummer54.generator, target, 624)
        assert tuple(out.digits) == v
        assert kl.ext_pow(kummer54.generator, x) == target


# -- Pohlig-Hellman: bsgs_dlp given the factored order ---------------------------


def _pohlig_hellman(ctx, y, budget=None):
    order, factorization = ctx.generator_order
    return kl.bsgs_dlp(ctx.generator, y, order, budget, factorization)


@pytest.mark.parametrize("p, n, a, trials", [(5, 4, 2, 30), (7, 6, 3, 20), (31, 6, 3, 2)])
def test_pohlig_hellman_matches_plain_bsgs(p, n, a, trials):
    ctx = kl.build_kummer(kl.build_field(p), n, a, 1)
    group_order = p ** n - 1
    rng = random.Random(40 + p)
    for _ in range(trials):
        y = kl.ext_pow(ctx.generator, rng.randrange(group_order))
        x = kl.bsgs_dlp(ctx.generator, y, group_order)
        assert _pohlig_hellman(ctx, y) == x
        # a multiple of ord(g) serves as well: the group order itself
        assert kl.bsgs_dlp(ctx.generator, y, group_order, None, kl.factorize(group_order)) == x


@pytest.mark.parametrize("p, n, a, s_max", [(5, 4, 2, 3), (7, 6, 3, 2)])
def test_pohlig_hellman_agrees_with_exhaustive_search(p, n, a, s_max):
    ctx = kl.build_kummer(kl.build_field(p), n, a, 1)
    order, _ = ctx.generator_order
    for v in itertools.product(range(p), repeat=n):
        if sum(v) > s_max:
            continue
        target = kl.encode_digits(ctx, kl.ExponentDigits(p, v))
        x = _pohlig_hellman(ctx, target)
        found = kl.exhaustive_dlp_bounded(ctx, target, 2 * s_max)
        assert x < order
        assert {e.to_int() % order for e in found} == {x}


def test_pohlig_hellman_prime_field(f5):
    g = FieldUnit(f5, 2)
    assert [kl.bsgs_dlp(g, FieldUnit(f5, y), 4, None, [2, 2]) for y in (1, 2, 4, 3)] == [0, 1, 2, 3]
    with pytest.raises(oracle.NotInSubgroup):
        kl.bsgs_dlp(FieldUnit(f5, 4), FieldUnit(f5, 2), 4, None, [2, 2])


def test_pohlig_hellman_not_in_subgroup(kummer54):
    order, factorization = kummer54.generator_order
    assert (order, factorization) == (312, (2, 2, 2, 3, 13))
    # alpha^4 = 2 has order 4, so alpha has order 16, which does not divide 312
    with pytest.raises(oracle.NotInSubgroup):
        _pohlig_hellman(kummer54, kummer54.alpha)


def test_pohlig_hellman_not_in_subgroup_over_a_multiple_of_the_order(f31):
    # at (31, 6) ord(g) = (31^6 - 1)/9, while alpha (alpha^6 = 3) has order 180;
    # over the group order the 3-part of g is trivial, so no subgroup search fails
    ctx = kl.build_kummer(f31, 6, 3, 1)
    group_order = 31 ** 6 - 1
    assert ctx.generator_order[0] == group_order // 9
    with pytest.raises(oracle.NotInSubgroup, match="not a power of g"):
        kl.bsgs_dlp(ctx.generator, ctx.alpha, group_order, None, kl.factorize(group_order))


def test_pohlig_hellman_budget_bounds_the_largest_prime(f31):
    ctx = kl.build_kummer(f31, 6, 3, 1)
    order, factorization = ctx.generator_order
    assert max(factorization) == 331  # ceil(sqrt(331)) = 19 baby steps
    y = kl.ext_pow(ctx.generator, 123456789)
    with pytest.raises(oracle.BudgetExceeded, match="prime order 331"):
        _pohlig_hellman(ctx, y, GroupBudget(max_baby_steps=18))
    assert _pohlig_hellman(ctx, y, GroupBudget(max_baby_steps=19)) == 123456789 % order


def test_pohlig_hellman_bad_factorization(kummer54):
    g, y = kummer54.generator, kummer54.one_element
    with pytest.raises(oracle.BadFactorization):
        kl.bsgs_dlp(g, y, 624, None, [2, 2, 2, 2, 3, 11])   # wrong product
    with pytest.raises(oracle.BadFactorization):
        kl.bsgs_dlp(g, y, 624, None, [4, 4, 3, 13])         # composite entry
    with pytest.raises(oracle.BadFactorization):
        kl.bsgs_dlp(g, y, 13, None, [13])                   # g^13 != 1


def test_generator_order_is_cached_and_guarded(monkeypatch):
    ctx = kl.build_kummer(kl.build_field(5), 4, 2, 1)
    assert ctx.generator_order == (312, (2, 2, 2, 3, 13))
    monkeypatch.setattr(oracle, "factorize", None)  # a second factoring would fail
    assert ctx.generator_order == (312, (2, 2, 2, 3, 13))
    monkeypatch.setattr(oracle, "FACTOR_GUARD", 1 << 9)  # 5^4 - 1 = 624 >= 512
    with pytest.raises(oracle.BudgetExceeded, match=r"factoring guard \(2\^9\)"):
        oracle.factored_order(ctx.generator, 624)
