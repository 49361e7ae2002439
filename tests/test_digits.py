import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import kummerlog as kl
from kummerlog import digits as dg


def binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def test_sum_of_digits_examples():
    assert kl.sum_of_digits(kl.ExponentDigits(5, (1, 0, 2, 0))) == 3
    assert kl.sum_of_digits(kl.ExponentDigits(7, (0, 0, 0))) == 0
    assert kl.sum_of_digits(kl.ExponentDigits(2, (1, 1, 1, 1))) == 4  # Hamming weight


def test_exponent_digits_validation():
    with pytest.raises(ValueError):
        kl.ExponentDigits(5, (5, 0))
    with pytest.raises(ValueError):
        kl.ExponentDigits(5, (-1,))
    with pytest.raises(ValueError):
        kl.ExponentDigits(1, (0,))


def test_exponent_digits_int_roundtrip():
    e = kl.ExponentDigits(5, (1, 0, 2, 0))
    assert e.to_int() == 51
    assert kl.ExponentDigits.from_int(51, 5, 4) == e
    with pytest.raises(ValueError):
        kl.ExponentDigits.from_int(626, 5, 4)


def test_count_examples():
    assert kl.count_N(0, 7, 9) == 1
    # N(2,4,2) = 6 by enumerating all 16 bit vectors
    brute = sum(1 for v in itertools.product(range(2), repeat=4) if sum(v) == 2)
    assert brute == 6 == kl.count_N(2, 4, 2) == math.comb(4, 2)
    # N(5,4,5) = C(8,3) - 4*C(3,3) = 52, cross-checked by 625-case enumeration
    brute = sum(1 for v in itertools.product(range(5), repeat=4) if sum(v) == 5)
    assert brute == 52 == kl.count_N(5, 4, 5) == binom(8, 3) - 4 * binom(3, 3)
    # either argument negative is rejected, not only both
    for w, n in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            kl.count_N(w, n, 5)


def test_count_total_is_q_pow_n():
    for q in (2, 3, 5, 8):
        for n in (1, 2, 4, 6):
            assert sum(kl.count_N(w, n, q) for w in range(n * (q - 1) + 1)) == q ** n


def test_sample_zero_bound():
    rng = random.Random(1)
    for _ in range(10):
        assert kl.sample_bounded_sum(4, 5, 0, rng).digits == (0, 0, 0, 0)


def test_sample_three_outcomes_uniform():
    rng = random.Random(2)
    counts = {}
    for _ in range(3000):
        e = kl.sample_bounded_sum(2, 2, 1, rng)
        counts[e.digits] = counts.get(e.digits, 0) + 1
    assert set(counts) == {(0, 0), (1, 0), (0, 1)}
    for v in counts.values():
        assert abs(v - 1000) < 4 * math.sqrt(1000 * 2 / 3)


def test_sample_uniformity_chi_squared():
    # 70 outcomes (sum <= 4 over 4 base-5 digits), 70000 draws, level 0.001
    from scipy.stats import chi2

    rng = random.Random(3)
    outcomes = [v for v in itertools.product(range(5), repeat=4) if sum(v) <= 4]
    assert len(outcomes) == 70 == sum(kl.count_N(w, 4, 5) for w in range(5))
    counts = dict.fromkeys(outcomes, 0)
    draws = 70_000
    for _ in range(draws):
        counts[kl.sample_bounded_sum(4, 5, 4, rng).digits] += 1
    expected = draws / 70
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, df=69)
    sigma = math.sqrt(expected * (1 - 1 / 70))
    assert all(abs(c - expected) < 4 * sigma for c in counts.values())


def test_sample_respects_nontrivial_bound():
    rng = random.Random(4)
    for _ in range(200):
        e = kl.sample_bounded_sum(6, 7, 9, rng)
        assert e.digit_sum() <= 9


def test_threshold_helpers():
    assert dg.relaxed_sum_bound(15) == 19
    assert dg.agreement_bound(15) == 9
    assert dg.curve_degree_bound(15) == 4
    assert dg.relaxed_sum_bound(4) == 5
    assert dg.agreement_bound(1) == 1
    # the ceil keeps the agreement strictly above sqrt(0.32) * n
    for n in range(1, 200):
        assert dg.agreement_bound(n) ** 2 > dg.curve_degree_bound(n) * n


def test_tail_ratio_enumeration_oracle():
    # brute-force over all 625 vectors for (n, q) = (4, 5)
    s_max, z_min = dg.relaxed_sum_bound(4), dg.agreement_bound(4)
    total = hits = 0
    for v in itertools.product(range(5), repeat=4):
        if sum(v) <= s_max:
            total += 1
            if sum(1 for d in v if d == 0) >= z_min:
                hits += 1
    assert kl.tail_ratio(4, 5) == Fraction(hits, total) == Fraction(17, 122)


def test_failure_share_enumeration_oracle():
    # brute-force over all 625 vectors for (n, q) = (4, 5): the set the list
    # decoder leaves out has digit sum above n and too few nonzero digits
    s_max, need = dg.relaxed_sum_bound(4), dg.agreement_bound(4)
    total = hits = 0
    for v in itertools.product(range(5), repeat=4):
        if sum(v) <= s_max:
            total += 1
            if sum(v) > 4 and sum(1 for d in v if d) < need:
                hits += 1
    assert dg.failure_share(4, 5) == Fraction(hits, total) == Fraction(12, 61)


@pytest.mark.parametrize("s_max", [0, 3, 7, 16, 40])
def test_nonzero_share_enumeration_oracle(s_max):
    # brute force over all 625 vectors for (n, q) = (4, 5); bounds past n(q-1) cap
    vs = [v for v in itertools.product(range(5), repeat=4) if sum(v) <= s_max]
    for need in range(6):
        hits = sum(1 for v in vs if sum(1 for d in v if d) >= need)
        assert dg.nonzero_share(4, 5, s_max, need) == Fraction(hits, len(vs))


def test_empty_share_is_refused():
    # a negative sum bound leaves no vectors to take a share of
    for s_max, need in ((-1, 0), (-3, 2)):
        with pytest.raises(dg.EmptySet, match="negative sum bound"):
            dg.nonzero_share(4, 5, s_max, need)


def test_digit_refusals():
    with pytest.raises(ValueError, match="nonnegative"):
        kl.ExponentDigits.from_int(-1, 5, 3)
    assert kl.count_N(13, 3, 5) == 0  # above n(q-1) = 12
    assert dg.count_table(3, 5, 4).cumulative(-1, 2) == 0
    with pytest.raises(ValueError):
        dg.count_table(-1, 5, 3)
    with pytest.raises(ValueError, match="q >= 2"):
        kl.count_N(1, 2, 1)
    with pytest.raises(dg.EmptySet, match="negative sum bound"):
        dg.sample_bounded_sum(4, 5, -1, random.Random(0))
    for n, q in ((0, 5), (4, 1)):
        with pytest.raises(ValueError, match="n >= 1, q >= 2"):
            kl.tail_ratio(n, q)


def test_failure_share_pinned_values():
    assert dg.failure_share(6, 31) == Fraction(3, 13)
    assert dg.failure_share(15, 31) == Fraction(173622677, 371193504)


def test_tail_ratio_trivial_case():
    assert kl.tail_ratio(1, 2) == Fraction(1, 2)


def test_tail_ratio_monotone():
    assert kl.tail_ratio(30, 31) < kl.tail_ratio(15, 31)


def test_tail_ratio_guard():
    # the guard is count_N's, on n*(s+1) for s = floor(1.32 n), not on n*q
    with pytest.raises(dg.TooLarge):
        kl.tail_ratio(2000, 1000)
    with pytest.raises(dg.TooLarge):
        dg.failure_share(1000, 1000)
    for n, q in ((80, 80), (200, 200), (120, 5)):
        t0 = time.perf_counter()
        assert 0 < dg.failure_share(n, q) < 1
        assert time.perf_counter() - t0 < 1.0


def test_count_N_guard_and_table_agreement():
    with pytest.raises(dg.TooLarge):
        kl.count_N(200000, 200000, 3)
    # the rolling row gives the full table's entries
    for n, q in ((0, 2), (1, 5), (6, 3), (9, 4)):
        table = dg.count_table(n, q, n * (q - 1))
        assert [kl.count_N(w, n, q) for w in range(n * (q - 1) + 1)] == table.rows[n]



def test_sample_decodable_matches_rejection_loop():
    # the same draws as rejecting sample_bounded_sum until enough digits are nonzero
    for n, q in ((4, 5), (7, 7), (15, 31)):
        rng, ref = random.Random(5), random.Random(5)
        s_max, need = dg.relaxed_sum_bound(n), dg.agreement_bound(n)
        for _ in range(20):
            e = dg.sample_decodable(n, q, rng)
            while True:
                want = kl.sample_bounded_sum(n, q, s_max, ref)
                if sum(1 for d in want if d) >= need:
                    break
            assert e == want
        assert rng.random() == ref.random()
