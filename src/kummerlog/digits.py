"""Base-q digit vectors of exponents, bounded-sum counting and sampling, and
the list decoder's reach (`decodable`), defined here once.

The count N(w, n, q) of length-n digit vectors with digit sum w (digits in
[0, q-1]) is the coefficient of x^w in (1 + x + ... + x^{q-1})^n; it is
computed here by exact dynamic programming over the digits, never floating
point: the comparisons downstream depend on the fourth decimal of the bases
involved.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

TAIL_DP_GUARD = 7 * 10**6  # about 1 s of the (sum, zero-count) DP on a 2-vCPU Xeon VM
COUNT_DP_GUARD = 10**6


class EmptySet(ValueError):
    """Requested sample from an empty digit-vector set."""


class TooLarge(ValueError):
    """Exact DP would exceed the desk-scale guard."""


@dataclass(frozen=True)
class ExponentDigits:
    """An exponent as its base-q digit sequence (e_0, ..., e_{n-1}), low to high."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("digit base must be >= 2")
        object.__setattr__(self, "digits", tuple(self.digits))
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError(f"digits out of range [0, {self.base})")

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def digit_sum(self) -> int:
        return sum(self.digits)

    def nonzero_count(self) -> int:
        return sum(1 for d in self.digits if d)

    def to_int(self) -> int:
        e = 0
        for d in reversed(self.digits):
            e = e * self.base + d
        return e

    @classmethod
    def from_int(cls, value: int, base: int, length: int) -> "ExponentDigits":
        if value < 0:
            raise ValueError("exponent must be nonnegative")
        ds = []
        for _ in range(length):
            ds.append(value % base)
            value //= base
        if value:
            raise ValueError("exponent does not fit in the given number of digits")
        return cls(base, tuple(ds))


def sum_of_digits(e: ExponentDigits) -> int:
    """Digit sum; for base 2 this is the Hamming weight."""
    return e.digit_sum()


@dataclass
class DigitCountTable:
    """Exact counts N(w, m, q) for 0 <= m <= n, 0 <= w <= w_max."""

    n: int
    q: int
    w_max: int
    rows: list[list[int]] = field(repr=False)
    cum_rows: list[list[int]] = field(repr=False)

    def cumulative(self, s: int, m: int) -> int:
        """Digit vectors of length m with sum at most s (s capped at w_max)."""
        if s < 0:
            return 0
        return self.cum_rows[m][min(s, self.w_max)]


def _next_row(row: list[int], q: int) -> list[int]:
    """Row m + 1 of N(., ., q) from row m, over the same sums: each entry is
    a width-q window sum, read off the prefix sums."""
    pre = list(itertools.accumulate(row, initial=0))
    return [pre[v + 1] - pre[max(0, v - q + 1)] for v in range(len(row))]


def count_table(n: int, q: int, w_max: int) -> DigitCountTable:
    """Build the N(w, m, q) table by convolving one digit at a time."""
    if n < 0 or q < 2 or w_max < 0:
        raise ValueError("need n >= 0, q >= 2, w_max >= 0")
    rows = [[1] + [0] * w_max]
    for _ in range(n):
        rows.append(_next_row(rows[-1], q))
    cums = [list(itertools.accumulate(row)) for row in rows]
    return DigitCountTable(n, q, w_max, rows, cums)


def count_N(w: int, n: int, q: int) -> int:
    """Exact N(w, n, q), the coefficient of x^w in (1 + x + ... + x^{q-1})^n."""
    if w < 0 or n < 0:
        raise ValueError("need w, n >= 0")
    if q < 2:
        raise ValueError("need q >= 2")
    if w > n * (q - 1):
        return 0
    if n * w > COUNT_DP_GUARD:
        raise TooLarge(f"n*w = {n * w} exceeds DP guard {COUNT_DP_GUARD}")
    row = [1] + [0] * w
    for _ in range(n):
        row = _next_row(row, q)
    return row[w]


def sample_bounded_sum(n: int, q: int, s_max: int, rng: random.Random,
                       table: DigitCountTable | None = None) -> ExponentDigits:
    """Exactly uniform sample from {length-n digit vectors with sum <= s_max}.

    Each digit is drawn with probability proportional to the exact count of
    completions, using big-integer weights throughout.
    """
    if s_max < 0:
        raise EmptySet("negative sum bound")
    s_max = min(s_max, n * (q - 1))
    if table is None or table.n < n or table.q != q or table.w_max < s_max:
        table = count_table(n, q, s_max)
    digits = []
    s = s_max
    for m in range(n, 0, -1):
        total = table.cumulative(s, m)
        if total <= 0:
            raise EmptySet("no digit vectors under the given bound")
        r = rng.randrange(total)
        c = 0
        while True:
            w = table.cumulative(s - c, m - 1)
            if r < w:
                break
            r -= w
            c += 1
        digits.append(c)
        s -= c
    return ExponentDigits(q, tuple(digits))


def relaxed_sum_bound(n: int) -> int:
    """floor(1.32 * n), the digit-sum bound of the relaxed solver regime."""
    return 33 * n // 25


def agreement_bound(n: int) -> int:
    """ceil(0.5657 * n); exceeds sqrt(0.32 n^2) strictly since 0.5657^2 > 0.32."""
    return (5657 * n + 9999) // 10000


def curve_degree_bound(n: int) -> int:
    """floor(0.32 * n), the candidate-curve degree cap."""
    return 8 * n // 25


def _sum_zero_counts(n: int, q: int, s_max: int) -> dict[tuple[int, int], int]:
    """Bounded-sum vectors by (digit sum, zero count), for sums <= s_max."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1, q >= 2")
    # steps x sums x zero counts x digits tried per state
    size = n * (s_max + 1) * (n + 1) * min(q, s_max + 1)
    if size > TAIL_DP_GUARD:
        raise TooLarge(f"DP size {size} exceeds guard {TAIL_DP_GUARD}")
    state = {(0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = {}
        for (w, z), cnt in state.items():
            for dgt in range(0, min(q - 1, s_max - w) + 1):
                key = (w + dgt, z + (dgt == 0))
                nxt[key] = nxt.get(key, 0) + cnt
        state = nxt
    return state


def tail_ratio(n: int, q: int) -> Fraction:
    """Exact share of bounded-sum digit vectors that are zero-heavy.

    Over all length-n vectors with digit sum <= floor(1.32 n), the fraction
    having at least ceil(0.5657 n) zero digits, as an exact rational via a
    (sum, zero-count) dynamic program.  This is not the list decoder's
    failure share; see `failure_share`.
    """
    state = _sum_zero_counts(n, q, relaxed_sum_bound(n))
    z_min = agreement_bound(n)
    heavy = sum(cnt for (w, z), cnt in state.items() if z >= z_min)
    return Fraction(heavy, sum(state.values()))


def nonzero_share(n: int, q: int, s_max: int, min_nonzero: int) -> Fraction:
    """Exact share of the length-n vectors with digit sum <= s_max that have
    at least min_nonzero nonzero digits, by the same (sum, zero-count) DP."""
    state = _sum_zero_counts(n, q, min(s_max, n * (q - 1)))
    hits = sum(cnt for (w, z), cnt in state.items() if n - z >= min_nonzero)
    return Fraction(hits, sum(state.values()))


def _reaches(n: int, nonzero: int) -> bool:
    """The decoder's agreement rule: the planted curve passes one point per
    nonzero digit, and the decoder finds every curve through at least
    ceil(0.5657 n) of the n points."""
    return nonzero >= agreement_bound(n)


def decodable(e: ExponentDigits) -> bool:
    """Whether `solver.solve_listdecode` reaches e, for digit sum <= floor(1.32 n).

    The direct read-off covers digit sums up to n, and the decoder every e
    with at least ceil(0.5657 n) nonzero digits.
    """
    n = len(e)
    return e.digit_sum() <= n or _reaches(n, e.nonzero_count())


def sample_decodable(n: int, q: int, rng: random.Random,
                     table: DigitCountTable | None = None) -> ExponentDigits:
    """Uniform sample from the vectors with digit sum <= floor(1.32 n) that
    have enough nonzero digits for the decoder, by rejection from
    `sample_bounded_sum`."""
    bound = relaxed_sum_bound(n)
    if table is None:
        table = count_table(n, q, bound)
    while True:
        e = sample_bounded_sum(n, q, bound, rng, table)
        if _reaches(n, e.nonzero_count()):
            return e


def failure_share(n: int, q: int) -> Fraction:
    """Exact share of bounded-sum digit vectors the list decoder cannot reach.

    Over all length-n vectors with digit sum <= floor(1.32 n), the fraction
    that `decodable` rejects: digit sum above n and too few nonzero digits.
    Same exact DP as `tail_ratio`; at digit sum 1.32 n this set grows at
    rate 4.8838...
    """
    state = _sum_zero_counts(n, q, relaxed_sum_bound(n))
    bad = sum(cnt for (w, z), cnt in state.items() if w > n and not _reaches(n, n - z))
    return Fraction(bad, sum(state.values()))
