"""Ground-truth engines used for verification and benchmarking.

Everything here is generic-group: baby-step giant-step (plain, or run as
Pohlig-Hellman over a factored group order), exact element order via
prime-power stripping, exhaustive bounded-digit search, and a simplified
half-split meet-in-the-middle for 0/1-digit exponents.  None of these use
the conjugate-table shortcut; that is the point.

The group engines need of g only `*`, `inv`, `pow_int`, `==` and a hash; the
identity is g^0, so a zero g (no group element) raises `ff.ZeroToZero` at once.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Sequence

from . import digits as _digits
from .ff import factorize, is_prime as _is_probable_prime


class NotInSubgroup(ValueError):
    """Target is not a power of the base within the searched range."""


class BudgetExceeded(RuntimeError):
    """Search or factoring would exceed a desk-scale budget."""


class BadFactorization(ValueError):
    """Claimed prime factorization does not match the group order."""


class NotFound(ValueError):
    """Meet-in-the-middle weight assumption violated."""


class GroupBudget:
    """Search limits for the generic-group engines.

    `max_baby_steps` caps every single BSGS search: the whole range for plain
    BSGS, each prime-order subgroup for Pohlig-Hellman.  `max_order` is the
    largest group that plain BSGS over the whole group covers, by default
    `max_baby_steps^2`.
    """

    __slots__ = ("max_baby_steps", "max_order")

    def __init__(self, max_baby_steps: int = 1 << 20, max_order: int | None = None):
        if max_order is None:
            max_order = max_baby_steps * max_baby_steps
        if max_baby_steps * max_baby_steps < max_order:
            raise ValueError("max_baby_steps^2 must cover max_order")
        self.max_baby_steps = max_baby_steps
        self.max_order = max_order


# group orders from here on are never factored: Pollard-Brent has no time bound
FACTOR_GUARD = 1 << 80


# -- generic-group engines ----------------------------------------------------------


def _bsgs(g, y, order_bound: int, budget: GroupBudget) -> int:
    """Least nonnegative x < order_bound with g^x = y: ceil(sqrt(order_bound))
    baby steps into a hash table, then giant steps with g^-m."""
    m = math.isqrt(order_bound - 1) + 1
    if m > budget.max_baby_steps:
        raise BudgetExceeded(f"{m} baby steps exceed budget {budget.max_baby_steps}")
    identity = g.pow_int(0)
    table = {}
    cur = identity
    for j in range(m):
        if cur not in table:
            table[cur] = j
        cur = cur * g
    giant = g.pow_int(m).inv()
    cur = y
    for i in range(m):
        j = table.get(cur)
        if j is not None:
            x = i * m + j
            if x < order_bound:
                return x
        cur = cur * giant
    raise NotInSubgroup("no exponent below the order bound maps g to y")


def _check_factorization(m: int, factorization: Sequence[int]):
    for r in factorization:
        if not _is_probable_prime(r):
            raise BadFactorization(f"{r} is not prime")
    if math.prod(factorization) != m:
        raise BadFactorization("factorization does not multiply to the group order")


def _pohlig_hellman(g, y, group_order: int, factorization: Sequence[int],
                    budget: GroupBudget) -> int:
    """x mod ord(g) from x mod r^j for each prime power r^j of ord(g), by CRT.

    For r^k exactly dividing group_order, g_r = g^(group_order / r^k) has
    order r^j with j <= k; the j base-r digits of x mod r^j come one at a
    time from a BSGS search in the order-r subgroup generated by
    g_r^(r^(j-1)).
    """
    _check_factorization(group_order, factorization)
    powers = collections.Counter(factorization)
    steps = math.isqrt(max(powers, default=1) - 1) + 1
    if steps > budget.max_baby_steps:
        raise BudgetExceeded(f"{steps} baby steps exceed budget {budget.max_baby_steps} "
                             f"in the subgroup of prime order {max(powers)}")
    identity = g.pow_int(0)
    x, modulus = 0, 1
    for r, k in sorted(powers.items()):
        cofactor = group_order // r ** k
        g_r, y_r = g.pow_int(cofactor), y.pow_int(cofactor)
        # r-power chain g_r, g_r^r, ...; its last entry before 1 generates the order-r subgroup
        chain, cur = [], g_r
        for _ in range(k):
            if cur == identity:
                break
            chain.append(cur)
            cur = cur.pow_int(r)
        if cur != identity:
            raise BadFactorization("g^group_order != 1; wrong group order")
        j = len(chain)
        if j == 0:
            continue
        gamma, g_r_inv = chain[-1], g_r.inv()
        x_r = 0
        for i in range(j):
            # y_r g_r^(-x_r) lies in <g_r^(r^i)>; raised to r^(j-1-i) it is gamma^digit
            h = (y_r * g_r_inv.pow_int(x_r)).pow_int(r ** (j - 1 - i))
            x_r += _bsgs(gamma, h, r, budget) * r ** i
        m_r = r ** j
        x += (x_r - x) * pow(modulus, -1, m_r) % m_r * modulus
        modulus *= m_r
    # each search keeps y_r in <g_r>, but a prime r where g_r = 1 goes unchecked
    if g.pow_int(x) != y:
        raise NotInSubgroup("y is not a power of g")
    return x


def bsgs_dlp(g, y, order_bound: int, budget: GroupBudget | None = None,
             factorization: Sequence[int] | None = None) -> int:
    """Least nonnegative x with g^x = y, searching x < order_bound.

    Without a factorization this is classic baby-step giant-step over the
    whole range, ceil(sqrt(order_bound)) baby steps: the generic baseline.
    Given the prime factorization of order_bound, which must then be a
    multiple of ord(g) (the group order, or ord(g) itself), it is
    Pohlig-Hellman: the same search runs in each prime-order subgroup, so
    the budget bounds ceil(sqrt(r)) for the largest prime r, and the residues
    are joined by CRT into x mod ord(g), the same least exponent.  Either way
    NotInSubgroup means y is not a power of g.
    """
    if order_bound < 1:
        raise ValueError("order_bound must be >= 1")
    budget = budget if budget is not None else GroupBudget()
    if factorization is None:
        return _bsgs(g, y, order_bound, budget)
    return _pohlig_hellman(g, y, order_bound, factorization, budget)


def element_order(g, group_order: int, factorization: list[int]) -> int:
    """Exact multiplicative order of g, given the factored group order."""
    _check_factorization(group_order, factorization)
    identity = g.pow_int(0)
    if g.pow_int(group_order) != identity:
        raise BadFactorization("g^group_order != 1; wrong group order")
    o = group_order
    for r in sorted(set(factorization)):
        while o % r == 0 and g.pow_int(o // r) == identity:
            o //= r
    return o


def factored_order(g, group_order: int) -> tuple[int, tuple[int, ...]]:
    """ord(g) and its sorted prime factors, for g in a group of order group_order.

    A group order at or above FACTOR_GUARD raises BudgetExceeded before any
    factoring starts, since Pollard-Brent has no time bound.
    """
    if group_order >= FACTOR_GUARD:
        raise BudgetExceeded("group order exceeds the factoring guard "
                             f"(2^{FACTOR_GUARD.bit_length() - 1})")
    fac = factorize(group_order)
    order = element_order(g, group_order, fac)
    order_fac, rest = [], order
    for r in fac:
        if rest % r == 0:
            order_fac.append(r)
            rest //= r
    return order, tuple(order_fac)


def exhaustive_dlp_bounded(ctx, target, s_max: int, budget: int = 10**7) -> list:
    """All digit vectors with sum <= s_max whose conjugate product equals target."""
    n, q = ctx.degree, ctx.base.q
    s_max = min(s_max, n * (q - 1))
    if s_max < 0:
        return []
    table = _digits.count_table(n, q, s_max)
    if table.cumulative(s_max, n) > budget:
        raise BudgetExceeded(f"{table.cumulative(s_max, n)} vectors exceed budget {budget}")
    conj = [ctx.generator.pow_int(q ** i) for i in range(n)]  # no table shortcut
    found = []
    prefix = [0] * n

    def rec(i, remaining, acc):
        if i == n:
            if acc == target:
                found.append(_digits.ExponentDigits(q, tuple(prefix)))
            return
        val = acc
        for c in range(min(q - 1, remaining) + 1):
            if c:
                val = val * conj[i]
            prefix[i] = c
            rec(i + 1, remaining - c, val)

    rec(0, s_max, ctx.one_element)
    return found


def meet_in_middle_binary(g, y, n: int, w: int) -> int:
    """Recover e with exactly w base-q digits equal to 1 (the rest 0) from g^e.

    Simplified half-split baseline: digit positions are split into two fixed
    halves and only left weights within +-1 of floor(w/2) are enumerated, so
    exponents whose 1s are very unevenly split raise NotFound.  One subset
    loop yields (g^e, e) for each left weight's table and its right matches.
    """
    identity = g.pow_int(0)
    if w == 0:
        if y == identity:
            return 0
        raise NotFound("y != 1 but weight 0 was claimed")
    q = g.ctx.base.q
    gpows = [g.pow_int(q ** i) for i in range(n)]  # generic powers, no table shortcut
    left = list(range(n // 2))
    right = list(range(n // 2, n))
    half = w // 2
    weights = [wl for wl in (half - 1, half, half + 1)
               if max(0, w - len(right)) <= wl <= min(w, len(left))]

    def subsets(positions, weight):
        for combo in itertools.combinations(positions, weight):
            el = identity
            for i in combo:
                el = el * gpows[i]
            yield el, sum(q ** i for i in combo)

    for wl in weights:
        table: dict = {}
        for el, e_left in subsets(left, wl):
            table.setdefault(el, e_left)
        # match only weight-consistent pairs: left weight wl with right weight w - wl
        for er, e_right in subsets(right, w - wl):
            need = y * er.inv()
            e_left = table.get(need)
            if e_left is not None:
                return e_left + e_right
    raise NotFound("no split within the weight slack matched")
