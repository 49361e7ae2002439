"""Discrete-log solvers for the prescribed base g = alpha + b.

All three solvers share one candidate pipeline.  A candidate curve t turns
the target f into f + modulus*t, which must split into conjugate linear
factors; the digits are read off those factors.  t = 0 is the direct
read-off (digit sums up to the extension degree), the Kummer boundary
constant patches the sum-equals-degree case, and the relaxed solver adds the
Artin-Schreier t = 1 and the Guruswami-Sudan decoded curves, decoding only
after the earlier candidates fail.  Each candidate is read off once.  The
generic fallback is Pohlig-Hellman over ord(g), factored once per context on
its first use, with BSGS in each prime-order subgroup.  Everything
returned, fallback included, is verified by one re-exponentiation check.
"""

from __future__ import annotations

import random

from . import oracle
from .digits import (ExponentDigits, agreement_bound, curve_degree_bound,
                     relaxed_sum_bound)
from .extfield import ContextMismatch, ExtElement, encode_digits
from .listdecode import agreement, list_decode
from .poly import Poly, factor


class ReadOffFailed(ValueError):
    """A candidate f + modulus*t gave no digit vector; the message says why."""


class NotSplit(ReadOffFailed):
    """Target does not factor into conjugate linear factors (digit sum too big)."""


class RootNotInTable(ReadOffFailed):
    """A linear factor is not of conjugate form, or the leading coefficient is off."""


class VerificationFailed(RuntimeError):
    """Internal inconsistency: a read-off digit vector failed re-exponentiation."""


class NoCandidate(ValueError):
    """No list-decoding candidate produced a verified exponent."""


class Unsolvable(RuntimeError):
    """All strategies failed within the configured budgets."""


class DlpInstance:
    """A context plus the target element g^e presented as f(alpha)."""

    __slots__ = ("ctx", "target")

    def __init__(self, ctx, target: ExtElement):
        if not isinstance(target, ExtElement) or target.ctx is not ctx:
            raise ContextMismatch("target must belong to the instance context")
        if target.is_zero():
            raise ValueError("target must be nonzero")
        self.ctx = ctx
        self.target = target

    def __repr__(self):
        return f"DlpInstance({self.ctx!r}, {self.target!r})"


class SolveOutcome:
    """Recovered digits plus the strategy that produced them; always verified."""

    __slots__ = ("digits", "method")

    def __init__(self, digits: ExponentDigits, method: str):
        self.digits = digits
        self.method = method

    def exponent(self) -> int:
        return self.digits.to_int()

    def __repr__(self):
        return f"SolveOutcome(digits={tuple(self.digits)}, method={self.method!r})"


def build_points(inst: DlpInstance) -> list[tuple]:
    """The decoding point set: x_i kills the i-th conjugate factor, and
    y_i = -f(x_i)/denom is the forced value t(x_i) whenever digit i is nonzero."""
    ctx = inst.ctx
    base = ctx.base
    f = inst.target.poly
    return [(x, base.mul(base.neg(f.eval(x)), ctx.denom_inv)) for x in ctx.point_xs]


def _read_digits(ctx, F: Poly, rng: random.Random) -> ExponentDigits:
    """Factor F and read digits from its conjugate linear factors.

    Raises NotSplit when a factor of degree >= 2 survives, RootNotInTable when
    a root is not of conjugate form, a digit would leave [0, q), or the
    leading coefficient disagrees with the conjugate table.
    """
    q = ctx.base.q
    lc, factors = factor(F, rng)
    digits = [0] * ctx.degree
    for fac, mult in factors:
        if fac.degree != 1:
            raise NotSplit(f"irreducible factor of degree {fac.degree}")
        i = ctx.root_index.get(fac.coeff(0))
        if i is None:
            raise RootNotInTable(f"root constant {fac.coeff(0)} not in the conjugate table")
        if mult >= q:
            raise RootNotInTable(f"multiplicity {mult} exceeds the digit range")
        digits[i] = mult
    if ctx.expected_lc(digits) != lc:
        raise RootNotInTable("leading coefficient inconsistent with the digit vector")
    return ExponentDigits(q, tuple(digits))


def _boundary_constant(ctx, f: Poly):
    """Kummer digit-sum-equals-n correction: the conjugate product has constant
    term b^n, so lambda = (f_0 - b^n)/a and the product is f + lambda*(x^n - a)."""
    base = ctx.base
    f0 = f.coeff(0)
    bn = base.pow_(ctx.b, ctx.n)
    return base.mul(base.sub(f0, bn), base.inv(ctx.a))


def _candidates(inst: DlpInstance, rng: random.Random, relaxed: bool):
    """Curves t, each with the method it earns, in the order they are tried.

    t = 0 is the digit sum <= n read-off and the Kummer boundary constant the
    sum = n patch.  The relaxed regime adds the Artin-Schreier t = 1 (digit
    sum p) and then the decoded curves, best agreement first; the decoder
    runs only once every earlier candidate has been consumed.
    """
    ctx = inst.ctx
    base = ctx.base
    yield Poly.zero(base), "direct"
    if ctx.kind == "kummer":
        lam = _boundary_constant(ctx, inst.target.poly)
        if lam != base.zero:
            yield Poly.constant(base, lam), "boundary"
    if not relaxed:
        return
    if ctx.kind != "kummer":
        # digit sum p turns f into f + (x^p - x - a); the product stays monic
        yield Poly.one(base), "list_decode"
    n = ctx.degree
    points = build_points(inst)
    found = list_decode(base, points, max(1, curve_degree_bound(n)), agreement_bound(n), rng)
    found.sort(key=lambda t: (-agreement(t, points), t.sort_key()))
    for t in found:
        yield t, "list_decode"


def _verified(inst: DlpInstance, digits: ExponentDigits, method: str) -> SolveOutcome:
    if encode_digits(inst.ctx, digits) != inst.target:  # pragma: no cover - defensive
        raise VerificationFailed(f"digits {tuple(digits)} from {method} failed re-exponentiation")
    return SolveOutcome(digits, method)


def _read_off(inst: DlpInstance, rng: random.Random, relaxed: bool) -> SolveOutcome:
    """Read off f + modulus*t for each distinct candidate t; the first that
    splits is verified and returned, else the last read-off failure is raised."""
    ctx = inst.ctx
    f = inst.target.poly
    seen = set()
    for t, method in _candidates(inst, rng, relaxed):
        if t.coeffs in seen:
            continue
        seen.add(t.coeffs)
        try:
            digits = _read_digits(ctx, f + ctx.modulus * t, rng)
        except ReadOffFailed as exc:
            failure = exc
            continue
        return _verified(inst, digits, method)
    raise failure


def solve_bounded(inst: DlpInstance, rng: random.Random | None = None) -> SolveOutcome:
    """Recover e when its digit sum is at most the extension degree n, or
    p - 1 on an Artin-Schreier context (whose degree is p).

    Tries the representative polynomial directly, then the Kummer boundary
    correction; the returned digit vector is unique in that range.  At sum p
    it is not (with a = 1 the all-ones vector encodes 1), so the
    Artin-Schreier candidate for sum p runs only in the relaxed solvers.
    """
    rng = rng if rng is not None else random.Random(0xD1007)
    return _read_off(inst, rng, relaxed=False)


def solve_listdecode(inst: DlpInstance, rng: random.Random | None = None) -> SolveOutcome:
    """Recover e with digit sum up to floor(1.32 n) via list decoding.

    Succeeds on every e that `digits.decodable` accepts: with at least
    ceil(0.5657 n) nonzero digits the candidate curve has enough agreement,
    and every bounded-sum input is read off by t = 0 or the boundary
    constant, which are tried first.
    """
    rng = rng if rng is not None else random.Random(0x115D)
    try:
        out = _read_off(inst, rng, relaxed=True)
    except ReadOffFailed as exc:
        raise NoCandidate(f"no candidate produced a verified exponent; last: {exc}") from exc
    out.method = "list_decode"
    return out


def _solve_fallback(inst: DlpInstance, budget: oracle.GroupBudget | None) -> SolveOutcome:
    """Pohlig-Hellman over ord(g), which the context factors on its first fallback."""
    ctx = inst.ctx
    try:
        order, factorization = ctx.generator_order
        e = oracle.bsgs_dlp(ctx.generator, inst.target, order, budget, factorization)
    except oracle.BudgetExceeded as exc:
        raise Unsolvable(f"generic fallback exceeded budget: {exc}") from exc
    except oracle.NotInSubgroup as exc:
        raise Unsolvable("target is not a power of g") from exc
    return _verified(inst, ExponentDigits.from_int(e, ctx.base.q, ctx.degree), "fallback")


def solve_auto(inst: DlpInstance, w_hint: int | None = None,
               rng: random.Random | None = None,
               budget: oracle.GroupBudget | None = None) -> SolveOutcome:
    """Try the candidate pipeline (direct read-off, boundary, decoded curves),
    then the generic fallback, Pohlig-Hellman over ord(g); a w_hint (claimed
    digit-sum bound) above floor(1.32 n) reverses that order.  When both fail,
    Unsolvable says "all strategies failed; last error: <the later failure>".

    The fallback returns the least exponent, e mod ord(g).  It needs q^n - 1
    below `oracle.FACTOR_GUARD` and ceil(sqrt(r)) within
    `budget.max_baby_steps` for the largest prime r of ord(g), and a target
    that is a power of g.
    """
    rng = rng if rng is not None else random.Random(0xA070)
    strategies = [lambda: _read_off(inst, rng, relaxed=True),
                  lambda: _solve_fallback(inst, budget)]
    if w_hint is not None and w_hint > relaxed_sum_bound(inst.ctx.degree):
        strategies.reverse()
    for strategy in strategies:
        try:
            return strategy()
        except (ReadOffFailed, Unsolvable) as exc:
            failure = exc
    raise Unsolvable(f"all strategies failed; last error: {failure}") from failure
