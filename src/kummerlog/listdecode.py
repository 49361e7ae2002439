"""Guruswami-Sudan list decoding over F_q.

Given points (x_i, y_i) with distinct x_i, a degree cap k and an agreement
threshold A > sqrt(k n), interpolation finds a nonzero bivariate Q of
(1,k)-weighted degree <= D = mA - 1 vanishing to order m at every point
(all Hasse derivatives of total order < m, which stay correct in small
characteristic).  Every t with deg t <= k passing at least A points then
satisfies Q(x, t(x)) = 0 and is recovered by Roth-Ruckenstein recursion.

The kernel vector is chosen deterministically: monomial columns are ordered
by ascending weighted degree and the first free column is taken, which
yields a minimal-weighted-degree interpolation polynomial.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import ff
from .poly import Poly, roots as _poly_roots


class AgreementTooSmall(ValueError):
    """A <= sqrt(k * n_points): the list-decoding premise fails."""


class NoSolution(RuntimeError):
    """Interpolation system had no kernel; cannot occur for valid params."""


_MAX_MULTIPLICITY = 512


class DecodeParams:
    """Interpolation parameters for one decoding run."""

    __slots__ = ("n_points", "k", "agreement", "multiplicity",
                 "weighted_degree_bound", "y_degree_cap")

    def __init__(self, n_points, k, agreement, multiplicity,
                 weighted_degree_bound, y_degree_cap):
        self.n_points = n_points
        self.k = k
        self.agreement = agreement
        self.multiplicity = multiplicity
        self.weighted_degree_bound = weighted_degree_bound
        self.y_degree_cap = y_degree_cap

    def monomials(self) -> list[tuple[int, int]]:
        """(i, j) with weighted degree <= D, ordered ascending (wdeg, j, i)."""
        return _monomials(self.k, self.weighted_degree_bound, self.y_degree_cap)

    def __repr__(self):
        return (f"DecodeParams(n={self.n_points}, k={self.k}, A={self.agreement}, "
                f"m={self.multiplicity}, D={self.weighted_degree_bound})")


def _monomials(k: int, D: int, j_cap: int) -> list[tuple[int, int]]:
    out = []
    for j in range(j_cap + 1):
        for i in range(D - k * j + 1):
            out.append((i, j))
    out.sort(key=lambda ij: (ij[0] + k * ij[1], ij[1], ij[0]))
    return out


def select_params(n_points: int, k: int, A: int) -> DecodeParams:
    """Smallest multiplicity m with A^2 > k*n*(1 + 1/m) and a monomial surplus.

    For k = 0 the weighted degree ignores the y-exponent, so m = 1 works and
    the y-degree cap alone is raised until the system is underdetermined.
    """
    if n_points < 1 or k < 0:
        raise ValueError("need n_points >= 1 and k >= 0")
    if A < 1 or A * A <= k * n_points:
        raise AgreementTooSmall(f"agreement {A} <= sqrt({k}*{n_points})")
    if k == 0:
        D = A - 1
        j_cap = n_points // (D + 1) + 1
        return DecodeParams(n_points, 0, A, 1, D, j_cap)
    for m in range(1, _MAX_MULTIPLICITY + 1):
        if A * A * m <= k * n_points * (m + 1):
            continue
        D = m * A - 1
        j_cap = D // k
        constraints = n_points * m * (m + 1) // 2
        count = (j_cap + 1) * (D + 1) - k * j_cap * (j_cap + 1) // 2
        if count > constraints:
            return DecodeParams(n_points, k, A, m, D, j_cap)
    raise NoSolution("no workable multiplicity below the cap")  # pragma: no cover


class BivariatePoly:
    """Q(x, y) = sum c_ij x^i y^j with a fixed y-weight k; zero coeffs dropped."""

    __slots__ = ("field", "k", "coeffs")

    def __init__(self, field, k: int, coeffs: dict):
        self.field = field
        self.k = k
        self.coeffs = {ij: c for ij, c in coeffs.items() if c != field.zero}

    @classmethod
    def zero(cls, field, k):
        return cls(field, k, {})

    @classmethod
    def y_minus(cls, field, k, t: Poly) -> "BivariatePoly":
        """The factor y - t(x)."""
        d = {(0, 1): field.one}
        for i, c in enumerate(t.coeffs):
            if c != field.zero:
                d[(i, 0)] = field.neg(c)
        return cls(field, k, d)

    def is_zero(self) -> bool:
        return not self.coeffs

    def weighted_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + self.k * j for i, j in self.coeffs)

    def y_degree(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out: dict = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = add(out.get(key, zero), mul(c1, c2))
        return BivariatePoly(f, self.k, out)

    def eval(self, a, b):
        f = self.field
        r = f.zero
        for (i, j), c in self.coeffs.items():
            r = f.add(r, f.mul(c, f.mul(_pow(f, a, i), _pow(f, b, j))))
        return r

    def hasse_eval(self, a, b, r: int, s: int):
        """Hasse derivative D^(r,s) Q evaluated at (a, b)."""
        f = self.field
        acc = f.zero
        for (i, j), c in self.coeffs.items():
            if i < r or j < s:
                continue
            cb = math.comb(i, r) * math.comb(j, s)
            term = f.mul(c, f.embed_int(cb))
            term = f.mul(term, _pow(f, a, i - r))
            term = f.mul(term, _pow(f, b, j - s))
            acc = f.add(acc, term)
        return acc

    def vanishes_to_order(self, a, b, m: int) -> bool:
        return all(self.hasse_eval(a, b, r, s) == self.field.zero
                   for r in range(m) for s in range(m - r))

    def eval_y(self, t: Poly) -> Poly:
        """The univariate Q(x, t(x))."""
        f = self.field
        tp = [Poly.one(f)]
        for _ in range(self.y_degree()):
            tp.append(tp[-1] * t)
        acc = Poly.zero(f)
        for (i, j), c in self.coeffs.items():
            acc = acc + (tp[j] * Poly.monomial(f, i, c))
        return acc

    def __repr__(self):
        terms = sorted(self.coeffs)
        return f"BivariatePoly(k={self.k}, {len(terms)} terms, wdeg={self.weighted_degree()})"


def _pow(field, x, e: int):
    if e == 0:
        return field.one
    return field.pow_(x, e)


# -- interpolation ------------------------------------------------------------------


def _kernel_vector_prime(rows: list[list[int]], p: int) -> list[int]:
    M = np.asarray(rows, dtype=np.int64) % p
    n_rows, n_cols = M.shape
    pivots: dict[int, int] = {}
    r = 0
    for c in range(n_cols):
        if r < n_rows:
            nz = np.flatnonzero(M[r:, c])
            if nz.size:
                pr = r + int(nz[0])
                if pr != r:
                    M[[r, pr]] = M[[pr, r]]
                inv = pow(int(M[r, c]), p - 2, p)
                M[r] = (M[r] * inv) % p
                others = np.flatnonzero(M[:, c])
                others = others[others != r]
                if others.size:
                    M[others] = (M[others] - np.outer(M[others, c], M[r])) % p
                pivots[c] = r
                r += 1
                continue
        x = [0] * n_cols
        x[c] = 1
        for pc, prow in pivots.items():
            x[pc] = int(-M[prow, c]) % p
        return x
    raise NoSolution("constraint matrix has full column rank")


def _kernel_vector_generic(field, rows: list[list]) -> list:
    M = [list(row) for row in rows]
    n_rows, n_cols = len(M), len(M[0])
    zero = field.zero
    pivots: dict[int, int] = {}
    r = 0
    for c in range(n_cols):
        if r < n_rows:
            pr = next((i for i in range(r, n_rows) if M[i][c] != zero), None)
            if pr is not None:
                M[r], M[pr] = M[pr], M[r]
                inv = field.inv(M[r][c])
                M[r] = [field.mul(v, inv) for v in M[r]]
                for i in range(n_rows):
                    if i != r and M[i][c] != zero:
                        fac = M[i][c]
                        M[i] = [field.sub(vi, field.mul(fac, vr))
                                for vi, vr in zip(M[i], M[r])]
                pivots[c] = r
                r += 1
                continue
        x = [zero] * n_cols
        x[c] = field.one
        for pc, prow in pivots.items():
            x[pc] = field.neg(M[prow][c])
        return x
    raise NoSolution("constraint matrix has full column rank")


def interpolate(field, points, params: DecodeParams) -> BivariatePoly:
    """Nonzero Q of weighted degree <= D vanishing to order m at every point."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    if len(points) != params.n_points:
        raise ValueError("point count does not match params")
    k, m, D = params.k, params.multiplicity, params.weighted_degree_bound
    monos = params.monomials()
    prime_path = isinstance(field, ff.Field) and field.d == 1
    j_max = max(j for _, j in monos)
    rows = []
    for a, b in points:
        apow = [field.one]
        for _ in range(D):
            apow.append(field.mul(apow[-1], a))
        bpow = [field.one]
        for _ in range(j_max):
            bpow.append(field.mul(bpow[-1], b))
        for r in range(m):
            for s in range(m - r):
                if prime_path:
                    row = [0] * len(monos)
                    for idx, (i, j) in enumerate(monos):
                        if i >= r and j >= s:
                            cb = math.comb(i, r) * math.comb(j, s)
                            row[idx] = cb * apow[i - r] % field.p * bpow[j - s] % field.p
                else:
                    row = [field.zero] * len(monos)
                    for idx, (i, j) in enumerate(monos):
                        if i >= r and j >= s:
                            cb = math.comb(i, r) * math.comb(j, s)
                            v = field.mul(field.embed_int(cb), apow[i - r])
                            row[idx] = field.mul(v, bpow[j - s])
                rows.append(row)
    if prime_path:
        vec = _kernel_vector_prime(rows, field.p)
    else:
        vec = _kernel_vector_generic(field, rows)
    return BivariatePoly(field, k, dict(zip(monos, vec)))


# -- Roth-Ruckenstein y-root extraction ----------------------------------------------


def _strip_x(Q: BivariatePoly) -> BivariatePoly:
    v = min(i for i, _ in Q.coeffs)
    if v == 0:
        return Q
    return BivariatePoly(Q.field, Q.k, {(i - v, j): c for (i, j), c in Q.coeffs.items()})


def _shift(Q: BivariatePoly, c) -> BivariatePoly:
    """Q(x, x*y + c)."""
    f = Q.field
    out: dict = {}
    for (i, j), coef in Q.coeffs.items():
        cp = f.one
        # (x y + c)^j expanded from s = j down to 0 so c-powers build up
        for s in range(j, -1, -1):
            cb = f.embed_int(math.comb(j, s))
            term = f.mul(coef, f.mul(cb, cp))
            if term != f.zero:
                key = (i + s, s)
                out[key] = f.add(out.get(key, f.zero), term)
            if s:
                cp = f.mul(cp, c)
    return BivariatePoly(f, Q.k, out)


def _x0_section(Q: BivariatePoly) -> Poly:
    """Q(0, y) as a univariate polynomial in y."""
    f = Q.field
    deg = Q.y_degree()
    cs = [f.zero] * (deg + 1)
    for (i, j), c in Q.coeffs.items():
        if i == 0:
            cs[j] = c
    return Poly(f, cs)


def _y_section(Q: BivariatePoly, c) -> Poly:
    """Q(x, c) as a univariate polynomial in x."""
    f = Q.field
    out: dict[int, object] = {}
    for (i, j), coef in Q.coeffs.items():
        v = f.mul(coef, _pow(f, c, j))
        out[i] = f.add(out.get(i, f.zero), v)
    deg = max(out, default=-1)
    return Poly(f, [out.get(i, f.zero) for i in range(deg + 1)])


def y_roots(Q: BivariatePoly, k: int | None = None,
            rng: random.Random | None = None) -> list[Poly]:
    """All t with deg t <= k and Q(x, t(x)) identically zero."""
    if Q.is_zero():
        raise ValueError("y_roots needs a nonzero polynomial")
    field = Q.field
    k = Q.k if k is None else k
    rng = rng if rng is not None else random.Random(0x27182818)
    found: list[tuple] = []

    # y -> xy + c keeps a nonzero Q nonzero, and stripping x leaves an x^0
    # term, so every branch has a nonzero section Q(0, y)
    def rec(cur: BivariatePoly, depth: int, prefix: list):
        cur = _strip_x(cur)
        for c, _mult in _poly_roots(_x0_section(cur), rng):
            if depth == k:
                if _y_section(cur, c).is_zero():
                    found.append(tuple(prefix) + (c,))
            else:
                prefix.append(c)
                rec(_shift(cur, c), depth + 1, prefix)
                prefix.pop()

    rec(Q, 0, [])
    out = []
    seen = set()
    for tup in found:
        t = Poly(field, list(tup))
        if t.coeffs not in seen:
            seen.add(t.coeffs)
            out.append(t)
    out.sort(key=lambda t: t.sort_key())
    return out


def list_decode(field, points, k: int, A: int,
                rng: random.Random | None = None) -> list[Poly]:
    """Every t with deg t <= k agreeing with at least A points (possibly more).

    Completeness is the contract; low-agreement extras may appear and are the
    caller's to filter.
    """
    params = select_params(len(points), k, A)
    Q = interpolate(field, points, params)
    return y_roots(Q, k, rng)


def agreement(t: Poly, points) -> int:
    """Number of points the curve y = t(x) passes through."""
    return sum(1 for x, y in points if t.eval(x) == y)
