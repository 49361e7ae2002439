"""Guruswami-Sudan list decoding over F_q.

Given points (x_i, y_i) with distinct x_i, a degree cap k and an agreement
threshold A > sqrt(k n), interpolation finds a nonzero bivariate Q of
(1,k)-weighted degree <= D = mA - 1 vanishing to order m at every point
(all Hasse derivatives of total order < m, which stay correct in small
characteristic).  Every t with deg t <= k passing at least A points then
satisfies Q(x, t(x)) = 0 and is recovered by Roth-Ruckenstein recursion.

Interpolation is Koetter's iterative algorithm on j_cap + 1 generator
polynomials rather than elimination over the monomial columns.  Its output
is deterministic: the unique interpolation polynomial, up to a scalar, whose
leading monomial is least in (weighted degree, y-degree, x-degree) order,
scaled to leading coefficient 1.  This is the kernel vector of the first
free column when the columns are ordered that way.

Roth-Ruckenstein root finding then runs on Q's coefficients as a dense
(j, i) array, row j holding the x-coefficients of y^j.  Both stages keep
prime-field residues in numpy int64 arrays and run the same steps through
field ops for extensions.
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
    """No multiplicity below the cap gives a workable system."""


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


def _taylor_rows(field, a, m: int, width: int) -> list[list]:
    """rows[r][i] = C(i, r) a^(i-r), the x^r coefficient of (x + a)^i, for r < m."""
    zero = field.zero
    col = [field.one] + [zero] * (m - 1)
    cols = [col]
    for _ in range(1, width):
        col = [field.add(field.mul(a, c), prev) for c, prev in zip(col, [zero] + col[:-1])]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


class _PrimeTaylor:
    """Tables T[r][i] = C(i, r) a^(i-r) mod p for r < rows, i < width.

    The binomials mod p are built once; each table then costs the powers of
    a and one vectorized product, with no per-entry field call.
    """

    def __init__(self, p: int, rows: int, width: int):
        self.p = p
        binom = np.zeros((rows, width), dtype=np.int64)
        binom[0] = 1
        for r in range(1, rows):
            # C(i, r) = sum_{t < i} C(t, r - 1); the sum stays below width * p
            binom[r, 1:] = np.cumsum(binom[r - 1, :-1]) % p
        self.binom = binom
        self.exps = np.maximum(np.arange(width) - np.arange(rows)[:, None], 0)

    def table(self, a: int):
        p = self.p
        powers = [1] * self.binom.shape[1]
        for e in range(1, len(powers)):
            powers[e] = powers[e - 1] * a % p
        return self.binom * np.array(powers, dtype=np.int64)[self.exps] % p


def _is_prime_field(field) -> bool:
    return isinstance(field, ff.Field) and field.d == 1


class _Layout:
    """Coefficient vectors indexed by the monomials in ascending (wdeg, j, i)
    order, plus one trailing pad entry that stays 0.

    A generator is tracked by the index of its leading monomial, so the least
    generator is the one with the smallest index, and its entries past that
    index are 0: a reduction by a smaller pivot touches only the pivot's
    prefix.  Multiplying by x moves entry `shift[c]` to c (the pad for i = 0)
    and the leading index c to `up[c]` (-1 at weighted degree D).  `rows`
    lists the entries y-row by y-row, the row of y^j from `starts[j]`, and
    `xexp` gives each of those entries' x-exponent.
    """

    def __init__(self, params: DecodeParams):
        k, D = params.k, params.weighted_degree_bound
        self.monos = params.monomials()
        pos = {ij: c for c, ij in enumerate(self.monos)}
        pad = len(self.monos)
        self.shift = [pos.get((i - 1, j), pad) for i, j in self.monos] + [pad]
        self.up = [pos.get((i + 1, j), -1) for i, j in self.monos]
        self.rows, self.starts, self.xexp = [], [0], []
        for j in range(params.y_degree_cap + 1):
            width = D - k * j + 1
            self.rows.extend(pos[(i, j)] for i in range(width))
            self.starts.append(self.starts[-1] + width)
            self.xexp.extend(range(width))
        self.initial_leads = [pos[(0, j)] for j in range(params.y_degree_cap + 1)]


def _interpolate_prime(field, points, params: DecodeParams) -> dict:
    # gens[g] is generator g's coefficient vector and tab[g, r, s] its
    # D_(r,s) at the current point (entries r + s < m used).  Residues are
    # below p < 2^31, so a product of two is below 2^62: products are reduced
    # before they are summed, and at most one residue joins an unreduced one.
    p, m, D = field.p, params.multiplicity, params.weighted_degree_bound
    lay = _Layout(params)
    J = params.y_degree_cap + 1
    lead = list(lay.initial_leads)
    gens = np.zeros((J, len(lay.shift)), dtype=np.int64)
    gens[range(J), lead] = 1
    shift, rows, starts = np.array(lay.shift), np.array(lay.rows), lay.starts[:-1]
    taylor_x, taylor_y = _PrimeTaylor(p, m, D + 1), _PrimeTaylor(p, m, J)
    for a, b in points:
        hx = taylor_x.table(a)[:, lay.xexp]
        hy = taylor_y.table(b).T
        by_row = gens[:, rows]
        tab = np.empty((len(lead), m, m), dtype=np.int64)
        for r in range(m):
            u = np.add.reduceat(by_row * hx[r] % p, starts, axis=1) % p
            tab[:, r] = (u[:, :, None] * hy % p).sum(axis=1) % p
        for r in range(m):
            for s in range(m - r):
                disc = tab[:, r, s]
                nz = np.flatnonzero(disc)
                if not nz.size:
                    continue
                f = min(nz.tolist(), key=lead.__getitem__)
                c = -disc * pow(int(disc[f]), p - 2, p) % p
                c[f] = 0
                head = gens[:, :lead[f] + 1]
                t = c[:, None] * head[f]
                t += head
                np.remainder(t, p, out=head)
                t = c[:, None, None] * tab[f]
                t += tab
                np.remainder(t, p, out=tab)
                if lay.up[lead[f]] < 0:
                    gens = np.delete(gens, f, axis=0)
                    tab = np.delete(tab, f, axis=0)
                    del lead[f]
                    continue
                # multiply by (x - a); D_(r,s) of the product at a is D_(r-1,s)
                gens[f] = (gens[f, shift] - a * gens[f]) % p
                tab[f, 1:] = tab[f, :-1]
                tab[f, 0] = 0
                lead[f] = lay.up[lead[f]]
    return dict(zip(lay.monos, gens[min(range(len(lead)), key=lead.__getitem__)].tolist()))


def _interpolate_field(field, points, params: DecodeParams) -> dict:
    # the same recurrence through field ops, with tab[g][r*m + s] = D_(r,s) gens[g]
    zero, add, sub, mul = field.zero, field.add, field.sub, field.mul
    m, D = params.multiplicity, params.weighted_degree_bound

    def dot(us, vs):
        acc = zero
        for u, v in zip(us, vs):
            if u != zero:
                acc = add(acc, mul(u, v))
        return acc

    lay = _Layout(params)
    J = params.y_degree_cap + 1
    lead = list(lay.initial_leads)
    gens = [[zero] * len(lay.shift) for _ in range(J)]
    for g, c in enumerate(lead):
        gens[g][c] = field.one
    for a, b in points:
        hx = _taylor_rows(field, a, m, D + 1)
        hy = _taylor_rows(field, b, m, J)
        tab = []
        for g in gens:
            by_row = [g[c] for c in lay.rows]
            t = []
            for r in range(m):
                u = [dot(by_row[lay.starts[j]:lay.starts[j + 1]], hx[r]) for j in range(J)]
                t.extend(dot(u, hy[s]) for s in range(m))
            tab.append(t)
        for r in range(m):
            for s in range(m - r):
                disc = [t[r * m + s] for t in tab]
                nz = [g for g, d in enumerate(disc) if d != zero]
                if not nz:
                    continue
                f = min(nz, key=lead.__getitem__)
                inv = field.inv(disc[f])
                e = lead[f] + 1
                for g in nz:
                    if g != f:
                        c = mul(disc[g], inv)
                        gens[g][:e] = [sub(u, mul(c, v)) for u, v in zip(gens[g][:e], gens[f])]
                        tab[g] = [sub(u, mul(c, v)) for u, v in zip(tab[g], tab[f])]
                if lay.up[lead[f]] < 0:
                    del gens[f], tab[f], lead[f]
                    continue
                old = gens[f]
                gens[f] = [sub(old[src], mul(a, c)) for src, c in zip(lay.shift, old)]
                tab[f] = [zero] * m + tab[f][:-m]
                lead[f] = lay.up[lead[f]]
    return dict(zip(lay.monos, gens[min(range(len(lead)), key=lead.__getitem__)]))


def interpolate(field, points, params: DecodeParams) -> BivariatePoly:
    """Nonzero Q of weighted degree <= D vanishing to order m at every point.

    Koetter's iterative interpolation over j_cap + 1 generators, which start
    as y^j.  The constraints D_(r,s) Q(a, b) = 0 at each point are imposed
    r outer, s inner, so (r-1, s) is met before (r, s).  Each constraint is
    imposed by the generator with the least leading monomial in (weighted
    degree, y-degree) order among those it does not yet hold for: that pivot
    cancels the others' discrepancies and is then multiplied by (x - a).
    The Hasse derivatives at a point are taken once per generator and then
    follow the same row operations; for the pivot they shift, as
    D_(r,s)((x - a) f)(a, b) = D_(r-1,s) f(a, b).  A generator whose
    weighted degree would pass D is dropped, since it can never be the pivot
    for one at or below D.  Leading coefficients stay 1, and the result is
    the least generator: the only element of the interpolation module with
    the least leading monomial and leading coefficient 1.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    if len(points) != params.n_points:
        raise ValueError("point count does not match params")
    if _is_prime_field(field):
        coeffs = _interpolate_prime(field, points, params)
    else:
        coeffs = _interpolate_field(field, points, params)
    return BivariatePoly(field, params.k, coeffs)


# -- Roth-Ruckenstein y-root extraction ----------------------------------------------


def _coeff_rows(Q: BivariatePoly) -> list[list]:
    """Q's coefficients as a dense (j, i) grid: row j is y^j's coefficient in x."""
    zero = Q.field.zero
    grid = [[zero] * (max(i for i, _ in Q.coeffs) + 1) for _ in range(Q.y_degree() + 1)]
    for (i, j), c in Q.coeffs.items():
        grid[j][i] = c
    return grid


class _PrimeRows:
    """Roth-Ruckenstein steps on a (j, i) int64 array of residues mod p."""

    def __init__(self, field, J: int):
        self.p = field.p
        self.taylor = _PrimeTaylor(field.p, J, J)

    def load(self, grid):
        return np.array(grid, dtype=np.int64)

    def strip(self, cur):
        nz = np.flatnonzero(cur.any(axis=0))
        return cur[:, nz[0]:nz[-1] + 1]

    def section(self, cur) -> list:
        return cur[:, 0].tolist()

    def vanishes(self, cur, c) -> bool:
        p, acc = self.p, cur[-1]
        for row in cur[-2::-1]:
            acc = (acc * c + row) % p
        return not acc.any()

    def shift(self, cur, c):
        # row s of Q(x, xy + c) is x^s sum_j C(j, s) c^(j-s) Q_j(x); each
        # product is reduced before the J-term sum, which stays below 2^63
        p = self.p
        J, W = cur.shape
        mixed = (self.taylor.table(c)[:, :, None] * cur % p).sum(axis=1) % p
        out = np.zeros((J, W + J - 1), dtype=np.int64)
        for s in range(J):
            out[s, s:s + W] = mixed[s]
        return out


class _FieldRows:
    """The same steps on a list of rows, each a list of x-coefficients, through
    field ops; rows may differ in length, missing entries being 0."""

    def __init__(self, field, J: int):
        self.field, self.J = field, J

    def load(self, grid) -> list:
        return grid

    def strip(self, cur) -> list:
        zero = self.field.zero
        v = min(i for row in cur for i, c in enumerate(row) if c != zero)
        return [row[v:] for row in cur]

    def section(self, cur) -> list:
        return [row[0] if row else self.field.zero for row in cur]

    def vanishes(self, cur, c) -> bool:
        acc = Poly.zero(self.field)
        for row in reversed(cur):
            acc = acc.mul_scalar(c) + Poly(self.field, row)
        return acc.is_zero()

    def shift(self, cur, c) -> list:
        f = self.field
        zero, add, mul = f.zero, f.add, f.mul
        taylor = _taylor_rows(f, c, self.J, self.J)
        out = []
        for s in range(self.J):
            acc: list = []
            for j in range(s, self.J):
                t, row = taylor[s][j], cur[j]
                if t == zero:
                    continue
                acc.extend([zero] * (len(row) - len(acc)))
                for i, x in enumerate(row):
                    if x != zero:
                        acc[i] = add(acc[i], mul(t, x))
            out.append([zero] * s + acc)
        return out


def y_roots(Q: BivariatePoly, k: int | None = None,
            rng: random.Random | None = None) -> list[Poly]:
    """All t with deg t <= k and Q(x, t(x)) identically zero, sorted.

    Roth-Ruckenstein recursion on Q's coefficients as a dense (j, i) array,
    row j holding the x-coefficients of y^j: numpy residues for prime
    fields, lists through field ops otherwise.  At each node the leading
    all-zero columns are dropped (Q / x^v), the roots c of column 0,
    Q(0, y), are the candidates for the next coefficient of t, and each
    branch goes on with Q(x, xy + c): the Taylor matrix
    T[s][j] = C(j, s) c^(j-s) times the rows, row s then moved s columns
    right.  At depth k a root is kept when the Horner pass Q(x, c) over the
    rows is zero.  Sections go to `poly.roots` depth first, in root order.
    On a field small enough to walk (`poly._by_evaluation`) that takes no
    draw from rng; on a larger one the draws do not depend on the layout.
    """
    if Q.is_zero():
        raise ValueError("y_roots needs a nonzero polynomial")
    field = Q.field
    k = Q.k if k is None else k
    if k < 0:
        raise ValueError("y_roots needs k >= 0")
    rng = rng if rng is not None else random.Random(0x27182818)
    grid = _coeff_rows(Q)
    rows = (_PrimeRows if _is_prime_field(field) else _FieldRows)(field, len(grid))
    found: list[tuple] = []

    # y -> xy + c keeps a nonzero Q nonzero, and the strip leaves a nonzero
    # column 0, so every branch has a nonzero section Q(0, y)
    def rec(cur, depth: int, prefix: list):
        cur = rows.strip(cur)
        for c, _mult in _poly_roots(Poly(field, rows.section(cur)), rng):
            if depth == k:
                if rows.vanishes(cur, c):
                    found.append(tuple(prefix) + (c,))
            else:
                prefix.append(c)
                rec(rows.shift(cur, c), depth + 1, prefix)
                prefix.pop()

    rec(rows.load(grid), 0, [])
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
