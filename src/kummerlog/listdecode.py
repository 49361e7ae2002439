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
(j, i) array, row j holding the x-coefficients of y^j.  Both stages hold
field elements in numpy int64 arrays and do all their arithmetic through
the `ff.Field` array methods (`vmul`, `vaxpy`, `vsum`), so one body serves
prime and extension base fields alike.
"""

from __future__ import annotations

import random

import numpy as np

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def weighted_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + self.k * j for i, j in self.coeffs)

    def y_degree(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def __repr__(self):
        terms = sorted(self.coeffs)
        return f"BivariatePoly(k={self.k}, {len(terms)} terms, wdeg={self.weighted_degree()})"


# -- interpolation ------------------------------------------------------------------


class _Taylor:
    """Tables T[r][i] = C(i, r) a^(i-r) for r < rows, i < width.

    The binomials are built once mod p.  They are prime-subfield elements,
    whose encodings are the residues themselves, so each table then costs
    the powers of a and one `vmul`.
    """

    def __init__(self, field, rows: int, width: int):
        self.field = field
        p = field.p
        binom = np.zeros((rows, width), dtype=np.int64)
        binom[0] = 1
        for r in range(1, rows):
            # C(i, r) = sum_{t < i} C(t, r - 1); the sum stays below width * p
            binom[r, 1:] = np.cumsum(binom[r - 1, :-1]) % p
        self.binom = binom
        self.exps = np.maximum(np.arange(width) - np.arange(rows)[:, None], 0)

    def table(self, a: int):
        f = self.field
        powers = [f.one]
        for _ in range(1, self.binom.shape[1]):
            powers.append(f.mul(powers[-1], a))
        return f.vmul(self.binom, np.array(powers, dtype=np.int64)[self.exps])


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

    The generators and their derivatives are int64 arrays of elements of
    `field`, an `ff.Field`, and all arithmetic on them is its `v*` methods.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    if len(points) != params.n_points:
        raise ValueError("point count does not match params")
    # gens[g] is generator g's coefficient vector and tab[g, r, s] its
    # D_(r,s) at the current point (entries r + s < m used)
    vmul, vsum, vaxpy = field.vmul, field.vsum, field.vaxpy
    m, D = params.multiplicity, params.weighted_degree_bound
    lay = _Layout(params)
    J = params.y_degree_cap + 1
    lead = list(lay.initial_leads)
    gens = np.zeros((J, len(lay.shift)), dtype=np.int64)
    gens[range(J), lead] = field.one
    shift, rows, starts = np.array(lay.shift), np.array(lay.rows), lay.starts[:-1]
    taylor_x, taylor_y = _Taylor(field, m, D + 1), _Taylor(field, m, J)
    for a, b in points:
        hx = taylor_x.table(a)[:, lay.xexp]
        hy = taylor_y.table(b).T
        by_row = gens[:, rows]
        tab = np.empty((len(lead), m, m), dtype=np.int64)
        for r in range(m):
            u = vsum(vmul(by_row, hx[r]), 1, starts)
            tab[:, r] = vsum(vmul(u[:, :, None], hy), 1)
        for r in range(m):
            for s in range(m - r):
                disc = tab[:, r, s]
                nz = np.flatnonzero(disc)
                if not nz.size:
                    continue
                f = min(nz.tolist(), key=lead.__getitem__)
                c = vmul(disc, field.neg(field.inv(int(disc[f]))))
                c[f] = 0
                head = gens[:, :lead[f] + 1]
                head[...] = vaxpy(head, c[:, None], head[f])
                tab[...] = vaxpy(tab, c[:, None, None], tab[f])
                if lay.up[lead[f]] < 0:
                    gens = np.delete(gens, f, axis=0)
                    tab = np.delete(tab, f, axis=0)
                    del lead[f]
                    continue
                # multiply by (x - a); D_(r,s) of the product at a is D_(r-1,s)
                gens[f] = vaxpy(gens[f, shift], field.neg(a), gens[f])
                tab[f, 1:] = tab[f, :-1]
                tab[f, 0] = 0
                lead[f] = lay.up[lead[f]]
    least = gens[min(range(len(lead)), key=lead.__getitem__)]
    return BivariatePoly(field, params.k, dict(zip(lay.monos, least.tolist())))


# -- Roth-Ruckenstein y-root extraction ----------------------------------------------


class _Rows:
    """Roth-Ruckenstein steps on a dense (j, i) int64 array of field elements,
    row j holding the x-coefficients of y^j."""

    def __init__(self, field, J: int):
        self.field = field
        self.taylor = _Taylor(field, J, J)

    @staticmethod
    def load(Q: BivariatePoly):
        grid = np.zeros((Q.y_degree() + 1, max(i for i, _ in Q.coeffs) + 1), dtype=np.int64)
        for (i, j), c in Q.coeffs.items():
            grid[j, i] = c
        return grid

    @staticmethod
    def strip(cur):
        nz = np.flatnonzero(cur.any(axis=0))
        return cur[:, nz[0]:nz[-1] + 1]

    @staticmethod
    def section(cur) -> list:
        return cur[:, 0].tolist()

    def vanishes(self, cur, c) -> bool:
        acc = cur[-1]
        for row in cur[-2::-1]:
            acc = self.field.vaxpy(row, c, acc)
        return not acc.any()

    def shift(self, cur, c):
        # row s of Q(x, xy + c) is x^s sum_j C(j, s) c^(j-s) Q_j(x)
        f = self.field
        J, W = cur.shape
        mixed = f.vsum(f.vmul(self.taylor.table(c)[:, :, None], cur), 1)
        out = np.zeros((J, W + J - 1), dtype=np.int64)
        for s in range(J):
            out[s, s:s + W] = mixed[s]
        return out


def y_roots(Q: BivariatePoly, k: int | None = None,
            rng: random.Random | None = None) -> list[Poly]:
    """All t with deg t <= k and Q(x, t(x)) identically zero, sorted.

    Roth-Ruckenstein recursion on Q's coefficients as a dense (j, i) int64
    array of elements of Q's `ff.Field`, row j holding the x-coefficients of
    y^j.  At each node the leading all-zero columns are dropped (Q / x^v),
    the roots c of column 0, Q(0, y), are the candidates for the next
    coefficient of t, and each branch goes on with Q(x, xy + c): the Taylor
    matrix T[s][j] = C(j, s) c^(j-s) times the rows, row s then moved s
    columns right.  At depth k a root is kept when the Horner pass Q(x, c)
    over the rows is zero.  Sections go to `poly.roots` depth first, in root
    order.  On a field small enough to walk (`poly._by_evaluation`) that
    takes no draw from rng; on a larger one the draws do not depend on the
    layout.
    """
    if Q.is_zero():
        raise ValueError("y_roots needs a nonzero polynomial")
    field = Q.field
    k = Q.k if k is None else k
    if k < 0:
        raise ValueError("y_roots needs k >= 0")
    rng = rng if rng is not None else random.Random(0x27182818)
    rows = _Rows(field, Q.y_degree() + 1)
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

    rec(rows.load(Q), 0, [])
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
