"""Guruswami-Sudan list decoding over F_q.

Given points (x_i, y_i) with distinct x_i, a degree cap k and an agreement
threshold A > sqrt(k n), interpolation finds a nonzero bivariate Q of
(1,k)-weighted degree <= D = mA - 1 vanishing to order m at every point
(all Hasse derivatives of total order < m, which stay correct in small
characteristic).  Every t with deg t <= k passing at least A points then
satisfies Q(x, t(x)) = 0 and is recovered by Roth-Ruckenstein recursion.

Interpolation is Koetter's iterative algorithm on at most j_cap + 1
generator polynomials rather than elimination over the monomial columns.
Its output is deterministic: the unique interpolation polynomial, up to a
scalar, whose leading monomial is least in (weighted degree, y-degree,
x-degree) order, scaled to leading coefficient 1.  This is the kernel vector
of the first free column when the columns are ordered that way.

The algorithm runs after re-encoding (Koetter, Ma and Vardy, IEEE IT 2011).
Shifting y by the interpolant phi of the first min(k + 1, n) points sends
their y-values to 0, where order m at x_i means that (x - x_i)^(m-j) divides
the coefficient of y^j.  So the generators start as V^(m-j) y^j, V the
product of those x - x_i, Koetter's loop runs on the cofactors of the powers
of V, and only the other points impose constraints.  The shift keeps
every polynomial's leading monomial and weighted degree, so shifting the
least generator back gives the same Q as interpolating at all n points.

At each point the Hasse derivatives of every generator come from a few
matrix products, and each constraint is then one rank-1 update of a single
int64 work array (a row per generator: its derivatives at the point, then
its coefficients) and one multiplication of the pivot by (x - a).  Over a
prime field the updates stay unreduced for as many steps as int64 has room
for (`ff.Field.lazy_steps`), then one `% p` brings them back.

Roth-Ruckenstein root finding then runs on Q's coefficients as a dense
(j, i) array, row j holding the x-coefficients of y^j.  Both stages hold
field elements in numpy int64 arrays and do all their arithmetic through
the `ff.Field` array methods (`vmul`, `vaxpy`, `vmatmul` and the lazy
`vaxpy_lazy`/`vreduce`), so one body serves prime and extension base
fields alike.
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
        return _monomials(self.k, self.weighted_degree_bound, [0] * (self.y_degree_cap + 1))

    def __repr__(self):
        return (f"DecodeParams(n={self.n_points}, k={self.k}, A={self.agreement}, "
                f"m={self.multiplicity}, D={self.weighted_degree_bound})")


def _monomials(k: int, D: int, offsets: list[int]) -> list[tuple[int, int]]:
    """(i, j) for which x^(i + offsets[j]) y^j has weighted degree <= D,
    ordered ascending by that monomial's (wdeg, j, i)."""
    out = []
    for j, o in enumerate(offsets):
        for i in range(D - k * j - o + 1):
            out.append((i, j))
    out.sort(key=lambda ij: (ij[0] + offsets[ij[1]] + k * ij[1], ij[1], ij[0]))
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
    raise NoSolution("no workable multiplicity below the cap")


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
    """Coefficient vectors of the cofactors P_j of Q~_j = V^e_j P_j, indexed by
    (i, j) in the ascending (wdeg, j, i) order of the matching monomial
    x^(i + offsets[j]) y^j of Q~ (offsets[j] = deg V^e_j), plus one trailing
    pad entry that stays 0.

    V is monic, so that order is the order of Q~'s leading monomials.  A
    generator is tracked by the index of its leading monomial, so the least
    generator is the one with the smallest index, and its entries past that
    index are 0: a reduction by a smaller pivot touches only the pivot's
    prefix.  Multiplying by x moves entry `shift[c]` to c (the pad for i = 0)
    and the leading index c to `up[c]` (-1 at weighted degree D).  `js`
    lists the rows j with an entry at or below D, and `dense[t, i]` is the
    entry of x^i in row t (that is, `js[t]`), the pad past the row's width,
    for i below the widest row's width.
    """

    def __init__(self, k: int, D: int, offsets: list[int]):
        monos = _monomials(k, D, offsets)
        pos = {ij: c for c, ij in enumerate(monos)}
        pad = len(monos)
        self.shift = [pos.get((i - 1, j), pad) for i, j in monos] + [pad]
        self.up = [pos.get((i + 1, j), -1) for i, j in monos]
        self.js = [j for j, o in enumerate(offsets) if o + k * j <= D]
        width = max(D - k * j - offsets[j] + 1 for j in self.js)
        self.dense = np.array([[pos.get((i, j), pad) for i in range(width)] for j in self.js],
                              dtype=np.int64)
        self.initial_leads = [pos[(0, j)] for j in self.js]


def _toeplitz_index(n: int, width: int):
    """Index I of shape (n, width) with I[i, u] = i - u, or n where u > i.

    For v with one 0 appended (`_pad0`), v[..., I] is the Toeplitz matrix
    of multiplication by v: (v[..., I] @ w)[i] = (v * w)[i] for i < n and
    coefficient vectors w of length `width`."""
    index = np.arange(n)[:, None] - np.arange(width)
    index[index < 0] = n
    return index


def _pad0(v):
    return np.concatenate([v, np.zeros(v.shape[:-1] + (1,), dtype=np.int64)], -1)


def _reencoding(field, base) -> tuple[Poly, Poly]:
    """phi, the interpolant of degree < len(base) through `base`, and
    V = prod (x - x_i) over it, by Newton's divided differences."""
    add, sub, mul = field.add, field.sub, field.mul
    xs = [x for x, _ in base]
    c = [y for _, y in base]
    for t in range(1, len(xs)):
        for i in range(len(xs) - 1, t - 1, -1):
            c[i] = mul(sub(c[i], c[i - 1]), field.inv(sub(xs[i], xs[i - t])))
    # phi = sum c_t N_t with N_t = prod_(s < t) (x - x_s), and V = N_len(base)
    phi, V = [field.zero] * len(xs), [field.one]
    for x, ct in zip(xs, c):
        phi[:len(V)] = [add(u, mul(ct, v)) for u, v in zip(phi, V)]
        V = [sub(lo, mul(x, hi)) for lo, hi in zip([field.zero] + V, V + [field.zero])]
    return Poly(field, phi), Poly(field, V)


def interpolate(field, points, params: DecodeParams) -> BivariatePoly:
    """Nonzero Q of weighted degree <= D vanishing to order m at every point.

    Koetter's iterative interpolation after re-encoding (Koetter, Ma and
    Vardy).  Let R be the first min(k + 1, n) points, phi their interpolant
    (of degree below |R| <= k + 1) and V = prod_R (x - x_i).  The map
    Q~(x, y) = Q(x, y + phi(x)) is a bijection of the polynomials of weighted
    degree <= D and y-degree <= j_cap that keeps each one's leading monomial
    in (weighted degree, y-degree, x-degree) order and its coefficient, since
    x^i phi^(j-s) y^s has weighted degree <= i + k j and, when equal, lower
    y-degree.  It takes the points (x_i, y_i) to (x_i, y_i - phi(x_i)), so
    those of R to (x_i, 0), where order m means that V^(m-j) divides Q~_j,
    the coefficient of y^j.  The Q~ vanishing to order m on R are therefore
    exactly the sums of V^e_j P_j y^j with e_j = max(0, m - j), and Koetter's
    algorithm runs on the cofactors P_j: the generators start as
    V^e_j y^j (P_j = 1, one dropped if it already passes D), and only the
    other n - |R| points impose constraints.  Mapping the least generator back
    by y -> y - phi(x) gives the least element of Q's module, so the result
    is the one the plain algorithm over all n points would give.

    At each remaining point (a, b - phi(a)) the constraints D_(r,s) Q~ = 0
    are imposed r outer, s inner, so (r-1, s) is met before (r, s).  The
    Hasse derivatives of every generator there are three matrix products:
    the table H[t, r, i] = D_r(x^i V^e_j)(a) (the Toeplitz matrix of the
    x-Taylor coefficients of V^e_j at a, times the x-Taylor table), the
    generators' rows times H, and that times the y-Taylor table.  Each
    generator then lives in one work row, its D_(r,s) in (r, s) order, a
    pad, then its coefficients.  Each constraint is imposed by the generator
    with the least leading monomial among those it does not yet hold for:
    that pivot cancels the others' discrepancies by one rank-1 update of the
    work rows, from the constraint's column to the pivot's leading
    coefficient, and is then multiplied by (x - a), one gather and one axpy,
    as D_(r,s)((x - a) f)(a, b) = D_(r-1,s) f(a, b).  The updates skip the
    reduction while the field's int64 headroom lasts (`ff.Field.lazy_steps`
    steps, each adding a product of two residues: 2 at p = 2^31 - 1, about
    10^16 at p = 31); only the pivot row, whose entries get multiplied, is
    reduced before every step.  A generator whose weighted degree would pass D is
    dropped, since it can never be the pivot for one at or below D.  Leading
    coefficients stay 1, and the result is the only element of the
    interpolation module with the least leading monomial and leading
    coefficient 1.  Q~_j = V^e_j P_j is then expanded and
    Q(x, y) = Q~(x, y - phi) taken by Horner's rule in y, each product of
    polynomials in x a matrix product with a Toeplitz matrix.

    Coordinates must be elements of `field`, an `ff.Field` (else
    `ff.FieldMismatch`), with distinct x.  The generators and their
    derivatives are int64 arrays of elements, and all arithmetic on them is
    the field's `v*` methods.
    """
    for x, y in points:
        field.validate(x)
        field.validate(y)
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    if len(points) != params.n_points:
        raise ValueError("point count does not match params")
    vmul, vaxpy, vmatmul = field.vmul, field.vaxpy, field.vmatmul
    vaxpy_lazy, vreduce, lazy_steps = field.vaxpy_lazy, field.vreduce, field.lazy_steps
    k, m, D = params.k, params.multiplicity, params.weighted_degree_bound
    J = params.y_degree_cap + 1
    n_re = min(k + 1, len(points))
    phi, V = _reencoding(field, points[:n_re])
    e = [max(0, m - j) for j in range(J)]
    lay = _Layout(k, D, [n_re * ej for ej in e])
    js = lay.js
    e_rows = [e[j] for j in js]
    # vrow[t] = V^e_j for j = js[t], of degree n_re e_j <= D
    vpow = [Poly.one(field)]
    for _ in range(max(e_rows)):
        vpow.append(vpow[-1] * V)
    vrow = np.zeros((len(js), D + 1), dtype=np.int64)
    for t, ej in enumerate(e_rows):
        vrow[t, :len(vpow[ej].coeffs)] = vpow[ej].coeffs
    # work[g] is generator g's row: its D_(r,s) at the current point in (r, s)
    # order, a pad that stays 0, and from `off` on its coefficient vector
    rs = [(r, s) for r in range(m) for s in range(m - r)]
    col_of = {ij: c for c, ij in enumerate(rs)}
    off = len(rs) + 1
    rr, ss = np.array(rs).T
    # multiplying by (x - a) takes entry gather[c] of the row to c
    gather = np.array([col_of.get((r - 1, s), off - 1) for r, s in rs] + [off - 1]
                      + [off + c for c in lay.shift])
    dense = off + lay.dense
    lower = _toeplitz_index(m, m)
    lead = list(lay.initial_leads)
    work = np.zeros((len(js), off + len(lay.shift)), dtype=np.int64)
    work[range(len(js)), [off + c for c in lead]] = field.one
    taylor_x, taylor_y = _Taylor(field, m, D + 1), _Taylor(field, m, J)
    for a, b in points[n_re:]:
        # tau[t, r] = D_r V^e_j at a, and by Leibniz's rule
        # h[t, r, i] = D_r(x^i V^e_j)(a) = sum_(r' <= r) tau[t, r - r'] D_r' x^i
        ta = taylor_x.table(a)
        tau = vmatmul(vrow, ta.T)
        h = vmatmul(_pad0(tau)[:, lower], ta[:, :dense.shape[1]])
        # w[t, r, g] = D_r of generator g's Q~_j at a, and
        # D_(r,s) Q~ = sum_j D_r Q~_j D_s y^j at (a, b - phi(a))
        w = vmatmul(h, work.T[dense])
        hy = taylor_y.table(field.sub(b, phi.eval(a)))[:, js].T
        work[:, :off - 1] = vmatmul(w.T, hy)[:, rr, ss]
        neg_a = field.neg(a)
        # the rank-1 updates since the last reduction reach columns below top
        pending = top = 0
        for col in range(off - 1):
            disc = vreduce(work[:, col])
            nz = [g for g, v in enumerate(disc.tolist()) if v]
            if not nz:
                continue
            f = min(nz, key=lead.__getitem__)
            c = vmul(disc, field.neg(field.inv(int(disc[f]))))
            c[f] = 0
            row = vreduce(work[f])
            hi = off + lead[f] + 1
            work[:, col:hi] = vaxpy_lazy(work[:, col:hi], c[:, None], row[col:hi])
            if lay.up[lead[f]] < 0:
                work = np.delete(work, f, axis=0)
                del lead[f]
            else:
                # multiply by (x - a); D_(r,s) of the product at a is D_(r-1,s)
                prod = row[gather]
                prod[off:] = vaxpy_lazy(prod[off:], neg_a, row[off:])
                work[f] = prod
                lead[f] = lay.up[lead[f]]
                hi = off + lead[f] + 1
            # each step adds at most one product of residues to an entry
            pending, top = pending + 1, max(top, hi)
            if pending == lazy_steps:
                work[:, col:top] = vreduce(work[:, col:top])
                pending = top = 0
        # the next point's products need reduced coefficients
        work[:, off:top] = vreduce(work[:, off:top])
    P = work[min(range(len(lead)), key=lead.__getitem__)][dense]
    Qt = np.zeros((J, D + 1), dtype=np.int64)
    Qt[js] = vmatmul(_pad0(vrow)[:, _toeplitz_index(D + 1, P.shape[1])], P[..., None])[..., 0]
    # Q = Q~(x, y - phi) by Horner's rule, acc <- (y - phi) acc + Q~_j from
    # the top nonzero row down; the top row of acc is 0 before each step
    neg_phi = np.array([[field.neg(phi.coeff(t))] for t in range(n_re)], dtype=np.int64)
    band = _toeplitz_index(D + 1, n_re)
    acc = np.zeros_like(Qt)
    for row in Qt[np.flatnonzero(Qt.any(axis=1))[-1]::-1]:
        acc = vaxpy(np.concatenate([row[None], acc[:-1]]), field.one,
                    vmatmul(_pad0(acc)[:, band], neg_phi)[..., 0])
    j_idx, i_idx = np.nonzero(acc)
    return BivariatePoly(field, k, dict(zip(zip(i_idx.tolist(), j_idx.tolist()),
                                            acc[j_idx, i_idx].tolist())))


# -- Roth-Ruckenstein y-root extraction ----------------------------------------------


def y_roots(Q: BivariatePoly, k: int | None = None,
            rng: random.Random | None = None) -> list[Poly]:
    """All t with deg t <= k and Q(x, t(x)) identically zero, sorted.

    Roth-Ruckenstein recursion (Roth and Ruckenstein, IEEE IT 2000) on Q's
    coefficients as a dense (j, i) int64 array of elements of Q's
    `ff.Field`, row j holding the x-coefficients of y^j.  At each node the
    leading all-zero columns are dropped (Q / x^v), the roots c of column 0,
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
    J = Q.y_degree() + 1
    taylor = _Taylor(field, J, J)
    grid = np.zeros((J, max(i for i, _ in Q.coeffs) + 1), dtype=np.int64)
    for (i, j), c in Q.coeffs.items():
        grid[j, i] = c
    found: list[Poly] = []

    # y -> xy + c keeps a nonzero Q nonzero, and the strip leaves a nonzero
    # column 0, so every branch has a nonzero section Q(0, y)
    def rec(cur, depth: int, prefix: list):
        nz = np.flatnonzero(cur.any(axis=0))
        cur = cur[:, nz[0]:nz[-1] + 1]
        for c, _mult in _poly_roots(Poly(field, cur[:, 0].tolist()), rng):
            if depth == k:
                acc = cur[-1]
                for row in cur[-2::-1]:
                    acc = field.vaxpy(row, c, acc)
                if not acc.any():
                    found.append(Poly(field, prefix + [c]))
            else:
                # row s of Q(x, xy + c) is x^s sum_j C(j, s) c^(j-s) Q_j(x)
                mixed = field.vmatmul(taylor.table(c), cur)
                W = cur.shape[1]
                shifted = np.zeros((J, W + J - 1), dtype=np.int64)
                for s in range(J):
                    shifted[s, s:s + W] = mixed[s]
                prefix.append(c)
                rec(shifted, depth + 1, prefix)
                prefix.pop()

    rec(grid, 0, [])
    # no curve repeats: poly.roots gives each root once, so two branches
    # differ at the depth where they split
    return sorted(found, key=Poly.sort_key)


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
