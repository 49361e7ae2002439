"""Reference interpolation polynomial, by lattice reduction of the module basis.

The polynomials of y-degree <= L that vanish to order m at n points with
distinct x form a module over F[x], with the basis G^max(0, m-j) (y - R)^j
for j <= L, where G = prod (x - x_i) and R is the interpolant of all n
points (Lee and O'Sullivan, J. Symbolic Comput. 2008).  Each basis element
is a row of L + 1 polynomials in x, entry t the coefficient of y^t.
Mulders-Storjohann reduction (J. Symbolic Comput. 2003) brings the rows to
weak Popov form under the column shifts k t: the leading position of a row
is the column t with the greatest deg + k t, the rightmost on ties, which is
where its leading monomial in (weighted degree, y-degree, x-degree) order
sits.  Once no two rows share a leading position, no sum of rows can cancel
their leading monomials, so the row with the least one, scaled to leading
coefficient 1, is the module's unique monic least element: what
`listdecode.interpolate` must return, whatever its algorithm.

Rows are int64 arrays of field elements and every operation is one of the
field's own (`mul`, `inv`, `vmul`, `vaxpy`, `vmatmul`), so extension base
fields work too.  It is far slower than the solver's interpolation and
meant only for tests.
"""

import numpy as np

from kummerlog.poly import Poly


def _times(field, rows, c: Poly, width: int):
    """Each row (along the last axis, an x-polynomial) times c, truncated to width."""
    toeplitz = np.zeros((width, width), dtype=np.int64)
    for s, cs in enumerate(c.coeffs[:width]):
        toeplitz[np.arange(width - s), np.arange(s, width)] = cs
    return field.vmatmul(rows, toeplitz)


def _interpolant(field, points) -> Poly:
    """R of degree < n through every point, by Lagrange's formula."""
    R = Poly.zero(field)
    for i, (xi, yi) in enumerate(points):
        term = Poly.constant(field, yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                scale = field.inv(field.sub(xi, xj))
                term = term * Poly(field, [field.mul(field.neg(xj), scale), scale])
        R = R + term
    return R


def _leading(row, k: int):
    """(shifted degree, position) of a row's leading term."""
    nonzero = row != 0
    width = row.shape[-1]
    deg = width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return max((int(d) + k * t, t) for t, d in enumerate(deg) if nonzero[t].any())


def least_element(field, points, params) -> dict:
    """{(i, j): c} of the monic interpolation polynomial with the least
    leading monomial, for the params' k, multiplicity and y-degree cap."""
    k, m, L = params.k, params.multiplicity, params.y_degree_cap
    n = len(points)
    G = Poly.one(field)
    for x, _ in points:
        G = G * Poly(field, [field.neg(x), field.one])
    G_pow = [Poly.one(field)]
    for _ in range(m):
        G_pow.append(G_pow[-1] * G)
    minus_R = -_interpolant(field, points)
    # no entry of a basis row, nor of any reduction of it, passes this degree
    width = max(n * max(0, m - j) + (n - 1) * j for j in range(L + 1)) + 1
    basis = np.zeros((L + 1, L + 1, width), dtype=np.int64)
    power = np.zeros((L + 1, width), dtype=np.int64)  # (y - R)^j, row t for y^t
    power[0, 0] = field.one
    for j in range(L + 1):
        basis[j] = _times(field, power, G_pow[max(0, m - j)], width)
        shifted = np.concatenate([np.zeros((1, width), dtype=np.int64), power[:-1]])
        power = field.vaxpy(shifted, field.one, _times(field, power, minus_R, width))
    lead = [_leading(row, k) for row in basis]
    while True:
        owner, pair = {}, None
        for r, (_, t) in enumerate(lead):
            if t in owner:
                pair = owner[t], r
                break
            owner[t] = r
        if pair is None:
            break
        # cancel the leading term of the row whose term has the higher degree
        a, b = sorted(pair, key=lead.__getitem__, reverse=True)
        t = lead[a][1]
        da, db = lead[a][0] - k * t, lead[b][0] - k * t
        s = da - db
        c = field.neg(field.mul(int(basis[a, t, da]), field.inv(int(basis[b, t, db]))))
        basis[a, :, s:] = field.vaxpy(basis[a, :, s:], c, basis[b, :, :width - s])
        lead[a] = _leading(basis[a], k)
    r = min(range(L + 1), key=lead.__getitem__)
    sdeg, t = lead[r]
    row = field.vmul(basis[r], field.inv(int(basis[r, t, sdeg - k * t])))
    j_idx, i_idx = np.nonzero(row)
    return dict(zip(zip(i_idx.tolist(), j_idx.tolist()), row[j_idx, i_idx].tolist()))
