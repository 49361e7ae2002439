"""Reference operations on `BivariatePoly`, term by term over its coefficient dict.

The library builds and reads Q only through its numpy arrays; the
interpolation and y-root tests check those results against these plain
evaluations, products and Hasse derivatives.
"""

import math

from kummerlog.listdecode import BivariatePoly
from kummerlog.poly import Poly


def _pow(field, x, e: int):
    if e == 0:
        return field.one
    return field.pow_(x, e)


def y_minus(field, k, t: Poly) -> BivariatePoly:
    """The factor y - t(x)."""
    d = {(0, 1): field.one}
    for i, c in enumerate(t.coeffs):
        if c != field.zero:
            d[(i, 0)] = field.neg(c)
    return BivariatePoly(field, k, d)


def mul(P: BivariatePoly, Q: BivariatePoly) -> BivariatePoly:
    f = P.field
    add, mul_, zero = f.add, f.mul, f.zero
    out: dict = {}
    for (i1, j1), c1 in P.coeffs.items():
        for (i2, j2), c2 in Q.coeffs.items():
            key = (i1 + i2, j1 + j2)
            out[key] = add(out.get(key, zero), mul_(c1, c2))
    return BivariatePoly(f, P.k, out)


def evaluate(Q: BivariatePoly, a, b):
    """Q(a, b)."""
    f = Q.field
    r = f.zero
    for (i, j), c in Q.coeffs.items():
        r = f.add(r, f.mul(c, f.mul(_pow(f, a, i), _pow(f, b, j))))
    return r


def hasse_eval(Q: BivariatePoly, a, b, r: int, s: int):
    """Hasse derivative D^(r,s) Q evaluated at (a, b)."""
    f = Q.field
    acc = f.zero
    for (i, j), c in Q.coeffs.items():
        if i < r or j < s:
            continue
        cb = math.comb(i, r) * math.comb(j, s)
        term = f.mul(c, f.embed_int(cb))
        term = f.mul(term, _pow(f, a, i - r))
        term = f.mul(term, _pow(f, b, j - s))
        acc = f.add(acc, term)
    return acc


def vanishes_to_order(Q: BivariatePoly, a, b, m: int) -> bool:
    return all(hasse_eval(Q, a, b, r, s) == Q.field.zero
               for r in range(m) for s in range(m - r))


def eval_y(Q: BivariatePoly, t: Poly) -> Poly:
    """The univariate Q(x, t(x))."""
    f = Q.field
    tp = [Poly.one(f)]
    for _ in range(Q.y_degree()):
        tp.append(tp[-1] * t)
    acc = Poly.zero(f)
    for (i, j), c in Q.coeffs.items():
        acc = acc + (tp[j] * Poly.monomial(f, i, c))
    return acc
