"""Dense univariate polynomial arithmetic and factorization over F_q.

Coefficients are stored low to high with no trailing zeros (the zero
polynomial has an empty coefficient tuple).  Factorization is the classic
chain: squarefree decomposition (with p-th root extraction in positive
characteristic), distinct-degree splitting, then Cantor-Zassenhaus equal
degree splitting for odd q and the absolute-trace variant for q = 2^d.

The coefficient domain is anything exposing the small field protocol of
`ff.Field` (zero/one/add/sub/mul/neg/inv/pow_/random_element/sort_key);
prime fields get inlined mod-p loops in the hot operations.
"""

from __future__ import annotations

import random

from . import ff


class DivisionByZeroPoly(ZeroDivisionError):
    """Division or reduction by the zero polynomial (or a constant modulus)."""


class Poly:
    """Univariate polynomial over a fixed coefficient field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        zero = field.zero
        n = len(coeffs)
        while n and coeffs[n - 1] == zero:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field, k: int, c=None) -> "Poly":
        c = field.one if c is None else c
        return cls(field, (field.zero,) * k + (c,))

    # -- basic queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def sort_key(self):
        f = self.field
        return (len(self.coeffs), tuple(f.sort_key(c) for c in reversed(self.coeffs)))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.field.zero:
                continue
            cs = "" if (c == self.field.one and i > 0) else str(c)
            if i == 0:
                parts.append(cs or "1")
            elif i == 1:
                parts.append(f"{cs}x")
            else:
                parts.append(f"{cs}x^{i}")
        return " + ".join(parts)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if isinstance(f, ff.Field) and f.d == 1:
            p = f.p
            for i, c in enumerate(b):
                out[i] = (out[i] + c) % p
        else:
            add = f.add
            for i, c in enumerate(b):
                out[i] = add(out[i], c)
        return Poly(f, out)

    def __neg__(self):
        f = self.field
        neg = f.neg
        return Poly(f, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(f, ())
        if isinstance(f, ff.Field) and f.d == 1:
            p = f.p
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            out = [c % p for c in out]
        else:
            add, mul, zero = f.add, f.mul, f.zero
            out = [zero] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai != zero:
                    for j, bj in enumerate(b):
                        if bj != zero:
                            out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly(f, out)

    def mul_scalar(self, c):
        f = self.field
        if c == f.zero:
            return Poly(f, ())
        mul = f.mul
        return Poly(f, [mul(a, c) for a in self.coeffs])

    def divrem(self, other) -> tuple["Poly", "Poly"]:
        """Quotient and remainder; deg(rem) < deg(other)."""
        f = self.field
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        dn, dd = self.degree, other.degree
        if dn < dd:
            return Poly(f, ()), self
        rem = list(self.coeffs)
        den = other.coeffs
        if isinstance(f, ff.Field) and f.d == 1:
            p = f.p
            inv_lc = pow(den[-1], p - 2, p)
            quot = [0] * (dn - dd + 1)
            for i in range(dn - dd, -1, -1):
                c = rem[i + dd]
                if c:
                    c = (c * inv_lc) % p
                    quot[i] = c
                    for j in range(dd + 1):
                        rem[i + j] = (rem[i + j] - c * den[j]) % p
        else:
            sub, mul = f.sub, f.mul
            inv_lc = f.inv(den[-1])
            quot = [f.zero] * (dn - dd + 1)
            for i in range(dn - dd, -1, -1):
                c = rem[i + dd]
                if c != f.zero:
                    c = mul(c, inv_lc)
                    quot[i] = c
                    for j in range(dd + 1):
                        rem[i + j] = sub(rem[i + j], mul(c, den[j]))
        return Poly(f, quot), Poly(f, rem[:dd])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def eval(self, a):
        """Value at a, by Horner's rule."""
        f = self.field
        if isinstance(f, ff.Field) and f.d == 1:
            p = f.p
            r = 0
            for c in reversed(self.coeffs):
                r = (r * a + c) % p
            return r
        add, mul = f.add, f.mul
        r = f.zero
        for c in reversed(self.coeffs):
            r = add(mul(r, a), c)
        return r

    def derivative(self) -> "Poly":
        f = self.field
        if self.degree < 1:
            return Poly(f, ())
        mul, embed = f.mul, f.embed_int
        return Poly(f, [mul(embed(i), c) for i, c in enumerate(self.coeffs) if i > 0])

    def make_monic(self) -> tuple:
        """Return (leading coefficient, monic multiple)."""
        if self.is_zero():
            return self.field.zero, self
        lc = self.lc()
        if lc == self.field.one:
            return lc, self
        return lc, self.mul_scalar(self.field.inv(lc))


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor (zero if both inputs are zero)."""
    while not g.is_zero():
        f, g = g, f % g
    return f.make_monic()[1]


def ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (d, u, v) with u*f + v*g = d, d the monic gcd."""
    field = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(field), Poly.zero(field)
    v0, v1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lc = r0.lc()
    if lc != field.one:
        s = field.inv(lc)
        r0, u0, v0 = r0.mul_scalar(s), u0.mul_scalar(s), v0.mul_scalar(s)
    return r0, u0, v0


def powmod(f: Poly, e, m: Poly) -> Poly:
    """f^e mod m by square-and-multiply, with e a nonnegative int or a digit
    vector (taken as its integer value)."""
    if m.degree < 1:
        raise DivisionByZeroPoly("modulus must have degree >= 1")
    field = f.field
    if not isinstance(e, int):
        e = e.to_int()
    if e < 0:
        raise ValueError("negative exponent")
    result = Poly.one(field)
    base = f % m
    while e:
        if e & 1:
            result = (result * base) % m
        e >>= 1
        if e:
            base = (base * base) % m
    return result


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: x^{q^n} = x mod f and gcd(x^{q^{n/r}} - x, f) = 1."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    field = f.field
    q = field.q
    f = f.make_monic()[1]
    x = Poly.x(field)
    frob = [x % f]
    h = frob[0]
    for _ in range(n):
        h = powmod(h, q, f)
        frob.append(h)
    if frob[n] != x % f:
        return False
    for r in ff._prime_factors(n):
        if gcd(frob[n // r] - x, f).degree != 0:
            return False
    return True


# -- factorization ---------------------------------------------------------------


def _pth_root_poly(f: Poly) -> Poly:
    """For f a polynomial in x^p, return g with g^p = f."""
    field = f.field
    p, q = field.p, field.q
    e = q // p  # c -> c^(q/p) is the coefficient p-th root
    pw = field.pow_
    out = []
    for i in range(0, f.degree + 1, p):
        c = f.coeff(i)
        out.append(pw(c, e) if c != field.zero else field.zero)
    return Poly(field, out)


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic f -> [(monic squarefree g_i, multiplicity m_i)], pairwise coprime."""
    field = f.field
    p = field.p
    one = Poly.one(field)
    factors: list[tuple[Poly, int]] = []
    n = 1
    while f.degree > 0:
        d = f.derivative()
        if d.is_zero():
            f = _pth_root_poly(f)
            n *= p
            continue
        g = gcd(f, d)
        h = f // g
        i = 1
        while h != one:
            t = gcd(g, h)
            piece = h // t
            if piece.degree > 0:
                factors.append((piece, i * n))
            g, h = g // t, t
            i += 1
        if g == one:
            break
        f = g  # remaining part is a polynomial in x^p
    return factors


def _ddf(f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree f: [(product, factor degree)]."""
    field = f.field
    q = field.q
    x = Poly.x(field)
    out = []
    h = x % f
    i = 1
    while f.degree >= 2 * i:
        h = powmod(h, q, f)
        g = gcd(h - x, f)
        if g.degree > 0:
            out.append((g, i))
            f = f // g
            h = h % f
        i += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _edf(f: Poly, r: int, rng: random.Random) -> list[Poly]:
    """Equal-degree split: monic squarefree f, all irreducible factors of degree r."""
    if f.degree == r:
        return [f]
    field = f.field
    q = field.q
    one = Poly.one(field)
    while True:
        u = Poly(field, [field.random_element(rng) for _ in range(f.degree)])
        if u.degree < 1:
            continue
        g = gcd(u, f)
        if 0 < g.degree < f.degree:
            break
        if field.p == 2:
            # absolute trace of u splits in characteristic 2
            d2 = q.bit_length() - 1
            t = u % f
            acc = t
            for _ in range(r * d2 - 1):
                t = powmod(t, 2, f)
                acc = acc + t
            g = gcd(acc, f)
        else:
            v = powmod(u, (q ** r - 1) // 2, f)
            g = gcd(v - one, f)
        if 0 < g.degree < f.degree:
            break
    return _edf(g, r, rng) + _edf(f // g, r, rng)


def factor(f: Poly, rng: random.Random | None = None) -> tuple:
    """Full factorization: (leading coefficient, [(monic irreducible, multiplicity)]).

    The factor list is sorted canonically (degree, then coefficients), so the
    output is deterministic for a given rng state.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = rng if rng is not None else random.Random(0x5EED)
    lc, mon = f.make_monic()
    out = []
    for sqf, mult in _squarefree_decomposition(mon):
        for prod, deg in _ddf(sqf):
            for irr in _edf(prod, deg, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: t[0].sort_key())
    return lc, out


def roots(f: Poly, rng: random.Random | None = None) -> list[tuple]:
    """All roots in the coefficient field, with multiplicities."""
    field = f.field
    out = []
    for g, mult in factor(f, rng)[1]:
        if g.degree == 1:
            out.append((field.neg(g.coeff(0)), mult))
    out.sort(key=lambda t: field.sort_key(t[0]))
    return out
