"""Dense univariate polynomial arithmetic, root finding and factorization over F_q.

Coefficients are stored low to high with no trailing zeros (the zero
polynomial has an empty coefficient tuple).  Roots come first: the linear
part of a monic f (its roots with multiplicities, and the cofactor with no
root) is found by synthetic division by x - r.  The candidates r are every
element of F_q while q <= 12*log2(q)*deg f (and q <= ff.ENUM_LIMIT), else
the roots of gcd(f, x^q - x) split at degree 1; `_by_evaluation` gives the
measured crossover behind the 12.  `roots` stops there.  `factor` runs the
classic chain on the cofactor only: squarefree decomposition (with p-th
root extraction in positive characteristic), distinct-degree splitting,
then Cantor-Zassenhaus equal degree splitting for odd q and the
absolute-trace variant for q = 2^d.

Each squarefree piece gets its Frobenius rows x^(q*i) mod f once
(`_frobenius_rows`, after von zur Gathen and Shoup), and every q-th power
of the distinct- and equal-degree steps and of `is_irreducible`'s chain is
then one row combination instead of a power mod f.

The coefficient domain of the arithmetic, `roots` and the linear part is
anything exposing the small field protocol of `ff.Field`
(zero/one/add/sub/mul/neg/inv/pow_/random_element/sort_key, and elements()
where q is small): the embedding runs `roots` over `extfield._ExtFieldView`.
`factor` and `is_irreducible` take a polynomial over an `ff.Field`, whose
array methods (`vmul`, `vsum`) build and apply the rows.  Prime fields get
inlined mod-p loops in the hot operations.
"""

from __future__ import annotations

import random

import numpy as np

from . import ff

# roots are found by walking the field while q <= EVAL_CROSSOVER*log2(q)*deg f
EVAL_CROSSOVER = 12
# entries of int64 products held at once by the Frobenius matrix power: one
# block up to degree 128, 16 MB per temporary beyond it
ROWS_BLOCK = 1 << 21


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
    """Monic greatest common divisor (zero if both inputs are zero).

    Euclid on coefficient lists, keeping only remainders: each step reduces
    a by b in place, cuts a below deg(b) and strips its trailing zeros, and
    swaps.  No quotient and no intermediate `Poly` is built.
    """
    field = f.field
    zero = field.zero
    a, b = list(f.coeffs), list(g.coeffs)
    p = field.p if isinstance(field, ff.Field) and field.d == 1 else None
    while b:
        db = len(b) - 1
        low = b[:db]
        if p is not None:
            inv_lc = pow(b[-1], p - 2, p)
            for i in range(len(a) - 1 - db, -1, -1):
                c = a[i + db]
                if c:
                    c = c * inv_lc % p
                    a[i:i + db] = [(u - c * v) % p for u, v in zip(a[i:i + db], low)]
        else:
            sub, mul = field.sub, field.mul
            inv_lc = field.inv(b[-1])
            for i in range(len(a) - 1 - db, -1, -1):
                c = a[i + db]
                if c != zero:
                    c = mul(c, inv_lc)
                    a[i:i + db] = [sub(u, mul(c, v)) for u, v in zip(a[i:i + db], low)]
        del a[db:]
        while a and a[-1] == zero:
            a.pop()
        a, b = b, a
    return Poly(field, a).make_monic()[1]


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


def _frobenius_rows(f: Poly) -> np.ndarray:
    """Berlekamp's Frobenius matrix of a monic f of degree n >= 1 over an
    `ff.Field`: the (n, n) int64 array whose row i holds the coefficients of
    x^(q*i) mod f, low to high.

    f's companion matrix C (row i: x^(i+1) mod f) is raised to the q-th
    power by squaring; row i of C^q is x^(q+i) mod f, so row i of the result
    is row i-1 times C^q.  Since c -> c^q fixes F_q, h^q mod f is then the
    row combination sum_i h_i * row i (`_frobenius`), and the same rows give
    q-th powers modulo any divisor of f after one reduction.
    """
    field = f.field
    n = f.degree
    comp = np.zeros((n, n), dtype=np.int64)
    comp[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    comp[-1] = [field.neg(c) for c in f.coeffs[:-1]]

    def matmul(a, b):
        # each product is reduced before the sum: a plain a @ b % p overflows
        # int64 for p near 2^31; blocks of rows keep the (rows, n, n)
        # broadcast product below ROWS_BLOCK entries at any degree
        step = max(1, ROWS_BLOCK // (n * n))
        return np.concatenate([field.vsum(field.vmul(a[i:i + step, :, None], b), axis=1)
                               for i in range(0, n, step)])

    power = None
    e = field.q
    while e:
        if e & 1:
            power = comp if power is None else matmul(power, comp)
        e >>= 1
        if e:
            comp = matmul(comp, comp)
    rows = np.zeros((n, n), dtype=np.int64)
    rows[0, 0] = field.one
    for i in range(1, n):
        rows[i] = field.vsum(field.vmul(rows[i - 1, :, None], power), axis=0)
    return rows


def _frobenius(h: Poly, rows: np.ndarray) -> Poly:
    """h^q mod f for h of degree < n, given f's Frobenius rows (n, n)."""
    field = h.field
    c = np.array(h.coeffs, dtype=np.int64)
    return Poly(field, field.vsum(field.vmul(c[:, None], rows[:len(c)]), axis=0).tolist())


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: x^{q^n} = x mod f and gcd(x^{q^{n/r}} - x, f) = 1.

    f is over an `ff.Field`; the chain x^{q^i} mod f comes from f's
    Frobenius rows, one row combination a step.
    """
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    field = f.field
    f = f.make_monic()[1]
    x = Poly.x(field)
    rows = _frobenius_rows(f)
    frob = [x % f]
    h = frob[0]
    for _ in range(n):
        h = _frobenius(h, rows)
        frob.append(h)
    if frob[n] != x % f:
        return False
    for r in set(ff.factorize(n)):
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


def _ddf(f: Poly, rows: np.ndarray) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree f over an `ff.Field`, given
    its Frobenius rows: [(product, factor degree)].  Each x^{q^i} is one row
    combination, reduced modulo the part of f not yet split off."""
    field = f.field
    x = Poly.x(field)
    out = []
    h = x % f
    i = 1
    while f.degree >= 2 * i:
        h = _frobenius(h, rows) % f
        g = gcd(h - x, f)
        if g.degree > 0:
            out.append((g, i))
            f = f // g
            h = h % f
        i += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _edf(f: Poly, r: int, rng: random.Random, rows: np.ndarray | None = None) -> list[Poly]:
    """Equal-degree split: monic squarefree f, all irreducible factors of degree r.

    For odd q, u^((q^r - 1)/2) is computed as (u * u^q * ... * u^(q^(r-1)))^((q-1)/2),
    its q-th powers taken from `rows`, the Frobenius rows of f or of any
    multiple of f over an `ff.Field` (so the rows of a piece serve every
    divisor the recursion splits off).  r = 1 and characteristic 2 (the
    absolute trace) need no rows and run over any field of the protocol.
    """
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
            t = norm = u
            for _ in range(r - 1):
                t = _frobenius(t, rows) % f
                norm = (norm * t) % f
            g = gcd(powmod(norm, (q - 1) // 2, f) - one, f)
        if 0 < g.degree < f.degree:
            break
    return _edf(g, r, rng, rows) + _edf(f // g, r, rng, rows)


def _divide_linear(coeffs, r, field) -> tuple[list, object]:
    """Synthetic division of a coefficient list (low to high) by x - r:
    (quotient coefficients, remainder), the remainder being f(r)."""
    out = []
    acc = field.zero
    if isinstance(field, ff.Field) and field.d == 1:
        p = field.p
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
            out.append(acc)
    else:
        add, mul = field.add, field.mul
        for c in reversed(coeffs):
            acc = add(mul(acc, r), c)
            out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem


def _by_evaluation(q: int, deg: int) -> bool:
    """Whether to find the roots of a degree-deg f by walking F_q.

    Walking costs about q*deg products, and fewer on a split f, whose
    cofactor shrinks to a constant before the walk ends.  The gcd side needs
    x^q mod f, about 2*log2(q) products of degree deg, and one more power
    per equal-degree split.  Timed in pure Python at q = 31, 191, 1031, 4099
    and 65537 for deg 1..32, the walk wins on split inputs up to
    q/(log2(q)*deg) of about 20 to 30; on inputs with few roots it wins at
    every degree for q <= 191 but only up to about 1 for q > 1000.
    EVAL_CROSSOVER = 12 walks every q <= 191 from degree 2 on (at degree 1
    the sides are within 12%) and is at most 9x off the faster side on that
    grid.  Never walks past ff.ENUM_LIMIT.
    """
    return q <= ff.ENUM_LIMIT and q <= EVAL_CROSSOVER * q.bit_length() * deg


def _linear_part(f: Poly, rng: random.Random) -> tuple[list[tuple], Poly]:
    """Roots of a monic f in its field with multiplicities, unsorted, and the
    monic cofactor left after dividing them out (it has no root in the field).

    Candidates are every field element on a small field (no rng draw), or
    the roots of gcd(f, x^q - x) split at degree 1 otherwise; each candidate
    is divided out by synthetic division for as long as the remainder is 0.
    """
    field = f.field
    if f.degree < 1:
        return [], f
    if _by_evaluation(field.q, f.degree):
        candidates = field.elements()
    else:
        x = Poly.x(field)
        g = gcd(powmod(x, field.q, f) - x, f)
        candidates = [field.neg(h.coeff(0)) for h in _edf(g, 1, rng)] if g.degree > 0 else []
    zero = field.zero
    coeffs = list(f.coeffs)
    out = []
    for r in candidates:
        if len(coeffs) < 2:
            break
        mult = 0
        while len(coeffs) > 1:
            quot, rem = _divide_linear(coeffs, r, field)
            if rem != zero:
                break
            coeffs = quot
            mult += 1
        if mult:
            out.append((r, mult))
    return out, Poly(field, coeffs)


def factor(f: Poly, rng: random.Random | None = None) -> tuple:
    """Full factorization of f over an `ff.Field`: (leading coefficient,
    [(monic irreducible, multiplicity)]).

    The linear part comes first (`_linear_part`); the squarefree,
    distinct-degree and equal-degree chain runs only on the cofactor that
    has no root, each squarefree piece with its own Frobenius rows.  The
    factor list is sorted canonically (degree, then coefficients); being
    unique, it does not depend on the rng state.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = rng if rng is not None else random.Random(0x5EED)
    field = f.field
    lc, mon = f.make_monic()
    lin, rest = _linear_part(mon, rng)
    out = [(Poly(field, (field.neg(r), field.one)), mult) for r, mult in lin]
    for sqf, mult in _squarefree_decomposition(rest):
        rows = _frobenius_rows(sqf)
        for prod, deg in _ddf(sqf, rows):
            for irr in _edf(prod, deg, rng, rows):
                out.append((irr, mult))
    out.sort(key=lambda t: t[0].sort_key())
    return lc, out


def roots(f: Poly, rng: random.Random | None = None) -> list[tuple]:
    """All roots in the coefficient field with multiplicities, sorted: the
    linear part of f (`_linear_part`), without factoring the cofactor.
    Needs only the field protocol, so it also runs over an extension view."""
    if f.is_zero():
        raise ValueError("the zero polynomial has every element as a root")
    rng = rng if rng is not None else random.Random(0x5EED)
    field = f.field
    out = _linear_part(f.make_monic()[1], rng)[0]
    out.sort(key=lambda t: field.sort_key(t[0]))
    return out
