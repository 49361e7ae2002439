"""Kummer extensions F_q[x]/(x^n - a) and Artin-Schreier extensions
F_p[x]/(x^p - x - a), with the structure the solver leans on.

Both kinds share one shape: the base element g = alpha + b has conjugates
g^(q^i) = h^i alpha + b_i that stay linear, with (h, b_i) = (a^((q-1)/n), b)
for Kummer and (1, b + i*a) for Artin-Schreier.  A kind supplies its modulus,
h and the offsets b_i; one context body derives the rest once, and the
discrete-log machinery is written a single time against it:

    frobenius_element(i)   the i-th conjugate of g, by table lookup
    root_index             constant d -> index i of the monic conjugate
                           factor x + d
    expected_lc(digits)    leading coefficient of the conjugate product
    point_xs / denom       the interpolation points' x-coordinates and the
                           constant value of the modulus on them
    generator_order        ord(g) and its prime factors, for the generic
                           fallback; q^n - 1 is factored on first use only

Contexts are immutable once constructed and safe to share across threads;
all operations are pure.
"""

from __future__ import annotations

import functools
import random

from . import ff, oracle, poly as _poly
from .digits import ExponentDigits
from .poly import Poly


class NotDividing(ValueError):
    """Kummer degree n does not divide q - 1."""


class ReducibleBinomial(ValueError):
    """x^n - a is reducible, so the parameters give no field extension."""


class ZeroOffset(ValueError):
    """Kummer base offset b must be nonzero."""


class ZeroConstant(ValueError):
    """Artin-Schreier constant a must be nonzero."""


class ContextMismatch(ValueError):
    """Operands belong to different extension contexts."""


class IndexOutOfRange(IndexError):
    """Conjugate index outside [0, extension degree)."""


class DigitOutOfRange(ValueError):
    """Digit vector does not match the context (base, length or range)."""


class WrongDegree(ValueError):
    """Prime-model polynomial has the wrong degree."""


class NotIrreducible(ValueError):
    """Prime-model polynomial is reducible."""


class ExtElement:
    """Element of an extension context, represented by its reduced polynomial."""

    __slots__ = ("ctx", "poly")

    def __init__(self, ctx, p: Poly):
        self.ctx = ctx
        self.poly = p

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def key(self) -> tuple:
        """Canonical hashable encoding (reduced coefficients, low to high)."""
        return self.poly.coeffs

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.ctx is other.ctx and self.poly.coeffs == other.poly.coeffs

    def __hash__(self):
        return hash((id(self.ctx), self.poly.coeffs))

    def __repr__(self):
        return f"<{self.poly!r} mod {self.ctx.modulus!r}>"

    def _same(self, other):
        if not isinstance(other, ExtElement) or self.ctx is not other.ctx:
            raise ContextMismatch("operands from different contexts")

    def __add__(self, other):
        self._same(other)
        return ExtElement(self.ctx, self.poly + other.poly)

    def __sub__(self, other):
        self._same(other)
        return ExtElement(self.ctx, self.poly - other.poly)

    def __neg__(self):
        return ExtElement(self.ctx, -self.poly)

    def __mul__(self, other):
        self._same(other)
        return ExtElement(self.ctx, self.ctx._reduce(self.poly * other.poly))

    def inv(self) -> "ExtElement":
        if self.is_zero():
            raise ff.ZeroInverse("0 has no inverse")
        _, u, _ = _poly.ext_gcd(self.poly, self.ctx.modulus)
        return ExtElement(self.ctx, u % self.ctx.modulus)

    def pow_int(self, e: int) -> "ExtElement":
        if e < 0:
            raise ValueError("negative exponent; use inv explicitly")
        if e == 0:
            if self.is_zero():
                raise ff.ZeroToZero("0^0 is undefined here")
            return self.ctx.one_element
        result = self.ctx.one_element
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


class _ContextBase:
    """The one body of both kinds.

    A kind validates its parameters, sets `modulus` = x^N - r(x) (deg r < N)
    and its own attributes, and passes h and the offsets b_i of the
    conjugates g^(q^i) = h^i alpha + b_i; everything else follows from them.
    """

    def __init__(self, base: ff.Field, h, offsets):
        self.base = base
        self.degree = n = len(offsets)
        self.h = h
        table = [base.one]
        for _ in range(n - 1):
            table.append(base.mul(table[-1], h))
        self.conj_table = tuple(table)
        self.conj_offsets = tuple(offsets)
        # monic conjugate factor x + b_i/h^i; its negated constant is the point x_i
        consts = [base.mul(b_i, base.inv(hp)) for b_i, hp in zip(offsets, table)]
        self.root_index = {d: i for i, d in enumerate(consts)}
        self.point_xs = tuple(base.neg(d) for d in consts)
        # the modulus takes one value on every point (x_i^n = (-b)^n for Kummer,
        # x^p = x on F_p for Artin-Schreier), nonzero as it has no root in F_q
        self.denom = self.modulus.eval(self.point_xs[0])
        self.denom_inv = base.inv(self.denom)
        # x^N = r(x): a term c x^k with k >= N folds into r_j c x^(k + j - N)
        self._fold = tuple((j - n, base.neg(c)) for j, c in enumerate(self.modulus.coeffs[:n])
                           if c != base.zero)
        self.zero_element = ExtElement(self, Poly.zero(base))
        self.one_element = ExtElement(self, Poly.one(base))
        self.alpha = ExtElement(self, Poly.x(base))
        self.generator = self.frobenius_element(0)

    @functools.cached_property
    def generator_order(self) -> tuple[int, tuple[int, ...]]:
        """ord(g) and its sorted prime factors, from factoring q^n - 1 on first use."""
        return oracle.factored_order(self.generator, self.base.q ** self.degree - 1)

    def _reduce(self, p: Poly) -> Poly:
        """p mod the modulus, in one top-down pass of x^N = r(x) for any degree."""
        n = self.degree
        if p.degree < n:
            return p
        base, fold = self.base, self._fold
        cs = list(p.coeffs)
        if base.d == 1:
            pp = base.p
            for k in range(len(cs) - 1, n - 1, -1):
                c = cs[k]
                if c:
                    for shift, r in fold:
                        cs[k + shift] = (cs[k + shift] + r * c) % pp
        else:
            add, mul, zero = base.add, base.mul, base.zero
            for k in range(len(cs) - 1, n - 1, -1):
                c = cs[k]
                if c != zero:
                    for shift, r in fold:
                        cs[k + shift] = add(cs[k + shift], mul(r, c))
        return Poly(base, cs[:n])

    def element(self, coeffs) -> ExtElement:
        """Build an element from base-field coefficients (low to high)."""
        p = coeffs if isinstance(coeffs, Poly) else Poly(self.base, list(coeffs))
        return ExtElement(self, self._reduce(p))

    def constant(self, c) -> ExtElement:
        return ExtElement(self, Poly.constant(self.base, self.base.validate(c)))

    def frobenius_element(self, i: int) -> ExtElement:
        """g^(q^i) = h^i * alpha + b_i, straight from the conjugate table."""
        return ExtElement(self, Poly(self.base, [self.conj_offsets[i], self.conj_table[i]]))

    def expected_lc(self, digits):
        """Leading coefficient h^(sum i*e_i) of the conjugate-factor product."""
        return self.conj_table[sum(i * e for i, e in enumerate(digits)) % self.degree]

    def random_element(self, rng: random.Random) -> ExtElement:
        cs = [self.base.random_element(rng) for _ in range(self.degree)]
        return ExtElement(self, Poly(self.base, cs))


class KummerContext(_ContextBase):
    """F_{q^n} = F_q[x]/(x^n - a) with n | q - 1 and prescribed base alpha + b."""

    kind = "kummer"

    def __init__(self, base: ff.Field, n: int, a: int, b: int):
        if not isinstance(base, ff.Field):
            raise ContextMismatch("base must be an ff.Field")
        if n < 2:
            raise ValueError("extension degree n must be >= 2")
        q = base.q
        if (q - 1) % n != 0:
            raise NotDividing(f"n = {n} does not divide q - 1 = {q - 1}")
        a = base.validate(a)
        b = base.validate(b)
        if b == base.zero:
            raise ZeroOffset("base offset b must be nonzero")
        # a root alpha has alpha^q = h*alpha, so its Frobenius orbit has the
        # size of the order of h, and x^n - a is irreducible iff that is n
        h = base.pow_(a, (q - 1) // n)
        if a == base.zero or any(base.pow_(h, n // r) == base.one for r in set(ff.factorize(n))):
            raise ReducibleBinomial(f"x^{n} - {a} is reducible over {base!r}")
        self.n = n
        self.a = a
        self.b = b
        self.modulus = Poly(base, [base.neg(a)] + [base.zero] * (n - 1) + [base.one])
        super().__init__(base, h, [b] * n)

    def __repr__(self):
        return f"Kummer({self.base!r}, n={self.n}, a={self.a}, b={self.b})"


class ASContext(_ContextBase):
    """F_{p^p} = F_p[x]/(x^p - x - a) with a != 0; the offset b may be zero."""

    kind = "artin_schreier"

    def __init__(self, base: ff.Field, a: int, b: int):
        if not isinstance(base, ff.Field) or base.d != 1:
            raise ContextMismatch("Artin-Schreier base must be a prime field")
        p = base.p
        a = base.validate(a)
        b = base.validate(b)
        if a == base.zero:
            raise ZeroConstant("x^p - x - a needs a != 0")
        self.p = p
        self.a = a
        self.b = b
        # x^p - x - a, irreducible over F_p for every nonzero a
        self.modulus = Poly(base, [(-a) % p, (p - 1)] + [0] * (p - 2) + [1])
        super().__init__(base, base.one, [(b + i * a) % p for i in range(p)])

    def __repr__(self):
        return f"ArtinSchreier(p={self.p}, a={self.a}, b={self.b})"


def build_kummer(base: ff.Field, n: int, a: int, b: int) -> KummerContext:
    """Validated Kummer context with the conjugate table precomputed."""
    return KummerContext(base, n, a, b)


def build_artin_schreier(p: int, a: int, b: int) -> ASContext:
    """Validated Artin-Schreier context F_p[x]/(x^p - x - a)."""
    base = ff.build_field(p, 1)
    return ASContext(base, a % p, b % p)


def frobenius_power(ctx, i: int) -> ExtElement:
    """The relation-table element g^(charpower^i); no exponentiation performed."""
    if not 0 <= i < ctx.degree:
        raise IndexOutOfRange(f"conjugate index {i} outside [0, {ctx.degree})")
    return ctx.frobenius_element(i)


def ext_pow(u: ExtElement, e) -> ExtElement:
    """Generic square-and-multiply power, the verification oracle.

    Accepts a plain nonnegative int or an ExponentDigits, taken as its integer
    value; it never consults the conjugate table.
    """
    return u.pow_int(e if isinstance(e, int) else e.to_int())


def encode_digits(ctx, digits: ExponentDigits) -> ExtElement:
    """g^e as the product of conjugate linear factors raised to the digits."""
    if digits.base != ctx.base.q or len(digits) != ctx.degree:
        raise DigitOutOfRange(
            f"need {ctx.degree} digits in base {ctx.base.q}, "
            f"got {len(digits)} in base {digits.base}")
    acc = ctx.one_element
    for i, e_i in enumerate(digits):
        if e_i:
            acc = acc * ctx.frobenius_element(i).pow_int(e_i)
    return acc


class _ExtFieldView:
    """Field-protocol adapter so `poly` routines can run over an extension."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.base.p
        self.d = ctx.base.d * ctx.degree
        self.q = ctx.base.q ** ctx.degree
        self.zero = ctx.zero_element
        self.one = ctx.one_element

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return x.inv()

    def pow_(self, x, e):
        return ext_pow(x, e)

    def embed_int(self, c: int):
        return self.ctx.constant(self.ctx.base.embed_int(c))

    def random_element(self, rng: random.Random):
        return self.ctx.random_element(rng)

    def elements(self):
        if self.q > ff.ENUM_LIMIT:
            raise ff.TooLarge(f"enumeration of q = {self.q} exceeds guard {ff.ENUM_LIMIT}")
        ctx = self.ctx
        return [ctx.element(ExponentDigits.from_int(idx, ctx.base.q, ctx.degree).digits)
                for idx in range(self.q)]

    def sort_key(self, x):
        return x.key()


def embed_from_prime_model(ctx, u: Poly, rng: random.Random):
    """Isomorphism from the prime-field model F_p[y]/(u) onto the context.

    Factors u over the extension, takes a root rho, and returns
    (rho, psi) where psi(v) = v(rho).  Any root gives a valid isomorphism;
    which one comes back depends only on the supplied rng.
    """
    prime = u.field
    if not isinstance(prime, ff.Field) or prime.d != 1 or prime.p != ctx.base.p:
        raise ContextMismatch("u must live over the prime field of the context")
    dn = ctx.base.d * ctx.degree
    if u.degree != dn or u.lc() != prime.one:
        raise WrongDegree(f"u must be monic of degree {dn}")
    if not _poly.is_irreducible(u):
        raise NotIrreducible(f"{u} is reducible over GF({prime.p})")
    view = _ExtFieldView(ctx)
    u_ext = Poly(view, [view.embed_int(c) for c in u.coeffs])
    rts = _poly.roots(u_ext, rng)
    rho = rts[0][0]

    def psi(v: Poly) -> ExtElement:
        if v.field != prime:
            raise ContextMismatch("psi takes polynomials over the prime field")
        return Poly(view, [view.embed_int(c) for c in v.coeffs]).eval(rho)

    return rho, psi
