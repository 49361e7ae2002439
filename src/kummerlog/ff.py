"""Arithmetic in F_p and its small extensions F_q = F_{p^d}.

Elements are plain Python ints in [0, q).  For a prime field the int is the
residue itself; for d > 1 it is the index sum(c_i * p^i) of the coefficient
vector (c_0, ..., c_{d-1}) in the generator basis, low coefficient least
significant.  This keeps every element canonical, hashable and directly
comparable, and it lets the hot loops in `poly` stay on machine ints.

Extension fields precompute discrete-log tables over a primitive element,
so mul and inv are O(1) lookups; that is why extension construction is
guarded to q <= 2^20.

The `v*` methods apply the same arithmetic to numpy int64 arrays of element
encodings, elementwise or as a matrix product (`vmatmul`), so array code
(the list decoder) is written once for every q: prime fields reduce residues
mod p, extension fields go through numpy copies of the tables.  A prime
field may also leave sums unreduced while int64 has room for them
(`vaxpy_lazy`, `lazy_steps`, `vreduce`).

The package's integer number theory lives here too, once: the primality
test and the factorization behind q - 1, n and q^n - 1, and the one
square-and-multiply loop, `power`, which takes the identity and the product
(`Field.pow_` is `power` over `Field.mul`).
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np


class NotPrime(ValueError):
    """p failed the primality check."""


class ReducibleModulus(ValueError):
    """The supplied extension modulus is not irreducible over F_p."""


class DegreeMismatch(ValueError):
    """Modulus degree/shape does not match the requested extension."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldMismatch(ValueError):
    """Value is not a canonical element of this field."""


class ZeroToZero(ValueError):
    """0^0 is rejected rather than defined to be 1."""


class TooLarge(ValueError):
    """Operation exceeds the configured desk-scale guard."""


MAX_PRIME = 1 << 31          # products of residues must fit a 64-bit word
ENUM_LIMIT = 1 << 20         # full-field enumeration / table guard

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic < 3.3e24


def is_prime(n: int) -> bool:
    """Miller-Rabin over `_MR_BASES`, exact for every p and every factor of a
    group order below `oracle.FACTOR_GUARD`."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(m: int, rng: random.Random | None = None) -> list[int]:
    """Prime factorization of m >= 1 as a sorted list with multiplicity."""
    if m < 1:
        raise ValueError("factorize needs m >= 1")
    out: list[int] = []
    for p in (2, 3, 5, 7):
        while m % p == 0:
            out.append(p)
            m //= p
    f = 11
    while f * f <= m and f < 10_000:
        while m % f == 0:
            out.append(f)
            m //= f
        f += 2
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            out.append(v)
            continue
        rng = rng if rng is not None else random.Random(0xFAC7)  # only composites draw
        d = _pollard_brent(v, rng)
        stack.extend((d, v // d))
    return sorted(out)


def power(x, e, one, mul):
    """x^e by square-and-multiply, for e a nonnegative int or a digit vector
    (taken as its integer value); `one` is returned for e = 0, so a caller
    that rejects 0^0 checks before the call, or after it: with x zero, the
    result is `one` only at e = 0."""
    if not isinstance(e, int):
        e = e.to_int()
    if e < 0:
        raise ValueError("negative exponent; use inv explicitly")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


class Field:
    """F_q with q = p^d, q = p when d = 1.

    Use `build_field` to construct a validated instance; the constructor
    itself assumes the modulus is already monic of degree d and irreducible.
    """

    __slots__ = (
        "p", "d", "q", "modulus",
        "zero", "one",
        "_exp", "_log", "_add_table", "_neg_table",
        "_vexp", "_vlog", "_vadd_table", "_powers_of_p", "lazy_steps",
    )

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        self.p = p
        self.d = d
        self.q = p ** d
        self.zero = 0
        self.one = 1
        if d == 1:
            if modulus is not None:
                raise DegreeMismatch("prime field takes no modulus")
            self.modulus = None
            # residues below p plus t products of two of them stay below 2^63
            self.lazy_steps = ((1 << 63) - p) // (p - 1) ** 2
        else:
            if modulus is None or len(modulus) != d + 1 or modulus[-1] != 1:
                raise DegreeMismatch("extension modulus must be monic of degree d")
            self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
            self._build_tables()
            # vaxpy_lazy is vaxpy here, so elements never need reducing
            self.lazy_steps = sys.maxsize

    # -- construction helpers -------------------------------------------------

    def _index_of(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + (c % self.p)
        return x

    def _build_tables(self):
        p, d, q = self.p, self.d, self.q
        # additive structure, on the coefficient vectors of all q elements
        self._powers_of_p = p ** np.arange(d, dtype=np.int64)
        digits = self._digits(np.arange(q, dtype=np.int64))
        self._neg_table = ((-digits) % p @ self._powers_of_p).tolist()
        if p == 2:
            self._vadd_table = None         # addition is xor
        elif q <= 256:
            self._vadd_table = (digits[:, None] + digits) % p @ self._powers_of_p
        else:
            self._vadd_table = None
        self._add_table = None if self._vadd_table is None else self._vadd_table.tolist()
        # multiplicative structure: find a primitive element and fill exp/log
        from .poly import Poly, powmod  # deferred: poly imports this module

        prime = Field(p)
        mod, one = Poly(prime, self.modulus), Poly.one(prime)
        order_factors = set(factorize(q - 1))
        # a reducible modulus stops the search too: no power of a zero divisor is 1
        for g in range(2, q):
            gen = Poly(prime, self.coeffs(g))
            if all(powmod(gen, (q - 1) // r, mod) != one for r in order_factors):
                break
        # multiplying by gen is a fixed d x d matrix over F_p (column j is
        # gen * x^j), so the coefficient vectors of gen^0 .. gen^(q-1) fill
        # by doubling: each block is gen^B times the B powers before it
        shifted = [self._index_of((Poly(prime, [0] * j + list(gen.coeffs)) % mod).coeffs)
                   for j in range(d)]
        step = self._digits(np.array(shifted, dtype=np.int64)).T
        powers = np.zeros((d, 1), dtype=np.int64)
        powers[0, 0] = 1
        while powers.shape[1] < q:
            powers = np.hstack([powers, step @ powers[:, :q - powers.shape[1]] % p])
            step = step @ step % p
        exp = self._powers_of_p @ powers
        if exp[q - 1] != 1:
            raise ReducibleModulus("multiplicative group has wrong order; modulus is reducible")
        log = np.zeros(q, dtype=np.int64)
        log[exp[:q - 1]] = np.arange(q - 1)
        self._exp = exp[:q - 1].tolist() * 2
        self._log = log.tolist()
        # array copies: log(0) is a sentinel past any sum of two logs, and
        # every index from it on reads the zero tail of exp
        zero_log = len(self._exp)
        self._vlog = log
        self._vlog[0] = zero_log
        self._vexp = np.array(self._exp + [0] * (zero_log + 1), dtype=np.int64)

    # -- element arithmetic ---------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.d == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        if self._add_table is not None:
            return self._add_table[x][y]
        return self._index_of((a + b) % self.p for a, b in zip(self.coeffs(x), self.coeffs(y)))

    def neg(self, x: int) -> int:
        if self.d == 1:
            return (-x) % self.p
        return self._neg_table[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.d == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse("0 has no inverse")
        if self.d == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[(self.q - 1) - self._log[x]]

    def pow_(self, x: int, e) -> int:
        """x^e through `power`, for e a nonnegative int or a digit vector
        (taken as its integer value); 0^0 raises `ZeroToZero`."""
        out = power(x, e, self.one, self.mul)
        # 0^e is 1 only at e = 0
        if x == 0 and out == self.one:
            raise ZeroToZero("0^0 is undefined here")
        return out

    # -- elementwise arithmetic on int64 arrays of elements ------------------
    #
    # Arguments broadcast like numpy operands; a scalar argument may be a
    # plain int.  For prime fields every product of two residues is below
    # 2^62 (p < 2^31), so each product is reduced before it is summed,
    # unless the sum is known to stay below 2^63 (`vmatmul`, `lazy_steps`).

    def vmul(self, x, y):
        """Elementwise x * y."""
        if self.d == 1:
            return x * y % self.p
        return self._vexp[self._vlog[x] + self._vlog[y]]

    def vaxpy(self, y, c, x):
        """Elementwise y + c * x."""
        if self.d == 1:
            return (c * x + y) % self.p
        cx = self.vmul(c, x)
        if self.p == 2:
            return y ^ cx
        if self._vadd_table is not None:
            return self._vadd_table[y, cx]
        return (self._digits(y) + self._digits(cx)) % self.p @ self._powers_of_p

    def vaxpy_lazy(self, y, c, x):
        """y + c * x like `vaxpy`, left unreduced by a prime field: from
        residues, an array stays exact for `lazy_steps` such steps with
        residues c and x, and `vreduce` then brings it below p."""
        if self.d == 1:
            return c * x + y
        return self.vaxpy(y, c, x)

    def vreduce(self, x):
        """The elements that `vaxpy_lazy` sums stand for, each below q."""
        return x % self.p if self.d == 1 else x

    def vmatmul(self, x, y):
        """x @ y with `np.matmul` semantics, for operands of two or more axes.

        A prime field whose inner length K keeps K (p - 1)^2 below 2^63 takes
        one exact int64 product and one `% p`; otherwise each product is
        reduced before the K-term sum."""
        if self.d == 1 and x.shape[-1] * (self.p - 1) ** 2 < 1 << 63:
            return np.matmul(x, y) % self.p
        return self.vsum(self.vmul(x[..., :, :, None], y[..., None, :, :]), -2)

    def vsum(self, x, axis: int):
        """Sum of x along axis."""
        if self.d > 1 and self.p == 2:
            return np.bitwise_xor.reduce(x, axis)
        if self.d > 1:
            # sum the coefficient vectors, held on a new last axis
            axis %= x.ndim
            x = self._digits(x)
        s = np.add.reduce(x, axis)
        s %= self.p
        return s if self.d == 1 else s @ self._powers_of_p

    def _digits(self, x):
        """Coefficient vectors of an array of elements, on a new last axis."""
        return np.asarray(x)[..., None] // self._powers_of_p % self.p

    # -- canonical form, ordering, serialization ------------------------------

    def validate(self, x) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise FieldMismatch(f"{x!r} is not an element of {self!r}")
        return x

    def coeffs(self, x: int) -> list[int]:
        """Coefficient vector of x, low to high, length d."""
        p = self.p
        out = []
        for _ in range(self.d):
            out.append(x % p)
            x //= p
        return out

    def from_coeffs(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) != self.d:
            raise FieldMismatch(f"expected {self.d} coefficients, got {len(coeffs)}")
        return self._index_of(coeffs)

    def embed_int(self, c: int) -> int:
        """Image of the rational integer c in the prime subfield."""
        return c % self.p

    def elements(self) -> list[int]:
        """All q elements in canonical order (coefficient-index order)."""
        if self.q > ENUM_LIMIT:
            raise TooLarge(f"enumeration of q = {self.q} exceeds guard {ENUM_LIMIT}")
        return list(range(self.q))

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def random_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def sort_key(self, x: int) -> int:
        return x

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p and self.d == other.d
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        if self.d == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.d})"


def build_field(p: int, d: int = 1, modulus=None, rng_seed: int = 0) -> Field:
    """Construct a validated F_{p^d}.

    For d > 1 the modulus may be given as a Poly over F_p or a low-to-high
    int coefficient list; when absent, a monic irreducible of degree d is
    found by seeded random sampling.
    """
    if not isinstance(p, int):
        raise NotPrime(f"{p} is not prime")
    if p >= MAX_PRIME:
        raise TooLarge(f"p must be below 2^31, got {p}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if d < 1:
        raise DegreeMismatch("extension degree must be >= 1")
    if d == 1:
        return Field(p, 1, modulus)
    # before any modulus search; q <= 2^20 needs d <= 20, so p^d stays small
    if d >= ENUM_LIMIT.bit_length() or p ** d > ENUM_LIMIT:
        raise TooLarge(f"extension field {p}^{d} exceeds table guard {ENUM_LIMIT}")

    from . import poly  # deferred: poly imports this module

    prime = Field(p)
    if modulus is not None:
        coeffs = list(modulus.coeffs) if isinstance(modulus, poly.Poly) else [c % p for c in modulus]
        f = poly.Poly(prime, coeffs)
        if f.degree != d or f.lc() != 1:
            raise DegreeMismatch(f"modulus must be monic of degree {d}")
        if not poly.is_irreducible(f):
            raise ReducibleModulus(f"{f} is reducible over GF({p})")
        return Field(p, d, tuple(f.coeffs))

    rng = random.Random(rng_seed)
    while True:
        cand = poly.Poly(prime, [rng.randrange(p) for _ in range(d)] + [1])
        if poly.is_irreducible(cand):
            return Field(p, d, tuple(cand.coeffs))
