"""Arithmetic in F_p and its small extensions F_q = F_{p^d}.

Elements are plain Python ints in [0, q).  For a prime field the int is the
residue itself; for d > 1 it is the index sum(c_i * p^i) of the coefficient
vector (c_0, ..., c_{d-1}) in the generator basis, low coefficient least
significant.  This keeps every element canonical, hashable and directly
comparable, and it lets the hot loops in `poly` stay on machine ints.

Extension fields precompute discrete-log tables over a primitive element,
so mul/inv/pow are O(1) lookups; that is why extension construction is
guarded to q <= 2^20.
"""

from __future__ import annotations

import random


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

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic primality test for m < 2^31 (trial division)."""
    if m < 2:
        return False
    for r in _SMALL_PRIMES:
        if m == r:
            return True
        if m % r == 0:
            return False
    f = 41
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of a small integer by trial division."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


class Field:
    """F_q with q = p^d, q = p when d = 1.

    Use `build_field` to construct a validated instance; the constructor
    itself assumes the modulus is already monic of degree d and irreducible.
    """

    __slots__ = (
        "p", "d", "q", "modulus",
        "zero", "one",
        "_exp", "_log", "_add_table", "_neg_table",
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
            self._exp = self._log = self._add_table = self._neg_table = None
        else:
            if self.q > ENUM_LIMIT:
                raise TooLarge(f"extension field with q = {self.q} exceeds table guard {ENUM_LIMIT}")
            if modulus is None or len(modulus) != d + 1 or modulus[-1] != 1:
                raise DegreeMismatch("extension modulus must be monic of degree d")
            self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
            self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _coeffs_of(self, x: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.d):
            out.append(x % p)
            x //= p
        return out

    def _index_of(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + (c % self.p)
        return x

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free polynomial multiplication mod the modulus (setup only)."""
        p, d = self.p, self.d
        ac = self._coeffs_of(a)
        bc = self._coeffs_of(b)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc):
                    prod[i + j] += ai * bj
        mod = self.modulus
        for idx in range(2 * d - 2, d - 1, -1):
            c = prod[idx] % p
            if c:
                for j in range(d):
                    prod[idx - d + j] -= c * mod[j]
        return self._index_of(v % p for v in prod[:self.d])

    def _build_tables(self):
        p, d, q = self.p, self.d, self.q
        # additive structure
        self._neg_table = [self._index_of((-c) % p for c in self._coeffs_of(x)) for x in range(q)]
        if p == 2:
            self._add_table = None          # addition is xor
        elif q <= 256:
            self._add_table = [
                [self._index_of((a + b) % p for a, b in zip(self._coeffs_of(x), self._coeffs_of(y)))
                 for y in range(q)]
                for x in range(q)
            ]
        else:
            self._add_table = None
        # multiplicative structure: find a primitive element and fill exp/log
        order_factors = _prime_factors(q - 1)
        for g in range(2, q):
            if all(self._pow_raw(g, (q - 1) // r) != 1 for r in order_factors):
                break
        else:  # pragma: no cover - a primitive element always exists
            raise ReducibleModulus("no primitive element found; modulus is reducible")
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_raw(acc, g)
        if acc != 1:
            raise ReducibleModulus("multiplicative group has wrong order; modulus is reducible")
        for i in range(q - 1):
            exp[q - 1 + i] = exp[i]
        self._exp = exp
        self._log = log

    def _pow_raw(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    # -- element arithmetic ---------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.d == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        if self._add_table is not None:
            return self._add_table[x][y]
        return self._index_of((a + b) % self.p for a, b in zip(self._coeffs_of(x), self._coeffs_of(y)))

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
        """x^e for e a nonnegative int or a digit vector (taken as its integer value)."""
        if not isinstance(e, int):
            e = e.to_int()
        if e < 0:
            raise ValueError("negative exponent; use inv explicitly")
        if e == 0:
            if x == 0:
                raise ZeroToZero("0^0 is undefined here")
            return self.one
        if x == 0:
            return 0
        if self.d == 1:
            return pow(x, e, self.p)
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    # -- canonical form, ordering, serialization ------------------------------

    def validate(self, x) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise FieldMismatch(f"{x!r} is not an element of {self!r}")
        return x

    def coeffs(self, x: int) -> list[int]:
        """Coefficient vector of x, low to high, length d."""
        if self.d == 1:
            return [x]
        return self._coeffs_of(x)

    def from_coeffs(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) != self.d:
            raise FieldMismatch(f"expected {self.d} coefficients, got {len(coeffs)}")
        if self.d == 1:
            return coeffs[0] % self.p
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
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p >= MAX_PRIME:
        raise TooLarge(f"p must be below 2^31, got {p}")
    if d < 1:
        raise DegreeMismatch("extension degree must be >= 1")
    if d == 1:
        if modulus is not None:
            raise DegreeMismatch("prime field takes no modulus")
        return Field(p)

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
