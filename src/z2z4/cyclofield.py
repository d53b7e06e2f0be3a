"""Cyclotomic cosets, GF(2^m) arithmetic, and factoring x^n - 1 for odd n.

The factorization over Z2 produces one irreducible factor per 2-cyclotomic
coset (the minimal polynomial of xi^rep for a primitive n-th root of unity
xi over Z2); the Z4 factorization lifts each factor.  ``tensor_square``
computes the divisor of x^n - 1 whose roots are all products of two roots
of the input, via the sumset of root exponents.

Field elements are ints in the ``BinPoly.bits`` encoding (bit i =
coefficient of x^i), reduced by the ``polyring`` kernels modulo a fixed
irreducible polynomial: the irreducible of the right degree with the
smallest integer encoding.  Everything observable is independent of that
choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import CapacityError, DomainError, InternalError
from .polyring import BinPoly, QuatPoly, clgcd, clmod, clmul, graeffe_lift

# Desk-scale bound: keeps extension degrees and coset tables small.
MAX_MODULUS = 255
# Distinct (p, n) kept by tensor_square; a search cell has one p per divisor g~.
TENSOR_CACHE_SIZE = 1024


def _check_n(n: int) -> None:
    if n < 1:
        raise DomainError("length must be positive")
    if n % 2 == 0:
        raise DomainError("length must be odd")
    if n > MAX_MODULUS:
        raise CapacityError(f"length {n} exceeds the desk-scale bound {MAX_MODULUS}")


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _ord2(n: int) -> int:
    """Multiplicative order of 2 modulo n (n odd); 1 for n = 1."""
    m, v = 1, 2 % n
    while v != 1 % n:
        v = (v * 2) % n
        m += 1
    return m


def _frobenius(a: int, k: int, mod: int) -> int:
    # a^(2^k) mod `mod` by repeated squaring
    for _ in range(k):
        a = clmod(clmul(a, a), mod)
    return a


def _is_irreducible(f: int, m: int) -> bool:
    x = clmod(2, f)
    if _frobenius(x, m, f) != x:
        return False
    for q in _prime_factors(m):
        if clgcd(_frobenius(x, m // q, f) ^ x, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(m: int) -> BinPoly:
    """The degree-m irreducible over Z2 with the smallest integer encoding."""
    if m < 1:
        raise DomainError("degree must be positive")
    for low in range(1 << m):
        f = (1 << m) | low
        if _is_irreducible(f, m):
            return BinPoly.from_bits(f)
    raise InternalError(f"no irreducible of degree {m} found")


class GF2Field:
    """GF(2^m) with int-encoded elements modulo a fixed irreducible."""

    def __init__(self, m: int, modulus: BinPoly | None = None):
        if modulus is None:
            modulus = smallest_irreducible(m)
        if modulus.degree != m:
            raise DomainError(f"modulus degree {modulus.degree} != {m}")
        self.m = m
        self.modulus = modulus

    def mul(self, a: int, b: int) -> int:
        return clmod(clmul(a, b), self.modulus.bits)

    def pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def unity_root(self, n: int) -> int:
        """A deterministic element of multiplicative order exactly n."""
        group = (1 << self.m) - 1
        if group % n:
            raise DomainError(f"no order-{n} element in GF(2^{self.m})")
        e = group // n
        primes = _prime_factors(n)
        for a in range(1, 1 << self.m):
            b = self.pow(a, e)
            if b == 0 or (n > 1 and b == 1):
                continue
            if all(self.pow(b, n // q) != 1 for q in primes):
                return b
        raise InternalError(f"no order-{n} element found in GF(2^{self.m})")


@dataclass(frozen=True)
class CosetTable:
    """Partition of {0, ..., n-1} into 2-cyclotomic cosets mod n."""

    n: int
    cosets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RootSet:
    """Exponent set S with p = prod_{i in S} (x - xi^i); closed under doubling."""

    n: int
    exponents: frozenset[int]


def cyclotomic_cosets(n: int) -> CosetTable:
    """All 2-cyclotomic cosets mod n, each sorted, ordered by minimal element."""
    _check_n(n)
    seen = [False] * n
    cosets = []
    for start in range(n):
        if seen[start]:
            continue
        c = []
        i = start
        while not seen[i]:
            seen[i] = True
            c.append(i)
            i = (2 * i) % n
        cosets.append(tuple(sorted(c)))
    return CosetTable(n, tuple(cosets))


class _CycloContext:
    """Field, unity root and per-coset minimal polynomials for one n."""

    def __init__(self, n: int, modulus: BinPoly | None = None):
        self.n = n
        self.table = cyclotomic_cosets(n)
        self.m = _ord2(n)
        self.field = GF2Field(self.m, modulus)
        self.xi = self.field.unity_root(n)
        self.min_polys = {c: self._min_poly(c) for c in self.table.cosets}
        prod = reduce(lambda a, b: a * b, self.min_polys.values(), BinPoly.one())
        if prod != BinPoly.xn_minus_1(n):
            raise InternalError(f"minimal polynomials do not multiply to x^{n}-1")

    def _min_poly(self, coset: tuple[int, ...]) -> BinPoly:
        # prod over the coset of (x - xi^i), computed in the field
        field = self.field
        poly = [1]
        for i in coset:
            r = field.pow(self.xi, i)
            nxt = [0] * (len(poly) + 1)
            for j, c in enumerate(poly):
                nxt[j + 1] ^= c
                nxt[j] ^= field.mul(r, c)
            poly = nxt
        if any(c not in (0, 1) for c in poly):
            raise InternalError("minimal polynomial has coefficients outside Z2")
        return BinPoly(poly)


@lru_cache(maxsize=None)
def _context(n: int) -> _CycloContext:
    _check_n(n)
    return _CycloContext(n)


def factor_xn_minus_1_z2(n: int) -> tuple[BinPoly, ...]:
    """Monic irreducible factors of x^n - 1 over Z2, sorted by (degree, coeffs)."""
    ctx = _context(n)
    return tuple(sorted(ctx.min_polys.values(), key=lambda p: (len(p.coeffs), p.coeffs)))


def factor_xn_minus_1_z4(n: int) -> tuple[QuatPoly, ...]:
    """Monic basic irreducible factors of x^n - 1 over Z4 (lifted Z2 factors)."""
    lifts = [graeffe_lift(p, n) for p in factor_xn_minus_1_z2(n)]
    return tuple(sorted(lifts, key=lambda p: (len(p.coeffs), p.coeffs)))


def roots_of(p: BinPoly, n: int) -> RootSet:
    """Exponent set of the roots of a divisor p of x^n - 1 over Z2."""
    ctx = _context(n)
    if p.is_zero:
        raise DomainError("the zero polynomial has no root set")
    chosen = [c for c, mp in ctx.min_polys.items() if mp.divides(p)]
    prod = reduce(lambda a, b: a * b, (ctx.min_polys[c] for c in chosen), BinPoly.one())
    if prod != p:
        raise DomainError(f"{p} does not divide x^{n}-1 over Z2")
    return RootSet(n, frozenset(i for c in chosen for i in c))


def from_roots(roots: RootSet) -> BinPoly:
    """The divisor of x^n - 1 whose root exponents are exactly the given set."""
    ctx = _context(roots.n)
    exps = set(roots.exponents)
    if any((2 * i) % roots.n not in exps for i in exps):
        raise DomainError("exponent set is not closed under doubling")
    out = BinPoly.one()
    for c, mp in ctx.min_polys.items():
        if c[0] in exps:
            out = out * mp
    return out


@lru_cache(maxsize=TENSOR_CACHE_SIZE)
def tensor_square(p: BinPoly, n: int) -> BinPoly:
    """Divisor of x^n - 1 whose roots are all pairwise products of roots of p.

    With S the root-exponent set of p, the result has exponent set
    {i + j mod n : i, j in S} (i = j allowed), which is automatically closed
    under doubling; the polynomial is the product of the matching coset
    minimal polynomials.  Results are cached, so every code of a search
    cell with the same g~ shares one polynomial.
    """
    s = roots_of(p, n).exponents
    sums = frozenset((i + j) % n for i in s for j in s)
    return from_roots(RootSet(n, sums))


def divisors_of_xn_minus_1_z2(n: int) -> tuple[BinPoly, ...]:
    """All monic divisors of x^n - 1 over Z2 (n may be even), sorted.

    x^n - 1 = (x^n0 - 1)^(2^v) over Z2 for n = n0 * 2^v with n0 odd, so each
    irreducible factor of x^n0 - 1 appears with multiplicity 2^v.
    """
    if n < 1:
        raise DomainError("length must be positive")
    n0, mult = n, 1
    while n0 % 2 == 0:
        n0 //= 2
        mult *= 2
    base = factor_xn_minus_1_z2(n0)
    divisors = [BinPoly.one()]
    for f in base:
        powers = [f**e for e in range(mult + 1)]
        divisors = [d * q for d in divisors for q in powers]
    return tuple(sorted(divisors, key=lambda p: (len(p.coeffs), p.coeffs)))
