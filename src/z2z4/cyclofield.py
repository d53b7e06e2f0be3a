"""Cyclotomic cosets, and factoring x^n - 1 for odd n.

The factorization over Z2 produces one irreducible factor per 2-cyclotomic
coset (the minimal polynomial of xi^rep for a primitive n-th root of unity
xi over Z2); the Z4 factorization lifts each factor.  ``tensor_square``
computes the divisor of x^n - 1 whose roots are all products of two roots
of the input, via the sumset of root exponents.

The factors come from the coset idempotents t_C = sum_{i in C} x^i alone,
with the ``polyring`` kernels on ints in the ``BinPoly.bits`` encoding.
The root xi is x modulo one factor of order n, so root exponents are
fixed only up to a unit of Z_n (``roots_of`` may return u*S for a unit u);
every factor list and every ``tensor_square`` is independent of that
choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import CapacityError, DomainError, InternalError
from .polyring import BinPoly, QuatPoly, cldivmod, clgcd, clmod, clmul, graeffe_lift

# Desk-scale bound on n: keeps x^n - 1, its split and the coset tables small.
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


def _pow_mod(a: int, e: int, mod: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = clmod(clmul(out, a), mod)
        a = clmod(clmul(a, a), mod)
        e >>= 1
    return out


def _eval_mod(f: int, r: int, mod: int) -> int:
    # f(r) modulo `mod`, by Horner from the top coefficient down
    acc = 0
    for k in range(f.bit_length() - 1, -1, -1):
        acc = clmod(clmul(acc, r), mod) ^ (f >> k & 1)
    return acc


class _CycloContext:
    """Unity root xi and per-coset minimal polynomials for one n."""

    def __init__(self, n: int):
        self.n = n
        self.table = cyclotomic_cosets(n)
        # each t_C is idempotent mod x^n - 1, so 0 or 1 at every root, and
        # the t_C span every idempotent: the split ends at the irreducibles
        factors = [BinPoly.xn_minus_1(n).bits]
        for coset in self.table.cosets:
            t = sum(1 << i for i in coset)
            split = []
            for p in factors:
                d = clgcd(p, t)
                split += [p] if d in (1, p) else [d, cldivmod(p, d)[0]]
            factors = split
        # xi = x modulo the smallest factor in which x has order exactly n
        primes = _prime_factors(n)
        field = min(p for p in factors if all(_pow_mod(2, n // q, p) != 1 for q in primes))
        self.xi = clmod(2, field)
        self.min_polys = {}
        for coset in self.table.cosets:
            r = _pow_mod(self.xi, coset[0], field)
            zeros = [p for p in factors if _eval_mod(p, r, field) == 0]
            if len(zeros) != 1:
                raise InternalError(f"{len(zeros)} factors of x^{n}-1 vanish at xi^{coset[0]}")
            self.min_polys[coset] = BinPoly.from_bits(zeros[0])
        if len(set(self.min_polys.values())) != len(factors):
            raise InternalError(f"cosets and factors of x^{n}-1 do not match one to one")
        prod = reduce(lambda a, b: a * b, self.min_polys.values(), BinPoly.one())
        if prod != BinPoly.xn_minus_1(n):
            raise InternalError(f"minimal polynomials do not multiply to x^{n}-1")


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
