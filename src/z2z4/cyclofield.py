"""Cyclotomic cosets, and factoring x^n - 1 for odd n.

The factorization over Z2 produces one irreducible factor per 2-cyclotomic
coset (the minimal polynomial of xi^rep for a primitive n-th root of unity
xi over Z2); the Z4 factorization lifts each factor.  ``_CycloContext``
builds, sorts and proves both factor lists once per length, and every
caller shares them.  It also owns the one index of the factors: bit i of a
divisor's mask is factor i of ``factor_xn_minus_1_z4(n)``, over either
ring (the Z2 list sorts differently), and ``cosets[i]`` holds the root
exponents of that factor.  ``tensor_square`` computes the divisor of
x^n - 1 whose roots are all products of two roots of the input, as a mask.

The factors come from the coset idempotents t_C = sum_{i in C} x^i alone,
with the ``polyring`` kernels on ints in the ``BinPoly.bits`` encoding.
The root xi is x modulo one factor of order n, and coset C is labelled by
the factor p with p(x^c) mod x^n - 1 in that factor's ideal (the exponent
map, bit k to bit k*c mod n), so no arithmetic in GF(2^m) is done.  Root
exponents are fixed only up to a unit of Z_n (``cosets`` may read u*C for
a unit u); every factor list and every ``tensor_square`` is independent of
that choice.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .errors import CapacityError, DomainError, InternalError
from .polyring import BinPoly, QuatPoly, cldivmod, clgcd, clmod, clmul, graeffe_lift

# Desk-scale bound on n: keeps x^n - 1, its split and the coset tables small.
MAX_MODULUS = 255
# Bound on the divisors of x^n - 1 one call lists: 19 lengths up to 255,
# 127 and 254 among them, have more.
MAX_DIVISORS = 1 << 16
# Distinct (p, n) kept by tensor_square; a search cell has one p per divisor g~.
TENSOR_CACHE_SIZE = 1024


def _check_n(n: int) -> None:
    if n < 1:
        raise DomainError("length must be positive")
    if n % 2 == 0:
        raise DomainError("length must be odd")
    if n > MAX_MODULUS:
        raise CapacityError(f"length {n} exceeds the desk-scale bound {MAX_MODULUS}")


def cyclotomic_cosets(n: int) -> tuple[tuple[int, ...], ...]:
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
    return tuple(cosets)


def _exponent_map(p: int, c: int, n: int) -> int:
    """p(x^c) modulo x^n - 1: bit k of p moves to bit k*c mod n."""
    out = 0
    for k in range(p.bit_length()):
        if p >> k & 1:
            out ^= 1 << (k * c % n)
    return out


class _CycloContext:
    """Per-coset minimal polynomials, the factors of x^n - 1 over Z2 and Z4
    for one n, and their index: ``cosets[i]`` is the coset of the roots of
    factor i in the Z4 order, and ``coset_of[e]`` the index of exponent e."""

    def __init__(self, n: int):
        self.n = n
        table = cyclotomic_cosets(n)
        # each t_C is idempotent mod x^n - 1, so 0 or 1 at every root, and
        # the t_C span every idempotent: the split ends at the irreducibles
        factors = [BinPoly.xn_minus_1(n).bits]
        for coset in table:
            t = sum(1 << i for i in coset)
            split = []
            for p in factors:
                d = clgcd(p, t)
                split += [p] if d in (1, p) else [d, cldivmod(p, d)[0]]
            factors = split
        # xi = x modulo the smallest factor in which x has order exactly n,
        # the one that divides no x^d - 1 for a proper divisor d of n; then
        # p(xi^c) = 0 iff that factor divides p(x^c) mod x^n - 1
        proper = [d for d in range(1, n) if n % d == 0]
        field = min(p for p in factors if all(clmod(1 << d | 1, p) for d in proper))
        self.min_polys = {}
        for coset in table:
            c = coset[0]
            zeros = [p for p in factors if clmod(_exponent_map(p, c, n), field) == 0]
            if len(zeros) != 1:
                raise InternalError(f"{len(zeros)} factors of x^{n}-1 vanish at xi^{c}")
            self.min_polys[coset] = BinPoly.from_bits(zeros[0])
        if len(set(self.min_polys.values())) != len(factors):
            raise InternalError(f"cosets and factors of x^{n}-1 do not match one to one")
        prod = reduce(lambda a, b: a * b, self.min_polys.values(), BinPoly.one())
        if prod != BinPoly.xn_minus_1(n):
            raise InternalError(f"minimal polynomials do not multiply to x^{n}-1")
        # the lifts reduce to distinct factors of the squarefree x^n - 1,
        # so their images are pairwise coprime; this proves the rest
        by_degree = lambda p: (len(p.coeffs), p.coeffs)
        self.z2 = tuple(sorted(self.min_polys.values(), key=by_degree))
        self.z4 = tuple(sorted((graeffe_lift(p, n) for p in self.z2), key=by_degree))
        prod4 = reduce(lambda a, b: a * b, self.z4, QuatPoly.one())
        if prod4 != QuatPoly.xn_minus_1(n) or not all(p.is_monic for p in self.z4):
            raise InternalError(f"the lifted factors of x^{n}-1 are not monic with product x^{n}-1")
        coset_by_factor = {mp.bits: c for c, mp in self.min_polys.items()}
        self.cosets = tuple(coset_by_factor[p.lo] for p in self.z4)
        self.coset_of = {e: i for i, coset in enumerate(self.cosets) for e in coset}

    def mask(self, p: BinPoly) -> int:
        """The factors that divide p, a divisor of x^n - 1 over Z2."""
        if p.is_zero:
            raise DomainError("the zero polynomial has no root set")
        m = sum(1 << i for i, f in enumerate(self.z4) if clmod(p.bits, f.lo) == 0)
        if self.product(m) != p.bits:
            raise DomainError(f"{p} does not divide x^{self.n}-1 over Z2")
        return m

    def product(self, m: int) -> int:
        """The product over Z2 of the factors in mask m, as bits."""
        return reduce(clmul, (f.lo for i, f in enumerate(self.z4) if m >> i & 1), 1)


@lru_cache(maxsize=None)
def _context(n: int) -> _CycloContext:
    _check_n(n)
    return _CycloContext(n)


def factor_xn_minus_1_z2(n: int) -> tuple[BinPoly, ...]:
    """Monic irreducible factors of x^n - 1 over Z2, sorted by (degree, coeffs)."""
    return _context(n).z2


def factor_xn_minus_1_z4(n: int) -> tuple[QuatPoly, ...]:
    """Monic basic irreducible factors of x^n - 1 over Z4 (lifted Z2 factors),
    sorted by (degree, coeffs)."""
    return _context(n).z4


@lru_cache(maxsize=TENSOR_CACHE_SIZE)
def tensor_square(p: BinPoly, n: int) -> BinPoly:
    """Divisor of x^n - 1 whose roots are all pairwise products of roots of p.

    With S the root exponents of p, the result has exponents S + S =
    {i + j mod n : i, j in S} (i = j allowed).  S is a union of cosets, so
    2S = S, and S + S is closed under doubling: a union of cosets, those it
    meets.  For c in S and any t, S + 2^t c = 2^t (S + c), and multiplying
    by 2^t maps each coset onto itself, so S + 2^t c meets the same cosets
    as S + c.  Hence S + S is the union of the cosets that meet S + c for
    one c per coset of S: |S| sums per coset of p, OR-ed into a mask of the
    context's index, where the whole sumset takes |S|^2.  Results are
    cached, so every code of a search cell with the same g~ shares one
    polynomial.
    """
    ctx = _context(n)
    m = ctx.mask(p)
    chosen = [c for i, c in enumerate(ctx.cosets) if m >> i & 1]
    roots = [e for c in chosen for e in c]
    square = sum({1 << ctx.coset_of[(e + c[0]) % n] for c in chosen for e in roots})
    return BinPoly.from_bits(ctx.product(square))


def divisors_of_xn_minus_1_z2(n: int) -> tuple[BinPoly, ...]:
    """All monic divisors of x^n - 1 over Z2 (n may be even), sorted.

    x^n - 1 = (x^n0 - 1)^(2^v) over Z2 for n = n0 * 2^v with n0 odd, so each
    irreducible factor of x^n0 - 1 appears with multiplicity 2^v, and there
    are (2^v + 1)^k divisors for k such factors; past ``MAX_DIVISORS`` that
    count is a CapacityError, raised before any divisor is built.
    """
    if n < 1:
        raise DomainError("length must be positive")
    if n > MAX_MODULUS:
        raise CapacityError(f"length {n} exceeds the desk-scale bound {MAX_MODULUS}")
    n0, mult = n, 1
    while n0 % 2 == 0:
        n0 //= 2
        mult *= 2
    base = factor_xn_minus_1_z2(n0)
    count = (mult + 1) ** len(base)
    if count > MAX_DIVISORS:
        raise CapacityError(f"x^{n}-1 has {count} divisors over Z2, past the bound {MAX_DIVISORS}")
    divisors = [BinPoly.one()]
    for f in base:
        powers = [f**e for e in range(mult + 1)]
        divisors = [d * q for d in divisors for q in powers]
    return tuple(sorted(divisors, key=lambda p: (len(p.coeffs), p.coeffs)))
