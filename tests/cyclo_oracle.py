"""The field construction of x^n - 1's factors, the reference for the
idempotent split in ``cyclofield``.

``min_polys_by_field(n)`` builds GF(2^m), m the order of 2 mod n, modulo
``smallest_irreducible(m)`` (the degree-m irreducible with the smallest
integer encoding, found by ``is_irreducible``, Rabin's test), searches it
for an element of order exactly n, and multiplies out prod (x - xi^i)
over each 2-cyclotomic coset.  Elements are ints in the ``BinPoly.bits``
encoding.

``roots_of``, ``from_roots`` and ``sumset_tensor_square`` are the
root-exponent form of a divisor of x^n - 1, labelled by the context's
``min_polys``, and the tensor square as the whole sumset S + S: the
differential oracle of ``cyclofield.tensor_square``, which works on the
factor masks of ``_CycloContext``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from z2z4.cyclofield import _context, cyclotomic_cosets
from z2z4.errors import DomainError
from z2z4.polyring import BinPoly, clgcd, clmod, clmul


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
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


def ord2(n: int) -> int:
    """Multiplicative order of 2 modulo n (n odd); 1 for n = 1."""
    m, v = 1, 2 % n
    while v != 1 % n:
        v = (v * 2) % n
        m += 1
    return m


def mulmod(a: int, b: int, mod: int) -> int:
    return clmod(clmul(a, b), mod)


def powmod(a: int, e: int, mod: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = mulmod(out, a, mod)
        a = mulmod(a, a, mod)
        e >>= 1
    return out


def frobenius(a: int, k: int, mod: int) -> int:
    """a^(2^k) modulo ``mod``, by repeated squaring."""
    for _ in range(k):
        a = mulmod(a, a, mod)
    return a


def is_irreducible(f: int) -> bool:
    """Rabin's test: f of degree m >= 1 is irreducible over Z2 iff x^(2^m)
    = x mod f and gcd(x^(2^(m/q)) - x, f) = 1 for each prime q | m."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    x = clmod(2, f)
    if frobenius(x, m, f) != x:
        return False
    return all(clgcd(frobenius(x, m // q, f) ^ x, f) == 1 for q in prime_factors(m))


@lru_cache(maxsize=None)
def smallest_irreducible(m: int) -> BinPoly:
    """The degree-m irreducible over Z2 with the smallest integer encoding."""
    return next(
        BinPoly.from_bits(f) for f in range(1 << m, 1 << (m + 1)) if is_irreducible(f)
    )


def unity_root(n: int, mod: int) -> int:
    """The first element of order exactly n in GF(2)[x] / (mod)."""
    group = (1 << (mod.bit_length() - 1)) - 1
    primes = prime_factors(n)
    for a in range(1, group + 1):
        b = powmod(a, group // n, mod)
        if (n == 1 or b != 1) and all(powmod(b, n // q, mod) != 1 for q in primes):
            return b
    raise AssertionError(f"no element of order {n}")


def min_polys_by_field(n: int) -> dict[tuple[int, ...], BinPoly]:
    """Coset -> minimal polynomial of xi^c, c in the coset, in the field."""
    mod = smallest_irreducible(ord2(n)).bits
    xi = unity_root(n, mod)
    out = {}
    for coset in cyclotomic_cosets(n):
        poly = [1]  # coefficients in the field, ascending
        for i in coset:
            r = powmod(xi, i, mod)
            nxt = [0] * (len(poly) + 1)
            for j, c in enumerate(poly):
                nxt[j + 1] ^= c
                nxt[j] ^= mulmod(r, c, mod)
            poly = nxt
        assert all(c in (0, 1) for c in poly)
        out[coset] = BinPoly(poly)
    return out


@dataclass(frozen=True)
class RootSet:
    """Exponent set S with p = prod_{i in S} (x - xi^i); closed under doubling."""

    n: int
    exponents: frozenset[int]


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


def sumset_tensor_square(p: BinPoly, n: int) -> BinPoly:
    """The divisor of x^n - 1 with root exponents {i + j mod n : i, j in S},
    S those of p, from the whole sumset."""
    s = roots_of(p, n).exponents
    sums = frozenset((i + j) % n for i in s for j in s)
    return from_roots(RootSet(n, sums))
