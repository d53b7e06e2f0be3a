"""The dense-tuple GF(2)[x] and Z4[x], the references for the int-backed
``BinPoly`` and the bit-sliced ``QuatPoly``.

``_TuplePoly`` is the coefficient-tuple arithmetic both classes had before
they stored ints: a canonical ascending tuple (no trailing zeros) with
``% MOD`` loops.  ``TupleBinPoly`` takes MOD = 2 and ``TupleQuatPoly``
MOD = 4; x^n - 1 is built for either MOD, and the other constructors,
parsing and printing are the shared ``_Poly`` ones.
``tuple_cyclic_reduce`` folds exponents mod n; gcd and extended gcd are the
Euclid loops on polynomial objects.  ``bitloop_clmul`` is the carry-less
product that steps through every bit of its second operand, the reference
for ``polyring.clmul``.  ``padded`` reads a polynomial of
either class as a fixed-length coefficient vector.
"""

from __future__ import annotations

from typing import Iterable

from z2z4.errors import DomainError
from z2z4.polyring import NEG_INF, _Poly


class _TuplePoly(_Poly):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        mod = self.MOD
        cs = [int(c) % mod for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def xn_minus_1(cls, n: int):
        """x^n - 1 with coefficients reduced into the ring."""
        if n <= 0:
            raise DomainError("length must be positive")
        return cls((cls.MOD - 1,) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other):
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.MOD
        return type(self)(out)

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        self._check_ring(other)
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)()
        out = [0] * (len(a) + len(b) - 1)
        mod = self.MOD
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % mod
        return type(self)(out)

    def __divmod__(self, d):
        self._check_ring(d)
        if d.is_zero:
            raise DomainError("division by the zero polynomial")
        if self.MOD == 4 and not d.is_monic:
            raise DomainError("Z4 division requires a monic divisor")
        mod = self.MOD
        rem = list(self.coeffs)
        dd = len(d.coeffs) - 1
        if len(rem) - 1 < dd:
            return type(self)(), self
        q = [0] * (len(rem) - dd)
        # over Z2 the leading coefficient is always 1, over Z4 monic is enforced
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c:
                q[k - dd] = c
                for j, cd in enumerate(d.coeffs):
                    rem[k - dd + j] = (rem[k - dd + j] - c * cd) % mod
        return type(self)(q), type(self)(rem)


class TupleBinPoly(_TuplePoly):
    MOD = 2
    __slots__ = ()


class TupleQuatPoly(_TuplePoly):
    MOD = 4
    __slots__ = ()


def tuple_cyclic_reduce(p: _TuplePoly, n: int) -> _TuplePoly:
    """p modulo x^n - 1, by folding exponents mod n."""
    if n <= 0:
        raise DomainError("cyclic length must be positive")
    if len(p.coeffs) <= n:
        return p
    out = [0] * n
    for i, c in enumerate(p.coeffs):
        out[i % n] = (out[i % n] + c) % p.MOD
    return type(p)(out)


def tuple_gcd2(a: TupleBinPoly, b: TupleBinPoly) -> TupleBinPoly:
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a


def tuple_ext_gcd2(a: TupleBinPoly, b: TupleBinPoly):
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    s, s1 = TupleBinPoly.one(), TupleBinPoly.zero()
    t, t1 = TupleBinPoly.zero(), TupleBinPoly.one()
    while not b.is_zero:
        q, r = divmod(a, b)
        a, b = b, r
        s, s1 = s1, s + q * s1
        t, t1 = t1, t + q * t1
    return a, s, t


def bitloop_clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def padded(p, n: int) -> tuple[int, ...]:
    """The coefficients of x^0 .. x^(n-1) of ``p``, zero-filled."""
    c = p.coeffs
    return c[:n] + (0,) * (n - len(c))
