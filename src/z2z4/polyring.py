"""Exact univariate polynomial arithmetic over Z2 and Z4.

Both rings keep their coefficients on ints, bit i for the coefficient of
x^i.  BinPoly (over Z2) holds the int ``bits`` and works with the
carry-less int kernels below, which ``cyclofield`` also uses.  QuatPoly
(over Z4) holds two bit planes, the ints ``lo`` and ``hi``: the
coefficient of x^i is bit i of ``lo`` plus twice bit i of ``hi``, so a sum
is an XOR per plane plus a carry and the mod-2 image is ``lo``.  Either
gives ``coeffs``, the ascending coefficient tuple with no trailing zeros
(the zero polynomial is the empty tuple and has degree -inf), for
printing, JSON and sorting.  Arithmetic never mixes the two rings.
Division over Z4 is restricted to monic divisors, which covers every
divisor of x^n - 1 needed here.

Text syntax accepted by ``parse``: a human form such as ``x^3+2x^2+x+3``
(terms in any order, ``-`` allowed and folded into the ring) or an array
form ``[3, 1, 2, 1]`` with ascending coefficients.  ``str()`` prints the
human form with descending powers and canonical residue coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, InternalError

NEG_INF = float("-inf")

_TERM_RE = re.compile(
    r"(?P<sign>[+-])?(?P<coeff>\d+)?(?P<var>x(?:\^(?P<exp>\d+))?)?"
)


# ----------------------------------------------------------------------
# GF(2)[x] on ints (bit i = coefficient of x^i)


def clmul(a: int, b: int) -> int:
    """Carry-less product: a shifted copy of one operand per set bit of the sparser."""
    if a < 0 or b < 0:
        raise DomainError("negative carry-less operand")
    if a.bit_count() < b.bit_count():
        a, b = b, a
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def _division_error(m: int) -> DomainError:
    return DomainError("negative carry-less operand" if m else "division by the zero polynomial")


def cldivmod(a: int, m: int) -> tuple[int, int]:
    """Quotient and remainder of a >= 0 by m > 0, by shift-XOR; else a DomainError."""
    if m <= 0 or a < 0:
        raise _division_error(m)
    dm, q = m.bit_length(), 0
    while (k := a.bit_length() - dm) >= 0:
        q |= 1 << k
        a ^= m << k
    return q, a


def clmod(a: int, m: int) -> int:
    """Remainder of a by m, under the checks of ``cldivmod``."""
    if m <= 0 or a < 0:
        raise _division_error(m)
    dm = m.bit_length()
    while (k := a.bit_length() - dm) >= 0:
        a ^= m << k
    return a


def clgcd(a: int, b: int) -> int:
    """Greatest common divisor by Euclid; 0 only for a = b = 0."""
    if a < 0 or b < 0:
        raise DomainError("negative carry-less operand")
    while b:
        a, b = b, clmod(a, b)
    return a


def clxgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, s, t) with clmul(s, a) ^ clmul(t, b) = g = clgcd(a, b)."""
    if a < 0 or b < 0:
        raise DomainError("negative carry-less operand")
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = cldivmod(a, b)
        a, b = b, r
        s, s1 = s1, s ^ clmul(q, s1)
        t, t1 = t1, t ^ clmul(q, t1)
    return a, s, t


class _Poly:
    """Constructors, parsing and printing shared by the two rings; a
    subclass stores its coefficients and supplies the queries, ``coeffs``
    (the ascending tuple) and the ring arithmetic."""

    MOD = 0
    __slots__ = ()

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def parse(cls, obj: str | Sequence[int], max_degree: int | None = None):
        """Build a polynomial from human text or an ascending coefficient array.

        Text is read with ring arithmetic ("x-1" is x+3 over Z4), but an
        array, given as a list or as "[...]" text, must hold integers in
        0..MOD-1: nothing is truncated or reduced.  A text exponent above
        ``max_degree`` (the block length, where the caller knows it) is a
        DomainError raised before any coefficient is built; an array is
        already as long as its text.
        """
        if isinstance(obj, (list, tuple)):
            return cls._from_array(obj)
        if not isinstance(obj, str):
            raise DomainError(f"cannot parse polynomial from {type(obj).__name__}")
        text = obj.replace("−", "-").replace(" ", "")
        if not text:
            raise DomainError("empty polynomial string")
        if text[0] == "[":
            import json

            try:
                arr = json.loads(text)
            except ValueError as exc:
                raise DomainError(f"bad polynomial array: {obj!r}") from exc
            if not isinstance(arr, list):
                raise DomainError(f"bad polynomial array: {obj!r}")
            return cls._from_array(arr)
        coeffs: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise DomainError(f"bad polynomial syntax near {text[pos:]!r}")
            if m.group("coeff") is None and m.group("var") is None:
                raise DomainError(f"bad polynomial syntax near {text[pos:]!r}")
            if m.group("sign") is None and not first:
                raise DomainError(f"missing +/- between terms in {obj!r}")
            sign = -1 if m.group("sign") == "-" else 1
            try:
                c = int(m.group("coeff") or 1)
                k = int(m.group("exp") or 1) if m.group("var") else 0
            except ValueError:  # past the interpreter's digit limit
                raise DomainError(f"number too long near {text[pos:pos + 20]!r}") from None
            if max_degree is not None and k > max_degree:
                raise DomainError(f"exponent {k} exceeds the block length {max_degree}")
            coeffs[k] = coeffs.get(k, 0) + sign * c
            pos = m.end()
            first = False
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(out)

    @classmethod
    def _from_array(cls, arr: Sequence) -> "_Poly":
        bad = [c for c in arr if type(c) is not int or not 0 <= c < cls.MOD]
        if bad:
            raise DomainError(
                f"coefficient {bad[0]!r} is not an integer in 0..{cls.MOD - 1}"
            )
        return cls(arr)

    # ------------------------------------------------------------------
    # arithmetic on top of the subclass's +, * and divmod
    def _check_ring(self, other):
        if type(self) is not type(other):
            raise DomainError(
                f"mixed-ring arithmetic: {type(self).__name__} and {type(other).__name__}"
            )

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial power")
        out = type(self).one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __mod__(self, d):
        return divmod(self, d)[1]

    def __floordiv__(self, d):
        return divmod(self, d)[0]

    def divides(self, other) -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    # ------------------------------------------------------------------
    # printing
    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class BinPoly(_Poly):
    """Polynomial over Z2, stored as the int ``bits`` (bit i = coefficient of x^i)."""

    MOD = 2
    __slots__ = ("bits",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.bits = sum(1 << i for i, c in enumerate(coeffs) if int(c) & 1)

    @classmethod
    def from_bits(cls, bits: int) -> "BinPoly":
        p = object.__new__(cls)
        p.bits = bits
        return p

    @classmethod
    def one(cls) -> "BinPoly":
        return cls.from_bits(1)

    @classmethod
    def xn_minus_1(cls, n: int) -> "BinPoly":
        """x^n - 1, which is x^n + 1 over Z2."""
        if n <= 0:
            raise DomainError("length must be positive")
        return cls.from_bits(1 << n | 1)

    @property
    def coeffs(self) -> tuple[int, ...]:
        # via a list: tuple() of a generator grows by realloc and fragments the heap
        return tuple([(self.bits >> i) & 1 for i in range(self.bits.bit_length())])

    @property
    def degree(self) -> int | float:
        return self.bits.bit_length() - 1 if self.bits else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.bits

    @property
    def leading(self) -> int:
        return 1 if self.bits else 0

    @property
    def is_monic(self) -> bool:
        return self.bits != 0

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return type(other) is BinPoly and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_length()

    def __add__(self, other):
        self._check_ring(other)
        return BinPoly.from_bits(self.bits ^ other.bits)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        self._check_ring(other)
        return BinPoly.from_bits(clmul(self.bits, other.bits))

    def __divmod__(self, d):
        self._check_ring(d)
        q, r = cldivmod(self.bits, d.bits)
        return BinPoly.from_bits(q), BinPoly.from_bits(r)


class QuatPoly(_Poly):
    """Polynomial over Z4, stored bit-sliced as the ints ``lo`` and ``hi``:
    the coefficient of x^i is bit i of ``lo`` plus twice bit i of ``hi``.
    A sum is (a.lo ^ b.lo, a.hi ^ b.hi ^ (a.lo & b.lo)), a negation
    (lo, hi ^ lo)."""

    MOD = 4
    __slots__ = ("lo", "hi")

    def __init__(self, coeffs: Iterable[int] = ()):
        lo = hi = 0
        for i, c in enumerate(coeffs):
            c = int(c)  # two's complement: c & 3 is c mod 4
            lo |= (c & 1) << i
            hi |= (c >> 1 & 1) << i
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_planes(cls, lo: int, hi: int) -> "QuatPoly":
        p = object.__new__(cls)
        p.lo = lo
        p.hi = hi
        return p

    @classmethod
    def xn_minus_1(cls, n: int) -> "QuatPoly":
        """x^n - 1, which is x^n + 3 over Z4."""
        if n <= 0:
            raise DomainError("length must be positive")
        return cls.from_planes(1 << n | 1, 1)

    @property
    def coeffs(self) -> tuple[int, ...]:
        lo, hi = self.lo, self.hi
        return tuple([(lo >> i & 1) | (hi >> i & 1) << 1 for i in range((lo | hi).bit_length())])

    @property
    def degree(self) -> int | float:
        return (self.lo | self.hi).bit_length() - 1 if self.lo | self.hi else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not (self.lo | self.hi)

    @property
    def leading(self) -> int:
        top = (self.lo | self.hi).bit_length() - 1
        return (self.lo >> top & 1) | (self.hi >> top & 1) << 1 if top >= 0 else 0

    @property
    def is_monic(self) -> bool:
        top = (self.lo | self.hi).bit_length() - 1
        return top >= 0 and not self.hi >> top

    def __bool__(self) -> bool:
        return (self.lo | self.hi) != 0

    def __eq__(self, other) -> bool:
        return type(other) is QuatPoly and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __len__(self) -> int:
        return (self.lo | self.hi).bit_length()

    def __add__(self, other):
        self._check_ring(other)
        a, b = self.lo, other.lo
        return QuatPoly.from_planes(a ^ b, self.hi ^ other.hi ^ (a & b))

    def __neg__(self):
        return QuatPoly.from_planes(self.lo, self.hi ^ self.lo)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """One shifted add of the denser factor per nonzero entry of the
        sparser: entry 1 adds it, 3 adds its negation, 2 adds its ``lo``
        into ``hi``."""
        self._check_ring(other)
        a_lo, a_hi, b_lo, b_hi = self.lo, self.hi, other.lo, other.hi
        if (a_lo | a_hi).bit_count() > (b_lo | b_hi).bit_count():
            a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
        lo = hi = 0
        rest = a_lo | a_hi
        while rest:
            bit = rest & -rest
            rest ^= bit
            k = bit.bit_length() - 1
            r_lo = b_lo << k
            if a_lo & bit:
                r_hi = b_hi << k
                if a_hi & bit:
                    r_hi ^= r_lo
                hi ^= r_hi ^ (lo & r_lo)
                lo ^= r_lo
            else:
                hi ^= r_lo
        return QuatPoly.from_planes(lo, hi)

    def __divmod__(self, d):
        """Shift-and-subtract by a monic divisor: the leading entry c of
        the remainder goes into the quotient and c x^k d is subtracted."""
        self._check_ring(d)
        d_lo, d_hi = d.lo, d.hi
        if not d_lo | d_hi:
            raise DomainError("division by the zero polynomial")
        if not d.is_monic:
            raise DomainError("Z4 division requires a monic divisor")
        width = (d_lo | d_hi).bit_length()  # deg d + 1
        lo, hi, q_lo, q_hi = self.lo, self.hi, 0, 0
        while (k := (lo | hi).bit_length() - width) >= 0:
            top = 1 << (k + width - 1)
            if lo & top:  # c = 1 adds -x^k d, c = 3 adds x^k d
                q_lo |= 1 << k
                r_lo, r_hi = d_lo << k, d_hi << k
                if hi & top:
                    q_hi |= 1 << k
                else:
                    r_hi ^= r_lo
                hi ^= r_hi ^ (lo & r_lo)
                lo ^= r_lo
            else:  # c = 2 adds 2 x^k d
                q_hi |= 1 << k
                hi ^= d_lo << k
        return QuatPoly.from_planes(q_lo, q_hi), QuatPoly.from_planes(lo, hi)


def cyclic_reduce(p, n: int):
    """Reduce p modulo x^n - 1 by folding n-bit blocks of its planes."""
    if n <= 0:
        raise DomainError("cyclic length must be positive")
    mask = (1 << n) - 1
    if isinstance(p, BinPoly):
        b, out = p.bits, 0
        if not b >> n:
            return p
        while b:
            out ^= b & mask
            b >>= n
        return BinPoly.from_bits(out)
    lo, hi = p.lo, p.hi
    if not (lo | hi) >> n:
        return p
    out_lo, out_hi = lo & mask, hi & mask
    while (lo := lo >> n) | (hi := hi >> n):  # the Z4 add of the next block
        a = lo & mask
        out_hi ^= (hi & mask) ^ (out_lo & a)
        out_lo ^= a
    return QuatPoly.from_planes(out_lo, out_hi)


def reduce_mod2(p: QuatPoly) -> BinPoly:
    """Coefficient-wise mod-2 image of a Z4 polynomial: its ``lo`` plane."""
    return BinPoly.from_bits(p.lo)


def lift_to_quat(p: BinPoly) -> QuatPoly:
    """The 0/1-coefficient lift of a Z2 polynomial into Z4[x]."""
    return QuatPoly.from_planes(p.bits, 0)


def gcd2(a: BinPoly, b: BinPoly) -> BinPoly:
    """Greatest common divisor over Z2 (monic by construction)."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    return BinPoly.from_bits(clgcd(a.bits, b.bits))


def ext_gcd2(a: BinPoly, b: BinPoly) -> tuple[BinPoly, BinPoly, BinPoly]:
    """Extended Euclid over Z2: returns (g, s, t) with s*a + t*b = g."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    g, s, t = clxgcd(a.bits, b.bits)
    return BinPoly.from_bits(g), BinPoly.from_bits(s), BinPoly.from_bits(t)


def graeffe_lift(p2: BinPoly, n: int) -> QuatPoly:
    """Lift a monic divisor of x^n - 1 (n odd) from Z2[x] to Z4[x].

    Splits p2(x) = e(x^2) + x*o(x^2) and returns +/-(e(y)^2 - y*o(y)^2),
    the sign chosen to make the result monic.  The output q is the unique
    monic divisor of x^n - 1 over Z4 with q mod 2 = p2.
    """
    if n <= 0 or n % 2 == 0:
        raise DomainError("length must be odd for the lift")
    if p2.is_zero or not p2.is_monic:
        raise DomainError("lift requires a monic nonzero polynomial")
    if not p2.divides(BinPoly.xn_minus_1(n)):
        raise DomainError(f"{p2} does not divide x^{n}-1 over Z2")
    even = QuatPoly(p2.coeffs[0::2])
    odd = QuatPoly(p2.coeffs[1::2])
    lifted = even * even - QuatPoly.x() * odd * odd
    if lifted.leading == 3:
        lifted = -lifted
    if reduce_mod2(lifted) != p2 or not lifted.divides(QuatPoly.xn_minus_1(n)):
        raise InternalError(f"lift of {p2} failed its own checks")
    return lifted


@dataclass(frozen=True)
class BezoutPair:
    """Witness polynomials with lam*h + mu*g = 1 exactly in Z4[x]."""

    lam: QuatPoly
    mu: QuatPoly


def gf2_bezout(h: QuatPoly, g: QuatPoly) -> tuple[BinPoly, BinPoly]:
    """(lam~, mu~) with lam~ h~ + mu~ g~ = 1 over Z2, by extended Euclid:
    the mod-2 images of the pair that ``bezout_lift`` lifts to Z4."""
    d, s, t = ext_gcd2(reduce_mod2(h), reduce_mod2(g))
    if d != BinPoly.one():
        raise DomainError(f"mod-2 images share the factor {d}")
    return s, t


def bezout_lift(h: QuatPoly, g: QuatPoly) -> BezoutPair:
    """Solve lam*h + mu*g = 1 in Z4[x] for h, g with coprime mod-2 images.

    Extended Euclid over Z2 gives the identity up to an even error 2r;
    multiplying both cofactors by 1 + 2r repairs it since (1+2r)^2 = 1.
    """
    lam0, mu0 = (lift_to_quat(c) for c in gf2_bezout(h, g))
    unit = lam0 * h + mu0 * g  # equals 1 + 2r, a square root of itself's inverse
    lam, mu = unit * lam0, unit * mu0
    if lam * h + mu * g != QuatPoly.one():
        raise InternalError("Bezout correction failed")
    return BezoutPair(lam, mu)
