"""The dense-tuple GF(2)[x], the reference for the int-backed ``BinPoly``.

``TupleBinPoly`` is the generic ``_Poly`` machinery with MOD = 2: exactly
the coefficient-tuple arithmetic ``BinPoly`` had before it stored an int.
``cyclic_reduce`` applies to it unchanged; gcd and extended gcd are the
Euclid loops on polynomial objects.
"""

from __future__ import annotations

from z2z4.errors import DomainError
from z2z4.polyring import _Poly


class TupleBinPoly(_Poly):
    MOD = 2
    __slots__ = ("coeffs",)


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
