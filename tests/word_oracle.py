"""Tuple forms of the word arithmetic and of the Gray-type maps.

The package computes on packed words (``WordCodec``), where a map or a sum
is a few masks and shifts.  These are the coordinate-wise definitions the
packed forms are checked against.

The Gray map sends the quaternary symbol u = t + 2h to the bits (h, t + h),
per symbol 0 -> 00, 1 -> 01, 2 -> 11, 3 -> 10, with the h-block of the
whole vector first.  The Nechaev permutation (n odd) is the involution
given by the transpositions (1, n+1)(3, n+3)...(n-2, 2n-2) on positions
0..2n-1; the composition sigma o gray is the Nechaev-Gray map.  Extended
versions fix a leading binary block and map only the quaternary block.
"""

from __future__ import annotations

from typing import Sequence

from z2z4.additive import MixedVector, _as_bits, _as_quat
from z2z4.cycliccode import ResidueWord
from z2z4.errors import DomainError
from z2z4.polyring import QuatPoly, cyclic_reduce, reduce_mod2

BitVector = tuple[int, ...]
QuatVector = tuple[int, ...]


# ----------------------------------------------------------------------
# the Gray-type maps


def _gray(u: QuatVector) -> BitVector:
    return tuple(c >> 1 for c in u) + tuple((c & 1) ^ (c >> 1) for c in u)


def _gray_inv(v: BitVector) -> QuatVector:
    n = len(v) // 2
    return tuple((s ^ h) + 2 * h for h, s in zip(v[:n], v[n:]))


def _odd_length(n: int) -> int:
    if n < 1 or n % 2 == 0:
        raise DomainError("the permutation is defined for odd n only")
    return n


def _nechaev_perm(v: BitVector, n: int) -> BitVector:
    out = list(v)
    for a in range(1, n - 1, 2):
        out[a], out[n + a] = out[n + a], out[a]
    return tuple(out)


def _nechaev_gray(u: QuatVector) -> BitVector:
    return _nechaev_perm(_gray(u), _odd_length(len(u)))


def gray(u: Sequence[int]) -> BitVector:
    """Gray image of a quaternary vector; doubles the length."""
    return _gray(_as_quat(u))


def gray_inv(v: Sequence[int]) -> QuatVector:
    """Inverse Gray map; the input length must be even."""
    v = _as_bits(v)
    if len(v) % 2:
        raise DomainError("Gray preimage needs an even-length vector")
    return _gray_inv(v)


def nechaev_perm(v: Sequence[int], n: int) -> BitVector:
    """Apply the involution (1, n+1)(3, n+3)...(n-2, 2n-2); n must be odd."""
    v = _as_bits(v)
    _odd_length(n)
    if len(v) != 2 * n:
        raise DomainError(f"expected a vector of length {2 * n}, got {len(v)}")
    return _nechaev_perm(v, n)


def nechaev_gray(u: Sequence[int]) -> BitVector:
    """Nechaev-Gray image sigma(gray(u)); the length of u must be odd."""
    return _nechaev_gray(_as_quat(u))


def nechaev_gray_inv(v: Sequence[int]) -> QuatVector:
    """Inverse Nechaev-Gray map gray_inv(sigma(v))."""
    v = _as_bits(v)
    if len(v) % 2:
        raise DomainError("Nechaev-Gray preimage needs an even-length vector")
    return _gray_inv(_nechaev_perm(v, _odd_length(len(v) // 2)))


def _split(w) -> tuple[BitVector, QuatVector]:
    if isinstance(w, MixedVector):
        return _as_bits(w.bin), _as_quat(w.quat)
    b, q = w
    return _as_bits(b), _as_quat(q)


def ext_gray(w) -> BitVector:
    """Extended Gray map: the binary block passes through unchanged.

    Accepts a MixedVector or a (bits, quats) pair.
    """
    b, q = _split(w)
    return b + _gray(q)


def ext_nechaev_gray(w) -> BitVector:
    """Extended Nechaev-Gray map; the quaternary block length must be odd."""
    b, q = _split(w)
    return b + _nechaev_gray(q)


# ----------------------------------------------------------------------
# word arithmetic on MixedVector


def _check_shape(u: MixedVector, v: MixedVector) -> None:
    if u.alpha != v.alpha or u.beta != v.beta:
        raise DomainError("mixed vectors have different shapes")


def add(u: MixedVector, v: MixedVector) -> MixedVector:
    """The sum u + v: binary block mod 2, quaternary block mod 4."""
    _check_shape(u, v)
    return MixedVector(
        tuple(a ^ b for a, b in zip(u.bin, v.bin)),
        tuple((a + b) % 4 for a, b in zip(u.quat, v.quat)),
    )


def scale(v: MixedVector, c: int) -> MixedVector:
    return MixedVector(tuple(c * b for b in v.bin), tuple(c * q for q in v.quat))


def star(u: MixedVector, v: MixedVector) -> MixedVector:
    """Componentwise product (u*v | u'*v')."""
    _check_shape(u, v)
    return MixedVector(
        tuple(a & b for a, b in zip(u.bin, v.bin)),
        tuple(a * b for a, b in zip(u.quat, v.quat)),
    )


def is_zero(v: MixedVector) -> bool:
    return not any(v.bin) and not any(v.quat)


def order(v: MixedVector) -> int:
    """Additive order: 1 for zero, 4 with an odd quaternary entry, else 2."""
    if is_zero(v):
        return 1
    return 4 if any(c % 2 for c in v.quat) else 2


# ----------------------------------------------------------------------
# residue words


def cyclic_mul(a, b, n: int):
    """Product of a and b in the quotient ring modulo x^n - 1."""
    return cyclic_reduce(a * b, n)


def poly_star(p: QuatPoly, w: ResidueWord) -> ResidueWord:
    """Module multiplication p star (u | v) = (p~ u | p v): the mod-2 image
    of p acts on the binary residue."""
    return ResidueWord(
        w.alpha,
        w.beta,
        cyclic_mul(reduce_mod2(p), w.bpart, w.alpha),
        cyclic_mul(p, w.qpart, w.beta),
    )


def to_vector(w: ResidueWord) -> MixedVector:
    """The coefficient vector of a residue word."""
    return MixedVector(w.bpart.padded(w.alpha), w.qpart.padded(w.beta))
