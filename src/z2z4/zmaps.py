"""The Gray map, the Nechaev permutation, and their extended versions.

Each quaternary symbol decomposes uniquely as u = t + 2h with t, h in
{0, 1}; the Gray map sends a length-n quaternary vector to the length-2n
binary vector (h_0, ..., h_{n-1}, t_0+h_0, ..., t_{n-1}+h_{n-1}), i.e.
per symbol 0 -> 00, 1 -> 01, 2 -> 11, 3 -> 10 with the h-block first.

The Nechaev permutation (n odd) is the involution given by the
transpositions (1, n+1)(3, n+3)...(n-2, 2n-2) on positions 0..2n-1; the
composition sigma o gray is the Nechaev-Gray map.  Extended versions fix a
leading binary block and map only the quaternary block.

Note on conventions: some published displays of worked vectors disagree
with the transposition list above by a cyclic shift.  This module applies
the transpositions literally; cross-checks elsewhere in the package are
therefore performed on generated codes (sets), never on single displayed
vectors.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError

BitVector = tuple[int, ...]
QuatVector = tuple[int, ...]


def _as_quat(u: Sequence[int]) -> QuatVector:
    out = tuple(int(c) for c in u)
    if any(c < 0 or c > 3 for c in out):
        raise DomainError("quaternary entries must be in 0..3")
    return out


def _as_bits(v: Sequence[int]) -> BitVector:
    out = tuple(int(c) for c in v)
    if any(c not in (0, 1) for c in out):
        raise DomainError("binary entries must be 0 or 1")
    return out


# The public maps check their input once and then call these unchecked
# kernels, which take tuples of valid entries.


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
    if hasattr(w, "bin") and hasattr(w, "quat"):
        return _as_bits(w.bin), _as_quat(w.quat)
    b, q = w
    return _as_bits(b), _as_quat(q)


def ext_gray(w) -> BitVector:
    """Extended Gray map: the binary block passes through unchanged.

    Accepts a MixedVector-like object or a (bits, quats) pair.
    """
    b, q = _split(w)
    return b + _gray(q)


def ext_nechaev_gray(w) -> BitVector:
    """Extended Nechaev-Gray map; the quaternary block length must be odd."""
    b, q = _split(w)
    return b + _nechaev_gray(q)

