"""Per-word reference implementations of the whole-code engines.

``z2z4.additive`` builds a code coset by coset, maps whole word lists
with precomputed masks, answers the shift, projection and
doubled-product queries from a code's generators, spans the order-two
subcode from its basis and decides membership, equality, the shift test
and the exhaustive closure by reduction; ``z2z4.linimage`` does the same
for binary block codes.  The functions here are the earlier
word-at-a-time, word-set and matrix-driven versions, kept as
differential oracles for those engines.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable

from z2z4.additive import Code, GeneratorMatrix, OracleReport, PlaneShift, WordCodec
from z2z4.errors import CapacityError, DomainError
from z2z4.linimage import BinaryBlockCode, DoubleCyclicGenerators
from z2z4.polyring import BinPoly, cyclic_reduce
from word_oracle import order


def word_add(codec: WordCodec, w1: int, w2: int) -> int:
    """The sum of two packed words: XOR, plus the carry of the t planes
    into the h plane."""
    t1, t2 = codec.tpattern(w1), codec.tpattern(w2)
    return (w1 ^ w2) ^ ((t1 & t2) << codec.hoff)


def orbit_span(codec: WordCodec, gens: Iterable[int], capacity: int) -> frozenset[int]:
    """Every Z4-combination of ``gens``: each generator's orbit added to every word."""
    words = {0}
    for g in gens:
        if g in words:
            continue
        orbit = []
        c = g
        while c:
            orbit.append(c)
            c = word_add(codec, c, g)
        grown = set(words)
        for m in orbit:
            grown.update(word_add(codec, w, m) for w in words)
        if len(grown) > capacity:
            raise CapacityError(f"enumeration exceeds the capacity bound {capacity}")
        words = grown
    return frozenset(words)


def shift_word(codec: WordCodec, w: int) -> int:
    """Simultaneous right cyclic shift of the three planes of one packed word."""
    a, b = codec.alpha, codec.beta
    bm, qm = codec.bmask, codec.qmask
    bpart = w & bm
    t = (w >> codec.toff) & qm
    h = (w >> codec.hoff) & qm
    if a > 1:
        bpart = ((bpart << 1) | (bpart >> (a - 1))) & bm
    if b > 1:
        t = ((t << 1) | (t >> (b - 1))) & qm
        h = ((h << 1) | (h >> (b - 1))) & qm
    return bpart | (t << codec.toff) | (h << codec.hoff)


def ext_gray_bits(codec: WordCodec, w: int) -> int:
    """Packed extended-Gray image of one word: [binary][h-block][t+h-block]."""
    t = (w >> codec.toff) & codec.qmask
    h = (w >> codec.hoff) & codec.qmask
    return (w & codec.bmask) | (h << codec.alpha) | ((t ^ h) << (codec.alpha + codec.beta))


def ext_psi_bits(codec: WordCodec, w: int) -> int:
    """Packed extended Nechaev-Gray image of one word; beta must be odd."""
    if codec.beta % 2 == 0:
        raise DomainError("the Nechaev-Gray map needs an odd quaternary block")
    img = ext_gray_bits(codec, w)
    for i in range((codec.beta - 1) // 2):
        p = codec.alpha + 2 * i + 1
        q = p + codec.beta
        d = ((img >> p) ^ (img >> q)) & 1
        img ^= (d << p) | (d << q)
    return img


def double_shift(r: int, s: int, w: int) -> int:
    """Simultaneous cyclic shift of the blocks of lengths r and s of one word."""
    left = w & ((1 << r) - 1)
    right = w >> r
    if r > 1:
        left = ((left << 1) | (left >> (r - 1))) & ((1 << r) - 1)
    if s > 1:
        right = ((right << 1) | (right >> (s - 1))) & ((1 << s) - 1)
    return left | (right << r)


def basis_image_is_linear(code: Code) -> bool:
    """The Gray image is linear iff its size is 2^(rank of its GF(2) span)."""
    image = {ext_gray_bits(code.codec, w) for w in code.words}
    basis: dict[int, int] = {}
    for v in image:
        while v:
            lead = v.bit_length() - 1
            if lead in basis:
                v ^= basis[lead]
            else:
                basis[lead] = v
                break
    return len(image) == 1 << len(basis)


def shift_span(dcg: DoubleCyclicGenerators) -> frozenset[int]:
    """GF(2) span of the shifts of (b | 0) and (ellp | a), each shift taken
    by polynomial multiplication and the span grown word by word."""
    r, s = dcg.r, dcg.s
    gens = [cyclic_reduce(BinPoly.from_bits(1 << i) * dcg.b, r).bits for i in range(r)]
    for i in range(lcm(r, s)):
        left = cyclic_reduce(BinPoly.from_bits(1 << i) * dcg.ellp, r)
        right = cyclic_reduce(BinPoly.from_bits(1 << i) * dcg.a, s)
        gens.append(left.bits | right.bits << r)
    words = {0}
    for g in gens:
        if g not in words:
            words |= {w ^ g for w in words}
    return frozenset(words)


def word_is_cyclic(code: Code) -> bool:
    """Whether the shift of every codeword stays in the code."""
    return code.words.issuperset(code.codec.shift_words(code.words))


def word_set_is_cyclic(code: Code) -> bool:
    """Whether the shifts of the generators lie in the code's word set."""
    return code.words.issuperset(code.codec.shift_words(code.gens))


def word_set_contains(code: Code, w: int) -> bool:
    """Whether the packed word ``w`` is in the code's word set."""
    return w in code.words


def word_set_equal(first: Code, second: Code) -> bool:
    """Same shape and size, and the generators of ``second`` lie in the
    word set of ``first``."""
    return (
        (first.alpha, first.beta, len(first)) == (second.alpha, second.beta, len(second))
        and first.words.issuperset(second.gens)
    )


def word_is_double_cyclic(bc: BinaryBlockCode) -> bool:
    """Whether the double shift of every word stays in the word set."""
    return bc.words.issuperset(PlaneShift(bc.r, bc.s)(bc.words))


def word_block_equal(first: BinaryBlockCode, second: BinaryBlockCode) -> bool:
    """Equal block lengths and equal word sets."""
    return (first.r, first.s, first.words) == (second.r, second.s, second.words)


def word_puncture_x(code: Code) -> frozenset[int]:
    """The binary block of every codeword."""
    return frozenset(w & code.codec.bmask for w in code.words)


def word_puncture_y(code: Code) -> frozenset[int]:
    """The quaternary block of every codeword."""
    return frozenset(w >> code.alpha for w in code.words)


def word_order_two_subcode(code: Code) -> frozenset[int]:
    """The codewords with an empty t plane, that is of order at most two."""
    return frozenset(w for w in code.words if code.codec.tpattern(w) == 0)


def matrix_generator_oracle(code: Code, matrix: GeneratorMatrix) -> OracleReport:
    """The ``generators`` closure test over the order-four rows of a matrix
    that spans ``code``, packed row by row."""
    codec = code.codec
    rows = [r for r in matrix.rows if order(r) == 4]
    packed = [codec.pack(r) for r in rows]
    for i, wi in enumerate(packed):
        for j in range(i, len(packed)):
            prod = (codec.tpattern(wi) & codec.tpattern(packed[j])) << codec.hoff
            if prod not in code.words:
                return OracleReport(False, (rows[i], rows[j], codec.unpack(prod)))
    return OracleReport(True)


def word_set_closure(code: Code) -> OracleReport:
    """The ``exhaustive`` closure test over the word set: every nonzero
    mod-2 pattern of a codeword, witnessed by its smallest word, and every
    pair of patterns s <= t, with 2(s & t) looked up among the words."""
    codec = code.codec
    words = code.words
    smallest: dict[int, int] = {}
    for w in words:
        t = codec.tpattern(w)
        if t and (t not in smallest or w < smallest[t]):
            smallest[t] = w
    patterns = sorted(smallest)
    for i, s in enumerate(patterns):
        for t in patterns[i:]:
            prod = (s & t) << codec.hoff
            if prod not in words:
                return OracleReport(
                    False, tuple(map(codec.unpack, (smallest[s], smallest[t], prod)))
                )
    return OracleReport(True)
