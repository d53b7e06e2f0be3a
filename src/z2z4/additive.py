"""Additive codes in Z2^alpha x Z4^beta from arbitrary generator matrices.

Enumeration is exact: the code is the set of all Z-combinations of the
rows (binary block mod 2, quaternary block mod 4).  Codewords are packed
into ints with three bit planes -- binary block, quaternary low bits t,
quaternary high bits h (symbol = t + 2h) -- so that addition costs a few
word operations and codes up to the capacity bound stay cheap to hold.

The span engine splits the code as |C| = 2^(rank + delta): delta
order-four pivots from an echelon on the t plane (``_unit_echelon``), over
the order-two subcode C_2 of GF(2) rank ``rank``.  A ``Code`` keeps the
pivots and a basis of C_2, so its size and its type are known without any
codeword or further reduction; ``standard_form`` starts from the same
echelon and reduces on to the block shape.
Membership is decided by reduction: a word lies in C iff subtracting the
pivots at its odd quaternary entries leaves a word of C_2, which the
GF(2) basis then reduces to 0.  Size, equality, the shift test, the
projections and the ``generators`` closure ask only that, so they work
at any size.  The 2^delta coset representatives are built on first read,
and that read is where the capacity bound is checked: every word list
(the codewords, the images, the ``exhaustive`` closure) is built from
them, as the XORs of the representatives with C_2.  The shift and the
Gray-type maps are XOR-linear on packed words, so the image of a code is
built coset by coset from the mapped representatives and basis, one XOR
per word, and the Gray image's rank needs no image word at all.  Word
lists are mapped with precomputed masks, without a Python call per word.

The Gray-linearity oracle uses the identity 2u*v = (0 | 2(t_u & t_v)):
the doubled star product of two codewords depends only on the mod-2
patterns of their quaternary blocks, so checking all codeword pairs
reduces to checking all pairs of distinct patterns.  Those patterns are
the t planes of the coset representatives, and the smallest word with a
given pattern is the minimum of its coset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, or_
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DomainError

DEFAULT_CAPACITY = 1 << 24
_CAPACITY_ENV = "Z2Z4_CAPACITY"


def resolve_capacity() -> int:
    """The Z2Z4_CAPACITY env var (an integer of at least 1), else the
    default."""
    env = os.environ.get(_CAPACITY_ENV)
    if not env:
        return DEFAULT_CAPACITY
    if not env.strip().isdecimal() or int(env) < 1:
        raise DomainError(f"{_CAPACITY_ENV} must be an integer of at least 1, not {env!r}")
    return int(env)


# ----------------------------------------------------------------------
# vectors and matrices


def parse_ints(tokens: Iterable[str]) -> tuple[int, ...]:
    """Integers from text tokens; a token that is not one is a DomainError."""
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise DomainError(f"{t.strip()!r} is not an integer") from None
    return tuple(out)


def _as_quat(u: Sequence[int]) -> tuple[int, ...]:
    out = tuple(map(int, u))
    if not set(out) <= {0, 1, 2, 3}:
        raise DomainError("quaternary entries must be in 0..3")
    return out


def _as_bits(v: Sequence[int]) -> tuple[int, ...]:
    out = tuple(map(int, v))
    if not set(out) <= {0, 1}:
        raise DomainError("binary entries must be 0 or 1")
    return out


# Entries 0..3 as bytes, mapped whole by ``bytes.translate``: entry -> its
# ASCII digit, or the digit of its low or high bit; ASCII digit -> the
# entry it stands for in the t plane (0 or 1) or in the h plane (0 or 2).
_DIGIT = bytes.maketrans(bytes(range(4)), b"0123")
_LOW_DIGIT = bytes.maketrans(bytes(range(4)), b"0101")
_HIGH_DIGIT = bytes.maketrans(bytes(range(4)), b"0011")
_DIGIT_ONE = bytes.maketrans(b"01", bytes((0, 1)))
_DIGIT_TWO = bytes.maketrans(b"01", bytes((0, 2)))


def _plane(entries: bytes, digit: bytes) -> int:
    """The int whose bit i is entry i mapped by ``digit``: one string to int
    conversion, linear in the length."""
    return int(entries.translate(digit)[::-1] or b"0", 2)


def _entries(x: int, n: int, value: bytes) -> bytes:
    """Bit i of x mapped by ``value``, for i < n, as one byte each; x < 2^n.
    The top bit 2^n keeps the digit string n + 1 long, and is then dropped."""
    return format(x | 1 << n, "b")[:0:-1].encode().translate(value)


@dataclass(frozen=True)
class MixedVector:
    """A word (u | u') with binary block u and quaternary block u'."""

    bin: tuple[int, ...]
    quat: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bin", tuple(int(c) % 2 for c in self.bin))
        object.__setattr__(self, "quat", tuple(int(c) % 4 for c in self.quat))

    @classmethod
    def _of(cls, bin: tuple[int, ...], quat: tuple[int, ...]) -> "MixedVector":
        """The vector of blocks that are already tuples of bits and of
        digits 0..3, taken as they are: no pass over the entries."""
        v = object.__new__(cls)
        object.__setattr__(v, "bin", bin)
        object.__setattr__(v, "quat", quat)
        return v

    @property
    def alpha(self) -> int:
        return len(self.bin)

    @property
    def beta(self) -> int:
        return len(self.quat)

    def shift(self) -> "MixedVector":
        """Simultaneous right cyclic shift of both blocks."""
        b, q = self.bin, self.quat
        return MixedVector._of(b[-1:] + b[:-1], q[-1:] + q[:-1])

    def __str__(self) -> str:
        return ",".join(bytes(self.bin).translate(_DIGIT).decode()) + "|" + ",".join(
            bytes(self.quat).translate(_DIGIT).decode()
        )

    @classmethod
    def parse(cls, text: str, alpha: int | None = None, beta: int | None = None):
        """Parse 'b0,b1,...|q0,q1,...' (bits 0..1, digits 0..3); either block may be empty."""
        if "|" not in text:
            raise DomainError("mixed vector text needs a '|' separator")
        left, right = text.split("|", 1)
        bins = parse_ints(t for t in left.split(",") if t.strip() != "")
        quats = parse_ints(t for t in right.split(",") if t.strip() != "")
        v = cls(_as_bits(bins), _as_quat(quats))
        if alpha is not None and v.alpha != alpha:
            raise DomainError(f"expected binary block of length {alpha}")
        if beta is not None and v.beta != beta:
            raise DomainError(f"expected quaternary block of length {beta}")
        return v


@dataclass(frozen=True)
class GeneratorMatrix:
    """Rows spanning an additive code under Z-combinations."""

    alpha: int
    beta: int
    rows: tuple[MixedVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for r in self.rows:
            if r.alpha != self.alpha or r.beta != self.beta:
                raise DomainError("matrix rows do not match the declared shape")

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorMatrix":
        """Schema: {"alpha": A, "beta": B, "rows": [[bits..., "|", quats...], ...]}.

        alpha and beta must be integers of at least 0, bits the integers 0
        or 1 and quaternary entries 0..3; nothing is converted or reduced,
        so 1.7, true or "3" is a DomainError.
        """
        try:
            alpha, beta = obj["alpha"], obj["beta"]
            if type(alpha) is not int or type(beta) is not int:
                raise DomainError(f"alpha {alpha!r} and beta {beta!r} must be integers")
            if alpha < 0 or beta < 0:
                raise DomainError(f"alpha {alpha} and beta {beta} must not be negative")
            rows = []
            for raw in obj["rows"]:
                if "|" in raw:
                    cut = raw.index("|")
                    bins, quats = raw[:cut], raw[cut + 1 :]
                else:
                    bins, quats = raw[:alpha], raw[alpha:]
                bad = [c for c in (*bins, *quats) if type(c) is not int]
                if bad:
                    raise DomainError(f"matrix entry {bad[0]!r} is not an integer")
                rows.append(MixedVector._of(_as_bits(bins), _as_quat(quats)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad matrix JSON: {exc}") from exc
        return cls(alpha, beta, tuple(rows))

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "rows": [list(r.bin) + ["|"] + list(r.quat) for r in self.rows],
        }

    @classmethod
    def from_text(cls, text: str) -> "GeneratorMatrix":
        """Parse a grid with a '|' column separating the two blocks (bits 0..1, digits 0..3)."""
        rows = []
        alpha = beta = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "|" not in line:
                raise DomainError(f"matrix row {line!r} lacks a '|' separator")
            left, right = line.split("|", 1)
            bins = _as_bits(parse_ints(left.split()))
            quats = _as_quat(parse_ints(right.split()))
            if alpha is None:
                alpha, beta = len(bins), len(quats)
            rows.append(MixedVector(bins, quats))
        if alpha is None:
            raise DomainError("matrix text contains no rows")
        return cls(alpha, beta, tuple(rows))

    def __str__(self) -> str:
        lines = []
        for r in self.rows:
            left = " ".join(map(str, r.bin))
            right = " ".join(map(str, r.quat))
            lines.append(f"{left} | {right}".strip())
        return "\n".join(lines)


@dataclass(frozen=True)
class CodeType:
    """Parameters (alpha, beta; gamma, delta; kappa) plus optional refinements."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    kappa: int
    kappa1: int | None = None
    kappa2: int | None = None
    delta1: int | None = None
    delta2: int | None = None

    @property
    def size(self) -> int:
        return 1 << (self.gamma + 2 * self.delta)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.gamma, self.delta, self.kappa)

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta}; {self.gamma},{self.delta}; {self.kappa})"


# ----------------------------------------------------------------------
# packed-word codec


class PlaneShift:
    """Right cyclic shift of every bit plane of a word, over whole word lists.

    The planes are adjacent bit fields of the given widths, lowest first.
    A word maps to ((w << 1) & keep) | ((w >> (k - 1)) & low_k) over the
    distinct widths k: ``keep`` drops the bit each plane pushes into the
    next one, and ``low_k`` holds the lowest bit of every plane of width k,
    which receives that plane's top bit.  Planes of width 0 or 1 are fixed.
    """

    __slots__ = ("keep", "wraps")

    def __init__(self, *widths: int):
        keep = off = 0
        wraps: dict[int, int] = {}
        for k in widths:
            if k:
                keep |= ((1 << (k - 1)) - 1) << (off + 1)
                wraps[k - 1] = wraps.get(k - 1, 0) | 1 << off
            off += k
        if len(wraps) > 2:
            raise DomainError("the shift kernel takes at most two plane widths")
        self.keep = keep
        self.wraps = tuple(wraps.items()) + ((0, 0),) * (2 - len(wraps))

    def __call__(self, words: Iterable[int]) -> list[int]:
        keep = self.keep
        (s1, m1), (s2, m2) = self.wraps
        return [((w << 1) & keep) | ((w >> s1) & m1) | ((w >> s2) & m2) for w in words]

    def orbit(self, w: int, count: int) -> list[int]:
        """The shifts x^i w of one word, for i = 0 .. count-1, each taken
        from the one before in the loop, with no call per shift."""
        keep = self.keep
        (s1, m1), (s2, m2) = self.wraps
        out = []
        for _ in range(count):
            out.append(w)
            w = ((w << 1) & keep) | ((w >> s1) & m1) | ((w >> s2) & m2)
        return out


class WordCodec:
    """Bit-plane packing of mixed words for a fixed (alpha, beta).

    Besides the per-word arithmetic it maps whole word lists at once (the
    cyclic shift, the two Gray-type images and their inverses), with the
    masks computed here, so that no Python function is called per word.
    The shift's ``PlaneShift`` is built on first use: most codecs never
    shift.

    These are the package's only Gray maps.  The Gray map sends the
    quaternary block u = t + 2h to (h | t + h), per symbol 0 -> 00,
    1 -> 01, 2 -> 11, 3 -> 10 with the h-block first; the binary block
    passes through.  The Nechaev permutation (beta odd) swaps positions
    1, 3, ..., beta - 2 of the image of the quaternary block with the
    positions beta above them.  Some published displays of worked vectors
    disagree with that transposition list by a cyclic shift.  The swaps
    are applied literally, so cross-checks elsewhere in the package are
    made on generated codes (sets), never on single displayed vectors.
    """

    __slots__ = (
        "alpha", "beta", "bmask", "qmask", "toff", "hoff",
        "_shift", "_tplane", "_hplane", "_psi_mask",
    )

    def __init__(self, alpha: int, beta: int):
        self.alpha = alpha
        self.beta = beta
        self.bmask = (1 << alpha) - 1
        self.qmask = (1 << beta) - 1
        self.toff = alpha
        self.hoff = alpha + beta
        self._shift: PlaneShift | None = None
        self._tplane = self.qmask << alpha
        self._hplane = self.qmask << (alpha + beta)
        # positions alpha + 1, alpha + 3, ..., alpha + beta - 2: the Nechaev
        # permutation swaps each with the position beta above it.  With
        # k = (beta - 1) // 2 such positions that is (4^k - 1) / 3 = 0b0101..01
        # shifted up to alpha + 1.
        self._psi_mask = ((1 << (max(beta - 1, 0) // 2 * 2)) - 1) // 3 << (alpha + 1)

    @property
    def shift_words(self) -> PlaneShift:
        """The simultaneous cyclic shift of both blocks, over word lists."""
        if self._shift is None:
            self._shift = PlaneShift(self.alpha, self.beta, self.beta)
        return self._shift

    def pack(self, v: MixedVector) -> int:
        q = bytes(v.quat)
        return self.pack_planes(
            _plane(bytes(v.bin), _LOW_DIGIT), _plane(q, _LOW_DIGIT), _plane(q, _HIGH_DIGIT)
        )

    def pack_planes(self, b: int, t: int, h: int) -> int:
        """The word with binary block ``b`` and quaternary planes ``t`` and
        ``h`` (entry i is bit i of t plus twice bit i of h), given as ints
        of at most alpha, beta and beta bits."""
        return b | (t << self.toff) | (h << self.hoff)

    def unpack(self, w: int) -> MixedVector:
        b = _entries(w & self.bmask, self.alpha, _DIGIT_ONE)
        t = _entries((w >> self.toff) & self.qmask, self.beta, _DIGIT_ONE)
        h = _entries((w >> self.hoff) & self.qmask, self.beta, _DIGIT_TWO)
        return MixedVector._of(tuple(b), tuple(map(add, t, h)))

    def tpattern(self, w: int) -> int:
        return (w >> self.toff) & self.qmask

    def shifts(self, w: int, count: int) -> list[int]:
        """The cyclic shifts x^i w of one word, for i = 0 .. count-1, built
        in one loop over the shift's masks (``PlaneShift.orbit``)."""
        return self.shift_words.orbit(w, count)

    def gray_words(self, words: Iterable[int]) -> list[int]:
        """Packed extended-Gray images [binary block][h-block][t+h-block]."""
        s, bm, tp, hp = self.beta, self.bmask, self._tplane, self._hplane
        return [(w & bm) | ((w >> s) & tp) | ((w ^ (w << s)) & hp) for w in words]

    def psi_words(self, words: Iterable[int]) -> list[int]:
        """Packed extended Nechaev-Gray images; beta must be odd."""
        if self.beta % 2 == 0:
            raise DomainError("the Nechaev-Gray map needs an odd quaternary block")
        s, pm = self.beta, self._psi_mask
        return [
            g ^ d ^ (d << s)
            for g in self.gray_words(words)
            for d in ((g ^ (g >> s)) & pm,)
        ]

    def gray_inv_words(self, images: Iterable[int]) -> list[int]:
        """Packed preimages [binary block][t][h] of packed extended-Gray
        images: the Gray blocks h and t + h give t = h ^ (t + h)."""
        s, bm, tp, hp = self.beta, self.bmask, self._tplane, self._hplane
        return [(v & bm) | ((v ^ (v >> s)) & tp) | ((v << s) & hp) for v in images]

    def psi_inv_words(self, images: Iterable[int]) -> list[int]:
        """Packed preimages [binary block][t][h] of packed extended
        Nechaev-Gray images; beta must be odd.  The swaps are an involution,
        so they are undone as in ``psi_words``, and ``gray_inv_words`` then
        inverts the Gray map."""
        if self.beta % 2 == 0:
            raise DomainError("the Nechaev-Gray map needs an odd quaternary block")
        s, pm = self.beta, self._psi_mask
        return self.gray_inv_words(
            g ^ d ^ (d << s) for g in images for d in ((g ^ (g >> s)) & pm,)
        )


def _unit_echelon(codec: WordCodec, gens: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Unit pivots of packed words on the quaternary mod-2 plane t.

    Columns are taken right to left.  At a column where some row has an
    odd entry, the first such row becomes the pivot, negated if that entry
    is 3, and the column is cleared in every other row by subtracting the
    entry times the pivot.  The next such column is the top bit of the OR
    of the rows' t planes (a pivot has no t bit above its own column, so
    clearing adds none), and the walk ends when no row is left.  Returns
    ``(pivots, rest)``: ``pivots`` maps a column to its row, which holds 1
    there and 0 at every other pivot column; the rows in ``rest`` have an
    empty t plane (order two) and vanish on every pivot column.

    The column is cleared in the rows and the earlier pivots by one list
    comprehension, with the codec's add written out: p and -p share the
    t plane pt, so r + (+-p) is r ^ (+-p) ^ ((t(r) & pt) << hoff).
    """
    toff, hoff, qmask = codec.toff, codec.hoff, codec.qmask
    rows = list(gens)
    pivots: dict[int, int] = {}
    while rows and (tor := (reduce(or_, rows) >> toff) & qmask):
        col = tor.bit_length() - 1
        tbit, hbit = 1 << (toff + col), 1 << (hoff + col)
        k = next(k for k, p in enumerate(rows) if p & tbit)
        p = rows.pop(k)
        pt = (p >> toff) & qmask
        two = pt << hoff  # 2p, also 2(-p)
        if p & hbit:
            p ^= two  # entry 3 -> 1
        neg = p ^ two
        # r - e*p for the entry e of r at col: e = 3 adds p, e = 1 adds -p,
        # e = 2 adds 2p
        cleared = [
            r ^ (p if r & hbit else neg) ^ ((r >> toff & pt) << hoff) if r & tbit
            else r ^ two if r & hbit else r
            for r in (*rows, *pivots.values())
        ]
        n = len(rows)
        rows = cleared[:n]
        pivots = dict(zip(pivots, cleared[n:]))
        pivots[col] = p
    return pivots, rows


def _gf2_reduce(basis: dict[int, int], v: int) -> int:
    """What is left of ``v`` after reduction by a GF(2) basis keyed by
    leading bit: 0 iff ``v`` lies in its span."""
    while v:
        b = basis.get(v.bit_length() - 1)
        if b is None:
            return v
        v ^= b
    return 0


def _coset_min(basis: dict[int, int], r: int) -> int:
    """The smallest word of the coset ``r ^ span(basis)``: each lead bit,
    from high to low, is cleared where it is set.  A basis vector has no
    bit above its lead, so the bits already decided stay as they are."""
    for lead in sorted(basis, reverse=True):
        if r >> lead & 1:
            r ^= basis[lead]
    return r


def _gf2_basis(vectors: Iterable[int]) -> dict[int, int]:
    """A GF(2) basis of the span of ``vectors``, keyed by leading bit:
    each vector is reduced as in ``_gf2_reduce``, in line, and what is
    left of it joins the basis at its leading bit."""
    basis: dict[int, int] = {}
    get = basis.get
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            b = get(lead)
            if b is None:
                basis[lead] = v
                break
            v ^= b
    return basis


def _coset_words(reps: Iterable[int], basis: Iterable[int]) -> frozenset[int]:
    """The union of the cosets r ^ span(basis), one XOR per word."""
    sub = [0]
    for v in basis:
        sub += [w ^ v for w in sub]
    if len(sub) == 1:
        return frozenset(reps)
    # the coset of r = 0 is sub itself: reusing it builds no new int per word
    return frozenset(chain.from_iterable([r ^ w for w in sub] if r else sub for r in reps))


class Code:
    """An additive code, kept as its echelon over the order-two subcode C_2.

    ``gens`` holds the packed words the code was spanned from, in the order
    given; ``pivots`` (the order-four unit pivots u_i by column) come from
    ``_unit_echelon``, and ``basis`` is a GF(2) basis of C_2, keyed by
    leading bit, spanned by the rows the echelon leaves and the 2u_i.  The
    code is the union of the cosets r + C_2 = r ^ C_2 over the 2^delta sums
    r of subsets of the u_i (a word of C_2 has an empty t plane), so its
    size ``size`` is ``1 << (len(pivots) + len(basis))``.
    Membership is by reduction (``has_word``), so equality, the shift test
    and the ``generators`` closure work at any size.  The coset
    representatives ``reps`` are built on first read, after the size is
    checked against the capacity bound, and the word set ``words`` from
    them on first access, for listing codewords.  Queries that are linear
    in the codeword (the shift, the projections, the doubled star product)
    read ``gens``, and XOR-linear word maps (the Gray-type images) map
    ``reps`` and ``basis`` instead of every word.
    """

    __slots__ = ("alpha", "beta", "codec", "gens", "pivots", "basis", "_reps", "_words")

    @classmethod
    def span(cls, codec: WordCodec, gens: Iterable[int]) -> "Code":
        """The code spanned by the packed words ``gens``, sharing ``codec``;
        given a code's word set, it is that code."""
        code = cls.__new__(cls)
        code.alpha = codec.alpha
        code.beta = codec.beta
        code.codec = codec
        code.gens = tuple(gens)
        code.pivots, rest = _unit_echelon(codec, code.gens)
        toff, hoff, qmask = codec.toff, codec.hoff, codec.qmask
        code.basis = _gf2_basis(rest + [(u >> toff & qmask) << hoff for u in code.pivots.values()])
        code._reps = code._words = None
        return code

    @classmethod
    def from_matrix(cls, matrix: GeneratorMatrix) -> "Code":
        return cls.from_vectors_span(matrix.alpha, matrix.beta, matrix.rows)

    @classmethod
    def from_vectors_span(cls, alpha: int, beta: int, vectors: Iterable[MixedVector]) -> "Code":
        codec = WordCodec(alpha, beta)
        return cls.span(codec, [codec.pack(v) for v in vectors])

    @property
    def reps(self) -> list[int]:
        """The 2^delta coset representatives, the sums of subsets of the
        pivots, 0 first; built on first read, where the code's size is
        checked against the capacity bound before any of them exists."""
        if self._reps is None:
            capacity = resolve_capacity()
            if self.size > capacity:
                raise CapacityError(
                    f"enumeration exceeds the capacity bound {capacity}; "
                    f"raise it via {_CAPACITY_ENV} if intended"
                )
            toff, hoff, qmask = self.codec.toff, self.codec.hoff, self.codec.qmask
            reps = [0]
            for u in self.pivots.values():  # r + u, with the codec's add written out
                ut = (u >> toff) & qmask
                reps += [r ^ u ^ ((r >> toff & ut) << hoff) for r in reps]
            self._reps = reps
        return self._reps

    @property
    def words(self) -> frozenset[int]:
        """Every codeword, built coset by coset on first access."""
        if self._words is None:
            self._words = _coset_words(self.reps, self.basis.values())
        return self._words

    def has_word(self, w: int) -> bool:
        """Whether the packed word ``w`` is a codeword, by reduction.

        The pivots at the odd quaternary entries of ``w`` sum to a codeword
        r; ``w`` is in the code iff r has the same t plane and the
        difference w - r, which is then w ^ r, lies in C_2.  Both hold iff
        w ^ r GF(2)-reduces to 0 by ``basis``: no vector of C_2 has a t bit
        to clear the t plane of w ^ r with.
        """
        toff, hoff, qmask = self.codec.toff, self.codec.hoff, self.codec.qmask
        t = (w >> toff) & qmask
        r = 0
        for col, u in self.pivots.items():
            if t >> col & 1:  # r + u, with the codec's add written out
                r ^= u ^ ((r >> toff & u >> toff & qmask) << hoff)
        return not _gf2_reduce(self.basis, w ^ r)

    @property
    def size(self) -> int:
        """The number of codewords, which ``len()`` cannot return past
        ``sys.maxsize``."""
        return 1 << (len(self.pivots) + len(self.basis))

    def __len__(self) -> int:
        return self.size

    @property
    def code_type(self) -> CodeType:
        """The type (alpha, beta; gamma, delta; kappa), read off the echelon
        with no row reduction and no codeword: delta is the number of unit
        pivots, C_2 has rank gamma + delta, and kappa is the rank of the
        binary block of C_2 (the doubled pivots 2u_i have an empty one)."""
        delta, bmask = len(self.pivots), self.codec.bmask
        kappa = len(_gf2_basis(v & bmask for v in self.basis.values()))
        return CodeType(self.alpha, self.beta, len(self.basis) - delta, delta, kappa)

    def __eq__(self, other) -> bool:
        """Same shape and size, and the generators of ``other`` lie in this
        code; exact because both are groups.  No word set is built."""
        return (
            isinstance(other, Code)
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.size == other.size
            and all(map(self.has_word, other.gens))
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta, self.size))

    def __contains__(self, v: MixedVector) -> bool:
        if v.alpha != self.alpha or v.beta != self.beta:
            raise DomainError("the vector and the code have different shapes")
        return self.has_word(self.codec.pack(v))

    def vectors(self) -> Iterator[MixedVector]:
        unpack = self.codec.unpack
        for w in self.words:
            yield unpack(w)

    def sorted_vectors(self) -> list[MixedVector]:
        """Codewords in the canonical order: binary block lex, then quaternary."""
        return sorted(self.vectors(), key=lambda v: (v.bin, v.quat))

    # -- structural queries -------------------------------------------
    def is_cyclic(self) -> bool:
        """The shift is additive, so shifting the generators is enough."""
        return all(map(self.has_word, self.codec.shift_words(self.gens)))

    def cyclic_witness(self) -> tuple[MixedVector, MixedVector] | None:
        """First codeword (canonical order) whose shift leaves the code."""
        for v in self.sorted_vectors():
            s = v.shift()
            if s not in self:
                return v, s
        return None

    def puncture_x(self) -> "Code":
        """The binary projection, spanned by the projected generators."""
        bmask = self.codec.bmask
        return Code.span(WordCodec(self.alpha, 0), [w & bmask for w in self.gens])

    def puncture_y(self) -> "Code":
        """The quaternary projection, spanned by the projected generators."""
        alpha = self.alpha
        return Code.span(WordCodec(0, self.beta), [w >> alpha for w in self.gens])

    def is_separable(self) -> bool:
        return self.puncture_x().size * self.puncture_y().size == self.size

    def order_two_subcode(self) -> "Code":
        """The words of order at most two, spanned by the basis of C_2."""
        return Code.span(self.codec, self.basis.values())


# ----------------------------------------------------------------------
# Gray-image linearity oracles


@dataclass(frozen=True)
class OracleReport:
    linear: bool
    witness: tuple[MixedVector, MixedVector, MixedVector] | None = None


def gray_is_linear_oracle(code: Code, mode: str = "exhaustive") -> OracleReport:
    """Closure test: the extended Gray image is linear iff 2u*v stays in the code.

    ``exhaustive`` ranges over all codeword pairs via their quaternary mod-2
    patterns, which determine 2u*v: the nonzero t planes of ``reps``, each
    witnessed by its smallest word, the minimum of its coset.
    ``generators`` ranges over pairs of the code's generators with a
    nonzero mod-2 pattern, which suffices because the doubled star product
    is bi-additive in the patterns.  Both test membership by reduction and
    build no word set; ``exhaustive`` reduces each distinct product once.
    Only ``exhaustive`` reads ``reps``, so only it meets the capacity
    bound; ``generators`` works at any size.
    """
    codec = code.codec
    hoff = codec.hoff
    if mode == "generators":
        units = [(w, t) for w in code.gens if (t := codec.tpattern(w))]
        for i, (wi, ti) in enumerate(units):
            for wj, tj in units[i:]:
                prod = (ti & tj) << hoff
                if not code.has_word(prod):
                    return OracleReport(False, tuple(map(codec.unpack, (wi, wj, prod))))
        return OracleReport(True)
    if mode != "exhaustive":
        raise DomainError(f"unknown oracle mode {mode!r}")
    # the words with t plane t(r) form the coset r ^ C_2; its minimum is
    # the pattern's witness
    witness = {t: _coset_min(code.basis, r) for r in code.reps if (t := codec.tpattern(r))}
    patterns = sorted(witness)
    in_code = set()  # the products s & t already reduced to 0
    for i, s in enumerate(patterns):
        for t in patterns[i:]:
            st = s & t
            if st in in_code:
                continue
            prod = st << hoff
            if _gf2_reduce(code.basis, prod):  # has_word, for an empty t plane
                return OracleReport(
                    False,
                    (codec.unpack(witness[s]), codec.unpack(witness[t]), codec.unpack(prod)),
                )
            in_code.add(st)
    return OracleReport(True)


def gray_image_is_linear(code: Code) -> bool:
    """Independent check: the Gray image has as many words as its GF(2) span.

    The Gray map is injective, so the image has ``code.size`` words, and
    XOR-linear on packed words, so the image is the union of the cosets
    gray(r) ^ span(gray(basis)) and spans what gray(reps) and gray(basis)
    span.  The image lies in that span; it is linear iff the span is no
    larger.  No image word is built.
    """
    gray = code.codec.gray_words
    return 1 << len(_gf2_basis(gray(code.reps) + gray(code.basis.values()))) == code.size


# ----------------------------------------------------------------------
# standard form


@dataclass(frozen=True)
class StandardForm:
    """Reduced matrix in block shape, its type, and the column permutations.

    ``bin_perm``/``quat_perm`` list original column indices in their new
    order (entry i = original column now at position i).
    """

    matrix: GeneratorMatrix
    code_type: CodeType
    bin_perm: tuple[int, ...]
    quat_perm: tuple[int, ...]


def standard_form(matrix: GeneratorMatrix) -> StandardForm:
    """Row-reduce into the block shape with identity blocks and return the
    column permutation that realizes it.

    The unit-pivot echelon (``_unit_echelon``, columns right to left, so
    that a matrix already in standard shape comes back unchanged with
    identity permutations) gives the delta order-four rows.  The order-two
    rows it leaves are brought to reduced echelon form over GF(2), binary
    columns left to right and then the h plane right to left, and the
    order-four rows are reduced at those pivots.  The result depends only
    on the code and the column order, not on which rows become pivots.
    """
    codec = WordCodec(matrix.alpha, matrix.beta)
    alpha, beta, toff, hoff = codec.alpha, codec.beta, codec.toff, codec.hoff
    units, rest = _unit_echelon(codec, [codec.pack(r) for r in matrix.rows])

    twos: list[tuple[int, int]] = []  # (pivot bit, order-two row), in pivot order
    for bit in [1 << c for c in range(alpha)] + [1 << (hoff + c) for c in range(beta - 1, -1, -1)]:
        k = next((k for k, r in enumerate(rest) if r & bit), None)
        if k is None:
            continue
        p = rest.pop(k)
        rest = [r ^ p if r & bit else r for r in rest]
        twos = [(b, r ^ p if r & bit else r) for b, r in twos]
        twos.append((bit, p))
    kappa = sum(1 for bit, _ in twos if bit <= codec.bmask)
    bins, q2 = twos[:kappa], twos[kappa:][::-1]  # q2 by ascending column

    # order-four rows by ascending column, reduced at the order-two pivots
    unit_cols = sorted(units)
    delta_rows = []
    for col in unit_cols:
        d = units[col]
        for bit, p in twos:
            if d & bit:
                d ^= p
        delta_rows.append(d)

    bin_cols = [bit.bit_length() - 1 for bit, _ in bins]
    bin_perm = tuple(bin_cols + [c for c in range(alpha) if c not in bin_cols])
    q2_cols = [bit.bit_length() - 1 - hoff for bit, _ in q2]
    free_cols = [c for c in range(beta) if c not in q2_cols and c not in units]
    quat_perm = tuple(free_cols + q2_cols + unit_cols)

    out = [
        MixedVector(
            tuple(w >> c & 1 for c in bin_perm),
            tuple(w >> (toff + c) & 1 | (w >> (hoff + c) & 1) << 1 for c in quat_perm),
        )
        for w in [p for _, p in bins + q2] + delta_rows
    ]
    return StandardForm(
        GeneratorMatrix(alpha, beta, tuple(out)),
        CodeType(alpha, beta, kappa + len(q2), len(units), kappa),
        bin_perm,
        quat_perm,
    )
