"""Additive codes in Z2^alpha x Z4^beta from arbitrary generator matrices.

Enumeration is exact: the code is the set of all Z-combinations of the
rows (binary block mod 2, quaternary block mod 4).  Codewords are packed
into ints with three bit planes -- binary block, quaternary low bits t,
quaternary high bits h (symbol = t + 2h) -- so that addition costs a few
word operations and codes up to the capacity bound stay cheap to hold.

The Gray-linearity oracle uses the identity 2u*v = (0 | 2(t_u & t_v)):
the doubled star product of two codewords depends only on the mod-2
patterns of their quaternary blocks, so checking all codeword pairs
reduces to checking all pairs of distinct patterns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, DomainError
from .zmaps import _as_bits, _as_quat

DEFAULT_CAPACITY = 1 << 24
_CAPACITY_ENV = "Z2Z4_CAPACITY"


def resolve_capacity(capacity: int | None = None) -> int:
    """Explicit value, else the Z2Z4_CAPACITY env var, else the default."""
    if capacity is not None:
        return int(capacity)
    env = os.environ.get(_CAPACITY_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"bad {_CAPACITY_ENV} value {env!r}") from exc
    return DEFAULT_CAPACITY


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


@dataclass(frozen=True)
class MixedVector:
    """A word (u | u') with binary block u and quaternary block u'."""

    bin: tuple[int, ...]
    quat: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bin", tuple(int(c) % 2 for c in self.bin))
        object.__setattr__(self, "quat", tuple(int(c) % 4 for c in self.quat))

    @property
    def alpha(self) -> int:
        return len(self.bin)

    @property
    def beta(self) -> int:
        return len(self.quat)

    @property
    def is_zero(self) -> bool:
        return not any(self.bin) and not any(self.quat)

    def __add__(self, other: "MixedVector") -> "MixedVector":
        self._check_shape(other)
        return MixedVector(
            tuple(a ^ b for a, b in zip(self.bin, other.bin)),
            tuple((a + b) % 4 for a, b in zip(self.quat, other.quat)),
        )

    def scale(self, c: int) -> "MixedVector":
        return MixedVector(tuple(c * b for b in self.bin), tuple(c * q for q in self.quat))

    def star(self, other: "MixedVector") -> "MixedVector":
        """Componentwise product (u*v | u'*v')."""
        self._check_shape(other)
        return MixedVector(
            tuple(a & b for a, b in zip(self.bin, other.bin)),
            tuple(a * b for a, b in zip(self.quat, other.quat)),
        )

    def shift(self) -> "MixedVector":
        """Simultaneous right cyclic shift of both blocks."""
        b, q = self.bin, self.quat
        return MixedVector(b[-1:] + b[:-1], q[-1:] + q[:-1])

    def order(self) -> int:
        if self.is_zero:
            return 1
        return 4 if any(c % 2 for c in self.quat) else 2

    def _check_shape(self, other: "MixedVector") -> None:
        if self.alpha != other.alpha or self.beta != other.beta:
            raise DomainError("mixed vectors have different shapes")

    def __str__(self) -> str:
        return ",".join(map(str, self.bin)) + "|" + ",".join(map(str, self.quat))

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

        Bits must be the integers 0 or 1 and quaternary entries 0..3; nothing
        is converted or reduced, so 1.7, true or "3" is a DomainError.
        """
        try:
            alpha, beta = int(obj["alpha"]), int(obj["beta"])
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
                rows.append(MixedVector(_as_bits(bins), _as_quat(quats)))
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


class WordCodec:
    """Bit-plane packing of mixed words for a fixed (alpha, beta)."""

    __slots__ = ("alpha", "beta", "bmask", "qmask", "toff", "hoff", "_psi_pairs")

    def __init__(self, alpha: int, beta: int):
        self.alpha = alpha
        self.beta = beta
        self.bmask = (1 << alpha) - 1
        self.qmask = (1 << beta) - 1
        self.toff = alpha
        self.hoff = alpha + beta
        self._psi_pairs = None

    def pack(self, v: MixedVector) -> int:
        b = sum(bit << i for i, bit in enumerate(v.bin))
        t = sum((c & 1) << i for i, c in enumerate(v.quat))
        h = sum((c >> 1) << i for i, c in enumerate(v.quat))
        return b | (t << self.toff) | (h << self.hoff)

    def unpack(self, w: int) -> MixedVector:
        b = [(w >> i) & 1 for i in range(self.alpha)]
        t = (w >> self.toff) & self.qmask
        h = (w >> self.hoff) & self.qmask
        q = [((t >> i) & 1) + 2 * ((h >> i) & 1) for i in range(self.beta)]
        return MixedVector(tuple(b), tuple(q))

    def add(self, w1: int, w2: int) -> int:
        t1 = (w1 >> self.toff) & self.qmask
        t2 = (w2 >> self.toff) & self.qmask
        return (w1 ^ w2) ^ ((t1 & t2) << self.hoff)

    def neg(self, w: int) -> int:
        t = (w >> self.toff) & self.qmask
        return w ^ (t << self.hoff)

    def scale(self, w: int, c: int) -> int:
        c %= 4
        if c == 0:
            return 0
        if c == 1:
            return w
        t = (w >> self.toff) & self.qmask
        if c == 2:
            return t << self.hoff
        return w ^ (t << self.hoff)

    def double_star(self, w1: int, w2: int) -> int:
        """Packed 2*(w1 star w2); only the quaternary h-plane survives."""
        t1 = (w1 >> self.toff) & self.qmask
        t2 = (w2 >> self.toff) & self.qmask
        return (t1 & t2) << self.hoff

    def tpattern(self, w: int) -> int:
        return (w >> self.toff) & self.qmask

    def shift(self, w: int) -> int:
        a, b = self.alpha, self.beta
        bm, qm = self.bmask, self.qmask
        bpart = w & bm
        t = (w >> self.toff) & qm
        h = (w >> self.hoff) & qm
        if a > 1:
            bpart = ((bpart << 1) | (bpart >> (a - 1))) & bm
        if b > 1:
            t = ((t << 1) | (t >> (b - 1))) & qm
            h = ((h << 1) | (h >> (b - 1))) & qm
        return bpart | (t << self.toff) | (h << self.hoff)

    def ext_gray_bits(self, w: int) -> int:
        """Packed extended-Gray image: [binary block][h-block][t+h-block]."""
        t = (w >> self.toff) & self.qmask
        h = (w >> self.hoff) & self.qmask
        return (w & self.bmask) | (h << self.alpha) | ((t ^ h) << (self.alpha + self.beta))

    def ext_psi_bits(self, w: int) -> int:
        """Packed extended Nechaev-Gray image; beta must be odd."""
        if self._psi_pairs is None:
            if self.beta % 2 == 0:
                raise DomainError("the Nechaev-Gray map needs an odd quaternary block")
            self._psi_pairs = tuple(
                (self.alpha + 2 * i + 1, self.alpha + self.beta + 2 * i + 1)
                for i in range((self.beta - 1) // 2)
            )
        img = self.ext_gray_bits(w)
        for p, q in self._psi_pairs:
            d = ((img >> p) ^ (img >> q)) & 1
            img ^= (d << p) | (d << q)
        return img


def _span_packed(codec: WordCodec, gens: Iterable[int], capacity: int) -> frozenset[int]:
    add = codec.add
    words = {0}
    for g in gens:
        if g in words:
            continue
        orbit = []
        c = g
        while c:
            orbit.append(c)
            c = add(c, g)
        grown = set(words)
        for m in orbit:
            grown.update(add(w, m) for w in words)
        if len(grown) > capacity:
            raise CapacityError(
                f"enumeration exceeds the capacity bound {capacity}; "
                f"raise it via {_CAPACITY_ENV} if intended"
            )
        words = grown
    return frozenset(words)


class Code:
    """An exactly enumerated additive code, stored as packed words."""

    __slots__ = ("alpha", "beta", "words", "codec")

    def __init__(self, alpha: int, beta: int, words: frozenset[int]):
        self.alpha = alpha
        self.beta = beta
        self.words = words
        self.codec = WordCodec(alpha, beta)

    @classmethod
    def from_matrix(cls, matrix: GeneratorMatrix, capacity: int | None = None) -> "Code":
        codec = WordCodec(matrix.alpha, matrix.beta)
        gens = [codec.pack(r) for r in matrix.rows]
        words = _span_packed(codec, gens, resolve_capacity(capacity))
        return cls(matrix.alpha, matrix.beta, words)

    @classmethod
    def from_vectors_span(
        cls, alpha: int, beta: int, vectors: Iterable[MixedVector], capacity: int | None = None
    ) -> "Code":
        codec = WordCodec(alpha, beta)
        gens = [codec.pack(v) for v in vectors]
        return cls(alpha, beta, _span_packed(codec, gens, resolve_capacity(capacity)))

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Code)
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta, self.words))

    def __contains__(self, v: MixedVector) -> bool:
        return self.codec.pack(v) in self.words

    def vectors(self) -> Iterator[MixedVector]:
        unpack = self.codec.unpack
        for w in self.words:
            yield unpack(w)

    def sorted_vectors(self) -> list[MixedVector]:
        """Codewords in the canonical order: binary block lex, then quaternary."""
        return sorted(self.vectors(), key=lambda v: (v.bin, v.quat))

    # -- structural queries -------------------------------------------
    def is_cyclic(self) -> bool:
        shift, words = self.codec.shift, self.words
        return all(shift(w) in words for w in words)

    def cyclic_witness(self) -> tuple[MixedVector, MixedVector] | None:
        """First codeword (canonical order) whose shift leaves the code."""
        for v in self.sorted_vectors():
            s = v.shift()
            if s not in self:
                return v, s
        return None

    def puncture_x(self) -> "Code":
        return Code(self.alpha, 0, frozenset(w & self.codec.bmask for w in self.words))

    def puncture_y(self) -> "Code":
        return Code(0, self.beta, frozenset(w >> self.alpha for w in self.words))

    def is_separable(self) -> bool:
        return len(self.puncture_x()) * len(self.puncture_y()) == len(self)

    def order_two_subcode(self) -> "Code":
        qm, toff = self.codec.qmask, self.codec.toff
        return Code(
            self.alpha, self.beta, frozenset(w for w in self.words if (w >> toff) & qm == 0)
        )


# ----------------------------------------------------------------------
# Gray-image linearity oracles


@dataclass(frozen=True)
class OracleReport:
    linear: bool
    witness: tuple[MixedVector, MixedVector, MixedVector] | None = None


def gray_is_linear_oracle(
    code: Code, matrix: GeneratorMatrix | None = None, mode: str = "exhaustive"
) -> OracleReport:
    """Closure test: the extended Gray image is linear iff 2u*v stays in the code.

    ``exhaustive`` ranges over all codeword pairs (via their quaternary mod-2
    patterns, which determine 2u*v); ``generators`` ranges over pairs of
    order-four rows of the supplied matrix, which suffices because the
    doubled star product is bi-additive in the patterns.
    """
    codec = code.codec
    words = code.words
    hoff = codec.hoff
    if mode == "generators":
        if matrix is None:
            raise DomainError("generator mode needs the generator matrix")
        rows = [r for r in matrix.rows if r.order() == 4]
        packed = [codec.pack(r) for r in rows]
        for i, wi in enumerate(packed):
            ti = codec.tpattern(wi)
            for j in range(i, len(packed)):
                tj = codec.tpattern(packed[j])
                prod = (ti & tj) << hoff
                if prod not in words:
                    return OracleReport(False, (rows[i], rows[j], codec.unpack(prod)))
        return OracleReport(True)
    if mode != "exhaustive":
        raise DomainError(f"unknown oracle mode {mode!r}")
    reps: dict[int, int] = {}
    toff, qmask = codec.toff, codec.qmask
    for w in words:
        t = (w >> toff) & qmask
        if t and (t not in reps or w < reps[t]):
            reps[t] = w
    patterns = sorted(reps)
    for i, s in enumerate(patterns):
        for t in patterns[i:]:
            prod = (s & t) << hoff
            if prod not in words:
                return OracleReport(
                    False,
                    (codec.unpack(reps[s]), codec.unpack(reps[t]), codec.unpack(prod)),
                )
    return OracleReport(True)


def gray_image_is_linear(code: Code) -> bool:
    """Independent check: the Gray image set equals its own GF(2) span."""
    ext = code.codec.ext_gray_bits
    image = {ext(w) for w in code.words}
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


def _row_sub(r, p, c):
    # r -= c * p on (bin list, quat list) pairs
    if c & 1:
        rb, pb = r[0], p[0]
        for j in range(len(rb)):
            rb[j] ^= pb[j]
    rq, pq = r[1], p[1]
    for j in range(len(rq)):
        rq[j] = (rq[j] - c * pq[j]) % 4


def standard_form(matrix: GeneratorMatrix) -> StandardForm:
    """Row-reduce into the block shape with identity blocks and return the
    column permutation that realizes it.

    Unit pivots in the quaternary block are searched from the right so that
    a matrix already in standard shape comes back unchanged with identity
    permutations.
    """
    alpha, beta = matrix.alpha, matrix.beta
    rows = [[list(r.bin), list(r.quat)] for r in matrix.rows]
    used = [False] * len(rows)

    # order-four pivot pass over quaternary columns, right to left
    unit_pivots: list[tuple[int, int]] = []
    for col in range(beta - 1, -1, -1):
        pr = None
        for i, r in enumerate(rows):
            if not used[i] and r[1][col] % 2 == 1:
                pr = i
                break
        if pr is None:
            continue
        used[pr] = True
        if rows[pr][1][col] == 3:
            rows[pr][1] = [(3 * q) % 4 for q in rows[pr][1]]
        for i, r in enumerate(rows):
            if i != pr and r[1][col]:
                _row_sub(r, rows[pr], r[1][col])
        unit_pivots.append((pr, col))
    unit_pivots.reverse()  # ascending pivot columns

    # remaining rows are order two: quaternary entries all even
    rest = [i for i in range(len(rows)) if not used[i]]
    bvecs = [[rows[i][0][:], [q // 2 for q in rows[i][1]]] for i in rest]
    bin_pivots: list[tuple[int, int]] = []
    q2_pivots: list[tuple[int, int]] = []
    assigned = [False] * len(bvecs)

    def _gf2_eliminate(col_block: int, col: int, pivots):
        pr = None
        for i, v in enumerate(bvecs):
            if not assigned[i] and v[col_block][col]:
                pr = i
                break
        if pr is None:
            return
        assigned[pr] = True
        for i, v in enumerate(bvecs):
            if i != pr and v[col_block][col]:
                v[0] = [a ^ b for a, b in zip(v[0], bvecs[pr][0])]
                v[1] = [a ^ b for a, b in zip(v[1], bvecs[pr][1])]
        pivots.append((pr, col))

    for col in range(alpha):
        _gf2_eliminate(0, col, bin_pivots)
    for col in range(beta - 1, -1, -1):
        _gf2_eliminate(1, col, q2_pivots)
    q2_pivots.reverse()

    kappa = len(bin_pivots)
    gamma = kappa + len(q2_pivots)
    delta = len(unit_pivots)

    # column permutations realizing the block layout
    bin_piv_cols = [c for _, c in bin_pivots]
    bin_perm = tuple(bin_piv_cols + [c for c in range(alpha) if c not in bin_piv_cols])
    q2_cols = [c for _, c in q2_pivots]
    unit_cols = [c for _, c in unit_pivots]
    free_cols = [c for c in range(beta) if c not in q2_cols and c not in unit_cols]
    quat_perm = tuple(free_cols + q2_cols + unit_cols)

    def _permuted(bin_list, quat_list):
        return MixedVector(
            tuple(bin_list[c] for c in bin_perm), tuple(quat_list[c] for c in quat_perm)
        )

    out_rows = [[list(bvecs[i][0]), [2 * q for q in bvecs[i][1]]] for i, _ in bin_pivots]
    out_rows += [[list(bvecs[i][0]), [2 * q for q in bvecs[i][1]]] for i, _ in q2_pivots]
    delta_rows = [[rows[i][0][:], rows[i][1][:]] for i, _ in unit_pivots]

    # clear binary pivot columns from the order-four rows, then reduce their
    # entries at the 2-pivot columns into {0, 1}
    for dr in delta_rows:
        for k, (_, col) in enumerate(bin_pivots):
            if dr[0][col]:
                _row_sub(dr, out_rows[k], 1)
        for k, (_, col) in enumerate(q2_pivots):
            e = dr[1][col]
            if e >= 2:
                _row_sub(dr, out_rows[kappa + k], e // 2)
    out_rows += delta_rows

    std = GeneratorMatrix(
        alpha, beta, tuple(_permuted(r[0], r[1]) for r in out_rows)
    )
    ctype = CodeType(alpha, beta, gamma, delta, kappa)
    return StandardForm(std, ctype, bin_perm, quat_perm)

