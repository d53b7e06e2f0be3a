"""Linearity of Gray images and the double-cyclic structure of
Nechaev-Gray images.

For a quaternary cyclic code <f*h + 2f> of odd length n with
f*h*g = x^n - 1, the Gray image is linear iff gcd(f~, g~ (x) g~) = 1,
where (x) denotes the root-product polynomial (``tensor_square``).  For a
mixed cyclic code <(b|0), (ell | fh+2f)> the criterion becomes

    gcd( f~ * b / gcd(b, ell*g~),  g~ (x) g~ ) = 1.

The quotient b / gcd(b, ell*g~) comes from ``cycliccode._criterion_quotient``,
and only ``gray_linear_criterion`` wraps the gcd in a ``LinearityReport``;
``psi_image_generators`` and ``wolfmann_linear`` (quotient 1) take it bare.

When the criterion holds, the Nechaev-Gray image is a binary double-cyclic
code generated by (b | 0) and (ell' | f~^2 h~) with ell' = p~ ell mod b for
any p solving p * (fh + 2f) = T := psi^{-1}(f~^2 h~).  Every solution gives
the same ell', so ``psi_image_generators`` solves for no p: it reads ell'
off T through the residue code <f~h~> and the torsion code <f~> of
<fh + 2f>, in two Z4 products on bit planes (``polyring.z4mul``), psi^{-1}
of one packed word (``additive.psi_inv_word``) and a few GF(2)
operations, with no polynomial object or codec built on the way.
``solve_cyclic_z4_lexmin``, which
finds the lexicographically smallest p, is the differential oracle of
that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Collection

from .additive import (
    Code,
    PlaneShift,
    WordCodec,
    _coset_words,
    _gf2_basis,
    _gf2_reduce,
    gray_is_linear_oracle,
    psi_inv_word,
)
from .cyclofield import tensor_square
from .cycliccode import CyclicGenerators, _candidate_runs, _criterion_quotient, quaternary_generator
from .errors import DomainError, InternalError, PreconditionError
from .polyring import (
    BinPoly,
    QuatPoly,
    _clfold,
    cldivmod,
    clgcd,
    clmod,
    clmul,
    clxgcd,
    cyclic_reduce,
    gf2_bezout,
    lift_to_quat,
    reduce_mod2,
    z4mul,
)

# ``z4_gray_linear_oracle`` runs the exhaustive closure on codes of at most
# this many words and the generators closure on bigger ones.
ORACLE_ENUM_LIMIT = 1 << 18


@dataclass(frozen=True)
class LinearityReport:
    """Outcome of the gcd criterion, with the polynomials that decide it."""

    criterion_poly_a: BinPoly
    tensor_poly: BinPoly
    gcd_value: BinPoly
    verdict: bool

    def to_json(self) -> dict:
        return {
            "criterion_poly_a": list(self.criterion_poly_a.coeffs),
            "tensor_poly": list(self.tensor_poly.coeffs),
            "gcd": list(self.gcd_value.coeffs),
            "linear": self.verdict,
        }


def _check_z4_triple(f: QuatPoly, h: QuatPoly, g: QuatPoly, n: int) -> None:
    """The input check of the quaternary cyclic code <fh + 2f> of length n."""
    if n < 1 or n % 2 == 0:
        raise DomainError("length must be odd")
    if f * h * g != QuatPoly.xn_minus_1(n):
        raise DomainError(f"f*h*g != x^{n}-1 over Z4")


def wolfmann_linear(f: QuatPoly, h: QuatPoly, g: QuatPoly, n: int) -> bool:
    """Gray-image linearity of <fh + 2f>: gcd(f~, g~ (x) g~) = 1, the criterion with quotient 1."""
    _check_z4_triple(f, h, g, n)
    return clgcd(f.lo, tensor_square(reduce_mod2(g), n).bits) == 1


def _criterion(ft: int, quot: int, tensor: BinPoly) -> LinearityReport:
    """gcd(f~ * quot, tensor) = 1 on the int kernels, with the bit masks ft
    of f~ and quot of b / gcd(b, ell*g~); tensor is g~ (x) g~."""
    a = clmul(ft, quot)
    gcd_val = clgcd(a, tensor.bits)
    return LinearityReport(BinPoly.from_bits(a), tensor, BinPoly.from_bits(gcd_val), gcd_val == 1)


def gray_linear_criterion(gens: CyclicGenerators) -> LinearityReport:
    """The gcd criterion for the extended Gray image of a mixed cyclic code."""
    tensor = tensor_square(reduce_mod2(gens.g), gens.beta)
    return _criterion(gens.f.lo, _criterion_quotient(gens.b.bits, gens.ell_gcds[1].bits), tensor)


def family_g_subgroup(gens: CyclicGenerators) -> bool:
    """Whether g = 1 or g = x^s - 1 for a divisor s of beta.

    The roots of such a g~ form a multiplicative subgroup, so the
    root-product polynomial is g~ itself and the criterion holds.
    """
    gt = reduce_mod2(gens.g)
    if gt == BinPoly.one():
        return True
    return any(
        gt == BinPoly.xn_minus_1(s)
        for s in range(1, gens.beta + 1)
        if gens.beta % s == 0
    )


# ----------------------------------------------------------------------
# binary codes with a two-block cyclic structure


class BinaryBlockCode:
    """A set of binary words of length r + s, packed little-endian into ints.

    The set is kept as the union of the cosets rep ^ span(basis) over
    ``reps``, which lie in distinct cosets, and the independent vectors
    ``basis``; ``BinaryBlockCode(r, s, words)`` is the word set itself,
    with an empty basis.  It has ``len(reps) << len(basis)`` words, and is
    linear iff its GF(2) span is no larger, that is iff
    ``2^rank(reps + basis)`` equals that size.  A linear set answers
    membership, equality and the double-cyclic test by reducing vectors
    by its span's basis; the word set ``words`` is built only on first
    access.
    """

    def __init__(self, r: int, s: int, reps: Collection[int], basis: Collection[int] = ()):
        self.r = r
        self.s = s
        self.reps = reps
        self.basis = basis

    @cached_property
    def words(self) -> frozenset[int]:
        """Every word, built coset by coset on first access."""
        return _coset_words(self.reps, self.basis)

    @cached_property
    def linear_basis(self) -> dict[int, int] | None:
        """A GF(2) basis of the set, keyed by leading bit, if the set is
        linear, else None."""
        span = _gf2_basis(chain(self.reps, self.basis))
        return span if 1 << len(span) == len(self) else None

    def __len__(self) -> int:
        return len(self.reps) << len(self.basis)

    def __eq__(self, other) -> bool:
        """Equal shapes and word sets.  Two linear sets of one size are equal
        iff the basis of one reduces to 0 by the other's; a linear set never
        equals a nonlinear one; two nonlinear sets compare their words."""
        if not (
            isinstance(other, BinaryBlockCode)
            and (self.r, self.s, len(self)) == (other.r, other.s, len(other))
        ):
            return False
        mine, theirs = self.linear_basis, other.linear_basis
        if mine is None and theirs is None:
            return self.words == other.words
        if mine is None or theirs is None:
            return False
        return not any(_gf2_reduce(mine, v) for v in theirs.values())

    def __hash__(self) -> int:
        return hash((self.r, self.s, len(self)))

    def to_tuples(self) -> list[tuple[int, ...]]:
        n = self.r + self.s
        return sorted(tuple((w >> i) & 1 for i in range(n)) for w in self.words)


def ext_psi_image(code: Code) -> BinaryBlockCode:
    """The extended Nechaev-Gray image; beta must be odd.  The map is
    injective and XOR-linear on packed words, so the image is kept as the
    images of the code's coset representatives and of its C_2 basis."""
    psi = code.codec.psi_words
    return BinaryBlockCode(code.alpha, 2 * code.beta, psi(code.reps), psi(code.basis.values()))


def is_double_cyclic(bc: BinaryBlockCode) -> bool:
    """Closure under the simultaneous cyclic shift of both coordinate blocks.

    A linear set is closed iff the shifts of its basis reduce to 0 by that
    basis; a nonlinear set shifts every word.
    """
    shift = PlaneShift(bc.r, bc.s)
    span = bc.linear_basis
    if span is None:
        return bc.words.issuperset(shift(bc.words))
    return not any(_gf2_reduce(span, v) for v in shift(span.values()))


@dataclass(frozen=True)
class DoubleCyclicGenerators:
    """Generators (b | 0), (ellp | a) of a binary double-cyclic code."""

    r: int
    s: int
    b: BinPoly
    ellp: BinPoly
    a: BinPoly

    def __post_init__(self):
        if not self.a.divides(BinPoly.xn_minus_1(self.s)) and not self.a.is_zero:
            raise DomainError(f"a = {self.a} does not divide x^{self.s}-1")
        if self.b.is_zero or not self.b.divides(BinPoly.xn_minus_1(self.r)):
            raise DomainError(f"b = {self.b} does not divide x^{self.r}-1")
        if self.ellp.degree >= self.b.degree:
            raise DomainError("deg(ellp) must be smaller than deg(b)")

    @classmethod
    def _trusted(
        cls, r: int, s: int, b: BinPoly, ellp: BinPoly, a: BinPoly
    ) -> "DoubleCyclicGenerators":
        """Build from data that the caller knows passes ``__post_init__``."""
        dcg = object.__new__(cls)
        dcg.__dict__.update(r=r, s=s, b=b, ellp=ellp, a=a)
        return dcg

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "b": list(self.b.coeffs),
            "ellp": list(self.ellp.coeffs),
            "a": list(self.a.coeffs),
        }


def double_cyclic_span(dcg: DoubleCyclicGenerators) -> BinaryBlockCode:
    """GF(2) span of all simultaneous shifts of the two generators.

    The span engine builds it as a binary code of length r + s, whose
    coset representatives check the bound on its size before any word of
    it is built.
    """
    r, s = dcg.r, dcg.s
    orbit, count = PlaneShift(r, s).orbit, lcm(r, s)
    b_rows = orbit(cyclic_reduce(dcg.b, r).bits, count)
    e_rows = orbit(cyclic_reduce(dcg.ellp, r).bits | cyclic_reduce(dcg.a, s).bits << r, count)
    shifts = [w for pair in zip(b_rows, e_rows) for w in pair]
    span = Code.span(WordCodec(r + s, 0), shifts)
    return BinaryBlockCode(r, s, span.reps, list(span.basis.values()))


# ----------------------------------------------------------------------
# solving p * (fh + 2f) = target in Z4[x]/(x^n - 1)


def _howell_reduce(
    v: QuatPoly, unit: QuatPoly, two: QuatPoly, k: int, m: int
) -> tuple[QuatPoly, QuatPoly, QuatPoly]:
    """Reduce v greedily from column 0 by the Howell basis of <unit, 2*two>:
    the rows x^i * c*unit for i < k, with c = unit(0) so that their pivots
    are 1, and the rows 2x^j * two for k <= j < k + m.  ``unit`` has degree
    n - k and ``two`` degree n - k - m, so no row wraps round.

    Returns the rest r and the multipliers (A, B), with
    v = r + A*unit + 2B*two and B a 0/1 vector.
    """
    lo, hi = v.lo, v.hi
    u_lo, u_hi = unit.lo, unit.hi
    neg = u_hi & 1  # c = 3: the pivot row is -unit
    if neg:
        u_hi ^= u_lo
    a_lo = a_hi = 0
    for i in range(k):  # v -= e * x^i piv for the entry e of v at column i
        bit = 1 << i
        if lo & bit:  # e = 1 or 3: add -piv or piv
            a_lo |= bit
            p_lo, p_hi = u_lo << i, u_hi << i
            if hi & bit:
                a_hi |= bit
            else:
                p_hi ^= p_lo
            hi ^= p_hi ^ (lo & p_lo)
            lo ^= p_lo
        elif hi & bit:  # e = 2: add 2 * piv = (0, piv.lo)
            a_hi |= bit
            hi ^= u_lo << i
    b = 0
    two_lo = two.lo
    for j in range(k, k + m):
        bit = 1 << j
        if hi & bit:  # 2 -> 0, 3 -> 1
            hi ^= two_lo << j
            b |= bit
    a = QuatPoly.from_planes(a_lo, a_hi ^ a_lo if neg else a_hi)
    return QuatPoly.from_planes(lo, hi), a, QuatPoly.from_planes(b, 0)


def solve_cyclic_z4_lexmin(
    f: QuatPoly, h: QuatPoly, g: QuatPoly, target: QuatPoly, n: int
) -> QuatPoly | None:
    """The p with p * (fh + 2f) = target whose coefficient vector is
    smallest, or None; f*h*g = x^n - 1 with pairwise coprime mod-2 images.
    ``target`` is reduced mod x^n - 1, and so is the returned p.

    Nothing in the package calls it: it is the differential oracle of the
    closed form in ``psi_image_generators``, which gives the same ell'
    without any p.  It stays here rather than among the test oracles only
    because the benchmark's per-layer tracing wraps it by name.

    Vectors compare lexicographically from p_0.  The code <fh + 2f> is
    <fh + 2f, 2f>, and its annihilator is <gh, 2g> (Pless and Qian, IEEE
    Trans. IT 42, 1996).  (f, h, g) give a Howell basis of each:

    - the code: x^i * (fh + 2f) for i < deg g, and 2x^j * f for
      deg g <= j < deg g + deg h;
    - the annihilator: x^i * gh for i < deg f, and 2x^j * g for
      deg f <= j < deg f + deg h.

    Row x^i * (fh + 2f), times its constant term (a unit), has its lowest
    entry 1 at column i; row 2x^j * f has its lowest entry 2 at column j.
    For every column j, the rows from column j on span every element that
    vanishes before j: an element of the code that vanishes on the first
    deg g columns is 0 mod 2, since the unit rows mod 2 are an echelon
    basis of <f~h~>, so it is 2u with u~ in <f~>, and the x^j f~ for
    j < deg g + deg h are an echelon basis of <f~>.  The annihilator's
    basis is the same with f and g swapped and the 2f term dropped.  So:

    1. Reducing the target greedily from column 0 by the code's basis
       writes it as A*(fh + 2f) + 2B*f, or leaves a rest, and then there
       is no p.
    2. With lam~ h~ + mu~ g~ = 1 over Z2 (lifted as 0/1 vectors), the
       vector P2 = g*mu~ + 2*lam~ has P2 * (fh + 2f) = 2f, since fgh = 0
       and g*mu~ + h*lam~ is odd; so p0 = A + B * P2 is one solution.
    3. The solutions are p0 + Ann.  Reducing p0 greedily from column 0 by
       the annihilator's basis takes each column to the smallest value
       the solutions allow, given the columns before it: 0 at a unit
       pivot, 0 or 1 at a pivot of 2.  That is the lexicographic minimum.

    Each step is one ``QuatPoly`` sum or product reduced mod x^n - 1, or
    one column of a reduction on the ``lo`` and ``hi`` planes, and there
    are O(n) of them.  ``tests/z4_oracles.howell_lexmin``, the generic
    Howell echelon of the rows (x^i gen | e_i) over 2n columns, is the
    differential oracle.

    The reductions stay apart from ``additive._unit_echelon``, the echelon
    behind the span engine and the standard form.  The lexicographic
    minimum needs pivots taken by column from p_0 upwards, with pivots of
    2 among the unit pivots; the unit-pivot echelon of the t plane gives
    another form.  Over the columns (c0, c1) the code <(2, 1)> gets a unit
    pivot at c1 from that echelon, while a pass from c0 meets its leading
    2 first.  A kernel shared by both would have to branch on its caller.
    """
    df, dh, dg = (len(p) - 1 for p in (f, h, g))
    lam, mu = gf2_bezout(h, g)
    f, h, g = (cyclic_reduce(p, n) for p in (f, h, g))
    gen = quaternary_generator(f, h, n)
    rest, a, b = _howell_reduce(target, gen, f, dg, dh)
    if rest:
        return None
    p2 = cyclic_reduce(lift_to_quat(mu) * g, n) + QuatPoly.from_planes(0, lam.bits)
    p0 = a + cyclic_reduce(b * p2, n)
    p, _, _ = _howell_reduce(p0, cyclic_reduce(g * h, n), g, df, dh)
    if cyclic_reduce(p * gen, n) != target:
        raise InternalError("the Howell-basis solution does not solve p * (fh + 2f) = target")
    return p


# ----------------------------------------------------------------------
# Nechaev-Gray image generators


def psi_image_generators(gens: CyclicGenerators) -> DoubleCyclicGenerators:
    """Generators of the Nechaev-Gray image when the gcd criterion holds.

    Returns (b | 0) and (ell' | f~^2 h~) over blocks (alpha, 2*beta), with
    ell' = p~ * ell mod b for any p solving p * (fh + 2f) = T in
    Z4[x]/(x^beta - 1), T = psi^{-1}(f~^2 h~), f~^2 = f~(x^2).

    The query runs on int bit planes from its inputs to the two
    polynomials it returns, and builds no QuatPoly and no WordCodec.  The
    planes of fh come from ``polyring.z4mul`` once; the ``lo`` plane is
    f~h~.  Over Z2, f~(x^2) = f~(x)^2, so f~^2 h~ = f~ * f~h~, folded mod
    x^(2 beta) - 1.  Its preimage T is one packed word, taken by
    ``additive.psi_inv_word`` from the masks of the shape (0, beta); the
    two halves of that word are the planes of T.  ell' is read off T
    without solving for p, on the int kernels, with d2 = gcd(b, ell*g~)
    and q = b / d2, divided once:

    1. A~ = T~ / (f~ h~), which must leave no remainder;
    2. 2U = T - A~ * (fh + 2f), whose ``hi`` plane U~ must be a multiple
       of f~.  With no remainder deg A~ < beta - deg(fh), since
       deg T~ < beta, so A~ * (fh + 2f) needs no reduction mod x^beta - 1;
       its ``lo`` plane is T~, and U~ = T.hi ^ hi(A~ * fh) ^ A~ f~, with
       hi(A~ * fh) the ``hi`` plane of ``z4mul`` on the 0/1 vector A~
       (``hi`` = 0) and the planes of fh.  Steps 1 and 2 are the
       membership test T in <fh + 2f>: the code has residue code <f~h~>
       and torsion code <f~> (Pless and Qian, IEEE Trans. IT 42, 1996), so
       it holds T iff both pass;
    3. z = U~ (f~ g~)^{-1} mod q, or 0 when q = 1.  The ell conditions give
       b | h~ d2, so q divides h~ and f~ g~ is a unit mod q;
    4. ell' = (A~ + g~ z) * ell mod b.

    Every solution p has p~ f~h~ = T~, so p~ = A~ + g~ y; and reducing
    p * (fh + 2f) = T mod h gives p~ f~ = A~ f~ + U~ mod h~, so
    y f~ g~ = U~ mod h~ and y = z mod q.  Then p~ - (A~ + g~ z) is a
    multiple of g~ q, and b = q d2 divides g~ q ell.  So every solution
    gives this ell'; ``solve_cyclic_z4_lexmin`` is its differential oracle.
    The verdict is the gcd that ``_criterion`` takes, on q, and no
    ``LinearityReport`` is built.
    """
    beta = gens.beta
    f, h = gens.f, gens.h
    ft, gt = f.lo, gens.g.lo
    q = _criterion_quotient(gens.b.bits, gens.ell_gcds[1].bits)
    if clgcd(clmul(ft, q), tensor_square(reduce_mod2(gens.g), beta).bits) != 1:
        raise PreconditionError(
            "the Gray image is not linear; the Nechaev-Gray image has no "
            "double-cyclic generator pair"
        )
    fht, fh_hi = z4mul(ft, f.hi, h.lo, h.hi)  # the lo plane of fh is f~h~
    a = _clfold(clmul(ft, fht), 2 * beta)  # f~^2 = f~(x^2) over Z2, so f~^2 h~ = f~ * f~h~
    word = psi_inv_word(a, 0, beta)
    at, rest = cldivmod(word & ((1 << beta) - 1), fht)
    u = word >> beta ^ z4mul(at, 0, fht, fh_hi)[1] ^ clmul(at, ft)
    if rest or clmod(u, ft):
        raise InternalError("psi preimage of f~^2 h~ is not in the quaternary code")
    z = 0
    if q != 1:
        inv = clxgcd(clmod(clmul(ft, gt), q), q)[1]
        z = clmod(clmul(clmod(u, q), inv), q)
    # b | x^alpha - 1, a = f~^2 h~ | (x^beta - 1)^2 and deg ellp < deg b: no validation
    ellp = BinPoly.from_bits(clmod(clmul(at ^ clmul(gt, z), gens.ell.bits), gens.b.bits))
    return DoubleCyclicGenerators._trusted(gens.alpha, 2 * beta, gens.b, ellp, BinPoly.from_bits(a))


# ----------------------------------------------------------------------
# quaternary-only oracle


def _z4_code(f: QuatPoly, h: QuatPoly, n: int) -> Code:
    """The quaternary cyclic code <fh + 2f> of length n, spanned by the
    shifts of its generator."""
    codec = WordCodec(0, n)
    gen = quaternary_generator(f, h, n)
    word = codec.pack_planes(0, gen.lo, gen.hi)
    return Code.span(codec, codec.shifts(word, n))


def z4_gray_linear_oracle(f: QuatPoly, h: QuatPoly, g: QuatPoly, n: int) -> bool:
    """Closure verdict for the quaternary cyclic code <fh + 2f>: the
    ``exhaustive`` closure up to ``ORACLE_ENUM_LIMIT`` words, the
    ``generators`` closure above it."""
    _check_z4_triple(f, h, g, n)
    code = _z4_code(f, h, n)
    mode = "exhaustive" if code.size <= ORACLE_ENUM_LIMIT else "generators"
    return gray_is_linear_oracle(code, mode).linear


# ----------------------------------------------------------------------
# search


def search_by_type(
    alpha: int,
    beta: int,
    gamma: int | None = None,
    delta: int | None = None,
    kappa: int | None = None,
    linear_only: bool = False,
) -> list[tuple[CyclicGenerators, LinearityReport]]:
    """Every valid cyclic code of the requested type, with its criterion report.

    ``None`` acts as a wildcard; results keep the deterministic order of
    ``enumerate_all_cyclic``.  No code is enumerated, so no capacity bound
    applies.  The search walks the candidate loop one run at a time: a run
    is one (b, f, h, g) with its shared row of ell, each ell with its
    ``ell_gcds`` and the quotient b / gcd(b, ell*g~), divided exactly once
    per entry where the row is built (``cycliccode._candidate_runs``).

    The type filters are decided where their inputs vary: gamma =
    alpha - deg b + deg h and delta = deg g once per run, kappa =
    alpha - deg gcd(b, ell*g~) once per row entry, from its pair.  A report
    depends only on f~, the tensor g~ (x) g~ and the entry's quotient, since
    its criterion polynomial is f~ times that quotient; reports are kept in
    a dict keyed by those three, for this call only, so each is evaluated
    once per call.  The tensor is taken once per distinct g~, from a dict
    keyed by g~ that is also kept for this call only.  Each record is built
    straight from its row entry, as the candidate loop builds it.
    """
    # the bit length of gcd(b, ell*g~) that kappa asks for, if any
    kappa_len = None if kappa is None else alpha - kappa + 1
    analyzed = []
    # g~ -> g~ (x) g~, and (f~, g~ (x) g~, b / gcd(b, ell*g~)) -> the
    # report, as bit masks
    tensors: dict[int, BinPoly] = {}
    shared: dict[tuple[int, int, int], LinearityReport] = {}
    new = tuple.__new__
    for b, f, h, g, row in _candidate_runs(alpha, beta):
        if gamma is not None and alpha - int(b.degree) + int(h.degree) != gamma:
            continue
        if delta is not None and int(g.degree) != delta:
            continue
        tensor = tensors.get(g.lo)
        if tensor is None:
            tensor = tensors[g.lo] = tensor_square(reduce_mod2(g), beta)
        ft, tb = f.lo, tensor.bits
        for ell, gcds, quot in row:
            if kappa_len is not None and gcds[1].bits.bit_length() != kappa_len:
                continue
            rep = shared.get((ft, tb, quot))
            if rep is None:
                rep = shared[ft, tb, quot] = _criterion(ft, quot, tensor)
            if rep.verdict or not linear_only:
                analyzed.append((new(CyclicGenerators, (alpha, beta, b, ell, f, h, g, gcds)), rep))
    return analyzed
