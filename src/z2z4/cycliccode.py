"""Cyclic additive codes from canonical generator polynomial data.

A cyclic code in Z2^alpha x Z4^beta (beta odd) is generated as a module by
(b | 0) and (ell | f*h + 2f) where b divides x^alpha - 1 over Z2,
f*h*g = x^beta - 1 over Z4, and deg(ell) < deg(b).  Canonical data also
satisfies two divisibility conditions:

    b | (x^beta - 1)/f~ * gcd(b, ell)      and      b | h~ * gcd(b, ell*g~)

(p~ denotes the mod-2 image of p).  Over the UFD GF(2)[x] both hold iff
L | ell, where L1 = b / gcd(b, (x^beta-1)/f~), q = b / gcd(b, h~),
L2 = q / gcd(q, g~) and L = lcm(L1, L2); so ``enumerate_all_cyclic`` lists
the multiples of L and nothing else.  ``violations`` lists the conditions
that fail, and every ``CyclicGenerators`` built by a caller is validated
when constructed.

The Z2 parts b and ell are ``BinPoly`` values (int bit masks), the Z4 parts
``QuatPoly`` values (pairs of bit planes), so a residue word packs into a
codeword straight from their ints.

The pair gcd(b, ell), gcd(b, ell*g~) decides both ell conditions, the type
(``code_type``) and the linearity criterion (``linimage``); a tuple keeps
it as ``ell_gcds``.  L and the pair see (f, h, g) only through how h~ and
g~ split the factors of gcd(x^alpha - 1, x^beta - 1).  A triple is a pair
of masks over the factors of x^beta - 1, so the candidate loop
(``_candidate_runs``) reads that split by AND and builds one row of ell
per (b, split), which every triple of that split shares;
``enumerate_all_cyclic`` and ``linimage.search_by_type`` walk its runs.

The code is a Z4[x]-module under p star (u | v) = (p~ u mod x^alpha - 1 |
p v mod x^beta - 1).  Multiplication by x is the simultaneous cyclic
shift, so a code is spanned by the shifts of its generator words, taken
on packed words.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .additive import Code, CodeType, GeneratorMatrix, WordCodec
from .cyclofield import MAX_DIVISORS, divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4
from .errors import CapacityError, DomainError, InternalError
from .polyring import (
    BinPoly,
    QuatPoly,
    cldivmod,
    clgcd,
    clmod,
    clmul,
    cyclic_reduce,
    gcd2,
    gf2_bezout,
    reduce_mod2,
)

log = logging.getLogger("z2z4")


@dataclass(frozen=True)
class ResidueWord:
    """A pair of residues in Z2[x]/(x^alpha - 1) x Z4[x]/(x^beta - 1)."""

    alpha: int
    beta: int
    bpart: BinPoly
    qpart: QuatPoly

    def __post_init__(self):
        object.__setattr__(self, "bpart", cyclic_reduce(self.bpart, self.alpha))
        object.__setattr__(self, "qpart", cyclic_reduce(self.qpart, self.beta))

    def __str__(self) -> str:
        return f"({self.bpart} | {self.qpart})"


def _b_violations(alpha: int, b: BinPoly) -> list[str]:
    """The condition on b alone: b divides x^alpha - 1."""
    if b.is_zero or not b.divides(BinPoly.xn_minus_1(alpha)):
        return [f"b = {b} does not divide x^{alpha}-1 over Z2"]
    return []


def _splits(beta: int, f: QuatPoly, h: QuatPoly, g: QuatPoly) -> bool:
    return f * h * g == QuatPoly.xn_minus_1(beta)


def _triple_violations(beta: int, f: QuatPoly, h: QuatPoly, g: QuatPoly) -> list[str]:
    """The conditions on (f, h, g) alone: split, monic and coprime."""
    out = []
    if not _splits(beta, f, h, g):
        out.append(f"f*h*g != x^{beta}-1 over Z4")
    for name, p in (("f", f), ("h", h), ("g", g)):
        if not p.is_monic:
            out.append(f"{name} = {p} is not monic")
    ft, ht, gt = reduce_mod2(f), reduce_mod2(h), reduce_mod2(g)
    if not (ft.is_zero or ht.is_zero or gt.is_zero):
        pairs = [("f", ft, "h", ht), ("f", ft, "g", gt), ("h", ht, "g", gt)]
        for n1, p1, n2, p2 in pairs:
            if gcd2(p1, p2) != BinPoly.one():
                out.append(f"mod-2 images of {n1} and {n2} are not coprime")
    return out


def _gcd_violations(b: int, cof: int, ht: int, gbl: int, gblg: int) -> list[str]:
    """The two conditions that depend on ell, on bit masks, given
    gbl = gcd(b, ell) and gblg = gcd(b, ell*g~); cof = (x^beta-1)/f~, or
    any p with gcd(b, p) = gcd(b, cof), and likewise ht for h~."""
    out = []
    if clmod(clmul(cof, gbl), b):
        out.append("b does not divide (x^beta-1)/f~ * gcd(b, ell)")
    if clmod(clmul(ht, gblg), b):
        out.append("b does not divide h~ * gcd(b, ell*g~)")
    return out


def _ell_violations(
    b: BinPoly, ell: BinPoly, cof: BinPoly, ht: BinPoly, gt: BinPoly
) -> list[str]:
    """The two conditions that depend on ell; cof = (x^beta-1)/f~."""
    gbl, gblg = gcd2(b, ell), gcd2(b, ell * gt)
    return _gcd_violations(b.bits, cof.bits, ht.bits, gbl.bits, gblg.bits)


def violations(
    alpha: int, beta: int, b: BinPoly, ell: BinPoly, f: QuatPoly, h: QuatPoly, g: QuatPoly
) -> list[str]:
    """All canonical-form conditions that fail for the given data."""
    out = _b_violations(alpha, b) + _triple_violations(beta, f, h, g)
    if not b.is_zero and _splits(beta, f, h, g):
        ft, ht, gt = reduce_mod2(f), reduce_mod2(h), reduce_mod2(g)
        out.extend(_ell_violations(b, ell, BinPoly.xn_minus_1(beta) // ft, ht, gt))
    return out


def _ell_lattice(b: BinPoly, cof: BinPoly, ht: BinPoly, gt: BinPoly) -> BinPoly:
    """The L with: ``_ell_violations(b, ell, cof, ht, gt)`` is empty iff L | ell.

    L = lcm(L1, L2) with L1 = b / gcd(b, cof), q = b / gcd(b, h~) and
    L2 = q / gcd(q, g~); L divides b.
    """
    bb = b.bits
    l1 = cldivmod(bb, clgcd(bb, cof.bits))[0]
    q = cldivmod(bb, clgcd(bb, ht.bits))[0]
    l2 = cldivmod(q, clgcd(q, gt.bits))[0]
    return BinPoly.from_bits(cldivmod(clmul(l1, l2), clgcd(l1, l2))[0])


def quaternary_generator(f: QuatPoly, h: QuatPoly, n: int) -> QuatPoly:
    """fh + 2f mod x^n - 1, the generator of the quaternary cyclic code
    <fh + 2f>; 2f is the ``lo`` plane of f moved to ``hi``."""
    return cyclic_reduce(f * h + QuatPoly.from_planes(0, f.lo), n)


class _GeneratorFields(NamedTuple):
    alpha: int
    beta: int
    b: BinPoly
    ell: BinPoly
    f: QuatPoly
    h: QuatPoly
    g: QuatPoly
    ell_gcds: tuple[BinPoly, BinPoly]


class CyclicGenerators(_GeneratorFields):
    """Canonical tuple (alpha, beta, b, ell, f, h, g) of a cyclic code.

    An immutable record backed by a tuple whose last entry is ``ell_gcds``,
    the pair (gcd(b, ell), gcd(b, ell*g~)); gcd(b, 0) is b.  Calling the
    class validates the seven fields, reduces ell modulo b and computes the
    pair.  The candidate loop, which has already seen its data valid,
    builds records with ``tuple.__new__(CyclicGenerators, (..., ell_gcds))``
    and hands the tuples of one row the same pair; nothing else should
    (``_make`` and ``_replace`` check nothing either).  Equality and hash
    are the tuple's, and the pair is a function of the seven fields, so
    both kinds of record agree.  Pickling passes the seven fields back
    through the checks; ``repr`` shows the seven fields.
    """

    __slots__ = ()

    def __new__(
        cls, alpha: int, beta: int, b: BinPoly, ell: BinPoly, f: QuatPoly, h: QuatPoly, g: QuatPoly
    ) -> "CyclicGenerators":
        if alpha < 1:
            raise DomainError("alpha must be at least 1")
        if beta < 1 or beta % 2 == 0:
            raise DomainError("beta must be odd")
        if not b.is_zero and ell.degree >= b.degree:
            ell = ell % b
            log.info("reduced ell modulo b to %s", ell)
        errs = violations(alpha, beta, b, ell, f, h, g)
        if errs:
            raise DomainError("; ".join(errs))
        gcds = gcd2(b, ell), gcd2(b, ell * reduce_mod2(g))
        return tuple.__new__(cls, (alpha, beta, b, ell, f, h, g, gcds))

    def __getnewargs__(self) -> tuple:
        return self[:7]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:7], self))
        return f"{type(self).__qualname__}({fields})"

    @property
    def fh_plus_2f(self) -> QuatPoly:
        return quaternary_generator(self.f, self.h, self.beta)

    def generator_words(self) -> tuple[ResidueWord, ResidueWord]:
        return (
            ResidueWord(self.alpha, self.beta, self.b, QuatPoly.zero()),
            ResidueWord(self.alpha, self.beta, self.ell, self.fh_plus_2f),
        )

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "b": list(self.b.coeffs),
            "ell": list(self.ell.coeffs),
            "f": list(self.f.coeffs),
            "h": list(self.h.coeffs),
            "g": list(self.g.coeffs),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CyclicGenerators":
        """Schema: {"alpha": A, "beta": B, "b": ..., "ell": ..., "f": ..., "h": ..., "g": ...}.

        alpha and beta must be integers.  Each polynomial is text such as
        "x^2+x+1" with no exponent above its block length (alpha for b and
        ell, beta for f, h and g) or an ascending coefficient array with
        integer entries in 0..1 (b, ell) or 0..3 (f, h, g); nothing is
        converted or reduced, so 2.9, "a" or a coefficient 7 is a
        DomainError.
        """
        if not isinstance(obj, dict):
            raise DomainError("code JSON must be an object")
        obj = {"ell": [], **obj}
        missing = [k for k in ("alpha", "beta", "b", "f", "h", "g") if k not in obj]
        if missing:
            raise DomainError(f"code JSON is missing the field {missing[0]!r}")
        for name in ("alpha", "beta"):
            if type(obj[name]) is not int:
                raise DomainError(f"code JSON field {name} = {obj[name]!r} is not an integer")
        polys = []
        for name, ring, length in (
            ("b", BinPoly, "alpha"), ("ell", BinPoly, "alpha"),
            ("f", QuatPoly, "beta"), ("h", QuatPoly, "beta"), ("g", QuatPoly, "beta"),
        ):
            try:
                polys.append(ring.parse(obj[name], obj[length]))
            except DomainError as exc:
                raise DomainError(f"code JSON field {name}: {exc}") from None
        return cls(obj["alpha"], obj["beta"], *polys)


def code_type(gens: CyclicGenerators) -> CodeType:
    """Type parameters from polynomial degrees.

    gamma = alpha - deg b + deg h, delta = deg g,
    kappa = alpha - deg gcd(ell*g~, b), and the refinements
    kappa1 = alpha - deg b, kappa2 = deg b - deg gcd(b, ell*g~),
    delta1 = deg gcd(b, ell*g~) - deg gcd(b, ell), delta2 = deg g - delta1.
    """
    db = int(gens.b.degree)
    dh = int(gens.h.degree)
    dg = int(gens.g.degree)
    gbl, gblg = gens.ell_gcds
    d_bl, d_blg = int(gbl.degree), int(gblg.degree)
    return CodeType(
        alpha=gens.alpha,
        beta=gens.beta,
        gamma=gens.alpha - db + dh,
        delta=dg,
        kappa=gens.alpha - d_blg,
        kappa1=gens.alpha - db,
        kappa2=db - d_blg,
        delta1=d_blg - d_bl,
        delta2=dg - (d_blg - d_bl),
    )


def order_two_generators(gens: CyclicGenerators) -> tuple[ResidueWord, ResidueWord]:
    """Generators of the order-two subcode: (b | 0) and (mu~ ell g~ | 2f),
    with mu~ from lam~ h~ + mu~ g~ = 1 over Z2."""
    mu_t = gf2_bezout(gens.h, gens.g)[1]
    left = cyclic_reduce(mu_t * gens.ell * reduce_mod2(gens.g), gens.alpha)
    two_f = cyclic_reduce(QuatPoly((2,)) * gens.f, gens.beta)
    return (
        ResidueWord(gens.alpha, gens.beta, gens.b, QuatPoly.zero()),
        ResidueWord(gens.alpha, gens.beta, left, two_f),
    )


def three_generator_form(
    gens: CyclicGenerators,
) -> tuple[ResidueWord, ResidueWord, ResidueWord]:
    """Equivalent generating triple (b|0), (ell g~ | 2fg), (ell' | fh)
    with ell' = ell - mu~ ell g~."""
    gt = reduce_mod2(gens.g)
    lg = cyclic_reduce(gens.ell * gt, gens.alpha)
    two_fg = cyclic_reduce(QuatPoly((2,)) * gens.f * gens.g, gens.beta)
    mu_t = gf2_bezout(gens.h, gens.g)[1]
    ellp = cyclic_reduce(gens.ell + mu_t * gens.ell * gt, gens.alpha)
    fh = cyclic_reduce(gens.f * gens.h, gens.beta)
    a, b_ = gens.alpha, gens.beta
    return (
        ResidueWord(a, b_, gens.b, QuatPoly.zero()),
        ResidueWord(a, b_, lg, two_fg),
        ResidueWord(a, b_, ellp, fh),
    )


def _packed_shifts(
    codec: WordCodec, words: Iterable[ResidueWord], counts: Iterable[int]
) -> list[int]:
    """x^i star w for i < count, for each word w and its count: each word is
    packed once, from the bits of its residues, and shifted as a packed
    word."""
    rows = []
    for w, count in zip(words, counts):
        rows += codec.shifts(codec.pack_planes(w.bpart.bits, w.qpart.lo, w.qpart.hi), count)
    return rows


def span_words(codec: WordCodec, words: Sequence[ResidueWord], counts: Sequence[int]) -> Code:
    """Enumerated additive span of the given shift families, on ``codec``."""
    return Code.span(codec, _packed_shifts(codec, words, counts))


def realize(gens: CyclicGenerators) -> GeneratorMatrix:
    """Generator matrix made of shifts: alpha of (b|0), beta of (ell|fh+2f)."""
    codec = WordCodec(gens.alpha, gens.beta)
    rows = _packed_shifts(codec, gens.generator_words(), (gens.alpha, gens.beta))
    return GeneratorMatrix(gens.alpha, gens.beta, tuple(map(codec.unpack, rows)))


def enumerate_code(gens: CyclicGenerators) -> Code:
    codec = WordCodec(gens.alpha, gens.beta)
    return span_words(codec, gens.generator_words(), (gens.alpha, gens.beta))


def _factor_subsets(beta: int) -> tuple[list[QuatPoly], list[int], Callable[[int], array]]:
    """The factor subsets of x^beta - 1 over Z4: bit i of a mask is factor i
    of ``factor_xn_minus_1_z4(beta)``.  Returns ``prods[m]``, the product of
    mask m, the masks in the coefficient order of their products, and
    ``g_masks(hm)``, the submasks of the complement of hm in that order,
    sorted on first use and kept for the call at 2 bytes a mask.  The
    factors are checked once, monic with product x^beta - 1: every triple
    partitions the full mask, so this proves f*h*g = x^beta - 1 for each,
    and (x^beta - 1 being squarefree over Z2) coprime images."""
    factors = factor_xn_minus_1_z4(beta)
    if (count := 1 << len(factors)) > MAX_DIVISORS:
        raise CapacityError(f"x^{beta}-1 has {count} factor subsets, past the bound {MAX_DIVISORS}")
    prods = [QuatPoly.one()]
    for fac in factors:
        prods += [p * fac for p in prods]
    if prods[-1] != QuatPoly.xn_minus_1(beta) or not all(p.is_monic for p in factors):
        raise InternalError(f"the factors of x^{beta}-1 are not monic with product x^{beta}-1")
    order = sorted(range(len(prods)), key=lambda m: prods[m].coeffs)
    rank = {m: r for r, m in enumerate(order)}

    @cache
    def g_masks(hm: int) -> array:
        rest = (len(prods) - 1) ^ hm
        gms = [rest]  # every submask of rest, by s -> (s - 1) & rest
        while gms[-1]:
            gms.append((gms[-1] - 1) & rest)
        return array("H", sorted(gms, key=rank.__getitem__))

    return prods, order, g_masks


def factor_triples(beta: int) -> list[tuple[QuatPoly, QuatPoly, QuatPoly]]:
    """Every (f, h, g) that splits the basic irreducible factors of x^beta - 1
    among the three roles, ordered by the coefficients of h then g: the mask
    walk of ``enumerate_all_cyclic``, sharing its subset products."""
    prods, order, g_masks = _factor_subsets(beta)
    full = len(prods) - 1
    return [(prods[full ^ hm ^ gm], prods[hm], prods[gm]) for hm in order for gm in g_masks(hm)]


# a row of ell: each with its ell_gcds (gcd(b, ell), gcd(b, ell*g~))
_Row = list[tuple[BinPoly, tuple[BinPoly, BinPoly]]]


def _ell_row(
    b: BinPoly, hs: int, gs: int, pairs: dict[tuple[int, int], tuple[BinPoly, BinPoly]]
) -> _Row:
    """The ell of every triple whose signature is (hs, gs), with b: the
    multiples of L = ``_ell_lattice(b, hs*gs, hs, gs)`` sorted by bit
    string, each with the ``ell_gcds`` pair (gcd(b, ell), gcd(b, ell*gs)).

    ``pairs`` maps the gcd pairs of one b, as bit masks, to the ell_gcds
    its tuples share.  Each entry passes the guard on the pair, and the
    row checks deg ell < deg b once, on its last entry.
    """
    bb, db = b.bits, int(b.degree)
    cof = clmul(hs, gs)
    step = _ell_lattice(b, *map(BinPoly.from_bits, (cof, hs, gs)))
    row = []
    for e in sorted(clmul(m, step.bits) for m in range(1 << (db - int(step.degree)))):
        gbl, gblg = clgcd(bb, e), clgcd(bb, clmul(e, gs))
        if errs := _gcd_violations(bb, cof, hs, gbl, gblg):
            raise InternalError(f"ell = {BinPoly.from_bits(e)} fails: {'; '.join(errs)}")
        gcds = pairs.get((gbl, gblg))
        if gcds is None:
            gcds = pairs[gbl, gblg] = (BinPoly.from_bits(gbl), BinPoly.from_bits(gblg))
        row.append((BinPoly.from_bits(e), gcds))
    if row[-1][0].bits.bit_length() > db:
        raise InternalError(f"ell = {row[-1][0]} is not reduced modulo b = {b}")
    return row


def _candidate_runs(
    alpha: int, beta: int, capacity: int | None
) -> Iterator[tuple[BinPoly, QuatPoly, QuatPoly, QuatPoly, _Row]]:
    """The candidate loop: ``(b, f, h, g, row)`` for each b and triple, in
    the order of ``enumerate_all_cyclic``, where ``row`` lists the valid ell
    of (b, f, h, g) with their ``ell_gcds``, as ``_ell_row`` gives them.
    The row is shared: every triple of one signature gets the same list.

    Each piece of work is done once per call, at the level its result
    varies on: the lengths (beta odd here, beta positive where x^beta - 1
    is factored, alpha where x^alpha - 1 is built), the factors (a triple
    is a pair of masks (hm, gm) of ``_factor_subsets``, f the rest, with
    (x^beta-1)/f~ = h~ g~ and its code size read off the subset degrees)
    and b, once per b.

    The ell conditions see a triple only through its signature
    (hs, gs) = (gcd(h~, S), gcd(g~, S)), S = gcd(x^alpha - 1, x^beta - 1):
    b divides x^alpha - 1 and x^beta - 1 is squarefree, so
    gcd(b, p) = gcd(b, gcd(p, S)) for every p dividing x^beta - 1, and
    gcd(b, e*g~) = gcd(b, e*gs).  S is the product of the factors in the
    mask sm of those dividing x^alpha - 1, so (hs, gs) is the product of
    hm & sm and of gm & sm, with no gcd.  Within one b, ``_ell_row`` lists
    the multiples of L once per signature, each with its ``ell_gcds`` and
    the two ell conditions checked from it as a guard.  A (b, f, h, g)
    whose code has more than ``capacity`` words raises CapacityError before
    its run; None sets no bound.
    """
    if beta % 2 == 0:
        raise DomainError("beta must be odd")
    prods, order, g_masks = _factor_subsets(beta)  # beta's length errors come first
    xa = BinPoly.xn_minus_1(alpha).bits
    full = len(prods) - 1
    k = full.bit_length()
    deg = [int(p.degree) for p in prods]
    sm = sum(1 << i for i in range(k) if clmod(xa, prods[1 << i].lo) == 0)
    for b in divisors_of_xn_minus_1_z2(alpha):
        if errs := _b_violations(alpha, b):
            raise InternalError("; ".join(errs))
        free = alpha - int(b.degree)
        # the signature hs | gs << k -> the row of ell it yields
        rows: dict[int, _Row] = {}
        # the gcd pairs of one b, as bit masks -> the ell_gcds its tuples share
        pairs: dict[tuple[int, int], tuple[BinPoly, BinPoly]] = {}
        for hm in order:
            h, hs = prods[hm], hm & sm
            for gm in g_masks(hm):
                if capacity is not None and (size := 1 << (free + 2 * deg[gm] + deg[hm])) > capacity:
                    raise CapacityError(f"candidate code size {size} exceeds the bound {capacity}")
                gs = gm & sm
                row = rows.get(hs | gs << k)
                if row is None:
                    row = rows[hs | gs << k] = _ell_row(b, prods[hs].lo, prods[gs].lo, pairs)
                yield b, prods[full ^ hm ^ gm], h, prods[gm], row


def enumerate_all_cyclic(
    alpha: int, beta: int, capacity: int | None = None
) -> Iterator[CyclicGenerators]:
    """All valid canonical tuples for the given block lengths, in a fixed order.

    b runs over divisors of x^alpha - 1 by (degree, coefficients); (f, h, g)
    over ``factor_triples(beta)``; ell over residues mod b by the integer
    value of its bit string.  Only the ell that satisfy both divisibility
    conditions are listed: they are the multiples m*L, deg m < deg b - deg L,
    of L = lcm(L1, L2), where L1 = b / gcd(b, (x^beta-1)/f~),
    q = b / gcd(b, h~) and L2 = q / gcd(q, g~) (``_ell_lattice``).

    This flattens the runs of ``_candidate_runs``, the package's one
    candidate loop: each tuple is built straight from its row entry, with
    no second check, and carries the row's shared ``ell_gcds``.  A
    (b, f, h, g) whose code has more than ``capacity`` words raises
    CapacityError before its first tuple; None sets no bound.
    """
    new = tuple.__new__
    for b, f, h, g, row in _candidate_runs(alpha, beta, capacity):
        for ell, gcds in row:
            yield new(CyclicGenerators, (alpha, beta, b, ell, f, h, g, gcds))
