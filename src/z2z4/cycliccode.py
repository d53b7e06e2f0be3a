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
it as ``ell_gcds``.  L and the pair see (f, h, g) only through its
signature, how h~ and g~ split the factors of gcd(x^alpha - 1, x^beta - 1);
so ``enumerate_all_cyclic`` builds one row of ell per (b, signature), each
ell with its pair computed on the int kernels and the conditions checked
from it, and every triple of that signature shares the row.

The code is a Z4[x]-module under p star (u | v) = (p~ u mod x^alpha - 1 |
p v mod x^beta - 1).  Multiplication by x is the simultaneous cyclic
shift, so a code is spanned by the shifts of its generator words, taken
on packed words.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

from .additive import Code, CodeType, GeneratorMatrix, WordCodec
from .cyclofield import divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4
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


@dataclass(frozen=True)
class CyclicGenerators:
    """Canonical tuple (alpha, beta, b, ell, f, h, g) of a cyclic code."""

    alpha: int
    beta: int
    b: BinPoly
    ell: BinPoly
    f: QuatPoly
    h: QuatPoly
    g: QuatPoly

    def __post_init__(self):
        if self.alpha < 1:
            raise DomainError("alpha must be at least 1")
        if self.beta < 1 or self.beta % 2 == 0:
            raise DomainError("beta must be odd")
        if not self.b.is_zero and self.ell.degree >= self.b.degree:
            object.__setattr__(self, "ell", self.ell % self.b)
            log.info("reduced ell modulo b to %s", self.ell)
        errs = violations(self.alpha, self.beta, self.b, self.ell, self.f, self.h, self.g)
        if errs:
            raise DomainError("; ".join(errs))

    @classmethod
    def _trusted(
        cls, alpha: int, beta: int, b: BinPoly, ell: BinPoly, f: QuatPoly, h: QuatPoly, g: QuatPoly,
        ell_gcds: tuple[BinPoly, BinPoly],
    ) -> "CyclicGenerators":
        """Build from data whose ``violations`` the caller has already seen
        empty, whose lengths it has checked and with deg ell < deg b;
        ``ell_gcds`` seeds the property of that name."""
        gens = object.__new__(cls)
        # field by field, in the order of the dataclass __init__: touching
        # __dict__ would give every instance a full dict of its own
        setattr_ = object.__setattr__
        setattr_(gens, "alpha", alpha)
        setattr_(gens, "beta", beta)
        setattr_(gens, "b", b)
        setattr_(gens, "ell", ell)
        setattr_(gens, "f", f)
        setattr_(gens, "h", h)
        setattr_(gens, "g", g)
        setattr_(gens, "ell_gcds", ell_gcds)
        return gens

    # -- derived data ---------------------------------------------------
    @cached_property
    def ell_gcds(self) -> tuple[BinPoly, BinPoly]:
        """(gcd(b, ell), gcd(b, ell*g~)); gcd(b, 0) is b."""
        return gcd2(self.b, self.ell), gcd2(self.b, self.ell * reduce_mod2(self.g))

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


def factor_triples(beta: int) -> list[tuple[QuatPoly, QuatPoly, QuatPoly]]:
    """Every (f, h, g) that splits the basic irreducible factors of x^beta - 1
    among the three roles, ordered by the coefficients of h then g.  A factor
    subset is a bit mask m whose product ``prods[m]`` is built once and shared;
    distinct masks have distinct products, so one sort orders h and each g."""
    prods = [QuatPoly.one()]
    for fac in factor_xn_minus_1_z4(beta):
        prods += [p * fac for p in prods]
    order = sorted(range(len(prods)), key=lambda m: prods[m].coeffs)
    rank = {m: r for r, m in enumerate(order)}
    triples = []
    for hm in order:
        rest = (len(prods) - 1) ^ hm
        gms = [rest]  # every submask of rest, by s -> (s - 1) & rest
        while gms[-1]:
            gms.append((gms[-1] - 1) & rest)
        triples += [(prods[rest ^ gm], prods[hm], prods[gm]) for gm in sorted(gms, key=rank.get)]
    return triples


def _ell_row(
    b: BinPoly, hs: int, gs: int, pairs: dict[tuple[int, int], tuple[BinPoly, BinPoly]]
) -> list[tuple[BinPoly, tuple[BinPoly, BinPoly]]]:
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

    Each piece of work is done once per call, at the level its result
    varies on.  The lengths are checked once: beta odd here, beta positive
    where x^beta - 1 is factored and alpha positive where S is built.  The
    Z4 factors of x^beta - 1 are proved once per length in ``cyclofield``
    and factored here once per call, by ``factor_triples``; each triple
    then only checks that f, h, g are monic and that f~ h~ g~ = x^beta - 1
    on bit masks, which, x^beta - 1 being squarefree over Z2, also makes
    them coprime; (x^beta-1)/f~ is h~ g~.  The condition on b is checked
    once per b.

    The ell conditions see a triple only through its signature
    (hs, gs) = (gcd(h~, S), gcd(g~, S)), S = gcd(x^alpha - 1, x^beta - 1):
    b divides x^alpha - 1 and x^beta - 1 is squarefree, so
    gcd(b, p) = gcd(b, gcd(p, S)) for every p dividing x^beta - 1, and
    gcd(b, e*g~) = gcd(b, e*gs).  So L, the gcd pair gcd(b, ell),
    gcd(b, ell*g~) and the guard's verdict depend on (b, hs, gs) alone.
    The triples share their polynomials (one per factor subset), and each
    gcd with S is taken once per distinct mod-2 image in a call.  Within
    one b, ``_ell_row`` lists the multiples of L once per signature, each
    with its pair, its ``ell_gcds`` and the two ell conditions checked from
    it as a guard; every triple of that signature yields that row.  A
    (b, f, h, g) whose code has more than ``capacity`` words raises
    CapacityError before its first tuple; None sets no bound.
    """
    if beta % 2 == 0:
        raise DomainError("beta must be odd")
    split = factor_triples(beta)  # before S: beta's length errors come first
    xb = BinPoly.xn_minus_1(beta).bits
    shared = clgcd(BinPoly.xn_minus_1(alpha).bits, xb)
    # (f, h, g, 2 deg g + deg h, its signature (hs, gs) as bit masks)
    triples = []
    sig_of = cache(lambda p: clgcd(p, shared))  # one gcd per mod-2 image, for this call only
    for f, h, g in split:
        ft, ht, gt = f.lo, h.lo, g.lo
        if clmul(ft, clmul(ht, gt)) != xb or not (f.is_monic and h.is_monic and g.is_monic):
            raise InternalError(f"factor triple {f}, {h}, {g} does not split x^{beta}-1")
        triples.append((f, h, g, 2 * int(g.degree) + int(h.degree), (sig_of(ht), sig_of(gt))))
    for b in divisors_of_xn_minus_1_z2(alpha):
        if errs := _b_violations(alpha, b):
            raise InternalError("; ".join(errs))
        free = alpha - int(b.degree)
        # the signature (hs, gs) as bit masks -> the row of ell it yields
        rows: dict[tuple[int, int], list[tuple[BinPoly, tuple[BinPoly, BinPoly]]]] = {}
        # the gcd pairs of one b, as bit masks -> the ell_gcds its tuples share
        pairs: dict[tuple[int, int], tuple[BinPoly, BinPoly]] = {}
        for f, h, g, weight, sig in triples:
            if capacity is not None and (size := 1 << (free + weight)) > capacity:
                raise CapacityError(
                    f"candidate code size {size} exceeds the bound {capacity}"
                )
            row = rows.get(sig)
            if row is None:
                row = rows[sig] = _ell_row(b, *sig, pairs)
            for ell, gcds in row:
                yield CyclicGenerators._trusted(alpha, beta, b, ell, f, h, g, gcds)
