"""Reference candidate loops for ``z2z4.cycliccode.enumerate_all_cyclic``,
and the type and criterion of a tuple from scratch.

``reference_factor_triples`` builds the factor triples of x^beta - 1 role by
role, multiplying out every triple.  ``reference_cyclic_tuples`` takes its
triples from it and runs the full ``violations`` check for every ell,
including the conditions that hold by construction.
``per_triple_cyclic_tuples`` is the loop keyed by (b, f, h, g): it takes
the ell lattice, the gcd pair gcd(b, ell), gcd(b, ell*g~) and the guard
from the full (x^beta-1)/f~, h~ and g~ of every triple, where the fast
loop takes them once per (b, signature).
The fast loop must yield exactly the sequence of both, and the second's
``ell_gcds``.
``reference_code_type`` and ``reference_criterion`` compute gcd(b, ell) and
gcd(b, ell*g~) from the tuple's fields with ``gcd2``, where ``code_type``
and ``gray_linear_criterion`` read the tuple's shared ``ell_gcds``.
"""

from __future__ import annotations

from typing import Iterator

from z2z4.additive import CodeType
from z2z4.cycliccode import (
    CyclicGenerators,
    _b_violations,
    _ell_lattice,
    _gcd_violations,
    factor_triples,
    violations,
)
from z2z4.cyclofield import divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4, tensor_square
from z2z4.errors import DomainError, InternalError
from z2z4.linimage import LinearityReport
from z2z4.polyring import BinPoly, QuatPoly, clgcd, clmul, gcd2, reduce_mod2


def reference_factor_triples(beta: int) -> list[tuple[QuatPoly, QuatPoly, QuatPoly]]:
    """Every (f, h, g) that splits the factors of x^beta - 1 among the three
    roles, built role by role and multiplied out triple by triple, sorted by
    the coefficients of h then g."""
    one = QuatPoly.one()
    triples = [(one, one, one)]
    # each factor extends the products built from the factors before it
    for fac in factor_xn_minus_1_z4(beta):
        triples = [t for f, h, g in triples
                   for t in ((f * fac, h, g), (f, h * fac, g), (f, h, g * fac))]
    triples.sort(key=lambda t: (t[1].coeffs, t[2].coeffs))
    return triples


def reference_cyclic_tuples(alpha: int, beta: int) -> Iterator[CyclicGenerators]:
    triples = reference_factor_triples(beta)
    for b in divisors_of_xn_minus_1_z2(alpha):
        db = int(b.degree)
        for f, h, g in triples:
            for bits in range(1 << db):
                ell = BinPoly([(bits >> i) & 1 for i in range(db)])
                if not violations(alpha, beta, b, ell, f, h, g):
                    yield CyclicGenerators(alpha, beta, b, ell, f, h, g)


def per_triple_cyclic_tuples(alpha: int, beta: int) -> Iterator[CyclicGenerators]:
    """The candidate loop with one ell lattice and one guard pass per
    (b, f, h, g), its rows of ell shared only between triples with the same
    L and g~; it checks no capacity."""
    if beta % 2 == 0:
        raise DomainError("beta must be odd")
    xb = BinPoly.xn_minus_1(beta).bits
    triples = []
    for f, h, g in factor_triples(beta):
        ft, ht, gt = reduce_mod2(f), reduce_mod2(h), reduce_mod2(g)
        cof = clmul(ht.bits, gt.bits)
        if clmul(ft.bits, cof) != xb or not (f.is_monic and h.is_monic and g.is_monic):
            raise InternalError(f"factor triple {f}, {h}, {g} does not split x^{beta}-1")
        triples.append((f, h, g, BinPoly.from_bits(cof), ht, gt))
    for b in divisors_of_xn_minus_1_z2(alpha):
        if errs := _b_violations(alpha, b):
            raise InternalError("; ".join(errs))
        db, bb = int(b.degree), b.bits
        # (L, g~) as bit masks -> the multiples ell of L, sorted, each with
        # gcd(b, ell), gcd(b, ell*g~) and the ell_gcds they seed
        rows: dict[tuple[int, int], list[tuple[BinPoly, int, int, tuple]]] = {}
        # the gcd pairs of one b, as bit masks -> the ell_gcds its tuples share
        pairs: dict[tuple[int, int], tuple[BinPoly, BinPoly]] = {}
        for f, h, g, cof, ht, gt in triples:
            step = _ell_lattice(b, cof, ht, gt)
            cofb, htb, gtb = cof.bits, ht.bits, gt.bits
            ells = rows.get((step.bits, gtb))
            if ells is None:
                ells = rows[step.bits, gtb] = []
                count = 1 << (db - int(step.degree))
                for e in sorted(clmul(m, step.bits) for m in range(count)):
                    gbl, gblg = clgcd(bb, e), clgcd(bb, clmul(e, gtb))
                    gcds = pairs.get((gbl, gblg))
                    if gcds is None:
                        gcds = pairs[gbl, gblg] = (BinPoly.from_bits(gbl), BinPoly.from_bits(gblg))
                    ells.append((BinPoly.from_bits(e), gbl, gblg, gcds))
            for ell, gbl, gblg, gcds in ells:
                if errs := _gcd_violations(bb, cofb, htb, gbl, gblg):
                    raise InternalError(f"ell = {ell} fails: {'; '.join(errs)}")
                yield tuple.__new__(CyclicGenerators, (alpha, beta, b, ell, f, h, g, gcds))


def reference_code_type(gens: CyclicGenerators) -> CodeType:
    db, dh, dg = int(gens.b.degree), int(gens.h.degree), int(gens.g.degree)
    lg = gens.ell * reduce_mod2(gens.g)
    d_blg = int(gcd2(gens.b, lg).degree) if not lg.is_zero else db
    d_bl = int(gcd2(gens.b, gens.ell).degree) if not gens.ell.is_zero else db
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


def reference_criterion(gens: CyclicGenerators) -> LinearityReport:
    gt = reduce_mod2(gens.g)
    quot, rem = divmod(reduce_mod2(gens.f) * gens.b, gcd2(gens.b, gens.ell * gt))
    assert rem.is_zero
    tensor = tensor_square(gt, gens.beta)
    gcd_val = gcd2(quot, tensor)
    return LinearityReport(quot, tensor, gcd_val, gcd_val == BinPoly.one())
