"""Slow reference candidate loop for ``z2z4.cycliccode.enumerate_all_cyclic``,
and the type and criterion of a tuple from scratch.

It builds the factor assignments of x^beta - 1 on its own and runs the full
``violations`` check for every ell, including the conditions that hold by
construction.  The fast loop must yield exactly its sequence.
``reference_code_type`` and ``reference_criterion`` compute gcd(b, ell) and
gcd(b, ell*g~) from the tuple's fields with ``gcd2``, where ``code_type``
and ``gray_linear_criterion`` read the tuple's shared ``ell_gcds``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from z2z4.additive import CodeType
from z2z4.cycliccode import CyclicGenerators, violations
from z2z4.cyclofield import divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4, tensor_square
from z2z4.linimage import LinearityReport
from z2z4.polyring import BinPoly, QuatPoly, gcd2, reduce_mod2


def reference_cyclic_tuples(alpha: int, beta: int) -> Iterator[CyclicGenerators]:
    factors = factor_xn_minus_1_z4(beta)
    triples = []
    for assign in product(range(3), repeat=len(factors)):
        parts = [QuatPoly.one(), QuatPoly.one(), QuatPoly.one()]
        for fac, slot in zip(factors, assign):
            parts[slot] = parts[slot] * fac
        triples.append(tuple(parts))
    triples.sort(key=lambda t: (t[1].coeffs, t[2].coeffs))
    for b in divisors_of_xn_minus_1_z2(alpha):
        db = int(b.degree)
        for f, h, g in triples:
            for bits in range(1 << db):
                ell = BinPoly([(bits >> i) & 1 for i in range(db)])
                if not violations(alpha, beta, b, ell, f, h, g):
                    yield CyclicGenerators(alpha, beta, b, ell, f, h, g)


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
