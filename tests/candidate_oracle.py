"""Slow reference candidate loop for ``z2z4.cycliccode.enumerate_all_cyclic``.

It builds the factor assignments of x^beta - 1 on its own and runs the full
``violations`` check for every ell, including the conditions that hold by
construction.  The fast loop must yield exactly its sequence.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from z2z4.cycliccode import CyclicGenerators, violations
from z2z4.cyclofield import divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4
from z2z4.polyring import BinPoly, QuatPoly


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
