"""The mixed sweep's per-code checks with nothing shared between codes.

``reproduce.check_candidate`` reads the polynomials that depend only on a
code's factor triple from ``cycliccode._triple_forms`` and caches the two
puncture identities on their exact inputs.  ``check_candidate`` here is
its differential oracle: for every code it recomputes mu~ by
``gf2_bezout``, fh + 2f, 2f, 2fg and fh from (f, h, g), builds the code
from its two generator words, and spans both punctured codes and the
codes their expected generators span.
"""

from __future__ import annotations

from z2z4.additive import Code, WordCodec, gray_image_is_linear, gray_is_linear_oracle
from z2z4.cycliccode import (
    CyclicGenerators,
    ResidueWord,
    code_type,
    quaternary_generator,
    span_words,
)
from z2z4.linimage import (
    double_cyclic_span,
    ext_psi_image,
    family_g_subgroup,
    gray_linear_criterion,
    is_double_cyclic,
    psi_image_generators,
)
from z2z4.polyring import QuatPoly, cyclic_reduce, gcd2, gf2_bezout, reduce_mod2
from z2z4.reproduce import SweepRecord


def order_two_generators(gens: CyclicGenerators) -> tuple[ResidueWord, ResidueWord]:
    """(b | 0) and (mu~ ell g~ | 2f), every factor computed here."""
    mu_t = gf2_bezout(gens.h, gens.g)[1]
    left = cyclic_reduce(mu_t * gens.ell * reduce_mod2(gens.g), gens.alpha)
    two_f = cyclic_reduce(QuatPoly((2,)) * gens.f, gens.beta)
    return (
        ResidueWord(gens.alpha, gens.beta, gens.b, QuatPoly.zero()),
        ResidueWord(gens.alpha, gens.beta, left, two_f),
    )


def three_generator_form(gens: CyclicGenerators) -> tuple[ResidueWord, ResidueWord, ResidueWord]:
    """(b|0), (ell g~ | 2fg), (ell - mu~ ell g~ | fh), every factor computed here."""
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


def check_candidate(gens: CyclicGenerators) -> SweepRecord:
    a, b_ = gens.alpha, gens.beta
    fh_plus_2f = quaternary_generator(gens.f, gens.h, b_)
    ct = code_type(gens)
    words = [ResidueWord(a, b_, gens.b, QuatPoly.zero()), ResidueWord(a, b_, gens.ell, fh_plus_2f)]
    code = span_words(WordCodec(a, b_), words, [a, b_])

    report = gray_linear_criterion(gens)
    oracle = gray_is_linear_oracle(code)
    oracle_gen = gray_is_linear_oracle(code, mode="generators")
    image_direct = gray_image_is_linear(code)

    w1, w2 = order_two_generators(gens)
    cb = span_words(code.codec, [w1, w2], [a, b_])
    t1, t2, t3 = three_generator_form(gens)
    span3 = span_words(code.codec, [t1, t2, t3], [a, b_, b_])

    px, py = code.puncture_x(), code.puncture_y()
    px_word = cyclic_reduce(gcd2(gens.b, gens.ell), a).bits
    py_word = py.codec.pack_planes(0, fh_plus_2f.lo, fh_plus_2f.hi)
    px_expect = Code.span(px.codec, px.codec.shifts(px_word, a))
    py_expect = Code.span(py.codec, py.codec.shifts(py_word, b_))
    punctures_ok = px == px_expect and py == py_expect

    psi_dc = psi_span_ok = None
    if report.verdict:
        img = ext_psi_image(code)
        psi_dc = is_double_cyclic(img)
        dcg = psi_image_generators(gens)
        psi_span_ok = double_cyclic_span(dcg) == img

    return SweepRecord(
        alpha=a,
        beta=b_,
        b=gens.b.coeffs,
        ell=gens.ell.coeffs,
        f=gens.f.coeffs,
        h=gens.h.coeffs,
        g=gens.g.coeffs,
        size=code.size,
        type_formula=ct.triple,
        type_standard=code.code_type.triple,
        size_ok=code.size == ct.size,
        cyclic_ok=code.is_cyclic(),
        criterion_linear=report.verdict,
        oracle_linear=oracle.linear,
        oracle_modes_agree=oracle.linear == oracle_gen.linear,
        image_check_agrees=oracle.linear == image_direct,
        order_two_ok=cb == code.order_two_subcode(),
        three_gen_ok=span3 == code,
        punctures_ok=punctures_ok,
        family_member=family_g_subgroup(gens),
        psi_double_cyclic=psi_dc,
        psi_span_ok=psi_span_ok,
    )
