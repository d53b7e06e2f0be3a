"""Cross-validation sweeps and the reference-example checklist.

``run_mixed_sweep`` walks every valid cyclic generator tuple in a range of
block lengths and records, per code: the gcd-criterion verdict against the
brute-force closure oracle, the type formulas against enumeration and the
type read off the code's echelon (the standard form's type), the order-two
and three-generator span identities, the punctured-code generators, and
(for linear images) the double-cyclic structure of the Nechaev-Gray image
and its generator pair.

Part of that work depends on less than the whole code.  The 1008 codes
of the full sweep share 48 factor triples (f, h, g), whose polynomials
the order-two and three-generator forms and fh + 2f read from
``cycliccode._triple_forms``, and make 293 distinct puncture checks out
of 2016, so ``_projection_matches`` caches each puncture identity on its
exact inputs.  A hit is exact: both caches hold pure functions of their
keys.  ``run_mixed_sweep`` empties both caches when it returns (with
``jobs`` above 1 each worker fills its own), so every call pays its own
misses.  ``tests/sweep_oracle.py`` recomputes everything for every code,
as the differential oracle.

``run_checks`` wraps the sweeps together with the worked single-code
examples into a pass/fail checklist that the ``reproduce`` subcommand and
the acceptance tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .additive import (
    Code,
    GeneratorMatrix,
    MixedVector,
    WordCodec,
    gray_image_is_linear,
    gray_is_linear_oracle,
)
from .cyclofield import factor_xn_minus_1_z4
from .cycliccode import (
    CyclicGenerators,
    _triple_forms,
    code_type,
    enumerate_all_cyclic,
    enumerate_code,
    factor_triples,
    order_two_generators,
    span_words,
    three_generator_form,
)
from .linimage import (
    double_cyclic_span,
    ext_psi_image,
    family_g_subgroup,
    gray_linear_criterion,
    is_double_cyclic,
    psi_image_generators,
    search_by_type,
    wolfmann_linear,
    z4_gray_linear_oracle,
)
from .parallel import run_parallel as _run_parallel
from .polyring import BinPoly, QuatPoly, cyclic_reduce, gcd2

FULL_ALPHAS = (1, 2, 3, 4)
FULL_BETAS = (1, 3, 5, 7)
QUICK_ALPHAS = (1, 2)
QUICK_BETAS = (1, 3)
FULL_NS = (1, 3, 5, 7, 9, 15)
QUICK_NS = (1, 3, 5, 7)


@dataclass(frozen=True)
class SweepRecord:
    """Per-code outcome of every structural check in the mixed sweep."""

    alpha: int
    beta: int
    b: tuple[int, ...]
    ell: tuple[int, ...]
    f: tuple[int, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]
    size: int
    type_formula: tuple[int, int, int]
    type_standard: tuple[int, int, int]
    size_ok: bool
    cyclic_ok: bool
    criterion_linear: bool
    oracle_linear: bool
    oracle_modes_agree: bool
    image_check_agrees: bool
    order_two_ok: bool
    three_gen_ok: bool
    punctures_ok: bool
    family_member: bool
    psi_double_cyclic: bool | None
    psi_span_ok: bool | None

    @property
    def criterion_agrees(self) -> bool:
        return self.criterion_linear == self.oracle_linear

    @property
    def types_agree(self) -> bool:
        return self.type_formula == self.type_standard


# more than the 293 distinct puncture checks of the full sweep
PROJECTION_CACHE_SIZE = 1024


@lru_cache(maxsize=PROJECTION_CACHE_SIZE)
def _projection_matches(
    alpha: int, beta: int, words: tuple[int, ...], planes: tuple[int, int, int]
) -> bool:
    """Whether the packed ``words`` of shape (alpha, beta), one of the two
    being 0, span the cyclic code generated by the word with the given
    (binary, t, h) planes, that is by its alpha + beta shifts.  A function
    of its arguments alone, so a cached answer is the one recomputing
    would give."""
    codec = WordCodec(alpha, beta)
    word = codec.pack_planes(*planes)
    return Code.span(codec, words) == Code.span(codec, codec.shifts(word, alpha + beta))


def check_candidate(gens: CyclicGenerators) -> SweepRecord:
    """Every structural check of the mixed sweep on one code.

    The polynomials of the code's factor triple come from
    ``cycliccode._triple_forms`` and the two puncture identities from
    ``_projection_matches``, keyed by the shape, the projected generator
    words and the expected generator, so a hit answers what recomputing
    would for this code.  ``run_mixed_sweep`` empties both caches when it
    returns; a caller of this function alone leaves at most their bounds
    of entries behind.
    """
    ct = code_type(gens)
    code = enumerate_code(gens)

    report = gray_linear_criterion(gens)
    oracle = gray_is_linear_oracle(code)
    oracle_gen = gray_is_linear_oracle(code, mode="generators")
    image_direct = gray_image_is_linear(code)

    # every span of this shape shares the code's codec
    w1, w2 = order_two_generators(gens)
    cb = span_words(code.codec, [w1, w2], [gens.alpha, gens.beta])
    t1, t2, t3 = three_generator_form(gens)
    span3 = span_words(code.codec, [t1, t2, t3], [gens.alpha, gens.beta, gens.beta])

    # the punctured codes, spanned by the projected generators, should be
    # generated by gcd(b, ell) and fh + 2f
    a, bmask = gens.alpha, code.codec.bmask
    px_word = cyclic_reduce(gcd2(gens.b, gens.ell), a).bits
    py_gen = gens.fh_plus_2f
    punctures_ok = _projection_matches(
        a, 0, tuple([w & bmask for w in code.gens]), (px_word, 0, 0)
    ) and _projection_matches(
        0, gens.beta, tuple([w >> a for w in code.gens]), (0, py_gen.lo, py_gen.hi)
    )

    psi_dc = psi_span_ok = None
    if report.verdict:
        img = ext_psi_image(code)
        psi_dc = is_double_cyclic(img)
        dcg = psi_image_generators(gens)
        psi_span_ok = double_cyclic_span(dcg) == img

    return SweepRecord(
        alpha=gens.alpha,
        beta=gens.beta,
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


def mixed_candidates(
    alphas: Sequence[int] = FULL_ALPHAS, betas: Sequence[int] = FULL_BETAS
) -> list[CyclicGenerators]:
    out = []
    for alpha in alphas:
        for beta in betas:
            out.extend(enumerate_all_cyclic(alpha, beta))
    return out


def run_mixed_sweep(
    alphas: Sequence[int] = FULL_ALPHAS,
    betas: Sequence[int] = FULL_BETAS,
    jobs: int = 1,
) -> list[SweepRecord]:
    try:
        return _run_parallel(check_candidate, mixed_candidates(alphas, betas), jobs)
    finally:
        _triple_forms.cache_clear()
        _projection_matches.cache_clear()


# ----------------------------------------------------------------------
# quaternary-only sweep


@dataclass(frozen=True)
class Z4Record:
    n: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]
    criterion_linear: bool
    oracle_linear: bool

    @property
    def criterion_agrees(self) -> bool:
        return self.criterion_linear == self.oracle_linear


def z4_candidates(ns: Sequence[int] = FULL_NS) -> list[tuple[int, QuatPoly, QuatPoly, QuatPoly]]:
    return [(n, f, h, g) for n in ns for f, h, g in factor_triples(n)]


def check_z4(item: tuple[int, QuatPoly, QuatPoly, QuatPoly]) -> Z4Record:
    n, f, h, g = item
    return Z4Record(
        n=n,
        f=f.coeffs,
        h=h.coeffs,
        g=g.coeffs,
        criterion_linear=wolfmann_linear(f, h, g, n),
        oracle_linear=z4_gray_linear_oracle(f, h, g, n),
    )


def run_z4_sweep(ns: Sequence[int] = FULL_NS, jobs: int = 1) -> list[Z4Record]:
    return _run_parallel(check_z4, z4_candidates(ns), jobs)


# ----------------------------------------------------------------------
# worked examples


def cyclic_projections_matrix() -> GeneratorMatrix:
    return GeneratorMatrix.from_text("1 0 | 1 0 0\n0 1 | 0 1 0\n0 0 | 0 0 1")


def nonlinear_image_matrix() -> GeneratorMatrix:
    return GeneratorMatrix.from_text(
        "1 0 0 | 0 0 0\n0 1 0 | 0 0 0\n0 0 1 | 2 0 0\n0 0 0 | 1 1 0\n0 0 0 | 1 0 1"
    )


def length9_generators() -> CyclicGenerators:
    return CyclicGenerators(
        3,
        3,
        BinPoly.parse("x^2+x+1"),
        BinPoly.one(),
        QuatPoly.one(),
        QuatPoly.parse("x^2+x+1"),
        QuatPoly.parse("x+3"),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _check_factor_n7() -> CheckResult:
    got = {str(p) for p in factor_xn_minus_1_z4(7)}
    want = {"x+3", "x^3+2x^2+x+3", "x^3+3x^2+2x+3"}
    return CheckResult(
        "x^7-1 factors over Z4 into the three basic irreducibles",
        got == want,
        {"factors": sorted(got)},
    )


def _check_shift_counterexample() -> CheckResult:
    code = Code.from_matrix(cyclic_projections_matrix())
    px, py = code.puncture_x(), code.puncture_y()
    witness = code.cyclic_witness()
    ok = (
        px.is_cyclic()
        and py.is_cyclic()
        and not code.is_cyclic()
        and witness is not None
        and witness[0] == MixedVector((0, 0), (0, 0, 1))
        and witness[1] == MixedVector((0, 0), (1, 0, 0))
        and witness[1] not in code
    )
    return CheckResult(
        "projections cyclic but the code is not (shift witness (0,0|0,0,1))",
        ok,
        {
            "witness": [str(w) for w in witness] if witness else None,
            "separable": code.is_separable(),
        },
    )


def _check_image_separation() -> CheckResult:
    code = Code.from_matrix(nonlinear_image_matrix())
    whole = gray_is_linear_oracle(code, mode="generators")
    quat = gray_is_linear_oracle(code.puncture_y())
    ok = (
        not whole.linear
        and quat.linear
        and whole.witness is not None
        and whole.witness[2] == MixedVector((0, 0, 0), (2, 0, 0))
    )
    return CheckResult(
        "nonlinear extended image with linear quaternary image, witness (0,0,0|2,0,0)",
        ok,
        {"witness": [str(w) for w in whole.witness] if whole.witness else None},
    )


def _check_blocked_type() -> CheckResult:
    unfiltered = search_by_type(2, 7, 2, 3)
    linear = sum(rep.verdict for _, rep in unfiltered)
    return CheckResult(
        "type (2,7; 2,3; *) has candidates but none with a linear image",
        len(unfiltered) >= 1 and linear == 0,
        {"candidates": len(unfiltered), "linear": linear},
    )


def _check_length9_image() -> CheckResult:
    gens = length9_generators()
    code = enumerate_code(gens)
    dcg = psi_image_generators(gens)
    img = ext_psi_image(code)
    span = double_cyclic_span(dcg)
    ok = (
        dcg.b == BinPoly.parse("x^2+x+1")
        and dcg.ellp == BinPoly.parse("x")
        and dcg.a == BinPoly.parse("x^2+x+1")
        and len(img) == 32
        and img.r + img.s == 9
        and span == img
        and is_double_cyclic(img)
    )
    return CheckResult(
        "length-9 Nechaev-Gray image equals <(x^2+x+1|0), (x|x^2+x+1)>",
        ok,
        {"generators": dcg.to_json(), "image_size": len(img)},
    )


def _sweep_checks(records: list[SweepRecord]) -> list[CheckResult]:
    n = len(records)
    disagreements = [r for r in records if not r.criterion_agrees]
    type_bad = [r for r in records if not (r.size_ok and r.types_agree and r.cyclic_ok)]
    span_bad = [r for r in records if not (r.order_two_ok and r.three_gen_ok)]
    punct_bad = [r for r in records if not r.punctures_ok]
    mode_bad = [r for r in records if not (r.oracle_modes_agree and r.image_check_agrees)]
    family_bad = [r for r in records if r.family_member and not r.criterion_linear]
    linear = [r for r in records if r.criterion_linear]
    psi_bad = [r for r in linear if not (r.psi_double_cyclic and r.psi_span_ok)]
    return [
        CheckResult(
            "criterion == closure oracle on the mixed sweep",
            not disagreements,
            {"codes": n, "disagreements": len(disagreements)},
        ),
        CheckResult(
            "type formulas match enumeration and standard form",
            not type_bad,
            {"codes": n, "mismatches": len(type_bad)},
        ),
        CheckResult(
            "order-two and three-generator spans match",
            not span_bad,
            {"codes": n, "mismatches": len(span_bad)},
        ),
        CheckResult(
            "punctured codes are generated by gcd(b, ell) and fh+2f",
            not punct_bad,
            {"codes": n, "mismatches": len(punct_bad)},
        ),
        CheckResult(
            "oracle modes and the direct image check agree",
            not mode_bad,
            {"codes": n, "mismatches": len(mode_bad)},
        ),
        CheckResult(
            "subgroup-root family (g = 1 or x^s-1) always linear",
            not family_bad,
            {"members": sum(1 for r in records if r.family_member), "failures": len(family_bad)},
        ),
        CheckResult(
            "linear images: Nechaev-Gray image double-cyclic with matching span",
            not psi_bad,
            {"linear_codes": len(linear), "failures": len(psi_bad)},
        ),
    ]


def run_checks(quick: bool = False, jobs: int = 1) -> list[CheckResult]:
    """The full checklist; ``quick`` restricts the sweeps to tiny ranges."""
    alphas = QUICK_ALPHAS if quick else FULL_ALPHAS
    betas = QUICK_BETAS if quick else FULL_BETAS
    ns = QUICK_NS if quick else FULL_NS
    checks = [
        _check_factor_n7(),
        _check_shift_counterexample(),
        _check_image_separation(),
        _check_blocked_type(),
        _check_length9_image(),
    ]
    records = run_mixed_sweep(alphas, betas, jobs=jobs)
    checks.extend(_sweep_checks(records))
    z4 = run_z4_sweep(ns, jobs=jobs)
    z4_bad = [r for r in z4 if not r.criterion_agrees]
    checks.append(
        CheckResult(
            "quaternary criterion == closure oracle",
            not z4_bad,
            {"codes": len(z4), "disagreements": len(z4_bad), "lengths": list(ns)},
        )
    )
    return checks
