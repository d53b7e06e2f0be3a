import functools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from z2z4 import cycliccode, linimage
from z2z4.additive import (
    Code, GeneratorMatrix, MixedVector, PlaneShift, WordCodec, gray_is_linear_oracle,
)
from z2z4.cycliccode import (
    code_type,
    enumerate_all_cyclic,
    CyclicGenerators,
    enumerate_code,
    factor_triples,
)
from z2z4.cyclofield import TENSOR_CACHE_SIZE, factor_xn_minus_1_z4, tensor_square
from z2z4.errors import DomainError, InternalError, PreconditionError
from z2z4.linimage import (
    BinaryBlockCode,
    DoubleCyclicGenerators,
    _z4_code,
    double_cyclic_span,
    ext_psi_image,
    family_g_subgroup,
    gray_linear_criterion,
    is_double_cyclic,
    psi_image_generators,
    search_by_type,
    solve_cyclic_z4_lexmin,
    wolfmann_linear,
    z4_gray_linear_oracle,
)
from z2z4.polyring import BinPoly, QuatPoly, cyclic_reduce, gcd2, reduce_mod2
from z2z4.reproduce import mixed_candidates
from binpoly_oracle import padded
from candidate_oracle import reference_code_type, reference_criterion
from span_oracle import double_shift
from z4_oracles import (
    all_cyclic_solutions,
    digit_fixing_lexmin,
    divisibility_gray_linear,
    howell_lexmin,
)


# factors that make p -> p * gen far from onto: x-1, 2, x^2+x+1, x^3-1, 2(x-1)
_NON_UNITS = [(1,), (3, 1), (2,), (1, 1, 1), (3, 0, 0, 1), (2, 2)]


@st.composite
def cyclic_systems(draw, lengths):
    """(gen, target, n) with target inside <gen> about half of the time."""
    n = draw(st.sampled_from(lengths))
    digits = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    factor = QuatPoly(draw(st.sampled_from(_NON_UNITS)))
    gen = cyclic_reduce(QuatPoly(draw(digits)) * factor, n)
    target = QuatPoly(draw(digits))
    if draw(st.booleans()):
        target = cyclic_reduce(target * gen, n)
    return gen, target, n


class TestWolfmann:
    def test_f_one_always_linear(self):
        f1, f3a, f3b = factor_xn_minus_1_z4(7)
        assert wolfmann_linear(QuatPoly.one(), f1 * f3a, f3b, 7)

    def test_opposite_degree3_factors_nonlinear(self):
        f1, f3a, f3b = factor_xn_minus_1_z4(7)
        assert not wolfmann_linear(f3b, f1, f3a, 7)
        assert not wolfmann_linear(f3a, f1, f3b, 7)
        # and with the unit factor folded into f instead
        assert not wolfmann_linear(f3b * f1, QuatPoly.one(), f3a, 7)

    def test_g_full_always_linear(self):
        assert wolfmann_linear(QuatPoly.one(), QuatPoly.one(), QuatPoly.xn_minus_1(7), 7)

    def test_oracle_past_sys_maxsize(self):
        # <3> is all of Z4^45, 2^90 words: the generators closure
        one = QuatPoly.one()
        assert z4_gray_linear_oracle(one, one, QuatPoly.xn_minus_1(45), 45)

    def test_bad_factorization_rejected(self):
        # the criterion and the closure oracle share one input check
        one = QuatPoly.one()
        for check in (wolfmann_linear, z4_gray_linear_oracle):
            with pytest.raises(DomainError, match=r"^f\*h\*g != x\^3-1 over Z4$"):
                check(one, one, one, 3)
            # the length is checked first
            with pytest.raises(DomainError, match="^length must be odd$"):
                check(one, one, QuatPoly.xn_minus_1(4), 4)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_matches_enumeration_oracle(self, n):
        from z2z4.reproduce import z4_candidates

        for _, f, h, g in z4_candidates([n]):
            assert wolfmann_linear(f, h, g, n) == gray_is_linear_oracle(_z4_code(f, h, n)).linear

    @pytest.mark.parametrize("n", [7, 9])
    def test_oracle_modes_agree(self, n):
        from z2z4.reproduce import z4_candidates

        for _, f, h, g in z4_candidates([n]):
            assert gray_is_linear_oracle(_z4_code(f, h, n)).linear == divisibility_gray_linear(
                f, h, g, n
            )

    def test_divisibility_oracle_on_the_z4_sweep(self):
        """The divisibility test against ``z4_gray_linear_oracle`` on every
        quaternary sweep code of length 7, 9 and 15, the 66 codes above
        ``ORACLE_ENUM_LIMIT`` (the ``generators`` closure) included."""
        from z2z4.reproduce import z4_candidates

        above = 0
        for n, f, h, g in z4_candidates([7, 9, 15]):
            above += len(_z4_code(f, h, n)) > linimage.ORACLE_ENUM_LIMIT
            assert z4_gray_linear_oracle(f, h, g, n) == divisibility_gray_linear(f, h, g, n)
        assert above == 66


class TestCriterion:
    def test_length9_report(self, length9_code):
        rep = gray_linear_criterion(length9_code)
        assert rep.criterion_poly_a == BinPoly.parse("x^2+x+1")
        assert rep.tensor_poly == BinPoly.parse("x+1")
        assert rep.gcd_value == BinPoly.one()
        assert rep.verdict and gray_is_linear_oracle(enumerate_code(length9_code)).linear

    def test_g_one_always_linear(self):
        for G in enumerate_all_cyclic(3, 3):
            if G.g == QuatPoly.one():
                assert gray_linear_criterion(G).verdict

    def test_no_linear_code_of_type_2_7_2_3(self):
        for G in enumerate_all_cyclic(2, 7):
            ct = code_type(G)
            if (ct.gamma, ct.delta) == (2, 3):
                assert not gray_linear_criterion(G).verdict

    def test_verdict_depends_only_on_invariants(self):
        # same (b, gcd(b, ell*g~), f~, g~) => identical reports
        from z2z4.polyring import gcd2, reduce_mod2

        seen = {}
        for G in enumerate_all_cyclic(3, 3):
            key = (
                G.b.coeffs,
                gcd2(G.b, G.ell * reduce_mod2(G.g)).coeffs,
                reduce_mod2(G.f).coeffs,
                reduce_mod2(G.g).coeffs,
            )
            rep = gray_linear_criterion(G)
            summary = (rep.criterion_poly_a, rep.tensor_poly, rep.gcd_value, rep.verdict)
            if key in seen:
                assert seen[key] == summary
            else:
                seen[key] = summary


    def test_report_unchanged_by_the_tensor_cache(self):
        codes = list(enumerate_all_cyclic(2, 9))
        warm = [gray_linear_criterion(G) for G in codes]
        for G, rep in zip(codes, warm):
            tensor_square.cache_clear()
            assert gray_linear_criterion(G).to_json() == rep.to_json()
        # one tensor polynomial per distinct g~, bounded cache
        tensors = {G.g: rep.tensor_poly for G, rep in zip(codes, warm)}
        assert all(rep.tensor_poly is tensors[G.g] for G, rep in zip(codes, warm))
        assert tensor_square.cache_info().maxsize == TENSOR_CACHE_SIZE


class TestFamily:
    def test_members(self, length9_code):
        assert family_g_subgroup(length9_code)  # g~ = x+1 = x^1 - 1, 1 | 3

    def test_non_member(self):
        gens = CyclicGenerators(
            1, 3, BinPoly.one(), BinPoly.zero(),
            QuatPoly.parse("x+3"), QuatPoly.one(), QuatPoly.parse("x^2+x+1"),
        )
        assert not family_g_subgroup(gens)

    def test_full_g_member(self):
        gens = CyclicGenerators(
            1, 3, BinPoly.one(), BinPoly.zero(), QuatPoly.one(), QuatPoly.one(), QuatPoly.xn_minus_1(3)
        )
        assert family_g_subgroup(gens)

    @pytest.mark.parametrize("alpha,beta", [(2, 3), (1, 7)])
    def test_members_always_linear(self, alpha, beta):
        for G in enumerate_all_cyclic(alpha, beta):
            if family_g_subgroup(G):
                assert gray_linear_criterion(G).verdict


class TestImplicationCheck:
    # a linear extended Gray image of C forces a linear Gray image of C_Y
    def test_image_separation(self, nonlinear_image_matrix):
        code = Code.from_matrix(nonlinear_image_matrix)
        assert not gray_is_linear_oracle(code).linear
        assert gray_is_linear_oracle(code.puncture_y()).linear

    def test_separable_equivalence(self):
        gens = CyclicGenerators(
            2, 3, BinPoly.parse("x+1"), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3"),
        )
        code = enumerate_code(gens)
        assert gray_is_linear_oracle(code).linear
        assert gray_is_linear_oracle(code.puncture_y()).linear

    def test_zero_code(self):
        code = Code.from_matrix(GeneratorMatrix(1, 1, ()))
        assert gray_is_linear_oracle(code).linear
        assert gray_is_linear_oracle(code.puncture_y()).linear

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.lists(st.integers(0, 1), min_size=2, max_size=2),
                  st.lists(st.integers(0, 3), min_size=3, max_size=3)),
        min_size=1, max_size=3,
    ))
    def test_implication_direction(self, raw_rows):
        rows = tuple(MixedVector(tuple(b), tuple(q)) for b, q in raw_rows)
        code = Code.from_matrix(GeneratorMatrix(2, 3, rows))
        if gray_is_linear_oracle(code).linear:
            assert gray_is_linear_oracle(code.puncture_y()).linear


def _gen(f, h):
    return f * h + QuatPoly((2,)) * f


@st.composite
def code_systems(draw):
    """(f, h, g, target, n) for a factor triple of x^n - 1, often with f, h
    or g = 1, and a target inside <fh + 2f> about half of the time."""
    n = draw(st.sampled_from([1, 3, 5, 7, 9, 15, 21, 31]))
    triples = factor_triples(n)
    unit_role = draw(st.sampled_from([None, 0, 1, 2]))
    if unit_role is not None:
        triples = [t for t in triples if t[unit_role] == QuatPoly.one()]
    f, h, g = draw(st.sampled_from(triples))
    target = QuatPoly(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        target = cyclic_reduce(target * _gen(f, h), n)
    return f, h, g, target, n


def _solve(f, h, g, target, n):
    """solve_cyclic_z4_lexmin on a target not yet reduced mod x^n - 1."""
    return solve_cyclic_z4_lexmin(f, h, g, cyclic_reduce(target, n), n)


class TestSolver:
    def test_known_solution(self, length9_code):
        # p = x + 2x^2 is the smallest solution sending fh+2f to (3,1,3)
        G = length9_code
        target = QuatPoly((3, 1, 3))
        assert solve_cyclic_z4_lexmin(
            G.f, G.h, G.g, QuatPoly.from_planes(0b111, 0b101), 3
        ) == QuatPoly.from_planes(0b010, 0b100)
        p = _solve(G.f, G.h, G.g, target, 3)
        assert p == QuatPoly((0, 1, 2))
        assert cyclic_reduce(p * G.fh_plus_2f, 3) == target

    def test_unsolvable_returns_none(self):
        # f = g = 1, h = x^3 - 1: the code is <2>
        h = QuatPoly.xn_minus_1(3)
        assert _solve(QuatPoly.one(), h, QuatPoly.one(), QuatPoly.one(), 3) is None

    @settings(max_examples=200, deadline=None)
    @given(code_systems())
    def test_matches_the_generic_howell_pass(self, system):
        f, h, g, target, n = system
        want = howell_lexmin(_gen(f, h), target, n)
        assert _solve(f, h, g, target, n) == want

    @settings(max_examples=60, deadline=None)
    @given(cyclic_systems([1, 3, 5]))
    def test_matches_exhaustive(self, system):
        gen, target, n = system
        sols = all_cyclic_solutions(gen, target, n)
        got = howell_lexmin(gen, target, n)
        if not sols:
            assert got is None
        else:
            assert padded(got, n) == min(padded(s, n) for s in sols)

    @settings(max_examples=100, deadline=None)
    @given(cyclic_systems([7, 9, 15, 21]))
    def test_matches_digit_fixing_lexmin(self, system):
        gen, target, n = system
        assert howell_lexmin(gen, target, n) == digit_fixing_lexmin(gen, target, n)

    def test_beta_255(self):
        # f = x^5 - 1 and h = x^10 + x^5 + 1, so fh = x^15 - 1 and
        # g = (x^255 - 1)/(x^15 - 1)
        n = 255
        f = QuatPoly.xn_minus_1(5)
        h = QuatPoly.parse("x^10+x^5+1")
        g = QuatPoly.xn_minus_1(n) // QuatPoly.xn_minus_1(15)
        gen = _gen(f, h)
        q = QuatPoly([(7 * k * k + 3 * k + 1) % 4 for k in range(n)])
        target = cyclic_reduce(q * gen, n)
        p = _solve(f, h, g, target, n)
        assert p == howell_lexmin(gen, target, n)
        assert cyclic_reduce(p * gen, n) == target
        assert padded(p, n) <= padded(cyclic_reduce(q, n), n)
        assert _solve(f, h, g, QuatPoly.one(), n) is None


class TestPsiImage:
    def test_length9_generators_exact(self, length9_code):
        dcg = psi_image_generators(length9_code)
        assert (dcg.r, dcg.s) == (3, 6)
        assert dcg.b == BinPoly.parse("x^2+x+1")
        assert dcg.ellp == BinPoly.parse("x")
        assert dcg.a == BinPoly.parse("x^2+x+1")

    def test_length9_span_equals_image(self, length9_code):
        code = enumerate_code(length9_code)
        img = ext_psi_image(code)
        assert len(img) == 32 and img.r + img.s == 9
        span = double_cyclic_span(psi_image_generators(length9_code))
        assert span.words == img.words

    def test_image_double_cyclic_but_gray_image_not(self, length9_code):
        code = enumerate_code(length9_code)
        assert is_double_cyclic(ext_psi_image(code))
        # frozen regression: the plain Gray image fails the double-shift test
        gray = BinaryBlockCode(code.alpha, 2 * code.beta, frozenset(code.codec.gray_words(code.words)))
        assert not is_double_cyclic(gray)

    def test_separable_gives_zero_ellp(self):
        gens = CyclicGenerators(
            2, 3, BinPoly.parse("x+1"), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3"),
        )
        dcg = psi_image_generators(gens)
        assert dcg.ellp.is_zero

    def test_precondition_enforced(self):
        f1, f3a, f3b = factor_xn_minus_1_z4(7)
        gens = CyclicGenerators(1, 7, BinPoly.one(), BinPoly.zero(), f3b, f1, f3a)
        assert not gray_linear_criterion(gens).verdict
        with pytest.raises(PreconditionError):
            psi_image_generators(gens)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 3), (4, 3)])
    def test_span_equality_across_range(self, alpha, beta):
        for G in enumerate_all_cyclic(alpha, beta):
            if not gray_linear_criterion(G).verdict:
                continue
            code = enumerate_code(G)
            img = ext_psi_image(code)
            assert is_double_cyclic(img)
            span = double_cyclic_span(psi_image_generators(G))
            assert span.words == img.words

    def test_every_solution_gives_the_same_image_span(self, length9_code):
        # the defining equation does not pin p down; all solutions must
        # produce generators spanning the same image
        from word_oracle import nechaev_gray_inv
        from z2z4.polyring import reduce_mod2

        G = length9_code
        ft, ht = reduce_mod2(G.f), reduce_mod2(G.h)
        a = cyclic_reduce(ft * ft * ht, 6)
        bits = list(a.coeffs) + [0] * (6 - len(a.coeffs))
        target = QuatPoly(nechaev_gray_inv(bits))
        img = ext_psi_image(enumerate_code(G)).words
        sols = all_cyclic_solutions(G.fh_plus_2f, target, 3)
        assert sols
        for p in sols:
            ellp = (reduce_mod2(p) * G.ell) % G.b
            span = double_cyclic_span(DoubleCyclicGenerators(3, 6, G.b, ellp, a))
            assert span.words == img

    def test_psi_inverse_of_a_lands_in_quaternary_code(self, length9_code):
        from word_oracle import nechaev_gray_inv

        code = enumerate_code(length9_code)
        word = nechaev_gray_inv((1, 1, 1, 0, 0, 0))
        assert MixedVector((), word) in code.puncture_y()


def _psi_target(G):
    """(f~^2 h~, T = psi^{-1}(f~^2 h~)), T taken by the tuple-based oracle map."""
    from word_oracle import nechaev_gray_inv

    ft, ht = reduce_mod2(G.f), reduce_mod2(G.h)
    a = cyclic_reduce(ft * ft * ht, 2 * G.beta)
    return a, QuatPoly(nechaev_gray_inv(padded(a, 2 * G.beta)))


def _howell(G, target):
    return howell_lexmin(_gen(G.f, G.h), target, G.beta)


def _lexmin(G, target):
    return solve_cyclic_z4_lexmin(G.f, G.h, G.g, target, G.beta)


def _solver_path(G, solve):
    """The image generators by way of a solution p of p * (fh + 2f) = T,
    with ell' = p~ ell mod b: ``solve`` is ``_howell`` (the generic Howell
    pass) or ``_lexmin`` (the solver on the Howell bases of (f, h, g))."""
    a, target = _psi_target(G)
    p = solve(G, target)
    assert p is not None
    return DoubleCyclicGenerators(G.alpha, 2 * G.beta, G.b, (reduce_mod2(p) * G.ell) % G.b, a)


@functools.cache
def _linear_codes(alpha, beta):
    return [G for G in enumerate_all_cyclic(alpha, beta) if gray_linear_criterion(G).verdict]


class TestPsiImageOracle:
    def test_every_linear_sweep_code(self):
        codes = [G for G in mixed_candidates() if gray_linear_criterion(G).verdict]
        assert len(codes) == 810
        for G in codes:
            assert psi_image_generators(G) == _solver_path(G, _howell)

    @settings(max_examples=60, deadline=None)
    @given(st.deferred(lambda: st.sampled_from(_linear_codes(3, 31))))
    def test_beta_31_sample(self, G):
        assert psi_image_generators(G) == _solver_path(G, _howell)


PERTURB_CELLS = [(1, 3), (2, 7), (3, 9), (6, 9), (4, 15), (2, 21), (3, 31)]


@st.composite
def perturbed_solutions(draw):
    """A linear-image code, and r, s for the solution p + r*gh + 2s*g."""
    G = draw(st.sampled_from(_linear_codes(*draw(st.sampled_from(PERTURB_CELLS)))))
    r, s = (QuatPoly(draw(st.lists(st.integers(0, 3), min_size=G.beta, max_size=G.beta)))
            for _ in range(2))
    return G, r, s


class TestImageIndependentOfTheSolution:
    @settings(max_examples=150, deadline=None)
    @given(perturbed_solutions())
    def test_every_preimage_gives_the_same_ellp(self, case):
        # solutions differ by Ann = <gh, 2g>, whose mod-2 images lie in
        # <g~h~>, and b | h~ gcd(b, ell g~) | h~ g~ ell: ell' is the same
        G, r, s = case
        _, target = _psi_target(G)
        p = solve_cyclic_z4_lexmin(G.f, G.h, G.g, target, G.beta)
        other = cyclic_reduce(p + r * G.g * G.h + QuatPoly((2,)) * s * G.g, G.beta)
        assert cyclic_reduce(other * G.fh_plus_2f, G.beta) == target
        assert (reduce_mod2(other) * G.ell) % G.b == psi_image_generators(G).ellp


def _pool_codes():
    """The image-query pool of the benchmark: 72 codes at beta 31, 45, 63."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "image_pool.json"
    return [
        CyclicGenerators(
            e["alpha"], e["beta"],
            *(BinPoly([int(c) for c in e[k]]) for k in ("b", "ell")),
            *(QuatPoly([int(c) for c in e[k]]) for k in ("f", "h", "g")),
        )
        for e in json.loads(path.read_text())
    ]


class TestTrustedImageGenerators:
    def test_every_answer_passes_the_validating_constructor(self):
        # psi_image_generators builds its answer without the checks of
        # DoubleCyclicGenerators; rebuilding it through them must agree
        small = [
            G for alpha in range(1, 5) for beta in (1, 3, 5, 7, 9)
            for G in enumerate_all_cyclic(alpha, beta) if gray_linear_criterion(G).verdict
        ]
        pool = _pool_codes()
        assert len(pool) == 72
        for G in pool + small:
            dcg = psi_image_generators(G)
            rebuilt = DoubleCyclicGenerators(dcg.r, dcg.s, dcg.b, dcg.ellp, dcg.a)
            assert dcg == rebuilt and vars(dcg) == vars(rebuilt)


def _edge_codes(edge):
    """The linear-image codes of alpha 1..3 x beta 1, 3, 5, 7 at one edge
    of the closed form."""
    one = QuatPoly.one()
    keep = {
        "beta = 1": lambda G: G.beta == 1,
        "b = 1": lambda G: G.b == BinPoly.one(),
        "f = 1": lambda G: G.f == one,
        "g = 1": lambda G: G.g == one,
        "q = 1": lambda G: G.ell_gcds[1] == G.b,
        "q > 1": lambda G: G.ell_gcds[1] != G.b,
    }[edge]
    return [G for alpha in (1, 2, 3) for beta in (1, 3, 5, 7) for G in _linear_codes(alpha, beta)
            if keep(G)]


class TestClosedFormImage:
    """psi_image_generators reads ell' off T = A~ (fh + 2f) + 2U; the
    solver on the Howell bases of (f, h, g) is its differential oracle."""

    def test_matches_the_solver_on_the_pool(self):
        pool = _pool_codes()
        assert len(pool) == 72
        for G in pool:
            assert psi_image_generators(G) == _solver_path(G, _lexmin)

    @pytest.mark.parametrize("beta", [1, 3, 5, 7, 9, 15, 21])
    def test_matches_the_solver_on_every_small_code(self, beta):
        codes = [G for alpha in range(1, 5) for G in _linear_codes(alpha, beta)]
        assert codes
        for G in codes:
            assert psi_image_generators(G) == _solver_path(G, _lexmin)

    @pytest.mark.parametrize("edge", ["beta = 1", "b = 1", "f = 1", "g = 1", "q = 1", "q > 1"])
    def test_edges_span_the_image(self, edge):
        codes = _edge_codes(edge)
        assert codes
        for G in codes:
            dcg = psi_image_generators(G)
            assert dcg == _solver_path(G, _lexmin)
            assert double_cyclic_span(dcg) == ext_psi_image(enumerate_code(G))

    def test_report_and_no_report_agree(self, monkeypatch):
        pool = _pool_codes()
        assert len(pool) == 72
        nonlinear = [G for G in enumerate_all_cyclic(2, 7) if not gray_linear_criterion(G).verdict]
        assert nonlinear
        reports = {G: gray_linear_criterion(G) for G in pool + nonlinear}
        with_report = [psi_image_generators(G, report=reports[G]) for G in pool]
        # without a report the verdict is the criterion's int gcd: no
        # LinearityReport is built
        monkeypatch.setattr(linimage, "LinearityReport", None)
        assert [psi_image_generators(G) for G in pool] == with_report
        for G in nonlinear:
            for report in (None, reports[G]):
                with pytest.raises(PreconditionError):
                    psi_image_generators(G, report=report)

    def test_quotient_guard_rejects_a_gcd_that_does_not_divide_b(self):
        # x divides no b, since b divides x^alpha - 1
        G = _linear_codes(3, 7)[0]
        gbl, gblg = G.ell_gcds
        skewed = tuple.__new__(CyclicGenerators, (*G[:7], (gbl, BinPoly.from_bits(gblg.bits << 1))))
        for report in (None, gray_linear_criterion(G)):
            with pytest.raises(InternalError, match="failed to divide b"):
                psi_image_generators(skewed, report=report)

    @staticmethod
    def _flip_preimage(monkeypatch, flip):
        """Make ``WordCodec.psi_inv_words`` return T with the packed bits
        ``flip(beta)`` flipped."""
        real = WordCodec.psi_inv_words
        monkeypatch.setattr(
            WordCodec, "psi_inv_words",
            lambda codec, images: [w ^ flip(codec.beta) for w in real(codec, images)],
        )

    def test_residue_outside_fh_is_an_internal_error(self, length9_code, monkeypatch):
        # T~ + 1 is not a multiple of f~ h~ = x^2 + x + 1
        self._flip_preimage(monkeypatch, lambda beta: 1)
        with pytest.raises(InternalError, match="not in the quaternary code"):
            psi_image_generators(length9_code)

    def test_torsion_outside_f_is_an_internal_error(self, monkeypatch):
        # T + 2 has the same T~ and A~, and U~ + 1, which f~ does not divide
        G = next(G for G in _linear_codes(2, 7) if G.f.degree > 0)
        psi_image_generators(G)
        self._flip_preimage(monkeypatch, lambda beta: 1 << beta)
        with pytest.raises(InternalError, match="not in the quaternary code"):
            psi_image_generators(G)


class TestDoubleCyclic:
    def test_zero_code(self):
        assert is_double_cyclic(BinaryBlockCode(2, 3, frozenset({0})))

    def test_shift_structure(self):
        # word 0b0101 = (1,0 | 1,0): both blocks rotate to (0,1 | 0,1)
        assert double_shift(2, 2, 0b0101) == 0b1010
        assert PlaneShift(2, 2)([0b0101]) == [0b1010]
        assert is_double_cyclic(BinaryBlockCode(2, 2, frozenset({0, 0b0101, 0b1010, 0b1111})))
        assert not is_double_cyclic(BinaryBlockCode(2, 2, frozenset({0, 0b0101})))

    def test_generator_validation(self):
        with pytest.raises(DomainError):
            DoubleCyclicGenerators(3, 6, BinPoly.parse("x^2+1"), BinPoly.zero(), BinPoly.one())


class TestSearch:
    def test_blocked_type_has_no_linear_member(self):
        assert search_by_type(2, 7, 2, 3, linear_only=True) == []
        assert len(search_by_type(2, 7, 2, 3)) >= 1

    def test_contains_length9_code(self, length9_code):
        results = search_by_type(3, 3, 3, 1, 3)
        assert any(G == length9_code for G, _ in results)
        rep = next(rep for G, rep in results if G == length9_code)
        assert rep.verdict

    def test_impossible_type_empty(self):
        assert search_by_type(2, 3, 9, 0) == []

    def test_wildcards(self):
        total = len(search_by_type(2, 3))
        assert total == sum(1 for _ in enumerate_all_cyclic(2, 3))

    @pytest.mark.parametrize("alpha,beta,count", [(4, 15, 1863), (3, 15, 2592)])
    def test_returns_every_valid_tuple(self, alpha, beta, count):
        # these cells hold codes past the default enumeration bound of 2^24
        # words; the criterion needs no enumeration, so none is left out
        assert len(search_by_type(alpha, beta)) == count

    def test_deterministic_order(self):
        a = [(G.to_json(), rep.verdict) for G, rep in search_by_type(2, 3)]
        b = [(G.to_json(), rep.verdict) for G, rep in search_by_type(2, 3)]
        assert a == b


# the search workload's four cells, one with many divisors of x^alpha - 1
# and the largest search cell
SHARED_GCD_CELLS = [(4, 15), (3, 15), (2, 21), (6, 9), (12, 9), (2, 31)]


def _gcd_pair(G):
    return gcd2(G.b, G.ell), gcd2(G.b, G.ell * reduce_mod2(G.g))


def _no_gcd(p, q):
    raise AssertionError("cycliccode.gcd2 called")


class TestSharedGcds:
    """The gcd pair the candidate loop hands each tuple, and the type,
    criterion and search that read it, against the from-scratch formulas."""

    @pytest.mark.parametrize("alpha,beta", SHARED_GCD_CELLS)
    def test_every_tuple_matches_the_reference(self, alpha, beta, monkeypatch):
        # the loop seeds each tuple's pair: no gcd2 in cycliccode reaches it
        monkeypatch.setattr(cycliccode, "gcd2", _no_gcd)
        for G in enumerate_all_cyclic(alpha, beta):
            assert G.ell_gcds == _gcd_pair(G)
            assert code_type(G) == reference_code_type(G)
            assert gray_linear_criterion(G) == reference_criterion(G)

    @pytest.mark.parametrize("alpha,beta", SHARED_GCD_CELLS)
    def test_search_is_the_filtered_reference(self, alpha, beta):
        ref = [(G, reference_code_type(G), reference_criterion(G))
               for G in enumerate_all_cyclic(alpha, beta)]
        gamma, delta, kappa = ref[len(ref) // 2][1].triple
        filters = [
            (None, None, None, False),
            (None, None, None, True),
            (gamma, delta, kappa, False),
            (gamma, delta, kappa, True),
            (None, delta, None, False),
            (gamma, None, None, True),
            (None, None, kappa, False),
        ]
        for g_, d_, k_, linear_only in filters:
            want = [
                (G, rep) for G, ct, rep in ref
                if g_ in (None, ct.gamma) and d_ in (None, ct.delta) and k_ in (None, ct.kappa)
                and (rep.verdict or not linear_only)
            ]
            assert search_by_type(alpha, beta, g_, d_, k_, linear_only) == want

    @pytest.mark.parametrize("alpha,beta", [(4, 15), (2, 21), (2, 31)])
    def test_one_report_per_criterion_input(self, alpha, beta, monkeypatch):
        # a report depends only on (f~, g~, b / gcd(b, ell*g~)); the search
        # evaluates each such input at most once
        seen = []
        real = linimage._criterion

        def counted(ft, quot, tensor):
            seen.append((ft, tensor, quot))
            return real(ft, quot, tensor)

        monkeypatch.setattr(linimage, "_criterion", counted)
        results = search_by_type(alpha, beta)
        inputs = {(reduce_mod2(G.f), reduce_mod2(G.g), G.b // _gcd_pair(G)[1]) for G, _ in results}
        assert len(seen) == len(set(seen)) <= len(inputs)

    def test_criterion_guard_rejects_a_gcd_that_does_not_divide_b(self):
        # x divides no b, since b divides x^alpha - 1
        G = next(enumerate_all_cyclic(3, 7))
        gbl, gblg = G.ell_gcds
        skewed = tuple.__new__(CyclicGenerators, (*G[:7], (gbl, BinPoly.from_bits(gblg.bits << 1))))
        with pytest.raises(InternalError, match="failed to divide b"):
            gray_linear_criterion(skewed)

    @pytest.mark.parametrize("alpha,beta", [(4, 15), (6, 9), (2, 21)])
    def test_one_tensor_per_g_tilde(self, alpha, beta, monkeypatch):
        # the tensor depends only on g~; the search takes it once per
        # distinct g~ in each call, not once per (b, f, h, g) run
        seen = []
        real = linimage.tensor_square

        def counted(gt, n):
            seen.append(gt)
            return real(gt, n)

        monkeypatch.setattr(linimage, "tensor_square", counted)
        for _ in range(2):
            seen.clear()
            results = search_by_type(alpha, beta)
            assert len(seen) == len(set(seen)) == len({reduce_mod2(G.g) for G, _ in results})

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(1, 1), (3, 3), (2, 7), (4, 5), (6, 9), (5, 15)]), st.data())
    def test_validated_tuples_compute_the_pair(self, cell, data):
        alpha, beta = cell
        seeded = data.draw(st.sampled_from(list(enumerate_all_cyclic(alpha, beta))))
        # an ell given past deg b is reduced, which leaves both gcds as they are
        pad = BinPoly.from_bits(data.draw(st.integers(0, 7))) * seeded.b
        calls = []
        real = cycliccode.gcd2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycliccode, "gcd2", lambda p, q: calls.append((p, q)) or real(p, q))
            G = CyclicGenerators(alpha, beta, seeded.b, seeded.ell + pad, seeded.f, seeded.h, seeded.g)
            # computed at construction, from the reduced ell, and only read after
            assert (G.b, G.ell) in calls and (G.b, G.ell * reduce_mod2(G.g)) in calls
            mp.setattr(cycliccode, "gcd2", _no_gcd)
            assert G == seeded
            assert G.ell_gcds == _gcd_pair(G) == seeded.ell_gcds
        assert code_type(G) == reference_code_type(G) == code_type(seeded)
        assert gray_linear_criterion(G) == reference_criterion(G) == gray_linear_criterion(seeded)
