import logging
import os
import pickle
import subprocess
import sys
import tracemalloc
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from z2z4 import cycliccode, cyclofield
from z2z4.additive import Code, MixedVector, WordCodec
from z2z4.cycliccode import (
    CyclicGenerators,
    _ell_lattice,
    _gcd_violations,
    _packed_shifts,
    _ell_violations,
    _triple_violations,
    ResidueWord,
    code_type,
    enumerate_all_cyclic,
    enumerate_code,
    factor_triples,
    order_two_generators,
    realize,
    span_words,
    three_generator_form,
    violations,
)
from z2z4.cyclofield import divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4
from z2z4.errors import CapacityError, DomainError, InternalError
from z2z4.polyring import BinPoly, QuatPoly, clgcd, clmul, cyclic_reduce, reduce_mod2
from z2z4.reproduce import mixed_candidates
from binpoly_oracle import padded
from candidate_oracle import (
    per_triple_cyclic_tuples,
    reference_cyclic_tuples,
    reference_factor_triples,
)
from word_oracle import poly_star, to_vector


class TestStar:
    def test_identity(self, length9_code):
        w = length9_code.generator_words()[1]
        assert poly_star(QuatPoly.one(), w) == w

    def test_x_is_shift(self, length9_code):
        w = length9_code.generator_words()[1]
        assert to_vector(poly_star(QuatPoly.x(), w)) == to_vector(w).shift()

    def test_g_times_second_generator(self, length9_code):
        # g * (ell | fh+2f) = (ell*g~ | 2fg)
        G = length9_code
        got = poly_star(G.g, G.generator_words()[1])
        want = ResidueWord(
            G.alpha,
            G.beta,
            cyclic_reduce(G.ell * reduce_mod2(G.g), G.alpha),
            cyclic_reduce(QuatPoly((2,)) * G.f * G.g, G.beta),
        )
        assert got == want


class TestValidate:
    def test_known_good(self, length9_code):
        assert violations(3, 3, length9_code.b, length9_code.ell,
                          length9_code.f, length9_code.h, length9_code.g) == []

    def test_bad_product_reported(self):
        errs = violations(
            3, 3, BinPoly.one(), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.one(), QuatPoly.parse("x^2+x+1"),
        )
        assert any("f*h*g" in e for e in errs)

    def test_even_beta_rejected(self):
        with pytest.raises(DomainError):
            CyclicGenerators(1, 2, BinPoly.one(), BinPoly.zero(),
                             QuatPoly.one(), QuatPoly.one(), QuatPoly.xn_minus_1(2))

    def test_divisibility_violation_rejected(self):
        # b = x+1, ell = 1, f = x+3 fails b | (x^beta-1)/f~ * gcd(b, ell)
        with pytest.raises(DomainError):
            CyclicGenerators(1, 1, BinPoly.parse("x+1"), BinPoly.one(),
                             QuatPoly.parse("x+3"), QuatPoly.one(), QuatPoly.one())

    def test_ell_auto_reduced(self, caplog):
        with caplog.at_level(logging.INFO, logger="z2z4"):
            gens = CyclicGenerators(
                3, 3, BinPoly.parse("x^2+x+1"), BinPoly.parse("x^2+x"),
                QuatPoly.one(), QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3"),
            )
        assert gens.ell.degree < gens.b.degree

    def test_ell_reduction_preserves_code(self, length9_code):
        # ell and ell + b generate the same code
        raised = CyclicGenerators(
            3, 3, length9_code.b, length9_code.ell + length9_code.b,
            length9_code.f, length9_code.h, length9_code.g,
        )
        assert enumerate_code(raised) == enumerate_code(length9_code)


# the reprs of ``length9_code`` and of the first tuple at (2, 7), as the
# dataclass record that the tuple-backed one replaced printed them
DATACLASS_REPRS = [
    "CyclicGenerators(alpha=3, beta=3, b=BinPoly('x^2+x+1'), ell=BinPoly('1'), "
    "f=QuatPoly('1'), h=QuatPoly('x^2+x+1'), g=QuatPoly('x+3'))",
    "CyclicGenerators(alpha=2, beta=7, b=BinPoly('1'), ell=BinPoly('0'), "
    "f=QuatPoly('x^7+3'), h=QuatPoly('1'), g=QuatPoly('1'))",
]


class TestRecord:
    """Records built by the candidate loop and validated ones are one kind
    of value."""

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (3, 7), (6, 9), (2, 15)])
    def test_loop_and_validated_records_agree(self, alpha, beta):
        for G in enumerate_all_cyclic(alpha, beta):
            V = CyclicGenerators(G.alpha, G.beta, G.b, G.ell, G.f, G.h, G.g)
            assert type(G) is type(V) is CyclicGenerators
            assert G == V and hash(G) == hash(V) and G.ell_gcds == V.ell_gcds
            assert len({G, V}) == 1

    def test_keyword_construction(self, length9_code):
        G = length9_code
        assert CyclicGenerators(alpha=3, beta=3, b=G.b, ell=G.ell, f=G.f, h=G.h, g=G.g) == G

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for G in enumerate_all_cyclic(3, 7):
            V = CyclicGenerators(G.alpha, G.beta, G.b, G.ell, G.f, G.h, G.g)
            for record in (G, V):
                back = pickle.loads(pickle.dumps(record, protocol))
                assert type(back) is CyclicGenerators
                assert back == record and back.ell_gcds == record.ell_gcds

    def test_repr_is_the_dataclass_repr(self, length9_code):
        loop = next(enumerate_all_cyclic(2, 7))
        for G, text in zip((length9_code, loop), DATACLASS_REPRS):
            assert repr(G) == text
            assert repr(CyclicGenerators(G.alpha, G.beta, G.b, G.ell, G.f, G.h, G.g)) == text

    def test_fields_cannot_be_assigned(self, length9_code):
        loop = next(enumerate_all_cyclic(3, 3))
        for G in (length9_code, loop):
            with pytest.raises(AttributeError):
                G.ell = BinPoly.zero()
            with pytest.raises(AttributeError):
                G.ell_gcds = (G.b, G.b)
            with pytest.raises(AttributeError):
                G.extra = 1


class TestTypeFormulas:
    def test_length9(self, length9_code):
        ct = code_type(length9_code)
        assert ct.triple == (3, 1, 3)
        assert (ct.kappa1, ct.kappa2, ct.delta1, ct.delta2) == (1, 2, 0, 1)
        assert ct.size == len(enumerate_code(length9_code))

    def test_degenerate_full_binary_kill(self):
        # b = x^alpha - 1 makes the binary generator the zero word
        gens = CyclicGenerators(
            2, 3, BinPoly.xn_minus_1(2), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.one(), QuatPoly.xn_minus_1(3),
        )
        ct = code_type(gens)
        assert (ct.gamma, ct.delta, ct.kappa) == (0, 3, 0)
        assert len(enumerate_code(gens)) == ct.size


class TestOrderTwoGenerators:
    def test_separable_case(self):
        gens = CyclicGenerators(
            2, 3, BinPoly.parse("x+1"), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3"),
        )
        w1, w2 = order_two_generators(gens)
        assert w1.qpart.is_zero and w1.bpart == gens.b
        assert w2.bpart.is_zero and w2.qpart == QuatPoly((2,))

    def test_length9_value_and_span(self, length9_code):
        w1, w2 = order_two_generators(length9_code)
        assert w1 == ResidueWord(3, 3, length9_code.b, QuatPoly.zero())
        assert w2 == ResidueWord(3, 3, BinPoly.parse("x^2+x"), QuatPoly((2,)))
        span = span_words(WordCodec(3, 3), [w1, w2], [3, 3])
        assert span == enumerate_code(length9_code).order_two_subcode()


class TestThreeGeneratorForm:
    def test_separable_case(self):
        gens = CyclicGenerators(
            2, 3, BinPoly.parse("x+1"), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3"),
        )
        t1, t2, t3 = three_generator_form(gens)
        assert t1.bpart == gens.b and t1.qpart.is_zero
        assert t2.bpart.is_zero and t3.bpart.is_zero

    def test_span_equality(self, length9_code):
        t1, t2, t3 = three_generator_form(length9_code)
        span = span_words(WordCodec(3, 3), [t1, t2, t3], [3, 3, 3])
        assert span == enumerate_code(length9_code)


class TestRealize:
    def test_length9(self, length9_code):
        m = realize(length9_code)
        assert len(m.rows) == 6
        code = Code.from_matrix(m)
        assert len(code) == 32
        assert code.is_cyclic()

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 3), (4, 7), (2, 9)])
    def test_rows_are_the_generator_shifts(self, alpha, beta):
        for gens in list(enumerate_all_cyclic(alpha, beta))[:40]:
            rows = []
            for word, count in zip(gens.generator_words(), (alpha, beta)):
                v = to_vector(word)
                for _ in range(count):
                    rows.append(v)
                    v = v.shift()
            assert realize(gens).rows == tuple(rows)
            assert enumerate_code(gens) == Code.from_matrix(realize(gens))

    def test_plane_packing_matches_vector_packing(self):
        """Every generator word of the sweep codes (the pair, the order-two
        pair and the three-generator form), packed from its residues' bits,
        is the packed vector of its coefficients."""
        for gens in mixed_candidates():
            codec = WordCodec(gens.alpha, gens.beta)
            words = [
                *gens.generator_words(), *order_two_generators(gens), *three_generator_form(gens)
            ]
            assert _packed_shifts(codec, words, [1] * len(words)) == [
                codec.pack(to_vector(w)) for w in words
            ]

    def test_unit_generator_gives_full_space(self):
        gens = CyclicGenerators(
            1, 1, BinPoly.one(), BinPoly.zero(),
            QuatPoly.one(), QuatPoly.one(), QuatPoly.xn_minus_1(1),
        )
        assert len(enumerate_code(gens)) == 2 * 4

    def test_zero_generators_give_zero_code(self):
        gens = CyclicGenerators(
            2, 3, BinPoly.xn_minus_1(2), BinPoly.zero(),
            QuatPoly.xn_minus_1(3), QuatPoly.one(), QuatPoly.one(),
        )
        assert len(enumerate_code(gens)) == 1

    def test_beta_shifts_suffice(self, length9_code):
        # the second family needs only beta shifts once the divisibility
        # conditions hold; lcm-many shifts give the same span
        g1, g2 = length9_code.generator_words()
        full = span_words(WordCodec(3, 3), [g1, g2], [3, lcm(3, 3)])
        assert full == enumerate_code(length9_code)


class TestSeparable:
    def test_separable_and_cyclic(self):
        for f, h, g in [
            (QuatPoly.one(), QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3")),
            (QuatPoly.parse("x+3"), QuatPoly.one(), QuatPoly.parse("x^2+x+1")),
        ]:
            gens = CyclicGenerators(2, 3, BinPoly.parse("x+1"), BinPoly.zero(), f, h, g)
            code = enumerate_code(gens)
            assert code.is_separable() and code.is_cyclic()

    def test_trivial_b_full_binary_block(self):
        gens = CyclicGenerators(
            2, 3, BinPoly.one(), BinPoly.zero(), QuatPoly.one(), QuatPoly.one(), QuatPoly.xn_minus_1(3)
        )
        code = enumerate_code(gens)
        assert code.is_separable()
        assert len(code.puncture_x()) == 4

    def test_separable_iff_projections_cyclic(self, cyclic_projections_matrix):
        # non-separable counterexample: projections cyclic, code not cyclic
        code = Code.from_matrix(cyclic_projections_matrix)
        assert code.puncture_x().is_cyclic() and code.puncture_y().is_cyclic()
        assert not code.is_cyclic() and not code.is_separable()


class TestEnumerateAll:
    def test_alpha1_beta1_explicit(self):
        got = [
            (str(G.b), str(G.ell), str(G.f), str(G.h), str(G.g))
            for G in enumerate_all_cyclic(1, 1)
        ]
        assert got == [
            ("1", "0", "x+3", "1", "1"),
            ("1", "0", "1", "1", "x+3"),
            ("1", "0", "1", "x+3", "1"),
            ("x+1", "0", "x+3", "1", "1"),
            ("x+1", "0", "1", "1", "x+3"),
            ("x+1", "1", "1", "1", "x+3"),
            ("x+1", "0", "1", "x+3", "1"),
            ("x+1", "1", "1", "x+3", "1"),
        ]

    def test_alpha3_beta3_count_frozen(self):
        assert sum(1 for _ in enumerate_all_cyclic(3, 3)) == 96

    def test_alpha2_beta7_type_constraints(self):
        # candidates with gamma=2, delta=3 have deg(g)=3 and deg(b)=deg(h)<=2
        found = [
            G
            for G in enumerate_all_cyclic(2, 7)
            if code_type(G).gamma == 2 and code_type(G).delta == 3
        ]
        assert found
        for G in found:
            assert G.g.degree == 3
            assert G.b.degree == G.h.degree <= 2

    def test_even_beta_rejected(self):
        with pytest.raises(DomainError):
            list(enumerate_all_cyclic(2, 2))

    def test_all_yielded_codes_are_cyclic_with_expected_size(self):
        for G in enumerate_all_cyclic(2, 3):
            code = enumerate_code(G)
            assert code.is_cyclic()
            assert len(code) == code_type(G).size

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5, 6])
    def test_matches_the_full_check_loop(self, alpha):
        for beta in (1, 3, 5, 7, 9):
            got = [G.to_json() for G in enumerate_all_cyclic(alpha, beta)]
            assert got == [G.to_json() for G in reference_cyclic_tuples(alpha, beta)]

    def test_capacity_is_an_explicit_bound(self):
        # the largest code at (2,3) is the whole space, 2^(2 + 2*3) words
        assert sum(1 for _ in enumerate_all_cyclic(2, 3, capacity=None)) == 39
        assert sum(1 for _ in enumerate_all_cyclic(2, 3, capacity=1 << 8)) == 39
        with pytest.raises(CapacityError):
            list(enumerate_all_cyclic(2, 3, capacity=(1 << 8) - 1))

    @pytest.mark.parametrize("beta", [1, 3, 7, 15])
    def test_factor_triples_split_xn_minus_1(self, beta):
        triples = factor_triples(beta)
        assert len(triples) == 3 ** len(factor_xn_minus_1_z4(beta))
        assert all(f * h * g == QuatPoly.xn_minus_1(beta) for f, h, g in triples)
        keys = [(h.coeffs, g.coeffs) for _, h, g in triples]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("beta", range(1, 46, 2))
    def test_factor_triples_match_the_role_by_role_oracle(self, beta):
        def planes(triples):
            return [tuple((p.lo, p.hi) for p in t) for t in triples]

        assert planes(factor_triples(beta)) == planes(reference_factor_triples(beta))

    @pytest.mark.parametrize("beta", [1, 7, 15, 21, 45])
    def test_one_product_per_factor_subset(self, beta, monkeypatch):
        # the triples share the products of the 2^k factor subsets: the
        # empty subset is one, and every other takes one multiplication
        factors = factor_xn_minus_1_z4(beta)
        monkeypatch.setattr(cycliccode, "factor_xn_minus_1_z4", lambda n: factors)
        calls = []
        real = QuatPoly.__mul__

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(QuatPoly, "__mul__", counted)
        triples = factor_triples(beta)
        assert len(calls) == 2 ** len(factors) - 1
        assert len({id(p) for t in triples for p in t}) == 2 ** len(factors)

    def test_one_lift_per_factor_per_length(self, monkeypatch):
        # the factors of x^15 - 1 are lifted once, when its context is
        # built, and every later call shares them
        lifts = []
        real = cyclofield.graeffe_lift

        def counted(p, n):
            lifts.append((p, n))
            return real(p, n)

        monkeypatch.setattr(cyclofield, "graeffe_lift", counted)
        cyclofield._context.cache_clear()
        list(enumerate_all_cyclic(1, 15))
        assert [p for p, n in lifts if n == 15] == list(cyclofield.factor_xn_minus_1_z2(15))
        lifts.clear()
        list(enumerate_all_cyclic(1, 15))
        factor_xn_minus_1_z4(15)
        assert lifts == []

    def test_factor_assignments_cover_roles(self):
        # every factor of x^3-1 appears in each of the three roles
        fs = set(factor_xn_minus_1_z4(3))
        seen = {f: set() for f in fs}
        for G in enumerate_all_cyclic(1, 3):
            for fac in fs:
                if fac.divides(G.f):
                    seen[fac].add("f")
                if fac.divides(G.h):
                    seen[fac].add("h")
                if fac.divides(G.g):
                    seen[fac].add("g")
        assert all(roles == {"f", "h", "g"} for roles in seen.values())


class TestEllLattice:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([1, 3, 5, 7, 9, 15]), st.data())
    def test_conditions_hold_iff_lattice_divides(self, alpha, beta, data):
        b = data.draw(st.sampled_from(divisors_of_xn_minus_1_z2(alpha)))
        f, h, g = data.draw(st.sampled_from(factor_triples(beta)))
        cof = BinPoly.xn_minus_1(beta) // reduce_mod2(f)
        ht, gt = reduce_mod2(h), reduce_mod2(g)
        step = _ell_lattice(b, cof, ht, gt)
        assert step.divides(b)
        for bits in range(1 << int(b.degree)):
            ell = BinPoly.from_bits(bits)
            assert (not _ell_violations(b, ell, cof, ht, gt)) == step.divides(ell)

    @pytest.mark.parametrize("alpha,beta,count", [(12, 9, 2691), (2, 31, 9477)])
    def test_large_cells_yield_only_valid_tuples(self, alpha, beta, count):
        n, last = 0, None
        for G in enumerate_all_cyclic(alpha, beta):
            assert not violations(alpha, beta, G.b, G.ell, G.f, G.h, G.g)
            # within one (b, f, h, g) the ell come by increasing bit string
            key = (G.b, G.f, G.h, G.g)
            if last is not None and last[0] == key:
                assert G.ell.bits > last[1]
            last = key, G.ell.bits
            n += 1
        assert n == count

    @pytest.mark.parametrize("alpha,beta", [(3, 7), (4, 5), (6, 3)])
    def test_capacity_raises_at_the_first_oversized_pair(self, alpha, beta):
        ref = list(reference_cyclic_tuples(alpha, beta))
        sizes = sorted({code_type(G).size for G in ref})
        for capacity in sizes[:-1]:
            cut = next(i for i, G in enumerate(ref) if code_type(G).size > capacity)
            got = []
            with pytest.raises(CapacityError):
                for G in enumerate_all_cyclic(alpha, beta, capacity=capacity):
                    got.append(G.to_json())
            assert got == [G.to_json() for G in ref[:cut]]

    def test_broken_triple_is_an_internal_error(self, monkeypatch):
        # every triple is a partition of the factors, so a fault in them is
        # seen once per call, before the first tuple
        lin, quad = factor_xn_minus_1_z4(3)
        minus = QuatPoly((3,))
        # a squared factor: x^3 - 1 does not split; both negated: it does,
        # and neither factor is monic
        for factors in ((lin * lin, quad), (minus * lin, minus * quad)):
            monkeypatch.setattr(cycliccode, "factor_xn_minus_1_z4", lambda n, fs=factors: fs)
            with pytest.raises(InternalError):
                next(enumerate_all_cyclic(1, 3))

    @pytest.mark.parametrize("beta", [1, 3, 5, 7, 9, 15, 21, 31, 45])
    def test_every_triple_passes_the_full_check(self, beta):
        # the factors are proved once per length in cyclofield and each
        # triple only on bit masks; the full per-triple check is the oracle
        for f, h, g in factor_triples(beta):
            assert _triple_violations(beta, f, h, g) == []

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=13, max_size=13))
    def test_sampled_triples_at_63_pass_the_full_check(self, roles):
        # x^63 - 1 has 13 factors, so 3^13 triples: build a sample of them
        # the way factor_triples does, from a role for each factor
        parts = [QuatPoly.one()] * 3
        for fac, role in zip(factor_xn_minus_1_z4(63), roles, strict=True):
            parts[role] = parts[role] * fac
        assert _triple_violations(63, *parts) == []

    def test_wrong_z4_lift_is_an_internal_error(self, monkeypatch):
        good = factor_xn_minus_1_z4(7)[-1]
        bad = QuatPoly(((good.coeffs[0] + 2) % 4,) + good.coeffs[1:])
        # the mod-2 images agree, so only the check of the Z4 factors sees it
        assert bad != good and reduce_mod2(bad) == reduce_mod2(good)
        real = cyclofield.graeffe_lift
        monkeypatch.setattr(
            cyclofield, "graeffe_lift", lambda p, n: bad if p == reduce_mod2(good) else real(p, n)
        )
        with pytest.raises(InternalError):
            cyclofield._CycloContext(7)

    def test_repeated_factor_is_an_internal_error(self, monkeypatch):
        factors = factor_xn_minus_1_z4(7)
        monkeypatch.setattr(cycliccode, "factor_xn_minus_1_z4", lambda n: factors + factors[-1:])
        with pytest.raises(InternalError):
            next(enumerate_all_cyclic(1, 7))

    def test_broken_b_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(cycliccode, "divisors_of_xn_minus_1_z2", lambda n: (BinPoly([1, 1, 1]),))
        with pytest.raises(InternalError):
            next(enumerate_all_cyclic(2, 3))

    def test_guard_rejects_an_ell_off_the_lattice(self, monkeypatch):
        monkeypatch.setattr(cycliccode, "_ell_lattice", lambda b, cof, ht, gt: BinPoly.one())
        with pytest.raises(InternalError):
            list(enumerate_all_cyclic(3, 3))

    def test_yielded_tuples_skip_the_full_check(self, monkeypatch):
        calls = []
        real = cycliccode.violations
        monkeypatch.setattr(cycliccode, "violations", lambda *a: calls.append(a) or real(*a))
        assert sum(1 for _ in enumerate_all_cyclic(3, 7)) > 0
        assert calls == []
        CyclicGenerators(1, 1, BinPoly.one(), BinPoly.zero(), *factor_triples(1)[0])
        assert len(calls) == 1

    def test_yielded_tuples_are_as_small_as_validated_ones(self):
        # each in a fresh interpreter, so that no cache filled by one list
        # counts against the other
        def bytes_per_tuple(expr):
            code = (
                "import tracemalloc\n"
                "from z2z4.cycliccode import enumerate_all_cyclic\n"
                "from candidate_oracle import reference_cyclic_tuples\n"
                f"tracemalloc.start(); kept = {expr}\n"
                "print(tracemalloc.get_traced_memory()[0] / len(kept))\n"
            )
            here = os.path.dirname(__file__)
            path = os.pathsep.join([os.path.join(here, "..", "src"), here])
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            return float(out.stdout)

        yielded = bytes_per_tuple("list(enumerate_all_cyclic(3, 15))")
        validated = bytes_per_tuple("list(reference_cyclic_tuples(3, 15))")
        assert yielded <= validated


# the four search cells of the benchmark, then cells with 1, 2 and 3 factors
# shared by x^alpha - 1 and x^beta - 1, and even alpha (b with repeated roots)
SIGNATURE_CELLS = [
    (4, 15), (3, 15), (2, 21), (6, 9), (8, 15), (12, 9), (6, 15), (2, 31), (7, 7), (14, 7),
    (7, 21),
]


class TestSignatureRows:
    """The loop takes one ell row per (b, signature), where the signature of
    (f, h, g) is (gcd(h~, S), gcd(g~, S)), S = gcd(x^alpha - 1, x^beta - 1)."""

    @pytest.mark.parametrize("alpha, beta", SIGNATURE_CELLS)
    def test_matches_the_per_triple_loop(self, alpha, beta):
        def tuples(loop):
            return [
                (G.to_json(), G.ell_gcds[0].bits, G.ell_gcds[1].bits) for G in loop(alpha, beta)
            ]

        assert tuples(enumerate_all_cyclic) == tuples(per_triple_cyclic_tuples)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([1, 3, 5, 7, 9, 15, 21]), st.data())
    def test_the_signature_decides_the_ell_conditions(self, alpha, beta, data):
        b = data.draw(st.sampled_from(divisors_of_xn_minus_1_z2(alpha)))
        f, h, g = data.draw(st.sampled_from(factor_triples(beta)))
        bb = b.bits
        shared = clgcd(BinPoly.xn_minus_1(alpha).bits, BinPoly.xn_minus_1(beta).bits)
        ht, gt = reduce_mod2(h).bits, reduce_mod2(g).bits
        cof = (BinPoly.xn_minus_1(beta) // reduce_mod2(f)).bits
        for p in (ht, gt, cof):
            assert clgcd(bb, p) == clgcd(bb, clgcd(p, shared))
        hs, gs = clgcd(ht, shared), clgcd(gt, shared)
        for e in range(1 << int(b.degree)):
            gbl, gblg = clgcd(bb, e), clgcd(bb, clmul(e, gt))
            assert clgcd(bb, clmul(e, gs)) == gblg
            assert _gcd_violations(bb, clmul(hs, gs), hs, gbl, gblg) == _gcd_violations(
                bb, cof, ht, gbl, gblg
            )

    def test_one_ell_lattice_per_b_and_signature(self, monkeypatch):
        calls = []
        real = cycliccode._ell_lattice

        def counting(b, cof, ht, gt):
            calls.append((b.bits, cof.bits, ht.bits, gt.bits))
            return real(b, cof, ht, gt)

        monkeypatch.setattr(cycliccode, "_ell_lattice", counting)
        for alpha, beta in SIGNATURE_CELLS[:4]:
            before = len(calls)
            assert sum(1 for _ in enumerate_all_cyclic(alpha, beta)) > 0
            assert len(set(calls[before:])) == len(calls) - before
        # 3 signatures for one shared factor, 9 for two: 5*3 + 4*9 + 3*3 + 9*9;
        # one call per (b, f, h, g) made 4617
        assert len(calls) <= 141

    def test_first_tuple_needs_no_list_of_triples(self):
        # 3^13 triples at beta = 63: each h keeps 2 bytes a g mask, sorted
        # on first use; listing every triple before the first tuple took
        # 359 MB
        tracemalloc.start()
        try:
            next(enumerate_all_cyclic(1, 63))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    @pytest.mark.parametrize("alpha, beta, message", [
        (0, 3, "length must be positive"),
        (1, 2, "beta must be odd"),
    ])
    def test_bad_lengths_are_domain_errors(self, alpha, beta, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            next(enumerate_all_cyclic(alpha, beta))


class TestPunctureGenerators:
    @pytest.mark.parametrize("alpha,beta", [(2, 3), (3, 3)])
    def test_puncture_generators(self, alpha, beta):
        for G in enumerate_all_cyclic(alpha, beta):
            code = enumerate_code(G)
            from z2z4.polyring import gcd2

            px_gen = gcd2(G.b, G.ell)
            px = Code.from_vectors_span(
                alpha, 0,
                [MixedVector(padded(cyclic_reduce(BinPoly.from_bits(1 << i) * px_gen, alpha), alpha), ())
                 for i in range(alpha)],
            )
            py = Code.from_vectors_span(
                0, beta,
                [MixedVector((), padded(cyclic_reduce(QuatPoly.from_planes(1 << i, 0) * G.fh_plus_2f, beta), beta))
                 for i in range(beta)],
            )
            assert code.puncture_x() == px
            assert code.puncture_y() == py
