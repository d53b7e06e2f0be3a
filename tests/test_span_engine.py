"""Differential tests: the coset span engine, the coset structure a code
keeps (size, equality, images, order-two subcode), membership by
reduction in codes and binary block codes, the exhaustive closure oracle,
the whole-code word maps and the generator-level queries against the
per-word and word-set references in ``span_oracle``, and the packed
standard form against the list reduction in ``standard_form_oracle``."""

import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from z2z4.additive import (
    Code,
    GeneratorMatrix,
    MixedVector,
    PlaneShift,
    WordCodec,
    _coset_min,
    _coset_words,
    _unit_echelon,
    gray_image_is_linear,
    gray_is_linear_oracle,
    standard_form,
)
from z2z4 import additive, linimage
from z2z4.cycliccode import code_type, enumerate_all_cyclic, enumerate_code, realize
from z2z4.errors import CapacityError
from z2z4.linimage import (
    BinaryBlockCode,
    DoubleCyclicGenerators,
    _z4_code,
    double_cyclic_span,
    ext_psi_image,
    is_double_cyclic,
    psi_image_generators,
)
from z2z4.polyring import BinPoly
from z2z4.reproduce import (
    check_candidate,
    cyclic_projections_matrix,
    length9_generators,
    mixed_candidates,
    nonlinear_image_matrix,
    z4_candidates,
)
from span_oracle import (
    basis_image_is_linear,
    double_shift,
    ext_gray_bits,
    ext_psi_bits,
    matrix_generator_oracle,
    orbit_span,
    shift_span,
    shift_word,
    word_block_equal,
    word_is_cyclic,
    word_is_double_cyclic,
    word_order_two_subcode,
    word_puncture_x,
    word_puncture_y,
    word_set_closure,
    word_set_contains,
    word_set_equal,
    word_set_is_cyclic,
)
from standard_form_oracle import list_standard_form
from word_oracle import order


@st.composite
def generator_matrices(draw, max_alpha=3, max_beta=4, max_rows=5):
    """Random matrices, including empty and width-1 blocks, zero and
    duplicate rows, all-order-two rows, and rows sharing a mod-2 pattern."""
    alpha = draw(st.integers(0, max_alpha))
    beta = draw(st.integers(0, max_beta))
    return draw(matrices_of_shape(alpha, beta, max_rows))


@st.composite
def matrices_of_shape(draw, alpha, beta, max_rows=5):
    """``generator_matrices`` with the block lengths given."""
    bits = st.lists(st.integers(0, 1), min_size=alpha, max_size=alpha).map(tuple)
    halves = st.lists(st.integers(0, 1), min_size=beta, max_size=beta).map(tuple)
    rows: list[MixedVector] = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "order_two", "same_t"]))
        if kind in ("duplicate", "same_t") and not rows:
            kind = "random"
        if kind == "zero":
            row = MixedVector((0,) * alpha, (0,) * beta)
        elif kind == "duplicate":
            row = draw(st.sampled_from(rows))
        elif kind == "order_two":
            row = MixedVector(draw(bits), tuple(2 * c for c in draw(halves)))
        elif kind == "same_t":
            t = [c % 2 for c in draw(st.sampled_from(rows)).quat]
            row = MixedVector(draw(bits), tuple(c + 2 * h for c, h in zip(t, draw(halves))))
        else:
            quats = st.lists(st.integers(0, 3), min_size=beta, max_size=beta).map(tuple)
            row = MixedVector(draw(bits), draw(quats))
        rows.append(row)
    if draw(st.booleans()):
        rows = [r for r in rows if order(r) != 4]  # an all-order-two matrix
    return GeneratorMatrix(alpha, beta, tuple(rows))


def _orbit_code(matrix: GeneratorMatrix) -> frozenset[int]:
    codec = WordCodec(matrix.alpha, matrix.beta)
    return orbit_span(codec, [codec.pack(r) for r in matrix.rows], 1 << 30)


def _peak_bytes_until_capacity_error(build, capacity: int) -> int:
    """Peak traced allocation of ``build()`` with Z2Z4_CAPACITY set to
    ``capacity``; the call must raise CapacityError."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("Z2Z4_CAPACITY", str(capacity))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestCosetSpan:
    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    def test_matches_orbit_span(self, matrix):
        assert Code.from_matrix(matrix).words == _orbit_code(matrix)

    @settings(max_examples=100, deadline=None)
    @given(generator_matrices())
    def test_capacity_bound_is_the_code_size(self, matrix):
        size = len(_orbit_code(matrix))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("Z2Z4_CAPACITY", str(size))
            assert len(Code.from_matrix(matrix).words) == size
            if size == 1:  # 0 is not a valid setting: lower the default instead
                mp.delenv("Z2Z4_CAPACITY")
                mp.setattr(additive, "DEFAULT_CAPACITY", 0)
            else:
                mp.setenv("Z2Z4_CAPACITY", str(size - 1))
            # past the bound the code is built and sized; its word list raises
            code = Code.from_matrix(matrix)
            assert len(code) == size
            with pytest.raises(CapacityError):
                code.words

    def test_over_capacity_raises_before_allocating(self):
        # 2^20 words: four binary unit rows and eight quaternary unit rows
        rows = tuple(
            MixedVector(tuple(int(i == j) for i in range(4)), (0,) * 8) for j in range(4)
        ) + tuple(
            MixedVector((0,) * 4, tuple(int(i == j) for i in range(8))) for j in range(8)
        )
        matrix = GeneratorMatrix(4, 8, rows)
        for capacity in (1 << 10, (1 << 20) - 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("Z2Z4_CAPACITY", str(capacity))
                assert len(Code.from_matrix(matrix)) == 1 << 20
            peak = _peak_bytes_until_capacity_error(lambda: Code.from_matrix(matrix).words, capacity)
            assert peak < 1 << 20


class TestPastTheBound:
    """A code past the capacity bound is built and sized, and answers
    membership, equality, the shift test and the ``generators`` closure,
    without building a coset representative; only listing raises."""

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices(), st.data())
    def test_matches_orbit_span(self, matrix, data):
        codec = WordCodec(matrix.alpha, matrix.beta)
        words = _orbit_code(matrix)
        assume(len(words) > 1)
        other = data.draw(st.one_of(
            matrices_of_shape(matrix.alpha, matrix.beta),
            st.just(_shifted_rows(matrix)),
        ))
        members = sorted(words)
        width = matrix.alpha + 2 * matrix.beta
        queries = members + codec.shift_words(members)
        queries += data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=30))
        patterns = {codec.tpattern(w) for w in words}
        closed = all((s & t) << codec.hoff in words for s in patterns for t in patterns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("Z2Z4_CAPACITY", str(len(words) - 1))
            code = Code.from_matrix(matrix)
            assert len(code) == len(words)
            assert [code.has_word(w) for w in queries] == [w in words for w in queries]
            assert (code == Code.from_matrix(other)) == (words == _orbit_code(other))
            assert code.is_cyclic() == words.issuperset(codec.shift_words(members))
            assert gray_is_linear_oracle(code, mode="generators").linear == closed
            assert code._reps is None
            with pytest.raises(CapacityError):
                code.words

    def test_sweep_codes_past_the_default_bound(self, monkeypatch):
        """Every code of alpha 1..4 and beta 15 with more than 2^24 words
        has the size of its type and is cyclic, and its ``generators``
        closure agrees with the gcd criterion."""
        monkeypatch.delenv("Z2Z4_CAPACITY", raising=False)
        big = [
            gens
            for alpha in (1, 2, 3, 4)
            for gens in enumerate_all_cyclic(alpha, 15)
            if code_type(gens).size > additive.DEFAULT_CAPACITY
        ]
        assert len(big) == 590
        for gens in big:
            code = enumerate_code(gens)
            assert len(code) == code_type(gens).size
            assert code.is_cyclic()
            oracle = gray_is_linear_oracle(code, mode="generators")
            assert oracle.linear == linimage.gray_linear_criterion(gens).verdict
            assert code._reps is None


class TestUnitEchelon:
    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    def test_pivots_and_rest(self, matrix):
        codec = WordCodec(matrix.alpha, matrix.beta)
        gens = [codec.pack(r) for r in matrix.rows]
        pivots, rest = _unit_echelon(codec, gens)

        def entry(w: int, col: int) -> int:
            return codec.unpack(w).quat[col]

        for col, u in pivots.items():
            assert entry(u, col) == 1
            assert all(entry(u, c) == 0 for c in pivots if c != col)
        assert all(codec.tpattern(r) == 0 for r in rest)
        assert all(entry(r, c) == 0 for r in rest for c in pivots)
        # every row ends up a pivot or in rest, and together they span the code
        assert len(pivots) + len(rest) == len(gens)
        assert Code.span(codec, [*pivots.values(), *rest]).words == _orbit_code(matrix)


def _same_standard_form(matrix: GeneratorMatrix) -> None:
    got, want = standard_form(matrix), list_standard_form(matrix)
    assert got.matrix.rows == want.matrix.rows
    assert got.code_type == want.code_type
    assert got.bin_perm == want.bin_perm
    assert got.quat_perm == want.quat_perm


class TestStandardFormOracle:
    @settings(max_examples=500, deadline=None)
    @given(generator_matrices(max_alpha=4, max_beta=6, max_rows=7))
    def test_matches_list_reduction(self, matrix):
        _same_standard_form(matrix)

    def test_matches_list_reduction_on_the_mixed_sweep(self):
        candidates = mixed_candidates()
        assert len(candidates) == 1008
        for gens in candidates:
            _same_standard_form(realize(gens))


class TestWordMaps:
    @settings(max_examples=200, deadline=None)
    @given(generator_matrices())
    def test_shift_matches_per_word(self, matrix):
        code = Code.from_matrix(matrix)
        codec = code.codec
        words = sorted(code.words)
        assert codec.shift_words(words) == [shift_word(codec, w) for w in words]
        assert code.is_cyclic() == all(shift_word(codec, w) in code.words for w in words)

    @settings(max_examples=200, deadline=None)
    @given(generator_matrices())
    def test_gray_maps_match_per_word(self, matrix):
        code = Code.from_matrix(matrix)
        codec = code.codec
        words = sorted(code.words)
        assert codec.gray_words(words) == [ext_gray_bits(codec, w) for w in words]
        if matrix.beta % 2:
            assert codec.psi_words(words) == [ext_psi_bits(codec, w) for w in words]

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    def test_image_check_matches_basis_reduction(self, matrix):
        code = Code.from_matrix(matrix)
        assert gray_image_is_linear(code) == basis_image_is_linear(code)

    @given(st.integers(0, 4), st.integers(0, 5), st.data())
    def test_plane_shift_matches_double_shift(self, r, s, data):
        words = data.draw(st.lists(st.integers(0, (1 << (r + s)) - 1), max_size=8))
        assert PlaneShift(r, s)(words) == [double_shift(r, s, w) for w in words]

    @pytest.mark.parametrize("alpha", range(5))
    def test_shifts_match_iterated_shift_words(self, alpha):
        """``shifts`` against one ``shift_words`` call per shift, for plane
        widths 0 and 1 too and counts past one period of either block."""
        rng = random.Random(alpha)
        for beta in range(10):
            codec = WordCodec(alpha, beta)
            for _ in range(6):
                w = rng.getrandbits(alpha + 2 * beta)
                want = [w]
                for _ in range(2 * max(alpha, beta) + 1):
                    want += codec.shift_words(want[-1:])
                for count in range(len(want) + 1):
                    assert codec.shifts(w, count) == want[:count]

    def test_psi_mask_closed_form(self):
        for alpha in range(5):
            for beta in range(300):
                want = sum(1 << (alpha + p) for p in range(1, beta - 1, 2))
                assert WordCodec(alpha, beta)._psi_mask == want


def _same_generator_queries(code: Code) -> None:
    """Generator-level shift, projections and order-two subcode equal
    their per-word versions."""
    assert code.is_cyclic() == word_is_cyclic(code)
    assert code.puncture_x().words == word_puncture_x(code)
    assert code.puncture_y().words == word_puncture_y(code)
    assert code.order_two_subcode().words == word_order_two_subcode(code)


_EDGE_MATRICES = [
    GeneratorMatrix.from_text("| 1 0 3\n| 0 0 0\n| 1 0 3\n| 0 1 0"),  # alpha = 0
    GeneratorMatrix.from_text("1 0 1 |\n0 0 0 |\n1 0 1 |\n0 1 1 |"),  # beta = 0
    GeneratorMatrix.from_text("1 0 | 2 1\n0 0 | 0 0\n1 0 | 2 1"),  # zero and duplicate rows
    GeneratorMatrix.from_text("1 0 | 2 0 2\n0 1 | 0 2 2\n1 1 | 2 2 0"),  # all order two
]


class TestGeneratorQueries:
    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[1])
    @example(_EDGE_MATRICES[2])
    def test_match_per_word(self, matrix):
        code = Code.from_matrix(matrix)
        assert code.gens == tuple(code.codec.pack(r) for r in matrix.rows)
        _same_generator_queries(code)
        # a code built from its word set takes its words as generators
        _same_generator_queries(Code.span(code.codec, code.words))

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[2])
    def test_generator_oracle_matches_matrix_rows(self, matrix):
        code = Code.from_matrix(matrix)
        assert gray_is_linear_oracle(code, mode="generators") == matrix_generator_oracle(
            code, matrix
        )

    def test_on_the_mixed_sweep_and_worked_examples(self):
        candidates = mixed_candidates()
        assert len(candidates) == 1008
        pairs = [(enumerate_code(gens), realize(gens)) for gens in candidates]
        examples = (nonlinear_image_matrix(), cyclic_projections_matrix())
        pairs += [(Code.from_matrix(m), m) for m in examples]
        for code, matrix in pairs:
            _same_generator_queries(code)
            assert gray_is_linear_oracle(code, mode="generators") == matrix_generator_oracle(
                code, matrix
            )


def _shifted_rows(matrix: GeneratorMatrix) -> GeneratorMatrix:
    return GeneratorMatrix(matrix.alpha, matrix.beta, tuple(r.shift() for r in matrix.rows))


class TestCosetStructure:
    """Size, equality, images and the order-two subcode from ``reps`` and
    ``basis``, against the enumerated words."""

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[1])
    @example(_EDGE_MATRICES[2])
    @example(_EDGE_MATRICES[3])
    def test_size_without_words(self, matrix):
        code = Code.from_matrix(matrix)
        size = len(code)
        assert code._words is None
        assert size == len(code.words) == len(_orbit_code(matrix))

    @staticmethod
    def _same_equality(first: GeneratorMatrix, second: GeneratorMatrix) -> None:
        want = Code.from_matrix(first).words == Code.from_matrix(second).words
        for built in ((), (0,), (1,), (0, 1)):
            codes = Code.from_matrix(first), Code.from_matrix(second)
            for k in built:
                codes[k].words
            a, b = codes
            assert (a == b) == want and (b == a) == want
            # the comparison builds no word set
            assert sum(c._words is not None for c in codes) == len(built)
            assert (a == b) == word_set_equal(a, b) and (b == a) == word_set_equal(b, a)

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices(), st.data())
    def test_equality_matches_word_sets(self, first, data):
        # the shifted rows and a reordered copy give equal-size codes, equal or not
        second = data.draw(
            st.one_of(
                matrices_of_shape(first.alpha, first.beta),
                st.just(_shifted_rows(first)),
                st.just(GeneratorMatrix(first.alpha, first.beta, first.rows[::-1])),
            )
        )
        self._same_equality(first, second)

    def test_equal_size_codes_that_differ(self):
        first = cyclic_projections_matrix()
        second = _shifted_rows(first)
        assert len(Code.from_matrix(first)) == len(Code.from_matrix(second))
        assert Code.from_matrix(first) != Code.from_matrix(second)
        self._same_equality(first, second)
        for matrix in _EDGE_MATRICES:
            self._same_equality(matrix, matrix)
            self._same_equality(matrix, _shifted_rows(matrix))

    def test_other_shapes_differ(self):
        zero = GeneratorMatrix.from_text("0 0 | 0")
        assert Code.from_matrix(zero) != Code.from_matrix(GeneratorMatrix.from_text("0 | 0 0"))
        assert Code.from_matrix(zero) != frozenset({0})

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices(max_beta=5))
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[1])
    @example(_EDGE_MATRICES[2])
    @example(_EDGE_MATRICES[3])
    def test_images_match_per_word(self, matrix):
        code = Code.from_matrix(matrix)
        codec = code.codec
        maps = [codec.shift_words, codec.gray_words]
        if matrix.beta % 2:
            maps.append(codec.psi_words)
            assert ext_psi_image(code).words == frozenset(codec.psi_words(code.words))
        for wordmap in maps:
            # an XOR-linear map takes the cosets r ^ C_2 to L(r) ^ span(L(basis))
            image = additive._coset_words(wordmap(code.reps), wordmap(code.basis.values()))
            assert image == frozenset(wordmap(code.words))

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[1])
    @example(_EDGE_MATRICES[2])
    @example(_EDGE_MATRICES[3])
    def test_order_two_subcode_matches_word_filter(self, matrix):
        code = Code.from_matrix(matrix)
        sub = code.order_two_subcode()
        assert sub.gens == tuple(code.basis.values())
        assert sub.words == word_order_two_subcode(code)

    @pytest.mark.parametrize("alpha, beta", [(22, 0), (0, 11), (10, 6)])
    def test_size_of_a_large_code_builds_no_word(self, alpha, beta):
        # unit rows: 2^alpha * 4^beta = 2^22 words
        codec = WordCodec(alpha, beta)
        rows = [1 << i for i in range(alpha)] + [1 << (codec.toff + i) for i in range(beta)]
        for capacity in (1 << 22, (1 << 22) - 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("Z2Z4_CAPACITY", str(capacity))
                tracemalloc.start()
                try:
                    size = len(Code.span(codec, rows))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert size == 1 << 22
            assert peak < 1 << 20
        # past the bound the word build raises, before it allocates
        peak = _peak_bytes_until_capacity_error(lambda: Code.span(codec, rows).words, (1 << 22) - 1)
        assert peak < 1 << 20


def _count_word_sets(monkeypatch) -> list:
    """Record every word-set build, in both modules that build word sets."""
    built = []
    real = additive._coset_words

    def counting(reps, basis):
        built.append(None)
        return real(reps, basis)

    monkeypatch.setattr(additive, "_coset_words", counting)
    monkeypatch.setattr(linimage, "_coset_words", counting)
    return built


class TestMembership:
    """``Code.has_word`` and the queries built on it against the word set."""

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices(), st.data())
    @example(_EDGE_MATRICES[0], None)
    @example(_EDGE_MATRICES[1], None)
    @example(_EDGE_MATRICES[2], None)
    @example(_EDGE_MATRICES[3], None)
    def test_reduction_matches_word_set(self, matrix, data):
        code = Code.from_matrix(matrix)
        codec = code.codec
        width = matrix.alpha + 2 * matrix.beta
        words = sorted(code.words)
        # members, their shifts, and one-bit changes of a few members
        queries = words + codec.shift_words(words)
        queries += [w ^ 1 << i for w in words[:8] for i in range(width)]
        if data is not None:
            queries += data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=30))
        assert [code.has_word(w) for w in queries] == [word_set_contains(code, w) for w in queries]
        for v in map(codec.unpack, queries[:: max(1, len(queries) // 20)]):
            assert (v in code) == (codec.pack(v) in code.words)
        assert code.is_cyclic() == word_set_is_cyclic(code) == word_is_cyclic(code)

    def test_queries_build_no_word_set(self, monkeypatch):
        built = _count_word_sets(monkeypatch)
        answers = []
        matrices = [nonlinear_image_matrix(), cyclic_projections_matrix(), *_EDGE_MATRICES]
        for matrix in matrices:
            code, other = Code.from_matrix(matrix), Code.from_matrix(_shifted_rows(matrix))
            zero = MixedVector((0,) * matrix.alpha, (0,) * matrix.beta)
            answers += [code == other, other == code, code.is_cyclic(), zero in code]
            answers.append(gray_is_linear_oracle(code, mode="generators").linear)
            answers.append(gray_is_linear_oracle(code).linear)
        for gens in mixed_candidates((1, 2), (1, 3, 5)):
            if linimage.gray_linear_criterion(gens).verdict:
                img = ext_psi_image(enumerate_code(gens))
                span = double_cyclic_span(psi_image_generators(gens))
                answers += [span == img, img == span, is_double_cyclic(img), hash(img)]
        assert built == [] and answers

    def test_check_candidate_builds_no_word_set(self, monkeypatch):
        built = _count_word_sets(monkeypatch)
        candidates = mixed_candidates((1, 2, 3), (1, 3, 5)) + [length9_generators()]
        for gens in candidates:
            check_candidate(gens)
        assert built == []


def _z4_sweep_codes() -> list[Code]:
    """The codes <fh + 2f> that ``z4_gray_linear_oracle`` enumerates: every
    quaternary sweep code of at most ``ORACLE_ENUM_LIMIT`` words."""
    return [
        _z4_code(f, h, n)
        for n, f, h, g in z4_candidates()
        if 1 << (2 * int(g.degree) + int(h.degree)) <= linimage.ORACLE_ENUM_LIMIT
    ]


class TestExhaustiveOracle:
    """The ``exhaustive`` closure on the echelon against the word-set scan."""

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[1])
    @example(_EDGE_MATRICES[2])
    @example(_EDGE_MATRICES[3])
    def test_coset_min_is_the_coset_minimum(self, matrix):
        code = Code.from_matrix(matrix)
        for r in code.reps:
            assert _coset_min(code.basis, r) == min(_coset_words([r], code.basis.values()))

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    @example(_EDGE_MATRICES[0])
    @example(_EDGE_MATRICES[1])
    @example(_EDGE_MATRICES[2])
    @example(_EDGE_MATRICES[3])
    def test_modes_agree(self, matrix):
        code = Code.from_matrix(matrix)
        exhaustive = gray_is_linear_oracle(code)
        assert exhaustive == word_set_closure(code)
        assert exhaustive.linear == gray_is_linear_oracle(code, mode="generators").linear

    def test_matches_word_set_scan_on_every_enumerated_sweep_code(self):
        mixed = [enumerate_code(gens) for gens in mixed_candidates()]
        quaternary = _z4_sweep_codes()
        assert len(mixed) == 1008 and len(quaternary) == 252
        for code in mixed + quaternary:
            assert gray_is_linear_oracle(code) == word_set_closure(code)

    def test_reduces_each_product_once(self, monkeypatch):
        reduced = []
        real = additive._gf2_reduce

        def counting(basis, v):
            reduced.append(v)
            return real(basis, v)

        monkeypatch.setattr(additive, "_gf2_reduce", counting)
        for gens in mixed_candidates((2, 3), (3, 5, 7)):
            code = enumerate_code(gens)
            reduced.clear()
            gray_is_linear_oracle(code)
            assert len(reduced) == len(set(reduced))


def _block_codes(code: Code) -> list[BinaryBlockCode]:
    """The code's Nechaev-Gray image in coset form (linear or not), its
    word set as a block code, and the word set of its Gray image (often
    not double-cyclic) as one of the same lengths."""
    img = ext_psi_image(code)
    gray = frozenset(code.codec.gray_words(code.words))
    return [img, BinaryBlockCode(img.r, img.s, img.words), BinaryBlockCode(img.r, img.s, gray)]


class TestBlockCodes:
    """``BinaryBlockCode`` equality, hash and the double-cyclic test against
    the word-set versions."""

    @staticmethod
    def _same_as_word_sets(codes: list[BinaryBlockCode]) -> None:
        for bc in codes:
            assert len(bc) == len(bc.words)
            rank = len(additive._gf2_basis(bc.words))
            assert (bc.linear_basis is not None) == (len(bc.words) == 1 << rank)
            assert is_double_cyclic(bc) == word_is_double_cyclic(bc)
            for other in codes:
                assert (bc == other) == word_block_equal(bc, other)
                if bc == other:
                    assert hash(bc) == hash(other)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(0, 3), st.sampled_from([1, 3, 5])).flatmap(
            lambda shape: matrices_of_shape(*shape)
        ),
        st.data(),
    )
    @example(_EDGE_MATRICES[0], None)
    @example(nonlinear_image_matrix(), None)
    def test_matches_word_sets(self, matrix, data):
        code = Code.from_matrix(matrix)
        codes = _block_codes(code)
        if data is not None:
            other = data.draw(st.one_of(
                matrices_of_shape(matrix.alpha, matrix.beta),
                st.just(_shifted_rows(matrix)),
            ))
            codes += _block_codes(Code.from_matrix(other))
        self._same_as_word_sets(codes)

    def test_linear_images_of_the_mixed_sweep(self):
        for gens in mixed_candidates((1, 2, 3, 4), (1, 3, 5)):
            if not linimage.gray_linear_criterion(gens).verdict:
                continue
            img = ext_psi_image(enumerate_code(gens))
            span = double_cyclic_span(psi_image_generators(gens))
            assert img.linear_basis is not None and span.linear_basis is not None
            self._same_as_word_sets([img, span, BinaryBlockCode(span.r, span.s, span.words)])
            assert span == img

    def test_hash_matches_equality(self):
        code = enumerate_code(length9_generators())
        img = ext_psi_image(code)
        span = double_cyclic_span(psi_image_generators(length9_generators()))
        words = BinaryBlockCode(img.r, img.s, img.words)
        assert len({img, span, words}) == 1
        gray = BinaryBlockCode(img.r, img.s, frozenset(code.codec.gray_words(code.words)))
        assert gray != img and len({img, gray}) == 2


def _divisors(n: int) -> list[BinPoly]:
    """Every divisor of x^n - 1 over Z2."""
    polys = (BinPoly([(k >> i) & 1 for i in range(n + 1)]) for k in range(1, 1 << (n + 1)))
    return [p for p in polys if p.divides(BinPoly.xn_minus_1(n))]


class TestDoubleCyclicSpan:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    def test_matches_shift_span(self, r, s, data):
        b = data.draw(st.sampled_from(_divisors(r)))
        a = data.draw(st.sampled_from(_divisors(s) + [BinPoly.zero()]))
        db = int(b.degree)
        ellp = BinPoly(data.draw(st.lists(st.integers(0, 1), max_size=db, min_size=db)))
        dcg = DoubleCyclicGenerators(r, s, b, ellp, a)
        span = double_cyclic_span(dcg)
        assert span.words == shift_span(dcg)
        assert is_double_cyclic(span)

    def test_over_capacity_raises_before_allocating(self):
        # (0 | 1) and its shifts span all 2^20 words of the right block
        dcg = DoubleCyclicGenerators(1, 20, BinPoly.parse("x+1"), BinPoly.zero(), BinPoly.one())
        for capacity in (1 << 10, (1 << 20) - 1):
            # the span's word build is its coset representatives, which raise
            peak = _peak_bytes_until_capacity_error(lambda: double_cyclic_span(dcg), capacity)
            assert peak < 1 << 20
        assert len(double_cyclic_span(DoubleCyclicGenerators(
            1, 10, BinPoly.parse("x+1"), BinPoly.zero(), BinPoly.one()))) == 1 << 10
