import pytest
from hypothesis import given, settings, strategies as st

from z2z4.additive import (
    Code,
    GeneratorMatrix,
    MixedVector,
    WordCodec,
    gray_image_is_linear,
    gray_is_linear_oracle,
    resolve_capacity,
    standard_form,
)
from z2z4.errors import CapacityError, DomainError
from span_oracle import word_add
from word_oracle import add, ext_gray, ext_nechaev_gray, nechaev_gray_inv, order, scale, star


def mixed_vectors(alpha, beta):
    return st.tuples(
        st.lists(st.integers(0, 1), min_size=alpha, max_size=alpha),
        st.lists(st.integers(0, 3), min_size=beta, max_size=beta),
    ).map(lambda t: MixedVector(tuple(t[0]), tuple(t[1])))


class TestMixedVector:
    def test_shift(self):
        assert MixedVector((1, 0), (1, 0, 0)).shift() == MixedVector((0, 1), (0, 1, 0))
        assert MixedVector((0, 0), (0, 0, 1)).shift() == MixedVector((0, 0), (1, 0, 0))
        zero = MixedVector((0, 0), (0, 0, 0))
        assert zero.shift() == zero

    def test_orders(self):
        assert order(MixedVector((), ())) == 1
        assert order(MixedVector((1,), (2,))) == 2
        assert order(MixedVector((0,), (3,))) == 4

    def test_parse_round_trip(self):
        v = MixedVector.parse("1,0|2,3,1")
        assert v == MixedVector((1, 0), (2, 3, 1))
        assert MixedVector.parse(str(v)) == v


def _sum_pack(codec, v):
    """The packed word of v by one sum per plane, entry by entry."""
    b = sum(bit << i for i, bit in enumerate(v.bin))
    t = sum((c & 1) << i for i, c in enumerate(v.quat))
    h = sum((c >> 1) << i for i, c in enumerate(v.quat))
    return codec.pack_planes(b, t, h)


class TestCodec:
    @settings(max_examples=200)
    @given(st.integers(0, 9), st.integers(0, 9), st.data())
    def test_pack_and_unpack_match_the_entrywise_formulas(self, alpha, beta, data):
        codec = WordCodec(alpha, beta)
        v = data.draw(mixed_vectors(alpha, beta))
        w = codec.pack(v)
        assert w == _sum_pack(codec, v)
        u = codec.unpack(w)
        assert (u.bin, u.quat) == (v.bin, v.quat)
        assert all(type(c) is int for c in u.bin + u.quat)
        assert all(type(c) is int for c in v.shift().bin + v.shift().quat)
        # and the vector's text, entry by entry
        assert str(u) == ",".join(map(str, v.bin)) + "|" + ",".join(map(str, v.quat))

    @given(mixed_vectors(3, 3), mixed_vectors(3, 3))
    def test_add_matches_vectors(self, u, v):
        codec = WordCodec(3, 3)
        assert codec.unpack(word_add(codec, codec.pack(u), codec.pack(v))) == add(u, v)

    @given(mixed_vectors(3, 3), mixed_vectors(3, 3))
    def test_double_star(self, u, v):
        # 2u*v = (0 | 2(t_u & t_v)), which gray_is_linear_oracle relies on
        codec = WordCodec(3, 3)
        tu, tv = codec.tpattern(codec.pack(u)), codec.tpattern(codec.pack(v))
        assert codec.unpack((tu & tv) << codec.hoff) == scale(star(u, v), 2)

    @given(mixed_vectors(4, 3))
    def test_shift_matches(self, u):
        codec = WordCodec(4, 3)
        (shifted,) = codec.shift_words([codec.pack(u)])
        assert codec.unpack(shifted) == u.shift()

    @given(mixed_vectors(2, 3))
    def test_images_match_reference_maps(self, u):
        codec = WordCodec(2, 3)
        w = codec.pack(u)
        (gray_word,) = codec.gray_words([w])
        assert tuple((gray_word >> i) & 1 for i in range(8)) == ext_gray(u)
        (psi_word,) = codec.psi_words([w])
        assert tuple((psi_word >> i) & 1 for i in range(8)) == ext_nechaev_gray(u)
        assert codec.psi_inv_words([psi_word]) == [w]


def _check_psi_inverse(beta, images):
    """psi_inv_words agrees with word_oracle.nechaev_gray_inv on each packed
    image, and psi_words maps its preimages back."""
    codec = WordCodec(0, beta)
    pre = codec.psi_inv_words(images)
    for v, w in zip(images, pre):
        bits = tuple((v >> i) & 1 for i in range(2 * beta))
        assert codec.unpack(w).quat == nechaev_gray_inv(bits)
    assert codec.psi_words(pre) == list(images)


class TestPsiInverse:
    @pytest.mark.parametrize("beta", [1, 3, 5, 7])
    def test_every_word(self, beta):
        _check_psi_inverse(beta, range(1 << (2 * beta)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 127).flatmap(
        lambda k: st.tuples(st.just(2 * k + 1), st.integers(0, (1 << (4 * k + 2)) - 1))
    ))
    def test_odd_beta_to_255(self, case):
        beta, v = case
        _check_psi_inverse(beta, [v])

    def test_even_beta_rejected(self):
        with pytest.raises(DomainError):
            WordCodec(1, 4).psi_inv_words([0])


class TestEnumeration:
    def test_single_binary_row(self):
        m = GeneratorMatrix(1, 0, (MixedVector((1,), ()),))
        assert {v.bin for v in Code.from_matrix(m).vectors()} == {(0,), (1,)}

    def test_single_quaternary_row(self):
        m = GeneratorMatrix(0, 1, (MixedVector((), (1,)),))
        assert len(Code.from_matrix(m)) == 4

    def test_nonlinear_image_matrix_size(self, nonlinear_image_matrix):
        assert len(Code.from_matrix(nonlinear_image_matrix)) == 128

    def test_capacity_enforced(self, monkeypatch):
        rows = tuple(
            MixedVector(tuple(1 if i == j else 0 for i in range(8)), (0,) * 4)
            for j in range(8)
        )
        m = GeneratorMatrix(8, 4, rows)
        monkeypatch.setenv("Z2Z4_CAPACITY", "100")
        # the code is built and sized past the bound; listing its words raises
        code = Code.from_matrix(m)
        assert len(code) == 256
        with pytest.raises(CapacityError):
            code.words

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("Z2Z4_CAPACITY", "17")
        assert resolve_capacity() == 17
        monkeypatch.delenv("Z2Z4_CAPACITY")
        assert resolve_capacity() == 1 << 24

    def test_shift_commutes_with_enumeration(self, nonlinear_image_matrix):
        code = Code.from_matrix(nonlinear_image_matrix)
        shifted_rows = tuple(r.shift() for r in nonlinear_image_matrix.rows)
        shifted = Code.from_matrix(GeneratorMatrix(3, 3, shifted_rows))
        assert shifted == Code.span(code.codec, code.codec.shift_words(code.words))


class TestStructure:
    def test_cyclic_projections_counterexample_witness(self, cyclic_projections_matrix):
        code = Code.from_matrix(cyclic_projections_matrix)
        assert not code.is_cyclic()
        w = code.cyclic_witness()
        assert w == (MixedVector((0, 0), (0, 0, 1)), MixedVector((0, 0), (1, 0, 0)))
        assert w[1] not in code

    def test_cyclic_projections_matrix_projections(self, cyclic_projections_matrix):
        code = Code.from_matrix(cyclic_projections_matrix)
        assert code.puncture_x().is_cyclic()
        assert code.puncture_y().is_cyclic()

    def test_cyclic_projections_matrix_not_separable(self, cyclic_projections_matrix):
        code = Code.from_matrix(cyclic_projections_matrix)
        assert not code.is_separable()
        assert MixedVector((1, 0), (0, 0, 0)) not in code

    @pytest.mark.parametrize(
        "vector", [MixedVector((1, 0, 1), (0, 0)), MixedVector((1,), (0, 0, 0, 0)), MixedVector((), ())]
    )
    def test_membership_needs_the_code_shape(self, vector, cyclic_projections_matrix):
        code = Code.from_matrix(cyclic_projections_matrix)  # alpha 2, beta 3
        # (1,0,1 | 0,0) packs to the same int as the codeword (1,0 | 1,0,0)
        assert MixedVector((1, 0), (1, 0, 0)) in code
        with pytest.raises(DomainError):
            vector in code

    def test_size_past_sys_maxsize(self):
        # len() stops at sys.maxsize; size, equality, hash and the queries
        # that need no word go on past it
        rows = [MixedVector(tuple(int(i == j) for i in range(64)), (0,)) for j in range(64)]
        code = Code.from_vectors_span(64, 1, rows)
        assert code.size == 1 << 64
        with pytest.raises(OverflowError):
            len(code)
        twin = Code.from_vectors_span(64, 1, rows[::-1])
        assert code == twin and hash(code) == hash(twin)
        assert code.is_separable() and code.is_cyclic()
        assert gray_is_linear_oracle(code, mode="generators").linear
        with pytest.raises(CapacityError):
            gray_image_is_linear(code)

    def test_zero_code_cyclic(self):
        m = GeneratorMatrix(2, 3, ())
        code = Code.from_matrix(m)
        assert len(code) == 1 and code.is_cyclic() and code.is_separable()

    def test_order_two_subcode(self):
        m = GeneratorMatrix(0, 1, (MixedVector((), (1,)),))
        sub = Code.from_matrix(m).order_two_subcode()
        assert {v.quat for v in sub.vectors()} == {(0,), (2,)}

    def test_order_two_subcode_of_all_order_two(self):
        m = GeneratorMatrix(1, 1, (MixedVector((1,), (2,)),))
        code = Code.from_matrix(m)
        assert code.order_two_subcode() == code

    def test_sorted_vectors_canonical(self, cyclic_projections_matrix):
        vs = Code.from_matrix(cyclic_projections_matrix).sorted_vectors()
        keys = [(v.bin, v.quat) for v in vs]
        assert keys == sorted(keys)
        assert len(vs) == 64


class TestStandardForm:
    def test_nonlinear_image_matrix_type(self, nonlinear_image_matrix):
        sf = standard_form(nonlinear_image_matrix)
        assert sf.code_type.triple == (3, 2, 3)
        assert sf.code_type.size == 128

    def test_cyclic_projections_matrix_type(self, cyclic_projections_matrix):
        sf = standard_form(cyclic_projections_matrix)
        assert sf.code_type.triple == (0, 3, 0)
        assert sf.code_type.size == 64

    def test_already_standard_is_identity(self):
        m = GeneratorMatrix.from_text(
            "1 0 | 0 0 0\n"
            "0 0 | 0 2 0\n"
            "0 1 | 2 0 1"
        )
        sf = standard_form(m)
        assert sf.bin_perm == (0, 1)
        assert sf.quat_perm == (0, 1, 2)
        assert sf.matrix.rows == m.rows

    @pytest.mark.parametrize(
        "text",
        [
            "1 0 | 1 0 0\n0 1 | 0 1 0\n0 0 | 0 0 1",
            "1 1 | 2 0 3\n0 1 | 1 1 0\n1 0 | 3 1 2\n1 1 | 0 2 2",
            "1 | 2 2\n0 | 1 3",
            "1 1 1 | 0\n0 1 0 | 2",
        ],
    )
    def test_span_preserved_under_permutation(self, text):
        m = GeneratorMatrix.from_text(text)
        sf = standard_form(m)
        permuted = GeneratorMatrix(m.alpha, m.beta, tuple(
            MixedVector(tuple(r.bin[c] for c in sf.bin_perm), tuple(r.quat[c] for c in sf.quat_perm))
            for r in m.rows
        ))
        assert Code.from_matrix(permuted) == Code.from_matrix(sf.matrix)
        assert sf.code_type.size == len(Code.from_matrix(m))

    def test_block_shape(self):
        m = GeneratorMatrix.from_text("1 1 | 2 0 3\n0 1 | 1 1 0\n1 0 | 3 1 2\n1 1 | 0 2 2")
        sf = standard_form(m)
        ct = sf.code_type
        rows = sf.matrix.rows
        kappa_rows = rows[: ct.kappa]
        mid_rows = rows[ct.kappa : ct.gamma]
        delta_rows = rows[ct.gamma :]
        for i, r in enumerate(kappa_rows):
            assert r.bin[i] == 1 and all(r.bin[j] == 0 for j in range(ct.kappa) if j != i)
            assert all(q % 2 == 0 for q in r.quat)
        for i, r in enumerate(mid_rows):
            assert not any(r.bin)
            assert all(q % 2 == 0 for q in r.quat)
        free = ct.beta - (ct.gamma - ct.kappa) - ct.delta
        for i, r in enumerate(delta_rows):
            assert all(r.bin[j] == 0 for j in range(ct.kappa))
            assert r.quat[free + (ct.gamma - ct.kappa) + i] == 1


class TestOracle:
    def test_nonlinear_witness_product(self, nonlinear_image_matrix):
        code = Code.from_matrix(nonlinear_image_matrix)
        rep = gray_is_linear_oracle(code, mode="generators")
        assert not rep.linear
        assert rep.witness[2] == MixedVector((0, 0, 0), (2, 0, 0))
        rep2 = gray_is_linear_oracle(code)
        assert not rep2.linear

    def test_quaternary_projection_linear(self, nonlinear_image_matrix):
        code = Code.from_matrix(nonlinear_image_matrix)
        assert gray_is_linear_oracle(code.puncture_y()).linear

    def test_gamma_only_code_linear(self):
        m = GeneratorMatrix.from_text("1 0 | 2 0\n0 1 | 0 2")
        code = Code.from_matrix(m)
        assert gray_is_linear_oracle(code).linear
        assert gray_image_is_linear(code)

    def test_single_order4_generator_linear(self):
        # 2v*v = 2v is always in the code, so delta = 1 codes pass
        from itertools import product

        for beta in (1, 2, 3):
            for quat in product(range(4), repeat=beta):
                m = GeneratorMatrix(1, beta, (MixedVector((1,), quat),))
                code = Code.from_matrix(m)
                assert gray_is_linear_oracle(code).linear

    @settings(max_examples=40, deadline=None)
    @given(st.lists(mixed_vectors(2, 3), min_size=1, max_size=4))
    def test_oracle_modes_and_direct_check_agree(self, rows):
        m = GeneratorMatrix(2, 3, tuple(rows))
        code = Code.from_matrix(m)
        a = gray_is_linear_oracle(code).linear
        b = gray_is_linear_oracle(code, mode="generators").linear
        c = gray_image_is_linear(code)
        assert a == b == c


class TestMatrixIO:
    def test_json_round_trip(self, nonlinear_image_matrix):
        again = GeneratorMatrix.from_json(nonlinear_image_matrix.to_json())
        assert again == nonlinear_image_matrix

    def test_text_round_trip(self, cyclic_projections_matrix):
        again = GeneratorMatrix.from_text(str(cyclic_projections_matrix))
        assert again == cyclic_projections_matrix

    def test_bad_shapes_rejected(self):
        with pytest.raises(DomainError):
            GeneratorMatrix(2, 2, (MixedVector((1,), (0, 0)),))
        with pytest.raises(DomainError):
            GeneratorMatrix.from_json({"alpha": 1, "rows": []})

    @pytest.mark.parametrize("text", ["1 0 | 5 7", "2 0 | 1 1", "1 0 | 1 -1", "1 x | 1 1"])
    def test_text_entries_out_of_range_rejected(self, text):
        with pytest.raises(DomainError):
            GeneratorMatrix.from_text(text)

    @pytest.mark.parametrize("row", [[1, 0, "|", 5, 7], [2, 0, "|", 1, 1], [1, 0, "|", 1, -1]])
    def test_json_entries_out_of_range_rejected(self, row):
        with pytest.raises(DomainError):
            GeneratorMatrix.from_json({"alpha": 2, "beta": 2, "rows": [row]})

    @pytest.mark.parametrize(
        "row", [[1.7, "|", 3.9], [1, "|", 3.0], [True, "|", 1], [1, "|", "3"], [None, "|", 1]]
    )
    def test_json_entries_that_are_not_integers_rejected(self, row):
        with pytest.raises(DomainError):
            GeneratorMatrix.from_json({"alpha": 1, "beta": 1, "rows": [row]})

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1), (1, "1"), (True, 1)])
    def test_json_shape_that_is_not_integers_rejected(self, alpha, beta):
        with pytest.raises(DomainError):
            GeneratorMatrix.from_json({"alpha": alpha, "beta": beta, "rows": [[1, "|", 1]]})

    @pytest.mark.parametrize("text", ["1,0|5,7", "2,0|1,1", "1,0|1,-1", "1,x|1,1"])
    def test_vector_entries_out_of_range_rejected(self, text):
        with pytest.raises(DomainError):
            MixedVector.parse(text)
