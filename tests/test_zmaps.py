"""The tuple Gray-type maps of ``word_oracle`` (symbol table, layout,
worked vectors, round trips, rejections), its word arithmetic, and the
packed ``WordCodec`` maps against them."""

import random

import pytest
from hypothesis import given, strategies as st

from z2z4.additive import MixedVector, WordCodec
from z2z4.errors import DomainError
from word_oracle import (
    add,
    ext_gray,
    ext_nechaev_gray,
    gray,
    gray_inv,
    nechaev_gray,
    nechaev_gray_inv,
    nechaev_perm,
    scale,
    star,
)

quat_vectors = st.lists(st.integers(0, 3), min_size=0, max_size=8).map(tuple)
odd_quat_vectors = st.lists(st.integers(0, 3), min_size=1, max_size=9).filter(
    lambda v: len(v) % 2 == 1
).map(tuple)


class TestGray:
    def test_symbol_table(self):
        assert gray((0,)) == (0, 0)
        assert gray((1,)) == (0, 1)
        assert gray((2,)) == (1, 1)
        assert gray((3,)) == (1, 0)

    def test_block_layout(self):
        assert gray((1, 3, 1)) == (0, 1, 0, 1, 0, 1)

    def test_inverse_of_layout(self):
        assert gray_inv((0, 1, 0, 1, 0, 1)) == (1, 3, 1)

    @given(quat_vectors)
    def test_round_trip(self, u):
        assert gray_inv(gray(u)) == u

    @given(quat_vectors)
    def test_weight_preservation(self, u):
        # Lee weights of the symbols 0, 1, 2, 3 are 0, 1, 2, 1
        assert sum(gray(u)) == sum(min(c, 4 - c) for c in u)

    def test_odd_length_inverse_rejected(self):
        with pytest.raises(DomainError):
            gray_inv((1, 0, 1))

    def test_bad_entries_rejected(self):
        with pytest.raises(DomainError):
            gray((4,))


class TestNechaevPerm:
    def test_n3_is_single_swap(self):
        # tau = (1, 4): positions 1 and 4 trade places, the rest stay put
        assert nechaev_perm((0, 1, 0, 0, 0, 0), 3) == (0, 0, 0, 0, 1, 0)
        assert nechaev_perm((1, 0, 1, 1, 0, 1), 3) == (1, 0, 1, 1, 0, 1)
        assert nechaev_perm((0, 0, 0, 0, 1, 0), 3) == (0, 1, 0, 0, 0, 0)

    def test_n1_identity(self):
        assert nechaev_perm((1, 0), 1) == (1, 0)

    def test_worked_vector(self):
        assert nechaev_perm((0, 1, 0, 1, 0, 1), 3) == (0, 0, 0, 1, 1, 1)

    @given(st.integers(0, 4), st.data())
    def test_involution(self, k, data):
        n = 2 * k + 1
        v = tuple(data.draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)))
        assert nechaev_perm(nechaev_perm(v, n), n) == v

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            nechaev_perm((0, 1), 3)

    def test_even_n_rejected(self):
        with pytest.raises(DomainError):
            nechaev_perm((0, 1, 0, 1), 2)


class TestNechaevGray:
    def test_zero(self):
        assert nechaev_gray((0, 0, 0)) == (0,) * 6

    def test_composition(self):
        u = (1, 3, 1)
        assert nechaev_gray(u) == nechaev_perm(gray(u), 3)

    @given(odd_quat_vectors)
    def test_round_trip(self, u):
        assert nechaev_gray_inv(nechaev_gray(u)) == u

    def test_even_length_rejected(self):
        with pytest.raises(DomainError):
            nechaev_gray((1, 2))


class TestExtendedMaps:
    def test_passthrough(self):
        assert ext_gray(((1, 0), (2,))) == (1, 0, 1, 1)
        assert ext_gray(((0, 0, 0), (1, 3, 1))) == (0, 0, 0, 0, 1, 0, 1, 0, 1)

    def test_all_zero(self):
        assert ext_gray(((0, 0), (0, 0, 0))) == (0,) * 8
        assert ext_nechaev_gray(((0, 0), (0, 0, 0))) == (0,) * 8

    def test_accepts_mixed_vector(self):
        v = MixedVector((1, 0), (2, 3, 0))
        assert ext_gray(v) == (1, 0) + gray((2, 3, 0))
        assert ext_nechaev_gray(v) == (1, 0) + nechaev_gray((2, 3, 0))

    def test_gray_identity_exhaustive_small(self):
        # Phi(v + w) = Phi(v) + Phi(w) + Phi(2 v*w) for every pair with
        # alpha <= 2, beta <= 2
        from itertools import product

        for alpha in range(3):
            for beta in range(3):
                words = [
                    MixedVector(b, q)
                    for b in product(range(2), repeat=alpha)
                    for q in product(range(4), repeat=beta)
                ]
                for v in words:
                    for w in words:
                        left = ext_gray(add(v, w))
                        right = tuple(
                            a ^ b ^ c
                            for a, b, c in zip(
                                ext_gray(v),
                                ext_gray(w),
                                ext_gray(scale(star(v, w), 2)),
                            )
                        )
                        assert left == right


class TestWordArithmetic:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            add(MixedVector((1,), (0,)), MixedVector((1, 0), (0,)))


def _images(alpha, beta):
    """Every packed word of alpha + 2*beta bits when beta <= 3, else a
    fixed sample of 256."""
    n = alpha + 2 * beta
    if beta <= 3:
        return range(1 << n)
    return random.Random(16 * alpha + beta).sample(range(1 << n), 256)


def _bits(v, n):
    return tuple((v >> i) & 1 for i in range(n))


class TestPackedMaps:
    @pytest.mark.parametrize("alpha", range(4))
    @pytest.mark.parametrize("beta", range(10))
    def test_gray_inv_words_matches_oracle(self, alpha, beta):
        codec = WordCodec(alpha, beta)
        images = list(_images(alpha, beta))
        pre = codec.gray_inv_words(images)
        for v, w in zip(images, pre):
            bits = _bits(v, alpha + 2 * beta)
            assert codec.unpack(w) == MixedVector(bits[:alpha], gray_inv(bits[alpha:]))
        assert codec.gray_words(pre) == images

    @pytest.mark.parametrize("alpha", range(4))
    @pytest.mark.parametrize("beta", [1, 3, 5, 7, 9])
    def test_psi_inv_words_matches_oracle(self, alpha, beta):
        codec = WordCodec(alpha, beta)
        images = list(_images(alpha, beta))
        pre = codec.psi_inv_words(images)
        for v, w in zip(images, pre):
            bits = _bits(v, alpha + 2 * beta)
            assert codec.unpack(w) == MixedVector(bits[:alpha], nechaev_gray_inv(bits[alpha:]))
        assert codec.psi_words(pre) == images
