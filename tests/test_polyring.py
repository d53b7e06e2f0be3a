import pytest
from hypothesis import given, strategies as st

from z2z4.errors import DomainError
from z2z4.polyring import (
    BinPoly,
    QuatPoly,
    bezout_lift,
    cyclic_reduce,
    ext_gcd2,
    gcd2,
    gf2_bezout,
    graeffe_lift,
    lift_to_quat,
    reduce_mod2,
)
from word_oracle import cyclic_mul

bin_polys = st.lists(st.integers(0, 1), max_size=9).map(BinPoly)
quat_polys = st.lists(st.integers(0, 3), max_size=9).map(QuatPoly)


class TestArithmetic:
    def test_mul_example(self):
        assert QuatPoly.parse("x+3") * QuatPoly.parse("x^2+x+1") == QuatPoly.parse("x^3+3")

    def test_char2_addition(self):
        p = BinPoly.parse("x^3+x+1")
        assert (p + p).is_zero

    def test_mul_identity(self):
        p = QuatPoly.parse("2x^2+3")
        assert p * QuatPoly.one() == p

    @given(quat_polys, quat_polys, quat_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    def test_degree_of_zero(self):
        assert QuatPoly.zero().degree == float("-inf")
        assert BinPoly.one().degree == 0


class TestDivMod:
    def test_z2_exact(self):
        q, r = divmod(BinPoly.parse("x^3+1"), BinPoly.parse("x+1"))
        assert q == BinPoly.parse("x^2+x+1") and r.is_zero

    def test_z4_exact(self):
        q, r = divmod(QuatPoly.xn_minus_1(3), QuatPoly.parse("x^2+x+1"))
        assert q == QuatPoly.parse("x+3") and r.is_zero

    def test_small_degree(self):
        q, r = divmod(BinPoly.x(), BinPoly.parse("x^2+x+1"))
        assert q.is_zero and r == BinPoly.x()

    def test_nonmonic_z4_divisor_rejected(self):
        with pytest.raises(DomainError):
            divmod(QuatPoly.parse("x^2+1"), QuatPoly.parse("2x+1"))

    def test_zero_divisor_rejected(self):
        with pytest.raises(DomainError):
            divmod(BinPoly.one(), BinPoly.zero())

    @given(bin_polys, bin_polys.filter(lambda p: not p.is_zero))
    def test_reconstruction_z2(self, a, d):
        q, r = divmod(a, d)
        assert q * d + r == a
        assert r.degree < d.degree

    @given(quat_polys, quat_polys.filter(lambda p: p.is_monic))
    def test_reconstruction_z4(self, a, d):
        q, r = divmod(a, d)
        assert q * d + r == a
        assert r.degree < d.degree


class TestGcd:
    def test_coprime(self):
        assert gcd2(BinPoly.parse("x^2+x+1"), BinPoly.parse("x+1")) == BinPoly.one()

    def test_gcd_with_zero(self):
        p = BinPoly.parse("x^2+1")
        assert gcd2(p, BinPoly.zero()) == p

    def test_common_factor(self):
        assert gcd2(BinPoly.parse("x^3+1"), BinPoly.parse("x^2+1")) == BinPoly.parse("x+1")

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            gcd2(BinPoly.zero(), BinPoly.zero())

    @given(bin_polys, bin_polys)
    def test_gcd_divides_both(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = gcd2(a, b)
        assert gcd2(a, b) == gcd2(b, a)
        assert g.divides(a) and g.divides(b)
        assert gcd2(g, a) == g

    @given(bin_polys, bin_polys, bin_polys)
    def test_gcd_associative(self, a, b, c):
        if (a.is_zero and b.is_zero) or (b.is_zero and c.is_zero):
            return
        if a.is_zero and c.is_zero:
            return
        assert gcd2(gcd2(a, b), c) == gcd2(a, gcd2(b, c))

    @given(bin_polys, bin_polys)
    def test_ext_gcd_identity(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g, s, t = ext_gcd2(a, b)
        assert s * a + t * b == g


class TestReduction:
    def test_example_values(self):
        assert reduce_mod2(QuatPoly.parse("x^2+x+3")) == BinPoly.parse("x^2+x+1")
        assert reduce_mod2(QuatPoly.parse("x^3+2x^2+x+3")) == BinPoly.parse("x^3+x+1")

    @given(quat_polys)
    def test_doubling_reduces_to_zero(self, f):
        assert reduce_mod2(QuatPoly((2,)) * f).is_zero

    @given(bin_polys)
    def test_lift_round_trip(self, p):
        assert reduce_mod2(lift_to_quat(p)) == p


class TestGraeffeLift:
    def test_n3(self):
        assert graeffe_lift(BinPoly.parse("x+1"), 3) == QuatPoly.parse("x+3")
        assert graeffe_lift(BinPoly.parse("x^2+x+1"), 3) == QuatPoly.parse("x^2+x+1")

    def test_n7_degree3_factors(self):
        lift_a = graeffe_lift(BinPoly.parse("x^3+x+1"), 7)
        lift_b = graeffe_lift(BinPoly.parse("x^3+x^2+1"), 7)
        assert {lift_a, lift_b} == {
            QuatPoly.parse("x^3+2x^2+x+3"),
            QuatPoly.parse("x^3+3x^2+2x+3"),
        }

    def test_non_divisor_rejected(self):
        with pytest.raises(DomainError):
            graeffe_lift(BinPoly.parse("x^2+1"), 7)

    def test_even_length_rejected(self):
        with pytest.raises(DomainError):
            graeffe_lift(BinPoly.parse("x+1"), 4)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15])
    def test_round_trip_and_divisibility(self, n):
        from z2z4.cyclofield import factor_xn_minus_1_z2

        for p in factor_xn_minus_1_z2(n):
            q = graeffe_lift(p, n)
            assert reduce_mod2(q) == p
            assert q.is_monic
            assert q.divides(QuatPoly.xn_minus_1(n))

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_multiplicative_on_coprime_factors(self, n):
        from itertools import combinations

        from z2z4.cyclofield import factor_xn_minus_1_z2

        factors = factor_xn_minus_1_z2(n)
        for p, q in combinations(factors, 2):
            assert graeffe_lift(p, n) * graeffe_lift(q, n) == graeffe_lift(p * q, n)


class TestBezout:
    def test_identity_example(self):
        pair = bezout_lift(QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3"))
        h, g = QuatPoly.parse("x^2+x+1"), QuatPoly.parse("x+3")
        assert pair.lam * h + pair.mu * g == QuatPoly.one()

    def test_unit_h(self):
        pair = bezout_lift(QuatPoly.one(), QuatPoly.parse("x^3+2x+1"))
        assert pair.lam == QuatPoly.one() and pair.mu.is_zero

    def test_shared_factor_rejected(self):
        with pytest.raises(DomainError):
            bezout_lift(QuatPoly.parse("x+1"), QuatPoly.parse("x+3"))

    @pytest.mark.parametrize("n", [7, 9, 15])
    def test_identity_on_factor_pairs(self, n):
        from itertools import permutations

        from z2z4.cyclofield import factor_xn_minus_1_z4

        for h, g in permutations(factor_xn_minus_1_z4(n), 2):
            pair = bezout_lift(h, g)
            assert pair.lam * h + pair.mu * g == QuatPoly.one()

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15, 21])
    def test_gf2_pair_is_the_reduced_lift(self, n):
        from z2z4.cycliccode import factor_triples

        for _, h, g in factor_triples(n):
            pair = bezout_lift(h, g)
            assert gf2_bezout(h, g) == (reduce_mod2(pair.lam), reduce_mod2(pair.mu))


class TestParsePrint:
    def test_human_forms(self):
        assert QuatPoly.parse("x^3+2x^2+x+3").coeffs == (3, 1, 2, 1)
        assert QuatPoly.parse("x-1") == QuatPoly.parse("x+3")
        assert BinPoly.parse("x-1") == BinPoly.parse("x+1")
        assert QuatPoly.parse("[3,1,2,1]") == QuatPoly.parse("x^3+2x^2+x+3")
        assert QuatPoly.parse("0").is_zero
        assert str(QuatPoly.parse("3+x+2x^2")) == "2x^2+x+3"
        assert str(QuatPoly.zero()) == "0"

    @pytest.mark.parametrize("bad", [[7], [1.5], [True], [3, -1], "[3,4]", "[1.0]"])
    def test_arrays_must_hold_ring_digits(self, bad):
        with pytest.raises(DomainError):
            QuatPoly.parse(bad)

    def test_binary_arrays_must_hold_bits(self):
        assert BinPoly.parse([1, 0, 1]) == BinPoly.parse("x^2+1")
        with pytest.raises(DomainError):
            BinPoly.parse([1, 2])

    def test_term_order_irrelevant(self):
        assert QuatPoly.parse("3+x^3+x+2x^2") == QuatPoly.parse("x^3+2x^2+x+3")

    def test_garbage_rejected(self):
        for bad in ("", "x^", "2y+1", "x++1", "x^-2"):
            with pytest.raises(DomainError):
                QuatPoly.parse(bad)

    @given(quat_polys)
    def test_round_trip(self, p):
        assert QuatPoly.parse(str(p)) == p

    @given(bin_polys)
    def test_round_trip_z2(self, p):
        assert BinPoly.parse(str(p)) == p


class TestCyclicReduce:
    @given(quat_polys, st.integers(1, 6))
    def test_matches_divmod(self, p, n):
        assert cyclic_reduce(p, n) == p % QuatPoly.xn_minus_1(n)

    def test_cyclic_mul(self):
        # (x^2+1)*x = x^3 + x = 1 + x modulo x^3 - 1
        assert cyclic_mul(QuatPoly.parse("x^2+1"), QuatPoly.x(), 3) == QuatPoly.parse("x+1")
