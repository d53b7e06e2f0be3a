"""Differential tests: the int-backed BinPoly against the tuple oracle."""

import pytest
from hypothesis import given, strategies as st

from z2z4.cyclofield import factor_xn_minus_1_z2
from z2z4.errors import DomainError
from z2z4.polyring import (
    BinPoly, QuatPoly, clgcd, clmod, clmul, clxgcd, cyclic_reduce, ext_gcd2, gcd2, reduce_mod2,
)
from binpoly_oracle import (
    TupleBinPoly, bitloop_clmul, tuple_cyclic_reduce, tuple_ext_gcd2, tuple_gcd2,
)
from cyclo_oracle import smallest_irreducible

# lengths past 64 bits and lists with trailing zeros
coeff_lists = st.lists(st.integers(0, 1), max_size=80)
short_lists = st.lists(st.integers(0, 1), max_size=12)


def both(cs):
    return BinPoly(cs), TupleBinPoly(cs)


def same(p: BinPoly, ref: TupleBinPoly) -> bool:
    return type(p) is BinPoly and p.coeffs == ref.coeffs


class TestQueries:
    @given(coeff_lists)
    def test_queries(self, cs):
        p, ref = both(cs)
        assert p.coeffs == ref.coeffs and type(p.coeffs) is tuple
        assert p.bits == sum(c << i for i, c in enumerate(cs))
        assert p.degree == ref.degree
        assert p.leading == ref.leading
        assert p.is_monic == ref.is_monic
        assert p.is_zero == ref.is_zero and bool(p) == bool(ref)
        assert len(p) == len(ref)
        assert str(p) == str(ref) and BinPoly.parse(str(p)) == p
        assert BinPoly.from_bits(p.bits) == p

    @given(coeff_lists, coeff_lists)
    def test_eq_and_hash(self, a, b):
        pa, pb = BinPoly(a), BinPoly(b)
        assert (pa == pb) == (TupleBinPoly(a) == TupleBinPoly(b))
        if pa == pb:
            assert hash(pa) == hash(pb)
        trailing = BinPoly(a + [0, 0])
        assert trailing == pa and hash(trailing) == hash(pa)
        assert pa != QuatPoly(a)

    @given(st.integers(1, 80))
    def test_constants_from_bits(self, n):
        assert same(BinPoly.one(), TupleBinPoly.one())
        assert same(BinPoly.xn_minus_1(n), TupleBinPoly.xn_minus_1(n))
        with pytest.raises(DomainError):
            BinPoly.xn_minus_1(1 - n)

    @given(st.lists(st.integers(0, 3), max_size=80))
    def test_reduce_mod2(self, cs):
        assert same(reduce_mod2(QuatPoly(cs)), TupleBinPoly(cs))

    def test_rings_do_not_mix(self):
        with pytest.raises(DomainError):
            BinPoly.one() + QuatPoly.one()
        with pytest.raises(DomainError):
            QuatPoly.one() * BinPoly.one()
        with pytest.raises(DomainError):
            divmod(BinPoly.one(), QuatPoly.one())


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    def test_add_sub_mul(self, a, b):
        (pa, ra), (pb, rb) = both(a), both(b)
        assert same(pa + pb, ra + rb)
        assert same(pa - pb, ra - rb)
        assert same(-pa, -ra)
        assert same(pa * pb, ra * rb)

    @given(short_lists, st.integers(0, 5))
    def test_pow(self, a, e):
        p, ref = both(a)
        assert same(p**e, ref**e)

    @given(coeff_lists, coeff_lists.filter(any))
    def test_divmod(self, a, d):
        (pa, ra), (pd, rd) = both(a), both(d)
        (q, r), (rq, rr) = divmod(pa, pd), divmod(ra, rd)
        assert same(q, rq) and same(r, rr)
        assert same(pa % pd, ra % rd) and same(pa // pd, ra // rd)
        assert pd.divides(pa) == rd.divides(ra)

    def test_zero_divisor(self):
        with pytest.raises(DomainError):
            divmod(BinPoly.one(), BinPoly.zero())
        with pytest.raises(DomainError):
            BinPoly.one() % BinPoly.zero()

    @given(coeff_lists, coeff_lists)
    def test_gcd(self, a, b):
        (pa, ra), (pb, rb) = both(a), both(b)
        if pa.is_zero and pb.is_zero:
            with pytest.raises(DomainError):
                gcd2(pa, pb)
            return
        assert same(gcd2(pa, pb), tuple_gcd2(ra, rb))
        got, want = ext_gcd2(pa, pb), tuple_ext_gcd2(ra, rb)
        assert all(same(g, w) for g, w in zip(got, want))

    @given(coeff_lists, st.integers(1, 70))
    def test_cyclic_reduce(self, a, n):
        p, ref = both(a)
        assert same(cyclic_reduce(p, n), tuple_cyclic_reduce(ref, n))


@st.composite
def clmul_operands(draw):
    """Two ints of 0..600 bits: random, 0, 1, one bit or all ones, so that
    sparse meets dense and lengths differ a lot."""
    def operand():
        n = draw(st.integers(0, 600))
        return draw(st.one_of(
            st.integers(0, (1 << n) - 1), st.just(0), st.just(1),
            st.just(1 << n), st.just((1 << n) - 1),
        ))
    return operand(), operand()


class TestKernels:
    @given(clmul_operands())
    def test_clmul_matches_the_bit_loop(self, ab):
        a, b = ab
        assert clmul(a, b) == clmul(b, a) == bitloop_clmul(a, b) == bitloop_clmul(b, a)

    @given(clmul_operands())
    def test_clxgcd_is_a_bezout_identity(self, ab):
        a, b = ab
        g, s, t = clxgcd(a, b)
        assert clmul(s, a) ^ clmul(t, b) == g == clgcd(a, b)


def _check_mulmod(mod: BinPoly) -> None:
    """clmod(clmul(a, b), mod) against the tuple product mod ``mod``, for
    a, b of degree below that of ``mod``."""
    ref_mod = TupleBinPoly(mod.coeffs)
    top = (1 << mod.degree) - 1

    @given(st.integers(0, top), st.integers(0, top))
    def check(a, b):
        pa, pb = BinPoly.from_bits(a), BinPoly.from_bits(b)
        got = BinPoly.from_bits(clmod(clmul(a, b), mod.bits))
        assert got == (pa * pb) % mod
        assert same(got, TupleBinPoly(pa.coeffs) * TupleBinPoly(pb.coeffs) % ref_mod)

    check()


class TestField:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 20, 63])
    def test_mul_is_product_mod_the_modulus(self, m):
        # the degree-m irreducible of the field construction
        _check_mulmod(smallest_irreducible(m))

    @pytest.mark.parametrize("n", [7, 31, 73, 127, 227, 253])
    def test_mul_mod_the_factors(self, n):
        # the largest factor of x^n - 1, of degree 3 up to 226
        _check_mulmod(factor_xn_minus_1_z2(n)[-1])
