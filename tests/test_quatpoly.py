"""Differential tests: the bit-sliced QuatPoly against the tuple oracle."""

import pytest
from hypothesis import given, strategies as st

from z2z4.errors import DomainError
from z2z4.polyring import BinPoly, QuatPoly, cyclic_reduce, lift_to_quat, reduce_mod2
from binpoly_oracle import TupleBinPoly, TupleQuatPoly, tuple_cyclic_reduce

# lengths past 64 bits and lists with trailing zeros
coeff_lists = st.lists(st.integers(0, 3), max_size=80)
short_lists = st.lists(st.integers(0, 3), max_size=12)
monic_lists = st.lists(st.integers(0, 3), max_size=40).map(lambda cs: cs + [1])
# nonzero divisors whose leading coefficient is 2 or 3
nonmonic_lists = st.tuples(st.lists(st.integers(0, 3), max_size=20), st.sampled_from([2, 3])).map(
    lambda t: t[0] + [t[1]]
)


def both(cs):
    return QuatPoly(cs), TupleQuatPoly(cs)


def same(p: QuatPoly, ref: TupleQuatPoly) -> bool:
    return type(p) is QuatPoly and p.coeffs == ref.coeffs


class TestQueries:
    @given(coeff_lists)
    def test_queries(self, cs):
        p, ref = both(cs)
        assert p.coeffs == ref.coeffs and type(p.coeffs) is tuple
        assert p.lo == sum((c & 1) << i for i, c in enumerate(cs))
        assert p.hi == sum((c >> 1) << i for i, c in enumerate(cs))
        assert p.degree == ref.degree
        assert p.leading == ref.leading
        assert p.is_monic == ref.is_monic
        assert p.is_zero == ref.is_zero and bool(p) == bool(ref)
        assert len(p) == len(ref)
        assert str(p) == str(ref) and QuatPoly.parse(str(p)) == p
        assert QuatPoly.parse(list(p.coeffs)) == p
        assert QuatPoly.from_planes(p.lo, p.hi) == p

    @given(st.lists(st.integers(-9, 9), max_size=30))
    def test_constructor_reduces_mod_4(self, cs):
        assert same(QuatPoly(cs), TupleQuatPoly(cs))

    @given(coeff_lists, coeff_lists)
    def test_eq_and_hash(self, a, b):
        pa, pb = QuatPoly(a), QuatPoly(b)
        assert (pa == pb) == (TupleQuatPoly(a) == TupleQuatPoly(b))
        if pa == pb:
            assert hash(pa) == hash(pb)
        trailing = QuatPoly(a + [0, 0])
        assert trailing == pa and hash(trailing) == hash(pa)
        assert pa != BinPoly(a) and pa != TupleQuatPoly(a)

    @given(st.integers(1, 80))
    def test_constants(self, n):
        for name in ("zero", "one", "x"):
            assert same(getattr(QuatPoly, name)(), getattr(TupleQuatPoly, name)())
        assert same(QuatPoly.xn_minus_1(n), TupleQuatPoly.xn_minus_1(n))
        with pytest.raises(DomainError):
            QuatPoly.xn_minus_1(1 - n)

    @given(coeff_lists)
    def test_reduce_mod2(self, cs):
        assert reduce_mod2(QuatPoly(cs)).coeffs == TupleBinPoly(cs).coeffs

    @given(st.lists(st.integers(0, 1), max_size=80))
    def test_lift_to_quat(self, cs):
        assert same(lift_to_quat(BinPoly(cs)), TupleQuatPoly(cs))


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    def test_add_sub_neg_mul(self, a, b):
        (pa, ra), (pb, rb) = both(a), both(b)
        assert same(pa + pb, ra + rb)
        assert same(pa - pb, ra - rb)
        assert same(-pa, -ra)
        assert same(pa * pb, ra * rb)

    @given(short_lists, st.integers(0, 5))
    def test_pow(self, a, e):
        p, ref = both(a)
        assert same(p**e, ref**e)

    @given(coeff_lists, monic_lists)
    def test_divmod_by_monic(self, a, d):
        (pa, ra), (pd, rd) = both(a), both(d)
        (q, r), (rq, rr) = divmod(pa, pd), divmod(ra, rd)
        assert same(q, rq) and same(r, rr)
        assert same(pa % pd, ra % rd) and same(pa // pd, ra // rd)
        assert pd.divides(pa) == rd.divides(ra)

    @given(coeff_lists, nonmonic_lists)
    def test_nonmonic_divisor_rejected(self, a, d):
        (pa, ra), (pd, rd) = both(a), both(d)
        for x, y in ((pa, pd), (ra, rd)):
            with pytest.raises(DomainError, match="monic"):
                divmod(x, y)

    def test_zero_divisor(self):
        for cls in (QuatPoly, TupleQuatPoly):
            with pytest.raises(DomainError, match="zero polynomial"):
                divmod(cls.one(), cls.zero())

    @given(coeff_lists, st.integers(1, 70))
    def test_cyclic_reduce(self, a, n):
        p, ref = both(a)
        assert same(cyclic_reduce(p, n), tuple_cyclic_reduce(ref, n))
