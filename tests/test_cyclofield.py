from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from z2z4.cyclofield import (
    MAX_MODULUS,
    _context,
    _prime_factors,
    cyclotomic_cosets,
    divisors_of_xn_minus_1_z2,
    factor_xn_minus_1_z2,
    factor_xn_minus_1_z4,
    from_roots,
    roots_of,
    tensor_square,
)
from z2z4.errors import CapacityError, DomainError
from z2z4.polyring import BinPoly, QuatPoly, clmod, reduce_mod2
from cyclo_oracle import is_irreducible, min_polys_by_field, mulmod, powmod

ODD_LENGTHS = [1, 3, 5, 7, 9, 15, 21]


class TestCosets:
    def test_n7(self):
        assert cyclotomic_cosets(7).cosets == ((0,), (1, 2, 4), (3, 5, 6))

    def test_n1_and_n3(self):
        assert cyclotomic_cosets(1).cosets == ((0,),)
        assert cyclotomic_cosets(3).cosets == ((0,), (1, 2))

    @pytest.mark.parametrize("n", ODD_LENGTHS)
    def test_partition_properties(self, n):
        table = cyclotomic_cosets(n)
        flat = [i for c in table.cosets for i in c]
        assert sorted(flat) == list(range(n))
        for c in table.cosets:
            assert set((2 * i) % n for i in c) == set(c)
        assert (0,) in table.cosets

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            cyclotomic_cosets(6)

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            cyclotomic_cosets(MAX_MODULUS + 2)


class TestFactorZ2:
    def test_n7(self):
        got = {str(p) for p in factor_xn_minus_1_z2(7)}
        assert got == {"x+1", "x^3+x+1", "x^3+x^2+1"}

    def test_n1_n3(self):
        assert [str(p) for p in factor_xn_minus_1_z2(1)] == ["x+1"]
        assert {str(p) for p in factor_xn_minus_1_z2(3)} == {"x+1", "x^2+x+1"}

    @pytest.mark.parametrize("n", ODD_LENGTHS)
    def test_product_is_xn_minus_1(self, n):
        prod = reduce(lambda a, b: a * b, factor_xn_minus_1_z2(n))
        assert prod == BinPoly.xn_minus_1(n)

    @pytest.mark.parametrize("n", ODD_LENGTHS)
    def test_sorted_deterministically(self, n):
        fs = factor_xn_minus_1_z2(n)
        keys = [(len(p.coeffs), p.coeffs) for p in fs]
        assert keys == sorted(keys)


class TestFactorZ4:
    def test_n7(self):
        got = {str(p) for p in factor_xn_minus_1_z4(7)}
        assert got == {"x+3", "x^3+2x^2+x+3", "x^3+3x^2+2x+3"}

    def test_n3_n1(self):
        assert {str(p) for p in factor_xn_minus_1_z4(3)} == {"x+3", "x^2+x+1"}
        assert [str(p) for p in factor_xn_minus_1_z4(1)] == ["x+3"]

    @pytest.mark.parametrize("n", ODD_LENGTHS)
    def test_product_and_reductions(self, n):
        z4 = factor_xn_minus_1_z4(n)
        prod = reduce(lambda a, b: a * b, z4)
        assert prod == QuatPoly.xn_minus_1(n)
        assert {reduce_mod2(p) for p in z4} == set(factor_xn_minus_1_z2(n))


class TestRoots:
    def test_x_plus_1(self):
        for n in (1, 7, 15):
            assert roots_of(BinPoly.parse("x+1"), n).exponents == {0}

    def test_degree3_factor(self):
        s = roots_of(BinPoly.parse("x^3+x+1"), 7).exponents
        assert s in ({1, 2, 4}, {3, 5, 6})

    def test_full_polynomial(self):
        assert roots_of(BinPoly.xn_minus_1(9), 9).exponents == set(range(9))

    def test_non_divisor_rejected(self):
        with pytest.raises(DomainError):
            roots_of(BinPoly.parse("x^2+1"), 7)

    @pytest.mark.parametrize("n", [7, 9, 15])
    def test_round_trip(self, n):
        for p in divisors_of_xn_minus_1_z2(n):
            if p.is_zero or p == BinPoly.one():
                continue
            assert from_roots(roots_of(p, n)) == p


class TestTensorSquare:
    def test_x_plus_1(self):
        assert tensor_square(BinPoly.parse("x+1"), 7) == BinPoly.parse("x+1")

    def test_one(self):
        assert tensor_square(BinPoly.one(), 7) == BinPoly.one()

    def test_three_element_coset_covers_everything_but_zero(self):
        # roots {1,2,4}: sums cover 1..6, so the result is (x^7-1)/(x+1)
        p = BinPoly.parse("x^3+x+1")
        expected = BinPoly.xn_minus_1(7) // BinPoly.parse("x+1")
        assert tensor_square(p, 7) == expected

    @pytest.mark.parametrize("n,s", [(3, 1), (9, 3), (15, 5), (15, 3), (7, 7)])
    def test_subgroup_roots_fixed(self, n, s):
        # the roots of x^s - 1 (s | n) form a subgroup: fixed by the operation
        g = BinPoly.xn_minus_1(s)
        assert tensor_square(g, n) == g

    @pytest.mark.parametrize("n", [7, 9, 15])
    def test_divides_xn_minus_1_and_sumset(self, n):
        for p in divisors_of_xn_minus_1_z2(n):
            if p == BinPoly.one() or p.is_zero:
                continue
            t = tensor_square(p, n)
            assert t.divides(BinPoly.xn_minus_1(n)) or t == BinPoly.xn_minus_1(n)
            s = roots_of(p, n).exponents
            sums = {(i + j) % n for i in s for j in s}
            assert roots_of(t, n).exponents == sums

    def test_invariant_under_unit_relabelling(self):
        # xi^u is another primitive root for every unit u mod n; labelling
        # coset C by the minimal polynomial of xi^(u*c) changes the root
        # sets, but every root-product polynomial stays the same
        for n in (7, 9, 15, 17, 21):
            min_polys = _context(n).min_polys
            coset_of = {i: c for c in min_polys for i in c}
            for u in (u for u in range(1, n) if gcd(u, n) == 1):
                relabel = {c: min_polys[coset_of[u * c[0] % n]] for c in min_polys}
                for p in divisors_of_xn_minus_1_z2(n):
                    s = {i for c, mp in relabel.items() if mp.divides(p) for i in c}
                    sums = {(i + j) % n for i in s for j in s}
                    square = reduce(
                        lambda a, b: a * b,
                        (mp for c, mp in relabel.items() if c[0] in sums),
                        BinPoly.one(),
                    )
                    assert square == tensor_square(p, n)

    @pytest.mark.parametrize("n", [7, 15])
    def test_monotone_under_divisibility(self, n):
        divisors = [d for d in divisors_of_xn_minus_1_z2(n) if not d == BinPoly.one()]
        for p, q in combinations(divisors, 2):
            if p.divides(q):
                assert tensor_square(p, n).divides(tensor_square(q, n))


def _field(n):
    """The factor that xi = x is taken modulo: the minimal polynomial of xi."""
    ctx = _context(n)
    return next(mp for c, mp in ctx.min_polys.items() if 1 % n in c).bits


class TestField:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15, 31, 51, 85, 127, 255])
    def test_unity_root_has_exact_order(self, n):
        xi, mod = _context(n).xi, _field(n)
        assert xi == clmod(2, mod)
        assert powmod(xi, n, mod) == 1
        for q in _prime_factors(n):
            assert powmod(xi, n // q, mod) != 1

    def test_large_n_still_works(self):
        # n = 253 has extension degree 110; int-encoded arithmetic keeps up
        fs = factor_xn_minus_1_z2(253)
        assert reduce(lambda a, b: a * b, fs) == BinPoly.xn_minus_1(253)


ALL_ODD = range(1, MAX_MODULUS + 1, 2)


def _eval_at(p: int, r: int, mod: int) -> int:
    # p(r) modulo mod, by Horner
    acc = 0
    for k in range(p.bit_length() - 1, -1, -1):
        acc = mulmod(acc, r, mod) ^ (p >> k & 1)
    return acc


class TestIdempotentSplit:
    def test_factors_are_the_minimal_polynomials(self):
        # every odd n up to the bound: irreducible, one per coset with the
        # coset's degree, distinct, x^n - 1 in product, zero at each xi^c
        for n in ALL_ODD:
            ctx = _context(n)
            min_polys = ctx.min_polys
            assert tuple(min_polys) == cyclotomic_cosets(n).cosets
            assert len(set(min_polys.values())) == len(min_polys)
            assert reduce(lambda a, b: a * b, min_polys.values()) == BinPoly.xn_minus_1(n)
            mod = _field(n)
            for coset, mp in min_polys.items():
                assert mp.degree == len(coset)
                assert is_irreducible(mp.bits)
                # p(r)^2 = p(r^2) over Z2: zero at xi^c[0] is zero on the coset
                assert _eval_at(mp.bits, powmod(ctx.xi, coset[0], mod), mod) == 0

    @pytest.mark.parametrize("n", [*range(1, 100, 2), 127, 255])
    def test_matches_the_field_construction(self, n):
        # the same factors, labelled alike up to a unit u mod n
        ctx, ref = _context(n), min_polys_by_field(n)
        assert set(ctx.min_polys.values()) == set(ref.values())
        coset_of = {i: c for c in ref for i in c}
        assert any(
            all(ref[coset_of[u * c[0] % n]] == mp for c, mp in ctx.min_polys.items())
            for u in range(1, n + 1) if gcd(u, n) == 1
        )
        for coset, mp in ref.items():
            sums = {(i + j) % n for i in coset for j in coset}
            square = reduce(
                lambda a, b: a * b, (q for c, q in ref.items() if c[0] in sums), BinPoly.one()
            )
            assert square == tensor_square(mp, n)


class TestDivisors:
    def test_even_length(self):
        got = {str(d) for d in divisors_of_xn_minus_1_z2(4)}
        assert got == {"1", "x+1", "x^2+1", "x^3+x^2+x+1", "x^4+1"}

    def test_odd_length(self):
        got = {str(d) for d in divisors_of_xn_minus_1_z2(3)}
        assert got == {"1", "x+1", "x^2+x+1", "x^3+1"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 12])
    def test_all_divide(self, n):
        for d in divisors_of_xn_minus_1_z2(n):
            assert d.divides(BinPoly.xn_minus_1(n))
