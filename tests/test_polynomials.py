import random
from fractions import Fraction as F

import pytest

from ccq.errors import BothZero, DegenerateInput, ZeroDenominator, ZeroInput
from ccq.polynomials import (
    BiPoly,
    UniPoly,
    eval_fiber,
    first_subresultant_x2,
    gcd,
    homogenized_substitute,
    partial,
    resultant_x2,
    squarefree_part,
)

from oracles import resultant_point_count, sylvester_resultant_at

CIRCLE = BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)])
NODAL = BiPoly([(0, 2, 1), (3, 0, -1), (2, 0, -1)])


class TestUniPoly:
    def test_arithmetic(self):
        p = UniPoly([1, 2, 1])  # (x+1)^2
        q = UniPoly([1, 1])
        assert p == q * q
        assert divmod(p, q) == (q, UniPoly.zero())
        assert (p - q * q).is_zero
        assert p(F(2)) == 9

    def test_divmod_remainder(self):
        p = UniPoly([1, 0, 0, 1])  # x^3+1
        q = UniPoly([1, 1])
        d, r = divmod(p, q)
        assert d * q + r == p
        assert r.is_zero

    def test_derivative_and_eval(self):
        p = UniPoly([5, -3, 0, 2])
        assert p.derivative() == UniPoly([-3, 0, 6])
        assert p(F(1, 2)) == 5 - F(3, 2) + F(2, 8)

    def test_interval_eval_contains_value(self):
        p = UniPoly([-2, 0, 1])
        lo, hi = p.eval_interval(F(1), F(2))
        assert lo <= p(F(3, 2)) <= hi

    def test_monic_and_exact_div(self):
        p = UniPoly([0, 2, 2])
        assert p.monic() == UniPoly([0, 1, 1])
        assert p.exact_div(UniPoly([2])) == UniPoly([0, 1, 1])
        with pytest.raises(ArithmeticError):
            UniPoly([1, 1]).exact_div(UniPoly([0, 1]))


class TestGcdSquarefree:
    def test_gcd_basic(self):
        p = UniPoly([0, 1, 1])
        q = UniPoly([0, 8, 12])
        g = gcd(p, q)
        assert g.degree == 1 and g.lc == 1

    def test_gcd_both_zero(self):
        with pytest.raises(BothZero):
            gcd(UniPoly.zero(), UniPoly.zero())

    def test_gcd_one_zero(self):
        assert gcd(UniPoly([0, 2]), UniPoly.zero()) == UniPoly([0, 1])

    def test_squarefree_part(self):
        p = UniPoly([1, 1]) ** 3 * UniPoly([-2, 1])
        sf = squarefree_part(p)
        assert sf == UniPoly([1, 1]) * UniPoly([-2, 1])

    def test_squarefree_zero_input(self):
        with pytest.raises(ZeroInput):
            squarefree_part(UniPoly.zero())


class TestBiPoly:
    def test_eval_and_partial(self):
        assert CIRCLE.eval(F(3, 5), F(4, 5)) == 0
        assert partial(CIRCLE, "x2") == BiPoly([(0, 1, 2)])
        assert partial(CIRCLE, "x1") == BiPoly([(1, 0, 2)])

    def test_eval_fiber(self):
        p = eval_fiber(NODAL, F(2))
        assert p == UniPoly([-12, 0, 1])

    def test_coeffs_roundtrip(self):
        terms = [(e1, e2, c) for e2, p in enumerate(NODAL.coeffs_x2())
                 for e1, c in enumerate(p.coeffs)]
        assert BiPoly(terms) == NODAL

    def test_interval_eval(self):
        box = ((F(0), F(1)), (F(0), F(1)))
        lo, hi = CIRCLE.eval_interval(box)
        assert lo <= CIRCLE.eval(F(1, 2), F(1, 2)) <= hi


class TestResultant:
    def test_spec_nodal_example(self):
        # matches the Sylvester determinant of (omega, d omega/d x2)
        R = resultant_x2(NODAL, partial(NODAL, "x2"))
        assert R == UniPoly([0, 0, -4, -4])

    def test_circle_sylvester_convention(self):
        # sign fixed by the Sylvester determinant with f-rows first:
        # det [[1,0,x1^2-1],[2,0,0],[0,2,0]] = 4 x1^2 - 4
        R = resultant_x2(CIRCLE, partial(CIRCLE, "x2"))
        assert R == UniPoly([-4, 0, 4])
        for a in (F(0), F(1), F(-2), F(7, 3)):
            assert R(a) == sylvester_resultant_at(CIRCLE, partial(CIRCLE, "x2"), a)

    def test_constant_second_argument(self):
        tw = BiPoly([(0, 1, 1), (2, 0, -1)])
        R = resultant_x2(tw, partial(tw, "x2"))
        assert R == UniPoly([1])

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            resultant_x2(BiPoly([]), CIRCLE)

    def test_random_agrees_with_sylvester_values(self):
        rng = random.Random(7)
        for _ in range(40):
            f = _random_bipoly(rng)
            g = _random_bipoly(rng)
            if f.deg_x2 < 1 or g.deg_x2 < 0 or f.is_zero or g.is_zero:
                continue
            R = resultant_x2(f, g)
            for k in range(resultant_point_count(f, g)):
                a = F(k - 10, 3)
                assert R(a) == sylvester_resultant_at(f, g, a)

    def test_multiplicativity(self):
        # Res(f1*f2, g) = Res(f1, g) * Res(f2, g)
        f1 = BiPoly([(0, 2, 1), (1, 0, 1)])
        f2 = BiPoly([(0, 1, 1), (2, 0, -1), (0, 0, 3)])
        g = BiPoly([(0, 1, 2), (1, 0, 5)])
        assert resultant_x2(f1 * f2, g) == resultant_x2(f1, g) * resultant_x2(f2, g)


def _random_bipoly(rng, max_deg=4):
    terms = []
    for e1 in range(max_deg + 1):
        for e2 in range(max_deg + 1 - e1):
            if rng.random() < 0.4:
                terms.append((e1, e2, rng.randint(-9, 9)))
    return BiPoly(terms)


class TestFirstSubresultant:
    def test_nodal_proportional(self):
        sr1, sr10 = first_subresultant_x2(NODAL, partial(NODAL, "x2"))
        # (sr1, sr10) proportional to (2, 0)
        assert sr10.is_zero and sr1.degree == 0 and sr1.lc != 0

    def test_circle_proportional(self):
        sr1, sr10 = first_subresultant_x2(CIRCLE, partial(CIRCLE, "x2"))
        assert sr10.is_zero and sr1.degree == 0

    def test_double_root_location(self):
        # f = (x2 - x1)^2 (x2 + 1): at any a, double root at x2 = a
        f = (BiPoly([(0, 1, 1), (1, 0, -1)]) ** 2) * BiPoly([(0, 1, 1), (0, 0, 1)])
        sr1, sr10 = first_subresultant_x2(f, partial(f, "x2"))
        for a in (F(2), F(-1, 3), F(5)):
            if sr1(a) != 0:
                assert -sr10(a) / sr1(a) == a

    def test_preconditions(self):
        with pytest.raises(DegenerateInput):
            first_subresultant_x2(BiPoly([(0, 1, 1)]), BiPoly([(0, 0, 1)]))


class TestHomogenizedSubstitute:
    def test_simple(self):
        # x2^2 + x1 with x2 = 1/1: 1 + x1
        p = BiPoly([(0, 2, 1), (1, 0, 1)])
        h = homogenized_substitute(p, UniPoly.one(), UniPoly.one())
        assert h == UniPoly([1, 1])

    def test_clears_denominator(self):
        # omega(x1, t2/dl) * dl^2 at roots of lambda vanishes for on-curve queries
        lam = UniPoly([F(18, 25), F(-9, 5), 1])
        th2 = UniPoly([F(-48, 25), F(12, 5)])
        two = (BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)])
               * BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -4)]))
        h = homogenized_substitute(two, th2, lam.derivative())
        assert h % lam == UniPoly.zero()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            homogenized_substitute(CIRCLE, UniPoly.one(), UniPoly.zero())
