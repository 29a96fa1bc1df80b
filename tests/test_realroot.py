import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from ccq.errors import GenericityViolation, NotSquareFree, RootAtEndpoint, ZeroInput
from ccq.polynomials import BiPoly, UniPoly, first_subresultant_x2, partial
from ccq.realroot import (
    AlgebraicNumber,
    Interval,
    fiber_roots,
    isolate,
    refine,
    sign_at,
    sturm_count,
)

SQRT2 = UniPoly([-2, 0, 1])


def _sqrt2():
    return isolate(SQRT2)[1]


# products of distinct linear factors (v x - u) and distinct irreducible
# quadratics, with their real roots known by construction
_PRIMES = (200003, 200009, 200017, 200023)
_denominators = st.one_of(
    st.integers(1, 12),
    st.integers(1, 10**12),
    st.tuples(st.sampled_from(_PRIMES), st.sampled_from(_PRIMES)).map(math.prod),
    st.integers(0, 40).map(lambda j: 1 << j),
)
_rational = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.tuples(st.integers(-64, 64), st.integers(0, 6)).map(lambda t: F(t[0], 1 << t[1])),
    _denominators.flatmap(lambda v: st.integers(-4 * v, 4 * v).map(lambda u: F(u, v))),
)


def _irreducible(abc):
    a, b, c = abc
    disc = b * b - 4 * a * c
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def _primitive(abc):
    g = math.gcd(*abc)
    return tuple(v // g for v in abc)


_quadratic = st.tuples(st.integers(1, 20), st.integers(-30, 30),
                       st.integers(-30, 30)).filter(_irreducible).map(_primitive)


def _products():
    return st.tuples(st.lists(_rational, max_size=5, unique=True),
                     st.lists(_quadratic, max_size=2, unique=True)).filter(
        lambda t: t[0] or t[1])


def _product(rationals, quadratics):
    p = UniPoly([1])
    for r in rationals:
        p = p * UniPoly([-r.numerator, r.denominator])
    for a, b, c in quadratics:
        p = p * UniPoly([c, b, a])
    return p


def _dec(r):
    with localcontext() as ctx:
        ctx.prec = 100
        return Decimal(r.numerator) / Decimal(r.denominator)


def _expected_roots(rationals, quadratics):
    """Sorted (100-digit key, exact value or None for irrational roots)."""
    out = [(_dec(r), r) for r in rationals]
    with localcontext() as ctx:
        ctx.prec = 100
        for a, b, c in quadratics:
            disc = b * b - 4 * a * c
            if disc > 0:
                for sign in (-1, 1):
                    out.append(((-b + sign * Decimal(disc).sqrt()) / (2 * a), None))
    return sorted(out, key=lambda t: t[0])


class TestIsolate:
    def test_sqrt2(self):
        roots = isolate(SQRT2)
        assert len(roots) == 2
        for r in roots:
            lo, hi = r.isol.lo, r.isol.hi
            assert (r.defining(lo) > 0) != (r.defining(hi) > 0)
        assert roots[0].isol.hi <= roots[1].isol.lo

    def test_rational_roots_exact(self):
        roots = isolate(UniPoly([0, 1, 1]))
        assert [r.value for r in roots] == [F(-1), F(0)]
        assert all(r.defining.degree == 1 for r in roots)

    def test_constant(self):
        assert isolate(UniPoly([5])) == []

    def test_zero_raises(self):
        with pytest.raises(ZeroInput):
            isolate(UniPoly.zero())

    def test_not_squarefree_raises(self):
        with pytest.raises(NotSquareFree):
            isolate(UniPoly([1, 1]) ** 2)

    def test_mixed_rational_irrational(self):
        p = UniPoly([-1, 0, 1]) * UniPoly([F(-1, 2), 1]) * UniPoly([-3, 0, 1])
        roots = isolate(p)
        assert len(roots) == 5
        assert [r.is_rational for r in roots] == [False, True, True, True, False]
        for a, b in zip(roots, roots[1:]):
            assert a.isol.hi <= b.isol.lo

    def test_count_matches_sturm(self):
        rng = random.Random(3)
        for _ in range(30):
            roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
            p = UniPoly([1])
            for r in roots:
                p = p * UniPoly([-r, 1])
            found = isolate(p)
            assert len(found) == len(roots)
            assert [a.value for a in found] == [F(r) for r in roots]
            assert sturm_count(p, Interval(F(-100), F(100))) == len(roots)


class TestRationalGrid:
    """Rational roots u/v of an integer polynomial lie on the grid Z/lc."""

    def test_denominators_beyond_trial_division(self):
        P, Q = 200003, 200009
        p = UniPoly([-1, P * P * Q]) * UniPoly([-1, P]) * SQRT2
        roots = isolate(p)
        assert [r.is_rational for r in roots] == [False, True, True, False]
        assert [roots[1].value, roots[2].value] == [F(1, P * P * Q), F(1, P)]
        assert roots[1].defining.degree == roots[2].defining.degree == 1
        assert roots[0].defining == roots[3].defining == SQRT2

    @given(_products())
    @example(([F(0), F(1, 3)], []))
    @example(([F(-1, 2), F(1, 2), F(1, 200003 * 200009)], [(1, 0, -2)]))
    @example(([F(2 ** 40 + 1, 2 ** 40)], [(3, -1, -1)]))
    def test_construction(self, factors):
        rationals, quadratics = factors
        p = _product(rationals, quadratics)
        roots = isolate(p)
        want = _expected_roots(rationals, quadratics)
        assert len(roots) == len(want)
        cofactor = UniPoly([1])
        for a, b, c in quadratics:
            cofactor = cofactor * UniPoly([c, b, a])
        for got, (key, exact) in zip(roots, want):
            assert got.is_rational == (exact is not None)
            if exact is not None:
                assert got.value == exact
            else:
                assert got.defining == cofactor.monic()
                assert _dec(got.isol.lo) < key < _dec(got.isol.hi)

    @given(_products())
    def test_agrees_with_sympy(self, factors):
        sympy = pytest.importorskip("sympy")
        p = _product(*factors)
        x = sympy.Symbol("x")
        ref = sympy.real_roots(sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x))
        roots = isolate(p)
        assert len(roots) == len(ref)
        for got, r in zip(roots, ref):
            assert got.is_rational == bool(r.is_rational)
            if got.is_rational:
                assert got.value == F(int(r.p), int(r.q))
            else:
                lo, hi = (sympy.Rational(v.numerator, v.denominator)
                          for v in (got.isol.lo, got.isol.hi))
                assert lo < r < hi


class TestRefine:
    def test_sqrt2_decimal(self):
        a = refine(_sqrt2(), F(1, 100))
        assert a.isol.width < F(1, 100)
        mid = a.isol.mid
        assert F(141, 100) < mid < F(142, 100)

    def test_preserves_sign_change(self):
        a = refine(_sqrt2(), F(1, 10**9))
        assert (a.defining(a.isol.lo) > 0) != (a.defining(a.isol.hi) > 0)

    def test_rational_tightens(self):
        a = AlgebraicNumber.from_rational(F(3, 7))
        b = refine(a, F(1, 1000))
        assert b.isol.width < F(1, 1000)
        assert b.isol.lo < F(3, 7) < b.isol.hi

    def test_idempotent_on_tight(self):
        a = refine(_sqrt2(), F(1, 1000))
        b = refine(a, F(1, 1000))
        assert b.isol.width <= a.isol.width


class TestSturm:
    def test_examples(self):
        assert sturm_count(SQRT2, Interval(F(0), F(2))) == 1
        assert sturm_count(SQRT2, Interval(F(-2), F(2))) == 2
        assert sturm_count(UniPoly([1, 0, 1]), Interval(F(-10), F(10))) == 0

    def test_root_at_endpoint(self):
        with pytest.raises(RootAtEndpoint):
            sturm_count(UniPoly([0, 1]), Interval(F(0), F(1)))


class TestSignAt:
    def test_examples(self):
        s2 = _sqrt2()
        assert sign_at(UniPoly([-1, 1]), s2) == 1
        assert sign_at(SQRT2, s2) == 0
        assert sign_at(UniPoly([0, 1]), isolate(SQRT2)[0]) == -1
        assert sign_at(UniPoly([-3, 0, 1]), s2) == -1

    def test_agrees_with_float(self):
        rng = random.Random(11)
        s2 = _sqrt2()
        for _ in range(1000):
            p = UniPoly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
            v = sum(float(c) * math.sqrt(2) ** i for i, c in enumerate(p.coeffs))
            if abs(v) < 1e-6:
                continue
            assert sign_at(p, s2) == (1 if v > 0 else -1)


class TestFiberRoots:
    def test_circle_rational(self):
        circ = BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)])
        pts = fiber_roots(circ, AlgebraicNumber.from_rational(0))
        assert [m for _, m in pts] == [1, 1]
        assert pts[0][0].exact == -1 and pts[1][0].exact == 1

    def test_nodal_double_ordinates(self):
        nodal = BiPoly([(0, 2, 1), (3, 0, -1), (2, 0, -1)])
        for a in (0, -1):
            pts = fiber_roots(nodal, AlgebraicNumber.from_rational(a))
            assert len(pts) == 1
            fp, m = pts[0]
            assert m == 2 and fp.exact == 0

    def test_irrational_critical_fiber(self):
        c2 = BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -2)])
        hint = first_subresultant_x2(c2, partial(c2, "x2"))
        pts = fiber_roots(c2, _sqrt2(), multiple_root_hint=hint)
        assert len(pts) == 1 and pts[0][1] == 2
        fp = pts[0][0]
        assert fp.lo <= 0 <= fp.hi

    def test_irrational_regular_fiber(self):
        circ = BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)])
        a = isolate(UniPoly([F(-1, 2), 0, 1]))[1]
        pts = fiber_roots(circ, a)
        assert len(pts) == 2 and all(m == 1 for _, m in pts)
        lo_pt, hi_pt = pts[0][0], pts[1][0]
        for _ in range(4):
            lo_pt.refine()
            hi_pt.refine()
        assert lo_pt.hi < 0 < hi_pt.lo

    def test_missing_hint_raises(self):
        c2 = BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -2)])
        with pytest.raises(GenericityViolation):
            fiber_roots(c2, _sqrt2(), multiple_root_hint=None)

    def test_refinement_converges(self):
        w = BiPoly([(0, 3, 1), (1, 0, -1)])  # x2^3 = x1
        pts = fiber_roots(w, _sqrt2())
        assert len(pts) == 1
        fp = pts[0][0]
        for _ in range(25):
            fp.refine()
        v = 2 ** (1 / 6)
        assert float(fp.lo) < v < float(fp.hi)
        assert fp.width < F(1, 1000)
