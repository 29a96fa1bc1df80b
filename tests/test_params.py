from fractions import Fraction as F

from ccq.params import (
    OneDimParam,
    ZeroDimParam,
    genericity_report,
    validate_one_dim,
    validate_zero_dim,
)
from ccq.polynomials import BiPoly, UniPoly

CIRCLE = OneDimParam(2, BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)]), ())
# (t^2 - 1, t^3 - t, t): x3 = rho3 / (d omega / d x2)
NODAL3 = OneDimParam(
    3,
    BiPoly([(0, 2, 1), (3, 0, -1), (2, 0, -1)]),
    (BiPoly([(2, 0, 2), (1, 0, 2)]),),
)


class TestValidateZeroDim:
    def test_two_circle_queries_ok(self):
        P = ZeroDimParam(2, UniPoly([F(18, 25), F(-9, 5), 1]),
                         (UniPoly([F(-48, 25), F(12, 5)]),))
        rep = validate_zero_dim(P)
        assert rep.ok
        assert rep.warnings  # non-integer coefficients accepted with a warning

    def test_not_squarefree(self):
        P = ZeroDimParam(2, UniPoly([1, 2, 1]), (UniPoly([1]),))
        rep = validate_zero_dim(P)
        assert not rep.ok
        assert any("NotSquareFree" in v for v in rep.violations)

    def test_degree_violation(self):
        P = ZeroDimParam(2, UniPoly([-1, 1]), (UniPoly([0, 0, 1]),))
        rep = validate_zero_dim(P)
        assert any("DegreeViolation" in v for v in rep.violations)

    def test_not_monic(self):
        P = ZeroDimParam(2, UniPoly([-1, 2]), (UniPoly([1]),))
        rep = validate_zero_dim(P)
        assert any("NotMonic" in v for v in rep.violations)

    def test_zero_lambda(self):
        rep = validate_zero_dim(ZeroDimParam(2, UniPoly.zero(), (UniPoly([1]),)))
        assert any("ZeroInput" in v for v in rep.violations)

    def test_arity_and_dimension(self):
        rep = validate_zero_dim(ZeroDimParam(1, UniPoly([-1, 1]), ()))
        assert any("DimensionViolation" in v for v in rep.violations)
        rep = validate_zero_dim(ZeroDimParam(3, UniPoly([-1, 1]), (UniPoly([1]),)))
        assert any("ArityViolation" in v for v in rep.violations)


class TestValidateOneDim:
    def test_circle_ok(self):
        assert validate_one_dim(CIRCLE).ok

    def test_nodal3_ok(self):
        assert validate_one_dim(NODAL3).ok

    def test_not_monic_in_x2(self):
        C = OneDimParam(2, BiPoly([(0, 2, 2), (0, 0, -1)]), ())
        rep = validate_one_dim(C)
        assert any("NotMonicInX2" in v for v in rep.violations)

    def test_not_monic_in_x1_warns_only(self):
        C = OneDimParam(2, BiPoly([(0, 2, 1), (1, 0, 3)]), ())
        rep = validate_one_dim(C)
        assert rep.ok
        assert any("NotMonicInX1" in w for w in rep.warnings)

    def test_not_squarefree(self):
        C = OneDimParam(2, BiPoly([(0, 1, 1), (1, 0, -1)]) ** 2, ())
        rep = validate_one_dim(C)
        assert any("NotSquareFree" in v for v in rep.violations)

    def test_rho_degree_violation(self):
        C = OneDimParam(3, NODAL3.omega, (BiPoly([(0, 2, 1)]),))
        rep = validate_one_dim(C)
        assert any("DegreeViolation" in v for v in rep.violations)

    def test_missing_x2(self):
        C = OneDimParam(2, BiPoly([(2, 0, 1), (0, 0, -1)]), ())
        rep = validate_one_dim(C)
        assert any("DegenerateCurve" in v for v in rep.violations)

    def test_arity(self):
        rep = validate_one_dim(OneDimParam(3, CIRCLE.omega, ()))
        assert any("ArityViolation" in v for v in rep.violations)


class TestGenericityReport:
    def test_circle_no_queries(self):
        rep = dict(genericity_report(CIRCLE))
        assert rep["resultant_nonzero"] == "pass"
        assert rep["sr1_nonzero_at_critical"] == "pass"
        assert rep["critical_multiplicity_two"] == "pass"
        assert rep["noether_position_H2"] == "unknown"
        assert rep["projection_injectivity_H3"] == "unknown"
        assert rep["no_singular_secants_H6"] == "unknown"

    def test_order_is_stable(self):
        names = [n for n, _ in genericity_report(CIRCLE)]
        assert names == [
            "resultant_nonzero",
            "sr1_nonzero_at_critical",
            "critical_multiplicity_two",
            "queries_avoid_critical_fibers",
            "queries_on_curve",
            "noether_position_H2",
            "projection_injectivity_H3",
            "no_singular_secants_H6",
        ]

    def test_queries_on_curve(self):
        on = ZeroDimParam(2, UniPoly([F(-3, 5), 1]), (UniPoly([F(4, 5)]),))
        rep = dict(genericity_report(CIRCLE, on))
        assert rep["queries_on_curve"] == "pass"
        off = ZeroDimParam(2, UniPoly([F(-3, 5), 1]), (UniPoly([F(1, 5)]),))
        rep = dict(genericity_report(CIRCLE, off))
        assert rep["queries_on_curve"] == "fail"

    def test_queries_on_critical_fiber(self):
        # lambda has root 1, a critical abscissa of the circle
        bad = ZeroDimParam(2, UniPoly([-1, 1]), (UniPoly([0]),))
        rep = dict(genericity_report(CIRCLE, bad))
        assert rep["queries_avoid_critical_fibers"] == "fail"

    def test_nodal3(self):
        rep = dict(genericity_report(NODAL3))
        assert rep["resultant_nonzero"] == "pass"
        assert rep["sr1_nonzero_at_critical"] == "pass"
        assert rep["critical_multiplicity_two"] == "pass"

    def test_degenerate_resultant(self):
        C = OneDimParam(2, BiPoly([(0, 1, 1), (1, 0, -1)]) ** 2, ())
        rep = dict(genericity_report(C))
        assert rep["resultant_nonzero"] == "fail"
