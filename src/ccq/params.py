"""Rational parametrizations of curves and finite point sets.

A `OneDimParam` encodes an algebraic curve in R^n as the Zariski closure of
    (x1, x2, rho_3/dw, ..., rho_n/dw)   on   omega(x1, x2) = 0,  dw != 0,
where dw is the x2-partial of omega.  A `ZeroDimParam` encodes a finite set
of query points as (b, theta_2(b)/lambda'(b), ...) over the real roots b of
lambda.  Validation is report-style; genericity diagnostics check necessary
consequences of the generic-position assumptions and report the remaining
ones as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .polynomials import (
    BiPoly,
    UniPoly,
    first_subresultant_x2,
    gcd,
    homogenized_substitute,
    partial,
    resultant_x2,
    squarefree_part,
)
from . import realroot
from .realroot import sign_at

__all__ = [
    "ZeroDimParam",
    "OneDimParam",
    "Elimination",
    "ValidationReport",
    "validate_zero_dim",
    "validate_one_dim",
    "genericity_report",
]


@dataclass(frozen=True)
class ZeroDimParam:
    """Finite point set in R^n: (b, th_2(b)/lam'(b), ..., th_n(b)/lam'(b))."""

    n: int
    lam: UniPoly
    thetas: tuple

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(self.thetas))

    def restrict_plane(self) -> "ZeroDimParam":
        """Projection to the first two coordinates: keeps only theta_2."""
        return ZeroDimParam(2, self.lam, self.thetas[:1])


@dataclass(frozen=True)
class Elimination:
    """Elimination of x2 from omega = d omega/d x2 = 0.

    R = Res_x2(omega, d omega/d x2); R_star is its monic square-free part;
    q = gcd(R_star, R') / gcd(R_star, R', R'') keeps exactly the double roots
    of R; the first subresultant is S1 = sr1 * x2 + sr10.  When R vanishes
    identically (omega not square-free) only R is set.
    """

    R: UniPoly
    R_star: UniPoly | None = None
    q: UniPoly | None = None
    sr1: UniPoly | None = None
    sr10: UniPoly | None = None


@dataclass(frozen=True)
class OneDimParam:
    """Curve in R^n given by omega(x1,x2) and coordinate numerators rho_i."""

    n: int
    omega: BiPoly
    rhos: tuple

    def __post_init__(self):
        object.__setattr__(self, "rhos", tuple(self.rhos))

    @cached_property
    def d_omega_x2(self) -> BiPoly:
        return partial(self.omega, "x2")

    @cached_property
    def elimination(self) -> Elimination:
        """The elimination of x2, computed once per curve; needs deg_x2 omega >= 1."""
        one = UniPoly.one()
        if self.omega.deg_x2 < 2:
            return Elimination(one, one, one, one, UniPoly.zero())
        R = resultant_x2(self.omega, self.d_omega_x2)
        if R.is_zero:
            return Elimination(R)
        R_star = squarefree_part(R) if R.degree >= 1 else one
        dR = R.derivative()
        a = gcd(R_star, dR) if not dR.is_zero else R_star
        b = gcd(a, dR.derivative()) if a.degree >= 1 else a
        q = a.exact_div(b).monic() if a.degree >= 1 else one
        sr1, sr10 = first_subresultant_x2(self.omega, self.d_omega_x2)
        return Elimination(R, R_star, q, sr1, sr10)


@dataclass
class ValidationReport:
    ok: bool = True
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def fail(self, msg: str):
        self.ok = False
        self.violations.append(msg)

    def warn(self, msg: str):
        self.warnings.append(msg)


def _all_integer_uni(p: UniPoly) -> bool:
    return all(c.denominator == 1 for c in p.coeffs)


def _all_integer_bi(p: BiPoly) -> bool:
    return all(c.denominator == 1 for _, _, c in p.terms())


def validate_zero_dim(P: ZeroDimParam) -> ValidationReport:
    rep = ValidationReport()
    if P.n < 2:
        rep.fail(f"DimensionViolation: n = {P.n} < 2")
    if len(P.thetas) != P.n - 1:
        rep.fail(f"ArityViolation: expected {P.n - 1} theta polynomials, got {len(P.thetas)}")
    if P.lam.is_zero:
        rep.fail("ZeroInput: lambda is the zero polynomial")
        return rep
    if P.lam.lc != 1:
        rep.fail("NotMonic: lambda is not monic")
    if P.lam.degree >= 1 and gcd(P.lam, P.lam.derivative()).degree > 0:
        rep.fail("NotSquareFree: lambda has a repeated root")
    for i, t in enumerate(P.thetas, start=2):
        if t.degree >= P.lam.degree:
            rep.fail(f"DegreeViolation: deg theta_{i} = {t.degree} >= deg lambda = {P.lam.degree}")
    if not (_all_integer_uni(P.lam) and all(_all_integer_uni(t) for t in P.thetas)):
        rep.warn("non-integer rational coefficients accepted")
    return rep


def validate_one_dim(C: OneDimParam) -> ValidationReport:
    rep = ValidationReport()
    if C.n < 2:
        rep.fail(f"DimensionViolation: n = {C.n} < 2")
    if len(C.rhos) != max(C.n - 2, 0):
        rep.fail(f"ArityViolation: expected {max(C.n - 2, 0)} rho polynomials, got {len(C.rhos)}")
    w = C.omega
    if w.is_zero:
        rep.fail("ZeroInput: omega is the zero polynomial")
        return rep
    d2 = w.deg_x2
    if d2 < 1:
        rep.fail("DegenerateCurve: omega does not involve x2")
        return rep
    lead = w.coeffs_x2()[-1]
    if not (lead.degree == 0 and lead.lc == 1):
        rep.fail("NotMonicInX2: leading x2-coefficient of omega is not 1")
    # monic in x1 is part of the general definition but not of the operative
    # hypotheses; warn only
    lead1 = _leading_x1_coeff(w)
    if not (lead1.degree == 0 and lead1.lc == 1):
        rep.warn("NotMonicInX1: leading x1-coefficient of omega is not 1")
    if d2 >= 2 and rep.ok:
        if C.elimination.R.is_zero:
            rep.fail("NotSquareFree: omega has a repeated factor (vanishing discriminant)")
    for i, r in enumerate(C.rhos, start=3):
        if r.deg_x2 >= d2:
            rep.fail(f"DegreeViolation: x2-degree of rho_{i} is not below x2-degree of omega")
    if not (_all_integer_bi(w) and all(_all_integer_bi(r) for r in C.rhos)):
        rep.warn("non-integer rational coefficients accepted")
    return rep


def _leading_x1_coeff(w: BiPoly) -> UniPoly:
    """Coefficient of the highest x1-power, as a polynomial in x2."""
    d1 = w.deg_x1
    cs = {}
    for e1, e2, c in w.terms():
        if e1 == d1:
            cs[e2] = c
    out = [Fraction(0)] * (max(cs) + 1)
    for e2, c in cs.items():
        out[e2] = c
    return UniPoly(out)


def genericity_report(C: OneDimParam, P: ZeroDimParam | None = None):
    """Decidable consequences of the generic-position assumptions.

    Returns an ordered list of (check-name, 'pass' | 'fail' | 'unknown').
    """
    from . import apparent  # deferred; apparent imports params types
    from .errors import DegenerateCurve

    checks = []
    w = C.omega
    res = None
    try:
        res = apparent.apparent_singularities(C)
        checks.append(("resultant_nonzero", "pass"))
    except DegenerateCurve:
        checks.append(("resultant_nonzero", "fail"))

    if res is not None:
        if res.q.degree < 1:
            checks.append(("sr1_nonzero_at_critical", "pass"))
            checks.append(("critical_multiplicity_two", "pass"))
        else:
            ok_b = all(sign_at(res.sr1, a) != 0 for a in realroot.isolate(res.q))
            checks.append(("sr1_nonzero_at_critical", "pass" if ok_b else "fail"))
            dR = res.R.derivative()
            ddR = dR.derivative()
            ok_d = True
            for a in realroot.isolate(res.q_app) if res.q_app.degree >= 1 else []:
                if sign_at(dR, a) != 0 or sign_at(ddR, a) == 0:
                    ok_d = False
            checks.append(("critical_multiplicity_two", "pass" if ok_d else "fail"))
    else:
        checks.append(("sr1_nonzero_at_critical", "unknown"))
        checks.append(("critical_multiplicity_two", "unknown"))

    if P is None or P.lam.degree < 1:
        checks.append(("queries_avoid_critical_fibers", "pass"))
        checks.append(("queries_on_curve", "pass"))
    else:
        if res is not None and res.R.degree >= 1:
            ok_c = gcd(P.lam, res.R).degree == 0
        else:
            ok_c = True
        checks.append(("queries_avoid_critical_fibers", "pass" if ok_c else "fail"))
        # query points lie on omega = 0: with x2 = theta_2/lambda', clearing
        # denominators gives a univariate polynomial that must vanish at each
        # root of lambda
        dlam = P.lam.derivative()
        h = homogenized_substitute(w, P.thetas[0], dlam)
        ok_e = all(sign_at(h, b) == 0 for b in realroot.isolate(P.lam))
        checks.append(("queries_on_curve", "pass" if ok_e else "fail"))

    checks.append(("noether_position_H2", "unknown"))
    checks.append(("projection_injectivity_H3", "unknown"))
    checks.append(("no_singular_secants_H6", "unknown"))
    return checks
