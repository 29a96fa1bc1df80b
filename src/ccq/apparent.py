"""Abscissas of apparent singularities of the plane projection.

An apparent singularity is a node of the projected plane curve that is not
the image of a singular point of the space curve: two branches that only
cross after projecting away the trailing coordinates.  Its abscissas are the
roots of a square-free polynomial q_app obtained by filtering the double
roots of the discriminant-like resultant R through a tangent-space criterion
evaluated at the double ordinate located by the first subresultant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateCurve, GenericityViolation
from .params import OneDimParam
from .polynomials import UniPoly, gcd, homogenized_substitute, partial
from .realroot import isolate

__all__ = ["ApparentResult", "apparent_singularities", "apparent_abscissas"]


@dataclass(frozen=True)
class ApparentResult:
    """q_app plus the intermediate elimination polynomials, for diagnostics.

    Divisibility chain: q_app | q | R_star, and R_star is the square-free
    part of R.  `degenerate_criterion` is set when the node criterion B
    vanished on all of q (gcd(q, B) = q), in which case q_app = 1 and the
    input most likely violates the generic-position assumptions.
    """

    q_app: UniPoly
    R: UniPoly
    R_star: UniPoly
    q: UniPoly
    sr1: UniPoly
    sr10: UniPoly
    B: UniPoly | None
    degenerate_criterion: bool = False


def apparent_singularities(C: OneDimParam) -> ApparentResult:
    """Square-free q_app whose real roots are the apparent-node abscissas.

    Steps: the curve's elimination supplies R, its square-free part R_star,
    the factor q keeping exactly the double roots of R (node and
    vertical-tangent candidates) and the first subresultant sr1*x2 + sr10;
    the criterion A = w_x2x2 * rho3_x1 - w_x1x2 * rho3_x2, homogenized in x2
    and evaluated at the double ordinate -sr10/sr1, yields B; abscissas
    where B vanishes are images of genuine space-curve singularities and are
    removed: q_app = q / gcd(q, B).
    """
    if C.omega.deg_x2 < 1:
        raise DegenerateCurve("omega does not involve x2")
    E = C.elimination
    if E.R.is_zero:
        raise DegenerateCurve("resultant of omega and its x2-partial vanishes")
    R, R_star, q, sr1, sr10 = E.R, E.R_star, E.q, E.sr1, E.sr10

    if C.n == 2 or q.degree < 1:
        return ApparentResult(UniPoly.one(), R, R_star, q, sr1, sr10, None)

    if sr1.is_zero:
        raise GenericityViolation("first subresultant vanishes identically")

    rho3 = C.rhos[0]
    wy = C.d_omega_x2
    A = (partial(wy, "x2") * partial(rho3, "x1")
         - partial(wy, "x1") * partial(rho3, "x2"))
    B = homogenized_substitute(A, -sr10, sr1) if not A.is_zero else UniPoly.zero()
    g = gcd(q, B) if not B.is_zero else q.monic()
    if g.degree == q.degree:
        return ApparentResult(UniPoly.one(), R, R_star, q, sr1, sr10, B,
                              degenerate_criterion=True)
    q_app = q.exact_div(g).monic()
    return ApparentResult(q_app, R, R_star, q, sr1, sr10, B)


def apparent_abscissas(res: ApparentResult):
    """Real roots of q_app, ascending."""
    if res.q_app.degree < 1:
        return []
    return isolate(res.q_app)
