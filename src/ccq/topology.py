"""Topology graph of the plane projection in generic position.

A vertical-line sweep over the special abscissas (roots of the resultant R
and of the query polynomial lambda) builds an embedded straight-line graph
isotopic to the real plane curve on the swept window.  Between consecutive
special abscissas branches cannot cross, so vertices of adjacent fibers are
matched one-to-one by vertical order, with the surplus block of branches
attached to the unique multiple ordinate of a critical fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GenericityViolation
from .params import OneDimParam, ZeroDimParam
from .polynomials import UniPoly, eval_fiber, homogenized_substitute, squarefree_part
from . import realroot
from .realroot import AlgebraicNumber, FiberPoint, fiber_roots, isolate, sign_at

__all__ = ["Vertex", "TopologyGraph", "topo2d"]

REGULAR = "regular"
X_CRITICAL = "x_critical"
APPARENT_NODE = "apparent_node"
CONTROL = "control"


@dataclass
class Vertex:
    id: int
    x: object  # Fraction or AlgebraicNumber
    y: FiberPoint
    kind: str
    fiber_index: int


@dataclass
class TopologyGraph:
    vertices: list = field(default_factory=list)
    edges: set = field(default_factory=set)
    v_app: list = field(default_factory=list)
    v_ctrl: list = field(default_factory=list)
    fibers: list = field(default_factory=list)

    def add_vertex(self, x, y, kind, fiber_index) -> int:
        vid = len(self.vertices)
        self.vertices.append(Vertex(vid, x, y, kind, fiber_index))
        return vid

    def add_edge(self, a: int, b: int) -> None:
        self.edges.add((min(a, b), max(a, b)))

    def neighbors(self, vid: int):
        out = []
        for a, b in self.edges:
            if a == vid:
                out.append(b)
            elif b == vid:
                out.append(a)
        return sorted(out)

    def degree(self, vid: int) -> int:
        return len(self.neighbors(vid))


def _fp_equals_rational(fp: FiberPoint, v: Fraction) -> bool:
    if fp.exact is not None:
        return fp.exact == v
    a = fp.algebraic
    if a is not None:
        return a.defining(v) == 0 and a.isol.lo < v < a.isol.hi
    return False


def topo2d(C: OneDimParam, P2: ZeroDimParam | None, q_app: UniPoly) -> TopologyGraph:
    """Real topology graph of the projected curve with query projections.

    Vertices are curve points on the special fibers (critical, apparent-node
    and query abscissas) and on rational sample fibers between and outside
    them; edges join vertically-adjacent branches of consecutive fibers.
    """
    w = C.omega
    if w.deg_x2 < 1:
        raise GenericityViolation("omega does not involve x2")
    E = C.elimination
    if E.R.is_zero:
        raise GenericityViolation("vanishing resultant: omega not square-free")
    R = E.R
    lam = P2.lam if P2 is not None else UniPoly.one()
    theta2 = P2.thetas[0] if P2 is not None and P2.thetas else UniPoly.zero()

    prod = R * lam
    specials = []
    if prod.degree >= 1:
        specials = isolate(squarefree_part(prod) if lam.degree >= 1 else E.R_star)
    for a in specials:
        is_crit = R.degree >= 1 and sign_at(R, a) == 0
        is_ctrl = lam.degree >= 1 and sign_at(lam, a) == 0
        if is_crit and is_ctrl:
            raise GenericityViolation("query abscissa lies on a critical fiber")

    # rational sample abscissas: isolating-interval endpoints are never roots
    # of the square-free special polynomial, hence never special themselves
    if specials:
        samples = [specials[0].isol.lo]
        for left, right in zip(specials, specials[1:]):
            samples.append((left.isol.hi + right.isol.lo) / 2)
        samples.append(specials[-1].isol.hi)
    else:
        samples = [Fraction(-1), Fraction(1)]

    # interleave: sample, special, sample, ..., special, sample
    abscissas = []
    for i, s in enumerate(samples):
        abscissas.append(("sample", s))
        if i < len(specials):
            abscissas.append(("special", specials[i]))

    def build_fiber(kind, x):
        if kind == "sample":
            p = eval_fiber(w, x)
            pts = [(realroot._fiber_point_from_algebraic(r, 1), 1)
                   for r in (isolate(p) if p.degree >= 1 else [])]
            return pts
        hint = (E.sr1, E.sr10) if (R.degree >= 1 and sign_at(R, x) == 0) else None
        return fiber_roots(w, x, multiple_root_hint=hint)

    fibers_pts = [build_fiber(kind, x) for kind, x in abscissas]

    G = TopologyGraph()
    multi_index = []  # per fiber: index of the multiplicity-2 point, or None
    for fi, ((kind, x), pts) in enumerate(zip(abscissas, fibers_pts)):
        mi = None
        for idx, (fp, mult) in enumerate(pts):
            if mult > 2:
                raise GenericityViolation("fiber ordinate of multiplicity above two")
            if mult == 2:
                if mi is not None:
                    raise GenericityViolation("two multiple ordinates in one fiber")
                mi = idx
        is_ctrl = kind == "special" and lam.degree >= 1 and sign_at(lam, x) == 0
        ctrl_idx = None
        if is_ctrl:
            ctrl_idx = _match_control(w, lam, theta2, x, [fp for fp, _ in pts])
        ids = []
        for idx, (fp, mult) in enumerate(pts):
            if idx == ctrl_idx:
                vk = CONTROL
            elif mult == 2:
                vk = APPARENT_NODE if (q_app.degree >= 1 and sign_at(q_app, x) == 0) \
                    else X_CRITICAL
            else:
                vk = REGULAR
            ids.append(G.add_vertex(x, fp, vk, fi))
        G.fibers.append(ids)
        multi_index.append(mi)

    for fi in range(len(abscissas) - 1):
        _connect_fibers(G, fi, fi + 1, multi_index)

    G.v_app = [v.id for v in G.vertices if v.kind == APPARENT_NODE]
    G.v_ctrl = [v.id for v in G.vertices if v.kind == CONTROL]
    return G


def _match_control(w, lam, theta2, x, fps):
    """Index of the fiber point equal to the query ordinate theta2(x)/lam'(x)."""
    dlam = lam.derivative()
    if isinstance(x, AlgebraicNumber) and not x.is_rational:
        h = homogenized_substitute(w, theta2, dlam)
        if sign_at(h, x) != 0:
            raise GenericityViolation("query point does not lie on the curve")
        holder = realroot._AlphaHolder(x)
        ystar = realroot.ratio_point(holder, theta2, dlam)
        for _ in range(10_000):
            hits = [i for i, fp in enumerate(fps) if not fp.disjoint(ystar)]
            if len(hits) == 1:
                return hits[0]
            if not hits:
                raise GenericityViolation("query ordinate matches no fiber point")
            ystar.refine()
            for i in hits:
                fps[i].refine()
        raise GenericityViolation("could not separate the query ordinate")
    xv = x.value if isinstance(x, AlgebraicNumber) else Fraction(x)
    yv = theta2(xv) / dlam(xv)
    if w.eval(xv, yv) != 0:
        raise GenericityViolation("query point does not lie on the curve")
    for i, fp in enumerate(fps):
        if _fp_equals_rational(fp, yv):
            return i
    raise GenericityViolation("query ordinate matches no fiber point")


def _connect_fibers(G: TopologyGraph, fl: int, fr: int, multi_index):
    left, right = G.fibers[fl], G.fibers[fr]
    ml, mr = multi_index[fl], multi_index[fr]
    if ml is not None and mr is not None:
        raise GenericityViolation("adjacent special fibers without a sample between")
    if ml is None and mr is None:
        if len(left) != len(right):
            raise GenericityViolation("branch count mismatch between adjacent fibers")
        for a, b in zip(left, right):
            G.add_edge(a, b)
        return
    # one side holds the multiple ordinate; the other is a plain fiber
    if mr is not None:
        plain, special, c = left, right, mr
    else:
        plain, special, c = right, left, ml
    k = len(plain) - (len(special) - 1)
    if k < 0:
        raise GenericityViolation("negative branch count at a critical fiber")
    for i in range(c):
        G.add_edge(plain[i], special[i])
    for i in range(k):
        G.add_edge(plain[c + i], special[c])
    for i in range(c + 1, len(special)):
        G.add_edge(plain[k + i - 1], special[i])
