"""Acceptance suite: one pass/fail line per criterion on the terminal."""

import functools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from ccq import realroot
from ccq.apparent import apparent_singularities
from ccq.connect import answer_queries, connected_components, node_resolution
from ccq.errors import GenericityViolation
from ccq.params import OneDimParam
from ccq.parsing import parse_problem
from ccq.polynomials import (
    BiPoly,
    UniPoly,
    eval_fiber,
    first_subresultant_x2,
    gcd,
    partial,
    resultant_x2,
    squarefree_part,
)
from ccq.topology import APPARENT_NODE, REGULAR, TopologyGraph, topo2d

from oracles import (
    path_track_components,
    resultant_point_count,
    subdivision_components,
    sylvester_resultant_at,
)
from test_topology import assert_structural

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# one line per criterion, echoed by the conftest terminal-summary hook
CRITERION_LINES = []


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                CRITERION_LINES.append(f"FAIL criterion {num}: {desc}")
                raise
            CRITERION_LINES.append(f"PASS criterion {num}: {desc}")
        return wrapper
    return deco


def load(name):
    return parse_problem((CORPUS / f"{name}.json").read_text())


def pipeline(pf):
    res = apparent_singularities(pf.curve)
    queries = pf.queries.restrict_plane() if pf.queries is not None else None
    G = topo2d(pf.curve, queries, res.q_app)
    Gr = node_resolution(G)
    return res, G, Gr


def components(Gr):
    return len(set(connected_components(Gr).values()))


@criterion(1, "nodal space cubic: q_app = x1, queries joined, 1 component, < 1 s")
def test_criterion_1():
    t0 = time.perf_counter()
    pf = load("nodal_cubic_space")
    res, _, Gr = pipeline(pf)
    part = answer_queries(Gr)
    elapsed = time.perf_counter() - t0
    assert res.q_app == UniPoly([0, 1])
    assert part.blocks == ((1, 2),)
    assert part.component_count == 1
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@criterion(2, "concentric circles: queries split across 2 components, < 1 s")
def test_criterion_2():
    t0 = time.perf_counter()
    _, _, Gr = pipeline(load("concentric_circles"))
    part = answer_queries(Gr)
    elapsed = time.perf_counter() - t0
    assert part.blocks == ((1,), (2,))
    assert part.component_count == 2
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@criterion(3, "smooth curves: q_app = 1 and a single component each, < 1 s")
def test_criterion_3():
    t0 = time.perf_counter()
    for name in ("circle", "twisted_cubic"):
        res, _, Gr = pipeline(load(name))
        assert res.q_app == UniPoly.one(), name
        assert components(Gr) == 1, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def _random_bipoly(rng, max_deg=4):
    terms = []
    for e1 in range(max_deg + 1):
        for e2 in range(max_deg + 1 - e1):
            if rng.random() < 0.4:
                terms.append((e1, e2, rng.randint(-9, 9)))
    return BiPoly(terms)


def _random_unipoly(rng, deg):
    return UniPoly([F(rng.randint(-5, 5)) for _ in range(deg)]
                   + [F(rng.choice([-3, -2, -1, 1, 2, 3]))])


@criterion(4, "500 random resultants match Sylvester; double-ordinate formula "
              "certified to width 1e-20, < 60 s")
def test_criterion_4():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        f = _random_bipoly(rng)
        g = _random_bipoly(rng)
        if f.is_zero or g.is_zero or f.deg_x2 < 1:
            continue
        R = resultant_x2(f, g)
        for k in range(resultant_point_count(f, g)):
            a = F(k - 10)
            assert R(a) == sylvester_resultant_at(f, g, a)
        checked += 1

    # planted double ordinates: f = (x2-a)(x2-b)(x2-d) has the double
    # ordinate a(alpha) exactly where a - b vanishes
    tol = F(1, 10**20)
    verified = 0
    for _ in range(60):
        a = _random_unipoly(rng, 2)
        b = _random_unipoly(rng, 2)
        d = _random_unipoly(rng, 1)
        diff = a - b
        if diff.degree < 1:
            continue
        x2 = BiPoly([(0, 1, 1)])
        branch = lambda u: x2 - BiPoly([(e, 0, c) for e, c in enumerate(u.coeffs)])
        f = branch(a) * branch(b) * branch(d)
        sr1, sr10 = first_subresultant_x2(f, partial(f, "x2"))
        for alpha in realroot.isolate(squarefree_part(diff)):
            if realroot.sign_at(a - d, alpha) == 0 or realroot.sign_at(sr1, alpha) == 0:
                continue
            if alpha.is_rational:
                av = alpha.value
                beta = -sr10(av) / sr1(av)
                assert beta == a(av)
                p = eval_fiber(f, av)
                gg = gcd(p, p.derivative())
                assert gg(beta) == 0 and gg.degree == 1
            else:
                while alpha.isol.width >= tol:
                    alpha = realroot._bisect_once(alpha)
                holder = realroot._AlphaHolder(alpha)
                fp = realroot.ratio_point(holder, -sr10, sr1)
                while fp.width >= tol:
                    fp.refine()
                lo, hi = a.eval_interval(holder.alpha.isol.lo,
                                         holder.alpha.isol.hi)
                assert not (fp.hi < lo or hi < fp.lo), \
                    "formula interval misses the planted double ordinate"
            verified += 1
    assert verified >= 30
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


STRUCTURAL_NAMES = [
    "circle", "circle_query", "circle_r2", "circle_irrational_queries",
    "ellipse", "concentric_circles", "three_circles", "nodal_cubic_plane",
    "nodal_cubic_space", "nodal_cubic_space_wide", "twisted_cubic",
    "parabola", "hyperbola", "acnode", "disjoint_circles", "cubic_sweep",
]


@criterion(5, "structural graph invariants on 16 corpus curves (degree <= 6)")
def test_criterion_5():
    assert len(STRUCTURAL_NAMES) >= 10
    for name in STRUCTURAL_NAMES:
        pf = load(name)
        deg = max([pf.curve.omega.deg_x1, pf.curve.omega.deg_x2]
                  + [e1 + e2 for e1, e2, _ in pf.curve.omega.terms()])
        assert deg <= 6, name
        _, G, _ = pipeline(pf)
        assert_structural(G)


PLANE_BOXES = {
    "circle": ((-2, 2), (-2, 2)),
    "circle_query": ((-2, 2), (-2, 2)),
    "circle_irrational_queries": ((-2, 2), (-2, 2)),
    "circle_r2": ((-2, 2), (-2, 2)),
    "ellipse": ((-2, 2), (-2, 2)),
    "concentric_circles": ((-3, 3), (-3, 3)),
    "three_circles": ((-4, 4), (-4, 4)),
    "hyperbola": ((-4, 4), (-4, 4)),
    "parabola": ((-2, 2), (-1, 5)),
    "acnode": ((-1, 3), (-4, 4)),
    "disjoint_circles": ((-2, 6), (-3, 3)),
    "cubic_sweep": ((-3, 3), (-5, 5)),
    "nodal_cubic_plane": ((-2, 3), (-6, 6)),
    "empty": ((-2, 2), (-2, 2)),
}

SPACE_PARAMS = {
    "nodal_cubic_space": ([lambda t: t * t - 1, lambda t: t**3 - t, lambda t: t],
                          -3.0, 3.0),
    "nodal_cubic_space_wide": ([lambda t: t * t - 4, lambda t: t**3 - 4 * t,
                                lambda t: t], -4.0, 4.0),
    "twisted_cubic": ([lambda t: t, lambda t: t * t, lambda t: t**3],
                      -2.0, 2.0),
}


@criterion(6, "component counts match the subdivision oracle (plane, "
              "resolution 2^-12) and path tracking (space)")
def test_criterion_6():
    for name, box in PLANE_BOXES.items():
        pf = load(name)
        _, _, Gr = pipeline(pf)
        want = subdivision_components(pf.curve.omega, box, 12)
        assert components(Gr) == want, f"{name}: {components(Gr)} != {want}"
    for name, (fns, lo, hi) in SPACE_PARAMS.items():
        pf = load(name)
        _, _, Gr = pipeline(pf)
        want = path_track_components(fns, lo, hi, jump=2.0)
        assert components(Gr) == want == 1, name


def _fp(y, mult=1):
    y = F(y)
    return realroot.FiberPoint(y - F(1, 4), y + F(1, 4), mult, exact=y)


def _single_x():
    G = TopologyGraph()
    a = G.add_vertex(F(-1), _fp(-1), REGULAR, 0)
    b = G.add_vertex(F(-1), _fp(1), REGULAR, 0)
    n = G.add_vertex(F(0), _fp(0, 2), APPARENT_NODE, 1)
    c = G.add_vertex(F(1), _fp(-1), REGULAR, 2)
    d = G.add_vertex(F(1), _fp(1), REGULAR, 2)
    G.fibers = [[a, b], [n], [c, d]]
    for u in (a, b, c, d):
        G.add_edge(u, n)
    G.v_app = [n]
    return G, (a, b, n, c, d)


@criterion(7, "node resolution: opposite pairing, empty identity, "
              "malformed node rejected")
def test_criterion_7():
    G, (a, b, n, c, d) = _single_x()
    Gr = node_resolution(G)
    assert len(Gr.edges) == 2
    assert Gr.edges == {(min(a, d), max(a, d)), (min(b, c), max(b, c))}

    G2, _ = _single_x()
    G2.v_app = []
    G2.vertices[2].kind = REGULAR
    Gr2 = node_resolution(G2)
    assert Gr2.edges == G2.edges and len(Gr2.vertices) == len(G2.vertices)

    G3, (a3, _, n3, _, _) = _single_x()
    G3.edges.discard((min(a3, n3), max(a3, n3)))
    with pytest.raises(GenericityViolation):
        node_resolution(G3)


def _run_connect(path, extra=()):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ccq.cli", "connect", str(path), *extra],
        capture_output=True, env=env, check=True)
    return proc.stdout


@criterion(8, "byte-identical `ccq connect` output across runs")
def test_criterion_8():
    with_queries = ["circle_query", "concentric_circles", "nodal_cubic_space",
                    "nodal_cubic_space_wide", "circle_irrational_queries"]
    without = ["three_circles", "disjoint_circles", "acnode"]
    for name in with_queries + without:
        path = CORPUS / f"{name}.json"
        extra = () if name in with_queries else ("--components-only",)
        first = _run_connect(path, extra)
        assert json.loads(first)  # well-formed output
        assert _run_connect(path, extra) == first, name
