import json
import pathlib
from fractions import Fraction as F

import pytest

from ccq.apparent import apparent_singularities
from ccq.errors import GenericityViolation
from ccq.params import OneDimParam, ZeroDimParam
from ccq.parsing import parse_problem
from ccq.polynomials import BiPoly, UniPoly
from ccq.topology import (
    APPARENT_NODE,
    CONTROL,
    REGULAR,
    X_CRITICAL,
    topo2d,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def load(name):
    return parse_problem((CORPUS / f"{name}.json").read_text())


def build(pf):
    res = apparent_singularities(pf.curve)
    queries = pf.queries.restrict_plane() if pf.queries is not None else None
    return topo2d(pf.curve, queries, res.q_app)


def assert_structural(G):
    """Invariants every topology graph must satisfy."""
    last = len(G.fibers) - 1
    crit_kinds = {X_CRITICAL, APPARENT_NODE}
    for v in G.vertices:
        d = G.degree(v.id)
        interior = 0 < v.fiber_index < last
        if v.kind == REGULAR and interior:
            assert d == 2, f"interior regular vertex {v.id} has degree {d}"
        elif v.kind == APPARENT_NODE:
            assert d == 4, f"apparent node {v.id} has degree {d}"
            lefts = [u for u in G.neighbors(v.id)
                     if G.vertices[u].fiber_index < v.fiber_index]
            assert len(lefts) == 2
        elif v.kind == CONTROL and interior:
            assert d == 2, f"control vertex {v.id} has degree {d}"
        if v.fiber_index in (0, last):
            assert d <= 1
    for a, b in G.edges:
        ka, kb = G.vertices[a].kind, G.vertices[b].kind
        assert not (ka in crit_kinds and kb in crit_kinds), \
            "edge joins two critical vertices"
        assert abs(G.vertices[a].fiber_index - G.vertices[b].fiber_index) == 1
    # fiber points appear in strict ordinate order
    for ids in G.fibers:
        for u, w in zip(ids, ids[1:]):
            yu, yw = G.vertices[u].y, G.vertices[w].y
            assert yu.hi <= yw.lo
    # sample fibers: every interior vertex has one edge per side
    for v in G.vertices:
        if 0 < v.fiber_index < last and v.fiber_index % 2 == 0:
            lefts = [u for u in G.neighbors(v.id)
                     if G.vertices[u].fiber_index < v.fiber_index]
            rights = [u for u in G.neighbors(v.id)
                      if G.vertices[u].fiber_index > v.fiber_index]
            assert len(lefts) == 1 and len(rights) == 1


class TestCircle:
    def test_shape(self):
        G = build(load("circle"))
        assert len(G.vertices) == 4
        assert len(G.edges) == 4
        assert [len(f) for f in G.fibers] == [0, 1, 2, 1, 0]
        assert sorted(v.kind for v in G.vertices) \
            == [REGULAR, REGULAR, X_CRITICAL, X_CRITICAL]
        assert G.v_app == [] and G.v_ctrl == []
        assert_structural(G)

    def test_query_control(self):
        G = build(load("circle_query"))
        assert len(G.v_ctrl) == 1
        v = G.vertices[G.v_ctrl[0]]
        assert v.kind == CONTROL
        assert v.x.value == F(3, 5) and v.y.exact == F(4, 5)
        # the control point is the upper of the two fiber points
        assert G.fibers[v.fiber_index].index(v.id) == 1
        assert_structural(G)


class TestCriticalFibers:
    def test_concentric_circles(self):
        G = build(load("concentric_circles"))
        crit = [v for v in G.vertices if v.kind == X_CRITICAL]
        assert len(crit) == 4
        assert len(G.v_ctrl) == 2
        assert_structural(G)

    def test_nodal_plane_projection(self):
        G = build(load("nodal_cubic_plane"))
        crit = [v for v in G.vertices if v.kind == X_CRITICAL]
        # the plane curve owns its node: it stays x_critical, degree 4
        assert sorted(G.degree(v.id) for v in crit) == [2, 4]
        assert G.v_app == []
        assert_structural(G)

    def test_nodal_space_node(self):
        G = build(load("nodal_cubic_space"))
        assert len(G.v_app) == 1
        node = G.vertices[G.v_app[0]]
        assert node.kind == APPARENT_NODE
        assert G.degree(node.id) == 4
        assert_structural(G)

    def test_acnode_isolated_point(self):
        G = build(load("acnode"))
        isolated = [v for v in G.vertices
                    if v.kind == X_CRITICAL and G.degree(v.id) == 0]
        assert len(isolated) == 1
        assert_structural(G)


class TestStructuralCorpus:
    NAMES = [
        "circle", "circle_query", "circle_r2", "circle_irrational_queries",
        "ellipse", "concentric_circles", "three_circles", "nodal_cubic_plane",
        "nodal_cubic_space", "nodal_cubic_space_wide", "twisted_cubic",
        "parabola", "hyperbola", "acnode", "disjoint_circles", "cubic_sweep",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_invariants(self, name):
        G = build(load(name))
        assert_structural(G)

    def test_empty_curve(self):
        G = build(load("empty"))
        assert G.vertices == [] and G.edges == set()


class TestViolations:
    def test_query_on_critical_fiber(self):
        circle = OneDimParam(2, BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)]), ())
        bad = ZeroDimParam(2, UniPoly([-1, 1]), (UniPoly([0]),))
        with pytest.raises(GenericityViolation):
            topo2d(circle, bad, UniPoly.one())

    def test_query_off_curve(self):
        circle = OneDimParam(2, BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)]), ())
        bad = ZeroDimParam(2, UniPoly([F(-3, 5), 1]), (UniPoly([F(1, 5)]),))
        with pytest.raises(GenericityViolation):
            topo2d(circle, bad, UniPoly.one())
