"""Command-line interface.

    ccq validate|appsing|topo|connect <file> [--dot PATH] [--svg PATH]
                                             [--components-only] [--eps RAT]

Exit codes: 0 success, 2 invalid input, 3 parse error, 4 genericity
violation, 5 internal degeneracy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import connect as connect_mod
from . import realroot
from .apparent import apparent_abscissas, apparent_singularities
from .errors import CcqError, GenericityViolation, ParseError
from .params import genericity_report, validate_one_dim, validate_zero_dim
from .parsing import ProblemFile, parse_problem
from .realroot import AlgebraicNumber
from .topology import TopologyGraph, topo2d

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_GENERICITY = 4
EXIT_DEGENERATE = 5


def _load(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    return parse_problem(text)


def _validated(pf: ProblemFile):
    rep = validate_one_dim(pf.curve)
    violations = list(rep.violations)
    warnings = list(rep.warnings)
    if pf.queries is not None:
        repq = validate_zero_dim(pf.queries)
        violations += repq.violations
        warnings += repq.warnings
    return violations, warnings


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def cmd_validate(pf: ProblemFile, args) -> int:
    violations, warnings = _validated(pf)
    for v in violations:
        print(f"fail: {v}")
    for w in warnings:
        print(f"warn: {w}")
    if violations:
        return EXIT_INVALID
    queries = pf.queries.restrict_plane() if pf.queries is not None else None
    for name, status in genericity_report(pf.curve, queries):
        print(f"{status}: {name}")
    return EXIT_OK


def cmd_appsing(pf: ProblemFile, args) -> int:
    violations, _ = _validated(pf)
    if violations:
        for v in violations:
            print(f"fail: {v}", file=sys.stderr)
        return EXIT_INVALID
    res = apparent_singularities(pf.curve)
    roots = [{"lo": str(a.isol.lo), "hi": str(a.isol.hi)}
             for a in apparent_abscissas(res)]
    print(_dump({"q_app": res.q_app.to_string(), "roots": roots}))
    return EXIT_OK


def _pipeline(pf: ProblemFile):
    res = apparent_singularities(pf.curve)
    queries = pf.queries.restrict_plane() if pf.queries is not None else None
    G = topo2d(pf.curve, queries, res.q_app)
    Gr = connect_mod.node_resolution(G)
    return G, Gr


def cmd_topo(pf: ProblemFile, args) -> int:
    violations, _ = _validated(pf)
    if violations:
        for v in violations:
            print(f"fail: {v}", file=sys.stderr)
        return EXIT_INVALID
    G, Gr = _pipeline(pf)
    eps = Fraction(args.eps)
    dot = to_dot(G, "topology", eps)
    print(dot)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(to_svg([("topology", G)], eps))
    return EXIT_OK


def cmd_connect(pf: ProblemFile, args) -> int:
    violations, _ = _validated(pf)
    if violations:
        for v in violations:
            print(f"fail: {v}", file=sys.stderr)
        return EXIT_INVALID
    if pf.queries is None and not args.components_only:
        print("fail: no queries in input (use --components-only to count only)",
              file=sys.stderr)
        return EXIT_INVALID
    G, Gr = _pipeline(pf)
    part = connect_mod.answer_queries(Gr)
    out = {"partition": [list(b) for b in part.blocks],
           "components": part.component_count}
    print(_dump(out))
    eps = Fraction(args.eps)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(G, "unresolved", eps) + "\n"
                     + to_dot(Gr, "resolved", eps) + "\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(to_svg([("unresolved", G), ("resolved", Gr)], eps))
    return EXIT_OK


def _coords(G: TopologyGraph, eps: Fraction):
    """Numeric (x, y) per vertex id, all boxes refined below eps."""
    out = {}
    for v in G.vertices:
        if isinstance(v.x, AlgebraicNumber):
            x = realroot.refine(v.x, eps).isol.mid
        else:
            x = Fraction(v.x)
        fp = v.y
        guard = 0
        while fp.width >= eps and guard < 10_000:
            fp.refine()
            guard += 1
        y = fp.exact if fp.exact is not None else (fp.lo + fp.hi) / 2
        out[v.id] = (float(x), float(y))
    return out


def to_dot(G: TopologyGraph, name: str, eps=Fraction(1, 10**6)) -> str:
    pos = _coords(G, eps)
    lines = [f"graph {name} {{"]
    for v in G.vertices:
        x, y = pos[v.id]
        lines.append(f'  v{v.id} [kind="{v.kind}", pos="{x:.6f},{y:.6f}!"];')
    for a, b in sorted(G.edges):
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines)


_KIND_COLOR = {
    "regular": "#1f77b4",
    "x_critical": "#d62728",
    "apparent_node": "#9467bd",
    "control": "#2ca02c",
}


def to_svg(graphs, eps=Fraction(1, 10**6)) -> str:
    panel_w, panel_h, pad = 420, 420, 30
    width = panel_w * len(graphs)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{panel_h}" viewBox="0 0 {width} {panel_h}">']
    for gi, (name, G) in enumerate(graphs):
        pos = _coords(G, eps)
        xs = [p[0] for p in pos.values()] or [0.0]
        ys = [p[1] for p in pos.values()] or [0.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        scale = (panel_w - 2 * pad) / span

        def tr(p, off=gi * panel_w):
            return (off + pad + (p[0] - x0) * scale,
                    panel_h - pad - (p[1] - y0) * scale)

        parts.append(f'<g id="{name}">')
        parts.append(f'<text x="{gi * panel_w + pad}" y="20" '
                     f'font-size="14">{name}</text>')
        for a, b in sorted(G.edges):
            xa, ya = tr(pos[a])
            xb, yb = tr(pos[b])
            parts.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" '
                         f'y2="{yb:.2f}" stroke="#888" stroke-width="1.5"/>')
        for v in G.vertices:
            cx, cy = tr(pos[v.id])
            color = _KIND_COLOR.get(v.kind, "#000")
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
                         f'fill="{color}"><title>v{v.id} {v.kind}</title></circle>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ccq",
        description="Connectivity queries on real algebraic curves.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("appsing", cmd_appsing),
                     ("topo", cmd_topo), ("connect", cmd_connect)):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--dot", metavar="PATH")
        p.add_argument("--svg", metavar="PATH")
        p.add_argument("--components-only", action="store_true")
        p.add_argument("--eps", default="1/1000000",
                       help="refinement width for exported coordinates")
        p.set_defaults(func=fn)
    args = ap.parse_args(argv)
    try:
        pf = _load(args.file)
        return args.func(pf, args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except GenericityViolation as e:
        print(f"genericity violation: {e}", file=sys.stderr)
        return EXIT_GENERICITY
    except CcqError as e:
        print(f"degeneracy: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
