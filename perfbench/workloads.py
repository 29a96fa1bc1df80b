"""The operations of each workload and the checks on their answers.

An operation is one `ccq` CLI command on one problem file.  Its answer is
checked against facts worked out without `ccq`: a table for the committed
corpus, and the construction of the generated problems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import generators as gen

# file: (components, partition, q_app, reason).  q_app = x1 puts the one
# apparent node above x1 = 0.
CORPUS = {
    "acnode.json": (2, [], "1",
        "x2^2 = x1^2 (x1 - 1): the isolated point (0, 0) and the branch "
        "over x1 >= 1"),
    "circle.json": (1, [], "1",
        "unit circle"),
    "circle_irrational_queries.json": (1, [[1, 2]], "1",
        "both queries (+-1/sqrt 2, 1/(2 x1)) lie on the unit circle"),
    "circle_query.json": (1, [[1]], "1",
        "the query (3/5, 4/5) lies on the unit circle"),
    "circle_r2.json": (1, [], "1",
        "circle of radius sqrt 2"),
    "concentric_circles.json": (2, [[1], [2]], "1",
        "radii 1 and 2; queries (3/5, 4/5) and (6/5, 8/5) lie one on each"),
    "cubic_sweep.json": (2, [], "1",
        "x2^2 = x1 (x1 - 1)(x1 + 1): an oval over [-1, 0] and a branch over "
        "x1 >= 1"),
    "disjoint_circles.json": (2, [], "1",
        "unit circles centred 4 apart"),
    "ellipse.json": (1, [], "1",
        "ellipse"),
    "empty.json": (0, [], "1",
        "x1^2 + x2^2 + 1 > 0 has no real point"),
    "hyperbola.json": (2, [], "1",
        "x2 = +-sqrt(x1^2 + 1): two branches"),
    "nodal_cubic_plane.json": (1, [], "1",
        "the loop and both tails meet at the node (0, 0)"),
    "nodal_cubic_space.json": (1, [[1, 2]], "x1",
        "the lift is t -> (t^2 - 1, t^3 - t, t), one line; the plane node "
        "at x1 = 0 is apparent"),
    "nodal_cubic_space_wide.json": (1, [[1, 2]], "x1",
        "the lift is t -> (t^2 - 4, t^3 - 4t, t), one line; the plane node "
        "at x1 = 0 is apparent"),
    "parabola.json": (1, [], "1",
        "graph over x1"),
    "three_circles.json": (3, [], "1",
        "concentric circles of radii 1, 2, 3"),
    "twisted_cubic.json": (1, [], "1",
        "graph t -> (t, t^2, t^3)"),
}

# the corpus problem with the highest deg R: for unit circles centred at 0
# and 4, R = 16 (1 - x1^2)(1 - (x1 - 4)^2) Res^2, where Res = (8 x1 - 16)^2
# is the resultant of the two circles in x2, so deg R = 8
CORPUS_LARGEST = "disjoint_circles.json"

DECIDABLE = {"resultant_nonzero", "sr1_nonzero_at_critical", "critical_multiplicity_two",
             "queries_avoid_critical_fibers", "queries_on_curve"}


@dataclass
class Op:
    name: str
    argv: list
    problem: str
    check: object  # (stdout) -> error message or None
    apparent_nodes: int
    q_app_real_roots: int | None = None
    exports: dict = field(default_factory=dict)  # path -> expected first line


@dataclass
class Workload:
    ops: list
    largest: str
    pass_check: object = None  # ({op name: stdout}) -> list of errors


def _connect_check(components, partition):
    def check(out):
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            return f"connect printed no JSON: {out[:80]!r}"
        want = {"components": components, "partition": partition}
        return None if got == want else f"connect gave {got}, expected {want}"
    return check


def _validate_check(out):
    lines = out.splitlines()
    passed = {ln.split(": ", 1)[1] for ln in lines if ln.startswith("pass: ")}
    bad = [ln for ln in lines if not ln.startswith(("pass: ", "warn: ", "unknown: "))]
    if bad or passed != DECIDABLE:
        return f"validate: unexpected report {lines}"
    return None


def _appsing_check(q_app):
    def check(out):
        got = json.loads(out)
        if got["q_app"] != q_app:
            return f"appsing: q_app = {got['q_app']}, expected {q_app}"
        roots = got["roots"]
        if q_app == "1":
            return None if roots == [] else f"appsing: roots {roots}, expected none"
        if len(roots) != 1 or not Fraction(roots[0]["lo"]) <= 0 <= Fraction(roots[0]["hi"]):
            return f"appsing: roots {roots}, expected one interval around 0"
        return None
    return check


def _topo_check(apparent):
    def check(out):
        if not out.startswith("graph topology {"):
            return f"topo printed no DOT graph: {out[:80]!r}"
        n = out.count('kind="apparent_node"')
        return None if n == apparent else f"topo: {n} apparent nodes, expected {apparent}"
    return check


def corpus(root: Path, seed: int, work: Path) -> Workload:
    """All 17 committed problems through all four commands; fixed, so the
    seed changes nothing."""
    ops = []
    for fname, (components, partition, q_app, _) in sorted(CORPUS.items()):
        path = str(root / "corpus" / fname)
        has_queries = json.loads((root / "corpus" / fname).read_text()).get("queries") is not None
        apparent = 1 if q_app == "x1" else 0
        stem = work / fname.removesuffix(".json")
        ops.append(Op(f"validate {fname}", ["validate", path], fname, _validate_check, 0))
        ops.append(Op(f"appsing {fname}", ["appsing", path], fname, _appsing_check(q_app), 0))
        ops.append(Op(f"topo {fname}",
                      ["topo", path, "--dot", f"{stem}.topo.dot", "--svg", f"{stem}.topo.svg"],
                      fname, _topo_check(apparent), apparent,
                      exports={f"{stem}.topo.dot": "graph topology {",
                               f"{stem}.topo.svg": "<svg "}))
        argv = ["connect", path, "--dot", f"{stem}.connect.dot", "--svg", f"{stem}.connect.svg"]
        if not has_queries:
            argv.append("--components-only")
        ops.append(Op(f"connect {fname}", argv, fname, _connect_check(components, partition),
                      apparent, exports={f"{stem}.connect.dot": "graph unresolved {",
                                         f"{stem}.connect.svg": "<svg "}))
    return Workload(ops, CORPUS_LARGEST)


def _write(work: Path, name: str, problem) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(problem, indent=1))
    return str(path)


def sheets(root: Path, seed: int, work: Path) -> Workload:
    rng = gen.make_rng(seed, "sheets")
    ops, largest = [], None
    for i in range(len(gen.SHEETS_BASES)):
        problem, facts = gen.sheets_problem(i, rng)
        name = f"sheets{i}"
        path = _write(work, name, problem)
        ops.append(Op(f"connect {name}", ["connect", path], name,
                      _connect_check(facts["components"], facts["partition"]),
                      facts["crossings"], q_app_real_roots=facts["crossings"]))
        if largest is None or facts["deg_R"] > largest[0]:
            largest = (facts["deg_R"], name)
    return Workload(ops, largest[1])


def critical(root: Path, seed: int, work: Path) -> Workload:
    rng = gen.make_rng(seed, "critical")
    ops, largest, groups = [], None, {}
    for i in range(len(gen.CRITICAL_BASES)):
        for name, problem, facts in gen.critical_problems(i, rng):
            path = _write(work, name, problem)
            op = Op(f"connect {name}", ["connect", path, "--components-only"], name,
                    _components_only_check(*facts["components"]), 0)
            ops.append(op)
            groups.setdefault(i, []).append(op.name)
            key = (facts["deg_R"], facts["bits"])
            if largest is None or key > largest[0]:
                largest = (key, name)

    def same_count(outputs):
        errors = []
        for i, names in groups.items():
            counts = {n: json.loads(outputs[n])["components"] for n in names if n in outputs}
            if len(set(counts.values())) > 1:
                errors.append(f"critical curve {i}: images disagree: {counts}")
        return errors
    return Workload(ops, largest[1], same_count)


def _components_only_check(least, most):
    def check(out):
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            return f"connect printed no JSON: {out[:80]!r}"
        if got.get("partition") != [] or not isinstance(got.get("components"), int):
            return f"connect gave {got}, expected a count and no queries"
        if not least <= got["components"] <= most:
            return f"connect gave {got['components']} components, expected {least} to {most}"
        return None
    return check


WORKLOADS = {"corpus": corpus, "sheets": sheets, "critical": critical}


def check_capture(op: Op, summary) -> list:
    """Structure of every graph a command built, and its apparent nodes.

    Each apparent node has degree 4 before resolution and is gone after it;
    resolution trades its 4 edges for 2.
    """
    errors = []
    for G in summary["graphs"]:
        if any(d != 4 for d in G["apparent_degrees"]):
            errors.append(f"apparent node degrees {G['apparent_degrees']}, expected 4")
        if len(G["apparent"]) != op.apparent_nodes:
            errors.append(f"{len(G['apparent'])} apparent nodes, expected {op.apparent_nodes}")
    for G, Gr in zip(summary["graphs"], summary["resolved"]):
        if Gr["apparent_kind"] or Gr["v_app"] or set(G["apparent"]) & set(Gr["vertex_ids"]):
            errors.append("apparent nodes left after resolution")
        if Gr["edges"] != G["edges"] - 2 * len(G["apparent"]):
            errors.append(f"resolution left {Gr['edges']} edges from {G['edges']}")
    if op.q_app_real_roots is not None:
        for coeffs in summary["q_app"]:
            n = gen.sturm_real_roots([Fraction(c) for c in coeffs])
            if n != op.q_app_real_roots:
                errors.append(f"q_app has {n} real roots, expected {op.q_app_real_roots}")
    return [f"{op.name}: {e}" for e in errors]


def check_exports(op: Op) -> list:
    errors = []
    for path, head in op.exports.items():
        try:
            with open(path, encoding="utf-8") as fh:
                first = fh.readline()
        except OSError as e:
            errors.append(f"{op.name}: export {Path(path).name} missing: {e.strerror}")
            continue
        if not first.startswith(head):
            errors.append(f"{op.name}: export {Path(path).name} starts {first[:40]!r}")
    return errors

