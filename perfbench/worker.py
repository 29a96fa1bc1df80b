"""The long-lived process that runs `ccq` for the benchmark client.

    python3 perfbench/worker.py FD SRC TRACED

FD is this process's end of a socket pair, SRC the directory that holds the
`ccq` package, TRACED 1 or 0.

It imports `ccq` once and answers requests over a pipe, one at a time: each
request is one CLI command, run through `ccq.cli.main` with stdout and
stderr captured.  In a traced run every public function of the layers below
is wrapped (see `tracer.LAYERS`); in any run, the functions that return the
topology graphs can be wrapped for one pass to check the graphs' structure.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import time

import tracer

# functions whose results the structural checks read
CAPTURED = (("ccq.apparent", "apparent_singularities"),
            ("ccq.topology", "topo2d"),
            ("ccq.connect", "node_resolution"))


def patch(module_name, attr, make):
    """Replace a function in every ccq module namespace that holds it.

    Internal calls go through the defining module's globals and imported
    names through the importing module's, so both are patched.  Returns a
    function that puts the original back.
    """
    fn = getattr(importlib.import_module(module_name), attr)
    new = make(fn)
    undo = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "ccq" and not name.startswith("ccq."):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, new)
                undo.append((mod, key))

    def restore():
        for mod, key in undo:
            setattr(mod, key, fn)
    return restore


class Capture:
    """Collects the graphs and q_app of one command, for the checks."""

    def __init__(self):
        self.results = {}
        self._undo = []

    def install(self):
        for module_name, attr in CAPTURED:
            def make(fn, attr=attr):
                def captured(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    self.results.setdefault(attr, []).append(out)
                    return out
                return captured
            self._undo.append(patch(module_name, attr, make))

    def remove(self):
        for undo in reversed(self._undo):
            undo()
        self._undo = []

    def summary(self):
        """Plain data from the captured objects; the objects are dropped."""
        from ccq.realroot import AlgebraicNumber

        graphs = []
        for G in self.results.get("topo2d", []):
            irrational = 0
            for ids in G.fibers:
                x = G.vertices[ids[0]].x if ids else None
                if isinstance(x, AlgebraicNumber) and not x.is_rational:
                    irrational += 1
            degree = {}
            for a, b in G.edges:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            graphs.append({
                "vertices": len(G.vertices), "edges": len(G.edges),
                "fibers": len(G.fibers), "irrational_fibers": irrational,
                "apparent": sorted(G.v_app),
                "apparent_degrees": [degree.get(v, 0) for v in G.v_app],
            })
        resolved = []
        for Gr in self.results.get("node_resolution", []):
            resolved.append({
                "vertex_ids": sorted(v.id for v in Gr.vertices),
                "apparent_kind": sum(v.kind == "apparent_node" for v in Gr.vertices),
                "v_app": len(Gr.v_app), "edges": len(Gr.edges),
            })
        q_app = [[str(c) for c in res.q_app.coeffs]
                 for res in self.results.get("apparent_singularities", [])]
        self.results = {}
        return {"graphs": graphs, "resolved": resolved, "q_app": q_app}


def run_command(argv):
    from ccq import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a traceback is a failed operation, not a dead worker
            rc, err = 1, io.StringIO(f"{type(e).__name__}: {e}")
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def serve(conn, src, traced):
    """Answer requests until told to finish.

    Requests are ("run", argv, capture, record_spans) and ("finish",).
    """
    sys.path.insert(0, src)
    # the traced run keeps fiber building on the calling thread, so that the
    # spans of one command nest on one stack and self times add up to wall time
    if traced:
        os.environ["CCQ_THREADS"] = "1"
    else:
        os.environ.pop("CCQ_THREADS", None)
    importlib.import_module("ccq.cli")
    trace = tracer.Tracer() if traced else None
    if trace is not None:
        trace.install(patch)
    capture = Capture()
    while True:
        msg = conn.recv()
        if msg[0] == "finish":
            conn.send(trace.spans if trace is not None else [])
            return
        _, argv, want_capture, record_spans = msg
        if want_capture:
            capture.install()
        if trace is not None:
            trace.begin(record_spans)
        rc, latency, out, err = run_command(argv)
        reply = {"rc": rc, "latency": latency, "out": out, "err": err}
        if trace is not None:
            reply["layers"] = trace.end()
        if want_capture:
            capture.remove()
            reply["capture"] = capture.summary()
        conn.send(reply)


if __name__ == "__main__":
    from multiprocessing.connection import Connection

    serve(Connection(int(sys.argv[1])), sys.argv[2], sys.argv[3] == "1")
