"""Spans around the public functions of each `ccq` layer.

A span is (id, parent id, layer, start, end) with times from
`time.perf_counter`.  Self time is a span's duration minus the durations of
its wrapped children; since the traced run keeps all work on one thread,
children never overlap and the self times of one command add up to its
`cli.main` span.
"""

from __future__ import annotations

import time

# (module, function, layer) for every wrapped function
LAYERS = (
    ("ccq.parsing", "parse_problem", "parsing.parse_problem"),
    ("ccq.params", "validate_one_dim", "params.validate"),
    ("ccq.params", "validate_zero_dim", "params.validate"),
    ("ccq.params", "genericity_report", "params.genericity_report"),
    ("ccq.polynomials", "resultant_x2", "polynomials.resultant_x2"),
    ("ccq.polynomials", "first_subresultant_x2", "polynomials.first_subresultant_x2"),
    ("ccq.polynomials", "gcd", "polynomials.gcd"),
    ("ccq.polynomials", "squarefree_part", "polynomials.squarefree_part"),
    ("ccq.polynomials", "eval_fiber", "polynomials.eval_fiber"),
    ("ccq.apparent", "apparent_singularities", "apparent.apparent_singularities"),
    ("ccq.realroot", "isolate", "realroot.isolate"),
    ("ccq.realroot", "sign_at", "realroot.sign_at"),
    ("ccq.realroot", "fiber_roots", "realroot.fiber_roots"),
    ("ccq.realroot", "refine", "realroot.refine"),
    ("ccq.topology", "topo2d", "topology.topo2d"),
    ("ccq.connect", "node_resolution", "connect.node_resolution"),
    ("ccq.connect", "answer_queries", "connect.answer_queries"),
    ("ccq.cli", "to_dot", "cli.export"),
    ("ccq.cli", "to_svg", "cli.export"),
    ("ccq.cli", "main", "cli.main"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []  # [span id, time covered by children] per open span
        self._next_id = 0
        self._layers = {}
        self._record = False

    def install(self, patch):
        for module_name, attr, layer in LAYERS:
            patch(module_name, attr, lambda fn, layer=layer: self._wrap(layer, fn))

    def begin(self, record_spans: bool):
        """Start one command: zero the per-layer totals."""
        self._layers = {name: [0, 0.0] for name in LAYER_NAMES}
        self._record = record_spans

    def end(self):
        """Per-layer [calls, self seconds] of the command since `begin`."""
        return self._layers

    def _wrap(self, layer, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                totals = self._layers[layer]
                totals[0] += 1
                totals[1] += duration - frame[1]
                if self._record:
                    self.spans.append((span_id, parent[0] if parent else None,
                                       layer, t0, t1))

        return traced
