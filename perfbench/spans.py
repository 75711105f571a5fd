"""Spans around congestsim's layer boundaries, recorded from outside.

A wrapper replaces a public function where its caller looks the name up:
`search` imports the toolkit stages by name, `gadgets` imports
`exact_sssp` and `contract_unit_edges` by name, and `Network` methods are
looked up on the class.  Each call records one span
``[name, start_ns, end_ns, parent index, operation id]`` on the process
CPU clock.  Spans stay in memory until `write` puts them out as JSON
lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name); "Class.method" attributes are wrapped on
# the class.
TARGETS = (
    ("congestsim.graphs", "exact_sssp", "graphs.exact_sssp"),
    ("congestsim.gadgets", "exact_sssp", "graphs.exact_sssp"),
    ("congestsim.gadgets", "contract_unit_edges", "graphs.contract_unit_edges"),
    ("congestsim.engine", "Network.run", "engine.run"),
    ("congestsim.engine", "Network.broadcast_pipeline",
     "engine.broadcast_pipeline"),
    ("congestsim.engine", "Network.build_bfs_tree", "engine.build_bfs_tree"),
    ("congestsim.toolkit", "bounded_hop_mssp", "toolkit.bounded_hop_mssp"),
    ("congestsim.search", "build_skeleton_state",
     "toolkit.build_skeleton_state"),
    ("congestsim.search", "embed_overlay", "toolkit.embed_overlay"),
    ("congestsim.search", "sssp_on_overlay", "toolkit.sssp_on_overlay"),
    ("congestsim.search", "approx_eccentricity", "toolkit.approx_eccentricity"),
    ("congestsim.search", "amplified_max_search", "search.amplified_max_search"),
    ("congestsim.search", "evaluate_f_i", "search.evaluate_f_i"),
    ("congestsim.gadgets", "build_gadget", "gadgets.build_gadget"),
    ("congestsim.gadgets", "verify_reduction", "gadgets.verify_reduction"),
    ("congestsim.gadgets", "check_table2", "gadgets.check_table2"),
    ("congestsim.gadgets", "ownership_schedule", "gadgets.ownership_schedule"),
    ("congestsim.gadgets", "validate_schedule", "gadgets.validate_schedule"),
)

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    def _enter(self, name):
        span = [name, 0, 0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.process_time_ns()
        return span

    def _exit(self, span):
        span[2] = time.process_time_ns()
        self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    @contextmanager
    def operation(self, op_id):
        """Root span of one operation; spans opened inside carry `op_id`."""
        self.op = op_id
        span = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(span)
            self.op = None

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def totals(self):
        """Calls per span name, and self time in ns per name and operation.

        Self time is a span's duration minus that of its direct children.
        """
        children = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls = Counter()
        self_ns = defaultdict(Counter)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name][op] += end - start - children[i]
        return calls, self_ns

    def write(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
