"""Spans and counters recorded around the program's public calls.

The traced run wraps the public functions of each layer from outside the
program: ``instrument`` replaces the module attributes through which the
layers call one another, so nested calls (``verify`` -> ``lattice``,
``construct`` of a direct product -> ``construct`` of its factors) become
nested spans.  A span is (name, start, end, parent index).  A layer's self
time is its spans' durations minus the time of their child spans.

Builds are counted by object identity: a call whose result is an object
not returned before built it, and a call returning a known object reused a
memo.  The tracer keeps every result it has seen alive, so an identity is
never recycled within a sample.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# Subgroup operations that the verify suites call, wrapped as groups.ops.
GROUP_OPS = ("derived_series", "intersect", "is_nilpotent_subgroup",
             "is_normal", "normal_core", "p_prime_complement", "product_set",
             "structure_flags", "subgroup_closure", "sylow_subgroup")

SUITE_FUNCTIONS = {"totaldisc": "verify_totaldisc",
                   "bounds": "verify_diameter_bounds",
                   "lemmas": "verify_lemma_suite",
                   "sym4": "verify_sym4_geodesics",
                   "construction": "verify_construction",
                   "cd": "verify_cd_inequality",
                   "p2q": "verify_p2q"}

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "constructions.construct": "constructions.construct_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "graphs.build": "graphs.build_s",
    "graphs.components": "graphs.components_s",
    "graphs.paths": "graphs.paths_s",
    "groups.ops": "groups.ops_s",
    "cli": "cli.self_s",
    **{f"verify.{s}": f"verify.{s}_s" for s in SUITE_FUNCTIONS},
}

COUNT_METRICS = ("constructions.calls", "constructions.tables_built",
                 "constructions.elements_built", "lattice.calls",
                 "lattice.lattices_built", "lattice.subgroups",
                 "graphs.build_calls", "graphs.graphs_built", "graphs.pairs",
                 "graphs.edges", "graphs.components_calls",
                 "graphs.components_built", "graphs.components",
                 "groups.ops", "verify.checks")


class Tracer:
    """In-memory spans and counters for one sample."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[int, object] = {}

    def first_sight(self, obj) -> bool:
        """True the first time this object identity is returned."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def wrap(self, name: str, fn, on_result=None):
        """fn recording a span per call; on_result(tracer, result) counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if on_result is not None:
                on_result(self, result)
            return result
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample whose jobs took wall_s."""
    selfs = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        selfs[SELF_TIME_METRICS[span[0]]] += own
    out: dict[str, float] = {**selfs,
                             **{k: tracer.counts[k] for k in COUNT_METRICS}}
    c = tracer.counts
    enum_s = selfs["lattice.enumerate_s"]
    out["lattice.subgroups_per_s"] = c["lattice.subgroups"] / enum_s if enum_s else 0.0
    out["graphs.edge_yield"] = (c["graphs.edges"] / c["graphs.pairs"]
                                if c["graphs.pairs"] else 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(selfs.values())
    return out


def _on_construct(t: Tracer, built) -> None:
    t.counts["constructions.calls"] += 1
    if t.first_sight(built):
        t.counts["constructions.tables_built"] += 1
        t.counts["constructions.elements_built"] += built.table.order


def _on_lattice(t: Tracer, lat) -> None:
    t.counts["lattice.calls"] += 1
    if t.first_sight(lat):
        t.counts["lattice.lattices_built"] += 1
        t.counts["lattice.subgroups"] += len(lat)


def _on_graph(t: Tracer, graph) -> None:
    t.counts["graphs.build_calls"] += 1
    if t.first_sight(graph):
        m = graph.vertex_count
        t.counts["graphs.graphs_built"] += 1
        t.counts["graphs.pairs"] += m * (m - 1) // 2
        t.counts["graphs.edges"] += graph.edge_count


def _on_components(t: Tracer, result) -> None:
    t.counts["graphs.components_calls"] += 1
    if t.first_sight(result):
        t.counts["graphs.components_built"] += 1
        t.counts["graphs.components"] += len(result[0])


def _on_group_op(t: Tracer, _result) -> None:
    t.counts["groups.ops"] += 1


def _on_suite(t: Tracer, report) -> None:
    t.counts["verify.checks"] += len(report.records)


def instrument(tracer: Tracer) -> None:
    """Replace the layers' public functions with span-recording wrappers,
    in every module that calls them."""
    from commgraph import cli, constructions, graphs, lattice, verify

    if set(SUITE_FUNCTIONS) != set(verify.SUITE_NAMES):
        raise RuntimeError(f"verify suites changed: {verify.SUITE_NAMES}")

    def patch(span, home, attr, users, on_result=None):
        """Wrap home.attr and bind the wrapper in home and every user."""
        wrapped = tracer.wrap(span, getattr(home, attr), on_result)
        for module in (home, *users):
            setattr(module, attr, wrapped)

    patch("constructions.construct", constructions, "construct_detailed",
          [verify], _on_construct)
    patch("lattice.enumerate", lattice, "enumerate_subgroups",
          [verify, cli], _on_lattice)
    patch("graphs.build", graphs, "build_graph", [verify, cli], _on_graph)
    patch("graphs.components", graphs, "components_and_diameters",
          [verify, cli], _on_components)
    for attr in ("all_geodesics", "all_simple_paths"):
        patch("graphs.paths", graphs, attr, [verify])
    for attr in GROUP_OPS:
        patch("groups.ops", verify, attr, [], _on_group_op)
    for suite, attr in SUITE_FUNCTIONS.items():
        patch(f"verify.{suite}", verify, attr, [], _on_suite)
    patch("cli", cli, "main", [])
