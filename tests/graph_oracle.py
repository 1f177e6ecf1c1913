"""Classification of any vertex list of a graph, from the degrees in its
own block of the adjacency matrix: the check on ``components_and_diameters``,
which classifies each component from the degrees of the whole graph."""

from __future__ import annotations

import numpy as np

from commgraph.graphs import CommGraph, _check_vertices, _classify


def classify_component(graph: CommGraph, vertices: list[int]) -> tuple[str, int | None]:
    """Classification of the subgraph on vertices (a component, in
    practice) follows its shape exactly: a 2-vertex component is complete,
    and a star (>= 3 vertices) has a unique center meeting every edge and
    no other edges."""
    _check_vertices(graph, *vertices)
    block = graph.adj[np.ix_(vertices, vertices)]
    return _classify(vertices, np.count_nonzero(block, axis=1))
