"""Classification of any vertex list of a graph, from the degrees in its
own block of the adjacency matrix: the check on ``components_and_diameters``,
which classifies each component from the degrees of the whole graph;
distances by a breadth-first search over neighbor lists, the check on the
graph layer's matrix searches; and the exponent of every pair, edge or
not, the check on the adjacency, which the graph layer reads off the pair
codes without an exponent."""

from __future__ import annotations

from collections import deque

import numpy as np

from commgraph.graphs import (
    CommGraph,
    _check_vertices,
    _classify,
    _p_power_lookup,
)


def classify_component(graph: CommGraph, vertices: list[int]) -> tuple[str, int | None]:
    """Classification of the subgraph on vertices (a component, in
    practice) follows its shape exactly: a 2-vertex component is complete,
    and a star (>= 3 vertices) has a unique center meeting every edge and
    no other edges."""
    _check_vertices(graph, *vertices)
    block = graph.adj[np.ix_(vertices, vertices)]
    return _classify(vertices, np.count_nonzero(block, axis=1))


def exponents(graph: CommGraph) -> np.ndarray:
    """The m×m int8 matrix whose [i, j] is a when [L[i] : L[i]∩L[j]] =
    p**a, else -1, for every pair of the graph's lattice L, edge or not,
    read off the lattice's index matrix."""
    return _p_power_lookup(graph.lattice.parent.order, graph.p).take(
        graph.lattice.index_matrix)


def bfs_distances(graph: CommGraph, start: int) -> dict[int, int]:
    """The distance from start to every vertex it reaches, one neighbor
    list at a time."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in graph.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist
