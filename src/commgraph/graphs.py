"""p-local commensurability and p-containment graphs over a lattice.

Vertices are lattice indices.  In the commensurability graph, distinct
subgroups A, B are adjacent when both [A : A∩B] and [B : A∩B] are powers
of p; in the containment graph, when one contains the other with index a
positive power of p (so every containment edge is also a commensurability
edge).  Path lengths and diameters count edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import NotConnected, ParentMismatch
from .groups import SubgroupSet, is_prime, p_power_exponent
from .lattice import Lattice

KIND_COMMENSURABILITY = "commensurability"
KIND_CONTAINMENT = "containment"


def commensurability_exponents(A: SubgroupSet, B: SubgroupSet,
                               p: int) -> tuple[int, int] | None:
    """(a, b) with [A:A∩B] = p**a and [B:A∩B] = p**b, or None if either
    index is not a p-power.  (0, 0) exactly when A = B."""
    if A.parent is not B.parent:
        raise ParentMismatch("subgroups live over different group tables")
    inter = (A.members & B.members).bit_count()
    a = p_power_exponent(A.order // inter, p)
    if a is None:
        return None
    b = p_power_exponent(B.order // inter, p)
    if b is None:
        return None
    return (a, b)


@dataclass(frozen=True)
class CommGraph:
    """Simple undirected graph over lattice indices with p-power edge data.

    edge_data maps each edge (i, j) with i < j to the exponent pair (a, b)
    where [L[i] : L[i]∩L[j]] = p**a and [L[j] : L[i]∩L[j]] = p**b.
    """

    kind: str
    p: int
    lattice: Lattice
    adjacency: list[list[int]] = field(repr=False)
    edge_data: dict[tuple[int, int], tuple[int, int]] = field(repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.lattice.subgroups)

    @property
    def edge_count(self) -> int:
        return len(self.edge_data)

    def adjacent(self, i: int, j: int) -> bool:
        return (i, j) in self.edge_data if i < j else (j, i) in self.edge_data


def build_graph(lat: Lattice, p: int, kind: str) -> CommGraph:
    """All-pairs evaluation of the edge predicate over the lattice."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind not in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
        raise ValueError(f"unknown graph kind {kind!r}")
    subs = lat.subgroups
    m = len(subs)
    adjacency: list[list[int]] = [[] for _ in range(m)]
    edge_data: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(m):
        mi = subs[i].members
        for j in range(i + 1, m):
            inter = (mi & subs[j].members).bit_count()
            a = p_power_exponent(subs[i].order // inter, p)
            if a is None:
                continue
            b = p_power_exponent(subs[j].order // inter, p)
            if b is None:
                continue
            if kind == KIND_CONTAINMENT and 0 not in (a, b):
                continue
            edge_data[(i, j)] = (a, b)
            adjacency[i].append(j)
            adjacency[j].append(i)
    for neighbors in adjacency:
        neighbors.sort()
    return CommGraph(kind, p, lat, adjacency, edge_data)


@dataclass
class ComponentReport:
    """One component: sorted vertices, eccentricities, diameter, and the
    classification (singleton / complete / star with center / other)."""

    vertices: list[int]
    diameter: int
    eccentricities: list[int]
    kind: str
    center: int | None = None


def _bfs_distances(graph: CommGraph, start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in graph.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def classify_component(graph: CommGraph, vertices: list[int]) -> tuple[str, int | None]:
    """Classification follows the component shape exactly: a 2-vertex
    component is complete, and a star (>= 3 vertices) has a unique center
    meeting every edge and no other edges."""
    k = len(vertices)
    if k == 1:
        return ("singleton", None)
    vset = set(vertices)
    edges = sum(sum(1 for y in graph.adjacency[x] if y in vset)
                for x in vertices) // 2
    if edges == k * (k - 1) // 2:
        return ("complete", None)
    if k >= 3 and edges == k - 1:
        centers = [x for x in vertices if len(graph.adjacency[x]) == k - 1]
        if len(centers) == 1:
            leafs_ok = all(len(graph.adjacency[x]) == 1
                           for x in vertices if x != centers[0])
            if leafs_ok:
                return ("star", centers[0])
    return ("other", None)


def components_and_diameters(graph: CommGraph) -> tuple[list[ComponentReport], int]:
    """Components (ordered by smallest vertex) with per-vertex
    eccentricities and diameters; the connected diameter is the maximum
    component diameter (0 when totally disconnected)."""
    m = graph.vertex_count
    comp_of = [-1] * m
    comps: list[list[int]] = []
    for start in range(m):
        if comp_of[start] != -1:
            continue
        seen = sorted(_bfs_distances(graph, start))
        for v in seen:
            comp_of[v] = len(comps)
        comps.append(seen)

    reports = []
    connected_diameter = 0
    for vertices in comps:
        eccs = []
        for v in vertices:
            dist = _bfs_distances(graph, v)
            if len(dist) != len(vertices):
                raise AssertionError("BFS escaped the component")
            eccs.append(max(dist.values()))
        diameter = max(eccs)
        kind, center = classify_component(graph, vertices)
        reports.append(ComponentReport(vertices, diameter, eccs, kind, center))
        connected_diameter = max(connected_diameter, diameter)
    return reports, connected_diameter


def all_geodesics(graph: CommGraph, u: int, v: int) -> list[list[int]]:
    """Every shortest path from u to v, lexicographically ordered by the
    vertex index sequence."""
    dist = _bfs_distances(graph, u)
    if v not in dist:
        raise NotConnected(f"vertices {u} and {v} are not connected")
    if u == v:
        return [[u]]

    paths: list[list[int]] = []

    def extend_back(tail: list[int]) -> None:
        head = tail[-1]
        if dist[head] == 0:
            paths.append(tail[::-1])
            return
        for w in graph.adjacency[head]:
            if dist.get(w) == dist[head] - 1:
                extend_back(tail + [w])

    extend_back([v])
    paths.sort()
    return paths


def all_simple_paths(graph: CommGraph, u: int, v: int) -> list[list[int]]:
    """Every simple path from u to v (exhaustive DFS; small components only)."""
    paths: list[list[int]] = []
    on_path = {u}
    stack = [u]

    def walk(x: int) -> None:
        if x == v:
            paths.append(stack.copy())
            return
        for y in graph.adjacency[x]:
            if y not in on_path:
                on_path.add(y)
                stack.append(y)
                walk(y)
                stack.pop()
                on_path.remove(y)

    walk(u)
    paths.sort()
    return paths
