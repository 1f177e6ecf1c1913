"""p-local commensurability and p-containment graphs over a lattice.

Vertices are lattice indices.  In the commensurability graph, distinct
subgroups A, B are adjacent when both [A : A∩B] and [B : A∩B] are powers
of p; in the containment graph, when one contains the other with index a
positive power of p (so every containment edge is also a commensurability
edge).  Path lengths and diameters count edges.

A graph is two m×m numpy matrices over the m lattice members: the p-power
exponent of every index [L[i] : L[i]∩L[j]] and the boolean adjacency.
``build_graph`` gets all intersection orders from one product M·Mᵀ of the
0/1 membership matrix; ``components_and_diameters`` runs a breadth-first
search from every vertex at once, one matrix product per level.  The edge
map, neighbor lists and edge count are read off the matrices on demand.
``commensurability_exponents`` is the scalar form of the same test, for a
single pair of subgroups.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Simple undirected graph over lattice indices, held as two read-only
    m×m matrices (m = number of subgroups in the lattice).

    exponents[i, j] is a when [L[i] : L[i]∩L[j]] = p**a, else -1 (int8);
    it is filled for every pair, edge or not.  adj is the symmetric bool
    adjacency matrix with a false diagonal.  Equality is identity: the
    matrices have no single truth value.
    """

    kind: str
    p: int
    lattice: Lattice
    exponents: np.ndarray = field(repr=False)
    adj: np.ndarray = field(repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.lattice.subgroups)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    @property
    def edge_data(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Each edge (i, j) with i < j, in ascending order, mapped to the
        exponent pair (a, b) where [L[i] : L[i]∩L[j]] = p**a and
        [L[j] : L[i]∩L[j]] = p**b.  Derived from the matrices on access."""
        i, j = np.nonzero(np.triu(self.adj, 1))
        pairs = zip(self.exponents[i, j].tolist(), self.exponents[j, i].tolist())
        return dict(zip(zip(i.tolist(), j.tolist()), pairs))

    def neighbors(self, i: int) -> list[int]:
        """The neighbors of vertex i in ascending order."""
        return np.flatnonzero(self.adj[i]).tolist()

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])


def _membership_matrix(lat: Lattice) -> np.ndarray:
    """The m×n 0/1 matrix whose row i has a 1 at each element of L[i]."""
    n = lat.parent.order
    width = (n + 7) // 8
    packed = b"".join(s.members.to_bytes(width, "little") for s in lat.subgroups)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def build_graph(lat: Lattice, p: int, kind: str) -> CommGraph:
    """Every intersection order from one M·Mᵀ over the membership matrix
    M, then the p-power test on every index [L[i] : L[i]∩L[j]] by a
    lookup table built from p_power_exponent."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind not in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
        raise ValueError(f"unknown graph kind {kind!r}")
    n = lat.parent.order
    # float32 products are exact for counts below 2**24; orders and
    # intersection orders are divisors of n, so the index dtype holds them
    member = _membership_matrix(lat).astype(np.float32)
    index_dtype = np.min_scalar_type(n)
    inter = (member @ member.T).astype(index_dtype)
    orders = np.array([s.order for s in lat.subgroups], dtype=index_dtype)
    # lookup[k] is the exponent of index k, or -1; index 0 never occurs
    powers = [p_power_exponent(k, p) for k in range(1, n + 1)]
    lookup = np.array([-1] + [-1 if e is None else e for e in powers],
                      dtype=np.int8)
    exponents = lookup[orders[:, None] // inter]
    adj = (exponents >= 0) & (exponents.T >= 0)
    if kind == KIND_CONTAINMENT:
        adj &= (exponents == 0) | (exponents.T == 0)
    np.fill_diagonal(adj, False)
    exponents.flags.writeable = adj.flags.writeable = False
    return CommGraph(kind, p, lat, exponents, adj)


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
        for y in graph.neighbors(x):
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
    edges = int(np.count_nonzero(graph.adj[np.ix_(vertices, vertices)])) // 2
    if edges == k * (k - 1) // 2:
        return ("complete", None)
    if k >= 3 and edges == k - 1:
        degrees = np.count_nonzero(graph.adj[vertices], axis=1)
        centers = [x for x, d in zip(vertices, degrees) if d == k - 1]
        if len(centers) == 1:
            leafs_ok = all(d == 1 for x, d in zip(vertices, degrees)
                           if x != centers[0])
            if leafs_ok:
                return ("star", centers[0])
    return ("other", None)


def components_and_diameters(graph: CommGraph) -> tuple[list[ComponentReport], int]:
    """Components (ordered by smallest vertex) with per-vertex
    eccentricities and diameters; the connected diameter is the maximum
    component diameter (0 when totally disconnected).

    A breadth-first search runs from every vertex at once: row v of the
    frontier holds the vertices at distance d from v, and one matrix
    product per level gives the next, for the rows still non-empty.  A
    vertex's eccentricity is the last level at which its frontier is
    non-empty; its component is the set of vertices it reached."""
    m = graph.vertex_count
    step = graph.adj.astype(np.float32)
    reached = graph.adj | np.eye(m, dtype=bool)
    sources = np.arange(m)
    frontier = graph.adj
    ecc = np.zeros(m, dtype=np.int64)
    level = 0
    while True:
        alive = frontier.any(axis=1)
        if not alive.any():
            break
        level += 1
        sources, frontier = sources[alive], frontier[alive]
        ecc[sources] = level
        frontier = (frontier.astype(np.float32) @ step > 0) & ~reached[sources]
        reached[sources] |= frontier

    reports = []
    connected_diameter = 0
    for root in np.unique(reached.argmax(axis=1)).tolist():
        vertices = np.flatnonzero(reached[root]).tolist()
        eccs = ecc[vertices].tolist()
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
        for w in graph.neighbors(head):
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
        for y in graph.neighbors(x):
            if y not in on_path:
                on_path.add(y)
                stack.append(y)
                walk(y)
                stack.pop()
                on_path.remove(y)

    walk(u)
    paths.sort()
    return paths
