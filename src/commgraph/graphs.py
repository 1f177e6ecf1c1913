"""p-local commensurability and p-containment graphs over a lattice.

Vertices are lattice indices.  In the commensurability graph, distinct
subgroups A, B are adjacent when both [A : A∩B] and [B : A∩B] are powers
of p; in the containment graph, when one contains the other with index a
positive power of p (so every containment edge is also a commensurability
edge).  Path lengths and diameters count edges.

A graph is two m×m numpy matrices over the m lattice members: the p-power
exponent of every index [L[i] : L[i]∩L[j]] and the boolean adjacency.
``build_graph`` reads the indices from ``Lattice.index_matrix``, which the
lattice computes once, from one product M·Mᵀ of its 0/1 membership
matrix, and keeps for every prime and kind; each graph is then one lookup
of those indices in a table of the powers of p.  One breadth-first
search, ``_levels``, gives the distance classes from one root: it grows
each component and steers ``all_geodesics``.  The other,
``_eccentricities``, runs from all of a component's vertices at once
inside its own block of the adjacency matrix, unless the component has a
universal vertex, adjacent to every other one (as the trivial subgroup
and G are in the containment graph of a p-group): then each
eccentricity is 1 or 2, read off the vertex degrees, which are counted
once per graph.  The edge map, neighbor lists and edge count are read
off the matrices on demand.
``commensurability_exponents`` is the scalar form of the same test, for a
single pair of subgroups.
"""

from __future__ import annotations

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
        _check_vertices(self, i)
        return np.flatnonzero(self.adj[i]).tolist()

    def adjacent(self, i: int, j: int) -> bool:
        _check_vertices(self, i, j)
        return bool(self.adj[i, j])


def _p_power_lookup(n: int, p: int) -> np.ndarray:
    """lookup[k] for k in 0..n is e when k = p**e, else -1."""
    lookup = np.full(n + 1, -1, dtype=np.int8)
    e = 0
    while p ** e <= n:
        lookup[p ** e] = e
        e += 1
    return lookup


def build_graph(lat: Lattice, p: int, kind: str) -> CommGraph:
    """The p-power test on every index [L[i] : L[i]∩L[j]] of the
    lattice's index matrix, as one lookup through a table of the powers
    of p up to the group order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind not in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
        raise ValueError(f"unknown graph kind {kind!r}")
    lookup = _p_power_lookup(lat.parent.order, p)
    exponents = lookup.take(lat.index_matrix)
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


def _levels(adj: np.ndarray, root: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Breadth-first search from root in the graph whose adjacency matrix
    is adj: the boolean mask of each distance class, nearest first (the
    first holds root alone), and the mask of every vertex reached."""
    reached = np.zeros(len(adj), dtype=bool)
    reached[root] = True
    frontier = reached.copy()
    levels = []
    while frontier.any():
        levels.append(frontier)
        frontier = adj[frontier].any(axis=0) & ~reached
        reached |= frontier
    return levels, reached


def _classify(vertices: list[int],
              degrees: np.ndarray) -> tuple[str, int | None]:
    """Classify the graph on vertices whose degrees in it are degrees."""
    k = len(vertices)
    if k == 1:
        return ("singleton", None)
    edges = int(degrees.sum()) // 2
    if edges == k * (k - 1) // 2:
        return ("complete", None)
    # with k - 1 edges, a vertex of degree k - 1 meets every edge, so the
    # others are leaves; for k >= 3 no second vertex can have that degree
    if k >= 3 and edges == k - 1:
        hubs = np.flatnonzero(degrees == k - 1).tolist()
        if hubs:
            return ("star", vertices[hubs[0]])
    return ("other", None)


def classify_component(graph: CommGraph, vertices: list[int]) -> tuple[str, int | None]:
    """Classification of the subgraph on vertices (a component, in
    practice) follows its shape exactly: a 2-vertex component is complete,
    and a star (>= 3 vertices) has a unique center meeting every edge and
    no other edges."""
    _check_vertices(graph, *vertices)
    block = graph.adj[np.ix_(vertices, vertices)]
    return _classify(vertices, np.count_nonzero(block, axis=1))


def _eccentricities(block: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Eccentricities in the connected graph on k >= 2 vertices whose
    adjacency matrix is block and whose vertex degrees are degrees.

    When some vertex u has degree k - 1, every two vertices are joined
    through u, so a vertex's eccentricity is 1 if its own degree is k - 1
    and 2 otherwise; this covers the complete graph, and needs no product.
    Any other graph takes a breadth-first search from every vertex at once.
    Row v of frontier holds the vertices at distance d from v, and one
    matrix product gives the next level, for the rows whose reached set is
    not yet every vertex.  A source is dropped once it has reached every
    vertex; any other source's next level is non-empty, which makes its
    eccentricity one more than d."""
    k = len(block)
    universal = degrees == k - 1
    if universal.any():
        return np.where(universal, 1, 2)
    step = block.astype(np.float32)
    reached = block | np.eye(k, dtype=bool)
    sources = np.arange(k)
    frontier = block
    ecc = np.ones(k, dtype=np.int64)
    while True:
        open_rows = ~reached.all(axis=1)
        if not open_rows.any():
            return ecc
        sources = sources[open_rows]
        frontier, reached = frontier[open_rows], reached[open_rows]
        frontier = (frontier.astype(np.float32) @ step > 0) & ~reached
        reached |= frontier
        ecc[sources] += 1


def components_and_diameters(graph: CommGraph) -> tuple[list[ComponentReport], int]:
    """Components (ordered by smallest vertex) with per-vertex
    eccentricities and diameters; the connected diameter is the maximum
    component diameter (0 when totally disconnected).

    Distances never cross components, so the components come first.  The
    vertex degrees are counted once; those of degree 0 are the singletons.
    Every other component is the set ``_levels`` reaches from its smallest
    vertex not yet labelled.  A vertex's degree in its component is its
    degree in the graph, which gives the classification and, when some
    vertex is universal, the eccentricities; otherwise they come from a
    breadth-first search inside the component's own block of the adjacency
    matrix (``_eccentricities``), which costs the cube of the component's
    size per level instead of the cube of the graph's."""
    adj = graph.adj
    m = graph.vertex_count
    degrees = np.count_nonzero(adj, axis=1)
    isolated = degrees == 0
    reports = [ComponentReport([v], 0, [0], "singleton", None)
               for v in np.flatnonzero(isolated).tolist()]
    seen = isolated.copy()
    while not seen.all():
        component = _levels(adj, int(seen.argmin()))[1]
        seen |= component
        vs = np.flatnonzero(component)
        block = adj if len(vs) == m else adj[np.ix_(vs, vs)]
        vertices = vs.tolist()
        degs = degrees[vs]
        eccs = _eccentricities(block, degs).tolist()
        kind, center = _classify(vertices, degs)
        reports.append(ComponentReport(vertices, max(eccs), eccs, kind, center))
    reports.sort(key=lambda r: r.vertices[0])
    connected_diameter = max((r.diameter for r in reports), default=0)
    return reports, connected_diameter


def _check_vertices(graph: CommGraph, *vertices: int) -> None:
    """Raise ValueError unless every vertex is a lattice index of graph."""
    for v in vertices:
        if not 0 <= v < graph.vertex_count:
            raise ValueError(f"vertex {v} out of range")


def all_geodesics(graph: CommGraph, u: int, v: int) -> list[list[int]]:
    """Every shortest path from u to v, lexicographically ordered by the
    vertex index sequence: grown from u through each neighbor one level
    nearer to v, in ascending order, which keeps equal-length paths sorted."""
    _check_vertices(graph, u, v)
    levels, reached = _levels(graph.adj, v)
    if not reached[u]:
        raise NotConnected(f"vertices {u} and {v} are not connected")
    d = next(i for i, level in enumerate(levels) if level[u])
    paths = [[u]]
    for level in reversed(levels[:d]):
        paths = [path + [w] for path in paths
                 for w in np.flatnonzero(graph.adj[path[-1]] & level).tolist()]
    return paths


def all_simple_paths(graph: CommGraph, u: int, v: int) -> list[list[int]]:
    """Every simple path from u to v in lexicographic order (exhaustive DFS
    over ascending neighbors; small components only)."""
    _check_vertices(graph, u, v)
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
    return paths
