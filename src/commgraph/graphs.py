"""p-local commensurability and p-containment graphs over a lattice.

Vertices are lattice indices.  In the commensurability graph, distinct
subgroups A, B are adjacent when both [A : A∩B] and [B : A∩B] are powers
of p; in the containment graph, when one contains the other with index a
positive power of p (so every containment edge is also a commensurability
edge).  Path lengths and diameters count edges.

A graph is the m×m boolean adjacency matrix over the m lattice members.
An index is a power of p exactly when no other prime divides it, so
adjacency depends on p only through which prime bits it ignores.
``build_graph`` reads ``Lattice.pair_codes``, which the lattice computes
once from its index matrix and keeps for every prime and kind: per pair,
a bit for each prime dividing either index [L[i] : L[i]∩L[j]] or
[L[j] : L[i]∩L[j]], and a top bit when neither subgroup contains the
other.  Each graph is then one masked compare of those codes, and a
``CommGraph`` holds just that adjacency: the p-power exponents of the
indices are read off ``Lattice.index_matrix`` at the edges only, for
``edge_data``, and the neighbor lists and edge count are read off the
adjacency, each on demand.  One breadth-first search, ``_levels``, gives
the distance classes from one root: it labels each component, from its
vertex of highest degree, and steers ``all_geodesics``.  A component
whose root is universal, adjacent to every other vertex (as the trivial
subgroup and G are in the containment graph of a p-group), needs no
other search: each eccentricity is 1 or 2, read off the vertex degrees,
which are counted once per graph, as column sums of the symmetric
adjacency.  The other components of a graph are searched together by
``_eccentricities``, from all their vertices at once, one batched matrix
product per level over a stack of their blocks of the adjacency matrix,
one stack per component size.  ``commensurability_exponents`` is the
scalar form of the same test, for a single pair of subgroups and a prime
p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotConnected, ParentMismatch
from .groups import SubgroupSet, _is_int, is_prime, p_power_exponent
from .lattice import _NOT_CONTAINED, Lattice

KIND_COMMENSURABILITY = "commensurability"
KIND_CONTAINMENT = "containment"


def commensurability_exponents(A: SubgroupSet, B: SubgroupSet,
                               p: int) -> tuple[int, int] | None:
    """(a, b) with [A:A∩B] = p**a and [B:A∩B] = p**b, or None if either
    index is not a p-power.  (0, 0) exactly when A = B.  p must be prime,
    as for ``build_graph``."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    """Simple undirected graph over lattice indices, held as the read-only
    m×m symmetric bool adjacency matrix adj with a false diagonal (m =
    number of subgroups in the lattice).  Equality is identity: the matrix
    has no single truth value.
    """

    kind: str
    p: int
    lattice: Lattice
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
        [L[j] : L[i]∩L[j]] = p**b.  Derived on access: the indices at the
        edge positions only are looked up in a table of the powers of p."""
        i, j = np.nonzero(np.triu(self.adj, 1))
        lookup = _p_power_lookup(self.lattice.parent.order, self.p)
        index = self.lattice.index_matrix
        pairs = zip(lookup[index[i, j]].tolist(), lookup[index[j, i]].tolist())
        return dict(zip(zip(i.tolist(), j.tolist()), pairs))

    def neighbors(self, i: int) -> list[int]:
        """The neighbors of vertex i in ascending order."""
        _check_vertices(self, i)
        return np.flatnonzero(self.adj[i]).tolist()


def _p_power_lookup(n: int, p: int) -> np.ndarray:
    """lookup[k] for k in 0..n is e when k = p**e, else -1."""
    lookup = np.full(n + 1, -1, dtype=np.int8)
    e = 0
    while p ** e <= n:
        lookup[p ** e] = e
        e += 1
    return lookup


def build_graph(lat: Lattice, p: int, kind: str) -> CommGraph:
    """The p-graph of kind over the lattice, as one masked compare of its
    ``pair_codes``: a pair is adjacent when no prime but p divides either
    index, and, for containment, one subgroup contains the other.  The
    mask holds every prime bit of the group order except p's (a p that
    does not divide the order has none to leave out) and, for
    containment, the top bit.  No exponent is computed here."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind not in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
        raise ValueError(f"unknown graph kind {kind!r}")
    mask = sum(1 << bit for bit, (q, _) in
               enumerate(lat.parent.order_factorization) if q != p)
    if kind == KIND_CONTAINMENT:
        mask |= _NOT_CONTAINED
    adj = (lat.pair_codes & mask) == 0
    np.fill_diagonal(adj, False)
    adj.flags.writeable = False
    return CommGraph(kind, p, lat, adj)


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


def _eccentricities(blocks: np.ndarray) -> np.ndarray:
    """Eccentricities of the vertices of c connected graphs on k >= 2
    vertices each, whose adjacency matrices are stacked in the c×k×k array
    blocks, as a c×k array.

    Breadth-first search from every vertex of every graph at once.  Row v
    of frontier[g] holds the vertices of graph g at distance d from v, and
    one batched matrix product gives the next level of every graph still
    searched.  A graph is dropped once each of its sources has reached all
    k vertices; any other source's next level is non-empty, which makes
    its eccentricity one more than d.  So a graph of diameter d takes
    d - 1 products."""
    c, k, _ = blocks.shape
    step = blocks.astype(np.float32)
    reached = blocks | np.eye(k, dtype=bool)
    frontier = blocks
    searched = np.arange(c)
    ecc = np.ones((c, k), dtype=np.int64)
    while True:
        done = reached.all(axis=(1, 2))
        if done.all():
            return ecc
        if done.any():
            keep = ~done
            searched, step = searched[keep], step[keep]
            frontier, reached = frontier[keep], reached[keep]
        frontier = (frontier.astype(np.float32) @ step > 0) & ~reached
        reached |= frontier
        ecc[searched] += frontier.any(axis=2)


def components_and_diameters(graph: CommGraph) -> tuple[list[ComponentReport], int]:
    """Components (ordered by smallest vertex) with per-vertex
    eccentricities and diameters; the connected diameter is the maximum
    component diameter (0 when totally disconnected).

    Distances never cross components, so the components come first.  The
    vertex degrees are counted once, as column sums of the symmetric
    adjacency matrix; those of degree 0 are the singletons.  The other
    components are labelled in one pass, each by ``_levels`` from its
    vertex of highest degree, taken over the vertices not yet labelled.
    When that search stops after one level, the component is the root's
    closed neighbourhood, and the root is universal in it: every two
    vertices are joined through the root, so a vertex's eccentricity is 1
    if its degree is the component's size less one, and 2 otherwise, with
    no search.  A component with a universal vertex always meets this
    case, as its highest degree is that of a universal vertex.  Every
    other component is set aside, and those of each size k are searched
    together (``_eccentricities``), inside a stack of their k×k blocks of
    the adjacency matrix: one product per level costs the sum of the
    cubes of their sizes, where a search over the block-diagonal matrix
    of all of them would cost the cube of the sum.  A vertex's degree in
    its component is its degree in the graph, which also gives the
    classification."""
    adj = graph.adj
    m = graph.vertex_count
    degrees = adj.view(np.uint8).sum(axis=0, dtype=np.int32)
    sizes = np.ones(m, dtype=np.int32)  # of each vertex's component
    components = []
    set_aside: dict[int, list[np.ndarray]] = {}  # by size
    rank = np.where(degrees > 0, degrees, -1)  # -1 once labelled
    while True:
        root = int(rank.argmax())
        if rank[root] < 0:
            break
        levels, component = _levels(adj, root)
        rank[component] = -1
        vs = np.flatnonzero(component)
        sizes[vs] = len(vs)
        if len(levels) > 2:
            set_aside.setdefault(len(vs), []).append(vs)
        components.append(vs)
    ecc = np.where(degrees == sizes - 1, 1, 2)
    for same_size in set_aside.values():
        vs = np.array(same_size)
        ecc[vs] = _eccentricities(adj[vs[:, :, None], vs[:, None, :]])
    reports = [ComponentReport([v], 0, [0], "singleton", None)
               for v in np.flatnonzero(degrees == 0).tolist()]
    for vs in components:
        vertices = vs.tolist()
        eccs = ecc[vs].tolist()
        kind, center = _classify(vertices, degrees[vs])
        reports.append(ComponentReport(vertices, max(eccs), eccs, kind, center))
    reports.sort(key=lambda r: r.vertices[0])
    connected_diameter = max((r.diameter for r in reports), default=0)
    return reports, connected_diameter


def _check_vertices(graph: CommGraph, *vertices: int) -> None:
    """Raise ValueError unless every vertex is a lattice index of graph:
    an integer (see ``groups._is_int``) in range."""
    for v in vertices:
        if not _is_int(v):
            raise ValueError(f"vertex {v!r} is not an integer")
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
