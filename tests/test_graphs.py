"""Graph construction, components, classification, and geodesics."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    NotConnected,
    abelian,
    all_geodesics,
    all_simple_paths,
    build_graph,
    commensurability_exponents,
    components_and_diameters,
    construct,
    construct_detailed,
    cyclic,
    dihedral,
    enumerate_subgroups,
    p2q,
    subgroup_closure,
    sym,
)
from commgraph.graphs import _eccentricities
from commgraph.groups import perm_from_cycles
from graph_oracle import classify_component


@pytest.fixture(scope="module")
def s4():
    return construct_detailed(sym(4))


@pytest.fixture(scope="module")
def s4_lattice(s4):
    return enumerate_subgroups(s4.table)


def el(built, *cycles):
    return built.index[perm_from_cycles(4, cycles)]


def test_exponents_examples(s4):
    a = subgroup_closure(s4.table, [el(s4, (1, 2))])
    b = subgroup_closure(s4.table, [el(s4, (3, 4))])
    c = subgroup_closure(s4.table, [el(s4, (1, 2, 3))])
    assert commensurability_exponents(a, a, 2) == (0, 0)
    assert commensurability_exponents(a, b, 2) == (1, 1)
    assert commensurability_exponents(a, c, 2) is None


def test_cyclic6_commensurability_edges():
    lat = enumerate_subgroups(construct(cyclic(6)))
    graph = build_graph(lat, 2, KIND_COMMENSURABILITY)
    # exactly {1}-Z/2 and Z/3-Z/6 survive the 2-power index test
    orders = {tuple(sorted((lat.subgroups[i].order, lat.subgroups[j].order)))
              for i, j in graph.edge_data}
    assert graph.edge_count == 2
    assert orders == {(1, 2), (3, 6)}


def test_totally_disconnected_when_p_misses_order(s4_lattice):
    graph = build_graph(s4_lattice, 5, KIND_COMMENSURABILITY)
    assert graph.edge_count == 0
    comps, diameter = components_and_diameters(graph)
    assert diameter == 0
    assert all(c.kind == "singleton" for c in comps)


def test_adjacency_symmetric_and_exponents_reverse(s4_lattice):
    graph = build_graph(s4_lattice, 2, KIND_COMMENSURABILITY)
    for (i, j), (a, b) in graph.edge_data.items():
        assert i < j
        assert j in graph.neighbors(i) and i in graph.neighbors(j)
        sa = s4_lattice.subgroups[i]
        sb = s4_lattice.subgroups[j]
        assert commensurability_exponents(sb, sa, 2) == (b, a)


@pytest.mark.parametrize("p", [2, 3])
def test_containment_edges_subset_of_commensurability(s4_lattice, p):
    comm = build_graph(s4_lattice, p, KIND_COMMENSURABILITY)
    cont = build_graph(s4_lattice, p, KIND_CONTAINMENT)
    assert set(cont.edge_data) <= set(comm.edge_data)
    for (i, j), (a, b) in cont.edge_data.items():
        assert 0 in (a, b) and a + b >= 1
        small, big = ((i, j) if a == 0 else (j, i))
        assert s4_lattice.subgroups[small].issubset(s4_lattice.subgroups[big])


def test_graph_rejects_bad_input(s4_lattice):
    with pytest.raises(ValueError):
        build_graph(s4_lattice, 4, KIND_COMMENSURABILITY)
    with pytest.raises(ValueError):
        build_graph(s4_lattice, 2, "mystery")


def test_nilpotent_groups_have_diameter_at_most_one():
    for spec in (cyclic(12), abelian([2, 4]), abelian([3, 3]), dihedral(4)):
        lat = enumerate_subgroups(construct(spec))
        for p in (2, 3, 5, 7, 11, 13):
            _, diameter = components_and_diameters(
                build_graph(lat, p, KIND_COMMENSURABILITY))
            assert diameter <= 1


def test_classification_soundness():
    lat = enumerate_subgroups(construct(p2q(5)))
    for p in (2, 5):
        graph = build_graph(lat, p, KIND_COMMENSURABILITY)
        comps, _ = components_and_diameters(graph)
        for comp in comps:
            n = len(comp.vertices)
            edges = sum(len(graph.neighbors(v)) for v in comp.vertices) // 2
            if comp.kind == "singleton":
                assert n == 1 and comp.diameter == 0
            elif comp.kind == "complete":
                assert edges == n * (n - 1) // 2 and comp.diameter <= 1
            elif comp.kind == "star":
                assert edges == n - 1 and comp.diameter == 2
                assert len(graph.neighbors(comp.center)) == n - 1
            assert comp.diameter == max(comp.eccentricities)


def test_prime_power_chains_form_complete_components():
    # 1 < Z/3 < Z/9 all at 3-power indices (9 = 3^2 included), so the
    # 3-containment graph of cyclic(9) is one complete triangle
    lat = enumerate_subgroups(construct(cyclic(9)))
    graph = build_graph(lat, 3, KIND_CONTAINMENT)
    comps, diameter = components_and_diameters(graph)
    assert diameter == 1
    assert [c.kind for c in comps] == ["complete"]
    graph2 = build_graph(enumerate_subgroups(construct(cyclic(4))), 2,
                         KIND_CONTAINMENT)
    comps2, _ = components_and_diameters(graph2)
    assert [c.kind for c in comps2] == ["complete"]


def test_classify_component_other_for_long_paths(s4_lattice):
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    comps, _ = components_and_diameters(graph)
    big = max(comps, key=lambda c: len(c.vertices))
    assert len(big.vertices) == 10 and big.diameter == 4
    assert classify_component(graph, big.vertices) == ("other", None)


def test_eccentricities_match_pairwise_bfs(s4_lattice):
    graph = build_graph(s4_lattice, 2, KIND_COMMENSURABILITY)
    comps, _ = components_and_diameters(graph)
    for comp in comps:
        verts = comp.vertices
        for v, ecc in zip(verts, comp.eccentricities):
            dists = {v: 0}
            frontier = [v]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in graph.neighbors(x):
                        if y not in dists:
                            dists[y] = dists[x] + 1
                            nxt.append(y)
                frontier = nxt
            assert max(dists.values()) == ecc


def _eccentricities_and_products(edges: list[tuple[int, int]], k: int = 5):
    """_eccentricities of the k-vertex graph with these edges, and the
    number of matrix products it took."""
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(len(self))
            return np.asarray(self) @ np.asarray(other)

    block = np.zeros((k, k), dtype=bool)
    for i, j in edges:
        block[i, j] = block[j, i] = True
    degrees = np.count_nonzero(block, axis=1)
    return (_eccentricities(block.view(Counted), degrees).tolist(),
            len(products))


def test_block_bfs_drops_finished_sources():
    """A graph with a universal vertex (the complete graph, a star) needs
    no product.  Otherwise a source that has reached every vertex takes
    no further product, so a graph of diameter d needs d - 1 products."""
    complete = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert _eccentricities_and_products(complete) == ([1] * 5, 0)
    star = [(0, i) for i in range(1, 5)]
    assert _eccentricities_and_products(star) == ([1, 2, 2, 2, 2], 0)
    path = [(i, i + 1) for i in range(4)]
    assert _eccentricities_and_products(path) == ([4, 3, 2, 3, 4], 3)
    # the chord 1-3 leaves every degree below 4: 0 and 4 lie at distance 3
    chord = path + [(1, 3)]
    assert _eccentricities_and_products(chord) == ([3, 2, 2, 2, 3], 2)


def _bfs_eccentricities(k: int, edges) -> list[int]:
    """Eccentricities of a connected graph by one dict BFS per vertex."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(k)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    out = []
    for v in range(k):
        dist = {v: 0}
        queue = [v]
        for x in queue:  # also visits the vertices appended below
            for y in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        assert len(dist) == k
        out.append(max(dist.values()))
    return out


@st.composite
def connected_graphs(draw):
    """(k, edges): a random tree on 2-12 vertices plus random extra edges;
    half of them have one vertex joined to every other."""
    k = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * k)))
    if draw(st.booleans()):
        u = draw(st.integers(0, k - 1))
        edges |= {(min(u, v), max(u, v)) for v in range(k) if v != u}
    return k, sorted(edges)


@settings(max_examples=300, deadline=None)
@given(connected_graphs())
def test_eccentricities_match_dict_bfs(graph):
    """The all-source search and the universal-vertex rule agree with a
    dict BFS, and the rule takes no product whenever it applies."""
    k, edges = graph
    eccs, products = _eccentricities_and_products(edges, k)
    assert eccs == _bfs_eccentricities(k, edges)
    degrees = [sum(v in e for e in edges) for v in range(k)]
    if k - 1 in degrees:
        assert products == 0


def test_geodesics_trivial_cases(s4, s4_lattice):
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    from commgraph import locate_subgroup

    u = locate_subgroup(s4_lattice, [el(s4, (1, 2))])
    assert all_geodesics(graph, u, u) == [[u]]
    w = locate_subgroup(s4_lattice, [el(s4, (1, 2)), el(s4, (1, 2, 3))])
    assert all_geodesics(graph, u, w) == [[u, w]]
    v4 = locate_subgroup(s4_lattice, [el(s4, (1, 2), (3, 4)),
                                      el(s4, (1, 3), (2, 4))])
    with pytest.raises(NotConnected):
        all_geodesics(graph, u, v4)


def test_simple_paths_superset_of_geodesics(s4, s4_lattice):
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    from commgraph import locate_subgroup

    u = locate_subgroup(s4_lattice, [el(s4, (1, 2))])
    v = locate_subgroup(s4_lattice, [el(s4, (3, 4))])
    geos = all_geodesics(graph, u, v)
    paths = all_simple_paths(graph, u, v)
    assert set(map(tuple, geos)) <= set(map(tuple, paths))
    assert min(len(p) for p in paths) == len(geos[0])
    assert geos == sorted(geos)


@pytest.mark.parametrize("paths", [all_simple_paths, all_geodesics],
                         ids=["simple", "geodesics"])
@pytest.mark.parametrize("u,v", [(-1, 29), (0, 30), (30, 0)])
def test_paths_reject_vertices_outside_graph(s4_lattice, paths, u, v):
    """sym(4) has 30 subgroups, so -1 and 30 name no vertex: a
    ValueError, not paths through row -1 or a NotConnected."""
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    with pytest.raises(ValueError, match="out of range"):
        paths(graph, u, v)


@pytest.mark.parametrize("query", [
    lambda g, v: g.neighbors(v),
    lambda g, v: g.adjacent(v, 25),
    lambda g, v: g.adjacent(25, v),
    lambda g, v: classify_component(g, [v, 25]),
], ids=["neighbors", "adjacent", "adjacent-second", "classify"])
@pytest.mark.parametrize("v", [-1, 30])
def test_vertex_queries_reject_ids_outside_graph(s4_lattice, query, v):
    """-1 would index vertex 29's row and 30 would raise a bare
    IndexError; both name no vertex of the 30-vertex graph."""
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    with pytest.raises(ValueError, match="out of range"):
        query(graph, v)


def test_library_keeps_no_results():
    """Every call computes afresh and nothing pins its result: reuse is
    the caller's choice (see commgraph.verify).  A lattice keeps its own
    index matrix, which dies with it."""
    lat = enumerate_subgroups(construct(sym(4)))
    ref = weakref.ref(lat)
    del lat
    gc.collect()
    assert ref() is None

    assert construct_detailed(sym(4)) is not construct_detailed(sym(4))
    lat = enumerate_subgroups(construct(sym(4)))
    a = build_graph(lat, 2, KIND_COMMENSURABILITY)
    b = build_graph(lat, 2, KIND_COMMENSURABILITY)
    assert a is not b
    assert a.edge_data == b.edge_data
    assert components_and_diameters(a) is not components_and_diameters(a)
    assert "index_matrix" in vars(lat)  # kept by the lattice alone
    ref = weakref.ref(lat)
    del a, b, lat
    gc.collect()
    assert ref() is None
