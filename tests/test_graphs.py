"""Graph construction, components, classification, and geodesics."""

from __future__ import annotations

import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    CommGraph,
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
    direct,
    enumerate_subgroups,
    p2q,
    subgroup_closure,
    sym,
)
from commgraph.constructions import spec_name
from commgraph.groups import perm_from_cycles
from graph_oracle import bfs_distances, classify_component


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


def test_exponents_reject_composite_p(s4, s4_lattice):
    """At p = 4, [V4 : 1] = 4 = 4**1 would read as a 4-power, but p must
    be prime: the error is build_graph's for the same p."""
    trivial = s4_lattice.subgroups[0]
    v4 = subgroup_closure(s4.table, [el(s4, (1, 2)), el(s4, (3, 4))])
    assert commensurability_exponents(trivial, v4, 2) == (0, 2)
    for p in (1, 4):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            commensurability_exponents(trivial, v4, p)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            build_graph(s4_lattice, p, KIND_COMMENSURABILITY)


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
        A, B = s4_lattice.subgroups[small], s4_lattice.subgroups[big]
        assert A.members & B.members == A.members


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


def _components_and_products(graph: CommGraph):
    """components_and_diameters of graph, and the number of matrix products
    it took, counted on a view of the adjacency matrix that records each."""
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(len(self))
            return np.asarray(self) @ np.asarray(other)

    counted = dataclasses.replace(graph, adj=graph.adj.view(Counted))
    return components_and_diameters(counted), len(products)


def _stub_graph(m: int, edges) -> CommGraph:
    """The graph on m vertices with these edges, over a stand-in lattice
    that gives only the vertex count."""
    adj = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return CommGraph(KIND_COMMENSURABILITY, 2,
                     SimpleNamespace(subgroups=range(m)), adj)


def _eccentricities_and_products(edges: list[tuple[int, int]], k: int = 5):
    """The eccentricities of the connected k-vertex graph with these edges,
    and the number of matrix products components_and_diameters took."""
    (reports, _), products = _components_and_products(_stub_graph(k, edges))
    (report,) = reports
    return report.eccentricities, products


def test_block_bfs_drops_finished_sources():
    """A graph with a universal vertex (the complete graph, a star) needs
    no product.  Otherwise the search stops once every source has reached
    every vertex, so a graph of diameter d needs d - 1 products."""
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


@st.composite
def mixed_graphs(draw):
    """(m, edges): the disjoint union of 1-4 graphs from connected_graphs
    and 0-6 isolated vertices, with the vertex ids shuffled."""
    parts = draw(st.lists(connected_graphs(), min_size=1, max_size=4))
    m = sum(k for k, _ in parts) + draw(st.integers(0, 6))
    ids = draw(st.permutations(range(m)))
    edges, first = [], 0
    for k, part in parts:
        edges += [(ids[first + i], ids[first + j]) for i, j in part]
        first += k
    return m, edges


def _oracle_reports(graph: CommGraph) -> list[tuple]:
    """(vertices, diameter, eccentricities, kind, center) of each component
    by one dict BFS per vertex, ordered by smallest vertex, classified by
    ``classify_component``."""
    out, seen = [], set()
    for v in range(graph.vertex_count):
        if v not in seen:
            vertices = sorted(bfs_distances(graph, v))
            seen.update(vertices)
            eccs = [max(bfs_distances(graph, u).values()) for u in vertices]
            out.append((vertices, max(eccs), eccs,
                        *classify_component(graph, vertices)))
    return out


def _check_against_oracle(graph: CommGraph) -> None:
    reports, connected = components_and_diameters(graph)
    expected = _oracle_reports(graph)
    assert [(r.vertices, r.diameter, r.eccentricities, r.kind, r.center)
            for r in reports] == expected
    assert connected == max(d for _, d, *_ in expected)


@settings(max_examples=200, deadline=None)
@given(mixed_graphs())
def test_mixed_components_match_dict_bfs(graph):
    """Universal and searched components side by side, of equal or unequal
    sizes, among scattered singletons: every report equals the oracle's,
    in the same order."""
    _check_against_oracle(_stub_graph(*graph))


def test_searched_components_of_one_size_and_two_diameters():
    """The 5-path (diameter 4) and the 5-cycle (diameter 2) have no
    universal vertex and are searched in one stack; the cycle is done
    after one product, the path after three."""
    path = [(0, 2), (2, 4), (4, 6), (6, 8)]
    cycle = [(1, 3), (3, 5), (5, 7), (7, 9), (1, 9)]
    graph = _stub_graph(11, path + cycle)
    _check_against_oracle(graph)
    (reports, connected), products = _components_and_products(graph)
    assert [(r.vertices, r.eccentricities) for r in reports] == [
        ([0, 2, 4, 6, 8], [4, 3, 2, 3, 4]),
        ([1, 3, 5, 7, 9], [2, 2, 2, 2, 2]),
        ([10], [0])]
    assert (connected, products) == (4, 3)


def test_universal_component_beside_a_searched_one():
    """A star centered at 5 needs no search; the 4-path beside it takes
    two products, whichever of them is labelled first."""
    star = [(1, 5), (3, 5), (5, 6)]
    path = [(0, 2), (2, 4), (4, 7)]
    graph = _stub_graph(8, star + path)
    _check_against_oracle(graph)
    (reports, connected), products = _components_and_products(graph)
    assert [(r.vertices, r.eccentricities, r.kind, r.center)
            for r in reports] == [
        ([0, 2, 4, 7], [3, 2, 2, 3], "other", None),
        ([1, 3, 5, 6], [2, 2, 1, 2], "star", 5)]
    assert (connected, products) == (3, 2)


@pytest.mark.parametrize("spec", [
    abelian([2, 2, 2, 2, 2]), direct([dihedral(4), dihedral(4)]),
    direct([sym(4), abelian([2, 2])]),
], ids=spec_name)
@pytest.mark.parametrize("kind", [KIND_COMMENSURABILITY, KIND_CONTAINMENT])
def test_dense_p2_graphs_take_no_product(spec, kind):
    """Every component of these p = 2 graphs (the three groups of the
    benchmark's dense workload) has a universal vertex, so its
    eccentricities come from the degrees alone."""
    graph = build_graph(enumerate_subgroups(construct(spec)), 2, kind)
    counted, products = _components_and_products(graph)
    assert products == 0
    reports, connected = components_and_diameters(graph)
    assert counted == (reports, connected)


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


@pytest.mark.parametrize("paths", [all_simple_paths, all_geodesics],
                         ids=["simple", "geodesics"])
@pytest.mark.parametrize("u", [1.0, True, np.float64(2), "1"])
def test_paths_reject_vertices_that_are_not_integers(s4_lattice, paths, u):
    """1.0 used to raise an IndexError and True numpy's truth-value
    ValueError; neither names a vertex."""
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    with pytest.raises(ValueError, match="is not an integer$"):
        paths(graph, u, 2)


def test_paths_take_numpy_integer_vertices(s4_lattice):
    graph = build_graph(s4_lattice, 3, KIND_CONTAINMENT)
    assert all_geodesics(graph, np.int64(0), np.int32(0)) == [[0]]


@pytest.mark.parametrize("p", [3.0, True, np.float64(2)])
def test_build_graph_rejects_a_prime_that_is_not_an_integer(s4_lattice, p):
    """build_graph(lat, 3.0, ...) used to succeed, and its edge data then
    raised an IndexError."""
    with pytest.raises(ValueError, match="is not prime$"):
        build_graph(s4_lattice, p, KIND_CONTAINMENT)


@pytest.mark.parametrize("query", [
    lambda g, v: g.neighbors(v),
    lambda g, v: classify_component(g, [v, 25]),
], ids=["neighbors", "classify"])
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
