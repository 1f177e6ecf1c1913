"""Graph construction, components, classification, and geodesics."""

from __future__ import annotations

import gc
import weakref

import pytest

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    NotConnected,
    abelian,
    all_geodesics,
    all_simple_paths,
    build_graph,
    classify_component,
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
from commgraph.groups import perm_from_cycles


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
        assert j in graph.adjacency[i] and i in graph.adjacency[j]
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
            edges = sum(len(graph.adjacency[v]) for v in comp.vertices) // 2
            if comp.kind == "singleton":
                assert n == 1 and comp.diameter == 0
            elif comp.kind == "complete":
                assert edges == n * (n - 1) // 2 and comp.diameter <= 1
            elif comp.kind == "star":
                assert edges == n - 1 and comp.diameter == 2
                assert len(graph.adjacency[comp.center]) == n - 1
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
                    for y in graph.adjacency[x]:
                        if y not in dists:
                            dists[y] = dists[x] + 1
                            nxt.append(y)
                frontier = nxt
            assert max(dists.values()) == ecc


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


def test_library_keeps_no_results():
    """Every call computes afresh and nothing pins its result: reuse is
    the caller's choice (see commgraph.verify)."""
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
