"""The graph layer against fixed output digests and a pairwise oracle.

The digests are sha256 sums of the DOT text and of the graph and analyze
JSON documents, as the CLI writes them, recorded from the pairwise
implementation that preceded the matrix layer.  The oracle checks every
pair with the scalar predicate ``commensurability_exponents``, every
eccentricity with a single-source BFS over a dict and a queue, and every
geodesic list with the shortest of the exhaustive simple paths.  The pair
codes are checked against the member masks, and each graph built from
them against the dense exponent route they replaced.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np
import pytest

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    Lattice,
    abelian,
    all_geodesics,
    all_simple_paths,
    build_graph,
    commensurability_exponents,
    components_and_diameters,
    construct,
    dihedral,
    direct,
    enumerate_subgroups,
    p2q,
    sym,
)
from commgraph.cli import _dump_json, analyze_doc, export_dot, graph_json_doc
from commgraph import graphs
from commgraph.graphs import _p_power_lookup
from commgraph.groups import p_power_exponent
from graph_oracle import classify_component

SPECS = {"sym(4)": sym(4), "p2q(5)": p2q(5),
         "D4xD4": direct([dihedral(4), dihedral(4)]),
         "S4xV4": direct([sym(4), abelian([2, 2])])}
# the lattices of the pair-code gate: SPECS, and more primes and a p-group
GATE_SPECS = {**SPECS, "sym(5)": sym(5), "p2q(7)": p2q(7),
              "abelian(2^5)": abelian([2, 2, 2, 2, 2])}

# (spec, kind, p) -> (edges, DOT sha256, graph JSON sha256, analyze JSON sha256)
GOLDEN = {
    ("sym(4)", KIND_COMMENSURABILITY, 2): (
        211,
        "ff0dce31c1c0a31accb7adc109b7388639f8acc069dc2c071beff642ad7abd3b",
        "46c8cb6e8d16d81adcbb8d3d29cfa9a99d02958da07391c3fb2a1676b64e5f64",
        "1f5a1ae081eb921667d251883de6dab8daf421d5be0c7c6870e828a1e1d8d8ef"),
    ("sym(4)", KIND_COMMENSURABILITY, 3): (
        32,
        "36b20a1119f52d475e9f3950fc4b4036c6f9e28b8086f81ede6c4a049d5e3615",
        "4fcaf99e97b5be594b74a1e4584572045d1d524c992343209691fd2a6b46716d",
        "856da99976a8b4604be7411e772a0761c781a5872d056a8a2ff85d4d7e6e038f"),
    ("sym(4)", KIND_CONTAINMENT, 2): (
        75,
        "99f0d4db446c37bd669f65f01199a4af2e923d83eb2c5f7356f46aeb41a4f570",
        "52c49ab9c358c5a077850f6b214a5918fbe610d048d6a79dbb5e53258794dadf",
        "20b4b828786328aa22ad4ccc65074a7facaaacb770339d48521501a02e2f3f10"),
    ("sym(4)", KIND_CONTAINMENT, 3): (
        20,
        "656c659ac6ae2c7466181c9c3ef7ad27a2a844ffbb009a43c22fbdbe40152cf3",
        "2e04cf13e618311522050aacaf2e76c7bb311030f496c10586114f195211b436",
        "7cc235ccc66481621fe216b0e7bfb809bd9ec2f0ed5103d356fbb2563fdc003f"),
    ("p2q(5)", KIND_COMMENSURABILITY, 2): (
        2058,
        "8c008c400d97f13c7e497b1f8fd10ec10fe7be8bf9f115367fa8266f3a1daa47",
        "3cc5d0dc93e8d6017dd5eff2f3b5449803cc191fc08d45eb63a4e96371e677a0",
        "f5842a1345406bece1709214e711eb1aeea6ca1a15720823627bff3895717201"),
    ("p2q(5)", KIND_COMMENSURABILITY, 3): (
        0,
        "db22021d38a07c0e9143c98e61fe3dab50e8738bd03e2dea87fc9c6d257691ac",
        "ec0d427fd8134aca528244b2e554a6e96617e05172c502a4c6c35ed78480beff",
        "1a83570f2b4db8660303c557bfe558d01fa4d163584127f10d0a598e65746ad0"),
    ("p2q(5)", KIND_CONTAINMENT, 2): (
        312,
        "8b337c5016e47cc1d2fa63215c73ed2786990e3da68c584164dea9ad3bd1ed30",
        "ba5c9bbb068489cfa9c3571f6432b53c1300367e03597bc4bdd5b17562b91f81",
        "ecf232979bf04fbd91e226d3faf9d1772f3f472fcd86d278531bf2cdc4d606a5"),
    ("p2q(5)", KIND_CONTAINMENT, 3): (
        0,
        "db22021d38a07c0e9143c98e61fe3dab50e8738bd03e2dea87fc9c6d257691ac",
        "2c20e146262d314f4249496ff0cafee129ad3aaa2374842ad21cb9574930dd67",
        "0f150c6f375cbac77ed3527d5891f9213c4eeb0c7075dda377d32d0ff2d32646"),
    ("D4xD4", KIND_COMMENSURABILITY, 2): (
        75466,
        "ca9c0e3ca68af3b88406d5cb77b809004afa3613043fdd264baca961ee0e74df",
        "d4b92fd4b20d245bb6eb386e6d0ad514881d8531648b66524d336b841c62a8ce",
        "667f511280bc461f76e0b8c01f42df0e2032e56adc534ac0966a4b7d2813883f"),
    ("D4xD4", KIND_COMMENSURABILITY, 3): (
        0,
        "bb1c58d860cf41f542620aac78db9b12dd54f4dfae9a574cfe0b30faf3425907",
        "ccf2b9187afc93ef17d2a7d5217d70d0e55a664fcf0de898b0ca37fb6aaaedb6",
        "68963a94076e3bc4399c9e085f47fce5abe3824c208bbd86103f8cde1e41c97a"),
    ("D4xD4", KIND_CONTAINMENT, 2): (
        6249,
        "94443a5babddfc84a62890a9ffeb04d08befdcc3cc372a5ff227a8e8bedb3154",
        "0139e3539177986364da30393c45d2f01097151ccb9e549173aa28c67ab307c7",
        "3c1890d02304ae0f59ab20acdd48cad324dd054b28cd85538cc22c375f61a7f8"),
    ("D4xD4", KIND_CONTAINMENT, 3): (
        0,
        "bb1c58d860cf41f542620aac78db9b12dd54f4dfae9a574cfe0b30faf3425907",
        "d595e23b86fd71b4267fd6a042461e01c333e9de4110e42d5a67a37a8ef6b522",
        "02ea14e8295748e8cbd505519be72f9cd2354a0f8c020db94d5e209b2c1d0a53"),
}


@pytest.fixture(scope="module")
def lattices():
    return {name: enumerate_subgroups(construct(spec))
            for name, spec in GATE_SPECS.items()}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bfs_distances(graph, start: int) -> dict[int, int]:
    """The distance from start to every vertex it reaches, one neighbor
    list at a time: the oracle for the matrix searches of the graph layer."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in graph.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}-p{k[2]}")
def test_outputs_match_golden_digests(lattices, key):
    name, kind, p = key
    spec = SPECS[name]
    graph = build_graph(lattices[name], p, kind)
    got = (graph.edge_count,
           _sha256(export_dot(graph)),
           _sha256(_dump_json(graph_json_doc(spec, graph))),
           _sha256(_dump_json(analyze_doc(spec, graph))))
    assert got == GOLDEN[key]


@pytest.mark.parametrize("name", ["sym(4)", "p2q(5)"])
@pytest.mark.parametrize("kind", [KIND_COMMENSURABILITY, KIND_CONTAINMENT])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrices_and_eccentricities_match_oracle(lattices, name, kind, p):
    lat = lattices[name]
    subs = lat.subgroups
    graph = build_graph(lat, p, kind)
    for i in range(len(subs)):
        for j in range(len(subs)):
            exps = commensurability_exponents(subs[i], subs[j], p)
            pair = (int(graph.exponents[i, j]), int(graph.exponents[j, i]))
            if exps is None:
                assert -1 in pair and not graph.adj[i, j]
                continue
            assert pair == exps
            edge = i != j and (kind == KIND_COMMENSURABILITY or 0 in exps)
            assert bool(graph.adj[i, j]) == edge
    reports, _ = components_and_diameters(graph)
    for report in reports:
        for v, ecc in zip(report.vertices, report.eccentricities):
            dist = _bfs_distances(graph, v)
            assert sorted(dist) == report.vertices
            assert max(dist.values()) == ecc


@pytest.mark.parametrize("kind", [KIND_COMMENSURABILITY, KIND_CONTAINMENT])
def test_scattered_singletons_match_oracle(lattices, kind):
    """At p = 3 the 420 subgroups of S4 x V4 fall into 263 components, 231
    of them isolated vertices scattered among the other 32."""
    graph = build_graph(lattices["S4xV4"], 3, kind)
    reports, connected = components_and_diameters(graph)
    assert len(reports) == 263
    assert sum(len(r.vertices) == 1 for r in reports) == 231
    roots = [r.vertices[0] for r in reports]
    assert roots == sorted(roots)
    assert sorted(v for r in reports for v in r.vertices) == \
        list(range(graph.vertex_count))
    for report in reports:
        for v, ecc in zip(report.vertices, report.eccentricities):
            dist = _bfs_distances(graph, v)
            assert sorted(dist) == report.vertices
            assert max(dist.values()) == ecc
        assert report.diameter == max(report.eccentricities)
        assert (report.kind, report.center) == \
            classify_component(graph, report.vertices)
    assert connected == max(r.diameter for r in reports)


@pytest.mark.parametrize("name,p,kind", [
    ("sym(4)", 3, KIND_COMMENSURABILITY),
    ("sym(4)", 3, KIND_CONTAINMENT),
    ("p2q(5)", 5, KIND_COMMENSURABILITY),
    ("p2q(5)", 5, KIND_CONTAINMENT),
    # not the p = 2 commensurability graph of D4: 9.9 million simple paths
    ("D4", 2, KIND_CONTAINMENT),
], ids=lambda x: str(x))
def test_geodesics_are_the_shortest_simple_paths(lattices, name, p, kind):
    """For every ordered pair in one component, the geodesics are exactly
    the shortest simple paths, in the same order, and the simple paths
    come out sorted."""
    lat = (enumerate_subgroups(construct(dihedral(4))) if name == "D4"
           else lattices[name])
    graph = build_graph(lat, p, kind)
    reports, _ = components_and_diameters(graph)
    for report in reports:
        for u in report.vertices:
            for v in report.vertices:
                paths = all_simple_paths(graph, u, v)
                assert paths == sorted(paths)
                shortest = min(map(len, paths))
                assert all_geodesics(graph, u, v) == \
                    [path for path in paths if len(path) == shortest]


def test_index_matrix_is_computed_once_and_read_only(lattices):
    lat = lattices["p2q(5)"]
    index = lat.index_matrix
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 2
    for p in (2, 3, 5, 7):
        for kind in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
            build_graph(lat, p, kind)
            assert lat.index_matrix is index


@pytest.mark.parametrize("name", sorted(SPECS))
def test_index_matrix_matches_intersections(lattices, name):
    lat = lattices[name]
    expected = [[A.order // (A.members & B.members).bit_count()
                 for B in lat.subgroups] for A in lat.subgroups]
    assert lat.index_matrix.tolist() == expected


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_p_power_lookup_matches_p_power_exponent(p):
    """Order 96 = 2^5 * 3: 5 does not divide it and 97 exceeds it."""
    lookup = _p_power_lookup(96, p)
    assert len(lookup) == 97 and lookup.dtype == np.int8
    for k in range(1, 97):
        e = p_power_exponent(k, p)
        assert lookup[k] == (-1 if e is None else e)


@pytest.mark.parametrize("p", [5, 97])
@pytest.mark.parametrize("kind", [KIND_COMMENSURABILITY, KIND_CONTAINMENT])
def test_primes_off_the_order_give_no_edges(lattices, p, kind):
    """Only index 1 is a power of p: exponents is 0 exactly where L[i] is
    contained in L[j], and -1 everywhere else."""
    lat = lattices["S4xV4"]
    graph = build_graph(lat, p, kind)
    assert graph.edge_count == 0
    contained = [[A.members & B.members == A.members for B in lat.subgroups]
                 for A in lat.subgroups]
    assert (graph.exponents == 0).tolist() == contained
    assert ((graph.exponents == 0) | (graph.exponents == -1)).all()


def _dense_route(lat, p: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The exponent matrix of every pair and the adjacency read off it and
    its transpose: the per-graph route that the pair codes replaced."""
    E = _p_power_lookup(lat.parent.order, p).take(lat.index_matrix)
    adj = (E >= 0) & (E.T >= 0)
    if kind == KIND_CONTAINMENT:
        adj &= (E == 0) | (E.T == 0)
    np.fill_diagonal(adj, False)
    return E, adj


@pytest.mark.parametrize("name", ["sym(4)", "p2q(5)"])
def test_pair_codes_match_member_masks(lattices, name):
    """Bit k is set iff the k-th prime of the order divides either index of
    the pair, the top bit iff neither subgroup contains the other, and no
    other bit is set."""
    lat = lattices[name]
    primes = [q for q, _ in lat.parent.order_factorization]
    expected = []
    for A in lat.subgroups:
        row = []
        for B in lat.subgroups:
            inter = A.members & B.members
            indices = (A.order // inter.bit_count(), B.order // inter.bit_count())
            code = sum(1 << k for k, q in enumerate(primes)
                       if any(index % q == 0 for index in indices))
            if inter not in (A.members, B.members):
                code |= 0x80
            row.append(code)
        expected.append(row)
    codes = lat.pair_codes
    assert codes.dtype == np.uint8 and not codes.flags.writeable
    assert codes.tolist() == expected


@pytest.mark.parametrize("name", sorted(GATE_SPECS))
@pytest.mark.parametrize("kind", [KIND_COMMENSURABILITY, KIND_CONTAINMENT])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_masked_codes_match_dense_exponent_route(lattices, name, kind, p):
    """The masked compare gives the dense route's adjacency, edge_data
    gives the exponent pairs of the dense matrix at every edge, and no
    graph fills its exponent matrix until it is read."""
    lat = lattices[name]
    E, adj = _dense_route(lat, p, kind)
    graph = build_graph(lat, p, kind)
    assert graph.adj.dtype == bool and not graph.adj.flags.writeable
    assert np.array_equal(graph.adj, adj)
    i, j = np.nonzero(np.triu(adj, 1))
    expected = {(a, b): (int(E[a, b]), int(E[b, a]))
                for a, b in zip(i.tolist(), j.tolist())}
    components_and_diameters(graph)
    edges = graph.edge_data
    assert edges == expected and list(edges) == list(expected)
    assert "exponents" not in vars(graph)
    assert np.array_equal(graph.exponents, E)
    assert not graph.exponents.flags.writeable
    assert vars(graph)["exponents"] is graph.exponents


class _Unreadable:
    """Stands in for a lattice's index matrix: any use of it raises."""

    def __getattr__(self, name):
        raise AssertionError(f"the index matrix was read ({name})")


def test_build_graph_reads_only_the_pair_codes(lattices, monkeypatch):
    """With the index matrix unreadable and no table of p-powers to be
    had, every graph still comes out as the dense route's: build_graph
    makes no lookup or transpose of the index matrix per graph.  The pair
    codes are computed once per lattice and kept."""
    lat = lattices["S4xV4"]
    codes = lat.pair_codes
    bare = Lattice(lat.parent, lat.subgroups, lat.index_of_members)
    vars(bare)["pair_codes"] = codes
    vars(bare)["index_matrix"] = _Unreadable()

    def no_lookup(n, p):
        raise AssertionError("a p-power table was built")

    monkeypatch.setattr(graphs, "_p_power_lookup", no_lookup)
    for p in (2, 3, 5, 7):
        for kind in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
            graph = build_graph(bare, p, kind)
            assert np.array_equal(graph.adj, _dense_route(lat, p, kind)[1])
            components_and_diameters(graph)
            assert "exponents" not in vars(graph)
    assert lat.pair_codes is codes and bare.pair_codes is codes
    with pytest.raises(AssertionError, match="p-power table"):
        graph.edge_data
