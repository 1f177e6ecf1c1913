"""Equivalence gate for lattice enumeration above the brute-force oracle's
reach (order 100), and exact certificates for bs(cyclic(3)).

The first seven counts and digests below were recorded with the fixpoint
enumerator that cyclic extension replaced; the next three, p2q(13),
direct(sym(4),sym(4)) and bs(cyclic(3)), with cyclic extension before its
restriction to normal extensions; and direct(sym(5),sym(3)) with the
restricted enumerator that still closed every non-normalizing extension
in a non-solvable group, before closures were confined to the solvable
residuum.  p2q(17), the largest table under the default order cap, and
abelian([2,2,2,2,2,2]) were recorded with the enumerator that tried
every zuppo at every subgroup, before the prime-index cover.  These
cases pin the canonical lattice of each group to what those enumerators
produced.  The members digest is the sha256 of each subgroup's member
mask in canonical order, one hex line each, the same digest ``perfbench/reference.json`` records for its lattice
ladder; the witnesses digest covers each subgroup's witness tuple
likewise.

The certificates pin exact graph values of bs(cyclic(3)) = C3^4 ⋊ sym(4)
at p = 3, the paper's coordinate-product step, over the pinned lattice.
Its 2-commensurability graph, with 580 components, pins the component
reports where most components are small; that digest was recorded with
the breadth-first search over the whole adjacency matrix that the
component-blocked search replaced.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    abelian,
    all_geodesics,
    bs,
    build_graph,
    build_group_from_table,
    components_and_diameters,
    construct,
    cyclic,
    direct,
    enumerate_subgroups,
    p2q,
    spec_name,
    subgroup_closure,
    sym,
)
from commgraph import cli
from commgraph.groups import perm_from_cycles
from commgraph.verify import default_corpus
from lattice_oracle import closure_mask

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# (spec, subgroups, members digest, witnesses digest)
RECORDED = [
    (sym(5), 156,
     "7761949329a871240f8679857279b3893bfc208db9c25dc127500e8a0c97a798",
     "27461a4062d31c6800f0755b6603462ce2e23b3e674c26068fb4962670e05bad"),
    (p2q(7), 216,
     "ea1474de8170f71f2e6af8ee344eef3f6bffb33c6141dc79938a25a77c8955c6",
     "dc9263313ef5fcc64de31ca6a012f31284d4e8a1ac792e96b0dd41954cf02b69"),
    (direct([sym(4), sym(3)]), 372,
     "fc1029f774657d352d7bdbd5619e71fdaddc5619eea8fd30c68d9e4d0196baf7",
     "9e9612571a26a6b26558806f32aaef72fcd2800c0cc3f17e43b91c34df18ebca"),
    (direct([sym(5), cyclic(2)]), 535,
     "b923bbf55837789872c6c62acd9acc403700a4d71132ec9c8a03d58f4ba1251e",
     "991a0c919797ef2801b7098ab50014d74b94de308ba4ecf35b66b2a5a2c845e9"),
    (sym(6), 1455,
     "f614746c9bf365b0f5357eb64315c5df114af4cc8b23ed0b5cfda8b1d83ef01a",
     "8751f5595758a303f5d34919fb2d248f32c9a209bbc2f90d5e0c5bb514ee2524"),
    (p2q(11), 440,
     "6a3cf00964c8f76f8d423682178a54318773c34971e7ca34387b2a45f5858e4d",
     "7fe10f17739a4040752f5af58d21af8a072d3475185d59c8873ec078055e9e11"),
    (bs(cyclic(2)), 1659,
     "e630762a6ea7c33158b5242044fa1364e479e5fe6327d9f57680295e4f46c462",
     "09dbc22f4acbf9a195d8f779465ae4e048c5d83be914b183862c5406feaed90a"),
    (p2q(13), 1188,
     "fe1c43e72790b8e8b39aeeccbf679a9172216b46af5aef4672fc7ec8e6c35808",
     "8de9686ad887987029854a32b1cc4e00cc4a329f2194aaba96888f2e71863dc4"),
    (direct([sym(4), sym(4)]), 2976,
     "7ce96a8d49ac1ee5f3b1f1579637ba0b2b09eaa167d13f50fa03cdfc7c2ff3c9",
     "e41e1ddba2c1f8eaa706fd4d12017046ed331cc814e229f019539abb203ff781"),
    (bs(cyclic(3)), 3104,
     "ad9346f0752e190da14c9caecd69d77f3bef984344df2d12686b94274f3a3f65",
     "2438feeadad8f139a94b74d08356e77ffef7eeebfe6f4b28044589ff6a7b24d6"),
    (direct([sym(5), sym(3)]), 2088,
     "21724fdec9fa45ba26aec6304f8f55a2df8374f85920d7726b9905a20de89bb1",
     "e6a5e2f848a1f7bd9429b511a2e11b26af7a97f86d0db39c38cf3f6c8aa23cae"),
    (p2q(17), 1414,
     "7cc26bde6d0925b90014d96676aa828d983df3db44116225914e11ae9361c46e",
     "ee6c43bdafc6aa6d418083eabdba17514bbe31ef46e0fdeb23cc1abc1c2d544b"),
    (abelian([2, 2, 2, 2, 2, 2]), 2825,
     "a587ca9f7eed117f579573a2a991759d511a3caf5e4372c623b5cfc34eb23200",
     "6e6d8825493e19a0a43254fc70c5c439c1feff5c2c99823ed95e2296e3891a68"),
]

LADDER = ("sym(5)", "p2q(7)", "direct(sym(4),sym(3))", "direct(sym(5),cyclic(2))")


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def lattice_of(built_group):
    """Each spec's lattice, enumerated once for the module, so that the
    bs(cyclic(3)) certificates run over the lattice pinned here."""
    return functools.cache(
        lambda spec: enumerate_subgroups(built_group(spec).table))


@pytest.mark.parametrize("spec,count,members,witnesses", RECORDED,
                         ids=[spec_name(r[0]) for r in RECORDED])
def test_lattice_matches_recorded(spec, count, members, witnesses, lattice_of):
    lat = lattice_of(spec)
    assert len(lat) == count
    assert _sha256(format(s.members, "x") for s in lat.subgroups) == members
    assert _sha256(repr(s.witnesses) for s in lat.subgroups) == witnesses


def test_ladder_digests_match_benchmark_reference():
    ladder = json.loads(REFERENCE.read_text(encoding="utf-8"))["lattice_ladder"]
    recorded = {spec_name(spec): (count, members)
                for spec, count, members, _ in RECORDED}
    assert sorted(ladder) == sorted(LADDER)
    for name in LADDER:
        assert recorded[name] == (ladder[name]["subgroups"],
                                  ladder[name]["lattice_sha256"])


def _generator_cases():
    specs = [m.spec for m in default_corpus()]
    specs += [spec for spec, *_ in RECORDED if spec not in specs]
    specs.append(cyclic(1))
    return [pytest.param(spec, id=spec_name(spec)) for spec in specs]


@pytest.mark.parametrize("spec", _generator_cases())
def test_generators_generate_the_group(spec, built_group):
    """enumerate_subgroups takes a subgroup's orbit under conjugation by
    G.generators as its whole conjugacy class, which holds only when they
    generate G."""
    table = built_group(spec).table
    mask = closure_mask(table.mult, table.generators)
    assert mask == (1 << table.order) - 1


def test_generators_generate_a_table_group():
    table = build_group_from_table(construct(sym(4)).mult)
    mask = closure_mask(table.mult, table.generators)
    assert mask == (1 << table.order) - 1


BS3 = bs(cyclic(3))
# the report of a 3-containment graph with connected diameter 4
BS3_ANALYZE_SHA256 = \
    "afbfdd93cdea7aebf59e62a06a6eba444cafee84d4b30f218c87a8c1542cfd7e"
# the report of the 2-commensurability graph: 580 components, diameter 4
BS3_P2_ANALYZE_SHA256 = \
    "3519afcf30874afc0cdb6ff164ce74164b4448f0187e557b8648ff527da29a90"


@pytest.fixture(scope="module")
def bs3_analyze(tmp_path_factory, lattice_of) -> str:
    """`analyze '{"bs": {"cyclic": 3}}' -p 3 --kind cont --json PATH`, with
    the CLI's enumerator returning the pinned lattice rather than
    enumerating it a second time."""
    path = tmp_path_factory.mktemp("bs3") / "analyze.json"
    pinned = lattice_of(BS3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "enumerate_subgroups", lambda table: pinned)
        assert cli.main(["analyze", '{"bs": {"cyclic": 3}}', "-p", "3",
                         "--kind", "cont", "--json", str(path)]) == cli.EXIT_OK
    return path.read_text(encoding="utf-8")


def _lifted_path_ends(built_group, lat) -> tuple[int, int]:
    """Lattice indices of the ends of the construction suite's lifted
    containment path for H = cyclic(3): C3 in coordinates 3 and 4 with the
    transposition (1 2), and C3 in coordinates 1 and 2 with (3 4)."""
    built = built_group(BS3)
    identity = (0, 1, 2, 3)

    def vertex(coordinates, transposition):
        gens = [built.index[(tuple(int(t == i) for t in range(4)), identity)]
                for i in coordinates]
        gens.append(built.index[((0, 0, 0, 0),
                                 perm_from_cycles(4, [transposition]))])
        return lat.index_of_members[subgroup_closure(built.table, gens).members]

    return vertex((2, 3), (1, 2)), vertex((0, 1), (3, 4))


def test_bs3_analyze_report_digest(bs3_analyze):
    h = hashlib.sha256(bs3_analyze.encode()).hexdigest()
    assert h == BS3_ANALYZE_SHA256


def test_bs3_containment_certificates(bs3_analyze, lattice_of, built_group):
    """The lifted path's ends lie at distance exactly 4 in a component of
    912 vertices and diameter 4 of the 3-containment graph of
    bs(cyclic(3)), whose connected diameter the report digest pins at 4:
    one construction step takes the containment diameter of cyclic(3), 1,
    to 4."""
    lat = lattice_of(BS3)
    assert len(lat) == 3104
    graph = build_graph(lat, 3, KIND_CONTAINMENT)
    assert graph.edge_count == 28258
    a, b = _lifted_path_ends(built_group, lat)
    assert len(all_geodesics(graph, a, b)[0]) - 1 == 4
    (component,) = [c for c in json.loads(bs3_analyze)["components"]
                    if a in c["vertices"]]
    assert b in component["vertices"]
    assert (len(component["vertices"]), component["diameter"]) == (912, 4)


def test_bs3_commensurability_connected_diameter(lattice_of):
    graph = build_graph(lattice_of(BS3), 3, KIND_COMMENSURABILITY)
    assert components_and_diameters(graph)[1] == 3


def test_bs3_commensurability_p2_components(lattice_of):
    graph = build_graph(lattice_of(BS3), 2, KIND_COMMENSURABILITY)
    reports, connected = components_and_diameters(graph)
    assert (graph.edge_count, len(reports), connected) == (87452, 580, 4)
    text = "".join(cli._json_pieces(cli.analyze_doc(BS3, graph)))
    assert hashlib.sha256(text.encode()).hexdigest() == BS3_P2_ANALYZE_SHA256
