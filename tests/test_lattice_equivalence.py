"""Equivalence gate for lattice enumeration above the brute-force oracle's
reach (order 100).

Every count and digest below was recorded with the fixpoint enumerator that
cyclic extension replaced, so these cases pin the canonical lattice of each
group to what that enumerator produced.  The members digest is the sha256
of each subgroup's member mask in canonical order, one hex line each, the
same digest ``perfbench/reference.json`` records for its lattice ladder;
the witnesses digest covers each subgroup's witness tuple likewise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from commgraph import (
    bs,
    build_group_from_table,
    construct,
    cyclic,
    direct,
    enumerate_subgroups,
    p2q,
    spec_name,
    sym,
)
from commgraph.groups import _closure_list
from commgraph.verify import default_corpus

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
]

LADDER = ("sym(5)", "p2q(7)", "direct(sym(4),sym(3))", "direct(sym(5),cyclic(2))")


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("spec,count,members,witnesses", RECORDED,
                         ids=[spec_name(r[0]) for r in RECORDED])
def test_lattice_matches_recorded(spec, count, members, witnesses, built_group):
    lat = enumerate_subgroups(built_group(spec).table)
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
    mask, _ = _closure_list(table.mult, table.generators)
    assert mask == (1 << table.order) - 1


def test_generators_generate_a_table_group():
    table = build_group_from_table(construct(sym(4)).mult)
    mask, _ = _closure_list(table.mult, table.generators)
    assert mask == (1 << table.order) - 1
