"""Spec parsing and the group family builders."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from commgraph import (
    InvalidGenerator,
    InvalidSpec,
    OrderCapExceeded,
    SpecSyntaxError,
    abelian,
    bs,
    build_group_from_permutations,
    build_group_from_table,
    construct,
    construct_detailed,
    cyclic,
    derived_series,
    dihedral,
    direct,
    full_subgroup,
    is_normal,
    p2q,
    parse_group_spec,
    spec_from_doc,
    spec_name,
    spec_to_doc,
    subgroup_closure,
    sym,
)
from commgraph import constructions, groups
from commgraph.constructions import _order
from commgraph.groups import perm_from_cycles


def test_parse_examples():
    assert parse_group_spec('{"sym": 4}') == sym(4)
    assert parse_group_spec('{"bs": {"cyclic": 3}}') == bs(cyclic(3))
    spec = parse_group_spec('{"direct": [{"cyclic": 2}, {"cyclic": 2}]}')
    assert spec == direct([cyclic(2), cyclic(2)])
    assert construct(spec).order == 4


def test_parse_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_group_spec('{"sym": }')
    assert err.value.position >= 0


@pytest.mark.parametrize("text", [
    '{"sym": 4, "cyclic": 2}',
    '{"what": 3}',
    '{"sym": 0}',
    '{"sym": true}',
    '{"p2q": 4}',
    # too large for is_prime to decide
    '{"p2q": 3317044064679887385961981}',
    '{"abelian": []}',
    '{"abelian": [2, 0]}',
    '{"direct": []}',
    '"sym"',
])
def test_parse_rejects_invalid_specs(text):
    with pytest.raises(InvalidSpec):
        parse_group_spec(text)


def test_spec_doc_roundtrip():
    specs = [sym(4), cyclic(7), dihedral(5), abelian([2, 4]),
             direct([sym(3), cyclic(2)]), p2q(5), bs(cyclic(3))]
    for spec in specs:
        assert spec_from_doc(spec_to_doc(spec)) == spec


def test_spec_names():
    assert spec_name(sym(4)) == "sym(4)"
    assert spec_name(abelian([2, 4])) == "abelian(2x4)"
    assert spec_name(direct([sym(3), cyclic(2)])) == "direct(sym(3),cyclic(2))"
    assert spec_name(bs(cyclic(3))) == "bs(cyclic(3))"


def test_nesting_depth_guard():
    deep = bs(direct([direct([direct([cyclic(1)])])]))
    with pytest.raises(InvalidSpec):
        construct(deep)
    # the document form is rejected while it is parsed
    with pytest.raises(InvalidSpec):
        spec_from_doc(spec_to_doc(deep))
    # specs built in Python may nest far deeper than the recursion limit
    for wrap in (bs, lambda s: direct([s])):
        for levels in (600, 3000):
            deep = cyclic(2)
            for _ in range(levels):
                deep = wrap(deep)
            with pytest.raises(InvalidSpec):
                construct(deep)


@pytest.mark.parametrize("spec,reason", [
    (p2q(4), "p2q modulus 4 must be prime"),
    (p2q(9), "p2q modulus 9 must be prime"),
    (p2q(1), "p2q modulus 1 must be prime"),
    (p2q(0), "p2q takes a positive integer"),
    (cyclic(0), "cyclic takes a positive integer"),
    (dihedral(0), "dihedral takes a positive integer"),
    (sym(-1), "sym takes a positive integer"),
    (cyclic(True), "cyclic takes a positive integer"),
    (abelian([0]), "abelian takes a non-empty list of positive integers"),
    (abelian([2, 0]), "abelian takes a non-empty list of positive integers"),
    (abelian([2.5, True]), "abelian takes a non-empty list of positive integers"),
    (abelian([True]), "abelian takes a non-empty list of positive integers"),
    (direct([cyclic(2), cyclic(0)]), "cyclic takes a positive integer"),
    (bs(p2q(4)), "p2q modulus 4 must be prime"),
], ids=lambda v: spec_name(v) if not isinstance(v, str) else None)
def test_construct_rejects_degenerate_specs(spec, reason):
    """A spec that names no group is an InvalidSpec with the reason that
    spec_from_doc gives, raised before any table is built: p2q(4) and
    p2q(9) used to loop forever looking for a primitive root, and the
    others crashed inside their builders."""
    with pytest.raises(InvalidSpec, match=f"^{reason}$"):
        construct(spec)


@pytest.mark.parametrize("spec", [3, direct([3]), bs(3),
                                  direct([cyclic(2), "sym(3)"])],
                         ids=["int", "direct-int", "bs-int", "direct-str"])
def test_construct_rejects_nodes_that_are_not_specs(spec):
    """A node that is not a GroupSpec is an InvalidSpec, not an
    AttributeError from reading its kind."""
    with pytest.raises(InvalidSpec,
                       match="^a spec node must be a GroupSpec, not (int|str)$"):
        construct(spec)


def test_abelian_keeps_its_factors():
    """abelian() keeps its factors as given, so a float or a bool is
    rejected rather than truncated: abelian([2.5, True]) used to build
    abelian(2x1), of order 2.  A numpy integer is an integer."""
    assert abelian([2.5, True]).factors == (2.5, True)
    assert construct(abelian([np.int64(3)])).order == 3


def test_spec_doc_of_numpy_integers_is_plain_json():
    """A spec built with numpy integers gives the same JSON document as one
    built with Python ints: cyclic(np.int64(3)) used to give a document
    that ``json.dumps`` refused."""
    spec = direct([cyclic(np.int64(3)), abelian([np.int32(2), 4])])
    assert json.dumps(spec_to_doc(spec)) \
        == json.dumps(spec_to_doc(direct([cyclic(3), abelian([2, 4])])))
    with pytest.raises(TypeError):
        spec_to_doc(abelian([2.5]))


CONSTRUCTED_ORDERS = [
    (cyclic(1), 1),
    (sym(1), 1),
    (sym(3), 6),
    (sym(4), 24),
    (dihedral(1), 2),
    (dihedral(4), 8),
    (abelian([2, 2]), 4),
    (abelian([3, 3]), 9),
    (direct([sym(3), cyclic(2)]), 12),
    (p2q(2), 2),
    (p2q(3), 12),
    (p2q(5), 80),
    (p2q(7), 252),
    (bs(cyclic(1)), 24),
    (bs(cyclic(3)), 1944),
    (abelian([2, 4]), 8),
    (abelian([4, 1, 2]), 8),
    # the Python API's empty specs, which the document form rejects
    (sym(0), 1),
    (abelian([]), 1),
    (direct([]), 1),
]


@pytest.mark.parametrize("spec,order", CONSTRUCTED_ORDERS)
def test_constructed_orders(spec, order, built_group):
    assert _order(spec, math.inf) == order
    table = built_group(spec).table
    assert table.order == order
    if spec in TABLE_SHA256:
        doc = [[list(r) for r in table.mult], table.labels,
               list(table.generators)]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == TABLE_SHA256[spec]


# sha256 of the JSON list [mult, labels, generators], recorded when abelian
# groups had a builder of their own; they are now built as direct products
# of cyclic groups, with the same tables
TABLE_SHA256 = {
    abelian([2, 4]):
        "1d99483ad4564dfc7f21e3fbda36a6147716f826726caebddda3516bad9248de",
    abelian([3, 3]):
        "19c02774da87cf2307e1c33e31760e33860b61eac92b90ce1f1f2f7159d763fb",
    abelian([4, 1, 2]):
        "1c96334377c2c9d965cf2aebf9b7094a09be3cfd370b590df6b1b95240105d46",
}


def _entries_digest(table):
    h = hashlib.sha256()
    for part in (table.mult, table.inv, list(table.generators)):
        h.update(np.asarray(part, np.int32).tobytes())
    return h.hexdigest()


# sha256 of mult, inv and generators, each as int32 bytes in that order, for
# tables above order 256, where entries are no longer Python's cached small
# ints; the first three recorded at commit 0e63d89, while tables were still
# assembled as int32 arrays and kept by ndarray.tolist(), the last two at
# commit 6aa336a, while the product families still composed element by
# element and every non-generator column was filled one at a time
ENTRIES_SHA256 = {
    bs(cyclic(2)):
        "83dd4771e67e68c60b51959de58ec3606bb8b34f7ce942d8a3301bb4a5075bea",
    sym(6):
        "2579dd9bc780677f0dc40bc2dca9c45b1e71fac0e83a86fc148a8a31eba449b2",
    bs(cyclic(3)):
        "1dd0f32bfc59feef7fee332d490036154a03d71f2c7eb7dc3f1c7068989cada7",
    p2q(17):
        "181d47957d74703207b1ef1c98fcf966c06ec4f39ee5be450c9701e4077a87ed",
    direct([sym(5), sym(3)]):
        "5cc6e566cffa2e4c09604b9ba273d85aeb8ce2deb7afcf765cd76e08d831f054",
}


@pytest.mark.parametrize("spec", list(ENTRIES_SHA256), ids=spec_name)
def test_large_table_entries_pinned(spec, built_group):
    assert _entries_digest(built_group(spec).table) == ENTRIES_SHA256[spec]


# sha256 of the JSON list [labels, elements] of construct_detailed, recorded
# at commit 6aa336a, while the product families still composed their
# element reps one product at a time
REPS_SHA256 = {
    bs(cyclic(2)):
        "b880a77238efb2475f48e1fd005a21817028eca3896a502eebbdd40deb2f5ffe",
    bs(cyclic(3)):
        "28324d6b98bddf035a056670eefffbeeeb1a0db66c99a7c18f38e0670ab59347",
    direct([sym(4), sym(3)]):
        "5f1d9d14be5d18b2f584488d3906df0f9e11e10be63bc3aef5485e6142e0ce81",
    direct([sym(4), abelian([2, 2])]):
        "ee541ddce567562d3f0cd7ad67a8fa279c2079aaade2ed61ebd2e29db028d713",
    abelian([2, 2, 2, 2, 2]):
        "4841b807d6d2522025b554e6bfb36db27b5f8accf30ade64cf9ab440c89f421a",
}


@pytest.mark.parametrize("spec", list(REPS_SHA256), ids=spec_name)
def test_product_reps_and_labels_pinned(spec, built_group):
    built = built_group(spec)
    doc = [built.table.labels, built.elements]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == REPS_SHA256[spec]
    assert len(built.index) == len(built.elements) == built.table.order
    assert all(built.index[rep] == i for i, rep in enumerate(built.elements))


def _right_product_closure(tbl, gens):
    """Ids reached from the identity by right products with gens, read
    entry by entry from the table."""
    seen, todo = {0}, [0]
    for x in todo:  # also visits the ids appended below
        for g in gens:
            y = int(tbl[x, g])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@pytest.fixture
def proof_calls(monkeypatch):
    """Every (table, generators, outside) triple handed to the proof that
    a table is a group while the fixture is active."""
    calls = []
    prove = groups._prove_group

    def recording(tbl, gens, outside):
        calls.append((tbl, list(gens), outside))
        prove(tbl, gens, outside)

    monkeypatch.setattr(groups, "_prove_group", recording)
    return calls


@pytest.mark.parametrize("spec,order", CONSTRUCTED_ORDERS)
def test_associativity_subset_reaches_every_id(spec, order, proof_calls):
    """The Schreier proof needs every row to be a product of its
    generators' rows; a built table meets that by its tree of right
    products, so the builders hand the proof all their BFS generators,
    whose right products reach every id, for the table itself and for
    each factor it is built from."""
    table = construct(spec)
    assert proof_calls[-1][0] is table.array
    for tbl, gens, outside in proof_calls:
        assert not outside
        assert gens == list(range(1, len(gens) + 1))
        assert _right_product_closure(tbl, gens) == set(range(len(tbl)))


def test_bs_associativity_subset(proof_calls, conjugating_generators):
    """bs(cyclic(3)) is proven over all 6 of its BFS generators, ids 1 to
    6, while its conjugations are still those by the 3 generators that
    ``_greedy_witnesses`` keeps from last to first: (1 2 3 4), (1 2) and
    the slot-3 generator."""
    built = construct_detailed(bs(cyclic(3)))
    assert built.table.generators == (1, 2, 3, 4, 5, 6)
    assert proof_calls[-1][1:] == ([1, 2, 3, 4, 5, 6], False)
    owners = conjugating_generators(built.table)
    assert [built.elements[g] for g in owners] == [
        ((0, 0, 0, 0), perm_from_cycles(4, [(1, 2, 3, 4)])),
        ((0, 0, 0, 0), perm_from_cycles(4, [(1, 2)])),
        ((0, 0, 0, 1), (0, 1, 2, 3)),
    ]


def test_associativity_subset_catches_swapped_pair():
    """A bs(cyclic(2)) table with two entries of one row swapped, outside
    every generator column, passes validation but is no group: given
    from outside, it fails the proof."""
    table = construct(bs(cyclic(2)))
    outside = [c for c in range(1, table.order) if c not in table.generators]
    for r in (7, table.order - 1):
        bad = table.array.copy()
        a, b = [c for c in outside if bad[r, c] != 0][:2]
        bad[r, a], bad[r, b] = bad[r, b], bad[r, a]
        groups._validate_table(bad)
        with pytest.raises(InvalidGenerator, match="associativity"):
            build_group_from_table(bad)


def _tree_edges(table):
    """(y, x, g) for each id y > 0 and its BFS tree edge y = x*g, replayed
    by right products over the table's generators; the replay also checks
    that ids follow that BFS."""
    mult, edges, todo = table.mult, [], [0]
    for x in todo:  # also visits the ids appended below
        for g in table.generators:
            y = mult[x][g]
            if y == len(todo):
                edges.append((y, x, g))
                todo.append(y)
            else:
                assert y < len(todo), "ids do not follow the BFS"
    assert len(todo) == table.order
    return edges


@pytest.mark.parametrize("spec", [spec for spec, _ in CONSTRUCTED_ORDERS] + [
    bs(cyclic(3)), p2q(13), p2q(17), sym(6), direct([sym(4), sym(4)])],
    ids=spec_name)
def test_built_rows_compose_along_the_tree(spec, built_group):
    """The invariant the Schreier proof relies on for a built table, which
    it does not check at run time: every row y > 0 is the row of its tree
    parent x composed with the row of the generator g of its edge,
    T[y] == T[x][T[g]], on every entry."""
    table = built_group(spec).table
    tbl = table.array
    for y, x, g in _tree_edges(table):
        assert np.array_equal(tbl[y], tbl[x][tbl[g]])


def test_schreier_proof_rejects_a_non_regular_action(monkeypatch):
    """S5 on 5 points: BFS over two generators' right action reaches 5
    points, and the table assembled from it passes validation, its
    generators' rows are permutations, and every row is a product of
    them; but S5 does not act regularly, so the Schreier check fails.
    Given from outside, the table passes the check of its rows against
    the tree of right products as well, and fails the same way."""
    maps = {1: [1, 3, 4, 2, 0], 2: [2, 4, 3, 0, 1]}
    prove, seen = groups._prove_group, []

    def recording(tbl, gens, outside):
        seen.append(tbl)
        for g in gens:
            assert sorted(tbl[g].tolist()) == list(range(len(tbl)))
        groups._check_rows(tbl, gens)
        prove(tbl, gens, outside)

    monkeypatch.setattr(groups, "_prove_group", recording)
    with pytest.raises(InvalidGenerator,
                       match="^associativity fails at generator 1$"):
        groups._assemble_table(0, [1, 2], lambda x, g: maps[g][x], str, 10)
    assert len(seen) == 1 and len(seen[0]) == 5
    with pytest.raises(InvalidGenerator,
                       match="^associativity fails at generator 1$"):
        build_group_from_table(seen[0].tolist())
    assert len(seen) == 2


@pytest.mark.parametrize("spec", [sym(4), p2q(5), bs(cyclic(2)),
                                  direct([sym(4), abelian([2, 2])])],
                         ids=spec_name)
def test_table_fields_match_scalar_definitions(spec, built_group,
                                               conjugating_generators):
    """element_orders and conjugations, gathered over the whole array,
    equal the walk x, x^2, ... to the identity and g*x*g^-1 from mult,
    each conjugation for a distinct non-central generator g."""
    table = built_group(spec).table
    mult, inv = table.mult, table.inv
    orders = []
    for x in range(table.order):
        y, k = x, 1
        while y != 0:
            y, k = mult[y][x], k + 1
        orders.append(k)
    assert table.element_orders == orders
    assert all(type(k) is int for k in table.element_orders)
    owners = conjugating_generators(table)
    assert len(owners) == len(table.conjugations)
    for g, conj in zip(owners, table.conjugations):
        assert conj == [mult[mult[g][x]][inv[g]] for x in range(table.order)]


def test_builds_load_no_new_numpy_module():
    """The first call of some numpy functions (np.unique among them)
    imports a numpy submodule, which costs milliseconds and RSS in every
    fresh process; no table build may do that."""
    code = (
        "import sys\n"
        "import commgraph\n"
        "from commgraph import abelian, bs, construct, cyclic, direct, sym\n"
        "before = {m for m in sys.modules if m.startswith('numpy')}\n"
        "construct(direct([sym(4), abelian([2, 2])]))\n"
        "construct(bs(cyclic(2)))\n"
        "after = {m for m in sys.modules if m.startswith('numpy')}\n"
        "print(sorted(after - before))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def _assert_read_only_int_rows(table):
    """Every row of mult has n entries, each a plain int, so no numpy
    scalar reaches the scalar loops, and no entry can be written."""
    mult = table.mult
    assert len(mult) == table.order
    assert all(len(row) == table.order for row in mult)
    assert all(type(x) is int for row in mult for x in row)
    with pytest.raises(TypeError):
        mult[1][1] = 0


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_table_rows_are_read_only_ints(dtype):
    table = construct(bs(cyclic(2)))
    _assert_read_only_int_rows(table)
    rows = np.array(table.mult, dtype=dtype)
    for mult in (table.mult, rows, [memoryview(r) for r in rows]):
        rebuilt = build_group_from_table(mult)
        _assert_read_only_int_rows(rebuilt)
        assert [list(r) for r in rebuilt.mult] == rows.tolist()
        assert rebuilt.inv == table.inv
        assert rebuilt.element_orders == table.element_orders


def test_order_1944_table_memory():
    """The order-1944 table holds 3.8 M entries; as one int object each they
    took 144.6 MB at peak to build, as rows sharing n ints about 37 MB, as
    one read-only int16 array checked in row blocks by Light's test about
    12 MB, and proven by Schreier's lemma, which reads only generator
    rows and columns, about 9 MB."""
    tracemalloc.start()
    try:
        table = construct(bs(cyclic(3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.order == 1944
    assert peak < 16 * 2**20


def test_direct_order_multiplies():
    for a, b in [(cyclic(4), sym(3)), (dihedral(3), cyclic(5))]:
        assert (construct(direct([a, b])).order
                == construct(a).order * construct(b).order)
    empty = construct_detailed(direct([]))  # the empty product is trivial
    assert (empty.elements, empty.table.labels) == ([()], ["()"])


def test_direct_builds_each_distinct_factor_once(monkeypatch):
    calls = []
    real = constructions.construct_detailed

    def counted(spec, order_cap=None):
        calls.append(spec)
        return real(spec, order_cap)

    monkeypatch.setattr(constructions, "construct_detailed", counted)
    table = real(abelian([2, 2, 3, 2, 3])).table
    assert calls == [cyclic(2), cyclic(3)]
    assert table.order == 72
    assert construct_detailed(direct([sym(3), sym(3)])) is not \
        construct_detailed(direct([sym(3), sym(3)]))


def test_order_cap_blocks_prediction():
    with pytest.raises(OrderCapExceeded):
        construct(sym(4), order_cap=20)
    with pytest.raises(OrderCapExceeded):
        construct(bs(sym(4)))  # 24^5 blows the default cap
    with pytest.raises(OrderCapExceeded, match=r"^sym\(1600\) .* cap 5000$"):
        construct(sym(1600))  # 1600! has more digits than str() will write
    # the cap test stops early; the prediction itself stays exact
    assert _order(sym(1600), math.inf) == math.factorial(1600)
    assert _order(bs(sym(400)), math.inf) == 24 * math.factorial(400) ** 4
    for cap in (0, -5):  # no group meets such a cap: the cap is invalid
        with pytest.raises(ValueError, match="order cap must be at least 1"):
            construct_detailed(sym(1), order_cap=cap)


def test_construction_is_deterministic():
    a = build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]])
    b = build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]])
    assert a.mult == b.mult
    assert a.labels == b.labels
    assert a.inv == b.inv


def test_dihedral_structure():
    d6 = construct(dihedral(6))
    assert d6.order == 12
    series = derived_series(d6)
    assert tuple(t.order for t in series) == (12, 3, 1)


def test_p2q_matches_matrix_realization():
    built = construct_detailed(p2q(3))
    assert built.table.labels[0] == "(1,0,1)"
    # every element is an invertible upper-triangular matrix triple
    for a, b, d in built.elements:
        assert a in (1, 2) and d in (1, 2) and 0 <= b < 3


def test_p2q_subgroup_dichotomy(corpus_lattice):
    """Every subgroup either contains the full unipotent part or has order
    coprime to q."""
    for q in (3, 5, 7):
        lat = corpus_lattice(p2q(q))
        table = lat.parent
        unipotent = subgroup_closure(table, [table.labels.index("(1,1,1)")])
        assert unipotent.order == q
        for sub in lat.subgroups:
            assert (unipotent.members & sub.members == unipotent.members
                    or sub.order % q != 0)


def test_bs_contains_normal_coordinate_product(built_group):
    built = built_group(bs(cyclic(3)))
    table = built.table
    assert table.order == 1944
    delta_gens = [built.index[(tuple(1 if i == s else 0 for i in range(4)),
                               (0, 1, 2, 3))] for s in range(4)]
    delta = subgroup_closure(table, delta_gens)
    assert delta.order == 81
    assert is_normal(delta, full_subgroup(table))
    assert table.order // delta.order == 24


def test_bs_coordinate_action_swaps_slots():
    built = construct_detailed(bs(cyclic(2)))
    swap = built.index[((0, 0, 0, 0), perm_from_cycles(4, [(1, 2)]))]
    slot1 = built.index[((1, 0, 0, 0), (0, 1, 2, 3))]
    conj = built.table.mult[built.table.mult[swap][slot1]][built.table.inv[swap]]
    assert built.elements[conj] == ((0, 1, 0, 0), (0, 1, 2, 3))
