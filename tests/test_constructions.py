"""Spec parsing and the group family builders."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from commgraph import (
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
    index_of,
    is_normal,
    p2q,
    parse_group_spec,
    predicted_order,
    spec_from_doc,
    spec_name,
    spec_to_doc,
    subgroup_closure,
    sym,
)
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


@pytest.mark.parametrize("spec,order", [
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
])
def test_constructed_orders(spec, order, built_group):
    assert predicted_order(spec) == order
    table = built_group(spec).table
    assert table.order == order
    if spec in TABLE_SHA256:
        doc = [table.mult, table.labels, list(table.generators)]
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
# ints; recorded at commit 0e63d89, while tables were still assembled as
# int32 arrays and kept by ndarray.tolist()
ENTRIES_SHA256 = {
    bs(cyclic(2)):
        "83dd4771e67e68c60b51959de58ec3606bb8b34f7ce942d8a3301bb4a5075bea",
    sym(6):
        "2579dd9bc780677f0dc40bc2dca9c45b1e71fac0e83a86fc148a8a31eba449b2",
    bs(cyclic(3)):
        "1dd0f32bfc59feef7fee332d490036154a03d71f2c7eb7dc3f1c7068989cada7",
}


@pytest.mark.parametrize("spec", list(ENTRIES_SHA256), ids=spec_name)
def test_large_table_entries_pinned(spec, built_group):
    assert _entries_digest(built_group(spec).table) == ENTRIES_SHA256[spec]


def _assert_shared_int_rows(table):
    """mult is a list of lists of plain ints holding only n int objects, so
    no numpy scalar reaches the scalar loops and no entry has an int of its
    own."""
    mult = table.mult
    assert all(type(row) is list for row in mult)
    assert all(type(x) is int for row in mult for x in row)
    assert len({id(x) for row in mult for x in row}) == table.order


def test_table_rows_share_int_objects():
    table = construct(bs(cyclic(2)))
    _assert_shared_int_rows(table)
    rebuilt = build_group_from_table(table.mult)
    _assert_shared_int_rows(rebuilt)
    assert rebuilt.mult == table.mult
    assert rebuilt.inv == table.inv


def test_order_1944_table_memory():
    """The order-1944 table holds 3.8 M entries; as one int object each they
    took 144.6 MB at peak to build, as n shared ints about 37 MB."""
    tracemalloc.start()
    try:
        table = construct(bs(cyclic(3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.order == 1944
    assert peak < 64 * 2**20


def test_direct_order_multiplies():
    for a, b in [(cyclic(4), sym(3)), (dihedral(3), cyclic(5))]:
        assert (construct(direct([a, b])).order
                == construct(a).order * construct(b).order)


def test_order_cap_blocks_prediction():
    with pytest.raises(OrderCapExceeded):
        construct(sym(4), order_cap=20)
    with pytest.raises(OrderCapExceeded):
        construct(bs(sym(4)))  # 24^5 blows the default cap


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
    assert series.orders == (12, 3, 1)


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
            assert unipotent.issubset(sub) or sub.order % q != 0


def test_bs_contains_normal_coordinate_product(built_group):
    built = built_group(bs(cyclic(3)))
    table = built.table
    assert table.order == 1944
    delta_gens = [built.index[(tuple(1 if i == s else 0 for i in range(4)),
                               (0, 1, 2, 3))] for s in range(4)]
    delta = subgroup_closure(table, delta_gens)
    assert delta.order == 81
    assert is_normal(delta, full_subgroup(table))
    assert index_of(full_subgroup(table), delta) == 24


def test_bs_coordinate_action_swaps_slots():
    built = construct_detailed(bs(cyclic(2)))
    swap = built.index[((0, 0, 0, 0), perm_from_cycles(4, [(1, 2)]))]
    slot1 = built.index[((1, 0, 0, 0), (0, 1, 2, 3))]
    conj = built.table.mult[built.table.mult[swap][slot1]][built.table.inv[swap]]
    assert built.elements[conj] == ((0, 1, 0, 0), (0, 1, 2, 3))
