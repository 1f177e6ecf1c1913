"""Spec parsing and the group family builders."""

from __future__ import annotations

import pytest

from commgraph import (
    InvalidSpec,
    OrderCapExceeded,
    SpecSyntaxError,
    abelian,
    bs,
    build_group_from_permutations,
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
])
def test_constructed_orders(spec, order, built_group):
    assert predicted_order(spec) == order
    assert built_group(spec).table.order == order


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
