"""Subgroup lattice enumeration against the independent brute-force routes."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    LatticeCapExceeded,
    NotFound,
    SubgroupSet,
    abelian,
    bs,
    build_group_from_permutations,
    build_graph,
    build_group_from_table,
    components_and_diameters,
    construct,
    construct_detailed,
    cyclic,
    derived_series,
    dihedral,
    direct,
    enumerate_subgroups,
    full_subgroup,
    is_normal,
    locate_subgroup,
    p2q,
    spec_name,
    subgroup_closure,
    sym,
)
from commgraph import groups as groups_module
from commgraph import lattice as lattice_module
from commgraph.groups import (
    _bits,
    _conjugacy_class,
    _conjugation,
    _greedy_witnesses,
    perm_from_cycles,
)
from lattice_oracle import (
    OracleScaleExceeded,
    conjugate_mask,
    oracle_classes,
    oracle_enumerate_subgroups,
    zuppos_by_closure,
)


@pytest.mark.parametrize("spec,count", [
    (cyclic(1), 1),
    (cyclic(6), 4),
    (cyclic(8), 4),
    (sym(3), 6),
    (sym(4), 30),
    (abelian([2, 2]), 5),
    (abelian([2, 4]), 8),
    (abelian([3, 3]), 6),
    (dihedral(4), 10),
    (p2q(3), 16),
    (p2q(5), 78),
])
def test_subgroup_counts(spec, count):
    lat = enumerate_subgroups(construct(spec))
    assert len(lat.subgroups) == count


def test_lattice_canonical_order_and_endpoints():
    lat = enumerate_subgroups(construct(sym(4)))
    orders = [s.order for s in lat.subgroups]
    assert orders == sorted(orders)
    assert lat.subgroups[0].order == 1
    assert lat.subgroups[-1].order == 24
    assert len({s.members for s in lat.subgroups}) == len(lat.subgroups)


@st.composite
def _masks_of_one_width(draw):
    """A width n and masks of n bits with bit 0 set: random ones, and
    single-bit flips of one of them, which share all but one bit."""
    n = draw(st.integers(1, 2000) | st.sampled_from([1944]))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=6))
    flips = draw(st.lists(st.integers(0, n - 1), max_size=6))
    masks += [masks[0] ^ 1 << i for i in flips]
    return n, [mask | 1 for mask in masks]


@given(_masks_of_one_width())
@example((1944, [1 | 1 << 1943, 1 | 1 << 1942, 3, 1]))
@example((9, [1 | 1 << 8, 1 | 1 << 7, 0x1FF]))
def test_lex_key_sorts_as_the_reversed_bit_string(width_masks):
    """The byte key sorts masks exactly as the bit-string with bit 0
    first does, on widths that are multiples of 8 and widths that are
    not."""
    n, masks = width_masks
    assert sorted(masks, key=lambda m: lattice_module._lex_key(m, n)) \
        == sorted(masks, key=lambda m: format(m, f"0{n}b")[::-1])


def test_lattice_closed_under_intersection():
    lat = enumerate_subgroups(construct(sym(4)))
    for a, b in itertools.combinations(lat.subgroups, 2):
        assert (a.members & b.members) in lat.index_of_members


def test_enumeration_deterministic_across_independent_tables():
    a = build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]])
    b = build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]])
    assert a is not b
    la, lb = enumerate_subgroups(a), enumerate_subgroups(b)
    assert [s.members for s in la.subgroups] == [s.members for s in lb.subgroups]
    assert [s.witnesses for s in la.subgroups] == [s.witnesses for s in lb.subgroups]


def brute_force_tuple_closures(table, max_gens):
    """Literal oracle: dedup closures over all generator tuples."""
    masks = {subgroup_closure(table, []).members}
    for size in range(1, max_gens + 1):
        for combo in itertools.combinations(range(1, table.order), size):
            masks.add(subgroup_closure(table, combo).members)
    return masks


@pytest.mark.parametrize("spec,max_gens", [
    (sym(3), 2),
    (cyclic(8), 3),
    (abelian([2, 2]), 2),
    (dihedral(4), 3),
])
def test_oracle_matches_literal_tuple_closures(spec, max_gens):
    table = construct(spec)
    oracle = oracle_enumerate_subgroups(table, max_gens)
    assert {s.members for s in oracle.subgroups} \
        == brute_force_tuple_closures(table, max_gens)


def test_oracle_examples():
    assert len(oracle_enumerate_subgroups(construct(cyclic(1)), 2).subgroups) == 1
    assert len(oracle_enumerate_subgroups(construct(sym(3)), 2).subgroups) == 6
    assert len(oracle_enumerate_subgroups(construct(cyclic(8)), 3).subgroups) == 4


def test_oracle_scale_guard():
    with pytest.raises(OracleScaleExceeded):
        oracle_enumerate_subgroups(construct(p2q(7)), 8)
    with pytest.raises(ValueError):
        oracle_enumerate_subgroups(construct(sym(3)), 1)


def _alternating_5():
    return build_group_from_permutations(5, [[(1, 2, 3)], [(1, 2, 3, 4, 5)]])


def _dicyclic(n: int):
    """The dicyclic group <a, x | a^2n = 1, x² = aⁿ, xax⁻¹ = a⁻¹> of order
    4n, as a table in which a^i x^e has id i + 2n·e; n = 2 gives Q₈ and
    n = 4 Q₁₆."""
    m = 2 * n
    elements = [(i, e) for e in range(2) for i in range(m)]
    return build_group_from_table([
        [(i + (-j if e else j) + (n if e and f else 0)) % m + m * ((e + f) % 2)
         for j, f in elements] for i, e in elements])


def _sl_2_3():
    """SL(2,3) acting on the nonzero vectors of F₃², numbered 1..8 in
    lexicographic order: generated by [[1,1],[0,1]] and [[0,-1],[1,0]]."""
    return build_group_from_permutations(
        8, [[(1, 4, 7), (2, 8, 5)], [(1, 6, 2, 3), (4, 7, 8, 5)]])


# Non-split extensions, which no spec family builds: name -> (builder,
# order, subgroup count).  Each has one involution, which is central, while
# its quotient by its centre Z₂ has involutions, so Z₂ has no complement.
_NON_SPLIT = {"Q8": (lambda: _dicyclic(2), 8, 6),
              "Q16": (lambda: _dicyclic(4), 16, 11),
              "dicyclic12": (lambda: _dicyclic(3), 12, 8),
              "dicyclic20": (lambda: _dicyclic(5), 20, 10),
              "SL(2,3)": (_sl_2_3, 24, 15)}
_NON_SPLIT_INPUTS = [pytest.param(build, id=name)
                     for name, (build, _, _) in _NON_SPLIT.items()]


@pytest.mark.parametrize("name", _NON_SPLIT)
def test_non_split_inputs_are_the_named_groups(name):
    build, order, subgroups = _NON_SPLIT[name]
    table = build()
    assert table.order == order and table.element_orders.count(2) == 1
    assert len(enumerate_subgroups(table)) == subgroups


@pytest.mark.parametrize("spec", [
    sym(3), sym(4), cyclic(6), cyclic(12), abelian([2, 4]), dihedral(6),
    direct([sym(3), cyclic(2)]), p2q(3), p2q(5),
    abelian([2, 2, 2, 2]), direct([dihedral(4), cyclic(2)]), _alternating_5,
    *_NON_SPLIT_INPUTS,
])
def test_enumeration_matches_oracle(spec):
    """The last three are cases where the prime-index cover skips many
    zuppos.  A5, which no spec names and a builder supplies, is the one
    whose closures under rule (c) have prime index, 3 and 5, so there the
    cover also takes closed extensions."""
    table = spec() if callable(spec) else construct(spec)
    assert table.order <= 100
    lat = enumerate_subgroups(table)
    oracle = oracle_enumerate_subgroups(table, math.ceil(math.log2(table.order)))
    assert [s.members for s in lat.subgroups] \
        == [s.members for s in oracle.subgroups]


def _first_of_class(lat, label) -> list[int]:
    """For each lattice index, the first index whose mask has the same
    label: the form of ``Lattice.class_of``."""
    first: dict = {}
    return [first.setdefault(label[s.members], i)
            for i, s in enumerate(lat.subgroups)]


@pytest.mark.parametrize("spec", [
    sym(3), sym(4), cyclic(6), abelian([2, 4]), dihedral(4), dihedral(6),
    direct([sym(3), cyclic(2)]), p2q(3), p2q(5), abelian([2, 2, 2, 2]),
    direct([dihedral(4), cyclic(2)]), _alternating_5,
    lambda: build_group_from_table(construct(sym(4)).mult), *_NON_SPLIT_INPUTS,
])
def test_class_record_matches_oracle_classes(spec):
    """The class each subgroup fell in during enumeration is its orbit
    under conjugation by every element, found by brute force; the oracle
    enumerator, which labels its classes that way, keeps the same
    record."""
    table = spec() if callable(spec) else construct(spec)
    lat = enumerate_subgroups(table)
    label = oracle_classes(table, [s.members for s in lat.subgroups])
    assert lat.class_of.tolist() == _first_of_class(lat, label)
    assert not lat.class_of.flags.writeable
    oracle = oracle_enumerate_subgroups(table, math.ceil(math.log2(table.order)))
    assert oracle.class_of.tolist() == lat.class_of.tolist()


@pytest.mark.parametrize("spec", [
    sym(5), p2q(7), direct([sym(4), sym(3)]), bs(cyclic(2)),
], ids=spec_name)
def test_class_record_matches_class_orbits(spec, built_group):
    """Above the oracle's scale: the orbit that ``_conjugacy_class`` walks
    from the first member of each class holds exactly the subgroups that
    the record puts in that class."""
    table = built_group(spec).table
    lat = enumerate_subgroups(table)
    class_of = lat.class_of.tolist()
    members: dict[int, list[int]] = {}
    for i, first in enumerate(class_of):
        members.setdefault(first, []).append(i)
    assert all(first == members[first][0] for first in members)
    for first, indices in members.items():
        orbit = _conjugacy_class(table.conjugations,
                                 lat.subgroups[first].members)
        assert sorted(lat.index_of_members[m] for m in orbit) == indices


@pytest.mark.parametrize("spec", [
    sym(5), sym(6), p2q(13), p2q(17), bs(cyclic(3)),
    direct([sym(4), sym(4)]), abelian([2] * 6), dihedral(8), cyclic(12),
    abelian([4, 8]), _alternating_5,
], ids=lambda spec: "A5" if callable(spec) else spec_name(spec))
def test_zuppos_by_powers_match_closures(spec, built_group):
    """One walk over each generator's powers finds the same zuppos, with
    the same generators and p-th powers in the same order, as closing the
    cyclic subgroup of every element of prime-power order."""
    table = spec() if callable(spec) else built_group(spec).table
    zuppos = lattice_module._zuppos(table)
    assert zuppos == zuppos_by_closure(table)
    assert zuppos


def test_subgroup_count_monotone_under_direct_factor():
    for spec in (cyclic(6), sym(3), abelian([2, 2])):
        base = len(enumerate_subgroups(construct(spec)).subgroups)
        grown = len(enumerate_subgroups(
            construct(direct([spec, cyclic(2)]))).subgroups)
        assert grown >= base


def _record_extensions(monkeypatch) -> list[tuple[int, int, int | None]]:
    """Route enumerate_subgroups' extensions through a recorder of
    (S mask, zuppo generator, result) per call of ``lattice._extend``."""
    extend = lattice_module._extend
    calls = []

    def recording(G, residuum, s_mask, s_elems, s_gens, c, *args):
        result = extend(G, residuum, s_mask, s_elems, s_gens, c, *args)
        calls.append((s_mask, c, result))
        return result

    monkeypatch.setattr(lattice_module, "_extend", recording)
    return calls


# per group: the sha256 of the masks handed to ``lattice._conjugacy_class``,
# one hex line per class in order, recorded before the prime-index cover
# and the reduced conjugating set, which leave the worklist as it was; and
# the number of ``lattice._extend`` calls, which the cover cut from 9517,
# 5206, 12126 and 8072
WORKLIST = {
    "abelian(2x2x2x2x2)": (
        "238d6d55196fffba7622ebf3f20440116d7912dbc765bce5df76b927b2385073",
        2077),
    "direct(sym(4),abelian(2x2))": (
        "794def8ace957863cec0b781f5e73ee1e3c06f0d355a0d072ddd3b4fe024c747",
        3049),
    "p2q(13)": (
        "da3f27ac265635d673d7f02114449286195dc543bd66ae0732d4b180a016f5dd",
        6450),
    "sym(6)": (
        "43f2675445c7d41f366632cd8c56d696388e7cf299209c7edb2e7fa7a36dda06",
        7348),
}


@pytest.mark.parametrize("spec", [
    abelian([2, 2, 2, 2, 2]), direct([sym(4), abelian([2, 2])]), p2q(13),
    sym(6),
], ids=spec_name)
def test_worklist_matches_recorded(spec, built_group, monkeypatch):
    """The class representatives reach the worklist in the recorded order,
    with the recorded number of extensions tried."""
    conjugacy_class = lattice_module._conjugacy_class
    masks = []

    def recording(conjugations, mask, *args):
        masks.append(mask)
        return conjugacy_class(conjugations, mask, *args)

    monkeypatch.setattr(lattice_module, "_conjugacy_class", recording)
    calls = _record_extensions(monkeypatch)
    enumerate_subgroups(built_group(spec).table)
    h = hashlib.sha256()
    for mask in masks:
        h.update(format(mask, "x").encode() + b"\n")
    assert (h.hexdigest(), len(calls)) == WORKLIST[spec_name(spec)]


# None stands for p2q(5)'s table rebuilt by build_group_from_table, whose
# generators are its ascending greedy witnesses
@pytest.mark.parametrize("spec", [
    sym(4), bs(cyclic(2)), direct([sym(4), abelian([2, 2])]), p2q(5), None,
], ids=lambda spec: spec_name(spec) if spec else "table(p2q(5))")
def test_class_conjugations_keep_every_class(spec, built_group):
    """Every subgroup's orbit under table.conjugations is its orbit under
    the conjugations by all of G.generators."""
    if spec is None:
        table = build_group_from_table(built_group(p2q(5)).table.mult)
    else:
        table = built_group(spec).table
    every = [_conjugation(table, g) for g in table.generators]
    for s in enumerate_subgroups(table).subgroups:
        assert set(_conjugacy_class(table.conjugations, s.members)) \
            == set(_conjugacy_class(every, s.members))


@pytest.mark.parametrize("spec", [
    sym(4), p2q(5), direct([dihedral(4), dihedral(4)]),
    direct([sym(4), abelian([2, 2])]), abelian([2] * 5), sym(5),
], ids=spec_name)
def test_class_from_generators_is_the_orbit(spec, built_group):
    """Given a subgroup's witnesses, ``_conjugacy_class`` returns the orbit
    it walks without them, and one mask exactly when the subgroup is
    normal."""
    table = built_group(spec).table
    full = full_subgroup(table)
    for s in enumerate_subgroups(table).subgroups:
        cls = _conjugacy_class(table.conjugations, s.members, s.witnesses)
        assert cls == _conjugacy_class(table.conjugations, s.members)
        assert (len(cls) == 1) == is_normal(s, full)


KEPT_CONJUGATIONS = [
    (abelian([2, 2, 2]), 0), (bs(cyclic(3)), 3),
    (direct([sym(4), abelian([2, 2])]), 2), (sym(4), 2),
]


@pytest.mark.parametrize("spec,kept", KEPT_CONJUGATIONS,
                         ids=[spec_name(spec) for spec, _ in KEPT_CONJUGATIONS])
def test_class_conjugations_drop_central_and_redundant_generators(
        spec, kept, built_group, conjugating_generators):
    """An abelian group needs no conjugation; bs(cyclic(3)) keeps 3 of its
    6 generators, and each kept permutation is the conjugation by a
    distinct non-central generator."""
    table = built_group(spec).table
    assert len(table.conjugations) == kept
    assert len(conjugating_generators(table)) == kept


def test_enumeration_orbits_use_the_table_conjugations(monkeypatch):
    """enumerate_subgroups hands ``_conjugacy_class`` the table's own
    conjugations, so no second conjugating set is picked for the
    lattice."""
    table = construct(direct([sym(4), abelian([2, 2])]))
    seen = []
    conjugacy_class = lattice_module._conjugacy_class

    def recording(conjugations, mask, *args):
        seen.append(conjugations)
        return conjugacy_class(conjugations, mask, *args)

    monkeypatch.setattr(lattice_module, "_conjugacy_class", recording)
    enumerate_subgroups(table)
    assert seen and all(c is table.conjugations for c in seen)


# conjugacy classes extended at least once: the full group has no zuppo
# outside it, and rule (c) leaves out classes outside the solvable
# residuum that no admissible zuppo normalizes, such as the
# self-normalizing S3 <= S4, or S4, S3 x S2, D4 and AGL(1,5) <= S5
EXTENDED_CLASSES = {"sym(4)": 8, "dihedral(4)": 7, "p2q(3)": 8, "sym(5)": 14}


@pytest.mark.parametrize("spec,classes", [
    (sym(4), 11), (dihedral(4), 8), (p2q(3), 10), (sym(5), 19),
])
def test_extends_one_representative_per_conjugacy_class(spec, classes,
                                                         monkeypatch):
    """Only one subgroup per conjugacy class is extended."""
    table = construct(spec)
    calls = _record_extensions(monkeypatch)
    lat = enumerate_subgroups(table)
    orbits = {frozenset(conjugate_mask(_conjugation(table, g), s.members)
                        for g in range(table.order))
              for s in lat.subgroups}
    assert len(orbits) == classes
    extended = {s_mask for s_mask, _, result in calls if result is not None}
    assert len(extended) == EXTENDED_CLASSES[spec_name(spec)]
    assert len({orbit for orbit in orbits if orbit & extended}) \
        == len(extended)


@pytest.mark.parametrize("spec,solvable", [
    (sym(4), True), (p2q(5), True), (sym(5), False),
])
def test_closes_non_normalizing_zuppos_only_inside_residuum(spec, solvable,
                                                            monkeypatch):
    """Rule (c), for every group: S is extended by a zuppo c as p cosets
    exactly when c normalizes S.  Otherwise <S, c> is closed exactly when
    S and c lie in the solvable residuum R, and c is rejected when not.
    In a solvable group R is trivial, so nothing is closed; sym(5), with
    R = A5, both closes and rejects."""
    table = construct(spec)
    residuum = derived_series(table)[-1].members
    calls = _record_extensions(monkeypatch)
    closure = lattice_module._grow
    closed = []

    def counting(mult, s_mask, s_elems, xs):
        (c,) = xs
        closed.append((s_mask, c))
        return closure(mult, s_mask, s_elems, xs)

    monkeypatch.setattr(lattice_module, "_grow", counting)
    enumerate_subgroups(table)
    closed = set(closed)
    rejected = {(s_mask, c) for s_mask, c, result in calls if result is None}
    for s_mask, c, _ in calls:
        route = ((s_mask, c) in closed, (s_mask, c) in rejected)
        if conjugate_mask(_conjugation(table, c), s_mask) == s_mask:
            assert route == (False, False)
        else:
            inside = s_mask | residuum == residuum and bool(residuum >> c & 1)
            assert route == (inside, not inside)
    assert rejected and bool(closed) != solvable


@pytest.mark.parametrize("spec", [
    abelian([2, 2, 2, 2, 2]), direct([dihedral(4), dihedral(4)]),
    direct([sym(4), abelian([2, 2])]),
], ids=spec_name)
def test_graphs_compute_no_witnesses(spec, built_group, monkeypatch):
    """Enumerating the lattice and taking the components of every graph
    computes no witnesses but those of the derived series, whose
    commutators give the solvable residuum: the others wait for a read.
    G's own commutators are taken over its construction generators."""
    table = built_group(spec).table
    greedy = groups_module._greedy_witnesses
    masks = []

    def counting(mult, candidates, mask):
        masks.append(mask)
        return greedy(mult, candidates, mask)

    monkeypatch.setattr(groups_module, "_greedy_witnesses", counting)
    series = [t.members for t in derived_series(table)]
    series_masks = masks.copy()
    assert set(series_masks) <= set(series[1:])
    lat = enumerate_subgroups(table)
    for kind in (KIND_COMMENSURABILITY, KIND_CONTAINMENT):
        for p in (2, 3, 5):
            components_and_diameters(build_graph(lat, p, kind))
    assert masks == series_masks * 2


@pytest.mark.parametrize("spec", [
    sym(4), p2q(5), direct([dihedral(4), dihedral(4)]),
    direct([sym(4), abelian([2, 2])]),
], ids=spec_name)
def test_witnesses_on_first_read_are_the_greedy_ones(spec, built_group):
    """Read after the lattice is built, each subgroup's witnesses are the
    canonical greedy ones over its members, in ascending order."""
    table = built_group(spec).table
    for s in enumerate_subgroups(table).subgroups:
        assert s.witnesses \
            == _greedy_witnesses(table.mult, _bits(s.members), s.members)


def test_witnesses_of_a_non_subgroup_raise_on_read(built_group):
    """The constructor takes a mask on trust beyond its range, identity
    bit and order; its greedy witnesses close past a mask that is not a
    subgroup, and the first read says so."""
    table = built_group(sym(4)).table
    x = next(x for x in range(table.order) if table.element_orders[x] == 3)
    fake = SubgroupSet(table, 1 | 1 << x)  # order 2 divides 24
    with pytest.raises(ValueError, match="not a subgroup"):
        fake.witnesses


def test_lattice_cap():
    table = build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]])
    with pytest.raises(LatticeCapExceeded):
        enumerate_subgroups(table, lattice_cap=10)
    # conjugacy classes arrive whole, yet the cap trips exactly when the
    # total passes it: sym(4) has 30 subgroups
    table = construct(sym(4))
    assert len(enumerate_subgroups(table, lattice_cap=30)) == 30
    with pytest.raises(LatticeCapExceeded, match=r"^more than 29 subgroups$"):
        enumerate_subgroups(table, lattice_cap=29)


@pytest.mark.parametrize("cap", [0, -5])
def test_lattice_cap_below_one_is_rejected(cap, monkeypatch):
    """No lattice meets such a cap, so it is invalid, as an order cap
    below 1 is; it is rejected before any work, here the derived series."""
    def unreachable(_table):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(lattice_module, "derived_series", unreachable)
    with pytest.raises(ValueError, match=f"^lattice cap must be at least 1, got {cap}$"):
        enumerate_subgroups(construct(cyclic(1)), lattice_cap=cap)


def test_locate_subgroup():
    built = construct_detailed(sym(4))
    lat = enumerate_subgroups(built.table)

    def el(*cycles):
        return built.index[perm_from_cycles(4, cycles)]

    assert lat.subgroups[locate_subgroup(lat, [])].order == 1
    idx = locate_subgroup(lat, [el((1, 2))])
    assert lat.subgroups[idx].order == 2
    idx = locate_subgroup(lat, [el((1, 2)), el((3, 4)), el((1, 3), (2, 4))])
    assert lat.subgroups[idx].order == 8
    corrupt = dataclasses.replace(lat, index_of_members={1: 0})
    with pytest.raises(NotFound):
        locate_subgroup(corrupt, [el((1, 2))])


@pytest.mark.parametrize("ids", [[2.9], [True], ["2"]], ids=["2.9", "True", "'2'"])
def test_locate_subgroup_rejects_non_integer_ids(ids):
    """[2.9] does not locate the subgroup that [2] generates."""
    lat = enumerate_subgroups(construct(sym(4)))
    with pytest.raises(ValueError, match="is not an integer"):
        locate_subgroup(lat, ids)


@pytest.mark.parametrize("ids", [[-1], [24], [1, 24]], ids=["-1", "24", "1,24"])
def test_locate_subgroup_rejects_ids_outside_table(ids):
    """An id that names no element of sym(4) is a ValueError, not a shift
    error or an IndexError from inside the closure."""
    lat = enumerate_subgroups(construct(sym(4)))
    with pytest.raises(ValueError, match="out of range"):
        locate_subgroup(lat, ids)
