"""Core table/subgroup primitives against brute-force oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from commgraph import (
    InvalidGenerator,
    NotContained,
    NotNilpotent,
    NotNormal,
    OrderCapExceeded,
    ParentMismatch,
    SubgroupSet,
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
    enumerate_subgroups,
    factorize,
    full_subgroup,
    intersect,
    is_nilpotent_subgroup,
    is_normal,
    is_prime,
    normal_core,
    p2q,
    p_power_exponent,
    p_prime_complement,
    product_set,
    spec_name,
    structure_flags,
    subgroup_closure,
    sylow_subgroup,
    sym,
    trivial_subgroup,
)
from commgraph import groups
from commgraph.groups import _bits, perm_from_cycles
from lattice_oracle import conjugate_mask


def brute_closure(table, seed):
    """Oracle closure: multiply the element set into itself to a fixpoint."""
    current = set(seed) | {0}
    while True:
        new = {table.mult[a][b] for a in current for b in current}
        if new <= current:
            return current
        current |= new


def brute_conjugates(table, members):
    """Oracle: the member set of g A g^-1 for every g in the group."""
    mult, inv = table.mult, table.inv
    return [{mult[mult[g][x]][inv[g]] for x in members}
            for g in range(table.order)]


def _sym4_from_bare_table():
    """sym(4) rebuilt from its table alone: its generators are the greedy
    witnesses of the full group, not construction generators."""
    return build_group_from_table(construct(sym(4)).mult)


# Groups whose whole lattices the rewritten primitives are checked over.
ORACLE_TABLES = {
    "sym(4)": lambda: construct(sym(4)),
    "dihedral(4)": lambda: construct(dihedral(4)),
    "p2q(5)": lambda: construct(p2q(5)),
    "table(sym(4))": _sym4_from_bare_table,
}


@pytest.fixture(scope="module")
def oracle_lattices():
    return [enumerate_subgroups(build()) for build in ORACLE_TABLES.values()]


@pytest.fixture(scope="module")
def s4():
    return construct_detailed(sym(4))


@pytest.fixture(scope="module")
def s4_els(s4):
    def el(*cycles):
        return s4.index[perm_from_cycles(4, cycles)]

    return el


# ---------------------------------------------------------------------------
# number helpers


@given(st.integers(min_value=1, max_value=10**6),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_p_power_exponent_roundtrip(n, p):
    k = p_power_exponent(n, p)
    if k is not None:
        assert p ** k == n
    else:
        m = n
        while m % p == 0:
            m //= p
        assert m != 1


@given(st.integers(min_value=1, max_value=100000))
def test_factorize_roundtrip(n):
    out = 1
    prev = 0
    for p, e in factorize(n):
        assert p > prev and e >= 1
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))
        out *= p ** e
        prev = p
    assert out == n


def test_p_power_exponent_examples():
    assert p_power_exponent(1, 2) == 0
    assert p_power_exponent(8, 2) == 3
    assert p_power_exponent(12, 2) is None


@pytest.mark.parametrize("p", [0, 1, -2])
def test_p_power_exponent_rejects_base_below_2(p):
    # base 1 looped forever and base 0 divided by zero
    with pytest.raises(ValueError):
        p_power_exponent(8, p)


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == by_trial_division(n) for n in range(-3, 10**5))


def test_is_prime_takes_only_integers():
    """Anything but a Python or numpy integer is not prime: 3.0 used to be,
    and a numpy integer beyond the bases' own divisibility test raised a
    TypeError from three-argument pow."""
    assert not any(is_prime(n) for n in (3.0, 2.0, True, np.float64(5), "7"))
    assert is_prime(np.int64(53)) and is_prime(np.int32(7))
    assert not is_prime(np.int64(55))


def test_is_prime_large_values():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not any(is_prime(n) for n in (2**61 + 1, (2**31 - 1) ** 2,
                                         3215031751))
    # the least strong pseudoprime to every prime base up to 41: beyond
    # what these bases decide, so it is refused rather than called prime
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


# ---------------------------------------------------------------------------
# builders


def test_sym4_from_permutation_generators():
    table = build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]])
    assert table.order == 24
    assert table.labels[0] == "e"


def test_empty_generators_give_trivial_group():
    table = build_group_from_permutations(3, [])
    assert table.order == 1


def test_invalid_generators_rejected():
    with pytest.raises(InvalidGenerator):
        build_group_from_permutations(3, [[(1, 4)]])
    with pytest.raises(InvalidGenerator):
        build_group_from_permutations(3, [[(1, 1)]])


@pytest.mark.parametrize("generator", [
    [(1.5, 2)], [1, 2], [(1, "x")], [("1", "2")], [(True, 2)],
    [(np.float64(1), 2)],
], ids=["float", "bare-points", "letter", "digit-strings", "bool",
        "numpy-float"])
def test_malformed_cycle_points_rejected(generator):
    """A point that is not an integer, or a cycle that is not a sequence,
    is an InvalidGenerator, not a silent truncation or a TypeError."""
    with pytest.raises(InvalidGenerator):
        build_group_from_permutations(3, [generator])


def test_numpy_integer_cycle_points_accepted():
    table = build_group_from_permutations(
        3, [[(np.int64(1), np.int32(2), 3)], [(np.uint8(1), 2)]])
    assert table.order == 6


def test_order_cap_enforced_during_closure():
    with pytest.raises(OrderCapExceeded):
        build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]], order_cap=10)


@pytest.mark.parametrize("degree", [2.5, 3.0, True, "3", None])
def test_permutation_route_rejects_a_degree_that_is_not_an_integer(degree):
    """2.5 used to raise a TypeError and True to build on one point."""
    with pytest.raises(InvalidGenerator, match="^degree must be an integer >= 1"):
        build_group_from_permutations(degree, [])


def test_permutation_route_takes_a_numpy_degree():
    table = build_group_from_permutations(np.int64(3), [[(1, 2, 3)], [(1, 2)]])
    assert table.order == 6


@pytest.mark.parametrize("cap", [0, -5])
def test_permutation_route_rejects_a_cap_below_one(cap):
    """No group meets such a cap, so the cap is invalid, as in
    ``construct``; it is rejected before the degree or cycles are read."""
    with pytest.raises(ValueError, match=f"^order cap must be at least 1, got {cap}$"):
        build_group_from_permutations(3, [], order_cap=cap)
    with pytest.raises(ValueError, match="order cap must be at least 1"):
        build_group_from_permutations(0, [[(9, 9)]], order_cap=cap)


@pytest.mark.parametrize("cap", [0, -5])
def test_table_route_rejects_a_cap_below_one(cap):
    """A ValueError, not OrderCapExceeded, and before the table is read."""
    with pytest.raises(ValueError, match=f"^order cap must be at least 1, got {cap}$"):
        build_group_from_table([[0]], order_cap=cap)
    with pytest.raises(ValueError, match="order cap must be at least 1"):
        build_group_from_table([[0, 5]], order_cap=cap)


def test_explicit_table_roundtrip():
    z3 = construct(cyclic(3))
    rebuilt = build_group_from_table(z3.mult, z3.labels)
    assert rebuilt.mult == z3.mult
    assert rebuilt.inv == z3.inv


def test_explicit_table_rejects_non_group():
    with pytest.raises(InvalidGenerator):
        build_group_from_table([[0, 1], [1, 1]])
    with pytest.raises(InvalidGenerator):
        build_group_from_table([[1, 0], [0, 1]])
    with pytest.raises(InvalidGenerator, match="square"):
        build_group_from_table([[0, 1, 2], [1, 2, 0]])


@pytest.mark.parametrize("mult,reason", [
    ([[0, 1], [1.7, 0]], "integers"),
    ([[0, True], [1, 0]], "integers"),
    ([[0, "1"], ["1", 0]], "integers"),
    ([[0, 65537], [1, 0]], "out of range"),
    ([[0, -1], [1, 0]], "out of range"),
])
def test_explicit_table_rejects_bad_entries(mult, reason):
    """A float, bool or string entry is no longer coerced into cyclic(2);
    an entry beyond int16 is out of range, not wrapped into it."""
    with pytest.raises(InvalidGenerator, match=reason):
        build_group_from_table(mult)


def test_entry_dtype_holds_every_element_id():
    from commgraph.groups import _entry_dtype

    for n in (1, 5000, 2**15):
        assert np.iinfo(_entry_dtype(n)).max >= n - 1
    assert _entry_dtype(5000) == np.int16
    assert _entry_dtype(2**15 + 1) == np.int32


def test_explicit_table_rejects_non_associative_loop():
    # A Latin square with identity 0 (a loop of order 5): it passes every
    # check except associativity, e.g. (1*1)*2 = 2 but 1*(1*2) = 4.
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidGenerator, match="associativity"):
        build_group_from_table(loop)


def test_explicit_table_rejects_right_products_that_miss_an_element():
    """Every row is a permutation and the greedy closure of 1 and 3
    reaches every id, but only by a bracketed product, 4 = (0*3)*2: the
    right products of the generators reach 0, 1, 2 and 3 alone, so no
    tree ties row 4 to the generators' rows, and the table is no group."""
    mult = [[0, 1, 2, 3, 4],
            [1, 2, 4, 3, 0],
            [2, 1, 4, 0, 3],
            [3, 2, 4, 1, 0],
            [4, 3, 2, 1, 0]]
    with pytest.raises(InvalidGenerator, match="^associativity fails: the "
                       "generators' right products miss an element$"):
        build_group_from_table(mult)


def test_explicit_table_rejects_one_swapped_pair_in_sym6():
    """Once in an early row and once in a late one: an outside table's
    rows are checked against a tree of right products before the
    Schreier proof, and that check reads every entry."""
    table = construct(sym(6))
    for r in (5, 715):
        mult = [list(row) for row in table.mult]
        row = mult[r]
        assert 0 not in (row[7], row[9])  # row r keeps its unique inverse
        row[7], row[9] = row[9], row[7]
        with pytest.raises(InvalidGenerator, match="associativity"):
            build_group_from_table(mult)


def test_explicit_table_rejects_missing_inverse_in_any_row_block():
    """A row without a 0 entry has no inverse.  Outside the rows of the
    generators the proof runs over, sym(6)'s greedy generators (1, 2), it
    breaks associativity, caught by the check of rows against the tree of
    right products: the error names the first generator whose block of
    rows fails, 1 for row 5 (a row reached from row 5 by generator 1) and
    2 for row 715.  1 is always the first of those generators, and its
    own row is then no permutation."""
    table = construct(sym(6))
    assert build_group_from_table(table.mult).generators == (1, 2)
    for r, g in ((5, 1), (715, 2)):
        mult = [list(row) for row in table.mult]
        row = mult[r]
        row[row.index(0)] = row[0]
        with pytest.raises(InvalidGenerator,
                           match=f"^associativity fails at generator {g}$"):
            build_group_from_table(mult)
    mult = [list(row) for row in table.mult]
    row = mult[1]
    row[row.index(0)] = row[0]
    with pytest.raises(InvalidGenerator,
                       match="^row of generator 1 is not a permutation$"):
        build_group_from_table(mult)


@pytest.mark.parametrize("mult", [[[0, 1], [1, 1]],
                                  [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
                                  [[0, 1, 2], [1, 1, 1], [2, 2, 2]]],
                         ids=["semilattice", "cyclic-monoid", "left-zero"])
def test_explicit_table_rejects_monoid(mult):
    """Associative tables with identity 0 that are monoids, not groups:
    every row is a product of the generators' rows and the Schreier
    proof passes them, so the rows of the generators it runs over must be
    permutations.  Without that check, the walk over the powers
    of an element would never reach the identity."""
    with pytest.raises(InvalidGenerator,
                       match="^row of generator 1 is not a permutation$"):
        build_group_from_table(mult)


def test_greedy_closure_lists_each_member_once_on_a_monoid():
    """On the left-zero monoid of order 20 (x*y = x for x != 0), ``_grow``
    keeps every element and lists each member once, not in a list that
    doubles with each element kept, to 2**18 entries; the proof then
    rejects the table."""
    n = 20
    mult = [list(range(n))] + [[x] * n for x in range(1, n)]
    mask, elems, kept = groups._grow(mult, 1, [0], range(1, n))
    assert mask == (1 << n) - 1
    assert kept == list(range(1, n))
    assert sorted(elems) == list(range(n))
    with pytest.raises(InvalidGenerator, match="not a permutation"):
        build_group_from_table(mult)


def test_proof_rejects_every_table_one_change_from_a_group():
    """No table one entry away from a group table, and none with two
    entries of one row swapped, is a group with identity 0: the proof
    that a table is a group rejects all 2440 single-entry changes of five
    small groups and all 1106 in-row swaps of three."""
    changed = swapped = 0
    for spec in (sym(3), cyclic(6), abelian([2, 2]), dihedral(4), p2q(3)):
        mult = [list(row) for row in construct(spec).mult]
        n = len(mult)
        for row in mult:
            for c in range(n):
                old = row[c]
                for v in range(n):
                    if v != old:
                        row[c] = v
                        with pytest.raises(InvalidGenerator):
                            build_group_from_table(mult)
                        changed += 1
                row[c] = old
        if spec in (sym(3), dihedral(4), p2q(3)):
            for row in mult:
                for a in range(n):
                    for b in range(a + 1, n):
                        row[a], row[b] = row[b], row[a]
                        with pytest.raises(InvalidGenerator):
                            build_group_from_table(mult)
                        row[a], row[b] = row[b], row[a]
                        swapped += 1
    assert (changed, swapped) == (2440, 1106)


def _relabelled(mult):
    """mult with id i > 0 renamed 1 + 3(i - 1) mod (n - 1), a fixed
    permutation of the ids that keeps 0 (n - 1 must be prime to 3): the
    ids no longer follow the BFS that built the table."""
    n = len(mult)
    new = [0] + [1 + 3 * i % (n - 1) for i in range(n - 1)]
    assert sorted(new) == list(range(n)) and new != list(range(n))
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[new[a]][new[b]] = new[mult[a][b]]
    return out


@pytest.mark.parametrize("spec", [dihedral(4), sym(3)], ids=spec_name)
def test_relabelled_table_is_proven_and_every_change_rejected(spec):
    """An outside table whose ids are not in BFS order: it is accepted
    with the same element orders, and every single-entry change of it is
    rejected."""
    table = construct(spec)
    mult = _relabelled(table.mult)
    rebuilt = build_group_from_table(mult)
    assert sorted(rebuilt.element_orders) == sorted(table.element_orders)
    n = len(mult)
    for row in mult:
        for c in range(n):
            old = row[c]
            for v in range(n):
                if v != old:
                    row[c] = v
                    with pytest.raises(InvalidGenerator):
                        build_group_from_table(mult)
            row[c] = old


def test_explicit_table_generators_are_greedy_witnesses():
    table = build_group_from_table(construct(p2q(5)).mult)
    assert table.generators == (1, 2, 3)


# ---------------------------------------------------------------------------
# element and subgroup basics


def test_closure_examples(s4, s4_els):
    assert subgroup_closure(s4.table, []).order == 1
    assert subgroup_closure(s4.table, [s4_els((1, 2))]).order == 2
    seed = [s4_els((1, 2)), s4_els((1, 2, 3))]
    sub = subgroup_closure(s4.table, seed)
    assert sub.order == 6
    assert sub.order == len(brute_closure(s4.table, seed))
    lat = enumerate_subgroups(s4.table)
    assert sub.witnesses \
        == lat.subgroups[lat.index_of_members[sub.members]].witnesses


@pytest.mark.parametrize("seed", [[1.5], [True], ["1"], [np.bool_(True)],
                                  [1, 2.0]],
                         ids=["1.5", "True", "'1'", "np.True_", "1,2.0"])
def test_closure_rejects_non_integer_ids(s4, seed):
    """An id is not truncated or coerced: [1.5] is not the closure of
    [1], and [True] or ['1'] is not an order-2 subgroup."""
    with pytest.raises(ValueError, match="is not an integer"):
        subgroup_closure(s4.table, seed)


def test_closure_accepts_numpy_integer_ids(s4):
    assert (subgroup_closure(s4.table, [np.int64(1), np.uint8(2)])
            == subgroup_closure(s4.table, [1, 2]))


@pytest.mark.parametrize("spec", [
    sym(4), p2q(5), dihedral(6), direct([sym(3), cyclic(2)]),
], ids=spec_name)
def test_closure_matches_brute_closure(spec):
    """The closure primitive, which both enumerators share, against the
    fixpoint oracle on seeded random seeds of one to three elements."""
    table = construct(spec)
    rng = random.Random(5)
    for _ in range(40):
        seed = rng.sample(range(table.order), rng.randint(1, 3))
        assert set(subgroup_closure(table, seed).elements()) \
            == brute_closure(table, seed)


def test_intersect_examples(s4, s4_els):
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    b = subgroup_closure(s4.table, [s4_els((3, 4))])
    assert intersect(a, a) == a
    assert intersect(a, b).order == 1
    c3 = subgroup_closure(s4.table, [s4_els((1, 2, 3))])
    a4 = derived_series(s4.table)[1]
    assert intersect(c3, a4) == c3


def test_parent_mismatch_raises(s4):
    other = construct(sym(3))
    with pytest.raises(ParentMismatch):
        intersect(full_subgroup(s4.table), full_subgroup(other))


def test_index_of_p2q_subgroup_with_unipotent_part():
    built = construct_detailed(p2q(5))
    sub = subgroup_closure(built.table, [built.index[(1, 1, 1)],
                                         built.index[(2, 0, 1)]])
    assert sub.order == 20
    # [P(2,q) : <Z/q, s>] = q(q-1)^2 / (q|s|) = 16/4 with |s| = 4
    assert built.table.order // sub.order == 4


def test_product_set_examples(s4, s4_els):
    t = trivial_subgroup(s4.table)
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    v4 = subgroup_closure(s4.table, [s4_els((1, 2), (3, 4)),
                                     s4_els((1, 3), (2, 4))])
    assert product_set(a, t) == a
    assert product_set(t, v4) == v4
    dihedral8 = product_set(a, v4)
    assert dihedral8.order == 8
    expected = {s4.table.mult[x][q] for x in a.elements() for q in v4.elements()}
    assert set(dihedral8.elements()) == expected


def test_product_set_is_the_closure_of_both_witness_sets(oracle_lattices):
    """For every subgroup A and normal Q of the oracle lattices, AQ is the
    subgroup that the witnesses of A and Q generate, with the witnesses of
    that lattice member; a Q that is not normal is refused."""
    for lat in oracle_lattices:
        table = lat.parent
        full = full_subgroup(table)
        normal = [is_normal(s, full) for s in lat.subgroups]
        assert any(normal) and not all(normal)
        for q, q_normal in zip(lat.subgroups, normal):
            for a in lat.subgroups:
                if not q_normal:
                    with pytest.raises(NotNormal):
                        product_set(a, q)
                    continue
                wits = tuple(sorted(set(a.witnesses) | set(q.witnesses)))
                prod = product_set(a, q)
                assert prod.members == subgroup_closure(table, wits).members
                assert prod.witnesses == lat.subgroups[
                    lat.index_of_members[prod.members]].witnesses


def test_product_set_requires_normal_factor(s4, s4_els):
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    b = subgroup_closure(s4.table, [s4_els((1, 3))])
    with pytest.raises(NotNormal):
        product_set(a, b)


@pytest.mark.parametrize("spec", [sym(4), bs(cyclic(2))], ids=spec_name)
def test_generator_conjugations(spec, conjugating_generators):
    """Each permutation the table keeps is x -> g x g^-1 for a distinct
    non-central generator g, agrees with the table, and maps each cyclic
    subgroup's mask onto its conjugate's."""
    table = construct(spec)
    mult, inv = table.mult, table.inv
    cyclics = {subgroup_closure(table, [x]).members for x in range(table.order)}
    owners = conjugating_generators(table)
    assert len(owners) == len(table.conjugations) > 0
    for g, conj in zip(owners, table.conjugations):
        assert conj == [mult[mult[g][x]][inv[g]] for x in range(table.order)]
        assert sorted(conj) == list(range(table.order))
        for mask in cyclics:
            members = {mult[mult[g][x]][inv[g]] for x in _bits(mask)}
            assert conjugate_mask(conj, mask) == sum(1 << y for y in members)


def test_is_normal_examples(s4, s4_els, oracle_lattices):
    full = full_subgroup(s4.table)
    assert is_normal(trivial_subgroup(s4.table), full)
    a4 = derived_series(s4.table)[1]
    assert is_normal(a4, full)
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    assert not is_normal(a, full)
    with pytest.raises(NotContained):
        is_normal(full, a)
    # every subgroup against conjugation by every element
    for lat in oracle_lattices:
        table = lat.parent
        for sub in lat.subgroups:
            members = set(sub.elements())
            assert is_normal(sub, full_subgroup(table)) \
                == all(c == members for c in brute_conjugates(table, members))


def test_normal_core_examples(s4, s4_els, oracle_lattices):
    full = full_subgroup(s4.table)
    a4 = derived_series(s4.table)[1]
    assert normal_core(a4, s4.table) == a4
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    assert normal_core(a, s4.table).order == 1
    d8 = subgroup_closure(s4.table, [s4_els((1, 2)), s4_els((3, 4)),
                                     s4_els((1, 3), (2, 4))])
    assert d8.order == 8
    core = normal_core(d8, s4.table)
    # oracle: intersect all conjugates directly
    expected = set(d8.elements())
    for g in range(s4.table.order):
        gi = s4.table.inv[g]
        expected &= {s4.table.mult[s4.table.mult[g][x]][gi]
                     for x in d8.elements()}
    assert set(core.elements()) == expected
    assert core.order == 4
    for lat in oracle_lattices:
        table = lat.parent
        for sub in lat.subgroups:
            members = set(sub.elements())
            expected = set.intersection(*brute_conjugates(table, members))
            assert set(normal_core(sub, table).elements()) == expected


# ---------------------------------------------------------------------------
# derived series, Sylow, flags


def brute_commutator_subgroup(table, members):
    """Oracle: closure of all commutators over all element pairs."""
    comms = set()
    for x in members:
        for y in members:
            xy = table.mult[x][y]
            comms.add(table.mult[table.mult[xy][table.inv[x]]][table.inv[y]])
    return brute_closure(table, comms)


@pytest.mark.parametrize("spec,orders", [
    (cyclic(6), (6, 1)),
    (abelian([2, 4]), (8, 1)),
    (sym(3), (6, 3, 1)),
    (sym(4), (24, 12, 4, 1)),
    (p2q(5), (80, 5, 1)),
    (p2q(7), (252, 7, 1)),
    (dihedral(5), (10, 5, 1)),
])
def test_derived_series_orders(spec, orders):
    table = construct(spec)
    series = derived_series(table)
    assert tuple(t.order for t in series) == orders
    # cross-check every step against the all-pairs commutator oracle
    for prev, nxt in zip(series, series[1:]):
        oracle = brute_commutator_subgroup(table, list(prev.elements()))
        assert set(nxt.elements()) == oracle
    # terms strictly decrease and stay normal in the whole group
    full = full_subgroup(table)
    for prev, nxt in zip(series, series[1:]):
        assert nxt.order < prev.order
        assert is_normal(nxt, full)
        assert is_normal(nxt, prev)


def test_derived_series_of_coordinate_product_against_oracle(built_group):
    """All-pairs commutator oracle (vectorized) for the 1944-element group."""
    from commgraph import bs

    table = built_group(bs(cyclic(3))).table
    series = derived_series(table)
    assert tuple(t.order for t in series) == (1944, 324, 108, 27, 1)
    tbl = np.array(table.mult, dtype=np.int32)
    inv = np.array(table.inv, dtype=np.int32)
    xy = tbl
    comm = tbl[tbl[xy, inv[:, None]], inv[None, :]]
    seed = set(np.unique(comm).tolist())
    assert set(series[1].elements()) == brute_closure(table, seed)


def test_sylow_examples(s4):
    full = full_subgroup(s4.table)
    syl2 = sylow_subgroup(full, 2)
    assert syl2.order == 8
    assert sylow_subgroup(full, 5).order == 1
    a4 = derived_series(s4.table)[1]
    v4 = sylow_subgroup(a4, 2)
    assert v4.order == 4
    assert is_normal(v4, full)


@pytest.mark.parametrize("spec", [sym(3), sym(4), cyclic(12), dihedral(6),
                                  abelian([2, 4]), p2q(3), p2q(5)])
def test_sylow_order_is_exact_p_part(spec):
    table = construct(spec)
    full = full_subgroup(table)
    primes = [p for p in range(2, min(table.order, 30) + 1)
              if all(p % d for d in range(2, p))]
    for p in primes:
        part = 1
        n = table.order
        while n % p == 0:
            n //= p
            part *= p
        assert sylow_subgroup(full, p).order == part


def _alternating5():
    """A5, whose derived series stops at A5 itself: perfect, not abelian."""
    return build_group_from_permutations(5, [[(1, 2, 3)], [(1, 2, 3, 4, 5)]])


def test_structure_flags_examples():
    c6 = structure_flags(construct(cyclic(6)))
    assert (c6.is_abelian, c6.is_nilpotent, c6.is_metabelian, c6.is_solvable) \
        == (True, True, True, True)
    fs4 = structure_flags(construct(sym(4)))
    assert (fs4.is_abelian, fs4.is_nilpotent, fs4.is_metabelian, fs4.is_solvable) \
        == (False, False, False, True)
    fp5 = structure_flags(construct(p2q(5)))
    assert fp5.is_metabelian and not fp5.is_nilpotent
    fd4 = structure_flags(construct(dihedral(4)))
    assert fd4.is_nilpotent and not fd4.is_abelian
    # is_abelian against the pairwise-commute oracle
    for build in (*ORACLE_TABLES.values(), lambda: construct(cyclic(1)),
                  lambda: construct(abelian([2, 2, 2])), _alternating5):
        table = build()
        mult = table.mult
        commute = all(mult[a][b] == mult[b][a]
                      for a in range(table.order) for b in range(table.order))
        assert structure_flags(table).is_abelian == commute


def _nilpotent_by_sylow(H):
    """The definition: every Sylow subgroup of H is normal in H."""
    return all(is_normal(sylow_subgroup(H, p), H)
               for p, _ in factorize(H.order))


def test_nilpotency_by_counting_matches_normal_sylow_subgroups(
        oracle_lattices, built_group):
    """``is_nilpotent_subgroup`` counts elements of p-power order; on
    every subgroup of these groups it agrees with the definition."""
    lattices = [*oracle_lattices,
                *(enumerate_subgroups(built_group(spec).table)
                  for spec in (sym(5), p2q(7)))]
    nilpotent = 0
    for lat in lattices:
        for H in lat.subgroups:
            assert is_nilpotent_subgroup(H) == _nilpotent_by_sylow(H)
            nilpotent += is_nilpotent_subgroup(H)
    assert 0 < nilpotent < sum(len(lat) for lat in lattices)


@pytest.mark.parametrize("spec,flags", [
    (sym(5), (False, False, False, False)),
    (p2q(7), (False, False, True, True)),
    (direct([sym(4), sym(3)]), (False, False, False, True)),
    (direct([sym(5), cyclic(2)]), (False, False, False, False)),
])
def test_structure_flags_of_ladder_groups(spec, flags, built_group):
    """(abelian, nilpotent, metabelian, solvable) of the full tables of the
    lattice ladder's groups."""
    f = structure_flags(built_group(spec).table)
    assert (f.is_abelian, f.is_nilpotent, f.is_metabelian, f.is_solvable) \
        == flags


def test_p_prime_complement_examples():
    c12 = construct(cyclic(12))
    full = full_subgroup(c12)
    assert p_prime_complement(full, 5) == full
    z4 = sylow_subgroup(full, 2)
    assert p_prime_complement(z4, 2).order == 1
    comp = p_prime_complement(full, 2)
    assert comp.order == 3
    orders = [c12.element_orders[x] for x in comp.elements()]
    assert all(o % 2 for o in orders)


def test_p_prime_complement_requires_nilpotent():
    s3 = construct(sym(3))
    with pytest.raises(NotNilpotent):
        p_prime_complement(full_subgroup(s3), 2)
    assert not is_nilpotent_subgroup(full_subgroup(s3))


def _p_prime_complement_in_two_steps(H, p):
    """The definition before one walk served both: the counting test of
    nilpotency, then a second walk for the members of order prime to p;
    None when H is not nilpotent."""
    orders = H.parent.element_orders
    for q, e in factorize(H.order):
        part = q ** e
        if sum(part % orders[x] == 0 for x in H.elements()) > part:
            return None
    mask = 0
    for x in H.elements():
        if orders[x] % p:
            mask |= 1 << x
    return mask


def test_p_prime_complement_matches_two_step_definition(oracle_lattices):
    """On every subgroup of the oracle groups and every prime of the
    group order, ``p_prime_complement`` gives the mask of the two-step
    definition, or raises NotNilpotent exactly when it gives None."""
    raised = 0
    for lat in oracle_lattices:
        for H in lat.subgroups:
            for p, _ in H.parent.order_factorization:
                want = _p_prime_complement_in_two_steps(H, p)
                if want is None:
                    with pytest.raises(NotNilpotent):
                        p_prime_complement(H, p)
                    raised += 1
                else:
                    assert p_prime_complement(H, p).members == want
                assert is_nilpotent_subgroup(H) == (want is not None)
    assert raised > 0


def test_nilpotent_factorization_invariant():
    for spec in (cyclic(12), abelian([2, 4]), dihedral(4), cyclic(6)):
        table = construct(spec)
        full = full_subgroup(table)
        for p, _ in table.order_factorization:
            syl = sylow_subgroup(full, p)
            comp = p_prime_complement(full, p)
            assert intersect(syl, comp).order == 1
            assert product_set(syl, comp) == full


# ---------------------------------------------------------------------------
# invariants over sampled subgroup pairs


def test_commensurability_index_symmetric_and_separating(s4):
    from commgraph.lattice import enumerate_subgroups

    lat = enumerate_subgroups(s4.table)
    rng = random.Random(11)
    for _ in range(300):
        a = lat.subgroups[rng.randrange(len(lat.subgroups))]
        b = lat.subgroups[rng.randrange(len(lat.subgroups))]
        inter = intersect(a, b)
        idx = (a.order // inter.order) * (b.order // inter.order)
        idx_rev = ((b.order // intersect(b, a).order)
                   * (a.order // intersect(a, b).order))
        assert idx == idx_rev
        assert (idx == 1) == (a == b)


def test_index_multiplicative_along_chains(s4):
    from commgraph.lattice import enumerate_subgroups

    lat = enumerate_subgroups(s4.table)
    rng = random.Random(13)
    chains = 0
    while chains < 100:
        a = lat.subgroups[rng.randrange(len(lat.subgroups))]
        b = lat.subgroups[rng.randrange(len(lat.subgroups))]
        c = lat.subgroups[rng.randrange(len(lat.subgroups))]
        if (a.members & b.members == a.members
                and b.members & c.members == b.members):
            assert c.order // a.order \
                == (c.order // b.order) * (b.order // a.order)
            chains += 1


def test_product_order_formula_on_normal_pairs(oracle_lattices):
    for lat in oracle_lattices:
        mult = lat.parent.mult
        full = full_subgroup(lat.parent)
        normals = [s for s in lat.subgroups if is_normal(s, full)]
        for v in lat.subgroups:
            for q in normals:
                prod = product_set(v, q)
                assert set(prod.elements()) \
                    == {mult[a][x] for a in v.elements() for x in q.elements()}
                assert prod.order * intersect(v, q).order == v.order * q.order


def test_subgroup_set_rejects_mask_without_identity(s4, s4_els):
    with pytest.raises(ValueError, match="identity"):
        SubgroupSet(s4.table, 1 << s4_els((1, 2)))


@pytest.mark.parametrize("mask", [1 | 1 << 100, 1 | 1 << 24, -1],
                         ids=["100", "24", "-1"])
def test_subgroup_set_rejects_member_outside_table(s4, mask):
    """A mask bit that names no element of the table is a ValueError when
    the subgroup is wrapped, not an IndexError on the first read of its
    witnesses; -1 sets every bit.  Each mask passes the identity-bit and
    Lagrange checks."""
    with pytest.raises(ValueError, match="outside"):
        SubgroupSet(s4.table, mask)


def test_witnesses_are_a_function_of_the_member_set(oracle_lattices):
    """Whichever operation builds a subgroup, its witnesses are those of
    the equal lattice member: the canonical ones over its members."""
    for lat in oracle_lattices:
        G, subs = lat.parent, lat.subgroups
        full = full_subgroup(G)
        normal = [q for q in subs if is_normal(q, full)]
        results = [full, trivial_subgroup(G)]
        for a in subs:
            results.append(subgroup_closure(G, a.elements()))
            results.append(normal_core(a, G))
            results.extend(sylow_subgroup(a, p)
                           for p, _ in G.order_factorization)
            results.extend(product_set(a, q) for q in normal)
            results.extend(intersect(a, b) for b in subs)
        for r in results:
            assert r.witnesses \
                == subs[lat.index_of_members[r.members]].witnesses
