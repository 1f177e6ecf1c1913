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
    build_group_from_matrices,
    build_group_from_permutations,
    build_group_from_table,
    conjugate_subgroup,
    construct,
    construct_detailed,
    cyclic,
    derived_series,
    dihedral,
    direct,
    element_order,
    enumerate_subgroups,
    factorize,
    full_subgroup,
    index_of,
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
from commgraph.groups import perm_from_cycles


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


def test_matrix_generators_close_to_full_triangular_group():
    gens = [(a, b, d) for a in range(1, 5) for d in range(1, 5)
            for b in range(5)]
    table = build_group_from_matrices(5, gens)
    assert table.order == 80  # q(q-1)^2 invertible upper-triangular matrices


def test_invalid_generators_rejected():
    with pytest.raises(InvalidGenerator):
        build_group_from_permutations(3, [[(1, 4)]])
    with pytest.raises(InvalidGenerator):
        build_group_from_permutations(3, [[(1, 1)]])
    with pytest.raises(InvalidGenerator):
        build_group_from_matrices(5, [(0, 1, 1)])
    with pytest.raises(InvalidGenerator):
        build_group_from_matrices(4, [(1, 0, 1)])


def test_order_cap_enforced_during_closure():
    with pytest.raises(OrderCapExceeded):
        build_group_from_permutations(4, [[(1, 2)], [(1, 2, 3, 4)]], order_cap=10)


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


def test_explicit_table_rejects_one_swapped_pair_in_sym6():
    mult = [list(row) for row in construct(sym(6)).mult]
    row = mult[5]
    assert 0 not in (row[7], row[9])  # row 5 keeps its unique inverse
    row[7], row[9] = row[9], row[7]
    with pytest.raises(InvalidGenerator, match="associativity"):
        build_group_from_table(mult)


def test_explicit_table_generators_are_greedy_witnesses():
    table = build_group_from_table(construct(p2q(5)).mult)
    assert table.generators == (1, 2, 3)


# ---------------------------------------------------------------------------
# element and subgroup basics


def test_element_order_examples(s4, s4_els):
    assert element_order(s4.table, 0) == 1
    assert element_order(s4.table, s4_els((1, 2, 3, 4))) == 4
    p5 = construct_detailed(p2q(5))
    assert element_order(p5.table, p5.index[(1, 1, 1)]) == 5


def test_closure_examples(s4, s4_els):
    assert subgroup_closure(s4.table, []).order == 1
    assert subgroup_closure(s4.table, [s4_els((1, 2))]).order == 2
    seed = [s4_els((1, 2)), s4_els((1, 2, 3))]
    sub = subgroup_closure(s4.table, seed)
    assert sub.order == 6
    assert sub.order == len(brute_closure(s4.table, seed))
    assert sub.witnesses == tuple(sorted(set(seed)))


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
    a4 = derived_series(s4.table).terms[1]
    assert intersect(c3, a4) == c3


def test_parent_mismatch_raises(s4):
    other = construct(sym(3))
    with pytest.raises(ParentMismatch):
        intersect(full_subgroup(s4.table), full_subgroup(other))


def test_index_of_examples(s4):
    full = full_subgroup(s4.table)
    a4 = derived_series(s4.table).terms[1]
    assert index_of(full, full) == 1
    assert index_of(full, a4) == 2
    with pytest.raises(NotContained):
        index_of(a4, full)


def test_index_of_p2q_subgroup_with_unipotent_part():
    built = construct_detailed(p2q(5))
    sub = subgroup_closure(built.table, [built.index[(1, 1, 1)],
                                         built.index[(2, 0, 1)]])
    assert sub.order == 20
    # [P(2,q) : <Z/q, s>] = q(q-1)^2 / (q|s|) = 16/4 with |s| = 4
    assert index_of(full_subgroup(built.table), sub) == 4


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


def test_product_set_requires_normal_factor(s4, s4_els):
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    b = subgroup_closure(s4.table, [s4_els((1, 3))])
    with pytest.raises(NotNormal):
        product_set(a, b)


def test_conjugate_examples(s4, s4_els):
    a = subgroup_closure(s4.table, [s4_els((1, 2))])
    assert conjugate_subgroup(a, 0) == a
    conj = conjugate_subgroup(a, s4_els((2, 3)))
    assert conj == subgroup_closure(s4.table, [s4_els((1, 3))])
    v4 = sylow_subgroup(derived_series(s4.table).terms[1], 2)
    for g in range(s4.table.order):
        assert conjugate_subgroup(v4, g) == v4


def test_is_normal_examples(s4, s4_els, oracle_lattices):
    full = full_subgroup(s4.table)
    assert is_normal(trivial_subgroup(s4.table), full)
    a4 = derived_series(s4.table).terms[1]
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
    a4 = derived_series(s4.table).terms[1]
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
    assert series.orders == orders
    # cross-check every step against the all-pairs commutator oracle
    for prev, nxt in zip(series.terms, series.terms[1:]):
        oracle = brute_commutator_subgroup(table, list(prev.elements()))
        assert set(nxt.elements()) == oracle
    # terms strictly decrease and stay normal in the whole group
    full = full_subgroup(table)
    for prev, nxt in zip(series.terms, series.terms[1:]):
        assert nxt.order < prev.order
        assert is_normal(nxt, full)
        assert is_normal(nxt, prev)


def test_derived_series_of_coordinate_product_against_oracle(built_group):
    """All-pairs commutator oracle (vectorized) for the 1944-element group."""
    from commgraph import bs

    table = built_group(bs(cyclic(3))).table
    series = derived_series(table)
    assert series.orders == (1944, 324, 108, 27, 1)
    tbl = np.array(table.mult, dtype=np.int32)
    inv = np.array(table.inv, dtype=np.int32)
    xy = tbl
    comm = tbl[tbl[xy, inv[:, None]], inv[None, :]]
    seed = set(np.unique(comm).tolist())
    assert set(series.terms[1].elements()) == brute_closure(table, seed)


def test_sylow_examples(s4):
    full = full_subgroup(s4.table)
    syl2 = sylow_subgroup(full, 2)
    assert syl2.order == 8
    assert sylow_subgroup(full, 5).order == 1
    a4 = derived_series(s4.table).terms[1]
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


def test_p_prime_complement_examples():
    c12 = construct(cyclic(12))
    full = full_subgroup(c12)
    assert p_prime_complement(full, 5) == full
    z4 = sylow_subgroup(full, 2)
    assert p_prime_complement(z4, 2).order == 1
    comp = p_prime_complement(full, 2)
    assert comp.order == 3
    orders = [element_order(c12, x) for x in comp.elements()]
    assert all(o % 2 for o in orders)


def test_p_prime_complement_requires_nilpotent():
    s3 = construct(sym(3))
    with pytest.raises(NotNilpotent):
        p_prime_complement(full_subgroup(s3), 2)
    assert not is_nilpotent_subgroup(full_subgroup(s3))


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
        idx = index_of(a, inter) * index_of(b, inter)
        idx_rev = index_of(b, intersect(b, a)) * index_of(a, intersect(a, b))
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
        if a.issubset(b) and b.issubset(c):
            assert index_of(c, a) == index_of(c, b) * index_of(b, a)
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


def test_subgroup_set_rejects_non_generating_witnesses(s4, s4_els):
    mask = 1 | 1 << s4_els((1, 2))
    with pytest.raises(ValueError):
        SubgroupSet(s4.table, mask, ())
    with pytest.raises(ValueError):
        SubgroupSet(s4.table, mask >> 1 << 1, (s4_els((1, 2)),))
