"""Complete subgroup lattice enumeration, plus a brute-force cross-check.

``enumerate_subgroups`` is Neubüser's cyclic extension method (1960), as in
GAP's ``LatticeByCyclicExtension``: from the trivial subgroup on, one
subgroup S per conjugacy class is extended by cyclic subgroups <c> of
prime-power order p^k, until no new class appears; S is carried as its
member mask and generators.  Only c with c^p in S are tried; when c
normalizes S the extension is S's p cosets by the powers of c, read off
the table.  Any other c is needed only when S and c lie in the solvable
residuum G^(∞), the last term of the derived series (trivial in a
solvable group); those extensions are closed by
``groups._cyclic_extension``, and class orbits come from
``groups._conjugacy_class``.
``oracle_enumerate_subgroups`` instead closes all generator tuples of
bounded size, level by level; with max_gens >= log2(order) it provably
finds every subgroup, independently of the cyclic-extension route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import LatticeCapExceeded, NotFound, OracleScaleExceeded
from .groups import (
    GroupTable,
    SubgroupSet,
    _bits,
    _closure_mask,
    _conjugacy_class,
    _cyclic_extension,
    _normalizes,
    derived_series,
    factorize,
)

DEFAULT_LATTICE_CAP = 100000
_ORACLE_MAX_ORDER = 100
_SAMPLE_SEED = 0x1A77


@dataclass(frozen=True)
class Lattice:
    """All subgroups of a table in canonical order.

    Canonical order is (order, lexicographic membership bit-string with
    bit 0 first), making lattice indices stable across runs and platforms.
    """

    parent: GroupTable
    subgroups: tuple[SubgroupSet, ...]
    index_of_members: dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.subgroups)


def _lex_key(mask: int, n: int) -> str:
    return format(mask, f"0{n}b")[::-1]


def _finish_lattice(G: GroupTable, masks) -> Lattice:
    """The lattice of the given member masks in canonical order.  Its
    checks are sanity checks on the output of ``enumerate_subgroups`` and
    ``oracle_enumerate_subgroups``, the only callers, not a proof that
    outside input is a complete lattice."""
    n = G.order
    subs = [SubgroupSet.from_members(G, m) for m in masks]
    subs.sort(key=lambda s: (s.order, _lex_key(s.members, n)))
    index_of = {s.members: i for i, s in enumerate(subs)}
    lat = Lattice(G, tuple(subs), index_of)
    _check_lattice(lat)
    return lat


def _check_lattice(lat: Lattice) -> None:
    """Sanity invariants: endpoints present, and closure under intersection
    on >= 200 seeded sample pairs.  Lagrange needs no check here:
    ``SubgroupSet`` rejects an order that does not divide the group's."""
    full = (1 << lat.parent.order) - 1
    if 1 not in lat.index_of_members or full not in lat.index_of_members:
        raise AssertionError("lattice must contain the trivial and full subgroups")
    m = len(lat.subgroups)
    if m >= 2:
        rng = random.Random(_SAMPLE_SEED)
        for _ in range(200):
            a = lat.subgroups[rng.randrange(m)]
            b = lat.subgroups[rng.randrange(m)]
            if (a.members & b.members) not in lat.index_of_members:
                raise AssertionError("lattice not closed under intersection")


def _zuppos(G: GroupTable) -> list[tuple[int, int, int]]:
    """Every cyclic subgroup of prime-power order > 1, once, as
    (generator, mask, mask of <c^p>) for c of order p^k; the generator is
    the smallest element id that generates it."""
    mult = G.mult
    seen: set[int] = set()
    out = []
    for x in range(1, G.order):
        primes = factorize(G.element_orders[x])
        if len(primes) != 1:
            continue
        mask = _closure_mask(mult, (x,))
        if mask not in seen:
            seen.add(mask)
            y = x
            for _ in range(primes[0][0] - 1):
                y = mult[y][x]
            out.append((x, mask, _closure_mask(mult, (y,))))
    return out


def _extend(G: GroupTable, residuum: int, s_mask: int, s_elems: list[int],
            s_gens: tuple[int, ...], c: int) -> int | None:
    """The member mask of <S, c> for a zuppo c outside S with c^p in S, or
    None when c does not normalize S and S and c do not both lie in the
    solvable residuum, whose member mask is residuum (rule (c)).

    s_elems are S's members and s_gens generate S, so c normalizes S when
    it conjugates each of s_gens into S.  Then <S, c> is S, Sc, ...,
    Sc^(p-1) (rule (b)), each coset ORed into the mask off one table row;
    otherwise it is closed by ``_cyclic_extension``.  That would give the
    same cosets for a normalizing c too, but testing every product x*c for
    membership as it goes nearly doubles the time to enumerate
    bs(cyclic(3)) or p2q(13).
    """
    mult = G.mult
    if not _normalizes(G, s_mask, s_gens, c):
        if not residuum >> c & 1 or s_mask | residuum != residuum:
            return None
        return _cyclic_extension(mult, s_mask, s_elems, c)[0]
    mask, y = s_mask, c
    while not s_mask >> y & 1:  # stops at y = c^p
        y_row = mult[y]
        for s in s_elems:
            mask |= 1 << y_row[s]
        y = y_row[c]
    return mask


def enumerate_subgroups(G: GroupTable,
                        lattice_cap: int = DEFAULT_LATTICE_CAP) -> Lattice:
    """Every subgroup of G, canonically ordered.

    Cyclic extension over zuppos (Neubüser 1960; GAP's
    ``LatticeByCyclicExtension``), restricted to normal extensions outside
    the solvable residuum R = G^(∞), the last term of G's derived series.
    A zuppo is a cyclic subgroup of prime-power order; every subgroup is
    generated by the zuppos it contains.  From the trivial subgroup on,
    one subgroup S per conjugacy class is extended by zuppos <c> not in
    S, where c has order p^k, under three rules:

    (a) Extend S by c only when c^p is in S.  This is complete.  List the
        zuppos <z_1>, ..., <z_r> of a subgroup T by increasing order.
        <z_i^p> is an earlier one (or trivial), so each prefix
        <z_1, ..., z_i> is the one before or an extension of it under
        (a), and the last is T, since every element is a product of
        powers of itself of prime-power order.
    (b) When c normalizes S, <S, c> = S ∪ Sc ∪ ... ∪ Sc^(p-1).  S<c> is
        then a group, and <c> ∩ S = <c^p>, the one maximal subgroup of
        <c>, as c is not in S; so [S<c> : S] = p.  The p cosets are read
        off the table with no closure scan.  c normalizes S as soon as it
        conjugates the generators that built S into S; worklist entries
        are S's member mask and those generators, and S's members are
        read off the mask once, when S is extended.
    (c) Skip a c that does not normalize S unless S ≤ R and c ∈ R; then
        close <S, c> by ``_cyclic_extension``.  Take any subgroup T.
        P = T^(∞) is perfect, so it lies in R.  The chain of (a) from 1
        to P passes only through subgroups of P and extends them by
        zuppos of P, so every step has S ≤ R and c ∈ R.  T/P is
        solvable, so P = T_0 < ... < T_m = T with T_i normal of prime
        index p in T_{i+1}.  Take z, the p-part of any element of
        T_{i+1} outside T_i: it lies outside T_i, normalizes it, and z^p
        is in T_i, so T_{i+1} = T_i<z> is an extension under (a) and
        (b).  In a solvable G, R = 1 and no extension is closed.

    Since <S, c>^g = <S^g, c^g> and R is normal, the conditions of (a),
    (b) and (c) hold for c at S exactly when they hold for c^g at S^g and
    for every generator of <c>.  So extending one representative per
    class reaches every subgroup: a new extension T brings in its whole
    orbit under conjugation by ``G.generators`` at once, and only T is
    extended later.  That ``G.generators`` generate G (every table
    constructor ensures it) makes each orbit a whole class, so no class
    is extended twice.  Both routes run through ``_extend``.  Raises
    LatticeCapExceeded as soon as more than lattice_cap subgroups are
    known.
    """
    residuum = derived_series(G).terms[-1].members
    zuppos = _zuppos(G)
    known = {1}
    worklist: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    for s_mask, s_gens in worklist:  # also visits appended entries
        s_elems = list(_bits(s_mask))
        for c, c_mask, cp_mask in zuppos:
            if c_mask & s_mask == c_mask or cp_mask & s_mask != cp_mask:
                continue
            t_mask = _extend(G, residuum, s_mask, s_elems, s_gens, c)
            if t_mask is None or t_mask in known:
                continue
            cls = _conjugacy_class(G, t_mask)
            if len(known) + len(cls) > lattice_cap:
                raise LatticeCapExceeded(f"more than {lattice_cap} subgroups")
            known.update(cls)
            worklist.append((t_mask, s_gens + (c,)))

    return _finish_lattice(G, known)


def oracle_enumerate_subgroups(G: GroupTable, max_gens: int) -> Lattice:
    """Closures of all generator tuples of size <= max_gens, deduplicated.

    Implemented level by level: level k+1 closes every level-k subgroup
    with every single element, which reaches exactly the subgroups whose
    minimal generator count is <= max_gens (levels that add nothing stop
    early).  Restricted to order <= 100.
    """
    if G.order > _ORACLE_MAX_ORDER:
        raise OracleScaleExceeded(
            f"oracle enumerator handles order <= {_ORACLE_MAX_ORDER}")
    if max_gens < 2:
        raise ValueError("max_gens must be >= 2")
    mult = G.mult
    known: dict[int, tuple[int, ...]] = {1: ()}
    level = [1]
    for _ in range(max_gens):
        nxt = []
        for s_mask in level:
            tup = known[s_mask]
            for x in range(1, G.order):
                if s_mask >> x & 1:
                    continue
                t_mask = _closure_mask(mult, tup + (x,))
                if t_mask not in known:
                    known[t_mask] = tup + (x,)
                    nxt.append(t_mask)
        if not nxt:
            break
        level = nxt
    return _finish_lattice(G, known.keys())


def locate_subgroup(lat: Lattice, generator_ids) -> int:
    """Index of the lattice member generated by the given element ids."""
    mask = _closure_mask(lat.parent.mult, sorted(set(generator_ids)))
    idx = lat.index_of_members.get(mask)
    if idx is None:
        raise NotFound("closure of the generators is missing from the lattice")
    return idx
