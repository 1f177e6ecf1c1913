"""Complete subgroup lattice enumeration, plus a brute-force cross-check.

``enumerate_subgroups`` is Neubüser's cyclic extension method (1960), as in
GAP's ``LatticeByCyclicExtension``: from the trivial subgroup on, one
subgroup per conjugacy class is extended by every cyclic subgroup of
prime-power order it lacks, until no new class appears.  The extension
and the class orbit are the ``groups`` primitives that close and conjugate
every other subgroup.  ``oracle_enumerate_subgroups`` instead closes all
generator tuples of bounded size, level by level; with max_gens >=
log2(order) it provably finds every subgroup, independently of the
cyclic-extension route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import LatticeCapExceeded, NotFound, OracleScaleExceeded
from .groups import (
    GroupTable,
    SubgroupSet,
    _closure_list,
    _conjugacy_class,
    _cyclic_extension,
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
    by_order: dict[int, list[int]] = field(repr=False)
    index_of_members: dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.subgroups)


def _lex_key(mask: int, n: int) -> str:
    return format(mask, f"0{n}b")[::-1]


def _finish_lattice(G: GroupTable, masks) -> Lattice:
    n = G.order
    subs = [SubgroupSet.from_members(G, m) for m in masks]
    subs.sort(key=lambda s: (s.order, _lex_key(s.members, n)))
    by_order: dict[int, list[int]] = {}
    index_of = {}
    for i, s in enumerate(subs):
        by_order.setdefault(s.order, []).append(i)
        index_of[s.members] = i
    lat = Lattice(G, tuple(subs), by_order, index_of)
    _check_lattice(lat)
    return lat


def _check_lattice(lat: Lattice) -> None:
    """Sanity invariants: endpoints present, Lagrange, and closure under
    intersection on >= 200 seeded sample pairs."""
    G = lat.parent
    full = (1 << G.order) - 1
    if 1 not in lat.index_of_members or full not in lat.index_of_members:
        raise AssertionError("lattice must contain the trivial and full subgroups")
    for s in lat.subgroups:
        if G.order % s.order != 0:
            raise AssertionError("subgroup order does not divide the group order")
    m = len(lat.subgroups)
    if m >= 2:
        rng = random.Random(_SAMPLE_SEED)
        for _ in range(200):
            a = lat.subgroups[rng.randrange(m)]
            b = lat.subgroups[rng.randrange(m)]
            if (a.members & b.members) not in lat.index_of_members:
                raise AssertionError("lattice not closed under intersection")


def _zuppos(G: GroupTable) -> list[tuple[int, int]]:
    """Every cyclic subgroup of prime-power order > 1, once, as
    (generator, mask); the generator is the smallest element id that
    generates it."""
    seen: set[int] = set()
    out = []
    for x in range(1, G.order):
        if len(factorize(G.element_orders[x])) != 1:
            continue
        mask, _ = _closure_list(G.mult, (x,))
        if mask not in seen:
            seen.add(mask)
            out.append((x, mask))
    return out


def enumerate_subgroups(G: GroupTable,
                        lattice_cap: int = DEFAULT_LATTICE_CAP) -> Lattice:
    """Every subgroup of G, canonically ordered.

    Cyclic extension over zuppos (Neubüser 1960; GAP's
    ``LatticeByCyclicExtension``): every subgroup is generated by the
    cyclic subgroups of prime-power order it contains, so extending by one
    such zuppo at a time from the trivial subgroup reaches every subgroup.
    Since <S, c>^g = <S^g, c^g>, only one representative per conjugacy
    class is extended: a new extension T brings in its whole orbit under
    conjugation by ``G.generators`` at once, and only T is extended later.
    Completeness needs only that the known subgroups stay closed under the
    conjugations used; that ``G.generators`` generate G (every table
    builder ensures it) is what makes each orbit a whole class, so no class
    is extended twice.  Each extension is closed coset by coset from S's
    member list (``_cyclic_extension``).  Raises LatticeCapExceeded as soon
    as more than lattice_cap subgroups are known.
    """
    mult = G.mult
    zuppos = _zuppos(G)
    known = {1}
    worklist: list[tuple[int, list[int]]] = [(1, [0])]
    for s_mask, s_elems in worklist:  # also visits the entries appended below
        for c, c_mask in zuppos:
            if c_mask & s_mask == c_mask:
                continue
            t_mask, t_elems = _cyclic_extension(mult, s_mask, s_elems, c)
            if t_mask in known:
                continue
            cls = _conjugacy_class(G, t_mask)
            if len(known) + len(cls) > lattice_cap:
                raise LatticeCapExceeded(f"more than {lattice_cap} subgroups")
            known.update(cls)
            worklist.append((t_mask, t_elems))

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
                t_mask, _ = _closure_list(mult, tup + (x,))
                if t_mask not in known:
                    known[t_mask] = tup + (x,)
                    nxt.append(t_mask)
        if not nxt:
            break
        level = nxt
    return _finish_lattice(G, known.keys())


def locate_subgroup(lat: Lattice, generator_ids) -> int:
    """Index of the lattice member generated by the given element ids."""
    mask, _ = _closure_list(lat.parent.mult, sorted(set(generator_ids)))
    idx = lat.index_of_members.get(mask)
    if idx is None:
        raise NotFound("closure of the generators is missing from the lattice")
    return idx
