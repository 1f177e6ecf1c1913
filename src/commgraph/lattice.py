"""Complete subgroup lattice enumeration, plus a brute-force cross-check.

``enumerate_subgroups`` seeds with every distinct cyclic subgroup and then
extends known subgroups by single cyclic generators to a fixpoint, which
finds every subgroup (each subgroup is generated by finitely many cyclic
subgroups).  ``oracle_enumerate_subgroups`` instead closes all generator
tuples of bounded size, level by level; with max_gens >= log2(order) it
provably finds every subgroup, independently of the fixpoint route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import LatticeCapExceeded, NotFound, OracleScaleExceeded
from .groups import GroupTable, SubgroupSet, _closure_list

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


def enumerate_subgroups(G: GroupTable,
                        lattice_cap: int = DEFAULT_LATTICE_CAP) -> Lattice:
    """Every subgroup of G, canonically ordered.

    Fixpoint: for each known subgroup S and each representative c of a
    cyclic subgroup not inside S, add the closure of S and c if new.
    """
    mult = G.mult
    cyclic_reps: list[tuple[int, int]] = []  # (representative element, mask)
    seen_cyclic: set[int] = set()
    for x in range(1, G.order):
        mask, _ = _closure_list(mult, (x,))
        if mask not in seen_cyclic:
            seen_cyclic.add(mask)
            cyclic_reps.append((x, mask))

    known: dict[int, tuple[int, ...]] = {1: ()}
    worklist: list[int] = [1]
    for x, mask in cyclic_reps:
        if mask not in known:
            known[mask] = (x,)
            worklist.append(mask)

    qi = 0
    while qi < len(worklist):
        s_mask = worklist[qi]
        s_wits = known[s_mask]
        qi += 1
        for c, c_mask in cyclic_reps:
            if c_mask & s_mask == c_mask:
                continue
            wits = s_wits + (c,)
            t_mask, _ = _closure_list(mult, wits)
            if t_mask not in known:
                if len(known) + 1 > lattice_cap:
                    raise LatticeCapExceeded(
                        f"more than {lattice_cap} subgroups")
                known[t_mask] = wits
                worklist.append(t_mask)

    return _finish_lattice(G, known.keys())


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
