"""The brute-force subgroup enumerator, the tests' independent oracle for
``commgraph.lattice.enumerate_subgroups``; the conjugate of a member
mask and the conjugacy classes of member masks under every element, the
tests' check on the library's class orbits and class record; and the
zuppos of a table found by closing each element's cyclic subgroup, the
tests' check on the library's walk over powers.

The oracle reads a table only through its ``mult`` rows and ``order``.
It closes subgroups by its own loop (``closure_mask``), finds inverses
and conjugation permutations by its own search (``conjugations``) and
element orders as the sizes of cyclic closures.  It shares with the
library only the canonical sort and sanity checks of a finished lattice
(``lattice._finish_lattice``), so a change to the library's closure
(``groups._grow``), its inverses or its class orbits cannot change the
reference as well.
"""

from __future__ import annotations

from commgraph.errors import CommGraphError
from commgraph.groups import GroupTable
from commgraph.lattice import Lattice, _finish_lattice

_ORACLE_MAX_ORDER = 100


def closure_mask(mult, gens) -> int:
    """Member mask of the subgroup that gens generate: the identity, then
    every product of a member by a generator, until nothing new appears.
    In a finite group a set that holds 1 and is closed under right
    multiplication by gens is the subgroup they generate."""
    mask, members = 1, [0]
    for x in members:  # also visits the members appended below
        for g in gens:
            y = mult[x][g]
            if not mask >> y & 1:
                mask |= 1 << y
                members.append(y)
    return mask


def conjugations(G: GroupTable) -> list[list[int]]:
    """The permutation x -> g x g^-1 of G's element ids for every g, in id
    order, from ``mult`` alone: g^-1 is the column of the identity in g's
    row."""
    mult = G.mult
    out = []
    for g in range(G.order):
        g_inv = list(mult[g]).index(0)
        out.append([mult[mult[g][x]][g_inv] for x in range(G.order)])
    return out


def conjugate_mask(conj: list[int], mask: int) -> int:
    """Member mask of g S g^-1 for the subgroup S with the given mask, where
    conj is the permutation x -> g x g^-1: each member's bit moves to its
    image's."""
    out = 0
    for x, image in enumerate(conj):
        if mask >> x & 1:
            out |= 1 << image
    return out


def oracle_classes(G: GroupTable, masks) -> dict[int, int]:
    """Each of the given member masks -> the smallest mask of its
    conjugacy class: its orbit under conjugation by every element g of G,
    one ``conjugate_mask`` per g, taken once per class."""
    conjs = conjugations(G)
    out: dict[int, int] = {}
    for mask in masks:
        if mask not in out:
            orbit = {conjugate_mask(conj, mask) for conj in conjs}
            out.update(dict.fromkeys(orbit, min(orbit)))
    return out


def _prime_power_base(k: int) -> int | None:
    """The prime p when k = p^e with e >= 1, else None: p is the smallest
    divisor of k above 1, and k may have no other prime factor."""
    if k < 2:
        return None
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return p if k == 1 else None


def zuppos_by_closure(G: GroupTable) -> list[tuple[int, int]]:
    """Every cyclic subgroup of prime-power order > 1, once, as (c, c^p)
    for its generator c of order p^k, the smallest element id that
    generates it: each element is closed to its cyclic subgroup's mask,
    whose size is the element's order, and the first element of
    prime-power order with a new mask is c."""
    mult = G.mult
    seen: set[int] = set()
    out = []
    for x in range(1, G.order):
        mask = closure_mask(mult, (x,))
        p = _prime_power_base(mask.bit_count())
        if p is not None and mask not in seen:
            seen.add(mask)
            y = x
            for _ in range(p - 1):
                y = mult[y][x]
            out.append((x, y))
    return out


class OracleScaleExceeded(CommGraphError):
    """The brute-force enumerator was asked for a group beyond its scale."""


def oracle_enumerate_subgroups(G: GroupTable, max_gens: int) -> Lattice:
    """Closures of all generator tuples of size <= max_gens, deduplicated.

    Implemented level by level: level k+1 closes every level-k subgroup
    with every single element, which reaches exactly the subgroups whose
    minimal generator count is <= max_gens (levels that add nothing stop
    early).  With max_gens >= log2(order) it provably finds every
    subgroup.  Restricted to order <= 100.
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
                t_mask = closure_mask(mult, tup + (x,))
                if t_mask not in known:
                    known[t_mask] = tup + (x,)
                    nxt.append(t_mask)
        if not nxt:
            break
        level = nxt
    return _finish_lattice(G, oracle_classes(G, known))
