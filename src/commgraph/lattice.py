"""Complete subgroup lattice enumeration.

``enumerate_subgroups`` is Neubüser's cyclic extension method (1960), as in
GAP's ``LatticeByCyclicExtension``: from the trivial subgroup on, one
subgroup S per conjugacy class is extended by cyclic subgroups <c> of
prime-power order p^k (zuppos, listed by one walk over the powers of each
new generator c), until no new class appears; S is carried as its
member mask and generators.  Only c with c^p in S are tried; when c
normalizes S the extension is S's p cosets by the powers of c, read off
the table.  Every c normalizes a normal S, whose class has one member;
the worklist carries that flag, so a normal S is not tested again.  Any
other c is needed only when S and c lie in the solvable residuum G^(∞),
the last term of the derived series (trivial in a solvable group); those
extensions are closed by ``groups._grow``, the library's one closure
routine.  Once S has an extension T of prime index, every later c in T
is skipped at S: by Lagrange, <S, c> could only be T again.  Class
orbits come from ``groups._conjugacy_class`` under ``G.conjugations``:
the conjugations by the non-central members of the generating set that
the table's ``_greedy_witnesses`` keeps.  An orbit is walked over member
lists, each conjugate's list the image of the one before it.  The
enumerator keeps which class each subgroup fell in, and the lattice
keeps that record as ``Lattice.class_of``: one small int per subgroup,
the lattice index of the first member of its class in canonical order.
A subgroup is normal exactly when its class has one member, and a fact
that conjugation preserves (normal core, nilpotency) needs asking once
per class.

A lattice computes ``Lattice.index_matrix``, every index
[L[i] : L[i]∩L[j]], from one product M·Mᵀ of its 0/1 membership matrix
on first use, and keeps it.  ``Lattice.pair_codes`` is read off it by one
lookup, also on first use and then kept: one uint8 per pair, with bit k
set when the k-th prime of the group order divides either index of the
pair and the top bit set when neither subgroup contains the other.  An
index is a power of p exactly when no other prime divides it, so the
graphs of every prime and kind are masked compares of these codes; the
index matrix is read again only for the p-power exponents of edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LatticeCapExceeded, NotFound
from .groups import (
    GroupTable,
    SubgroupSet,
    _bits,
    _conjugacy_class,
    _grow,
    _normalizes,
    derived_series,
    factorize,
    subgroup_closure,
)

DEFAULT_LATTICE_CAP = 100000
# The largest float32 product M·Mᵀ that ``Lattice.index_matrix`` forms, in
# bytes: 4·m² ≤ 2³¹ holds up to m = 23,170 subgroups.
INDEX_MATRIX_BYTE_CAP = 2 ** 31
# the top bit of a pair code: neither subgroup contains the other
_NOT_CONTAINED = 0x80


@dataclass(frozen=True)
class Lattice:
    """All subgroups of a table in canonical order.

    Canonical order is (order, lexicographic membership bit-string with
    bit 0 first), making lattice indices stable across runs and platforms.
    class_of is the read-only array whose entry i is the lattice index of
    the first member, in canonical order, of L[i]'s conjugacy class in
    the parent: the members of a class share it, and i is its class's
    first member exactly when class_of[i] == i.  It is a function of the
    subgroups, so equality does not compare it.
    """

    parent: GroupTable
    subgroups: tuple[SubgroupSet, ...]
    index_of_members: dict[int, int] = field(repr=False)
    class_of: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.subgroups)

    @cached_property
    def index_matrix(self) -> np.ndarray:
        """The read-only m×m matrix of indices [L[i] : L[i]∩L[j]], from one
        product M·Mᵀ of the membership matrix M and one division, in
        place, on first use, then kept.  It does not depend on p or on the
        graph kind.  Raises LatticeCapExceeded when the m×m float32
        product would take more than ``INDEX_MATRIX_BYTE_CAP`` bytes."""
        m = len(self.subgroups)
        if 4 * m * m > INDEX_MATRIX_BYTE_CAP:
            raise LatticeCapExceeded(
                f"{m} subgroups: their index matrix would take {4 * m * m} "
                f"bytes, more than {INDEX_MATRIX_BYTE_CAP}")
        n = self.parent.order
        # float32 products are exact for counts below 2**24; an
        # intersection order divides the subgroup's order, so the float32
        # quotient is the exact index, and every index divides n, so the
        # index dtype holds it
        member = _membership_matrix(self).astype(np.float32)
        inter = member @ member.T
        orders = np.array([s.order for s in self.subgroups], dtype=np.float32)
        np.divide(orders[:, None], inter, out=inter)
        index = inter.astype(np.min_scalar_type(n))
        index.flags.writeable = False
        return index

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """The read-only symmetric m×m uint8 matrix that says, for each
        pair, which primes divide either index [L[i] : L[i]∩L[j]] or
        [L[j] : L[i]∩L[j]] (bit k for the k-th prime of the group order)
        and, in the top bit, whether neither subgroup contains the other.
        From one lookup of ``index_matrix`` on first use, then kept; it
        does not depend on p or on the graph kind."""
        primes = [q for q, _ in self.parent.order_factorization]
        # bit 7 is the containment bit; an eighth prime would need an
        # order of at least 2·3·5·7·11·13·17·19 = 9,699,690
        if len(primes) >= 8:
            raise AssertionError("pair codes hold at most 7 primes")
        k = np.arange(self.parent.order + 1)
        lookup = np.where(k > 1, _NOT_CONTAINED, 0).astype(np.uint8)
        for bit, q in enumerate(primes):
            lookup |= (k % q == 0).astype(np.uint8) << bit
        # half[i, j] codes [L[i] : L[i]∩L[j]], and its top bit says
        # L[i] ⊄ L[j]: the prime bits of the pair are the OR of both
        # halves, its top bit the AND.  The transpose is copied once, so
        # the bit operations run over contiguous rows.
        half = lookup.take(self.index_matrix)
        codes = half.T.copy()
        both = half & codes
        both |= _NOT_CONTAINED - 1
        codes |= half
        codes &= both
        codes.flags.writeable = False
        return codes


def _membership_matrix(lat: Lattice) -> np.ndarray:
    """The m×n 0/1 matrix whose row i has a 1 at each element of L[i]."""
    n = lat.parent.order
    width = (n + 7) // 8
    packed = b"".join(s.members.to_bytes(width, "little") for s in lat.subgroups)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


# byte b with its bits in reverse order: bit 0 becomes the top bit
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _lex_key(mask: int, n: int) -> bytes:
    """A key that sorts n-bit masks as their bit-strings with bit 0 first
    do: the little-endian bytes, each with its bits reversed."""
    return mask.to_bytes((n + 7) // 8, "little").translate(_REVERSED_BITS)


def _finish_lattice(G: GroupTable, classes: dict[int, int]) -> Lattice:
    """The lattice of the member masks that classes maps, each to a label
    that the masks of its conjugacy class share, in canonical order.  Only
    its endpoints are checked: the tests pin ``enumerate_subgroups``
    against the brute-force oracle and the known subgroup counts."""
    n = G.order
    subs = [SubgroupSet(G, m) for m in classes]
    subs.sort(key=lambda s: (s.order, _lex_key(s.members, n)))
    index = {s.members: i for i, s in enumerate(subs)}
    if 1 not in index or (1 << n) - 1 not in index:
        raise AssertionError("lattice must contain the trivial and full subgroups")
    first: dict[int, int] = {}  # class label -> its first lattice index
    class_of = np.array([first.setdefault(classes[s.members], i)
                         for i, s in enumerate(subs)],
                        dtype=np.min_scalar_type(len(subs)))
    class_of.flags.writeable = False
    return Lattice(G, tuple(subs), index, class_of)


def _zuppos(G: GroupTable) -> list[tuple[int, int]]:
    """Every cyclic subgroup of prime-power order > 1, once, as
    (c, c^p) for its generator c of order p^k, the smallest element id
    that generates it.  The generators of <c> are its powers c^j with p
    not dividing j: one walk over c's powers marks them all as seen."""
    mult, orders = G.mult, G.element_orders
    seen = bytearray(G.order)
    out = []
    for c in range(1, G.order):
        primes = [] if seen[c] else factorize(orders[c])
        if len(primes) != 1:
            continue
        p, y = primes[0][0], c  # y runs over c^j
        for j in range(1, orders[c] + 1):
            if j % p:
                seen[y] = 1
            elif j == p:
                out.append((c, y))
            y = mult[y][c]
    return out


def _extend(G: GroupTable, residuum: int, s_mask: int, s_elems: list[int],
            s_gens: tuple[int, ...], c: int, s_normal: bool) -> int | None:
    """The member mask of <S, c> for a zuppo c outside S with c^p in S, or
    None when c does not normalize S and S and c do not both lie in the
    solvable residuum, whose member mask is residuum (rule (c)).

    s_elems are S's members and s_gens generate S, so c normalizes S when
    S is normal in G (s_normal) or c conjugates each of s_gens into S.
    Then <S, c> is S, Sc, ..., Sc^(p-1) (rule (b)), each coset ORed into
    the mask off one table row; otherwise it is closed by ``_grow``.  That
    would give the same cosets for a normalizing c too, but testing every
    product x*c for membership as it goes made enumeration 80 % slower on
    abelian([2]*6), 57 % on p2q(13) and 16 % on bs(cyclic(3)) (medians of
    5 alternating fresh processes, best of 3 each, one BLAS thread, on a
    2-core x86-64 container).
    """
    mult = G.mult
    if not s_normal and not _normalizes(G, s_mask, s_gens, c):
        if not residuum >> c & 1 or s_mask | residuum != residuum:
            return None
        return _grow(mult, s_mask, s_elems, (c,))[0]
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
        are S's member mask, its member list, those generators and
        whether S is normal in G.  The list is read off the mask once,
        when S is found, and serves both S's class orbit and its
        extensions.  A normal S, whose class has one member, needs no
        test: every c normalizes it.
    (c) Skip a c that does not normalize S unless S ≤ R and c ∈ R; then
        close <S, c> by ``_grow``.  Take any subgroup T.
        P = T^(∞) is perfect, so it lies in R.  The chain of (a) from 1
        to P passes only through subgroups of P and extends them by
        zuppos of P, so every step has S ≤ R and c ∈ R.  T/P is
        solvable, so P = T_0 < ... < T_m = T with T_i normal of prime
        index p in T_{i+1}.  Take z, the p-part of any element of
        T_{i+1} outside T_i: it lies outside T_i, normalizes it, and z^p
        is in T_i, so T_{i+1} = T_i<z> is an extension under (a) and
        (b).  In a solvable G, R = 1 and no extension is closed.

    Prime-index cover: let T = <S, c> with [T : S] a prime p.  For every
    c' in T outside S, S < <S, c'> <= T, so <S, c'> = T by Lagrange, or
    c' is rejected under (a) or (c).  Each S therefore keeps one mask,
    done, of S and every extension of S found so far whose index is
    prime: every coset extension of (b), and every closure of (c) of
    prime index, whether new or already known.  A zuppo whose generator
    lies in done is skipped.  It could only give a subgroup already in
    known, so the worklist, its generators, the classes and the lattice
    are exactly those that trying every zuppo gives.

    Since <S, c>^g = <S^g, c^g> and R is normal, the conditions of (a),
    (b) and (c) hold for c at S exactly when they hold for c^g at S^g and
    for every generator of <c>.  So extending one representative per
    class reaches every subgroup: a new extension T brings in its whole
    orbit under conjugation at once, and only T is extended later.  The
    orbit is taken under ``G.conjugations``, the conjugations by the
    non-central members of the generating set that the table's
    ``_greedy_witnesses`` keeps.  The orbit under a set of conjugations is the orbit
    under the group they generate, and those members with the centre,
    which conjugates trivially, generate G.  So each orbit is a whole
    class, and no class is extended twice.  The class of T = <S, c> is
    taken with S's generators and c, which generate T, so a normal T is
    known as such without conjugating its mask.  Both routes run through
    ``_extend``.  Each mask is recorded with the worklist position of its
    class, which ``_finish_lattice`` turns into ``Lattice.class_of``.
    Raises LatticeCapExceeded as soon as more than
    lattice_cap subgroups are known (ValueError for a cap below 1).
    """
    if lattice_cap < 1:
        raise ValueError(f"lattice cap must be at least 1, got {lattice_cap}")
    residuum = derived_series(G)[-1].members
    primes = {p for p, _ in G.order_factorization}
    zuppos = _zuppos(G)
    known = {1: 0}  # member mask -> the worklist position of its class
    worklist: list[tuple[int, list[int], tuple[int, ...], bool]] = [
        (1, [0], (), True)]
    # also visits the entries appended below
    for s_mask, s_elems, s_gens, s_normal in worklist:
        done = s_mask  # S and every extension of S of prime index
        for c, cp in zuppos:  # <c^p> lies in the subgroup S when c^p does
            if done >> c & 1 or not s_mask >> cp & 1:
                continue
            t_mask = _extend(G, residuum, s_mask, s_elems, s_gens, c,
                             s_normal)
            if t_mask is None:
                continue
            if t_mask.bit_count() // len(s_elems) in primes:
                done |= t_mask
            if t_mask in known:
                continue
            t_elems = list(_bits(t_mask))
            t_gens = s_gens + (c,)
            cls = _conjugacy_class(G.conjugations, t_mask, t_gens, t_elems)
            if len(known) + len(cls) > lattice_cap:
                raise LatticeCapExceeded(f"more than {lattice_cap} subgroups")
            for mask in cls:
                known[mask] = len(worklist)
            worklist.append((t_mask, t_elems, t_gens, len(cls) == 1))

    return _finish_lattice(G, known)


def locate_subgroup(lat: Lattice, generator_ids) -> int:
    """Index of the lattice member generated by the given element ids;
    raises ValueError for an id that is not an integer or lies outside
    the table."""
    mask = subgroup_closure(lat.parent, generator_ids).members
    idx = lat.index_of_members.get(mask)
    if idx is None:
        raise NotFound("closure of the generators is missing from the lattice")
    return idx
