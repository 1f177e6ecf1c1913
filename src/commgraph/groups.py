"""Finite groups as dense multiplication tables, plus subgroup primitives.

Two immutable carriers underpin everything: ``GroupTable`` (the ambient
group, identity pinned at element id 0) and ``SubgroupSet`` (a membership
bit vector over one table).  All operations are pure functions of their
inputs; tables and subgroup sets are never mutated after construction, so
any number of operations may run concurrently over shared objects.

Every table is validated before it is wrapped.  Associativity is proven,
not sampled, by Light's test (Clifford & Preston, *The Algebraic Theory of
Semigroups* I, 1961, section 1.2) over a generating set of the table: one
n x n comparison per generator rather than one per element.  A table is
built and checked as an int16 ndarray (int32 above order 2**15) and then
kept as rows of Python ints that all rows share: n int objects in all
rather than one per entry, so the scalar loops below index plain lists.

A subgroup passes between functions as its member mask and generators;
member lists exist only inside a closure loop.  Subgroups are closed by
one route, ``_cyclic_extension`` (one coset at a time; Neubüser 1960), and
conjugated by one, ``_conjugate_mask``, whose orbits under the table's
generators (``_conjugacy_class``) give normal cores and the lattice
enumerator's classes.  g normalizes S when it conjugates S's generators
into S (``_normalizes``); only the lattice enumerator then grows S by g
without a closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InvalidGenerator,
    NotContained,
    NotNilpotent,
    NotNormal,
    OrderCapExceeded,
    ParentMismatch,
)

DEFAULT_ORDER_CAP = 5000


# ---------------------------------------------------------------------------
# small number theory helpers


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; raises ValueError
    for n >= _MR_BOUND, where these bases no longer decide it."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(limit {_MR_BOUND})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_power_exponent(n: int, p: int) -> int | None:
    """Return k if n == p**k (k >= 0), else None; p must be at least 2."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if p < 2:
        raise ValueError(f"expected a base of at least 2, got {p}")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# permutation helpers (image-tuple form, 0-based internally, 1-based labels)


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Build a 0-based image tuple from 1-based disjoint cycles."""
    images = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        pts = [int(x) for x in cycle]
        if any(x < 1 or x > degree for x in pts):
            raise InvalidGenerator(f"cycle {tuple(cycle)} out of range 1..{degree}")
        if len(set(pts)) != len(pts) or seen & set(pts):
            raise InvalidGenerator(f"cycle {tuple(cycle)} repeats a point")
        seen.update(pts)
        for i, x in enumerate(pts):
            images[x - 1] = pts[(i + 1) % len(pts)] - 1
    return tuple(images)


def perm_label(images: Sequence[int]) -> str:
    """Cycle notation on 1-based points; the identity is rendered as 'e'."""
    seen: set[int] = set()
    parts = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        j = images[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = images[j]
        parts.append("(" + ",".join(str(x + 1) for x in cycle) + ")")
    return "".join(parts) if parts else "e"


def compose_permutations(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """(x*y)(i) = x(y(i))."""
    return tuple(x[y[i]] for i in range(len(x)))


# ---------------------------------------------------------------------------
# the group table


class GroupTable:
    """A finite group with elements 0..order-1 and identity 0.

    mult[a][b] is the id of a*b; inv[a] the id of a**-1.  mult is a list
    of row lists of plain ints, and every row holds the same n int objects
    0..n-1, so the table costs n² references, not n² ints.  labels hold
    display strings for DOT/JSON output.  generators lists the element ids
    of the construction generators (empty for the trivial group), and
    element_orders[x] is the order of element x.
    """

    identity = 0

    __slots__ = ("order", "mult", "inv", "labels", "order_factorization",
                 "generators", "element_orders")

    def __init__(self, mult: list[list[int]], inv: list[int], labels: list[str],
                 generators: tuple[int, ...]):
        self.order = len(mult)
        self.mult = mult
        self.inv = inv
        self.labels = labels
        self.order_factorization = factorize(self.order)
        self.generators = generators
        orders = [1] * self.order
        for x in range(1, self.order):
            y, k = x, 1
            while y != 0:
                y = mult[y][x]
                k += 1
            orders[x] = k
        self.element_orders = orders

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GroupTable order={self.order}>"


def _validate_table(tbl: np.ndarray) -> np.ndarray:
    """Check the group-table invariants other than associativity; return
    the inverse array.

    Raises InvalidGenerator with a reason when the table is not square, has
    an entry out of range, is not anchored at identity 0, or has a row
    without exactly one 0 entry.  Associativity needs a generating set of
    the table and is proven afterwards by ``_check_associative``.
    """
    n = tbl.shape[0]
    if tbl.shape != (n, n):
        raise InvalidGenerator("multiplication table must be square")
    if n == 0:
        raise InvalidGenerator("empty multiplication table")
    if tbl.min() < 0 or tbl.max() >= n:
        raise InvalidGenerator("table entry out of range")
    idx = np.arange(n)
    if not np.array_equal(tbl[0], idx) or not np.array_equal(tbl[:, 0], idx):
        raise InvalidGenerator("row/column 0 must be the identity maps")
    zero_counts = (tbl == 0).sum(axis=1)
    if not np.all(zero_counts == 1):
        raise InvalidGenerator("some element has no unique inverse")
    return np.argmax(tbl == 0, axis=1)


def _check_associative(tbl: np.ndarray, gens: Sequence[int]) -> None:
    """Prove associativity of a table that passed ``_validate_table`` by
    Light's test over gens; raise InvalidGenerator if it fails.

    For each generator a the test compares (x*a)*y with x*(a*y) for all x
    and y, as T[T[:, a], :] == T[:, T[a, :]], each side one ``take`` of
    whole rows or columns.  The elements a that pass
    contain the identity (row and column 0 are identity maps) and are
    closed under products, so they are the whole table as soon as every
    element is a left-nested product ((g1*g2)*g3)*... of gens in the table's
    own multiplication.  Callers must pass such a set: the BFS generators
    of ``_assemble_table`` or the greedy witnesses of the full table, whose
    right-multiplication closure is the whole table by construction.
    """
    for a in gens:
        if not np.array_equal(tbl.take(tbl[:, a], axis=0),
                              tbl.take(tbl[a, :], axis=1)):
            raise InvalidGenerator(f"associativity fails at generator {a}")


def _entry_dtype(n: int) -> type:
    """The narrowest signed dtype that holds every element id of an order-n
    table: int16 up to order 2**15, which covers the default order cap."""
    return np.int16 if n <= 1 << 15 else np.int32


def _shared_rows(tbl: np.ndarray) -> list[list[int]]:
    """tbl as row lists of plain ints, every row gathered from one object
    array of the n ints 0..n-1, so that the rows share n int objects."""
    ints = np.array(range(tbl.shape[0]), dtype=object)
    return [ints.take(row).tolist() for row in tbl]


def _assemble_table(identity_rep, generator_reps: list, compose: Callable,
                    label_of: Callable, order_cap: int):
    """BFS-close the generators and materialize the full n x n table.

    Element ids follow deterministic BFS from the identity with the given
    generator ordering.  Only the generator columns are computed by actual
    element composition, once per element and generator during the BFS;
    every other column y = x*g follows from the BFS tree via
    mult[a][y] = mult[mult[a][x]][g], filled vectorized into an ndarray of
    ``_entry_dtype(n)``.  That array is validated and proven associative,
    then kept as ``_shared_rows``.

    Returns (GroupTable, elements, index) where elements maps id -> rep and
    index maps rep -> id.
    """
    gens = []
    for g in generator_reps:
        if g != identity_rep and g not in gens:
            gens.append(g)

    elements = [identity_rep]
    index = {identity_rep: 0}
    tree: list[tuple[int, int] | None] = [None]
    cols: list[list[int]] = [[] for _ in gens]
    qi = 0
    while qi < len(elements):
        x_rep = elements[qi]
        for j, g in enumerate(gens):
            y = compose(x_rep, g)
            y_id = index.get(y)
            if y_id is None:
                if len(elements) + 1 > order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeds the order cap ({order_cap})")
                y_id = len(elements)
                index[y] = y_id
                elements.append(y)
                tree.append((qi, j))
            cols[j].append(y_id)
        qi += 1

    n = len(elements)
    gen_ids = [index[g] for g in gens]
    tbl = np.empty((n, n), dtype=_entry_dtype(n))
    tbl[:, 0] = np.arange(n)
    for j, col in enumerate(cols):
        tbl[:, gen_ids[j]] = col
    gen_id_set = set(gen_ids)
    for y in range(1, n):
        if y in gen_id_set:
            continue
        x, j = tree[y]  # type: ignore[misc]
        tbl[:, y] = tbl[tbl[:, x], gen_ids[j]]

    inv = _validate_table(tbl)
    _check_associative(tbl, gen_ids)
    table = GroupTable(_shared_rows(tbl), inv.tolist(),
                       [label_of(rep) for rep in elements],
                       tuple(gen_ids))
    return table, elements, index


def _permutation_group(degree: int, reps: list, order_cap: int):
    """_assemble_table over permutation image tuples of {0..degree-1}."""
    return _assemble_table(tuple(range(degree)), reps, compose_permutations,
                           perm_label, order_cap)


def _triangular_group(q: int, reps: list, order_cap: int):
    """_assemble_table over (a, b, d) triples encoding [[a, b], [0, d]] mod q."""

    def compose(x, y):
        return ((x[0] * y[0]) % q, (x[0] * y[1] + x[1] * y[2]) % q,
                (x[2] * y[2]) % q)

    return _assemble_table((1, 0, 1), reps, compose,
                           lambda r: f"({r[0]},{r[1]},{r[2]})", order_cap)


def build_group_from_permutations(degree: int, generators: Iterable,
                                  *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Group generated by permutations of {1..degree}, given as cycle lists.

    Each generator is an iterable of cycles, e.g. [(1, 2)] or [(1, 2), (3, 4)].
    """
    if degree < 1:
        raise InvalidGenerator("degree must be >= 1")
    reps = [perm_from_cycles(degree, cycles) for cycles in generators]
    return _permutation_group(degree, reps, order_cap)[0]


def build_group_from_matrices(q: int, generators: Iterable[Sequence[int]],
                              *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Group generated by invertible upper-triangular 2x2 matrices mod q.

    Generators are (a, b, d) triples encoding [[a, b], [0, d]]; q must be
    prime and a, d nonzero mod q.
    """
    if not is_prime(q):
        raise InvalidGenerator(f"modulus {q} is not prime")
    reps = []
    for g in generators:
        a, b, d = (int(x) % q for x in g)
        if a == 0 or d == 0:
            raise InvalidGenerator(f"matrix {tuple(g)} is not invertible mod {q}")
        reps.append((a, b, d))
    return _triangular_group(q, reps, order_cap)[0]


def build_group_from_table(mult: Sequence[Sequence[int]],
                           labels: Sequence[str] | None = None,
                           *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Group from an explicit multiplication table (identity must be id 0).

    Every entry must be an integer (Python or numpy, not bool) in range;
    anything else raises InvalidGenerator, before the table is narrowed to
    ``_entry_dtype``.
    """
    n = len(mult)
    if n > order_cap:
        raise OrderCapExceeded(f"table order {n} exceeds the cap ({order_cap})")
    try:
        kinds = set(map(type, chain.from_iterable(mult)))
    except TypeError:
        raise InvalidGenerator("malformed table: a row is not a sequence") from None
    if any(k is bool or not issubclass(k, (int, np.integer)) for k in kinds):
        raise InvalidGenerator("table entries must be integers")
    try:
        tbl = np.array(mult, dtype=np.int64)
    except ValueError as exc:
        raise InvalidGenerator(f"malformed table: {exc}") from None
    except OverflowError:
        raise InvalidGenerator("table entry out of range") from None
    inv = _validate_table(tbl)
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    elif len(labels) != n:
        raise InvalidGenerator("labels length does not match table order")
    tbl = tbl.astype(_entry_dtype(n))
    mult_rows = _shared_rows(tbl)
    generators = _greedy_witnesses(mult_rows, (1 << n) - 1)
    _check_associative(tbl, generators)
    return GroupTable(mult_rows, inv.tolist(), list(labels), generators)


# ---------------------------------------------------------------------------
# subgroup sets


def _cyclic_extension(mult: list[list[int]], s_mask: int,
                      s_elems: list[int], c: int) -> tuple[int, list[int]]:
    """<S, c> from S's members, one left coset of S at a time.

    The members found so far are always a union of left cosets yS, so they
    are closed under right multiplication by S; right multiplication by c
    either stays inside them or lands in a coset that is wholly new.  The
    returned list starts with s_elems.
    """
    mask, elems = s_mask, list(s_elems)
    for x in elems:  # also visits the members appended below
        y = mult[x][c]
        if not mask >> y & 1:
            row = mult[y]
            for s in s_elems:
                z = row[s]
                mask |= 1 << z
                elems.append(z)
    return mask, elems


def _closure_mask(mult: list[list[int]], gens: Sequence[int]) -> int:
    """Member mask of the subgroup that gens generate, grown from the
    trivial subgroup by one cyclic extension per generator it lacks."""
    mask, elems = 1, [0]
    for g in gens:
        if not mask >> g & 1:
            mask, elems = _cyclic_extension(mult, mask, elems, g)
    return mask


def _greedy_witnesses(mult: list[list[int]], mask: int) -> tuple[int, ...]:
    """Canonical irredundant generating list: scan member ids ascending,
    keep each element not yet generated.  Depends only on the member set,
    so serialized lattices reproduce identical witnesses.  Raises
    ValueError when the closure grows past the mask, as it does exactly
    when the mask is not a subgroup."""
    wits: list[int] = []
    closed, elems = 1, [0]
    for x in _bits(mask):
        if closed == mask:
            break
        if not closed >> x & 1:
            wits.append(x)
            closed, elems = _cyclic_extension(mult, closed, elems, x)
    if closed != mask:
        raise ValueError("member set is not a subgroup")
    return tuple(wits)


class SubgroupSet:
    """A subgroup of a GroupTable as a membership bit vector.

    Identity is member-set equality over the same parent table; witness
    lists are generating sets kept for labeling and normality checks.
    """

    __slots__ = ("parent", "members", "order", "witnesses")

    def __init__(self, parent: GroupTable, members: int,
                 witnesses: Sequence[int], *, validate: bool = True):
        self.parent = parent
        self.members = members
        self.order = members.bit_count()
        self.witnesses = tuple(witnesses)
        if not members & 1:
            raise ValueError("subgroup must contain the identity (bit 0)")
        if parent.order % self.order != 0:
            raise ValueError("subgroup order does not divide the group order")
        if validate:
            if _closure_mask(parent.mult, self.witnesses) != members:
                raise ValueError("witnesses do not generate the member set")

    @classmethod
    def from_members(cls, parent: GroupTable, members: int) -> "SubgroupSet":
        """Wrap a member mask, computing canonical greedy witnesses."""
        return cls(parent, members, _greedy_witnesses(parent.mult, members),
                   validate=False)

    def elements(self) -> Iterator[int]:
        return _bits(self.members)

    def __contains__(self, x: int) -> bool:
        return bool(self.members >> x & 1)

    def __len__(self) -> int:
        return self.order

    def issubset(self, other: "SubgroupSet") -> bool:
        return self.members & other.members == self.members

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupSet) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SubgroupSet order={self.order} of {self.parent.order}>"


def trivial_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, 1, (), validate=False)


def full_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, (1 << G.order) - 1, G.generators, validate=False)


def element_order(G: GroupTable, x: int) -> int:
    if not 0 <= x < G.order:
        raise ValueError(f"element id {x} out of range")
    return G.element_orders[x]


def subgroup_closure(G: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup containing the seed; witnesses are the seed itself
    (deduplicated, sorted)."""
    wits = tuple(sorted(set(int(x) for x in seed)))
    for x in wits:
        if not 0 <= x < G.order:
            raise ValueError(f"element id {x} out of range")
    return SubgroupSet(G, _closure_mask(G.mult, wits), wits, validate=False)


def _require_same_parent(A: SubgroupSet, B: SubgroupSet) -> None:
    if A.parent is not B.parent:
        raise ParentMismatch("subgroups live over different group tables")


def intersect(A: SubgroupSet, B: SubgroupSet) -> SubgroupSet:
    """A ∩ B; witnesses recomputed as a greedy minimal generating list."""
    _require_same_parent(A, B)
    return SubgroupSet.from_members(A.parent, A.members & B.members)


def index_of(B: SubgroupSet, A: SubgroupSet) -> int:
    """[B : A] for A a subgroup of B."""
    _require_same_parent(A, B)
    if A.members & B.members != A.members:
        raise NotContained("first argument must contain the second")
    return B.order // A.order


def product_set(A: SubgroupSet, Q: SubgroupSet) -> SubgroupSet:
    """The subgroup AQ = {aq}; Q must be normal in the parent group."""
    _require_same_parent(A, Q)
    G = A.parent
    if not is_normal(Q, full_subgroup(G)):
        raise NotNormal("second factor must be normal in the parent group")
    wits = tuple(sorted(set(A.witnesses) | set(Q.witnesses)))
    mask = _closure_mask(G.mult, wits)
    inter = (A.members & Q.members).bit_count()
    assert mask.bit_count() * inter == A.order * Q.order, \
        "|AQ| != |A||Q|/|A∩Q|"
    return SubgroupSet(G, mask, wits, validate=False)


def conjugate_subgroup(A: SubgroupSet, g: int) -> SubgroupSet:
    """The conjugate g A g^-1."""
    G = A.parent
    if not 0 <= g < G.order:
        raise ValueError(f"element id {g} out of range")
    mult, gi = G.mult, G.inv[g]
    row = mult[g]
    wits = tuple(mult[row[w]][gi] for w in A.witnesses)
    return SubgroupSet(G, _conjugate_mask(G, A.members, g), wits, validate=False)


def _conjugate_mask(G: GroupTable, mask: int, g: int) -> int:
    """Member mask of g S g^-1 for the subgroup S with the given mask."""
    mult, gi = G.mult, G.inv[g]
    row = mult[g]
    out = 0
    for a in _bits(mask):
        out |= 1 << mult[row[a]][gi]
    return out


def _normalizes(G: GroupTable, mask: int, gens: Sequence[int], g: int) -> bool:
    """True iff g normalizes the subgroup with the given member mask that
    gens generate: g conjugates each of gens into it."""
    mult, gi = G.mult, G.inv[g]
    row = mult[g]
    return all(mask >> mult[row[x]][gi] & 1 for x in gens)


def _conjugacy_class(G: GroupTable, mask: int) -> list[int]:
    """Masks of the orbit of a subgroup under conjugation by G.generators,
    starting with mask itself."""
    orbit = [mask]
    seen = {mask}
    for m in orbit:  # also visits the masks appended below
        for g in G.generators:
            image = _conjugate_mask(G, m, g)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def is_normal(A: SubgroupSet, B: SubgroupSet) -> bool:
    """True iff g A g^-1 = A for every generator witness g of B.

    Sufficient because the witnesses generate B; requires A <= B.
    """
    _require_same_parent(A, B)
    if A.members & B.members != A.members:
        raise NotContained("normality check requires A <= B")
    return all(_normalizes(A.parent, A.members, A.witnesses, g)
               for g in B.witnesses)


def normal_core(A: SubgroupSet, G: GroupTable) -> SubgroupSet:
    """Largest normal subgroup of G inside A: the intersection of A's
    conjugates, taken over its orbit under conjugation by G.generators.

    That orbit is A's whole conjugacy class because G.generators generate
    G, which every table builder ensures.
    """
    if A.parent is not G:
        raise ParentMismatch("subgroup does not live over the given table")
    mask = A.members
    for conjugate in _conjugacy_class(G, A.members):
        mask &= conjugate
    return SubgroupSet.from_members(G, mask)


# ---------------------------------------------------------------------------
# derived series, Sylow subgroups, structure flags


@dataclass(frozen=True)
class DerivedSeries:
    """G = G1 ⊵ G2 ⊵ ..., each term the commutator subgroup of the previous,
    ending at the first stable term."""

    terms: tuple[SubgroupSet, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(t.order for t in self.terms)


def _commutator_subgroup_mask(G: GroupTable, S: SubgroupSet) -> int:
    """Member mask of [S, S].

    Computed as the normal closure in S of all witness-pair commutators:
    the subgroup they generate is extended by every conjugate of one of
    its generators under a witness that it lacks.  That equals the
    subgroup generated by all commutators of S.
    """
    mult, inv = G.mult, G.inv
    wits = S.witnesses
    mask, elems = 1, [0]
    gens: list[int] = []
    for i, a in enumerate(wits):
        for b in wits[i:]:
            c = mult[mult[mult[a][b]][inv[a]]][inv[b]]
            if not mask >> c & 1:
                mask, elems = _cyclic_extension(mult, mask, elems, c)
                gens.append(c)
    for x in gens:  # also visits the generators appended below
        for g in wits:
            c = mult[mult[g][x]][inv[g]]
            if not mask >> c & 1:
                mask, elems = _cyclic_extension(mult, mask, elems, c)
                gens.append(c)
    return mask


def derived_series(G: GroupTable) -> DerivedSeries:
    terms = [full_subgroup(G)]
    while True:
        nxt = _commutator_subgroup_mask(G, terms[-1])
        if nxt == terms[-1].members:
            break
        terms.append(SubgroupSet.from_members(G, nxt))
        if nxt == 1:
            break
    return DerivedSeries(tuple(terms))


def sylow_subgroup(H: SubgroupSet, p: int) -> SubgroupSet:
    """A subgroup of H whose order is the exact p-part of |H|.

    p-subgroup ascent: grow a p-subgroup by adjoining, in ascending id
    order, a p-power-order element of H that normalizes the current
    subgroup.  Sylow theory guarantees such an element exists until the
    full p-part is reached, so the scan always progresses.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    G = H.parent
    m = H.order
    while m % p == 0:
        m //= p
    target = H.order // m
    if target == 1:
        return trivial_subgroup(G)
    orders = G.element_orders
    mask, elems = 1, [0]
    wits: tuple[int, ...] = ()
    while len(elems) < target:
        for x in _bits(H.members):
            if mask >> x & 1:
                continue
            if p_power_exponent(orders[x], p) is None:
                continue
            if _normalizes(G, mask, wits, x):
                wits += (x,)
                mask, elems = _cyclic_extension(G.mult, mask, elems, x)
                break
        else:  # pragma: no cover - impossible for a valid group table
            raise RuntimeError("p-subgroup ascent stalled")
    return SubgroupSet(G, mask, wits, validate=False)


def is_nilpotent_subgroup(H: SubgroupSet) -> bool:
    """True iff every Sylow subgroup of H is normal in H."""
    return all(is_normal(sylow_subgroup(H, p), H)
               for p, _ in factorize(H.order))


@dataclass(frozen=True)
class StructureFlags:
    is_abelian: bool
    is_nilpotent: bool
    is_metabelian: bool
    is_solvable: bool


def structure_flags(G: GroupTable) -> StructureFlags:
    return _structure_flags(G, derived_series(G))


def _structure_flags(G: GroupTable, series: DerivedSeries) -> StructureFlags:
    """structure_flags over a derived series of G that the caller holds.
    G is abelian when the series reaches 1 within one step (a perfect G
    has a one-term series that does not)."""
    solvable = series.terms[-1].order == 1
    abelian = solvable and len(series.terms) <= 2
    metabelian = solvable and len(series.terms) <= 3
    nilpotent = abelian or is_nilpotent_subgroup(full_subgroup(G))
    return StructureFlags(abelian, nilpotent, metabelian, solvable)


def p_prime_complement(H: SubgroupSet, p: int) -> SubgroupSet:
    """Elements of H of order coprime to p; a subgroup because H is
    nilpotent (checked)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_nilpotent_subgroup(H):
        raise NotNilpotent("p'-complement requires a nilpotent subgroup")
    orders = H.parent.element_orders
    mask = 0
    for x in H.elements():
        if orders[x] % p != 0:
            mask |= 1 << x
    return SubgroupSet.from_members(H.parent, mask)
