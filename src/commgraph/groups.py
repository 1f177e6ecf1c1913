"""Finite groups as dense multiplication tables, plus subgroup primitives.

Two immutable carriers underpin everything: ``GroupTable`` (the ambient
group, identity pinned at element id 0) and ``SubgroupSet`` (a membership
bit vector over one table).  All operations are pure functions of their
inputs; tables and subgroup sets are never mutated after construction, so
any number of operations may run concurrently over shared objects.  A
subgroup is its member mask: its witnesses are the canonical greedy ones
over its members, the one deferred value, computed on first read; every
read, in any thread, gives the same tuple.

Every table is proven a group once, as it is wrapped (``GroupTable``),
on both input routes.  Associativity is proven, not sampled, by Light's
test (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
section 1.2) over a generating set of the table: one n x n comparison
per generator rather than one per element, run over blocks of rows; the
table is then a group when those generators' rows are permutations.  One
routine picks every generating set, ``_greedy_witnesses``: it keeps each
candidate that the kept ones do not yet generate.  A built table is
proven over the generators it keeps from its construction generators,
and a subgroup's witnesses are the members it keeps in ascending order.
A table is built row by row and proven as an int16 ndarray (int32 above
order 2**15), which is then made read-only and kept as the table's only
storage: ``mult`` is a list of memoryviews of its rows, so
``mult[a][b]`` is a plain int and no row can be written.

A subgroup passes between functions as its member mask and generators;
member lists exist only inside a closure, a class orbit and the lattice
enumerator's worklist.  Subgroups are closed by one routine, ``_grow``,
which extends a subgroup by each element it lacks, one left coset at a
time (Neubüser 1960): every closure, generating set, commutator
subgroup, product and Sylow ascent goes through it.  They are
conjugated under the permutation x -> gxg^-1 (``_conjugation``): a
member list is mapped through it, and the image gives the conjugate's
mask.  The table keeps that permutation for each non-central generator
that Light's test ran over; with the centre these generate G.  Orbits
under them (``_conjugacy_class``) are whole conjugacy classes: they give
normal cores and the lattice enumerator's classes.  Given the subgroup's
generators, an orbit is first tested on them alone, so a normal
subgroup's class costs no conjugated mask.  g normalizes S when it
conjugates S's generators into S (``_normalizes``); only the lattice
enumerator then grows S by g without a closure.  Nilpotency closes
nothing: H is nilpotent when, for each prime p, at most |H|_p of its
members have p-power order.  ``derived_series`` is the tuple of its terms.
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


def _is_int(x) -> bool:
    """Whether x is a Python or numpy integer, not a bool."""
    return type(x) is not bool and isinstance(x, (int, np.integer))


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
    """Whether n is prime, by deterministic Miller-Rabin; False for
    anything but an integer (see ``_is_int``).  Raises ValueError for
    n >= _MR_BOUND, where these bases no longer decide it."""
    if not _is_int(n):
        return False
    n = int(n)
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
    """Build a 0-based image tuple from 1-based disjoint cycles.  Every
    point must be an integer (Python or numpy, not bool) in 1..degree;
    anything else raises InvalidGenerator."""
    images = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        try:
            pts = list(cycle)
        except TypeError:
            raise InvalidGenerator(f"cycle {cycle!r} is not a sequence") from None
        if not all(map(_is_int, pts)):
            raise InvalidGenerator(f"cycle {tuple(pts)} has a non-integer point")
        pts = [int(x) for x in pts]
        if any(x < 1 or x > degree for x in pts):
            raise InvalidGenerator(f"cycle {tuple(pts)} out of range 1..{degree}")
        if len(set(pts)) != len(pts) or seen & set(pts):
            raise InvalidGenerator(f"cycle {tuple(pts)} repeats a point")
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

    A table is proven a group once, here, on both input routes:
    ``_validate_table`` checks its shape, range and identity, and
    ``_check_associative`` proves the rest over the candidates that
    ``_greedy_witnesses`` keeps with the whole table as its mask.  The
    array, narrowed to ``_entry_dtype``, is made read-only and kept as
    ``array``, the only storage: mult lists memoryviews of its rows, so
    mult[a][b], the id of a*b, is a plain int that cannot be written.
    labels hold display strings for DOT/JSON output.  generators lists the
    construction generators' ids (empty for the trivial group), or the
    kept candidates when None is given.  conjugations holds
    ``_conjugation`` by each kept candidate g that is not central (row g
    equals column g); with the centre these generate G, and central
    elements conjugate trivially, so an orbit under conjugations is a
    whole conjugacy class.  element_orders and inv come from one walk
    over powers (``_element_orders``).
    """

    identity = 0

    __slots__ = ("order", "array", "mult", "inv", "labels",
                 "order_factorization", "generators", "conjugations",
                 "element_orders")

    def __init__(self, tbl: np.ndarray, labels: list[str],
                 generators: tuple[int, ...] | None,
                 candidates: Iterable[int]):
        _validate_table(tbl)
        tbl = tbl.astype(_entry_dtype(len(tbl)), copy=False)
        tbl.flags.writeable = False
        self.order = len(tbl)
        self.array = tbl
        self.mult = _rows(tbl)
        proof = _greedy_witnesses(self.mult, candidates, (1 << self.order) - 1)
        _check_associative(tbl, proof)
        self.labels = labels
        self.order_factorization = factorize(self.order)
        self.generators = proof if generators is None else generators
        self.element_orders, self.inv = _element_orders(tbl)
        self.conjugations = tuple(
            _conjugation(self, g) for g in proof
            if not np.array_equal(tbl[g], tbl[:, g]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GroupTable order={self.order}>"


def _rows(tbl: np.ndarray) -> list[memoryview]:
    """The rows of a C-contiguous n x n table as memoryviews, each a slice
    of one flat view: no numpy row view is made, and every row shares one
    buffer export.  A read-only table gives read-only rows."""
    n = len(tbl)
    flat = memoryview(tbl).cast("B").cast(tbl.dtype.char)
    return [flat[i:i + n] for i in range(0, n * n, n)]


def _element_orders(tbl: np.ndarray) -> tuple[list[int], list[int]]:
    """Order and inverse of every element of a group table, as lists, from
    one walk: power[i] is todo[i]**k, and each pass multiplies every power
    not yet the identity by its base in one gather.  The power just before
    the identity is the base's inverse."""
    orders = np.ones(len(tbl), dtype=np.intp)
    inv = np.zeros(len(tbl), dtype=np.intp)
    todo = np.arange(1, len(tbl))
    power = todo
    k = 1
    while todo.size:
        k += 1
        last, power = power, tbl[power, todo]
        done = power == 0
        orders[todo[done]] = k
        inv[todo[done]] = last[done]
        todo, power = todo[~done], power[~done]
    return orders.tolist(), inv.tolist()


def _validate_table(tbl: np.ndarray) -> None:
    """Check that tbl is a non-empty square table of ids in range with
    identity 0: raise InvalidGenerator with a reason otherwise.  The rest
    of the proof that it is a group is ``_check_associative``'s."""
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


# entries per block of rows in Light's test: 512 KB per int16 temporary
_ASSOC_BLOCK = 1 << 18


def _check_associative(tbl: np.ndarray, gens: Sequence[int]) -> None:
    """Prove that a table that passed ``_validate_table`` is a group, by
    Light's test over gens and one ``bincount`` per generator's row; raise
    InvalidGenerator if either fails.

    For each generator a the test compares (x*a)*y with x*(a*y) for all x
    and y, as T[T[:, a], :] == T[:, T[a, :]], each side one ``take`` per
    block of rows of about _ASSOC_BLOCK entries, so that no n x n
    temporary lives beside the table.  Every block is written into the
    same three buffers: a new temporary per block would be mapped and
    faulted in afresh each time, which took two thirds of the test's time
    at order 4352.

    The elements a that pass contain the identity (row and column 0 are
    identity maps) and are closed under products: if a and b pass, so
    does a*b.  So every product of gens passes, in any bracketing, and
    the elements that pass are the whole table as soon as every element
    is such a product in the table's own multiplication.  Callers pass the
    generators that ``_greedy_witnesses`` keeps with the full table as
    its mask.  Its closure, ``_grow``, only ever forms products x*c and
    y*s of elements it has already reached, starting from the identity
    and the generators; so when that closure is the full mask, every
    element is such a product and the test is a proof.

    The table is then a finite monoid, and a group when every row is a
    permutation (every x has some y with x*y = 0).  Associativity gives
    L_xg = L_x∘L_g for the row maps L_x: y -> x*y, so every row is a
    composition of the rows of gens: only their k·n entries are checked.
    """
    n = tbl.shape[0]
    for a in gens:
        if np.bincount(tbl[a], minlength=n).max() > 1:
            raise InvalidGenerator(f"row of generator {a} is not a permutation")
    step = min(n, max(1, _ASSOC_BLOCK // n))
    left = np.empty((step, n), dtype=tbl.dtype)
    right = np.empty_like(left)
    same = np.empty(left.shape, dtype=bool)
    for a in gens:
        for lo in range(0, n, step):
            m = min(step, n - lo)
            # entries are in range, so "clip" never clips; unlike the
            # default "raise" it writes to out without a buffered copy
            tbl.take(tbl[lo:lo + m, a], axis=0, out=left[:m], mode="clip")
            tbl[lo:lo + m].take(tbl[a], axis=1, out=right[:m], mode="clip")
            if not np.equal(left[:m], right[:m], out=same[:m]).all():
                raise InvalidGenerator(f"associativity fails at generator {a}")


def _entry_dtype(n: int) -> type:
    """The narrowest signed dtype that holds every element id of an order-n
    table: int16 up to order 2**15, which covers the default order cap."""
    return np.int16 if n <= 1 << 15 else np.int32


def _assemble_table(identity_rep, generator_reps: list, compose: Callable,
                    label_of: Callable, order_cap: int):
    """BFS-close the generators and materialize the full n x n table.

    Element ids follow deterministic BFS from the identity with the given
    generator ordering, and compose(x, g) is called once per element and
    generator; the product families pass integer codes with a compose that
    reads a precomputed right-multiplication map.  The BFS records each
    element's tree edge y = x*g_j and the generator columns.  The rest
    needs no per-element composition:

    - the row of each generator follows from g*y = (g*x)*g_j, one gather
      per BFS level for all generators at once;
    - every row y = x*g_j is then row x gathered at the row of g_j,
      T[y] = T[x][T[g_j]], one contiguous ``take`` into an array of
      ``_entry_dtype(n)``.

    The ``GroupTable`` proves that array a group over the generators that
    ``_greedy_witnesses`` keeps when it scans them from last to first
    until they generate the whole table, keeps the array as its rows and
    conjugates by those generators.

    Returns (GroupTable, elements, index) where elements maps id -> rep and
    index maps rep -> id.
    """
    gens = []
    for g in generator_reps:
        if g != identity_rep and g not in gens:
            gens.append(g)

    elements = [identity_rep]
    index = {identity_rep: 0}
    parent, via = [0], [0]  # the tree edge y = parent[y] * gens[via[y]]
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
                parent.append(qi)
                via.append(j)
            cols[j].append(y_id)
        qi += 1

    gen_ids = [index[g] for g in gens]
    tbl = _fill_rows(np.array(cols, dtype=np.intp).reshape(
        len(gens), len(elements)), parent, via)
    table = GroupTable(tbl, [label_of(rep) for rep in elements],
                       tuple(gen_ids), reversed(gen_ids))
    return table, elements, index


def _fill_rows(cols: np.ndarray, parent: list[int],
               via: list[int]) -> np.ndarray:
    """The n x n table of a BFS: cols[j][x] is the id of x*g_j, and each
    y > 0 is parent[y] * g_{via[y]}, with parent[y] in an earlier level.

    rows[j][y] = g_j*y starts at rows[j][0] = cols[j][0], the id of g_j,
    and comes from rows[j][parent[y]] by one column lookup, level by
    level; a level is the run of ids whose parents precede its first id,
    and parent is ascending.
    """
    rows = np.empty_like(cols)
    rows[:, 0] = cols[:, 0]
    n = cols.shape[1]
    parents = np.array(parent, dtype=np.intp)
    vias = np.array(via, dtype=np.intp)
    lo = 1
    while lo < n:
        hi = int(np.searchsorted(parents, lo))
        rows[:, lo:hi] = cols[vias[lo:hi], rows[:, parents[lo:hi]]]
        lo = hi
    tbl = np.empty((n, n), dtype=_entry_dtype(n))
    tbl[0] = np.arange(n)
    for y in range(1, n):
        # rows hold valid ids, so "clip" never clips; unlike the default
        # "raise" it writes to out without a buffered copy
        tbl[parent[y]].take(rows[via[y]], out=tbl[y], mode="clip")
    return tbl


def _permutation_group(degree: int, reps: list, order_cap: int):
    """_assemble_table over permutation image tuples of {0..degree-1}."""
    return _assemble_table(tuple(range(degree)), reps, compose_permutations,
                           perm_label, order_cap)


def build_group_from_permutations(degree: int, generators: Iterable,
                                  *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Group generated by permutations of {1..degree}, given as cycle lists.

    Each generator is an iterable of cycles, e.g. [(1, 2)] or [(1, 2), (3, 4)].
    This is the library's input route for a permutation group outside the
    spec families; ``sym`` specs share its table builder.
    """
    if order_cap < 1:
        raise ValueError(f"order cap must be at least 1, got {order_cap}")
    if not _is_int(degree) or degree < 1:
        raise InvalidGenerator(f"degree must be an integer >= 1, got {degree!r}")
    reps = [perm_from_cycles(degree, cycles) for cycles in generators]
    return _permutation_group(degree, reps, order_cap)[0]


def build_group_from_table(mult: Sequence[Sequence[int]],
                           labels: Sequence[str] | None = None,
                           *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Group from an explicit multiplication table (identity must be id 0).

    This is the library's input route for a group known only by its
    table, outside the spec families.  Every entry must be an integer
    (Python or numpy, not bool) in range; anything else raises
    InvalidGenerator, before the table is narrowed to ``_entry_dtype``.
    It is then proven a group as a built table is, over the ids 1, 2, ...
    that ``_greedy_witnesses`` keeps, its generators: that is all its
    validation.
    """
    if order_cap < 1:
        raise ValueError(f"order cap must be at least 1, got {order_cap}")
    n = len(mult)
    if n > order_cap:
        raise OrderCapExceeded(f"table order {n} exceeds the cap ({order_cap})")
    try:  # one entry of each type
        samples = {type(x): x for x in chain.from_iterable(mult)}
    except TypeError:
        raise InvalidGenerator("malformed table: a row is not a sequence") from None
    if not all(map(_is_int, samples.values())):
        raise InvalidGenerator("table entries must be integers")
    try:
        tbl = np.array(mult, dtype=np.int64)
    except ValueError as exc:
        raise InvalidGenerator(f"malformed table: {exc}") from None
    except OverflowError:
        raise InvalidGenerator("table entry out of range") from None
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    elif len(labels) != n:
        raise InvalidGenerator("labels length does not match table order")
    return GroupTable(tbl, list(labels), None, range(1, n))


# ---------------------------------------------------------------------------
# subgroup sets


def _grow(mult: list[list[int]], mask: int, elems: list[int],
          xs: Iterable[int]) -> tuple[int, list[int], list[int]]:
    """Extend the subgroup S with member mask mask and member list elems
    by each of xs that it lacks, in order; return the mask and member
    list of the result and the xs kept.  The one closure routine.

    Each extension by c goes one left coset of S at a time (Neubüser
    1960): the members found so far are a union of left cosets yS, closed
    under right multiplication by S, so right multiplication by c stays
    inside them or lands in a wholly new coset.  The new list starts with
    the old one, which is never written.  On a table not yet proven a
    group a member may be listed twice; the list is then read off the
    mask again, or it could double with each x kept."""
    kept: list[int] = []
    for c in xs:
        if mask >> c & 1:
            continue
        kept.append(c)
        s_elems, elems = elems, list(elems)
        for x in elems:  # also visits the members appended below
            y = mult[x][c]
            if not mask >> y & 1:
                row = mult[y]
                for s in s_elems:
                    z = row[s]
                    mask |= 1 << z
                    elems.append(z)
        if len(elems) != mask.bit_count():
            elems = list(_bits(mask))
    return mask, elems, kept


def _greedy_witnesses(mult: list[list[int]], candidates: Iterable[int],
                      mask: int) -> tuple[int, ...]:
    """The candidates, in the given order, that the ones kept before them
    do not yet generate, up to the first set that generates mask.  The
    one routine that picks generators: ascending over a subgroup's
    members it gives canonical witnesses that depend only on the member
    set, so serialized lattices reproduce identical witnesses; over a
    table's generators it gives the set that Light's test and the class
    orbits run over.  Raises ValueError when the closure ends anywhere
    other than mask: when the candidates do not generate it, or when mask
    is not a subgroup and the closure grows past it."""
    wits: list[int] = []
    closed, elems = 1, [0]
    for x in candidates:
        if closed == mask:
            break
        if not closed >> x & 1:  # most candidates are members by now
            wits.append(x)
            closed, elems, _ = _grow(mult, closed, elems, (x,))
    if closed != mask:
        raise ValueError("candidates do not generate the member set, "
                         "or it is not a subgroup")
    return tuple(wits)


class SubgroupSet:
    """A subgroup of a GroupTable as a membership bit vector, checked for
    range, the identity bit and Lagrange's theorem and otherwise taken on
    trust.  Identity is member-set equality over the same parent table.

    Its witnesses, a generating set for labeling and normality checks, are
    the canonical greedy ones: the members that the smaller ones do not
    yet generate.  They are computed on first read and kept, as most
    subgroups of a lattice are never labeled; reading them raises
    ValueError when the mask is not a subgroup.
    """

    __slots__ = ("parent", "members", "order", "_witnesses")

    def __init__(self, parent: GroupTable, members: int):
        self.parent = parent
        self.members = members
        self.order = members.bit_count()
        self._witnesses: tuple[int, ...] | None = None
        if members >> parent.order:
            raise ValueError(f"member mask has a bit outside the "
                             f"{parent.order} elements of the table")
        if not members & 1:
            raise ValueError("subgroup must contain the identity (bit 0)")
        if parent.order % self.order != 0:
            raise ValueError("subgroup order does not divide the group order")

    @property
    def witnesses(self) -> tuple[int, ...]:
        if self._witnesses is None:
            self._witnesses = _greedy_witnesses(
                self.parent.mult, _bits(self.members), self.members)
        return self._witnesses

    def elements(self) -> Iterator[int]:
        return _bits(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupSet) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SubgroupSet order={self.order} of {self.parent.order}>"


def trivial_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, 1)


def full_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, (1 << G.order) - 1)


def subgroup_closure(G: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup containing the seed; raises ValueError for an id
    that is not an integer (Python or numpy, not bool) or names no
    element of G."""
    ids = list(seed)
    for x in ids:
        if not _is_int(x):
            raise ValueError(f"element id {x!r} is not an integer")
        if not 0 <= x < G.order:
            raise ValueError(f"element id {x} out of range")
    return SubgroupSet(G, _grow(G.mult, 1, [0], map(int, ids))[0])


def _require_same_parent(A: SubgroupSet, B: SubgroupSet) -> None:
    if A.parent is not B.parent:
        raise ParentMismatch("subgroups live over different group tables")


def intersect(A: SubgroupSet, B: SubgroupSet) -> SubgroupSet:
    """A ∩ B."""
    _require_same_parent(A, B)
    return SubgroupSet(A.parent, A.members & B.members)


def product_set(A: SubgroupSet, Q: SubgroupSet) -> SubgroupSet:
    """The subgroup AQ = {aq}; Q must be normal in the parent group: every
    permutation of ``G.conjugations`` maps Q's witnesses into Q, which
    holds exactly when Q is normal (see ``GroupTable``).  AQ = <A, Q> is
    grown from A's members by Q's witnesses, so A's are never read."""
    _require_same_parent(A, Q)
    G = A.parent
    if not _fixes(G.conjugations, Q.members, Q.witnesses):
        raise NotNormal("second factor must be normal in the parent group")
    mask = _grow(G.mult, A.members, list(_bits(A.members)), Q.witnesses)[0]
    inter = (A.members & Q.members).bit_count()
    assert mask.bit_count() * inter == A.order * Q.order, \
        "|AQ| != |A||Q|/|A∩Q|"
    return SubgroupSet(G, mask)


def _conjugation(G: GroupTable, g: int) -> list[int]:
    """The permutation x -> g x g^-1 of G's element ids, as a list: column
    g^-1 of the table gathered at row g."""
    tbl = G.array
    return tbl[tbl[g], G.inv[g]].tolist()


def _mask_of(ids: Iterable[int]) -> int:
    """The mask with bit x set for each x in ids."""
    out = 0
    for x in ids:
        out |= 1 << x
    return out


def _normalizes(G: GroupTable, mask: int, gens: Sequence[int], g: int) -> bool:
    """True iff g normalizes the subgroup with the given member mask that
    gens generate: g conjugates each of gens into it."""
    mult, gi = G.mult, G.inv[g]
    row = mult[g]
    for x in gens:
        if not mask >> mult[row[x]][gi] & 1:
            return False
    return True


def _conjugacy_class(conjugations: Sequence[list[int]], mask: int,
                     gens: Sequence[int] = (),
                     members: list[int] | None = None) -> list[int]:
    """Masks of the orbit of a subgroup under the given ``_conjugation``
    permutations, starting with mask itself: its orbit under the group
    that their elements generate.

    gens, if given, generate the subgroup.  When every permutation maps
    every one of gens into the mask, each maps the subgroup into itself,
    and so onto itself, as a conjugate has the same order: the orbit is
    [mask], found without conjugating a mask.  Otherwise the orbit is
    walked in full, over member lists: members, if given, lists the
    subgroup's members (else they are read off the mask), and each
    conjugate's list is its permutation image, from which its mask is
    built, so no conjugate's mask is walked bit by bit."""
    if gens and _fixes(conjugations, mask, gens):
        return [mask]
    orbit = [mask]
    member_lists = [list(_bits(mask)) if members is None else members]
    seen = {mask}
    for elems in member_lists:  # also visits the lists appended below
        for conj in conjugations:
            image = [conj[a] for a in elems]
            image_mask = _mask_of(image)
            if image_mask not in seen:
                seen.add(image_mask)
                orbit.append(image_mask)
                member_lists.append(image)
    return orbit


def _fixes(conjugations: Sequence[list[int]], mask: int,
           gens: Sequence[int]) -> bool:
    """True iff every permutation maps every one of gens into the mask."""
    for conj in conjugations:
        for x in gens:
            if not mask >> conj[x] & 1:
                return False
    return True


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
    conjugates, taken over its orbit under ``G.conjugations``, which is
    A's whole conjugacy class (see ``GroupTable``).  A normal A is its
    own core, found from its witnesses without conjugating a mask.
    """
    if A.parent is not G:
        raise ParentMismatch("subgroup does not live over the given table")
    mask = A.members
    for conjugate in _conjugacy_class(G.conjugations, A.members,
                                      A.witnesses):
        mask &= conjugate
    return SubgroupSet(G, mask)


# ---------------------------------------------------------------------------
# derived series, Sylow subgroups, structure flags


def _commutator_subgroup_mask(G: GroupTable, wits: Sequence[int]) -> int:
    """Member mask of [S, S], where wits generate S.

    Computed as the normal closure in S of all witness-pair commutators:
    the subgroup they generate is extended by every conjugate of one of
    its generators under a witness that it lacks.  That equals the
    subgroup generated by all commutators of S.
    """
    mult, inv = G.mult, G.inv
    mask, elems, gens = _grow(mult, 1, [0], (
        mult[mult[mult[a][b]][inv[a]]][inv[b]]
        for i, a in enumerate(wits) for b in wits[i:]))
    for x in gens:  # also visits the generators appended below
        mask, elems, kept = _grow(mult, mask, elems, (
            mult[mult[g][x]][inv[g]] for g in wits))
        gens += kept
    return mask


def derived_series(G: GroupTable) -> tuple[SubgroupSet, ...]:
    """G's derived series G = G1 ⊵ G2 ⊵ ..., to its first stable term.
    G's own commutators are taken over its construction generators, so
    G's canonical witnesses are not computed."""
    terms = [full_subgroup(G)]
    wits = G.generators
    while True:
        nxt = _commutator_subgroup_mask(G, wits)
        if nxt == terms[-1].members:
            break
        terms.append(SubgroupSet(G, nxt))
        wits = terms[-1].witnesses
    return tuple(terms)


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
    target = p ** dict(factorize(H.order)).get(p, 0)
    if target == 1:
        return trivial_subgroup(G)
    orders = G.element_orders
    mask, elems = 1, [0]
    gens: list[int] = []  # the ascent's generators, for _normalizes
    while len(elems) < target:
        for x in _bits(H.members):
            if mask >> x & 1:
                continue
            if p_power_exponent(orders[x], p) is None:
                continue
            if _normalizes(G, mask, gens, x):
                gens.append(x)
                mask, elems, _ = _grow(G.mult, mask, elems, (x,))
                break
        else:  # pragma: no cover - impossible for a valid group table
            raise RuntimeError("p-subgroup ascent stalled")
    return SubgroupSet(G, mask)


def is_nilpotent_subgroup(H: SubgroupSet) -> bool:
    """True iff H has, for each prime p, at most |H|_p elements whose order
    divides |H|_p: exactly that many when H's Sylow p-subgroup is unique
    (normal), and more otherwise.  Stops at the first element too many."""
    orders = H.parent.element_orders
    for p, e in factorize(H.order):
        part = left = p ** e
        for x in _bits(H.members):
            left -= part % orders[x] == 0
            if left < 0:
                return False
    return True


@dataclass(frozen=True)
class StructureFlags:
    is_abelian: bool
    is_nilpotent: bool
    is_metabelian: bool
    is_solvable: bool


def structure_flags(G: GroupTable) -> StructureFlags:
    """Whether G is abelian, metabelian and solvable, read from its
    derived series (abelian when it reaches 1 within one step: a perfect
    G has a one-term series that does not), and whether it is nilpotent."""
    series = derived_series(G)
    solvable = series[-1].order == 1
    abelian = solvable and len(series) <= 2
    metabelian = solvable and len(series) <= 3
    nilpotent = is_nilpotent_subgroup(full_subgroup(G))
    return StructureFlags(abelian, nilpotent, metabelian, solvable)


def p_prime_complement(H: SubgroupSet, p: int) -> SubgroupSet:
    """Elements of H of order coprime to p; a subgroup because H is
    nilpotent (checked)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_nilpotent_subgroup(H):
        raise NotNilpotent("p'-complement requires a nilpotent subgroup")
    orders = H.parent.element_orders
    mask = _mask_of(x for x in H.elements() if orders[x] % p)
    return SubgroupSet(H.parent, mask)
