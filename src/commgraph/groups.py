"""Finite groups as dense multiplication tables, plus subgroup primitives.

Two immutable carriers underpin everything: ``GroupTable`` (the ambient
group, identity pinned at element id 0) and ``SubgroupSet`` (a membership
bit vector over one table).  All operations are pure functions of their
inputs; tables and subgroup sets are never mutated after construction, so
any number of operations may run concurrently over shared objects.  A
subgroup is its member mask: its witnesses are the canonical greedy ones
over its members, the one deferred value, computed on first read; every
read, in any thread, gives the same tuple.

A table is built from data, not from composing elements: each family
hands ``_assemble_table`` the right-multiplication map of each generator
over a space of integer codes, with the identity at code 0, and the
labels of the codes.  One breadth-first search, ``_bfs``, numbers the
elements, ``_generator_rows`` reads each generator's row along the BFS
tree, and ``_fill_rows`` makes every row from its parent's row and a
generator's.  The same search checks a table from outside, over its
generator columns.  Only a permutation group's closure
(``_permutation_closure``) composes elements, to find its code space.

Every group is proven a group once, by ``_prove_group``, which reads
only its generators' k rows and k columns, k²·n entries, with or
without a table: associativity is proven, not sampled, by Schreier's
lemma (Seress, *Permutation Group Algorithms*, 2003).  A transitive
group of permutations acts regularly exactly when its point stabiliser,
which Schreier generators generate, fixes each generator's point.  Maps
are proven before any table is filled (``_prove_maps``): the group is
the one their right multiplications generate, each right product read
along a BFS word, so ``constructions`` can also keep a group as its
proven action alone.  A table from outside is proven over the rows its
generators' left multiplications generate, after a check of every row
against a tree of right products over them, which reads every entry
once.  One routine picks every generating set, ``_greedy_witnesses``:
it keeps each candidate that the kept ones do not yet generate.  An
outside table is proven over the ids 1, 2, ... it keeps, a built
table's conjugations are those by the construction generators it keeps,
and a subgroup's witnesses are the members it keeps in ascending order.
A table is built row by row as an int16 ndarray (int32 above
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
that ``_greedy_witnesses`` keeps; with the centre these generate G.  Orbits
under them (``_conjugacy_class``) are whole conjugacy classes: they give
normal cores and the lattice enumerator's classes.  Given the subgroup's
generators, an orbit is first tested on them alone, so a normal
subgroup's class costs no conjugated mask.  g normalizes S when it
conjugates S's generators into S (``_normalizes``); only the lattice
enumerator then grows S by g without a closure.  Nilpotency closes
nothing: H is nilpotent when, for each prime p, at most |H|_p of its
members have p-power order, and the walk that counts them also collects
a p'-complement.  ``derived_series`` is the tuple of its terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

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


# ---------------------------------------------------------------------------
# the group table


class GroupTable:
    """A finite group with elements 0..order-1 and identity 0.

    Given a square array of ids in range, it checks that row 0 and
    column 0 are the identity maps.  Given generators mean a built table
    (``_assemble_table``), whose group its maps proved before the table
    was filled (``_prove_maps``), and which is that group's table by
    construction (``_fill_rows``).  None means a table from outside,
    which has passed ``_validate_table``: it is proven here, over the
    candidates that ``_greedy_witnesses`` keeps with the whole table as
    its mask, by ``_prove_group`` on their rows and columns, once one
    ``bincount`` per row has shown each of their rows to be a permutation
    and ``_check_rows`` has passed.  The array, narrowed to
    ``_entry_dtype``, is made read-only and kept as ``array``, the only
    storage: mult lists memoryviews of its rows, so mult[a][b], the id of
    a*b, is a plain int that cannot be written.  labels hold display
    strings for DOT/JSON output.  generators lists the construction
    generators' ids (empty for the trivial group), or the kept candidates
    when None is given.
    conjugations holds ``_conjugation`` by each kept candidate g that is
    not central (row g equals column g); with the centre these generate
    G, and central elements conjugate trivially, so an orbit under
    conjugations is a whole conjugacy class.  element_orders and inv come
    from one walk over powers (``_element_orders``).
    """

    identity = 0

    __slots__ = ("order", "array", "mult", "inv", "labels",
                 "order_factorization", "generators", "conjugations",
                 "element_orders")

    def __init__(self, tbl: np.ndarray, labels: list[str],
                 generators: tuple[int, ...] | None,
                 candidates: Iterable[int]):
        e = np.arange(len(tbl))  # the identity map
        if not (np.array_equal(tbl[0], e) and np.array_equal(tbl[:, 0], e)):
            raise InvalidGenerator("row/column 0 must be the identity maps")
        tbl = tbl.astype(_entry_dtype(len(tbl)), copy=False)
        tbl.flags.writeable = False
        self.order = len(tbl)
        self.array = tbl
        self.mult = _rows(tbl)
        kept = _greedy_witnesses(self.mult, candidates, (1 << self.order) - 1)
        if generators is None:
            generators = kept
            rows = tbl[list(kept)]
            for g, row in zip(kept, rows):
                if np.bincount(row, minlength=self.order).max() > 1:
                    raise InvalidGenerator(
                        f"row of generator {g} is not a permutation")
            _check_rows(tbl, kept)
            _prove_group(rows, tbl[:, list(kept)].T, kept)
        self.generators = generators
        self.labels = labels
        self.order_factorization = factorize(self.order)
        self.element_orders, self.inv = _element_orders(tbl)
        self.conjugations = tuple(
            _conjugation(self, g) for g in kept
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
    """Check that a table from outside is a non-empty square table of ids
    in range: raise InvalidGenerator with a reason otherwise.  A built
    table meets all three by construction (``_fill_rows``); the rest of
    the proof that a table is a group, identity first, is the
    ``GroupTable``'s, on both routes."""
    n = tbl.shape[0]
    if tbl.shape != (n, n):
        raise InvalidGenerator("multiplication table must be square")
    if n == 0:
        raise InvalidGenerator("empty multiplication table")
    if tbl.min() < 0 or tbl.max() >= n:
        raise InvalidGenerator("table entry out of range")


def _prove_group(rows: np.ndarray, cols: np.ndarray,
                 gens: Sequence[int]) -> None:
    """Prove that a product x*y over the ids 0..n-1, with identity 0, is a
    group, from the rows rows[i][y] = gens[i]*y and the columns
    cols[j][y] = y*gens[j] of generators gens, k x n arrays of ids in
    range; raise InvalidGenerator if it is not.  Nothing else is read:
    either premise below, which each caller checks first, makes the
    generators generate the whole product.

    A product given by maps (``_prove_maps``) is
    x*y = x·R_y, where the columns are the maps R_j: y -> y*gens[j], R_y
    composes them along y's BFS word, so it maps 0 to y, and each row was
    read along those words, rows[i][y] = gens[i]·R_y.  Let P be the group
    the R_j generate, once one ``bincount`` per column has shown each to
    be a permutation; P is transitive, and the product is a group exactly
    when P acts regularly, with x*y = x·R_y for R_y the one element of P
    that maps 0 to y.  A transitive P is regular exactly when its point
    stabiliser P_0 is trivial, that is normal, and P_0 is normal exactly
    when it fixes every point h of gens (R_h maps 0 to h, so it then
    normalizes P_0, and the R_h generate P).  By Schreier's lemma
    (Seress, *Permutation Group Algorithms*, 2003), the maps
    x -> ((x·R_y)·R_j)·R_{y*g_j}^-1 over every y and every j generate
    P_0, so the proof is that each fixes each h of gens,
    (h*y)*g_j == h*(y*g_j): cols[j][rows[i][y]] == rows[i][cols[j][y]],
    two k x n gathers per generator.

    A table from outside (``GroupTable``) is proven by the mirror
    argument over its row maps L_x: y -> x*y.  Its generators' rows must
    be permutations, and every row must lie in the group P they
    generate, which ``_check_rows`` checks against a tree of right
    products; as row 0 and column 0 are identity maps, L_y maps 0 to y,
    P is transitive, and the Schreier generators L_{g*b}^-1∘L_g∘L_b of
    P_0 fix each h of gens exactly when g*(b*h) == (g*b)*h: the same
    equation.
    """
    for g, row in zip(gens, rows):
        if not np.array_equal(row[cols], cols[:, row]):
            raise InvalidGenerator(f"associativity fails at generator {g}")


def _check_rows(tbl: np.ndarray, gens: Sequence[int]) -> None:
    """Check that every row of a table from outside lies in the group that
    the rows of gens generate, for ``_prove_group``: ``_bfs`` over the
    generator columns, the maps x -> x*g, reaches every id, and each row y
    it first reaches as x*g is row x gathered at the row of g,
    T[y] == T[x][T[g]], so L_y = L_x∘L_g.  Rows are compared in one block
    per generator, the rows its tree edges reach: every entry is read
    once.  Raise InvalidGenerator otherwise: in a group, the right
    products of generators reach every element and the rows compose."""
    order, parent, via, _ = _bfs(tbl[:, list(gens)].T.tolist())
    if len(order) < len(tbl):
        raise InvalidGenerator("associativity fails: the generators' "
                               "right products miss an element")
    order, vias = np.array(order), np.array(via)
    parents = order[parent]
    for j, g in enumerate(gens):
        at = np.flatnonzero(vias == j)
        ys, xs = order[at], parents[at]
        if not np.array_equal(tbl[ys], tbl[xs[:, None], tbl[g]]):
            raise InvalidGenerator(f"associativity fails at generator {g}")


def _entry_dtype(n: int) -> type:
    """The narrowest signed dtype that holds every element id of an order-n
    table: int16 up to order 2**15, which covers the default order cap."""
    return np.int16 if n <= 1 << 15 else np.int32


def _bfs(maps: Sequence[Sequence[int]]) -> tuple[list[int], list[int],
                                                 list[int], list[int]]:
    """Breadth-first search from code 0 over right-multiplication maps:
    maps[j][x] is the code of x*g_j, over the codes range(len(maps[0]))
    ({0} when there are no maps).  Each code is visited in turn, and each
    of its right products in generator order.  Returns (order, parent,
    via, place): order[i] is the code given id i, in the order first
    reached; id i > 0 was first reached as parent[i] * g_{via[i]}, parent
    being an id (parent[0] = 0, via[0] = -1); place[c] is the id of code
    c, or -1 for a code not reached.  The one numbering of a group's
    elements: it numbers built tables and checks tables from outside."""
    place = [-1] * (len(maps[0]) if maps else 1)
    place[0] = 0
    order, parent, via = [0], [0], [-1]
    for i, x in enumerate(order):  # also visits the codes appended below
        for j, m in enumerate(maps):
            y = m[x]
            if place[y] < 0:
                place[y] = len(order)
                order.append(y)
                parent.append(i)
                via.append(j)
    return order, parent, via, place


def _prove_maps(maps: Sequence[Sequence[int]]):
    """Number and prove the group that right-multiplication maps generate.

    maps[j][x] is the code of x*g_j over the codes range(len(maps[0])),
    with the identity at code 0, for distinct generators g_j other than
    the identity.  ``_bfs`` numbers the elements, the generator columns
    over ids, cols[j][i], are the maps read at each id's code, and
    ``_generator_rows`` reads the generator rows along the BFS tree; the
    generators get ids 1..k, in order, as the BFS reaches them first from
    the identity.  Once one ``bincount`` per column has shown each map
    to permute the ids, ``_prove_group`` proves that the maps generate a
    group that acts regularly on the ids it reaches, with x*y the image
    of x under the composition of the maps along y's BFS word.  Returns
    (order, parent, via, place, rows), the BFS and the generator rows.
    """
    order, parent, via, place = _bfs(maps)
    # take(..., axis=1) keeps cols C-contiguous, where [:, order] gives a
    # transposed layout on which the gathers are half as fast
    cols = np.array(place)[np.array(maps, dtype=np.intp).reshape(
        len(maps), len(place)).take(order, axis=1)]
    gens = cols[:, 0].tolist()  # the generators' ids
    for g, col in zip(gens, cols):
        if np.bincount(col, minlength=len(order)).max() > 1:
            raise InvalidGenerator(
                f"column of generator {g} is not a permutation")
    rows = _generator_rows(cols, parent, via)
    _prove_group(rows, cols, gens)
    return order, parent, via, place, rows


def _assemble_table(maps: Sequence[Sequence[int]], labels: Sequence[str]):
    """The table of the group that right-multiplication maps generate.

    maps[j][x] is the code of x*g_j over the codes range(len(labels)),
    and labels[c] is the label of code c.  ``_prove_maps`` numbers and
    proves the group, and ``_fill_rows`` fills its table from the
    generator rows with no product of two elements.  The table keeps the
    array as its rows and conjugates by the generators that
    ``_greedy_witnesses`` keeps when it scans them from last to first
    until they generate the whole table.

    Returns (GroupTable, codes), where codes[i] is the code of id i.
    """
    order, parent, via, _, rows = _prove_maps(maps)
    gen_ids = rows[:, 0].tolist()  # g*0 = g
    table = GroupTable(_fill_rows(rows, parent, via),
                       [labels[c] for c in order],
                       tuple(gen_ids), reversed(gen_ids))
    return table, order


def _generator_rows(cols: np.ndarray, parent: list[int],
                    via: list[int]) -> np.ndarray:
    """The generator rows of a ``_bfs`` numbering: cols[j][y] is the id of
    y*g_j, and each id y > 0 is parent[y] * g_{via[y]}, with parent[y] in
    an earlier level.

    rows[j][y] = g_j*y starts at rows[j][0] = cols[j][0], the id of g_j,
    and comes from rows[j][parent[y]] by one column lookup, level by
    level: g_j*y is g_j carried along y's BFS word.  A level is the run
    of ids whose parents precede its first id, and parent is ascending.
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
    return rows


def _fill_rows(rows: np.ndarray, parent: list[int],
               via: list[int]) -> np.ndarray:
    """The n x n table of a group that ``_prove_maps`` proved, from its
    generator rows: row y > 0 is row parent[y] gathered at
    rows[via[y]], as y = parent[y] * g_{via[y]} and the product is
    associative.  Row 0 is arange(n) and every other row is gathered from
    rows already written, so every entry is an id in range by
    construction.
    """
    n = rows.shape[1]
    tbl = np.empty((n, n), dtype=_entry_dtype(n))
    tbl[0] = np.arange(n)
    for y in range(1, n):
        # rows hold valid ids, so "clip" never clips; unlike the default
        # "raise" it writes to out without a buffered copy
        tbl[parent[y]].take(rows[via[y]], out=tbl[y], mode="clip")
    return tbl


def _permutation_closure(degree: int, reps: Sequence[tuple[int, ...]],
                         order_cap: int):
    """The group that permutation image tuples of {0..degree-1} generate,
    as ``_assemble_table``'s data: returns (maps, perms), where perms lists
    the elements in the order first reached, each a code (its index), and
    maps[j][x] is the code of perms[x] * g_j.  The generators are reps
    without the identity and repeats, in order.  Raises OrderCapExceeded
    as soon as the closure outgrows order_cap.  The one loop that composes
    representatives to find elements: every other family computes its
    maps over a code space known in advance."""
    identity = tuple(range(degree))
    gens = [g for g in dict.fromkeys(reps) if g != identity]
    perms = [identity]
    code = {identity: 0}
    maps: list[list[int]] = [[] for _ in gens]
    for x in perms:  # also visits the elements appended below
        for m, g in zip(maps, gens):
            y = tuple(map(x.__getitem__, g))  # (x*g)(i) = x(g(i))
            c = code.get(y)
            if c is None:
                if len(perms) >= order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeds the order cap ({order_cap})")
                c = code[y] = len(perms)
                perms.append(y)
            m.append(c)
    return maps, perms


def build_group_from_permutations(degree: int, generators: Iterable,
                                  *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Group generated by permutations of {1..degree}, given as cycle lists.

    Each generator is an iterable of cycles, e.g. [(1, 2)] or [(1, 2), (3, 4)].
    This is the library's input route for a permutation group outside the
    spec families; ``sym`` specs share its closure
    (``_permutation_closure``).
    """
    if order_cap < 1:
        raise ValueError(f"order cap must be at least 1, got {order_cap}")
    if not _is_int(degree) or degree < 1:
        raise InvalidGenerator(f"degree must be an integer >= 1, got {degree!r}")
    reps = [perm_from_cycles(degree, cycles) for cycles in generators]
    maps, perms = _permutation_closure(degree, reps, order_cap)
    return _assemble_table(maps, list(map(perm_label, perms)))[0]


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
    _validate_table(tbl)
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
    table's generators it gives the set whose conjugations the class
    orbits run over, and for a table from outside also the set that
    ``_prove_group`` runs over.  Raises ValueError when the closure ends
    anywhere other than mask: when the candidates do not generate it, or
    when mask is not a subgroup and the closure grows past it."""
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


def _nilpotent_walk(H: SubgroupSet, p: int) -> int | None:
    """One walk over H's members: the mask of those whose order p does not
    divide (none when p is 1), or None when H is not nilpotent.  H is
    nilpotent when, for each prime q, at most |H|_q of its members have
    order dividing |H|_q, a power of q: exactly that many when H's Sylow
    q-subgroup is unique (normal), and more otherwise.  The walk stops at
    the first member too many."""
    orders = H.parent.element_orders
    fact = factorize(H.order)
    left = {q: q ** e - 1 for q, e in fact}  # less the identity, order 1
    prime_of = {q ** i: q for q, e in fact for i in range(1, e + 1)}
    mask = 0
    for x in _bits(H.members):
        k = orders[x]
        q = prime_of.get(k)
        if q is not None:
            left[q] -= 1
            if left[q] < 0:
                return None
        if k % p:
            mask |= 1 << x
    return mask


def is_nilpotent_subgroup(H: SubgroupSet) -> bool:
    """True iff H is nilpotent, by counting element orders
    (``_nilpotent_walk``)."""
    return _nilpotent_walk(H, 1) is not None


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
    nilpotent (checked in the same walk over H's members)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mask = _nilpotent_walk(H, p)
    if mask is None:
        raise NotNilpotent("p'-complement requires a nilpotent subgroup")
    return SubgroupSet(H.parent, mask)
