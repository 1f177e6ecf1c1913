"""Builders for the group families the toolkit studies.

A ``GroupSpec`` is a declarative recursive description; ``construct`` turns
it into a ``GroupTable`` with deterministic element ids (BFS from the
identity over a fixed generator ordering).  ``construct_detailed`` also
returns the concrete element representations, which the verification
suites use to locate specific elements such as transpositions or
coordinate-slot generators.

Every family is built from data (``_data``): each element has an
integer code, the identity code 0, and each generator's right
multiplication is a list over all codes, beside each code's label,
formatted only when a table reads it, and rep.  Both routes hand the
maps and reps to one ``groups.GroupAction``, which proves the group and
numbers its elements by the ids its table has: ``construct_detailed``
has it fill the table, and reads each element's label off by its id,
while ``construct_action`` keeps the action alone, with no table: its
order, each id's rep, a rep -> id index, and the closure of any ids as
a member mask over ids.

Cyclic groups code k as k, dihedral groups r^k s^e as 2k + e, and the
other families code an element in mixed radix over its coordinates,
all by one routine (``_coordinates``): the factors' ids for a direct
product (and so abelian); the four H ids and the sym(4) id of the
permutation for bs; a - 1, b and d - 1 for the upper-triangular matrix
[[a, b], [0, d]] of p2q.  Their maps are computed with numpy over all
codes at once, and direct and bs share the map that multiplies one
coordinate by a factor's generators (``_coordinate_maps``).  bs reads
Sym4's maps, labels and reps off the table of sym(4), so only the
closure that ``sym`` shares with ``build_group_from_permutations``
composes two reps; it codes each permutation by the order it is found in.

Every call builds a new table or action; nothing here is cached.  The
program's one cache across calls is in ``commgraph.verify``, the layer
that repeats work over a fixed corpus, beside the values an object keeps
about itself: ``Lattice.index_matrix``, ``Lattice.pair_codes`` and
``SubgroupSet.witnesses``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidSpec, OrderCapExceeded, SpecSyntaxError
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupAction,
    GroupTable,
    _is_int,
    _permutation_closure,
    is_prime,
    perm_from_cycles,
    perm_label,
)

SPEC_KINDS = ("sym", "cyclic", "dihedral", "abelian", "direct", "p2q", "bs")
MAX_SPEC_DEPTH = 4
# an order-cap error names the spec by at most this many characters
_ERROR_NAME_CHARS = 80


@dataclass(frozen=True)
class GroupSpec:
    """One variant of sym/cyclic/dihedral/abelian/direct/p2q/bs."""

    kind: str
    n: int = 0
    factors: tuple[int, ...] = ()
    parts: tuple["GroupSpec", ...] = ()


def sym(n: int) -> GroupSpec:
    return GroupSpec("sym", n=n)


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", n=n)


def dihedral(n: int) -> GroupSpec:
    return GroupSpec("dihedral", n=n)


def abelian(factors) -> GroupSpec:
    return GroupSpec("abelian", factors=tuple(factors))


def direct(parts) -> GroupSpec:
    return GroupSpec("direct", parts=tuple(parts))


def p2q(q: int) -> GroupSpec:
    return GroupSpec("p2q", n=q)


def bs(inner: GroupSpec) -> GroupSpec:
    return GroupSpec("bs", parts=(inner,))


def spec_to_doc(spec: GroupSpec):
    """The spec as a plain one-key JSON object: a numpy integer in it is
    written as a Python int, and a float raises TypeError, not truncated."""
    if spec.kind in ("sym", "cyclic", "dihedral", "p2q"):
        return {spec.kind: operator.index(spec.n)}
    if spec.kind == "abelian":
        return {"abelian": list(map(operator.index, spec.factors))}
    if spec.kind == "direct":
        return {"direct": [spec_to_doc(p) for p in spec.parts]}
    return {"bs": spec_to_doc(spec.parts[0])}


def spec_from_doc(doc) -> GroupSpec:
    """Parse a one-key spec object; raises InvalidSpec on bad structure or
    on nesting deeper than MAX_SPEC_DEPTH."""
    return _spec_from_doc(doc, 1)


def _spec_from_doc(doc, depth: int) -> GroupSpec:
    """The document's JSON structure is checked here, and every value by
    ``_checked``; only documents are refused sym 0 and empty lists."""
    if depth > MAX_SPEC_DEPTH:
        raise InvalidSpec(f"spec nesting deeper than {MAX_SPEC_DEPTH}")
    if not isinstance(doc, dict) or len(doc) != 1:
        raise InvalidSpec("a group spec is an object with exactly one key")
    key, value = next(iter(doc.items()))
    if key == "abelian" and (not isinstance(value, list) or not value):
        raise InvalidSpec("abelian takes a non-empty list of positive integers")
    if key == "direct" and (not isinstance(value, list) or not value):
        raise InvalidSpec("direct takes a non-empty list of specs")
    if key == "abelian":
        spec = GroupSpec(key, factors=tuple(value))
    elif key == "direct":
        spec = GroupSpec(key, parts=tuple(_spec_from_doc(v, depth + 1)
                                          for v in value))
    elif key == "bs":
        spec = GroupSpec(key, parts=(_spec_from_doc(value, depth + 1),))
    else:
        spec = GroupSpec(key, n=value)
    if _checked(spec).kind == "sym" and spec.n == 0:
        raise InvalidSpec("sym takes a positive integer")
    return spec


def _checked(spec: GroupSpec) -> GroupSpec:
    """The spec, if its top node names a group; else raise InvalidSpec
    with the reason.  The one check of a spec's values, for documents and
    the Python API alike; the Python API also takes sym(0), abelian([])
    and direct([]), the trivial group."""
    if not isinstance(spec, GroupSpec):
        raise InvalidSpec(f"a spec node must be a GroupSpec, "
                          f"not {type(spec).__name__}")
    kind, n = spec.kind, spec.n
    if kind not in SPEC_KINDS:
        raise InvalidSpec(f"unknown group kind {kind!r}")
    if not all(_is_int(x) and x >= 1 for x in spec.factors):
        raise InvalidSpec("abelian takes a non-empty list of positive integers")
    if kind in ("sym", "cyclic", "dihedral", "p2q") and (
            not _is_int(n) or n < (kind != "sym")):
        raise InvalidSpec(f"{kind} takes a positive integer")
    try:
        prime = kind != "p2q" or is_prime(int(n))
    except ValueError as exc:  # too large to decide
        raise InvalidSpec(str(exc)) from None
    if not prime:
        raise InvalidSpec(f"p2q modulus {n} must be prime")
    return spec


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec document; syntax errors carry the offending position."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(str(exc), position=exc.pos) from None
    except RecursionError:
        raise InvalidSpec("spec nested too deeply to decode") from None
    return spec_from_doc(doc)


def spec_name(spec: GroupSpec) -> str:
    """Short canonical display name, e.g. sym(4) or bs(cyclic(3))."""
    if spec.kind in ("sym", "cyclic", "dihedral", "p2q"):
        return f"{spec.kind}({spec.n})"
    if spec.kind == "abelian":
        return "abelian(" + "x".join(str(x) for x in spec.factors) + ")"
    if spec.kind == "direct":
        return "direct(" + ",".join(spec_name(p) for p in spec.parts) + ")"
    return f"bs({spec_name(spec.parts[0])})"


def _order(spec: GroupSpec, cap: float) -> int:
    """The order of spec if it is at most cap, else some number above cap:
    each product formula stops at its first partial product above cap."""
    if spec.kind == "sym":
        factors = range(2, spec.n + 1)
    elif spec.kind == "abelian":
        factors = spec.factors
    elif spec.kind in ("direct", "bs"):
        factors = [_order(p, cap) for p in spec.parts]
        if spec.kind == "bs":  # 24|H|^4
            factors = [24] + factors * 4
    else:
        n = spec.n
        factors = {"cyclic": (n,), "dihedral": (2, n),
                   "p2q": (n, n - 1, n - 1)}[spec.kind]
    order = 1
    for f in factors:  # every factor is at least 1
        order *= f
        if order > cap:
            break
    return order


@dataclass
class BuiltGroup:
    """A constructed table together with its concrete element reps."""

    table: GroupTable
    elements: list = field(repr=False)
    index: dict = field(repr=False)


# a builder's data: right-multiplication maps over codes, labels and reps;
# the labels are a lazy iterable, formatted only when a table reads them
_Data = tuple[list[list[int]], Iterable[str], Sequence]


def _data(spec: GroupSpec, order_cap: int | None) -> tuple[_Data, int]:
    """The builder's data for spec and the group's order, once the spec is
    checked: each node of the spec is checked as ``spec_from_doc`` checks
    it, and the cap is enforced against the predicted order, computed
    only until it passes the cap, before any materialization; a cap below
    1, which no group meets, raises ValueError."""
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    if cap < 1:
        raise ValueError(f"order cap must be at least 1, got {cap}")
    level = [spec]  # level by level, not recursively: specs may be deep
    for _ in range(MAX_SPEC_DEPTH):
        level = [p for s in level for p in _checked(s).parts]
    if level:
        raise InvalidSpec(f"spec nesting deeper than {MAX_SPEC_DEPTH}")
    predicted = _order(spec, cap)
    if predicted > cap:
        name = spec_name(spec)
        if len(name) > _ERROR_NAME_CHARS:
            name = name[:_ERROR_NAME_CHARS] + "…"
        raise OrderCapExceeded(f"{name} has order above the cap {cap}")
    return _BUILDERS[spec.kind](spec, cap), predicted


def construct_detailed(spec: GroupSpec, order_cap: int | None = None) -> BuiltGroup:
    """Construct the group, returning the table plus element reps.

    Every call builds a new table from the builder's data: its
    ``GroupAction`` proves the group, numbers the elements and fills the
    table, and the label and rep of each element are read off by the id
    it is given.  The spec and cap are checked first (``_data``)."""
    (maps, labels, reps), predicted = _data(spec, order_cap)
    action = GroupAction(maps, reps)
    assert action.order == predicted
    return BuiltGroup(action.table(list(labels)), action.elements,
                      action.index)


def construct_action(spec: GroupSpec) -> GroupAction:
    """The group as its proven right-multiplication action, with no
    table: the same data, checks, proof and ids as ``construct_detailed``
    under the default cap, whose n×n table is never filled, and whose
    labels are never formatted."""
    (maps, _, reps), predicted = _data(spec, None)
    action = GroupAction(maps, reps)
    assert action.order == predicted
    return action


def construct(spec: GroupSpec, order_cap: int | None = None) -> GroupTable:
    return construct_detailed(spec, order_cap).table


def _build_sym(spec: GroupSpec, cap: int) -> _Data:
    n = spec.n
    gens = []
    if n >= 2:
        gens.append(perm_from_cycles(n, [(1, 2)]))
    if n >= 3:
        gens.append(perm_from_cycles(n, [tuple(range(1, n + 1))]))
    maps, perms = _permutation_closure(n, gens, cap)
    return maps, map(perm_label, perms), perms


def _build_cyclic(spec: GroupSpec, cap: int) -> _Data:
    """The integers mod n, each its own code, generated by 1."""
    n = spec.n
    maps = [[(x + 1) % n for x in range(n)]] if n > 1 else []
    return maps, map(str, range(n)), range(n)


def _build_dihedral(spec: GroupSpec, cap: int) -> _Data:
    """r^k s^e, coded 2k + e, generated by r (code 2) and s (code 1):
    (r^k s^e)·r = r^(k ± 1) s^e, with - when e = 1, and (r^k s^e)·s
    flips e."""
    n = spec.n
    codes = range(2 * n)
    r = [2 * ((x // 2 + 1 - 2 * (x % 2)) % n) + x % 2 for x in codes]
    s = [x ^ 1 for x in codes]
    labels = (("e" if x == 0 else f"r{x // 2}") if x % 2 == 0 else
              ("s" if x == 1 else f"r{x // 2}s") for x in codes)
    return [r, s] if n > 1 else [s], labels, [(x // 2, x % 2) for x in codes]


def _build_abelian(spec: GroupSpec, cap: int) -> _Data:
    """The direct product of the cyclic factors, under the abelian spec."""
    return _build_direct(direct([cyclic(n) for n in spec.factors]), cap)


def _build_direct(spec: GroupSpec, cap: int) -> _Data:
    # a repeated factor is built once; the factor tables are only read
    built = {p: construct_detailed(p, cap).table for p in dict.fromkeys(spec.parts)}
    tables = [built[p] for p in spec.parts]
    coding = _coordinates([t.order for t in tables])
    maps = [m for i, t in enumerate(tables)
            for m in _coordinate_maps(coding, i, t)]
    labels = ("(" + ",".join(parts) + ")"
              for parts in product(*(t.labels for t in tables)))
    return maps, labels, list(map(tuple, coding[1].tolist()))


def _coordinates(orders: Sequence[int]):
    """The mixed-radix coding over coordinates of the given orders, the
    first most significant: returns (codes, ids, strides), where codes is
    every code in turn, ids[c, i] is coordinate i of code c, and
    c = sum(ids[c, i] * strides[i]).  The zero coordinates code 0."""
    strides = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))],
                       dtype=np.intp)
    codes = np.arange(math.prod(orders))
    ids = codes[:, None] // strides % np.array(orders, dtype=np.intp)
    return codes, ids, strides


def _coordinate_maps(coding, coord, table: GroupTable) -> list[list[int]]:
    """The right multiplication of a ``_coordinates`` coding by each of
    table's generators in one coordinate: each code c changes its
    coordinate coord[c] (or coord, a single index for every code), an id
    x of table, to x*g."""
    codes, ids, strides = coding
    x = ids[codes, coord]
    return [(codes + (table.array[x, g] - x) * strides[coord]).tolist()
            for g in table.generators]


def _build_p2q(spec: GroupSpec, cap: int) -> _Data:
    """Invertible upper-triangular 2x2 matrices mod q, as (a, b, d) triples
    encoding [[a, b], [0, d]].  Right multiplication by y is
    (a, b, d)·y = (a·y_a, a·y_b + b·y_d, d·y_d) mod q, so each generator's
    map over every code is a few whole-array operations."""
    q = spec.n
    # the coordinates are a - 1, b and d - 1; the identity (1, 0, 1) is code 0
    shift = np.array([[1], [0], [1]])
    _, ids, strides = _coordinates([q - 1, q, q - 1])
    a, b, d = ids.T + shift
    gens = [(1, 1, 1)]
    if q > 2:
        g = _primitive_root(q)
        gens += [(g, 0, 1), (1, 0, g)]
    maps = [(strides @ (np.stack([a * y[0], a * y[1] + b * y[2], d * y[2]])
                        % q - shift)).tolist() for y in gens]
    reps = list(zip(a.tolist(), b.tolist(), d.tolist()))
    return maps, (f"({x},{y},{z})" for x, y, z in reps), reps


def _primitive_root(q: int) -> int:
    for g in range(2, q):
        x, k = g, 1
        while x != 1:
            x = (x * g) % q
            k += 1
        if k == q - 1:
            return g
    raise InvalidSpec(f"no primitive root mod {q}")  # pragma: no cover


def _build_bs(spec: GroupSpec, cap: int) -> _Data:
    """H^4 x| Sym4, coded in mixed radix over the four H ids and the
    sym(4) id of the permutation.  Sym4 acts on the four coordinate slots
    from the left: (sigma.v)_i = v_{sigma^-1(i)}, and (u, sigma)(v, tau) =
    (u * sigma.v, sigma tau).  So (u, sigma) times the slot generator
    (g in slot s, e) multiplies coordinate sigma(s) of u by g, and times
    (e, pi) it multiplies the sym(4) coordinate by pi."""
    h = construct_detailed(spec.parts[0], cap).table
    s4 = construct_detailed(sym(4), cap)
    coding = _coordinates([h.order] * 4 + [24])
    ids = coding[1]
    sigma = np.array(s4.elements)[ids[:, 4]]  # sigma[c, s] = sigma(s)
    maps = [m for slot in range(4)
            for m in _coordinate_maps(coding, sigma[:, slot], h)]
    maps += _coordinate_maps(coding, 4, s4.table)
    hl = h.labels
    labels = (f"(({a},{b},{c},{d}),{p})"
              for a, b, c, d, p in product(hl, hl, hl, hl, s4.table.labels))
    return maps, labels, list(zip(
        map(tuple, ids[:, :4].tolist()),
        map(s4.elements.__getitem__, ids[:, 4].tolist())))


_BUILDERS = {
    "sym": _build_sym,
    "cyclic": _build_cyclic,
    "dihedral": _build_dihedral,
    "abelian": _build_abelian,
    "direct": _build_direct,
    "p2q": _build_p2q,
    "bs": _build_bs,
}
