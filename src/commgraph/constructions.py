"""Builders for the group families the toolkit studies.

A ``GroupSpec`` is a declarative recursive description; ``construct`` turns
it into a ``GroupTable`` with deterministic element ids (BFS from the
identity over a fixed generator ordering).  ``construct_detailed`` also
returns the concrete element representations, which the verification
suites use to locate specific elements such as transpositions or
coordinate-slot generators.

The product families, direct (and so abelian) and bs, never compose two
reps.  Each element is coded as an integer in mixed radix over its
coordinates: the factors' ids for a direct product; the four H ids and the
rank of the Sym4 permutation for bs.  Each generator's right
multiplication over all codes is computed with numpy from the factors'
columns, the BFS reads it, and the reps and labels are decoded from the
codes in bulk afterwards.

Every call builds a new table; nothing here is cached.  The program's one
cache across calls is in ``commgraph.verify``, the layer that repeats work
over a fixed corpus, beside its lemma suite's per-call memo and the values
an object keeps about itself: ``Lattice.index_matrix``,
``Lattice.pair_codes`` and ``SubgroupSet.witnesses``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .errors import InvalidSpec, OrderCapExceeded, SpecSyntaxError
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    _assemble_table,
    _is_int,
    _permutation_group,
    compose_permutations,
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
    if depth > MAX_SPEC_DEPTH:
        raise InvalidSpec(f"spec nesting deeper than {MAX_SPEC_DEPTH}")
    if not isinstance(doc, dict) or len(doc) != 1:
        raise InvalidSpec("a group spec is an object with exactly one key")
    key, value = next(iter(doc.items()))
    if key not in SPEC_KINDS:
        raise InvalidSpec(f"unknown group kind {key!r}")
    if key in ("sym", "cyclic", "dihedral", "p2q"):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidSpec(f"{key} takes a positive integer")
        return _checked(GroupSpec(key, n=value))
    if key == "abelian":
        if (not isinstance(value, list) or not value
                or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 1
                           for x in value)):
            raise InvalidSpec("abelian takes a non-empty list of positive integers")
        return GroupSpec("abelian", factors=tuple(value))
    if key == "direct":
        if not isinstance(value, list) or not value:
            raise InvalidSpec("direct takes a non-empty list of specs")
        return GroupSpec("direct", parts=tuple(_spec_from_doc(v, depth + 1)
                                               for v in value))
    return GroupSpec("bs", parts=(_spec_from_doc(value, depth + 1),))


def _checked(spec: GroupSpec) -> GroupSpec:
    """The spec, if its top node names a group; else raise InvalidSpec
    with ``spec_from_doc``'s reason.  The Python API also takes sym(0),
    abelian([]) and direct([]), the trivial group."""
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


def construct_detailed(spec: GroupSpec, order_cap: int | None = None) -> BuiltGroup:
    """Construct the group, returning the table plus element reps.

    Every call builds a new table.  Each node of the spec is checked as
    ``spec_from_doc`` checks it, and the cap is enforced against the
    predicted order, computed only until it passes the cap, before any
    materialization; a cap below 1, which no group meets, raises ValueError.
    """
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
    built = _BUILDERS[spec.kind](spec, cap)
    assert built.table.order == predicted
    return built


def construct(spec: GroupSpec, order_cap: int | None = None) -> GroupTable:
    return construct_detailed(spec, order_cap).table


def _build_sym(spec: GroupSpec, cap: int) -> BuiltGroup:
    n = spec.n
    gens = []
    if n >= 2:
        gens.append(perm_from_cycles(n, [(1, 2)]))
    if n >= 3:
        gens.append(perm_from_cycles(n, [tuple(range(1, n + 1))]))
    return BuiltGroup(*_permutation_group(n, gens, cap))


def _build_cyclic(spec: GroupSpec, cap: int) -> BuiltGroup:
    n = spec.n
    gens = [1] if n > 1 else []
    table, elements, index = _assemble_table(
        0, gens, lambda x, y: (x + y) % n, str, cap)
    return BuiltGroup(table, elements, index)


def _build_dihedral(spec: GroupSpec, cap: int) -> BuiltGroup:
    n = spec.n

    def compose(x, y):
        k1, e1 = x
        k2, e2 = y
        return ((k1 + (k2 if e1 == 0 else -k2)) % n, e1 ^ e2)

    def label(rep):
        k, e = rep
        if e == 0:
            return "e" if k == 0 else f"r{k}"
        return "s" if k == 0 else f"r{k}s"

    gens = ([(1, 0)] if n > 1 else []) + [(0, 1)]
    table, elements, index = _assemble_table((0, 0), gens, compose, label, cap)
    return BuiltGroup(table, elements, index)


def _build_abelian(spec: GroupSpec, cap: int) -> BuiltGroup:
    """The direct product of the cyclic factors, under the abelian spec."""
    return _build_direct(direct([cyclic(n) for n in spec.factors]), cap)


def _build_direct(spec: GroupSpec, cap: int) -> BuiltGroup:
    # a repeated factor is built once; the factor tables are only read
    built = {p: construct_detailed(p, cap).table for p in dict.fromkeys(spec.parts)}
    tables = [built[p] for p in spec.parts]
    orders = [t.order for t in tables]
    # code = sum(ids[:, i] * strides[i]), the first child's id most significant
    strides = [math.prod(orders[i + 1:]) for i in range(len(orders))]
    codes = np.arange(math.prod(orders))
    ids = codes[:, None] // np.array(strides, dtype=np.intp) % np.array(
        orders, dtype=np.intp)
    maps = {}
    for i, t in enumerate(tables):
        x = ids[:, i]
        for g in t.generators:  # changes child i's id x to x*g
            maps[g * strides[i]] = (
                codes + (t.array[x, g] - x) * strides[i]).tolist()
    labels = ["(" + ",".join(parts) + ")"
              for parts in product(*(t.labels for t in tables))]
    table, by_id, _ = _assemble_table(
        0, list(maps), lambda x, g: maps[g][x], labels.__getitem__, cap)
    return _decoded(table, list(map(tuple, ids[by_id].tolist())))


def _build_p2q(spec: GroupSpec, cap: int) -> BuiltGroup:
    """Invertible upper-triangular 2x2 matrices mod q, as (a, b, d) triples
    encoding [[a, b], [0, d]].  Right multiplication by y is
    (a, b, d)·y = (a·y_a, a·y_b + b·y_d, d·y_d) mod q, so each generator's
    map over every code is a few whole-array operations."""
    q = spec.n
    # code = ((a - 1) q + b)(q - 1) + d - 1; the identity (1, 0, 1) is 0
    a, b, d = (x.ravel() for x in np.meshgrid(
        np.arange(1, q), np.arange(q), np.arange(1, q), indexing="ij"))

    def code(a, b, d):
        return ((a - 1) * q + b) * (q - 1) + d - 1

    gens = [(1, 1, 1)]
    if q > 2:
        g = _primitive_root(q)
        gens += [(g, 0, 1), (1, 0, g)]
    maps = {code(*y): code(a * y[0] % q, (a * y[1] + b * y[2]) % q,
                           d * y[2] % q).tolist() for y in gens}
    labels = [f"({x},{y},{z})"
              for x, y, z in zip(a.tolist(), b.tolist(), d.tolist())]
    table, by_id, _ = _assemble_table(
        0, list(maps), lambda x, g: maps[g][x], labels.__getitem__, cap)
    return _decoded(table, list(zip(a[by_id].tolist(), b[by_id].tolist(),
                                    d[by_id].tolist())))


def _primitive_root(q: int) -> int:
    for g in range(2, q):
        x, k = g, 1
        while x != 1:
            x = (x * g) % q
            k += 1
        if k == q - 1:
            return g
    raise InvalidSpec(f"no primitive root mod {q}")  # pragma: no cover


# Sym4 acts on the four coordinate slots of H^4 from the left:
# (sigma.v)_i = v_{sigma^-1(i)}, and (u, sigma)(v, tau) = (u * sigma.v, sigma tau).
# So (u, sigma) times the slot generator (g in slot s, e) multiplies
# coordinate sigma(s) of u by g, and times (0, pi) it becomes (u, sigma pi).
_PERMS4 = list(permutations(range(4)))  # by rank; rank 0 is the identity


def _build_bs(spec: GroupSpec, cap: int) -> BuiltGroup:
    h = construct_detailed(spec.parts[0], cap).table
    m = h.order
    # code = (u_0 m^3 + u_1 m^2 + u_2 m + u_3) * 24 + rank of sigma
    strides = np.array([24 * m ** 3, 24 * m ** 2, 24 * m, 24])
    codes = np.arange(24 * m ** 4)
    rank = codes % 24
    coords = np.stack([codes // s % m for s in strides], axis=1)
    perms = np.array(_PERMS4)
    rank_of = {p: r for r, p in enumerate(_PERMS4)}
    maps = {}
    for slot in range(4):
        target = perms[rank, slot]  # the coordinate sigma(slot)
        old = coords[codes, target]
        for g in h.generators:
            maps[g * int(strides[slot])] = (
                codes + (h.array[old, g] - old) * strides[target]).tolist()
    for cycle in ((1, 2), (1, 2, 3, 4)):
        pi = perm_from_cycles(4, [cycle])
        times_pi = np.array([rank_of[compose_permutations(s, pi)]
                             for s in _PERMS4])
        maps[rank_of[pi]] = (codes - rank + times_pi[rank]).tolist()
    hl = h.labels
    labels = [f"(({a},{b},{c},{d}),{p})" for a, b, c, d, p in
              product(hl, hl, hl, hl, map(perm_label, _PERMS4))]
    table, by_id, _ = _assemble_table(
        0, list(maps), lambda x, g: maps[g][x], labels.__getitem__, cap)
    by_id = np.array(by_id)
    return _decoded(table, list(zip(map(tuple, coords[by_id].tolist()),
                                    map(_PERMS4.__getitem__,
                                        (by_id % 24).tolist()))))


def _decoded(table: GroupTable, elements: list) -> BuiltGroup:
    """The built group of a product family from its reps in id order."""
    return BuiltGroup(table, elements,
                      dict(zip(elements, range(len(elements)))))


_BUILDERS = {
    "sym": _build_sym,
    "cyclic": _build_cyclic,
    "dihedral": _build_dihedral,
    "abelian": _build_abelian,
    "direct": _build_direct,
    "p2q": _build_p2q,
    "bs": _build_bs,
}
