"""Builders for the group families the toolkit studies.

A ``GroupSpec`` is a declarative recursive description; ``construct`` turns
it into a ``GroupTable`` with deterministic element ids (BFS from the
identity over a fixed generator ordering).  ``construct_detailed`` also
returns the concrete element representations, which the verification
suites use to locate specific elements such as transpositions or
coordinate-slot generators.

Every call builds a new table; nothing here is cached.  The program's only
in-memory cache is in ``commgraph.verify``, the layer that repeats work over
a fixed corpus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InvalidSpec, OrderCapExceeded, SpecSyntaxError
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    _assemble_table,
    _permutation_group,
    _triangular_group,
    is_prime,
    perm_from_cycles,
    perm_label,
)

SPEC_KINDS = ("sym", "cyclic", "dihedral", "abelian", "direct", "p2q", "bs")
MAX_SPEC_DEPTH = 4


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
    return GroupSpec("abelian", factors=tuple(int(x) for x in factors))


def direct(parts) -> GroupSpec:
    return GroupSpec("direct", parts=tuple(parts))


def p2q(q: int) -> GroupSpec:
    return GroupSpec("p2q", n=q)


def bs(inner: GroupSpec) -> GroupSpec:
    return GroupSpec("bs", parts=(inner,))


def spec_to_doc(spec: GroupSpec):
    """The spec as a plain one-key JSON object."""
    if spec.kind in ("sym", "cyclic", "dihedral", "p2q"):
        return {spec.kind: spec.n}
    if spec.kind == "abelian":
        return {"abelian": list(spec.factors)}
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
        if key == "p2q":
            try:
                prime = is_prime(value)
            except ValueError as exc:  # too large to decide
                raise InvalidSpec(str(exc)) from None
            if not prime:
                raise InvalidSpec(f"p2q modulus {value} must be prime")
        return GroupSpec(key, n=value)
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


def predicted_order(spec: GroupSpec) -> int:
    """Exact order the construction will produce (product formulas)."""
    if spec.kind == "sym":
        return math.factorial(spec.n)
    if spec.kind == "cyclic":
        return spec.n
    if spec.kind == "dihedral":
        return 2 * spec.n
    if spec.kind == "abelian":
        return math.prod(spec.factors)
    if spec.kind == "direct":
        return math.prod(predicted_order(p) for p in spec.parts)
    if spec.kind == "p2q":
        return spec.n * (spec.n - 1) ** 2
    return 24 * predicted_order(spec.parts[0]) ** 4


@dataclass
class BuiltGroup:
    """A constructed table together with its concrete element reps."""

    table: GroupTable
    elements: list = field(repr=False)
    index: dict = field(repr=False)


def construct_detailed(spec: GroupSpec, order_cap: int | None = None) -> BuiltGroup:
    """Construct the group, returning the table plus element reps.

    Every call builds a new table.  The cap is enforced against the exact
    predicted order before any materialization.
    """
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    level = [spec]  # level by level, not recursively: specs may be deep
    for _ in range(MAX_SPEC_DEPTH):
        level = [p for s in level for p in s.parts]
    if level:
        raise InvalidSpec(f"spec nesting deeper than {MAX_SPEC_DEPTH}")
    predicted = predicted_order(spec)
    if predicted > cap:
        raise OrderCapExceeded(
            f"{spec_name(spec)} has order {predicted} > cap {cap}")
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
    children = [construct_detailed(p, cap) for p in spec.parts]
    mults = [c.table.mult for c in children]
    k = len(children)

    def compose(x, y):
        return tuple(mults[i][x[i]][y[i]] for i in range(k))

    def label(rep):
        return "(" + ",".join(children[i].table.labels[rep[i]]
                              for i in range(k)) + ")"

    gens = []
    for i, child in enumerate(children):
        for g in child.table.generators:
            gens.append(tuple(g if j == i else 0 for j in range(k)))
    table, elements, index = _assemble_table((0,) * k, gens, compose, label, cap)
    return BuiltGroup(table, elements, index)


def _build_p2q(spec: GroupSpec, cap: int) -> BuiltGroup:
    q = spec.n
    gens = [(1, 1, 1)]
    if q > 2:
        g = _primitive_root(q)
        gens += [(g, 0, 1), (1, 0, g)]
    return BuiltGroup(*_triangular_group(q, gens, cap))


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
def _build_bs(spec: GroupSpec, cap: int) -> BuiltGroup:
    inner = construct_detailed(spec.parts[0], cap)
    hmult = inner.table.mult
    hlabels = inner.table.labels

    def compose(x, y):
        u, s = x
        v, t = y
        s_inv = [0, 0, 0, 0]
        for i in range(4):
            s_inv[s[i]] = i
        w = tuple(hmult[u[i]][v[s_inv[i]]] for i in range(4))
        return (w, tuple(s[t[i]] for i in range(4)))

    def label(rep):
        u, s = rep
        delta = "(" + ",".join(hlabels[h] for h in u) + ")"
        return f"({delta},{perm_label(s)})"

    gens = []
    for slot in range(4):
        for g in inner.table.generators:
            delta = tuple(g if i == slot else 0 for i in range(4))
            gens.append((delta, (0, 1, 2, 3)))
    gens.append(((0, 0, 0, 0), perm_from_cycles(4, [(1, 2)])))
    gens.append(((0, 0, 0, 0), perm_from_cycles(4, [(1, 2, 3, 4)])))
    table, elements, index = _assemble_table(
        ((0, 0, 0, 0), (0, 1, 2, 3)), gens, compose, label, cap)
    return BuiltGroup(table, elements, index)


_BUILDERS = {
    "sym": _build_sym,
    "cyclic": _build_cyclic,
    "dihedral": _build_dihedral,
    "abelian": _build_abelian,
    "direct": _build_direct,
    "p2q": _build_p2q,
    "bs": _build_bs,
}
