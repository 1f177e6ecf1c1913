"""Claim-verification harness over a fixed corpus of groups.

Each suite checks one family of structural claims about p-local
commensurability or p-containment graphs (total disconnection, diameter
bounds, index identities under products and slices, geodesic shapes,
triangular-matrix-group component classification) and returns a
machine-readable VerdictReport.  Suites are deterministic given
(corpus, seed).

This module holds the program's one cache across calls.  The library
recomputes on every call, keeping only values that an object holds about
itself (``Lattice.index_matrix``, ``Lattice.pair_codes``,
``SubgroupSet.witnesses``); the suites, which evaluate the same corpus
lattices, graphs and component reports several times over, share them
through three bounded ``functools.lru_cache`` helpers, ``_lattice`` keyed
by spec and ``_graph`` and ``_components`` by (spec, p, kind).  The lemma
suite, their one reader, builds its ``_Case`` records uncached, by one
call of ``_cases(spec)`` per group before the first trial: it asks the
facts that conjugation preserves (normal cores, nilpotency) once per
conjugacy class of the lattice, which records the classes
(``Lattice.class_of``, from which ``_normal`` reads normality), and the
derived series once.  Inside the trial loop only a memo of products,
intersections and complements, kept for one call, is read.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .constructions import (
    GroupSpec,
    abelian,
    bs,
    construct_detailed,
    cyclic,
    dihedral,
    direct,
    p2q,
    spec_name,
    sym,
)
from .graphs import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    CommGraph,
    ComponentReport,
    all_geodesics,
    all_simple_paths,
    build_graph,
    commensurability_exponents,
    components_and_diameters,
)
from .groups import (
    SubgroupSet,
    derived_series,
    intersect,
    is_nilpotent_subgroup,
    is_normal,
    normal_core,
    p_power_exponent,
    p_prime_complement,
    perm_from_cycles,
    perm_label,
    product_set,
    structure_flags,
    subgroup_closure,
    sylow_subgroup,
)
from .lattice import Lattice, enumerate_subgroups, locate_subgroup

PRIMES_UP_TO_13 = (2, 3, 5, 7, 11, 13)
SUITE_NAMES = ("totaldisc", "bounds", "lemmas", "sym4", "construction", "cd", "p2q")

DEFAULT_TRIALS = 2000
DEFAULT_SEED = 7

# At most this fraction of index-identity trials may fall back to a trivial
# normal p-subgroup; four of five trials restrict to nontrivial cores.
TRIVIAL_Q_CAP = 0.3

# Entries per cache helper.  `verify all` over the default corpus needs 26
# lattices and 196 graphs, so nothing is rebuilt; a larger corpus evicts the
# least recently used entries instead of growing without bound.
CACHE_SIZE = 256


@dataclass(frozen=True)
class CorpusMember:
    name: str
    spec: GroupSpec


def default_corpus() -> list[CorpusMember]:
    """The standard test corpus of the suites that read one (totaldisc,
    bounds, lemmas, cd); the others build their own groups."""
    specs: list[GroupSpec] = [sym(3), sym(4)]
    specs += [cyclic(n) for n in range(2, 13)]
    specs += [dihedral(n) for n in range(3, 9)]
    specs += [abelian([2, 2]), abelian([2, 4]), abelian([3, 3])]
    specs += [direct([sym(3), cyclic(2)])]
    specs += [p2q(3), p2q(5), p2q(7)]
    return [CorpusMember(spec_name(s), s) for s in specs]


@dataclass
class CheckRecord:
    group: str
    p: int | None
    params: dict
    expected: object
    observed: object
    passed: bool

    def to_doc(self) -> dict:
        return {"group": self.group, "p": self.p, "params": self.params,
                "expected": self.expected, "observed": self.observed,
                "pass": self.passed}


@dataclass
class VerdictReport:
    suite: str
    seed: int
    records: list[CheckRecord] = field(default_factory=list)
    skips: int = 0
    warnings: list[dict] = field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_doc(self) -> dict:
        """Records in canonical order, (group, p, trial index).  runtime_ms
        is measured but serialized as null: report files must be
        byte-identical across runs."""
        records = sorted(self.records, key=lambda r: (
            r.group, r.p if r.p is not None else -1, r.params.get("trial", -1)))
        return {"suite": self.suite, "seed": self.seed,
                "records": [r.to_doc() for r in records],
                "skips": self.skips, "warnings": self.warnings,
                "runtime_ms": None}


def _lattice_members(corpus) -> list[CorpusMember]:
    """The corpus members, whose lattices the suites enumerate; None means
    the default corpus."""
    return default_corpus() if corpus is None else corpus


def _member_primes(corpus) -> list[tuple[CorpusMember, int]]:
    """(member, p) for each lattice member and each prime p dividing its
    order."""
    return [(m, p) for m in _lattice_members(corpus)
            for p, _ in _lattice(m.spec).parent.order_factorization]


# The cache helpers call the library through this module's globals, so a
# wrapper installed on those names sees every computation.


@functools.lru_cache(maxsize=CACHE_SIZE)
def _lattice(spec: GroupSpec) -> Lattice:
    return enumerate_subgroups(construct_detailed(spec).table)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _graph(spec: GroupSpec, p: int, kind: str) -> CommGraph:
    return build_graph(_lattice(spec), p, kind)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _components(spec: GroupSpec, p: int,
                kind: str) -> tuple[list[ComponentReport], int]:
    return components_and_diameters(_graph(spec, p, kind))


def _normal(lat: Lattice) -> np.ndarray:
    """Whether each subgroup is normal in G: alone in its conjugacy class."""
    return np.bincount(lat.class_of)[lat.class_of] == 1


@dataclass(frozen=True)
class _Case:
    """What the lemma trials read of one (spec, p), in lattice indices.

    edges are the p-commensurability edges (i, j), i < j, in ascending
    order, read off the adjacency matrix with no exponent looked up, and
    nilpotent_edges those between nilpotent subgroups.  p_subgroups are
    the p-subgroups in ascending order, cores maps each to its normal
    core, core_p_subgroups are those whose core is nontrivial, and normal
    the subgroups normal in G.  slices are the (term index, Q, term member
    mask) triples, in ascending order, where Q is a normal p-subgroup of G
    whose slice by the derived term is that term's normal p-Sylow
    subgroup.  component_of maps each vertex to its p-commensurability
    component when there are slices to test, else it is None.
    """

    lat: Lattice
    edges: tuple[tuple[int, int], ...]
    nilpotent_edges: tuple[tuple[int, int], ...]
    p_subgroups: tuple[int, ...]
    core_p_subgroups: tuple[int, ...]
    cores: dict[int, int]
    normal: tuple[int, ...]
    slices: tuple[tuple[int, int, int], ...]
    component_of: dict[int, int] | None


def _cases(spec: GroupSpec) -> list[tuple[int, _Case]]:
    """(p, the ``_Case`` of (spec, p)) for each prime p of |G|, ascending.

    One walk over the lattice asks nilpotency and, for a subgroup of
    prime-power order (the trivial one included), the normal core once
    per conjugacy class, at its first member (``Lattice.class_of``), and
    the others of the class share the answer; the derived series is asked
    once.  The cases of one spec share these facts and its lattice."""
    lat = _lattice(spec)
    G = lat.parent
    subs = lat.subgroups
    primes = [p for p, _ in G.order_factorization]
    nilpotent: list[bool] = []
    cores: dict[int, int] = {}
    p_subgroups: dict[int, list[int]] = {p: [] for p in primes}
    for i, (s, first) in enumerate(zip(subs, lat.class_of.tolist())):
        nilpotent.append(is_nilpotent_subgroup(s) if first == i
                         else nilpotent[first])
        powers_of = [p for p in primes if p_power_exponent(s.order, p) is not None]
        for p in powers_of:
            p_subgroups[p].append(i)
        if powers_of:
            cores[i] = (lat.index_of_members[normal_core(s, G).members]
                        if first == i else cores[first])
    is_nilpotent = np.array(nilpotent)
    normal = tuple(np.flatnonzero(_normal(lat)).tolist())
    series = derived_series(G)
    out = []
    for p in primes:
        lo, hi = np.nonzero(np.triu(_graph(spec, p, KIND_COMMENSURABILITY).adj, 1))
        both = is_nilpotent[lo] & is_nilpotent[hi]
        p_subs = tuple(p_subgroups[p])
        normal_p = [q for q in p_subs if cores[q] == q]
        slices = []
        for t_idx, term in enumerate(series):
            syl = sylow_subgroup(term, p)
            if is_normal(syl, term):
                slices += [(t_idx, q, term.members) for q in normal_p
                           if subs[q].members & term.members == syl.members]
        component_of = None
        if slices:
            reports, _ = _components(spec, p, KIND_COMMENSURABILITY)
            component_of = {v: c for c, report in enumerate(reports)
                            for v in report.vertices}
        out.append((p, _Case(
            lat, tuple(zip(lo.tolist(), hi.tolist())),
            tuple(zip(lo[both].tolist(), hi[both].tolist())), p_subs,
            tuple(i for i in p_subs if subs[cores[i]].order > 1),
            cores, normal, tuple(slices), component_of)))
    return out


# ---------------------------------------------------------------------------
# total disconnection


def verify_totaldisc(corpus=None) -> VerdictReport:
    """Gamma_p(G) has no edges exactly when p does not divide |G|."""
    report = VerdictReport("totaldisc", 0)
    for member in _lattice_members(corpus):
        order = _lattice(member.spec).parent.order
        for p in PRIMES_UP_TO_13:
            graph = _graph(member.spec, p, KIND_COMMENSURABILITY)
            expect_disconnected = order % p != 0
            report.records.append(CheckRecord(
                member.name, p, {"order": order},
                {"disconnected": expect_disconnected},
                {"edges": graph.edge_count},
                (graph.edge_count == 0) == expect_disconnected))
    return report


# ---------------------------------------------------------------------------
# diameter bounds


def verify_diameter_bounds(corpus=None) -> VerdictReport:
    """Connected diameter bounds: <= 4 for metabelian groups, <= 4 when a
    p-Sylow subgroup of the derived subgroup is normal, <= 1 for nilpotent
    groups."""
    report = VerdictReport("bounds", 0)
    for member in _lattice_members(corpus):
        lat = _lattice(member.spec)
        table = lat.parent
        normal = _normal(lat)
        flags = structure_flags(table)
        derived = derived_series(table)[:2][-1]  # G', or G if G is perfect
        for p, _ in table.order_factorization:
            _, diameter = _components(member.spec, p, KIND_COMMENSURABILITY)
            if flags.is_metabelian:
                report.records.append(CheckRecord(
                    member.name, p, {"claim": "metabelian_diameter_bound"},
                    {"max_diameter": 4}, {"diameter": diameter}, diameter <= 4))
            sylow_of_derived = sylow_subgroup(derived, p)
            if normal[lat.index_of_members[sylow_of_derived.members]]:
                report.records.append(CheckRecord(
                    member.name, p, {"claim": "normal_derived_sylow_bound"},
                    {"max_diameter": 4}, {"diameter": diameter}, diameter <= 4))
            if flags.is_nilpotent:
                report.records.append(CheckRecord(
                    member.name, p, {"claim": "nilpotent_diameter_bound"},
                    {"max_diameter": 1}, {"diameter": diameter}, diameter <= 1))
    return report


# ---------------------------------------------------------------------------
# randomized index-identity properties


def _sample_q(case: _Case, rng: random.Random,
              restrict_nontrivial: bool) -> int:
    """The lattice index of a random p-subgroup's normal core (always a
    normal p-subgroup of the parent)."""
    pool = case.core_p_subgroups if restrict_nontrivial else case.p_subgroups
    return case.cores[rng.choice(pool)]


def verify_lemma_suite(corpus=None, trials: int = DEFAULT_TRIALS,
                       seed: int = DEFAULT_SEED) -> VerdictReport:
    """Seeded random trials of the index identities behind the diameter
    bounds.

    Properties, in index form (equality allowed): extending a vertex by a
    normal p-subgroup is p-adjacent; products with a normal p-subgroup
    preserve p-adjacency; slicing by a normal subgroup preserves
    p-adjacency; p-connected products slice identically through a derived
    term whose p-Sylow subgroup is the slice of Q; for p-adjacent nilpotent
    subgroups the p'-complement lands in the intersection.  Each trial
    draws a (member, p, ``_Case``) triple, found before the first trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = [(m, p, case) for m in _lattice_members(corpus)
             for p, case in _cases(m.spec)]
    rng = random.Random(seed)
    report = VerdictReport("lemmas", seed)

    edge_pairs = [mpc for mpc in pairs if mpc[2].edges]
    nilp_edge_pairs = [mpc for mpc in pairs if mpc[2].nilpotent_edges]
    slice_pairs = [mpc for mpc in pairs if mpc[2].slices]
    core_pairs = [mpc for mpc in pairs if mpc[2].core_p_subgroups]
    core_edge_pairs = [mpc for mpc in edge_pairs if mpc[2].core_p_subgroups]

    # property -> (its (member, p, case) pool, the pool restricted to
    # nontrivial normal p-cores or None); a property whose pool is empty
    # is skipped
    pools = {"extension_by_normal_p_subgroup": (pairs, core_pairs),
             "extension_preserves_adjacency": (edge_pairs, core_edge_pairs),
             "normal_slice_preserves_adjacency": (edge_pairs, None),
             "derived_slice_equality": (slice_pairs, None),
             "complement_absorbed_by_adjacency": (nilp_edge_pairs, None)}
    properties = tuple(pools)
    q_orders = []  # the order of each Q sampled by _sample_q

    # Trials ask for the same products, intersections and complements many
    # times over; each is computed once per (operation, lattice, lattice
    # indices or index and p) in this call.  The cases of one spec share
    # its lattice and keep it alive, so its id names it.
    memo: dict = {}

    def once(fn, lat: Lattice, i: int, j: int) -> SubgroupSet:
        """fn(L[i], L[j])."""
        key = (fn, id(lat), i, j)
        if key not in memo:
            memo[key] = fn(lat.subgroups[i], lat.subgroups[j])
        return memo[key]

    def complement(lat: Lattice, i: int, p: int) -> int:
        """The member mask of L[i]'s p'-complement."""
        key = (p_prime_complement, id(lat), i, p)
        if key not in memo:
            memo[key] = p_prime_complement(lat.subgroups[i], p).members
        return memo[key]

    for trial in range(trials):
        prop = properties[rng.randrange(len(properties))]
        pool, core_pool = pools[prop]
        if not pool:
            report.skips += 1
            continue
        # four of five trials sample Q from the nontrivial cores
        restrict = trial % 5 != 0 and bool(core_pool)
        member, p, case = rng.choice(core_pool if restrict else pool)
        lat = case.lat
        subs = lat.subgroups
        if prop == "extension_by_normal_p_subgroup":
            qi = _sample_q(case, rng, restrict)
            q_order = subs[qi].order
            q_orders.append(q_order)
            v = rng.randrange(len(subs))
            v_order = subs[v].order
            exp = p_power_exponent(
                once(product_set, lat, v, qi).order // v_order, p)
            params = {"q_order": q_order, "v_order": v_order}
            check = ("p-power index", {"exponent": exp}, exp is not None)
        elif prop == "extension_preserves_adjacency":
            i, j = rng.choice(case.edges)
            qi = _sample_q(case, rng, restrict)
            q_order = subs[qi].order
            q_orders.append(q_order)
            exps = commensurability_exponents(
                once(product_set, lat, i, qi),
                once(product_set, lat, j, qi), p)
            params = {"edge": [i, j], "q_order": q_order}
            check = ("p-power index pair", {"exponents": exps},
                     exps is not None)
        elif prop == "normal_slice_preserves_adjacency":
            i, j = rng.choice(case.edges)
            n = rng.choice(case.normal)
            exps = commensurability_exponents(
                once(intersect, lat, i, n), once(intersect, lat, j, n), p)
            params = {"edge": [i, j], "n_order": subs[n].order}
            check = ("p-power index pair", {"exponents": exps},
                     exps is not None)
        elif prop == "derived_slice_equality":
            t_idx, qi, term_mask = rng.choice(case.slices)
            comp_of = case.component_of
            outcome = None
            for _ in range(8):
                v = rng.randrange(len(subs))
                w = rng.randrange(len(subs))
                vq = once(product_set, lat, v, qi).members
                wq = once(product_set, lat, w, qi).members
                if (comp_of[lat.index_of_members[vq]]
                        != comp_of[lat.index_of_members[wq]]):
                    continue
                outcome = vq & term_mask == wq & term_mask
                break
            if outcome is None:
                report.skips += 1
                continue
            params = {"term_index": t_idx, "q_order": subs[qi].order}
            check = ("equal slices", {"equal": outcome}, outcome)
        else:  # complement_absorbed_by_adjacency
            i, j = rng.choice(case.nilpotent_edges)
            inter = subs[i].members & subs[j].members
            comp1 = complement(lat, i, p)
            comp2 = complement(lat, j, p)
            ok = (comp1 & inter == comp1) and (comp2 & inter == comp2)
            params = {"edge": [i, j]}
            check = ("complement inside intersection", {"contained": ok}, ok)
        report.records.append(CheckRecord(
            member.name, p, {"trial": trial, "property": prop, **params},
            *check))

    q_trials = len(q_orders)
    if q_trials and not core_pairs:
        # no corpus group has a nontrivial normal p-subgroup to sample
        report.warnings.append({
            "code": "TRIVIAL_Q_ONLY", "group": "(corpus)", "p": None,
            "detail": {"q_trials": q_trials}})
    elif q_trials:
        trivial_q_trials = q_orders.count(1)
        fraction = trivial_q_trials / q_trials
        report.records.append(CheckRecord(
            "(corpus)", None,
            {"trial": trials, "property": "trivial_q_budget",
             "q_trials": q_trials, "trivial_q_trials": trivial_q_trials},
            {"max_fraction": TRIVIAL_Q_CAP}, {"fraction": round(fraction, 4)},
            fraction <= TRIVIAL_Q_CAP))
    return report


# ---------------------------------------------------------------------------
# Sym4 geodesics in the 3-containment graph


def verify_sym4_geodesics() -> VerdictReport:
    """The 3-containment graph of sym(4): connected diameter exactly 4,
    every geodesic between the two disjoint-transposition vertices matches
    the five-vertex template, and every simple path between them passes two
    consecutive vertices sharing a mixed transposition."""
    report = VerdictReport("sym4", 0)
    lat = _lattice(sym(4))
    graph = _graph(sym(4), 3, KIND_CONTAINMENT)

    def el(*cycles):
        # a sym table labels each element by its cycle notation
        return lat.parent.labels.index(perm_label(perm_from_cycles(4, cycles)))

    _, cd3 = _components(sym(4), 3, KIND_CONTAINMENT)
    report.records.append(CheckRecord(
        "sym(4)", 3, {"kind": KIND_CONTAINMENT, "check": "connected_diameter"},
        4, cd3, cd3 == 4))

    u = locate_subgroup(lat, [el((1, 2))])
    v = locate_subgroup(lat, [el((3, 4))])
    geodesics = all_geodesics(graph, u, v)
    lengths_ok = all(len(path) == 5 for path in geodesics)
    report.records.append(CheckRecord(
        "sym(4)", 3, {"check": "geodesic_vertex_count"},
        5, sorted({len(path) for path in geodesics}), lengths_ok))

    templates = []
    for k in (3, 4):
        j = 7 - k
        for i in (1, 2):
            templates.append([
                u,
                locate_subgroup(lat, [el((1, 2)), el((1, 2, k))]),
                locate_subgroup(lat, [el((i, k))]),
                locate_subgroup(lat, [el((i, k)), el((i, j, k))]),
                v,
            ])
    templates.sort()
    report.records.append(CheckRecord(
        "sym(4)", 3, {"check": "geodesic_template", "template_count": len(templates)},
        {"geodesics": len(templates)}, {"geodesics": len(geodesics)},
        geodesics == templates))

    mixed = [el((i, j)) for i in (1, 2) for j in (3, 4)]
    paths = all_simple_paths(graph, u, v)
    subs = lat.subgroups

    def has_shared_mixed(path) -> bool:
        for a, b in zip(path, path[1:]):
            inter = subs[a].members & subs[b].members
            if any(inter >> t & 1 for t in mixed):
                return True
        return False

    bad = [path for path in paths if not has_shared_mixed(path)]
    report.records.append(CheckRecord(
        "sym(4)", 3,
        {"check": "simple_paths_share_mixed_transposition",
         "path_count": len(paths)},
        {"violations": 0}, {"violations": len(bad)}, not bad))
    return report


# ---------------------------------------------------------------------------
# the H^4 x sym(4) construction path


def verify_construction(h_spec: GroupSpec | None = None) -> VerdictReport:
    """Certify one level of the coordinate-product construction.

    Computes the containment diameter of H, materializes the explicit
    containment path between the two twisted end subgroups inside
    H^4 ⋊ sym(4), and checks every consecutive index is a positive power
    of 3 while the endpoints are distinct, mutually non-containing members
    of one component (hence that component has diameter >= 2).
    """
    h_spec = cyclic(3) if h_spec is None else h_spec
    is_default = h_spec == cyclic(3)
    report = VerdictReport("construction", 0)

    # bs(H) is built first: its order, 24|H|^4, is checked against the cap
    # before any materialization, which covers H as well.
    g_spec = bs(h_spec)
    g_built = construct_detailed(g_spec)
    h_name = spec_name(h_spec)
    h_lat = _lattice(h_spec)
    h_graph = _graph(h_spec, 3, KIND_CONTAINMENT)
    reports, cd3_h = _components(h_spec, 3, KIND_CONTAINMENT)
    report.records.append(CheckRecord(
        h_name, 3, {"check": "containment_diameter"},
        1 if is_default else cd3_h, cd3_h,
        cd3_h == 1 if is_default else True))

    # First geodesic of the lexicographically first vertex pair (a, b)
    # realizing the diameter d: a is the first vertex of eccentricity d, and
    # a vertex at distance d from a has eccentricity d too, so b > a.
    if cd3_h == 0:  # totally disconnected base
        chain = [0]
    else:
        comp, a = next((c, v) for c in reports
                       for v, e in zip(c.vertices, c.eccentricities)
                       if e == cd3_h)
        chain = next(path for path in (all_geodesics(h_graph, a, b)[0]
                                       for b in comp.vertices if b > a)
                     if len(path) == cd3_h + 1)
    chain_subs = [h_lat.subgroups[i] for i in chain]

    g_name = spec_name(g_spec)
    expected_order = 24 * h_lat.parent.order ** 4
    report.records.append(CheckRecord(
        g_name, 3, {"check": "group_order"},
        expected_order, g_built.table.order,
        g_built.table.order == expected_order))

    identity_perm = (0, 1, 2, 3)

    def vertex(slots, perm_cycles) -> SubgroupSet:
        gens = []
        for slot, hs in enumerate(slots):
            for w in hs.witnesses:
                delta = tuple(w if t == slot else 0 for t in range(4))
                gens.append(g_built.index[(delta, identity_perm)])
        for cycles in perm_cycles:
            img = perm_from_cycles(4, cycles)
            gens.append(g_built.index[((0, 0, 0, 0), img)])
        return subgroup_closure(g_built.table, gens)

    v_last = chain_subs[-1]
    top = [v_last] * 4
    path = [vertex([s, s, v_last, v_last], [[(1, 2)]]) for s in chain_subs]
    path.append(vertex(top, [[(1, 2, 3)], [(1, 2)]]))
    path.append(vertex(top, [[(2, 3)]]))
    path.append(vertex(top, [[(2, 3, 4)], [(2, 3)]]))
    path.append(vertex(top, [[(3, 4)]]))
    path.extend(vertex([v_last, v_last, s, s], [[(3, 4)]])
                for s in reversed(chain_subs[:-1]))

    e1, e2 = path[0], path[-1]
    if is_default:
        report.records.append(CheckRecord(
            g_name, 3, {"check": "first_endpoint_order"},
            18, e1.order, e1.order == 18))

    for step, (x, y) in enumerate(zip(path, path[1:])):
        small, big = (x, y) if x.order <= y.order else (y, x)
        contained = small.members & big.members == small.members
        exp = (p_power_exponent(big.order // small.order, 3)
               if contained else None)
        ok = contained and exp is not None and exp >= 1
        report.records.append(CheckRecord(
            g_name, 3,
            {"check": "path_step", "step": step,
             "orders": [x.order, y.order]},
            "containment with positive 3-power index",
            {"contained": contained, "exponent": exp}, ok))

    distinct = e1.members != e2.members
    non_containing = (e1.members & e2.members not in (e1.members, e2.members))
    report.records.append(CheckRecord(
        g_name, 3,
        {"check": "endpoints", "orders": [e1.order, e2.order],
         "path_vertices": len(path)},
        {"distinct": True, "mutually_non_containing": True,
         "component_diameter_at_least": 2},
        {"distinct": distinct, "mutually_non_containing": non_containing},
        distinct and non_containing))
    return report


# ---------------------------------------------------------------------------
# containment vs commensurability diameter inequality


def verify_cd_inequality(corpus=None) -> VerdictReport:
    """diam(Gamma_p(G)) >= floor((cd_p(G) - 1) / 2).

    Enforced for p = 3; for other primes a violation is reported as an
    extension-violation warning, not a failure.
    """
    report = VerdictReport("cd", 0)
    for member, p in _member_primes(corpus):
        _, cd_p = _components(member.spec, p, KIND_CONTAINMENT)
        _, diam = _components(member.spec, p, KIND_COMMENSURABILITY)
        bound = (cd_p - 1) // 2
        ok = diam >= bound
        enforced = p == 3
        if not ok and not enforced:
            report.warnings.append({
                "code": "EXTENSION_VIOLATION", "group": member.name,
                "p": p, "detail": {"cd": cd_p, "diameter": diam}})
        report.records.append(CheckRecord(
            member.name, p,
            {"cd": cd_p, "enforced": enforced},
            {"min_diameter": bound}, {"diameter": diam},
            ok or not enforced))
    return report


# ---------------------------------------------------------------------------
# triangular matrix groups: component classification


def verify_p2q(q_values=(3, 5, 7), primes=PRIMES_UP_TO_13) -> VerdictReport:
    """Component classification for the upper-triangular groups p2q(q):
    every component is a singleton, complete, or star; connected diameter
    at most 2 and sharp across the run; complete components when p divides
    (q-1)^2 with p != q; stars or 2-vertex complete components when p = q;
    component counts for q=5 per the reference tallies.  Each q is
    examined at the given primes, then at p = q if they do not hold it."""
    report = VerdictReport("p2q", 0)
    max_diameter = 0
    for q in q_values:
        name = spec_name(p2q(q))
        for p in primes if q in primes else (*primes, q):
            comps, diameter = _components(p2q(q), p, KIND_COMMENSURABILITY)
            max_diameter = max(max_diameter, diameter)
            kinds = sorted({c.kind for c in comps})
            class_ok = all(c.kind in ("singleton", "complete", "star")
                           for c in comps)
            report.records.append(CheckRecord(
                name, p, {"check": "component_classes"},
                ["complete", "singleton", "star"], kinds, class_ok))
            report.records.append(CheckRecord(
                name, p, {"check": "connected_diameter"},
                {"max": 2}, diameter, diameter <= 2))
            if p != q and (q - 1) ** 2 % p == 0:
                ok = all(c.kind in ("singleton", "complete") for c in comps)
                report.records.append(CheckRecord(
                    name, p, {"check": "all_components_complete"},
                    ["complete", "singleton"], kinds, ok))
            if p == q:
                ok = all(c.kind == "star"
                         or (c.kind == "complete" and len(c.vertices) == 2)
                         or c.kind == "singleton"
                         for c in comps)
                report.records.append(CheckRecord(
                    name, p, {"check": "stars_or_two_vertex_complete"},
                    True, ok, ok))
            if (q, p) in ((5, 2), (5, 5)):
                wanted_kind = "complete" if p == 2 else "star"
                wanted = 2 if p == 2 else 12
                ge2 = sum(1 for c in comps
                          if c.kind == wanted_kind and len(c.vertices) >= 2)
                with_singletons = ge2 + sum(1 for c in comps
                                            if c.kind == "singleton")
                count_ok = ge2 == wanted
                if not count_ok and class_ok:
                    report.warnings.append({
                        "code": "CONVENTION_MISMATCH", "group": name, "p": p,
                        "detail": {"expected_ge2": wanted, "observed_ge2": ge2,
                                   "observed_with_singletons": with_singletons}})
                report.records.append(CheckRecord(
                    name, p,
                    {"check": f"{wanted_kind}_component_count",
                     "convention": "components with >= 2 vertices",
                     "count_with_singletons": with_singletons},
                    wanted, ge2, count_ok or class_ok))
    report.records.append(CheckRecord(
        f"p2q({','.join(map(str, q_values))})", None,
        {"check": "diameter_sharpness"}, 2, max_diameter, max_diameter == 2))
    return report


# ---------------------------------------------------------------------------
# dispatch


# Suite name -> its call.  The lambdas read the verify_* names from the
# module globals when called, so a wrapper installed on them runs instead.
_SUITE_CALLS = {
    "totaldisc": lambda corpus, trials, seed: verify_totaldisc(corpus),
    "bounds": lambda corpus, trials, seed: verify_diameter_bounds(corpus),
    "lemmas": lambda corpus, trials, seed: verify_lemma_suite(
        corpus, trials=trials, seed=seed),
    "sym4": lambda corpus, trials, seed: verify_sym4_geodesics(),
    "construction": lambda corpus, trials, seed: verify_construction(),
    "cd": lambda corpus, trials, seed: verify_cd_inequality(corpus),
    "p2q": lambda corpus, trials, seed: verify_p2q(),
}


def run_suite(name: str, *, corpus=None, trials: int = DEFAULT_TRIALS,
              seed: int = DEFAULT_SEED) -> VerdictReport:
    """Run one suite: the one place that times a suite and sets its
    runtime_ms, which a direct verify_* call leaves at 0.0.  A report that
    made no check gets a NO_CHECKS warning."""
    if name not in _SUITE_CALLS:
        raise ValueError(f"unknown suite {name!r}")
    started = time.monotonic()
    report = _SUITE_CALLS[name](corpus, trials, seed)
    report.runtime_ms = (time.monotonic() - started) * 1000.0
    if not report.records:
        report.warnings.append({"code": "NO_CHECKS", "group": "(corpus)",
                                "p": None, "detail": {}})
    return report


def run_all(*, corpus=None, trials: int = DEFAULT_TRIALS,
            seed: int = DEFAULT_SEED) -> list[VerdictReport]:
    """Every suite, in ``SUITE_NAMES`` order, each by ``run_suite``: the
    reports of ``commgraph verify all``."""
    return [run_suite(name, corpus=corpus, trials=trials, seed=seed)
            for name in SUITE_NAMES]
