"""The verification suites themselves: verdicts, determinism, reporting."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from commgraph import (
    bs,
    cyclic,
    default_corpus,
    p2q,
    run_all,
    run_suite,
    spec_name,
    sym,
    verify,
    verify_construction,
    verify_lemma_suite,
    verify_p2q,
)
from commgraph import groups
from commgraph.graphs import commensurability_exponents
from commgraph.groups import (
    SubgroupSet,
    full_subgroup,
    intersect,
    is_nilpotent_subgroup,
    is_normal,
    normal_core,
    p_power_exponent,
    p_prime_complement,
    product_set,
)
from commgraph.verify import SUITE_NAMES, CorpusMember, _lattice_members


def test_default_corpus_contents():
    corpus = default_corpus()
    names = [m.name for m in corpus]
    assert "sym(4)" in names
    assert "cyclic(12)" in names
    assert "dihedral(8)" in names
    assert "p2q(7)" in names
    # bs(cyclic(3)) is kept as its action by the construction suite, with
    # no table or lattice: it is not a corpus member
    assert "bs(cyclic(3))" not in names
    assert _lattice_members(corpus) == corpus


@pytest.mark.parametrize("suite", ["totaldisc", "bounds", "cd", "p2q", "sym4"])
def test_suite_passes(suite):
    report = run_suite(suite)
    assert report.passed
    assert report.records
    failing = [r for r in report.records if not r.passed]
    assert failing == []


def test_lemma_suite_small_run_deterministic():
    a = verify_lemma_suite(trials=60, seed=123)
    b = verify_lemma_suite(trials=60, seed=123)
    assert a.passed and b.passed
    assert json.dumps(a.to_doc()) == json.dumps(b.to_doc())
    c = verify_lemma_suite(trials=60, seed=124)
    assert json.dumps(a.to_doc()) != json.dumps(c.to_doc())


def test_lemma_suite_counts_and_budget():
    report = verify_lemma_suite(trials=300, seed=9)
    assert report.passed
    trial_records = [r for r in report.records
                     if r.params.get("property") != "trivial_q_budget"]
    assert len(trial_records) + report.skips == 300
    assert report.skips / 300 < 0.5
    budget = [r for r in report.records
              if r.params.get("property") == "trivial_q_budget"]
    assert len(budget) == 1 and budget[0].passed


def _corpus(*specs):
    return [CorpusMember(spec_name(s), s) for s in specs]


@pytest.mark.parametrize("specs, digest", [
    # sym(5) has no nontrivial normal p-subgroup, so only cyclic(6) feeds
    # the restricted pool of extension_preserves_adjacency
    ((sym(5), cyclic(6)),
     "8c18747cd812a780572a8f185eb51e8b5094a4b10609a50f44eb5bbf1af48799"),
    ((sym(4), p2q(5)),
     "dafca2f7f0dd0a40ca5eec407d907c73e48b1d51d42cec6cc3f6e4bf4f4c1e76"),
], ids=["sym5-cyclic6", "sym4-p2q5"])
def test_lemma_suite_stream_pinned(specs, digest):
    """The sampling stream over non-default corpora: the sha256 of the
    indented report document."""
    report = verify_lemma_suite(_corpus(*specs), trials=300, seed=9)
    text = json.dumps(report.to_doc(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_class_facts_match_per_subgroup_routes():
    """Normality, normal p-cores and nilpotency, which ``_cases`` asks once
    per conjugacy class, are what asking every subgroup gives, over the
    default corpus and every prime of each order."""
    for member in default_corpus():
        lat = verify._lattice(member.spec)
        G = lat.parent
        subs = lat.subgroups
        normal = tuple(i for i, s in enumerate(subs)
                       if is_normal(s, full_subgroup(G)))
        assert tuple(np.flatnonzero(verify._normal(lat))) == normal
        nilpotent = [is_nilpotent_subgroup(s) for s in subs]
        cases = verify._cases(member.spec)
        assert [p for p, _ in cases] == [p for p, _ in G.order_factorization]
        for p, case in cases:
            assert case.lat is lat and case.normal == normal
            assert case.p_subgroups == tuple(
                i for i, s in enumerate(subs)
                if p_power_exponent(s.order, p) is not None)
            assert {i: case.cores[i] for i in case.p_subgroups} == {
                i: lat.index_of_members[normal_core(subs[i], G).members]
                for i in case.p_subgroups}
            assert case.nilpotent_edges == tuple(
                (i, j) for i, j in case.edges if nilpotent[i] and nilpotent[j])


def test_lemma_identities_hold_on_every_case_of_the_default_corpus():
    """Four of the identities that the lemma suite samples, checked on every
    case of the default corpus, for every prime p dividing the order:
    [VQ : V] for every subgroup V and normal p-subgroup Q; the products of
    every p-edge with every normal p-subgroup Q; the slices of every p-edge
    by every normal N; and the p'-complements of every nilpotent p-edge."""
    cases = Counter()
    failures = []
    for member, p, case in ((m, p, case) for m in default_corpus()
                            for p, case in verify._cases(m.spec)):
        subs = case.lat.subgroups
        normal_p = [q for q in case.p_subgroups if case.cores[q] == q]
        edges = case.edges
        products = {(v, q): product_set(subs[v], subs[q])
                    for v in range(len(subs)) for q in normal_p}
        for (v, q), vq in products.items():
            cases["extension"] += 1
            if p_power_exponent(vq.order // subs[v].order, p) is None:
                failures.append((member.name, p, "extension", v, q))
        for i, j in edges:
            for q in normal_p:
                cases["products"] += 1
                if commensurability_exponents(
                        products[i, q], products[j, q], p) is None:
                    failures.append((member.name, p, "products", i, j, q))
            for n in case.normal:
                cases["slices"] += 1
                if commensurability_exponents(intersect(subs[i], subs[n]),
                                              intersect(subs[j], subs[n]),
                                              p) is None:
                    failures.append((member.name, p, "slices", i, j, n))
        for i, j in case.nilpotent_edges:
            cases["complements"] += 1
            inter = subs[i].members & subs[j].members
            for d in (subs[i], subs[j]):
                comp = p_prime_complement(d, p).members
                if comp & inter != comp:
                    failures.append((member.name, p, "complements", i, j))
    assert failures == []
    assert cases == {"extension": 2492, "products": 13820, "slices": 120886,
                     "complements": 4674}


def test_lemma_suite_trivial_q_budget_still_enforced(monkeypatch):
    # sym(4) has a nontrivial normal 2-subgroup, so the budget applies;
    # every fifth Q trial samples the full pool and may be trivial
    monkeypatch.setattr(verify, "TRIVIAL_Q_CAP", 0.0)
    report = verify_lemma_suite(_corpus(sym(4)), trials=300, seed=9)
    budget = [r for r in report.records
              if r.params.get("property") == "trivial_q_budget"]
    assert len(budget) == 1 and not budget[0].passed
    assert not report.passed and report.warnings == []


def test_lemma_suite_rejects_bad_trials():
    with pytest.raises(ValueError):
        verify_lemma_suite(trials=0)


def test_report_doc_shape():
    report = run_suite("totaldisc")
    doc = report.to_doc()
    assert list(doc) == ["suite", "seed", "records", "skips", "warnings",
                         "runtime_ms"]
    assert doc["runtime_ms"] is None  # measured timing stays out of the file
    assert report.runtime_ms > 0
    for record in doc["records"]:
        assert list(record) == ["group", "p", "params", "expected",
                                "observed", "pass"]
    keys = [(r["group"], r["p"] if r["p"] is not None else -1,
             r["params"].get("trial", -1)) for r in doc["records"]]
    assert keys == sorted(keys)


def test_run_suite_times_and_calls_the_module_attribute(monkeypatch):
    """run_suite looks each suite up on the module when called, so a
    wrapper installed there runs; it alone sets runtime_ms."""
    calls = []
    suite = verify.verify_sym4_geodesics

    def wrapped():
        calls.append(1)
        return suite()

    monkeypatch.setattr(verify, "verify_sym4_geodesics", wrapped)
    assert run_suite("sym4").runtime_ms > 0 and calls == [1]
    assert suite().runtime_ms == 0.0


def test_p2q_sharpness_record_names_the_groups_examined():
    report = verify_p2q(q_values=(5,), primes=(2, 5))
    sharp = [r for r in report.records
             if r.params.get("check") == "diameter_sharpness"]
    assert [r.group for r in sharp] == ["p2q(5)"]


def test_p2q_classification_at_q_11_and_13():
    """The appendix classification beyond the default q = 3, 5, 7."""
    report = verify_p2q(q_values=(11, 13))
    assert report.passed and len(report.records) == 31
    (sharp,) = [r for r in report.records
                if r.params.get("check") == "diameter_sharpness"]
    assert (sharp.group, sharp.observed) == ("p2q(11,13)", 2)


def test_p2q_classification_at_q_17_examines_p_equal_q():
    """q = 17 lies beyond the default primes, so p = 17 is added: its
    stars give the diameter-2 components that make the bound sharp."""
    report = verify_p2q(q_values=(17,))
    assert report.passed and len(report.records) == 17
    assert [r.p for r in report.records[-3:-1]] == [17, 17]
    assert report.records[-2].params == {
        "check": "stars_or_two_vertex_complete"}
    (sharp,) = [r for r in report.records
                if r.params.get("check") == "diameter_sharpness"]
    assert (sharp.group, sharp.observed) == ("p2q(17)", 2)


def test_construction_suite_on_alternate_base():
    # cyclic(2) has containment diameter 0 at p=3; the explicit path still
    # certifies two non-adjacent connected endpoints inside C2^4 x sym(4).
    # The digest pins the whole report as the suite gave it when it closed
    # the path in bs(cyclic(2))'s table, before it kept the group as its
    # action; cyclic(3) is pinned by the `verify all` digests.
    report = verify_construction(cyclic(2))
    assert report.passed
    orders = [r for r in report.records if r.params.get("check") == "group_order"]
    assert orders[0].observed == 24 * 16
    text = json.dumps(report.to_doc(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "22d885adfd4d4f1189cae9489f0f5dd37c6071bb94f92e2e665f6b9dd82273aa")


def test_construction_suite_builds_no_large_table(monkeypatch):
    """bs(H) is kept as its proven action: the suite fills no table of
    order above sym(4)'s 24, where it once filled bs(cyclic(3))'s 1944²."""
    orders = []
    init = groups.GroupTable.__init__

    def recording(self, tbl, *args):
        orders.append(len(tbl))
        init(self, tbl, *args)

    monkeypatch.setattr(groups.GroupTable, "__init__", recording)
    assert verify_construction().passed
    assert all(n <= 24 for n in orders)


def test_construction_suite_builds_sym4_once(monkeypatch):
    """From cold, the suite fills one order-24 table, sym(4)'s inside
    bs(cyclic(3))'s builder: each path vertex's permutation generators are
    closed in the action, not in a second sym(4) table."""
    for helper in vars(verify).values():
        if hasattr(helper, "cache_clear"):
            helper.cache_clear()
    orders = Counter()
    init = groups.GroupTable.__init__

    def recording(self, tbl, *args):
        orders[len(tbl)] += 1
        init(self, tbl, *args)

    monkeypatch.setattr(groups.GroupTable, "__init__", recording)
    assert verify_construction().passed
    assert orders[24] == 1


def test_custom_corpus_restriction():
    corpus = [CorpusMember(spec_name(cyclic(6)), cyclic(6))]
    report = run_suite("totaldisc", corpus=corpus)
    assert report.passed
    assert {r.group for r in report.records} == {"cyclic(6)"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")
    assert set(SUITE_NAMES) == {"totaldisc", "bounds", "lemmas", "sym4",
                                "construction", "cd", "p2q"}


def test_lemma_suite_computes_each_fact_once(monkeypatch):
    """From cold (lattices aside), one lemma suite over the default corpus
    asks each subgroup question, and each table for its derived series,
    once: no call to these operations repeats its arguments, keyed by
    table, member masks and p."""
    for name, helper in vars(verify).items():
        if hasattr(helper, "cache_clear") and name != "_lattice":
            helper.cache_clear()
    calls = Counter()

    def key(arg):
        return ((arg.parent, arg.members) if isinstance(arg, SubgroupSet)
                else arg)

    names = {"derived_series", "intersect", "normal_core",
             "is_nilpotent_subgroup", "product_set", "p_prime_complement",
             "sylow_subgroup"}
    for name in names:
        def counting(*args, _name=name, _fn=getattr(verify, name)):
            calls[(_name, *map(key, args))] += 1
            return _fn(*args)
        monkeypatch.setattr(verify, name, counting)
    assert verify_lemma_suite().passed
    assert {k[0] for k in calls} == names
    repeated = {k: n for k, n in calls.items() if n > 1}
    assert not repeated


def test_run_all_enumerates_each_spec_once(monkeypatch):
    """verify holds the only cache: from cold, `verify all` enumerates the
    lattice of each distinct spec once, whichever suites share it."""
    for helper in vars(verify).values():
        if hasattr(helper, "cache_clear"):
            helper.cache_clear()
    spec_of = {}  # id(table) -> (spec, table); the table keeps its id
    enumerated = Counter()
    construct_detailed = verify.construct_detailed
    enumerate_subgroups = verify.enumerate_subgroups

    def constructing(spec, *args):
        built = construct_detailed(spec, *args)
        spec_of[id(built.table)] = (spec, built.table)
        return built

    def counting(table, *args):
        enumerated[spec_of[id(table)][0]] += 1
        return enumerate_subgroups(table, *args)

    monkeypatch.setattr(verify, "construct_detailed", constructing)
    monkeypatch.setattr(verify, "enumerate_subgroups", counting)
    assert all(report.passed for report in run_all())
    assert max(enumerated.values()) == 1
    assert set(enumerated) == {m.spec for m in _lattice_members(default_corpus())}
