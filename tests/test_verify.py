"""The verification suites themselves: verdicts, determinism, reporting."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from commgraph import (
    bs,
    cyclic,
    default_corpus,
    run_all,
    run_suite,
    spec_name,
    verify,
    verify_construction,
    verify_lemma_suite,
)
from commgraph.verify import SUITE_NAMES, CorpusMember, _lattice_members


def test_default_corpus_contents():
    corpus = default_corpus()
    names = [m.name for m in corpus]
    assert "sym(4)" in names
    assert "cyclic(12)" in names
    assert "dihedral(8)" in names
    assert "p2q(7)" in names
    assert names[-1] == "bs(cyclic(3))"
    assert not corpus[-1].enumerate_lattice
    assert len(_lattice_members(corpus)) == len(corpus) - 1


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


def test_construction_suite_on_alternate_base():
    # cyclic(2) has containment diameter 0 at p=3; the explicit path still
    # certifies two non-adjacent connected endpoints inside C2^4 x sym(4)
    report = verify_construction(cyclic(2))
    assert report.passed
    orders = [r for r in report.records if r.params.get("check") == "group_order"]
    assert orders[0].observed == 24 * 16


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


def test_run_all_enumerates_each_spec_once(monkeypatch):
    """verify holds the only cache: from cold, `verify all` enumerates the
    lattice of each distinct spec once, whichever suites share it."""
    for helper in (verify._lattice, verify._graph, verify._components,
                   verify._derived_series):
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
