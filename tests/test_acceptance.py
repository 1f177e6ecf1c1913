"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria with runtime budgets are timed around the suite call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from commgraph import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    build_graph,
    components_and_diameters,
    construct,
    default_corpus,
    enumerate_subgroups,
    sym,
    verify_cd_inequality,
    verify_construction,
    verify_diameter_bounds,
    verify_lemma_suite,
    verify_p2q,
    verify_sym4_geodesics,
    verify_totaldisc,
)
from lattice_oracle import oracle_enumerate_subgroups

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {criterion}: {label}{suffix}")
    assert ok, f"criterion {criterion} failed: {label} {detail}"


def test_criterion_1_sym4_containment_diameter():
    started = time.monotonic()
    lat = enumerate_subgroups(construct(sym(4)))
    graph = build_graph(lat, 3, KIND_CONTAINMENT)
    _, cd3 = components_and_diameters(graph)
    elapsed = time.monotonic() - started
    _report(1, "3-containment connected diameter of sym(4) is exactly 4",
            cd3 == 4 and elapsed < 5.0,
            f"cd3={cd3}, {elapsed:.2f}s < 5s")


def test_criterion_2_sym4_geodesics_and_paths():
    started = time.monotonic()
    report = verify_sym4_geodesics()
    elapsed = time.monotonic() - started
    checks = {r.params.get("check"): r.passed for r in report.records}
    ok = (report.passed and checks.get("geodesic_vertex_count")
          and checks.get("geodesic_template")
          and checks.get("simple_paths_share_mixed_transposition")
          and elapsed < 30.0)
    _report(2, "sym(4) geodesic template and mixed-transposition property",
            bool(ok), f"{len(report.records)} checks, {elapsed:.2f}s < 30s")


def test_criterion_3_total_disconnection():
    report = verify_totaldisc()
    fails = [r for r in report.records if not r.passed]
    _report(3, "zero edges iff p does not divide |G| (all corpus, p <= 13)",
            report.passed and not fails,
            f"{len(report.records)} (group, p) checks, zero tolerance")


def test_criterion_4_p2q5_reference_tallies():
    report = verify_p2q(q_values=(5,), primes=(2, 5))
    by_check = {}
    for r in report.records:
        by_check.setdefault(r.params.get("check"), []).append(r)
    class_ok = all(r.passed for r in by_check["component_classes"])
    complete_counts = by_check["complete_component_count"]
    star_counts = by_check["star_component_count"]
    counts_exact = (complete_counts[0].observed == 2
                    and star_counts[0].observed == 12)
    mismatch = [w for w in report.warnings if w["code"] == "CONVENTION_MISMATCH"]
    ok = report.passed and class_ok and (counts_exact or bool(mismatch))
    _report(4, "p2q(5): two complete components at p=2, twelve stars at p=5",
            ok,
            f"complete>=2: {complete_counts[0].observed}, "
            f"stars: {star_counts[0].observed}, "
            f"convention_mismatch={len(mismatch)}")


def test_criterion_5_p2q_classification_all_primes():
    started = time.monotonic()
    report = verify_p2q()
    elapsed = time.monotonic() - started
    sharp = [r for r in report.records
             if r.params.get("check") == "diameter_sharpness"]
    _report(5, "p2q components are singleton/complete/star, diameter <= 2 sharp",
            report.passed and sharp[0].observed == 2 and elapsed < 120.0,
            f"{len(report.records)} checks, {elapsed:.2f}s < 120s")


def test_criterion_6_diameter_bounds():
    report = verify_diameter_bounds()
    claims = {r.params["claim"] for r in report.records}
    ok = (report.passed
          and claims == {"metabelian_diameter_bound",
                         "normal_derived_sylow_bound",
                         "nilpotent_diameter_bound"}
          and any(r.group == "sym(4)" and r.p == 2
                  and r.params["claim"] == "normal_derived_sylow_bound"
                  for r in report.records))
    _report(6, "diameter bounds: metabelian <= 4, normal derived Sylow <= 4, "
               "nilpotent <= 1", ok,
            f"{len(report.records)} checks, zero tolerance")


def test_criterion_7_randomized_property_trials():
    started = time.monotonic()
    trials = 2000
    report = verify_lemma_suite(trials=trials, seed=7)
    elapsed = time.monotonic() - started
    applicable = sum(1 for r in report.records
                     if r.params.get("property") != "trivial_q_budget")
    violations = [r for r in report.records if not r.passed]
    skip_rate = report.skips / trials
    ok = (applicable >= 1000 and not violations and skip_rate < 0.5
          and elapsed < 120.0)
    _report(7, "index-identity property trials", ok,
            f"{applicable} applicable, {len(violations)} violations, "
            f"skip rate {skip_rate:.1%}, {elapsed:.2f}s < 120s")


def test_criterion_8_construction_certificate():
    started = time.monotonic()
    report = verify_construction()
    elapsed = time.monotonic() - started
    checks = {r.params.get("check") for r in report.records}
    order_rec = [r for r in report.records
                 if r.params.get("check") == "group_order"][0]
    ok = (report.passed and order_rec.observed == 1944
          and "path_step" in checks and "endpoints" in checks
          and elapsed < 60.0)
    _report(8, "bs(cyclic(3)) explicit 3-power containment path with "
               "non-adjacent endpoints", ok,
            f"order {order_rec.observed}, {elapsed:.2f}s < 60s")


def test_criterion_9_containment_vs_commensurability_diameter():
    report = verify_cd_inequality()
    p3 = [r for r in report.records if r.p == 3]
    p3_ok = all(r.passed for r in p3)
    _report(9, "diam(Gamma_p) >= floor((cd_p - 1)/2) over the corpus",
            report.passed and p3_ok,
            f"{len(report.records)} checks, {len(report.warnings)} warnings, "
            f"p=3 zero tolerance")


def test_criterion_10_oracle_equivalence():
    corpus = default_corpus()
    checked = 0
    ok = True
    for member in corpus:
        table = construct(member.spec)
        if table.order > 100:
            continue
        lat = enumerate_subgroups(table)
        oracle = oracle_enumerate_subgroups(
            table, max(2, math.ceil(math.log2(table.order))))
        same = ([s.members for s in lat.subgroups]
                == [s.members for s in oracle.subgroups])
        if member.spec == sym(4):
            same = same and len(lat.subgroups) == 30
        ok = ok and same
        checked += 1
    _report(10, "cyclic-extension enumeration matches tuple-closure oracle exactly",
            ok and checked >= 20, f"{checked} corpus groups of order <= 100")


def test_criterion_11_byte_identical_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for name in ("run1", "run2"):
        report = tmp_path / f"{name}.json"
        dot = tmp_path / f"{name}.dot"
        gjson = tmp_path / f"{name}.graph.json"
        proc = subprocess.run(
            [sys.executable, "-m", "commgraph.cli", "verify", "all",
             "--seed", "7", "--json", str(report)],
            capture_output=True, text=True, env=env, timeout=570)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        proc2 = subprocess.run(
            [sys.executable, "-m", "commgraph.cli", "graph", '{"sym": 4}',
             "-p", "3", "--kind", "cont", "--dot", str(dot),
             "--json", str(gjson)],
            capture_output=True, text=True, env=env, timeout=570)
        assert proc2.returncode == 0, proc2.stdout + proc2.stderr
        outputs.append((report.read_bytes(), dot.read_bytes(),
                        gjson.read_bytes(), proc.stdout))
    identical = outputs[0] == outputs[1]
    doc = json.loads(outputs[0][0])
    all_pass = all(all(r["pass"] for r in rep["records"])
                   for rep in doc["reports"])
    pinned = json.loads(REFERENCE.read_text(encoding="utf-8"))[
        "verify_all"]["verify all --seed 7"]["report_sha256"]
    digest = hashlib.sha256(outputs[0][0]).hexdigest()
    _report(11, "two independent `verify all --seed 7` runs are byte-identical "
                "and match the pinned report digest",
            identical and all_pass and digest == pinned,
            f"report {len(outputs[0][0])} bytes, sha256 {digest[:12]}, "
            f"DOT {len(outputs[0][1])} bytes")
