"""Tests of the benchmark's own code:  python3 -m pytest perfbench"""

import itertools

import run
import spans


def test_self_time_subtracts_direct_children():
    #  cli [0, 10]
    #    verify.cd [1, 7]
    #      lattice.enumerate [2, 5]
    #    graphs.build [8, 9]
    tree = [["cli", 0.0, 10.0, None],
            ["verify.cd", 1.0, 7.0, 0],
            ["lattice.enumerate", 2.0, 5.0, 1],
            ["graphs.build", 8.0, 9.0, 0]]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]


def test_layer_self_times_and_unattributed_add_up_to_wall():
    tracer = spans.Tracer(clock=itertools.count().__next__)
    inner = tracer.wrap("lattice.enumerate", lambda: None)
    outer = tracer.wrap("verify.cd", inner)
    outer()  # verify.cd spans clock ticks 0..3, enumerate 1..2
    metrics = spans.layer_metrics(tracer, wall_s=5.0)
    assert metrics["verify.cd_s"] == 2.0
    assert metrics["lattice.enumerate_s"] == 1.0
    selfs = sum(metrics[m] for m in spans.SELF_TIME_METRICS.values())
    assert selfs + metrics["trace.unattributed_s"] == 5.0


def test_builds_are_counted_by_new_identity():
    tracer = spans.Tracer()
    memo = {}

    class Lattice(list):
        pass

    def enumerate_subgroups(key):
        return memo.setdefault(key, Lattice(range(key)))

    traced = tracer.wrap("lattice.enumerate", enumerate_subgroups,
                         spans._on_lattice)
    for key in (3, 3, 5, 3):
        traced(key)
    assert tracer.counts["lattice.calls"] == 4
    assert tracer.counts["lattice.lattices_built"] == 2
    assert tracer.counts["lattice.subgroups"] == 8


def test_median_is_reported_with_its_sample_count():
    assert run.median_of([3.0, 1.0, 2.0]) == (2.0, 3)
    assert run.median_of(x for x in [4.0, 1.0, 2.0, 3.0]) == (2.5, 4)


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_GAUGE_S
    sample = {"setup_s": 0.5, "setup_gauge_s": 2 * ref,
              "wall_s": 8.0, "gauge_s": 2 * ref,
              "layers": {"graphs.build_s": 4.0, "lattice.subgroups_per_s": 10.0,
                         "graphs.edges": 7}}
    run.scale_to_reference(sample)
    assert sample["setup_s"] == 0.25 and sample["raw_setup_s"] == 0.5
    assert sample["wall_s"] == 4.0 and sample["raw_wall_s"] == 8.0
    assert sample["layers"] == {"graphs.build_s": 2.0,
                                "lattice.subgroups_per_s": 20.0,
                                "graphs.edges": 7}


def test_sample_with_a_wrong_digest_counts_as_failed():
    reference = {"sym(5)": {"subgroups": 156, "lattice_sha256": "aa"},
                 "p2q(7)": {"subgroups": 216, "lattice_sha256": "bb"}}
    sample = {"jobs": [
        {"name": "sym(5)", "error": None,
         "summary": {"subgroups": 156, "lattice_sha256": "aa"}},
        {"name": "p2q(7)", "error": None,
         "summary": {"subgroups": 216, "lattice_sha256": "b0"}}]}
    assert run.failed_jobs(sample, reference) == 1
    sample["jobs"][1]["summary"]["lattice_sha256"] = "bb"
    assert run.failed_jobs(sample, reference) == 0
    sample["jobs"][0]["error"] = "ValueError: boom"
    assert run.failed_jobs(sample, reference) == 1
