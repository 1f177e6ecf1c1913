"""The benchmark's workloads: which public calls each sample makes, and the
summary of each output that is compared with the recorded reference.

Every workload is a list of jobs, run one at a time in a fresh interpreter.
A job is a name and a call; the call returns the program's output, and
``summarize`` turns that output into a small JSON-able record (counts and
sha256 digests) after the timer has stopped.

Jobs reach the program through module attributes looked up at call time
(``lattice.enumerate_subgroups`` rather than a name bound at import), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter

from commgraph import cli, constructions, graphs, lattice
from commgraph.constructions import abelian, cyclic, dihedral, direct, p2q, sym

# `verify all` report digests are recorded for these seeds only; the
# benchmark seed picks one of them (seed modulo the length).
VERIFY_SEEDS = (7, 1, 2, 3, 4, 5, 6, 8, 9, 10)

LADDER = (sym(5), p2q(7), direct([sym(4), sym(3)]),
          direct([sym(5), cyclic(2)]))

DENSE_GROUPS = (abelian([2, 2, 2, 2, 2]),
                direct([dihedral(4), dihedral(4)]),
                direct([sym(4), abelian([2, 2])]))
DENSE_PRIMES = (2, 3, 5)
DENSE_KINDS = (("comm", graphs.KIND_COMMENSURABILITY),
               ("cont", graphs.KIND_CONTAINMENT))


def verify_seed(seed: int) -> int:
    return VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]


def _verify_job(seed: int, workdir: str):
    vseed = verify_seed(seed)
    path = os.path.join(workdir, f"verify-{os.getpid()}.json")

    def run():
        code = cli.main(["verify", "all", "--seed", str(vseed), "--json", path])
        return code, path

    return f"verify all --seed {vseed}", run


def _ladder_job(spec):
    def run():
        return lattice.enumerate_subgroups(constructions.construct(spec))

    return constructions.spec_name(spec), run


def _dense_jobs(spec, rng: random.Random):
    """One job per (kind, p); the group's lattice is enumerated once, by
    whichever of its jobs runs first, and shared by the rest."""
    held = []

    def lattice_of():
        if not held:
            held.append(lattice.enumerate_subgroups(constructions.construct(spec)))
        return held[0]

    def job(kind: str, p: int):
        def run():
            graph = graphs.build_graph(lattice_of(), p, kind)
            return graph, graphs.components_and_diameters(graph)
        return run

    pairs = [(short, kind, p) for short, kind in DENSE_KINDS for p in DENSE_PRIMES]
    rng.shuffle(pairs)
    name = constructions.spec_name(spec)
    return [(f"{name} {short} p={p}", job(kind, p)) for short, kind, p in pairs]


def plan(workload: str, seed: int, workdir: str) -> list:
    """The (name, call) jobs of one sample; the seed fixes the inputs."""
    rng = random.Random(seed)
    if workload == "verify_all":
        return [_verify_job(seed, workdir)]
    if workload == "lattice_ladder":
        jobs = [_ladder_job(spec) for spec in LADDER]
        rng.shuffle(jobs)
        return jobs
    if workload == "graph_dense":
        order = list(DENSE_GROUPS)
        rng.shuffle(order)
        return [j for spec in order for j in _dense_jobs(spec, rng)]
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def lattice_digest(lat) -> str:
    """Digest of the canonical lattice: member masks in lattice order."""
    return _sha256(format(s.members, "x") for s in lat.subgroups)


def summarize(workload: str, output) -> dict:
    """The checked facts about one job's output."""
    if workload == "verify_all":
        code, path = output
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(path)
        return {"exit": code, "report_sha256": digest}
    if workload == "lattice_ladder":
        return {"subgroups": len(output), "lattice_sha256": lattice_digest(output)}
    graph, (reports, diameter) = output
    return {"vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "components": len(reports),
            "connected_diameter": diameter,
            "diameter_counts": sorted(Counter(r.diameter for r in reports).items()),
            "edges_sha256": _sha256(f"{i} {j} {a} {b}" for (i, j), (a, b)
                                    in sorted(graph.edge_data.items()))}
