"""Record reference.json: the checked summary of every job's output.

    python3 perfbench/record_reference.py

Run from the repository root, on a commit whose outputs are trusted.  Each
summary comes from the same child process the benchmark runs.  The
recording is refused unless the subgroup counts match the known values
below (sym(5) has 156 subgroups) and every `verify all` run passed.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

KNOWN_SUBGROUPS = {"sym(5)": 156, "p2q(7)": 216,
                   "direct(sym(4),sym(3))": 372,
                   "direct(sym(5),cyclic(2))": 535}
VERIFY_SEED_COUNT = 10  # len(jobs.VERIFY_SEEDS); seeds 0..9 select each once


def summaries(workload: str, seed: int, workdir: str, env: dict) -> dict:
    sample = run.run_child(["sample", workload, str(seed), "0", workdir],
                           workdir, env)
    if sample is None:
        raise SystemExit(f"{workload} seed {seed}: the sample failed")
    for job in sample["jobs"]:
        if job["error"] is not None:
            raise SystemExit(f"{job['name']}: {job['error']}")
    return {job["name"]: job["summary"] for job in sample["jobs"]}


def main() -> int:
    env = run.child_env()
    reference: dict[str, dict] = {}
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as workdir:
        reference["verify_all"] = {}
        for seed in range(VERIFY_SEED_COUNT):
            reference["verify_all"].update(summaries("verify_all", seed, workdir, env))
        reference["lattice_ladder"] = summaries("lattice_ladder", 0, workdir, env)
        reference["graph_dense"] = summaries("graph_dense", 0, workdir, env)

    if len(reference["verify_all"]) != VERIFY_SEED_COUNT:
        raise SystemExit("verify seeds are not distinct")
    for name, summary in reference["verify_all"].items():
        if summary["exit"] != 0:
            raise SystemExit(f"{name} exited {summary['exit']}")
    counts = {name: s["subgroups"] for name, s in reference["lattice_ladder"].items()}
    if counts != KNOWN_SUBGROUPS:
        raise SystemExit(f"subgroup counts {counts} != {KNOWN_SUBGROUPS}")

    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
