"""commgraph benchmark: run one workload as a series of cold-process samples.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 58 --trace 0

Run from the repository root.  Each sample is a fresh interpreter running
the workload's jobs one at a time (see jobs.py), because the program
memoizes tables, lattices and graphs for the life of a process: repeats in
one process would time memo hits.  Before measuring, one untimed warm-up
interpreter imports the program, so that bytecode and the file cache are
warm, and SETUP_PROBES more interpreters measure set-up time only.

A new sample (with --trace 1, an untraced-traced pair) starts while it can
be expected to end within --seconds of the first, judged by the duration
of the one before; at least MIN_SAMPLES run.  Every job's output is
checked against reference.json.

Every time reported is scaled to one reference speed of the machine: a
child times a fixed loop of pure Python (child.gauge_s) right after its
imports and every 0.1 s while its jobs run, and a time measured while that
loop ran k times slower than REFERENCE_GAUGE_S is divided by k.  The raw
times are printed beside the scaled ones.

With --trace 0 the result holds the end-to-end metrics (medians over
samples).  With --trace 1 it holds the per-layer metrics of the traced
samples, plus trace.overhead_s: the median over pairs of traced minus
untraced wall time.  The last line of standard output is the result as one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work"
MIN_SAMPLES = 2
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 90
WORKLOADS = ("verify_all", "lattice_ladder", "graph_dense")

# child.gauge_s on the machine of the recorded figures (see README.md) when
# nothing else loads it.
REFERENCE_GAUGE_S = 0.00075

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    """The one environment every child process gets."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(args: list[str], workdir: str, env: dict) -> dict | None:
    """Run child.py; its result with "setup_s" added and its times scaled to
    the reference speed, or None on failure."""
    out = os.path.join(workdir, "child.json")
    if os.path.exists(out):
        os.remove(out)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), args[0], out, *args[1:]],
            env=env, cwd=workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child {args} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(out):
        print(f"child {args} exited {proc.returncode}:\n"
              f"{proc.stderr.decode(errors='replace')}", file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - started
    scale_to_reference(result)
    return result


def scale_to_reference(result: dict) -> None:
    """Scale a child's times to REFERENCE_GAUGE_S, keeping the raw wall and
    set-up times as raw_wall_s and raw_setup_s."""
    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] *= REFERENCE_GAUGE_S / result["setup_gauge_s"]
    if "wall_s" not in result:
        return
    slow = result["gauge_s"] / REFERENCE_GAUGE_S
    result["raw_wall_s"] = result["wall_s"]
    result["wall_s"] /= slow
    layers = result.get("layers", {})
    for name, value in layers.items():
        if name.endswith("_per_s"):
            layers[name] = value * slow
        elif name.endswith("_s"):
            layers[name] = value / slow


def failed_jobs(sample: dict, reference: dict) -> int:
    """Jobs that raised or whose summary differs from the reference."""
    return sum(1 for job in sample["jobs"]
               if job["error"] is not None
               or job["summary"] != reference.get(job["name"]))


def median_of(values) -> tuple[float, int]:
    """(median, sample count)."""
    values = list(values)
    return statistics.median(values), len(values)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, reference: dict):
    env = child_env()
    if run_child(["probe"], workdir, env) is None:  # warm-up
        raise RuntimeError("the program could not be imported")
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_child(["probe"], workdir, env)
        if probe is None:
            raise RuntimeError("a set-up probe failed")
        setups.append(probe)

    plain, traced = [], []
    attempted = failed = 0
    rounds = 0
    began = time.monotonic()
    last = 0.0
    while rounds < MIN_SAMPLES or time.monotonic() - began + last <= seconds:
        rounds += 1
        round_began = time.monotonic()
        for flag, into in (("0", plain), ("1", traced))[:1 + trace]:
            sample = run_child(["sample", workload, str(seed), flag, workdir],
                               workdir, env)
            if sample is None:  # the program is broken: stop measuring
                return setups, plain, traced, attempted + 1, failed + 1
            attempted += len(sample["jobs"])
            failed += failed_jobs(sample, reference)
            into.append(sample)
        last = time.monotonic() - round_began
    return setups, plain, traced, attempted, failed


def end_to_end(setups, plain) -> dict[str, tuple[float, int]]:
    return {"wall_s": median_of(s["wall_s"] for s in plain),
            "setup_s": median_of(s["setup_s"] for s in setups + plain),
            "peak_rss_mb": median_of(s["peak_rss_mb"] for s in plain)}


def per_layer(plain, traced) -> dict[str, tuple[float, int]]:
    out = {name: median_of(s["layers"][name] for s in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = median_of(
        t["layers"]["trace.wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("yield") else "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "commgraph" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        setups, plain, traced, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, reference)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print("error: no sample completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}")
    e2e = end_to_end(setups, plain)
    for name, (value, n) in e2e.items():
        print(f"  {name:<13} {value:12.4f} {UNITS[name]:<5} median of {n}")
    raw_wall, _ = median_of(s["raw_wall_s"] for s in plain)
    raw_setup, _ = median_of(s["raw_setup_s"] for s in setups + plain)
    print(f"  unscaled medians: wall_s {raw_wall:.4f} s, setup_s {raw_setup:.4f} s")
    print("  each sample, wall_s / raw wall_s / gauge ms: " + "  ".join(
        f"{s['wall_s']:.3f}/{s['raw_wall_s']:.3f}/{s['gauge_s'] * 1e3:.3f}"
        for s in plain))
    print(f"  {'error_rate':<13} {failed / attempted:12.4f} ratio "
          f"{failed} failed of {attempted} jobs")
    if args.trace:
        layers = per_layer(plain, traced)
        for name, (value, n) in layers.items():
            print(f"  {name:<30} {value:14.6f} {layer_unit(name):<5} median of {n}")
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, (v, _) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, (v, _) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
