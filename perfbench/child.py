"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 child.py probe  OUT
    python3 child.py sample OUT WORKLOAD SEED TRACE WORKDIR

Both modes import the program and record the CLOCK_MONOTONIC time at which
the first job could run, then time GAUGE_BURST runs of the speed gauge.
``sample`` then runs the workload's jobs, timing them with the output checks
left out, and writes the job summaries, the peak RSS and, when TRACE is 1,
the per-layer metrics to the JSON file OUT.

The speed gauge is a fixed loop of pure Python.  The machine this benchmark
was made on shares its cores with other tenants, and its speed changes by up
to half for a minute at a time; the gauge, timed while the jobs run (from a
timer signal every GAUGE_INTERVAL_S), slows with it, so run.py can scale the
times to one reference speed.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time

GAUGE_LOOPS = 10_000
GAUGE_BURST = 15
GAUGE_INTERVAL_S = 0.1


def gauge_s() -> float:
    """Time of one run of the speed gauge."""
    began = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - began


def main(argv: list[str]) -> int:
    mode, out = argv[0], argv[1]
    import jobs
    import spans

    tracer = None
    if mode == "sample" and argv[4] == "1":
        tracer = spans.Tracer()
        spans.instrument(tracer)
    result: dict = {"ready": time.monotonic()}
    result["setup_gauge_s"] = statistics.median(gauge_s() for _ in range(GAUGE_BURST))
    if mode == "sample":
        workload, seed, workdir = argv[2], int(argv[3]), argv[5]
        planned = jobs.plan(workload, seed, workdir)
        outputs, gauges = [], []
        signal.signal(signal.SIGALRM, lambda *_: gauges.append(gauge_s()))
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        start = time.perf_counter()
        for name, run in planned:
            try:
                outputs.append((name, run(), None))
            except Exception as exc:  # a failed job is counted, not fatal
                outputs.append((name, None, f"{type(exc).__name__}: {exc}"))
        wall_s = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        result["wall_s"] = wall_s
        result["gauge_s"] = statistics.median(gauges or [result["setup_gauge_s"]])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, wall_s)
        result["jobs"] = []
        for name, output, error in outputs:
            summary = None
            if error is None:
                try:
                    summary = jobs.summarize(workload, output)
                except Exception as exc:  # an unreadable output fails its job
                    error = f"{type(exc).__name__}: {exc}"
            result["jobs"].append({"name": name, "error": error, "summary": summary})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
