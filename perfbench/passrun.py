"""One benchmark pass, in the interpreter it was started in.

    python3 perfbench/passrun.py --workload NAME --seed N [--trace FILE] [--check]

Imports the package from ../src, builds the seeded job list, then runs every
job once under a timer.  Memo tables are emptied before each job, so a job
costs what the same command costs from a shell.  Between jobs it times a
fixed reference loop, which tells how fast the machine ran meanwhile.  After
the timed loop it reads the peak RSS, removes the tracer and, with --check,
checks every output.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "matroid_invariants")):
    # measure the checkout's code, never a copy installed elsewhere
    sys.exit("no package source under %s" % SRC)
sys.path.insert(0, SRC)

import workloads  # noqa: E402

# Time spent in the reference loop, as a share of the time spent in jobs.
REFERENCE_SHARE = 0.15
_K6_EDGES = [(a, b) for a in range(6) for b in range(a + 1, 6)]


def _k6_closure(mask):
    """Closure of an edge set of K6 in its cycle matroid, by union-find."""
    parent = list(range(6))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, (a, b) in enumerate(_K6_EDGES):
        if mask >> e & 1:
            parent[find(a)] = find(b)
    return sum(1 << e for e, (a, b) in enumerate(_K6_EDGES) if find(a) == find(b))


def reference_unit():
    """A fixed piece of interpreter work that calls no package code, of the
    kinds the package spends its time in: the 203 flats of K6 found by
    closing edge sets as bit masks, a Fraction sum and an integer
    convolution.  Its time, taken between jobs, measures the machine's speed
    at that moment, which on a shared host swings by tens of percent within
    minutes."""
    flats, frontier = {0}, [0]
    while frontier:
        grown = []
        for f in frontier:
            for e in range(len(_K6_EDGES)):
                if not f >> e & 1:
                    g = _k6_closure(f | 1 << e)
                    if g not in flats:
                        flats.add(g)
                        grown.append(g)
        frontier = grown
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    p, q = [1, 3, 3, 1], [1]
    for _ in range(12):
        q = [sum(q[j] * p[k - j] for j in range(len(q)) if 0 <= k - j < len(p))
             for k in range(len(q) + len(p) - 1)]
    return len(flats), total, q


def run_pass(jobs, tracer=None, check=True):
    """Run the jobs once, in this process, and return the pass record.

    `first_job_at` is the time.monotonic() stamp at which the first timed
    job starts, so the parent can measure set-up from process start.
    Before each job and after the last, the reference loop runs until its
    total time is REFERENCE_SHARE of the job time so far (at least once).
    """
    warm = workloads.warm_memo_tables()
    if tracer is not None:
        tracer.install()
    first_job_at = time.monotonic()
    outputs, errors, seconds = [], {}, []
    clock = time.perf_counter
    reference_s, reference_units = 0.0, 0

    def top_up_reference():
        nonlocal reference_s, reference_units
        jobs_s = sum(seconds)
        while reference_s <= REFERENCE_SHARE * jobs_s:
            t0 = clock()
            reference_unit()
            reference_s += clock() - t0
            reference_units += 1

    for i, job in enumerate(jobs):
        workloads.clear_memo_tables()
        top_up_reference()
        t0 = clock()
        try:
            out = tracer.run_job(i, job.run) if tracer is not None else job.run()
        except Exception:  # a failing job is counted, the pass goes on
            out = None
            errors[i] = traceback.format_exc(limit=3)
        seconds.append(clock() - t0)
        outputs.append(out)
    top_up_reference()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    if check:
        for i, (job, out) in enumerate(zip(jobs, outputs)):
            if i in errors:
                continue
            try:
                job.check(out)
            except Exception:
                errors[i] = traceback.format_exc(limit=3)
    return {
        "first_job_at": first_job_at,
        "wall_s": sum(seconds),
        "reference_s": reference_s,
        "reference_units": reference_units,
        "peak_rss_mib": peak_rss_mib,
        "jobs": [job.name for job in jobs],
        "fingerprints": [
            None if i in errors else hashlib.sha1(workloads.fingerprint(out).encode()).hexdigest()
            for i, out in enumerate(outputs)
        ],
        "errors": {str(i): "%s: %s" % (jobs[i].name, text) for i, text in errors.items()},
        "warm_memo_tables": warm,
        "checked": check,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", help="trace the pass and write its spans to this file")
    parser.add_argument("--check", action="store_true", help="check every output after the timed loop")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from trace_layers import Tracer, layer_metrics

        tracer = Tracer()
    result = run_pass(workloads.build(args.workload, args.seed), tracer, args.check)
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = layer_metrics(tracer, result["wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
