"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (perfbench/passrun.py)
on the inputs that the seed gives, until the next pass would end after S
seconds, and at least MIN_PASSES of them.  The first pass checks every output;
each later pass must reproduce the first one's outputs exactly.

With --trace 0 it reports the end-to-end metrics over the passes: setup_s
(median time from process start to the first timed job), wall_s (mean time of
all jobs of a pass), both at the reference speed (see `slowdown`), and
peak_rss_mib (median peak RSS of a pass).  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead (traced minus untraced wall_s).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is not 0, and no result is printed, when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus-small", "lattice-large", "closed-form")
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a run must end within 180 s
TRACE_DIR = os.path.join(HERE, "out")


def unit_of(layer_metric):
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric.endswith("ratio"):
        return "ratio"
    if layer_metric == "poly.max_coeff_bits":
        return "bits"
    return "count"


# Time of one passrun.reference_unit() on a 2-core x86 VM (Xeon at 2.1 GHz,
# Python 3.11.7) at its median speed.  It only sets the scale of the times.
REFERENCE_UNIT_S = 0.018


def slowdown(records):
    """How much slower than REFERENCE_UNIT_S the reference loop ran between
    the jobs of these passes.  Other load on a shared host changes the
    speed of the whole machine by tens of percent, in spells from seconds
    to minutes; the jobs and the reference loop interleaved with them slow
    down alike, so dividing by this keeps the program's cost and drops the
    machine's state."""
    per_unit = sum(r["reference_s"] for r in records) / sum(r["reference_units"] for r in records)
    return per_unit / REFERENCE_UNIT_S


def pass_wall(records):
    """Mean wall time of the jobs of one pass, at the reference speed."""
    return statistics.fmean(r["wall_s"] for r in records) / slowdown(records)


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, deadline, check=False, trace_file=None):
    """Run one pass in a fresh interpreter; returns its record plus setup_s."""
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload, "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if trace_file:
        cmd += ["--trace", trace_file]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - started, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise PassError("a %s pass did not finish within the run's time limit" % workload)
    if proc.returncode != 0:
        raise PassError("a %s pass exited %d:\n%s" % (workload, proc.returncode, proc.stderr[-2000:]))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_job_at"] - started
    record["process_s"] = time.monotonic() - started
    return record


def run_passes(workload, seed, seconds, trace):
    """Passes until the next one would overrun `seconds`; returns
    (untraced records, traced records)."""
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        want_trace = trace and len(traced) < len(plain)
        trace_file = None
        if want_trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_file = os.path.join(TRACE_DIR, "trace-%s-seed%d-pass%d.json" % (workload, seed, len(traced)))
        record = run_pass(workload, seed, deadline, check=not plain and not traced, trace_file=trace_file)
        (traced if want_trace else plain).append(record)
        done = len(plain) >= MIN_PASSES and (not trace or traced)
        # the next pass is about as long as the longest so far
        longest = max(r["process_s"] for r in plain + traced)
        if done and time.monotonic() - t_start + longest > seconds:
            return plain, traced


def tally(records):
    """(attempted, failed, messages): a job fails if it raised, its check
    failed, or its output differs from that of the first pass."""
    reference = records[0]["fingerprints"]
    attempted = failed = 0
    messages = []
    for r in records:
        if r["jobs"] != records[0]["jobs"]:
            raise PassError("passes of one seed built different job lists")
        for i, fp in enumerate(r["fingerprints"]):
            attempted += 1
            if fp is None or fp != reference[i]:
                failed += 1
                messages.append(r["errors"].get(str(i), "%s: output differs from the first pass" % r["jobs"][i]))
        if r["warm_memo_tables"]:
            messages.append("memo tables warm before the first job: %s" % r["warm_memo_tables"])
    return attempted, failed, messages


# Layers that each workload exists to exercise (see README.md): a traced
# pass must record calls, or self time where no calls are counted, in each.
# A zero means that a call site no longer goes through the wrapped name.
EXERCISED = {
    "corpus-small": (
        "matroid.closure", "matroid.rank_of", "matroid.minor", "poset.lattice_build",
        "poset.interval_char_poly", "poset.interval_chibar", "poset.mobius", "poly.mul",
        "invariants.chow.semismall", "invariants.augchow.semismall",
        "invariants.kl.bv_deletion", "invariants.z.bv_deletion",
    ),
    "lattice-large": (
        "matroid.closure", "matroid.rank_of", "poset.lattice_build", "poset.interval_char_poly",
        "poset.interval_chibar", "poset.mobius", "poset.chow_table", "poset.kl_table", "poly.mul",
        "realroots.real_rooted", "realroots.sturm_chain", "realroots.interlaces",
        "invariants.chow.chains", "invariants.augchow.chains", "invariants.certify", "cli",
    ),
    "closed-form": (
        "poly.mul", "realroots.real_rooted", "realroots.sturm_chain", "hz.hz_poly", "hz.hz_uniform",
        "invariants.closed_form", "equivariant", "cli",
    ),
}
# Largest share of a traced pass that may fall outside every wrapped call.
MAX_UNATTRIBUTED = 0.02


def trace_checks(workload, layers):
    """Self-checks of one traced pass; returns failure messages."""
    bad = []
    wall = layers["trace.wall_s"]
    if abs(layers["trace.accounted_s"] - wall) > 0.01 * wall:
        bad.append("span self times account for %.4f s of a %.4f s traced pass"
                   % (layers["trace.accounted_s"], wall))
    if layers["trace.unattributed_s"] > MAX_UNATTRIBUTED * wall:
        bad.append("%.4f s of a %.4f s traced pass is in no layer" % (layers["trace.unattributed_s"], wall))
    for name in EXERCISED[workload]:
        metric = name + ".calls" if name + ".calls" in layers else name + ".self_s"
        if not layers[metric] > 0:
            bad.append("%s recorded no %s" % (workload, metric))
    if workload == "closed-form" and (layers["matroid.closure.calls"] or layers["poset.lattice_build.calls"]):
        bad.append("closed-form built a lattice or called the closure oracle")
    if workload == "lattice-large" and not layers["poset.lattice_build.reuse_ratio"] < 1:
        bad.append("lattice-large rebuilt no lattice: reuse ratio %r" % layers["poset.lattice_build.reuse_ratio"])
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed, messages = tally(plain + traced)
    except PassError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    wall = pass_wall(plain)
    metrics = {}
    if args.trace:
        per_pass = [r["layers"] for r in traced]
        layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        layers["trace.wall_s"] = pass_wall(traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / wall
        for p in per_pass:
            messages += trace_checks(args.workload, p)
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
    else:
        setup = statistics.median(r["setup_s"] for r in plain) / slowdown(plain)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        metrics["peak_rss_mib"] = {"value": statistics.median(r["peak_rss_mib"] for r in plain), "unit": "MiB"}

    for m in messages:
        print("check failed: %s" % m, file=sys.stderr)
    print("%s seed %d: %d untraced and %d traced passes, %d jobs attempted, %d failed"
          % (args.workload, args.seed, len(plain), len(traced), attempted, failed))
    print("  %-14s %.6g jobs/jobs" % ("fail_ratio", failed / attempted))
    print("  %-14s %s s (as measured)" % ("wall_s/pass", " ".join("%.3f" % r["wall_s"] for r in plain)))
    print("  %-14s %.4f" % ("slowdown", slowdown(plain)))
    for name, m in metrics.items():
        print("  %-14s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not messages, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
