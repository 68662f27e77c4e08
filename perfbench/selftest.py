"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Checks, outside any timed path, that
- the seeded generators give valid matroids of the stated family and size,
  and the same matroids for the same seed;
- the package's memo tables are found, a memo table added later would be
  found too, building a workload's job list leaves them empty, and the
  detector for warm tables works;
- a corrupted polynomial that the methods of a report still agree on is
  caught by the independent output checks, so the fail ratio rises above 0;
- the reference loop that measures the machine's speed calls no package
  code, so a change to the package cannot move it;
- a traced pass gives the same outputs as an untraced one, its span self
  times add up to its wall time, the trace self-checks hold and fail on a
  layer that records nothing, and removing the tracer restores every
  wrapped function;
- BENCHMARK.json lists exactly the workloads and metrics the runs print.
Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from functools import lru_cache
from math import comb

import passrun  # puts ../src on sys.path
import run
import workloads
from gen import graphic, relabel, sparse_paving
from trace_layers import Tracer, layer_metrics

from matroid_invariants import invariants, poset
from matroid_invariants.matroid import Matroid, vamos
from matroid_invariants.poly import ONE
from matroid_invariants.poset import lattice_of_flats


class SelfTestFailure(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SelfTestFailure(message)


def test_generators():
    for seed in range(5):
        rng = random.Random(seed)
        for n, k, lam in ((9, 4, 6), (11, 5, 20)):
            m = sparse_paving(n, k, lam, rng)
            Matroid(m.n, m.bases, validate=True)
            expect(m.is_sparse_paving(), "sparse_paving(%d,%d,%d) is not sparse paving" % (n, k, lam))
            expect(len(m.bases) == comb(n, k) - lam, "wrong number of circuit-hyperplanes")
        for v, e, flats in ((6, 9, 89), (7, 12, 272)):
            g = graphic(v, e, flats, rng)
            Matroid(g.n, g.bases, validate=True)
            pairs_independent = all(g.rank_of((1 << a) | (1 << b)) == 2 for a in range(e) for b in range(a))
            expect(g.is_loopless() and pairs_independent, "graphic(%d,%d) is not simple" % (v, e))
            expect(g.rank == v - 1 and lattice_of_flats(g).size == flats, "graphic(%d,%d) has the wrong size" % (v, e))
        r = relabel(vamos(), rng)
        Matroid(r.n, r.bases, validate=True)
        expect(lattice_of_flats(r).size == 79, "relabelling changed the lattice of flats")
    for name in workloads.WORKLOADS:
        a = [j.name for j in workloads.build(name, 7)]
        b = [j.name for j in workloads.build(name, 7)]
        expect(a == b, "%s: one seed gave two job lists" % name)
    sp = [sparse_paving(11, 5, 20, random.Random(3)).key() for _ in range(2)]
    expect(sp[0] == sp[1], "one seed gave two sparse paving matroids")


def test_memo_tables_cold():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.build(w, 1)\n"
        "print(workloads.warm_memo_tables())" % (run.HERE, os.path.join(run.ROOT, "src"))
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    expect(out.strip() == "[]", "building the job lists warmed memo tables: %s" % out.strip())
    workloads.clear_memo_tables()
    invariants.kl_uniform(3, 5)
    expect("invariants.kl_uniform" in workloads.warm_memo_tables(), "a warm kl_uniform table went unnoticed")
    workloads.clear_memo_tables()
    expect(workloads.warm_memo_tables() == [], "clear_memo_tables left entries")
    known = {"invariants.kl_uniform", "hz.hz_uniform", "poly.eulerian", "poly.derangement",
             "poly.binomial_eulerian", "poly._stirling2_row", "equivariant.specht_dim"}
    expect(known <= set(workloads.MEMO_TABLES), "memo tables not found: %s" % sorted(known - set(workloads.MEMO_TABLES)))

    # a memo table added later, at module level or on a class, is found too
    def module_probe():
        return 0

    def class_probe():
        return 0

    module_probe.__module__ = "matroid_invariants.poset"
    class_probe.__module__ = "matroid_invariants.matroid"
    class_probe.__qualname__ = "Matroid.class_probe"
    poset._bench_probe = lru_cache(maxsize=None)(module_probe)
    Matroid._bench_probe = staticmethod(lru_cache(maxsize=None)(class_probe))
    try:
        found = set(workloads._memo_tables()) - set(workloads.MEMO_TABLES)
    finally:
        del poset._bench_probe, Matroid._bench_probe
    expect(found == {"poset.test_memo_tables_cold.<locals>.module_probe", "matroid.Matroid.class_probe"},
           "an added memo table went unnoticed: %s" % sorted(found))

    # no two crosscheck jobs share a matroid object
    matroids = [j.run.__defaults__[0] for j in workloads.build("corpus-small", 0)]
    expect(len({id(m) for m in matroids}) == len(matroids), "crosscheck jobs share a matroid object")


def test_corruption_is_caught():
    # z on 11 elements runs conv_def alone, so `agree` is vacuous
    jobs = [j for j in workloads.build("lattice-large", 0) if j.name == "crosscheck sparse-paving-11-5-20 z"]
    expect(len(jobs) == 1, "no z job on 11 elements")
    clean = passrun.run_pass(jobs)
    expect(run.tally([clean])[1] == 0, "the clean z job failed: %s" % clean["errors"])

    original = invariants.z_poly

    def corrupted(*args, **kwargs):
        return original(*args, **kwargs) + ONE

    invariants.z_poly = corrupted
    try:
        rep = jobs[0].run()
        expect(rep.agree, "a single-method report should agree with itself")
        bad = passrun.run_pass(jobs)
    finally:
        invariants.z_poly = original
    attempted, failed, _ = run.tally([bad])
    expect(failed / attempted > 0, "a corrupted Z polynomial passed the checks")


def test_reference_loop_is_independent():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        passrun.reference_unit()
    finally:
        sys.setprofile(None)
    package = os.path.join(run.ROOT, "src")
    expect(not any(f.startswith(package) for f in called), "the reference loop calls package code")


def test_trace():
    jobs = {
        "closed-form": [
            j for j in workloads.build("closed-form", 0)
            if not j.name.startswith(("sweep sparse-paving n=15", "hz grid n=9", "hz grid n=8"))
        ],
        "lattice-large": [
            j for j in workloads.build("lattice-large", 0)
            if j.name.startswith("crosscheck graphic") or j.name == "certify vamos"
        ],
    }
    patched = (Matroid.closure, invariants.compute_invariant, workloads.API.cli_main)
    for name, subset in jobs.items():
        plain = passrun.run_pass(subset)
        tracer = Tracer()
        traced = passrun.run_pass(subset, tracer)
        expect(traced["fingerprints"] == plain["fingerprints"], "%s: tracing changed an output" % name)
        expect(run.tally([plain, traced])[1] == 0, "%s: a traced job failed" % name)
        layers = layer_metrics(tracer, traced["wall_s"])
        problems = run.trace_checks(name, layers)
        expect(not problems, "%s: %s" % (name, problems))
        expect(any(s[1] == "bench.job" for s in tracer.spans), "%s: no job spans recorded" % name)
    expect(
        (Matroid.closure, invariants.compute_invariant, workloads.API.cli_main) == patched,
        "uninstall left a wrapper in place",
    )

    # a layer that a call site stops reaching, or time outside every layer,
    # fails the check
    for broken in ({"realroots.sturm_chain.calls": 0}, {"cli.self_s": 0.0},
                   {"trace.unattributed_s": 0.1 * layers["trace.wall_s"]}):
        expect(run.trace_checks(name, {**layers, **broken}), "%s: %s went unnoticed" % (name, broken))


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ")
    expect({m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mib"}, "end-to-end names differ")
    tracer = Tracer()
    record = passrun.run_pass(workloads.build("closed-form", 0)[:1], tracer, check=False)
    names = list(layer_metrics(tracer, record["wall_s"])) + ["trace.overhead_s", "trace.overhead_ratio"]
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(sorted(listed) == sorted(names), "per-layer names differ: %s" % sorted(set(listed) ^ set(names)))
    expect(all(listed[n] == run.unit_of(n) for n in names), "per-layer units differ")


def main():
    failed = 0
    tests = (test_generators, test_memo_tables_cold, test_corruption_is_caught,
             test_reference_loop_is_independent, test_trace,
             test_benchmark_json_lists_every_metric)
    for test in tests:
        try:
            test()
            print("PASS %s" % test.__name__)
        except SelfTestFailure as exc:
            failed += 1
            print("FAIL %s: %s" % (test.__name__, exc))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
