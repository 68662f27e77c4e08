"""Layer tracing for a benchmark pass.

`Tracer.install` wraps public functions of the package where their names
are looked up (module globals, class attributes, and the benchmark's own
call table), and `uninstall` puts the originals back.  Every wrapped call
is timed; its self time is its duration minus the time of the wrapped calls
it made.  Non-leaf calls are also kept as spans (name, start, end, parent
span id, job index); hot leaves (polynomial products, closure and rank
oracles, minors, interval polynomials) are only aggregated per job as a
call count plus self time, since a pass makes up to about 10^6 of them.

Shared cache fills are charged where they happen: a lattice build lands in
`poset.lattice_build` and a Moebius row in `poset.interval_char_poly` or
`poset.mobius`, not in whichever engine asked for it first.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from matroid_invariants import cli, hz, invariants, poset, realroots
from matroid_invariants.matroid import Matroid
from matroid_invariants.poly import Poly

from workloads import API

JOB = "bench.job"  # root span of one job; its self time is the untraced remainder
COUNTERS = "trace.counters"  # time spent updating the counters below


class Tracer:
    def __init__(self):
        self.agg = defaultdict(lambda: [0, 0.0])  # (job, name) -> [calls, self_s]
        self.counters = defaultdict(int)
        self.lattice_keys = set()
        self.spans = []  # (span id, name, start, end, parent span id, job)
        self.stack = []  # frames: [child time, span id]
        self.job = None
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, leaf, after=None):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter
        tracer = self
        named_by_args = callable(name)

        def wrapper(*args, **kwargs):
            label = name(args) if named_by_args else name
            parent = stack[-1][1] if stack else None
            span_id = parent if leaf else len(spans)
            if not leaf:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                entry = agg[(tracer.job, label)]
                entry[0] += 1
                entry[1] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if not leaf:
                    spans[span_id] = (span_id, label, t0, t1, parent, tracer.job)
            if after is not None:
                # counter updates are tracer work: keep them out of the
                # caller's self time, in their own bucket
                after(args, result)
                t2 = clock()
                entry = agg[(tracer.job, COUNTERS)]
                entry[0] += 1
                entry[1] += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t1
            return result

        return wrapper

    def _patch(self, owner, attr, name, leaf=False, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, leaf, after))

    def install(self):
        count = self.counters

        def lattice_built(args, _):
            lat = args[0]
            count["poset.flats"] += lat.size
            count["poset.comparable_pairs"] += sum(len(a) for a in lat.above)
            self.lattice_keys.add(lat.matroid.key())

        def product_bits(_, result):
            cs = result.coeffs
            if cs:
                bits = max(max(cs), -min(cs)).bit_length()
                if bits > count["poly.max_coeff_bits"]:
                    count["poly.max_coeff_bits"] = bits

        def chain_len(_, chain):
            count["realroots.sturm_chain.len_sum"] += len(chain)

        def sequences(args, _):
            n = 1
            for v in args[0]:
                n *= v
            count["hz.sequences"] += n

        # matroid layer: rank/closure oracle and minors (delete is a restrict)
        self._patch(Matroid, "closure", "matroid.closure", leaf=True)
        self._patch(Matroid, "rank_of", "matroid.rank_of", leaf=True)
        self._patch(Matroid, "restrict", "matroid.minor", leaf=True)
        self._patch(Matroid, "contract", "matroid.minor", leaf=True)
        # poset layer
        self._patch(poset.FlatsLattice, "__init__", "poset.lattice_build", after=lattice_built)
        for mod in (poset, invariants):
            self._patch(mod, "interval_char_poly", "poset.interval_char_poly", leaf=True)
            self._patch(mod, "interval_chibar", "poset.interval_chibar", leaf=True)
            self._patch(mod, "mobius", "poset.mobius", leaf=True)
        self._patch(poset, "chow_table", "poset.chow_table")
        self._patch(poset, "kl_table", "poset.kl_table")
        # invariants layer: one span per engine, named by kind and method
        self._patch(invariants, "compute_invariant", lambda a: "invariants.%s.%s" % (a[1], a[2]))
        for fn in ("certify_gamma", "certify_dominance", "chow_char_conv",
                   "aug_chow_contraction_conv", "z_poly", "kl_poly"):
            self._patch(cli, fn, "invariants.certify")
        for fn in ("chow_paving", "aug_chow_paving"):
            self._patch(cli, fn, "invariants.closed_form")
        # polynomial arithmetic (__rmul__ is the same function)
        self._patch(Poly, "__mul__", "poly.mul", leaf=True, after=product_bits)
        self._patch(Poly, "__rmul__", "poly.mul", leaf=True, after=product_bits)
        # Sturm certification
        for owner in (realroots, cli):
            self._patch(owner, "real_rooted", "realroots.real_rooted")
        self._patch(cli, "interlaces", "realroots.interlaces")
        self._patch(realroots, "sturm_chain", "realroots.sturm_chain", leaf=True, after=chain_len)
        # inversion sequences
        self._patch(hz, "hz_poly", "hz.hz_poly", after=sequences)
        # the benchmark's own calls into the package
        self._patch(API, "invariant_report", "invariants.report")
        self._patch(API, "cli_main", "cli")
        self._patch(API, "real_rooted", "realroots.real_rooted")
        self._patch(API, "hz_uniform", "hz.hz_uniform")
        for fn in ("chow_braid", "aug_chow_uniform", "kl_uniform", "z_uniform"):
            self._patch(API, fn, "invariants.closed_form")
        for fn in ("eq_kl_uniform", "eq_z_uniform"):
            self._patch(API, fn, "equivariant")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- jobs -------------------------------------------------------------

    def run_job(self, index, fn):
        """Call fn() as job `index` under a root span; returns its result."""
        self.job = index
        try:
            return self._wrap(JOB, fn, leaf=False)()
        finally:
            self.job = None

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, self_s], summed over jobs."""
        out = defaultdict(lambda: [0, 0.0])
        for (_, name), (calls, self_s) in self.agg.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "per_job": [[job, name, calls, self_s] for (job, name), (calls, self_s) in self.agg.items()],
                    "counters": dict(self.counters),
                },
                fh,
            )


# Spans whose call counts are reported next to their self time.
COUNTED = (
    "matroid.closure",
    "matroid.rank_of",
    "matroid.minor",
    "poset.lattice_build",
    "poset.interval_char_poly",
    "poset.interval_chibar",
    "poset.mobius",
    "poly.mul",
    "realroots.real_rooted",
    "realroots.sturm_chain",
    "realroots.interlaces",
    "hz.hz_poly",
)
# Spans reported by self time only.
TIMED = (
    "poset.chow_table",
    "poset.kl_table",
    *("invariants.%s.%s" % (kind, method) for kind, methods in invariants.KINDS.items() for method in methods),
    "invariants.certify",
    "invariants.report",
    "invariants.closed_form",
    "hz.hz_uniform",
    "equivariant",
    "cli",
)
COUNTER_NAMES = (
    "poset.flats",
    "poset.comparable_pairs",
    "poly.max_coeff_bits",
    "realroots.sturm_chain.len_sum",
    "hz.sequences",
)


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass, as name -> number.

    `trace.accounted_s` sums the self time of every span, the job-level
    remainder (`trace.unattributed_s`) included; it should equal the traced
    `wall_s` up to the cost of the job wrappers themselves.
    """
    totals = tracer.totals()
    unknown = set(totals) - set(COUNTED) - set(TIMED) - {JOB, COUNTERS}
    if unknown:
        raise RuntimeError("spans without a metric: %s" % sorted(unknown))
    out = {}
    for name in COUNTED:
        calls, self_s = totals.get(name, (0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    for name in TIMED:
        out[name + ".self_s"] = totals.get(name, (0, 0.0))[1]
    for name in COUNTER_NAMES:
        out[name] = tracer.counters.get(name, 0)
    builds = out["poset.lattice_build.calls"]
    out["poset.lattice_build.reuse_ratio"] = len(tracer.lattice_keys) / builds if builds else 0.0
    out["trace.unattributed_s"] = totals.get(JOB, (0, 0.0))[1]
    out["trace.counters_s"] = totals.get(COUNTERS, (0, 0.0))[1]
    out["trace.accounted_s"] = sum(self_s for _, self_s in totals.values())
    out["trace.wall_s"] = wall_s
    return out
