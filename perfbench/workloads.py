"""The three benchmark workloads: seeded inputs, job lists and output checks.

A job is one user-level command: `invariant_report(m, kind)` (what
`crosscheck` runs, with a fresh lattice per call as the CLI builds one),
`cli.main([...])` for `certify` and `sweep`, or one closed-form call.  Jobs
reach the package only through `API`, so a traced pass can wrap those calls
from the benchmark's side.  Checks run after the timed loop and never reuse
a value the timed job computed as their reference.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import random
from collections import namedtuple
from math import comb
from types import SimpleNamespace

import matroid_invariants
from matroid_invariants import cli, equivariant, hz, invariants, realroots
from matroid_invariants.matroid import Matroid, boolean, complete_graph, equal_tutte_pair, uniform, vamos
from matroid_invariants.poly import ONE, X, Poly
from matroid_invariants.poset import kls_Z_general, lattice_of_flats

import gen

# Every call a job makes into the package goes through this table.
API = SimpleNamespace(
    invariant_report=invariants.invariant_report,
    cli_main=cli.main,
    real_rooted=realroots.real_rooted,
    chow_braid=invariants.chow_braid,
    hz_uniform=hz.hz_uniform,
    aug_chow_uniform=invariants.aug_chow_uniform,
    kl_uniform=invariants.kl_uniform,
    z_uniform=invariants.z_uniform,
    eq_kl_uniform=equivariant.eq_kl_uniform,
    eq_z_uniform=equivariant.eq_z_uniform,
)


def _memo_tables():
    """Every `lru_cache` of the package, found by walking its modules and
    the classes they define, so a memo table added later is cleared and
    checked too.  Keyed by module and qualified name, e.g. `poly.eulerian`."""
    found = {}
    for info in pkgutil.iter_modules(matroid_invariants.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("matroid_invariants." + info.name)
        for obj in list(vars(module).values()):
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members += [getattr(v, "__func__", v) for v in vars(obj).values()]
            for fn in members:
                if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info"):
                    name = "%s.%s" % (fn.__module__.rpartition(".")[2], fn.__qualname__)
                    found[name] = fn
    return found


# The package's memo tables; each job starts with them empty, as a command
# run from the shell would.
MEMO_TABLES = _memo_tables()


def warm_memo_tables():
    """Names of the memo tables that hold entries."""
    return sorted(name for name, fn in MEMO_TABLES.items() if fn.cache_info().currsize)


def clear_memo_tables():
    for fn in MEMO_TABLES.values():
        fn.cache_clear()


# run() is the timed call; check(output) raises CheckFailed on a wrong output
Job = namedtuple("Job", "name run check")


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _palindromic(p, degree):
    return p.degree == degree and p.coeffs == p.coeffs[::-1]


def fingerprint(output):
    """A stable text form of a job's output, for comparing passes."""
    if isinstance(output, invariants.InvariantReport):
        return "%s|%s" % (output.kind, ";".join("%s=%s" % (k, v.coeffs) for k, v in output.results.items()))
    return repr(output)


# -- crosscheck jobs ------------------------------------------------------------

# Closed forms that the report's own methods do not all use; keyed by the
# family a test matroid was built from.
def _golden(family, kind):
    tag = family[0]
    if tag == "uniform":
        k, n = family[1:]
        return {
            "chow": invariants.chow_uniform_inverse,
            "augchow": invariants.aug_chow_uniform_inverse,
            "kl": invariants.kl_uniform,
            "z": invariants.z_uniform,
        }[kind](k, n)
    if tag == "uniform+coloop":
        k, n = family[1:]
        if kind == "chow":
            return invariants.chow_uniform_coloop(k, n)
        if kind == "augchow":
            return invariants.aug_chow_uniform_coloop(k, n)
        if kind == "kl":  # P is multiplicative and P(coloop) = 1
            return invariants.kl_uniform(k, n)
        return invariants.z_uniform(k, n) * (ONE + X)  # Z(coloop) = 1 + x
    if tag == "braid" and kind == "chow":
        return invariants.chow_braid(family[1])
    if tag == "vamos":
        return {"chow": Poly([1, 70, 70, 1]), "augchow": Poly([1, 78, 234, 78, 1])}.get(kind)
    if tag == "tutte-pair":
        return {
            ("chow", 1): Poly([1, 30, 30, 1]),
            ("chow", 2): Poly([1, 31, 31, 1]),
            ("augchow", 1): Poly([1, 37, 98, 37, 1]),
            ("augchow", 2): Poly([1, 38, 102, 38, 1]),
        }.get((kind, family[1]))
    if tag == "sparse-paving":
        n, k, lam = family[1:]
        if kind == "chow":
            return invariants.chow_paving(k, n, {k: lam})
        if kind == "augchow":
            return invariants.aug_chow_paving(k, n, {k: lam})
    return None


def _check_report(m, family, kind, rep):
    _require(rep.agree, "methods disagree: %s" % {k: v.coeffs for k, v in rep.results.items()})
    value = next(iter(rep.results.values()))
    if kind != "z":
        _require(len(rep.results) >= 2, "only %s applies, so agreement is vacuous" % list(rep.results))
    core = m.delete(m.loops()) if m.loops() else m
    if kind == "z":
        # z on n >= 10 runs conv_def alone: compare with the general-poset
        # engine on a lattice built here
        _require(value == kls_Z_general(lattice_of_flats(core)), "Z differs from kls_Z_general")
        _require(_palindromic(value, core.rank), "Z is not palindromic about rk")
    elif m.is_loopless() and m.rank >= 1:
        centre = m.rank - 1 if kind == "chow" else m.rank
        if kind != "kl":
            _require(_palindromic(value, centre), "%s is not palindromic about %d" % (kind, centre))
    golden = _golden(family, kind)
    if golden is not None:
        _require(value == golden, "%s differs from the closed form %s" % (kind, golden.coeffs))


def _crosscheck_jobs(entries):
    jobs = []
    for label, family, m, braid_n in entries:
        for kind in invariants.KINDS:
            # each job gets its own copy, so nothing a job leaves on the
            # object reaches the next kind, as with a fresh CLI process
            own = Matroid(m.n, m.bases, validate=False)

            def run(m=own, kind=kind, braid_n=braid_n, label=label):
                return API.invariant_report(m, kind, braid_n=braid_n, descriptor=label)

            def check(rep, m=m, family=family, kind=kind):
                _check_report(m, family, kind, rep)

            jobs.append(Job("crosscheck %s %s" % (label, kind), run, check))
    return jobs


def acceptance_corpus():
    """The cross-method agreement corpus of the acceptance suite, rebuilt
    here and deduplicated by bases: (label, family, matroid, braid_n)."""
    entries = []
    for n in range(9):
        for k in range(n + 1):
            entries.append(("uniform:%d,%d" % (k, n), ("uniform", k, n), uniform(k, n), None))
            entries.append(
                ("uniform+coloop:%d,%d" % (k, n), ("uniform+coloop", k, n), uniform(k, n).add_coloop(), None)
            )
    entries.append(("graphic-K4", ("braid", 4), complete_graph(4), 4))
    entries.append(("vamos", ("vamos",), vamos(), None))
    m1, m2 = equal_tutte_pair()
    entries.append(("tutte-pair-1", ("tutte-pair", 1), m1, None))
    entries.append(("tutte-pair-2", ("tutte-pair", 2), m2, None))
    for v in range(2, 7):
        entries.append(("braid:%d" % v, ("braid", v), complete_graph(v), v))
    for n in range(9):
        entries.append(("boolean:%d" % n, ("uniform", n, n), boolean(n), None))
    seen = set()
    out = []
    for entry in entries:
        key = entry[2].key()
        if key not in seen:
            seen.add(key)
            out.append(entry)
    return out


def corpus_small(rng):
    """Acceptance corpus members on at most 7 elements, each relabelled,
    plus seeded sparse paving and graphic matroids on 9 elements: every
    member is within reach of the deletion engines (n <= 9)."""
    entries = [
        (label, family, gen.relabel(m, rng), braid_n)
        for label, family, m, braid_n in acceptance_corpus()
        if m.n <= 7
    ]
    for i in range(6):
        entries.append(("sparse-paving-%d" % i, ("sparse-paving", 9, 4, 6), gen.sparse_paving(9, 4, 6, rng), None))
    for i in range(4):
        entries.append(("graphic-%d" % i, ("graphic",), gen.graphic(6, 9, 89, rng), None))
    return _crosscheck_jobs(entries)


# -- certify and sweep through the command line --------------------------------------


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = API.cli_main(argv)
    return code, out.getvalue()


CERTIFY_CHECKS = ("gamma", "real-rooted", "dominance", "interlace")


def _certify_job(spec, chow):
    """`chow` gives the expected Chow polynomial; it is called only when
    checking, so building the job list leaves the memo tables empty."""
    def run():
        return _cli(["certify", spec, *CERTIFY_CHECKS, "--json"])

    def check(output):
        code, text = output
        _require(code == 0, "certify %s exited %s" % (spec, code))
        payload = json.loads(text)
        _require(payload["ok"] and sorted(payload["checks"]) == sorted(CERTIFY_CHECKS), "certify %s failed" % spec)
        entries = {e["name"]: e["poly"] for e in payload["checks"]["real-rooted"]["entries"]}
        _require(entries["chow"] == [str(c) for c in chow().coeffs], "certify %s: wrong Chow polynomial" % spec)

    return Job("certify %s" % spec, run, check)


def _sweep_job(n, k):
    lam_max = comb(n, k) // (n - k + 1)

    def run():
        return _cli(["sweep", "sparse-paving", "--n", str(n), "--k", str(k), "--jobs", "1", "--json"])

    def check(output):
        code, text = output
        _require(code == 0, "sweep exited %s" % code)
        payload = json.loads(text)
        _require(
            payload["count"] == lam_max + 1 and payload["failures"] == 0 and payload["lambda_range"] == [0, lam_max],
            "sweep n=%d k=%d: %d cases, %d failures" % (n, k, payload["count"], payload["failures"]),
        )

    return Job("sweep sparse-paving n=%d k=%d" % (n, k), run, check)


def lattice_large(rng):
    """Two matroids with about 300-500 flats on n >= 11 elements, so no
    deletion engine runs, each through all four kinds; then two certify
    commands, each of which builds its lattice six times."""
    entries = [
        ("sparse-paving-11-5-20", ("sparse-paving", 11, 5, 20), gen.sparse_paving(11, 5, 20, rng), None),
        ("graphic-7-12", ("graphic",), gen.graphic(7, 12, 272, rng), None),
    ]
    jobs = _crosscheck_jobs(entries)
    jobs.append(_certify_job("braid:6", lambda: invariants.chow_braid(6)))
    jobs.append(_certify_job("vamos", lambda: Poly([1, 70, 70, 1])))
    return jobs


# -- closed forms -------------------------------------------------------------------


def _braid_job(v):
    def run():
        p = API.chow_braid(v)
        return p, API.real_rooted(p)

    def check(output):
        p, rooted = output
        _require(rooted is True, "Chow polynomial of K%d not certified real-rooted" % v)
        _require(_palindromic(p, v - 2) and p.coeff(0) == 1, "Chow polynomial of K%d has the wrong shape" % v)
        if v <= 5:
            _require(p == invariants.chow_char_conv(complete_graph(v)), "chow_braid(%d) differs from char_conv" % v)

    return Job("real_rooted chow_braid(%d)" % v, run, check)


def _hz_job(n):
    def run():
        return [(k, API.hz_uniform(k, n), API.aug_chow_uniform(k, n)) for k in range(2, n + 1)]

    def check(rows):
        _require([r[0] for r in rows] == list(range(2, n + 1)), "hz grid row %d incomplete" % n)
        for k, e, h in rows:
            _require(e == h == invariants.aug_chow_uniform_inverse(k, n), "hz_uniform(%d,%d) != H(U_%d,%d)" % (k, n, k, n))

    return Job("hz grid n=%d" % n, run, check)


def _kl_job():
    def run():
        return API.kl_uniform(23, 24)

    def check(p):
        _require(p == equivariant.eq_kl_uniform(23, 24).dim_poly(), "kl_uniform(23,24) differs from the equivariant formula")

    return Job("kl_uniform(23,24)", run, check)


def _z_job():
    def run():
        return API.z_uniform(23, 24)

    def check(p):
        _require(_palindromic(p, 23), "z_uniform(23,24) is not palindromic")
        _require(p == equivariant.eq_z_uniform(23, 24).dim_poly(), "z_uniform(23,24) differs from the equivariant formula")

    return Job("z_uniform(23,24)", run, check)


def _equivariant_job():
    pairs = [(k, n) for n in range(1, 11) for k in range(1, n + 1)]

    def run():
        return [(API.eq_kl_uniform(k, n).dim_poly(), API.eq_z_uniform(k, n).dim_poly()) for k, n in pairs]

    def check(rows):
        _require(len(rows) == len(pairs), "equivariant rows missing")
        for (k, n), (p, z) in zip(pairs, rows):
            _require(p == invariants.kl_uniform(k, n) and z == invariants.z_uniform(k, n),
                     "equivariant dimensions of U_%d,%d differ" % (k, n))

    return Job("equivariant dims n<=10", run, check)


def closed_form(rng):
    """No matroid and no lattice: paving sweeps, braid Chow polynomials,
    the inversion-sequence grid and uniform KL/Z.  The seed only permutes
    the job order."""
    jobs = [_sweep_job(n, k) for n, k in ((14, 7), (15, 7))]
    jobs += [_braid_job(v) for v in range(2, 19)]
    jobs += [_hz_job(n) for n in range(2, 10)]
    jobs += [_kl_job(), _z_job(), _equivariant_job()]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "corpus-small": corpus_small,
    "lattice-large": lattice_large,
    "closed-form": closed_form,
}


def build(workload, seed):
    return WORKLOADS[workload](random.Random(seed))
