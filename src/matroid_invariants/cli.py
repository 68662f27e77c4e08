"""Command-line interface.

Subcommands: invariant, crosscheck, certify, hz, equivariant,
whitney-inverse, sweep, hrs.  Exit codes: 0 success, 1 usage or parse
error, 2 cross-method disagreement, 3 certification failure.  A malformed
command line prints the usage line and argparse's message, which names the
bad flag or choice; any other usage or parse error (a bad spec, check or
value, an unreadable file, a negative or NaN --timeout-secs, a spent
--timeout-secs budget, an empty sweep --certify list or field) prints one
line `error: <message>` to stderr, from `main` alone.

Matroids are named by a small grammar:

    uniform:k,n | uniform+coloop:k,n | boolean:n | braid:n | vamos
    | file:<path>            (JSON: {"n": int, "bases": [[int, ...], ...]})
    | dual(<spec>)
    | relax(<spec>;<subset>) (subset as comma-separated elements)

certify takes any of the checks in CHECKS, koszul-prefix as koszul-prefix:N
with N >= 1.  With --poset it loads a JSON bounded graded poset
{"rank": [...], "covers": [[lo, hi], ...]} instead of a matroid and runs the
general-poset engines, which support gamma, real-rooted and unimodal.
sweep --certify takes a nonempty comma-separated subset of those three, with
no empty field.  sweep --lambda-max is at most C(n, k) // (n - k + 1), its
default: no sparse paving matroid has more circuit-hyperplanes, since each
(k-1)-set lies in at most one.  sweep hands its lambdas to workers in chunks
of SWEEP_CHUNK, on min(--jobs, number of chunks) processes, and runs
in-process when that is 1; `concurrent.futures`, and with it
`multiprocessing`, is imported only when a pool starts, so no other command
loads them.  All polynomial coefficients are printed as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from math import comb

from . import equivariant as eq
from . import hz as hzmod
from .invariants import (
    KINDS,
    aug_chow_contraction_conv,
    aug_chow_paving,
    certify_dominance,
    certify_gamma,
    certify_gamma_poset,
    chow_char_conv,
    chow_paving,
    hrs_identity,
    invariant_report,
    kl_poly,
    z_poly,
)
from .matroid import Matroid, boolean, complete_graph, mask_of, uniform, vamos
from .poly import Poly, gamma_vector, is_unimodal, series_inverse_prefix
from .poset import GradedPoset, kls_H_general, kls_uH_general, lattice_of_flats, whitney_numbers
from .realroots import interlaces, real_rooted, roots_all_real

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_CERT_FAIL = 3


class SpecError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def parse_matroid_spec(text):
    """Parse the matroid grammar; returns (matroid, braid_vertex_count)."""
    text = text.strip()
    if text.startswith("dual(") and text.endswith(")"):
        inner, _ = parse_matroid_spec(text[5:-1])
        return inner.dual(), None
    if text.startswith("relax(") and text.endswith(")"):
        body = text[6:-1]
        if ";" not in body:
            raise SpecError("relax needs 'relax(<spec>;<subset>)'")
        spec, subset = body.rsplit(";", 1)
        inner, _ = parse_matroid_spec(spec)
        elements = _parse_ints(subset)
        for e in elements:
            if not 0 <= e < inner.n:
                raise SpecError(
                    "relax element %d is not in the ground set 0..%d" % (e, inner.n - 1)
                )
        return inner.relax(mask_of(elements)), None
    if text == "vamos":
        return vamos(), None
    if text.startswith("file:"):
        with open(text[5:], "r", encoding="utf-8") as fh:
            return Matroid.from_json(json.load(fh)), None
    if ":" not in text:
        raise SpecError("unrecognized matroid spec %r" % text)
    head, args = text.split(":", 1)
    if head == "uniform":
        k, n = _parse_ints(args, 2)
        return uniform(k, n), None
    if head == "uniform+coloop":
        k, n = _parse_ints(args, 2)
        return uniform(k, n).add_coloop(), None
    if head == "boolean":
        (n,) = _parse_ints(args, 1)
        return boolean(n), None
    if head == "braid":
        (n,) = _parse_ints(args, 1)
        return complete_graph(n), n
    raise SpecError("unrecognized matroid spec %r" % text)


def _parse_ints(text, expect=None):
    """The comma-separated integers in text; a blank text is no integers,
    and an empty field next to a comma is an error."""
    try:
        vals = [int(v) for v in text.split(",")] if text.strip() else []
    except ValueError:
        raise SpecError("expected comma-separated integers in %r" % text)
    if expect is not None and len(vals) != expect:
        raise SpecError("expected %d integers in %r" % (expect, text))
    return vals


def _load_poset(spec):
    if not spec.startswith("file:"):
        raise SpecError("--poset requires a file:<path> spec")
    with open(spec[5:], "r", encoding="utf-8") as fh:
        return GradedPoset.from_json(json.load(fh))


def _coeffs(p):
    return [str(c) for c in p.coeffs]


def _emit(payload, as_json, text_lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- invariant / crosscheck ---------------------------------------------------


def _deadline(args):
    """The time.monotonic() stamp at which --timeout-secs runs out, or None
    for no budget (0, the default).  A negative or NaN budget is a usage
    error."""
    secs = args.timeout_secs
    if not secs >= 0:  # NaN compares false too
        raise SpecError("--timeout-secs must be a number of seconds >= 0, got %r" % secs)
    return time.monotonic() + secs if secs else None


def cmd_invariant(args):
    deadline = _deadline(args)
    m, braid_n = parse_matroid_spec(args.spec)
    report = invariant_report(
        m, args.kind, args.method, braid_n=braid_n, descriptor=args.spec,
        deadline=deadline,
    )
    lines = ["%s %s" % (args.spec, args.kind)]
    for name, poly in report.results.items():
        lines.append(
            "  %-16s %-40s [%s]  %.3fs"
            % (name, poly, ", ".join(_coeffs(poly)), report.seconds[name])
        )
    lines.append("agree: %s" % report.agree)
    _emit(report.to_json(), args.json, lines)
    return EXIT_OK if report.agree else EXIT_DISAGREE


# -- certify --------------------------------------------------------------------

# every check name; koszul-prefix alone takes an argument, as koszul-prefix:N
CHECKS = ("gamma", "real-rooted", "unimodal", "dominance", "interlace", "koszul-prefix")
# the checks a sparse-paving sweep runs on the closed forms of uH and H
SWEEP_CHECKS = CHECKS[:3]
# lambdas per task handed to a sweep worker
SWEEP_CHUNK = 16


def _parse_checks(tokens):
    """[(name, arg)] for check tokens; arg is N for koszul-prefix:N, else None.
    A check named twice is an error."""
    checks = []
    for t in tokens:
        name, sep, arg = t.partition(":")
        if name not in CHECKS or bool(sep) != (name == "koszul-prefix"):
            raise SpecError("unknown check %r" % t)
        if any(name == seen for seen, _ in checks):
            raise SpecError("check %r is given more than once" % name)
        try:
            terms = int(arg) if sep else None
        except ValueError:
            raise SpecError("check %r needs an integer term count" % t) from None
        checks.append((name, _term_count(terms) if sep else None))
    return checks


def _term_count(n):
    if n < 1:
        raise SpecError("a term count must be at least 1, got %d" % n)
    return n


def _real_rooted(q):
    return q.is_zero() or real_rooted(q)


def _poly_block(test, named):
    entries = [{"name": t, "poly": _coeffs(q), "ok": test(q)} for t, q in named]
    return {"ok": all(e["ok"] for e in entries), "entries": entries}


def _alt_inverse_prefix(q, terms):
    """The first `terms` coefficients of the power series 1/q(-x)."""
    alt = Poly([(-1) ** i * c for i, c in enumerate(q.coeffs)])
    return series_inverse_prefix(alt, terms - 1)


def _koszul_block(named, terms):
    entries = []
    for t, q in named:
        prefix = _alt_inverse_prefix(q, terms)
        entries.append({"name": t, "prefix": [str(c) for c in prefix], "ok": all(c >= 0 for c in prefix)})
    return {"ok": all(e["ok"] for e in entries), "terms": terms, "entries": entries}


def _matroid_checks(m):
    """Check name -> runner(arg) for a loopless matroid.  One lattice of
    flats is built and shared, and uH, H, Z and P are computed on it up front."""
    if not m.is_loopless():
        raise SpecError("certification needs a loopless matroid")
    lat = lattice_of_flats(m)
    uh = chow_char_conv(m, lattice=lat)
    h = aug_chow_contraction_conv(m, lattice=lat)
    z = z_poly(m, lattice=lat)
    named = (("chow", uh), ("augchow", h), ("z", z), ("kl", kl_poly(m, lattice=lat)))
    return {
        "gamma": lambda _: certify_gamma(m, lattice=lat).to_json(),
        "real-rooted": lambda _: _poly_block(_real_rooted, named),
        "unimodal": lambda _: _poly_block(is_unimodal, named[:3]),
        "dominance": lambda _: certify_dominance(m, lattice=lat).to_json(),
        "interlace": lambda _: {"ok": interlaces(uh, h), "chow": _coeffs(uh), "augchow": _coeffs(h)},
        "koszul-prefix": lambda terms: _koszul_block(named[:2], terms),
    }


def _poset_checks(poset):
    """Check name -> runner(arg) for a bounded graded poset."""
    named = (("chow", kls_uH_general(poset)), ("augchow", kls_H_general(poset)))
    return {
        "gamma": lambda _: certify_gamma_poset(poset).to_json(),
        "real-rooted": lambda _: _poly_block(_real_rooted, named),
        "unimodal": lambda _: _poly_block(is_unimodal, named),
    }


def cmd_certify(args):
    checks = _parse_checks(args.checks)
    if args.poset:
        runners = _poset_checks(_load_poset(args.spec))
    else:
        runners = _matroid_checks(parse_matroid_spec(args.spec)[0])
    for name, _ in checks:
        if name not in runners:
            raise SpecError("check %r does not apply to posets" % name)
    results = {name: runners[name](arg) for name, arg in checks}

    ok = all(block["ok"] for block in results.values())
    payload = {"schema": "1", "spec": args.spec, "checks": results, "ok": ok}
    lines = []
    for name, block in results.items():
        lines.append("%-16s %s" % (name, "PASS" if block["ok"] else "FAIL"))
        for entry in block.get("entries", []):
            detail = entry.get("gamma") or entry.get("prefix") or entry.get("poly")
            lines.append(
                "    %-10s %s %s"
                % (entry["name"], "ok" if entry["ok"] else "FAIL", detail)
            )
        for w in block.get("witnesses", []):
            lines.append("    witness: %s" % (w,))
    lines.append("overall: %s" % ("PASS" if ok else "FAIL"))
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_CERT_FAIL


# -- hz ---------------------------------------------------------------------------


def cmd_hz(args):
    if (args.s is None) == (args.uniform is None):
        raise SpecError("give exactly one of --s or --uniform")
    if args.s is not None:
        s = _parse_ints(args.s)
        poly = hzmod.hz_poly(s)
        descriptor = "s=%s" % (tuple(s),)
    else:
        k, n = _parse_ints(args.uniform, 2)
        poly = hzmod.hz_uniform(k, n)
        descriptor = "uniform:%d,%d" % (k, n)
    payload = {"schema": "1", "input": descriptor, "poly": _coeffs(poly)}
    _emit(payload, args.json, ["%s: %s  [%s]" % (descriptor, poly, ", ".join(_coeffs(poly)))])
    return EXIT_OK


# -- equivariant -------------------------------------------------------------------


def cmd_equivariant(args):
    if args.gamma and args.kind != "z":
        raise SpecError("--gamma needs the palindromic kind z")
    k, n = _parse_ints(args.uniform, 2)
    if args.kind == "kl":
        graded = eq.eq_kl_uniform(k, n)
    else:
        graded = eq.eq_z_uniform(k, n)
    if args.restrict is not None:
        graded = graded.restrict_to(args.restrict)
    lines = ["equivariant %s of uniform:%d,%d" % (args.kind, k, n)]
    payload_degrees = {}
    top = graded.degree
    for d in range(top + 1):
        rep = graded.coeff(d)
        payload_degrees[str(d)] = [[list(lam), c] for lam, c in rep.items()]
        lines.append("  x^%d: %s  (dim %s)" % (d, rep, rep.dim()))
    payload = {
        "schema": "1",
        "kind": args.kind,
        "k": k,
        "n": n,
        "degrees": payload_degrees,
        "dims": _coeffs(graded.dim_poly()),
    }
    if args.gamma:
        gammas = eq.gamma_decompose_eq(graded, k)
        payload["gamma"] = [
            {"i": i, "rep": [[list(lam), c] for lam, c in g.items()], "honest": g.is_honest()}
            for i, g in enumerate(gammas)
        ]
        payload["gamma_positive"] = all(g.is_honest() for g in gammas)
        for i, g in enumerate(gammas):
            lines.append("  Gamma_%d: %s  (%s)" % (i, g, "honest" if g.is_honest() else "virtual"))
        lines.append("Gamma-positive: %s" % payload["gamma_positive"])
    _emit(payload, args.json, lines)
    return EXIT_OK


# -- whitney-inverse ----------------------------------------------------------------


def cmd_whitney_inverse(args):
    m, _ = parse_matroid_spec(args.spec)
    w = whitney_numbers(m)
    prefix = _alt_inverse_prefix(w, 2 * m.rank if args.terms is None else _term_count(args.terms))
    payload = {
        "schema": "1",
        "spec": args.spec,
        "whitney": _coeffs(w),
        "inverse_prefix": [str(c) for c in prefix],
        "nonnegative": all(c >= 0 for c in prefix),
    }
    _emit(
        payload,
        args.json,
        [
            "whitney numbers: %s" % (w,),
            "1 / W(-x) prefix: [%s]" % ", ".join(str(c) for c in prefix),
            "nonnegative: %s" % payload["nonnegative"],
        ],
    )
    return EXIT_OK


# -- sweep -------------------------------------------------------------------------


def _sweep_one(payload):
    k, n, lam, checks = payload
    uh = chow_paving(k, n, {k: lam})
    h = aug_chow_paving(k, n, {k: lam})
    polys = (("chow", uh, k - 1), ("augchow", h, k))
    # each gamma is peeled once: real-rootedness is decided on a
    # nonnegative gamma vector directly (the lemma in `real_rooted`)
    gammas = {tag: gamma_vector(q, center) for tag, q, center in polys} if "gamma" in checks else {}
    failures = []
    for name in checks:
        if name == "gamma":
            for tag, g in gammas.items():
                if any(c < 0 for c in g.coeffs):
                    failures.append({"check": "gamma", "poly": tag, "gamma": _coeffs(g)})
        elif name == "real-rooted":
            for tag, q, _ in polys:
                if q.is_zero():
                    continue  # zero, as uH is at k = lambda = 1, counts as real-rooted
                g = gammas.get(tag)
                if g is not None and all(c >= 0 for c in g.coeffs):
                    real = roots_all_real(g.coeffs)
                else:
                    real = real_rooted(q)
                if not real:
                    failures.append({"check": "real-rooted", "poly": tag, "coeffs": _coeffs(q)})
        elif name == "unimodal":
            for tag, q, _ in polys:
                if not is_unimodal(q):
                    failures.append({"check": "unimodal", "poly": tag})
    return lam, failures


def cmd_sweep(args):
    if args.family != "sparse-paving":
        raise SpecError("the only supported sweep family is 'sparse-paving'")
    k, n = args.k, args.n
    if not 1 <= k <= n:
        raise SpecError("need 1 <= k <= n")
    # each (k-1)-set lies in at most one circuit-hyperplane
    lam_bound = comb(n, k) // (n - k + 1) if n > k else 0
    lam_min = args.lambda_min
    lam_max = lam_bound if args.lambda_max is None else args.lambda_max
    if lam_max > lam_bound:
        raise SpecError(
            "--lambda-max %d is above %d, the most circuit-hyperplanes of a "
            "sparse paving matroid with n=%d, k=%d" % (lam_max, lam_bound, n, k)
        )
    if lam_min < 0 or lam_max < lam_min:
        raise SpecError("invalid lambda range")
    checks = args.certify.split(",")
    if not any(checks):
        raise SpecError("--certify needs at least one check")
    if not all(checks):
        raise SpecError("--certify has an empty check name in %r" % args.certify)
    for name, _ in _parse_checks(checks):
        if name not in SWEEP_CHECKS:
            raise SpecError("check %r does not apply to sweep" % name)
    jobs = args.jobs
    if jobs < 1:
        raise SpecError("--jobs must be at least 1, got %d" % jobs)
    deadline = _deadline(args)
    payloads = [(k, n, lam, checks) for lam in range(lam_min, lam_max + 1)]
    # the pool starts every worker up front: no more than there are chunks
    jobs = min(jobs, -(-len(payloads) // SWEEP_CHUNK))
    if jobs > 1:
        # the pool's modules (multiprocessing, pickle, ...) load only here
        from concurrent.futures import ProcessPoolExecutor
    results = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # pool.map, like map, yields in payload order, so results are sorted by lambda
        mapped = pool.map(_sweep_one, payloads, chunksize=SWEEP_CHUNK) if pool else map(_sweep_one, payloads)
        for r in mapped:
            results.append(r)
            if deadline and time.monotonic() > deadline:
                if pool:  # drop the queued chunks, or leaving the block waits for them
                    pool.shutdown(cancel_futures=True)
                raise TimeoutError("timeout exceeded")
    failures = [(lam, f) for lam, f in results if f]
    payload = {
        "schema": "1",
        "family": args.family,
        "n": n,
        "k": k,
        "lambda_range": [lam_min, lam_max],
        "count": len(results),
        "checks": checks,
        "failures": len(failures),
        "first_failure": (
            {"lambda": failures[0][0], "details": failures[0][1]} if failures else None
        ),
    }
    lines = [
        "sweep sparse-paving n=%d k=%d lambda=%d..%d: %d cases, %d failures"
        % (n, k, lam_min, lam_max, len(results), len(failures))
    ]
    if failures:
        lines.append("first failure at lambda=%d: %s" % (failures[0][0], failures[0][1]))
    _emit(payload, args.json, lines)
    return EXIT_OK if not failures else EXIT_CERT_FAIL


# -- hrs --------------------------------------------------------------------------


def cmd_hrs(args):
    if args.max_n < 1:
        raise SpecError("--max-n must be at least 1, got %d" % args.max_n)
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        for k in range(1, n + 1):
            try:
                rep = hrs_identity(k, n)
                results.append({"k": k, "n": n, "ok": True, "direct": rep.direct_checked})
            except RuntimeError as exc:
                ok = False
                results.append({"k": k, "n": n, "ok": False, "error": str(exc)})
    payload = {"schema": "1", "max_n": args.max_n, "ok": ok, "cases": results}
    lines = [
        "(k=%d, n=%d): %s%s"
        % (r["k"], r["n"], "ok" if r["ok"] else "FAIL", " +direct" if r.get("direct") else "")
        for r in results
    ]
    lines.append("overall: %s (%d cases)" % ("PASS" if ok else "FAIL", len(results)))
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_CERT_FAIL


# -- parser -----------------------------------------------------------------------


def _add_common(sub, jobs=False, timeout=False):
    """--json on every subcommand; --jobs and --timeout-secs only where read,
    so any other subcommand rejects them as a usage error."""
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1, help="parallel workers")
    if timeout:
        sub.add_argument("--timeout-secs", type=float, default=0, help="soft time budget in seconds, 0 for none")


def build_parser():
    parser = _Parser(prog="matroid-invariants", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariant", help="compute an invariant by one or all methods")
    p.add_argument("spec")
    p.add_argument("kind", choices=sorted(KINDS))
    p.add_argument("method")
    _add_common(p, timeout=True)
    p.set_defaults(func=cmd_invariant)

    p = subs.add_parser("crosscheck", help="run all methods for a kind (invariant ... all)")
    p.add_argument("spec")
    p.add_argument("kind", choices=sorted(KINDS))
    _add_common(p, timeout=True)
    p.set_defaults(func=cmd_invariant, method="all")

    p = subs.add_parser("certify", help="run certification checks")
    p.add_argument("spec")
    p.add_argument("checks", nargs="+")
    p.add_argument("--poset", action="store_true", help="treat file: spec as a graded poset")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("hz", help="inversion-sequence polynomials")
    p.add_argument("--s", help="comma-separated positive entries")
    p.add_argument("--uniform", help="k,n for the consecutive-integer vector")
    _add_common(p)
    p.set_defaults(func=cmd_hz)

    p = subs.add_parser("equivariant", help="symmetric-group equivariant kl/z of uniform matroids")
    p.add_argument("--uniform", required=True, help="k,n")
    p.add_argument("--kind", choices=("kl", "z"), required=True)
    p.add_argument("--gamma", action="store_true", help="also decompose into Gamma_i")
    p.add_argument("--restrict", type=int, help="restrict to the symmetric group on this many letters")
    _add_common(p)
    p.set_defaults(func=cmd_equivariant)

    p = subs.add_parser("whitney-inverse", help="Whitney numbers and the 1/W(-x) prefix")
    p.add_argument("spec")
    p.add_argument("--terms", type=int, help="number of series coefficients (default 2*rank)")
    _add_common(p)
    p.set_defaults(func=cmd_whitney_inverse)

    p = subs.add_parser("sweep", help="certify a parametrized family")
    p.add_argument("family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda-min", type=int, default=0, dest="lambda_min")
    p.add_argument("--lambda-max", type=int, default=None, dest="lambda_max")
    p.add_argument("--certify", default="gamma,real-rooted")
    _add_common(p, jobs=True, timeout=True)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("hrs", help="h-polynomial identity grid for uniform matroids")
    p.add_argument("--max-n", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_hrs)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (SpecError, ValueError, OSError) as exc:  # TimeoutError is an OSError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
