"""Command-line interface.

Subcommands: invariant, crosscheck, certify, hz, equivariant,
whitney-inverse, sweep, hrs.  Exit codes: 0 success, 1 usage or parse
error, 2 cross-method disagreement, 3 certification failure.

Matroids are named by a small grammar:

    uniform:k,n | uniform+coloop:k,n | boolean:n | braid:n | vamos
    | file:<path>            (JSON: {"n": int, "bases": [[int, ...], ...]})
    | dual(<spec>)
    | relax(<spec>;<subset>) (subset as comma-separated elements)

With --poset, certify loads a JSON bounded graded poset
{"rank": [...], "covers": [[lo, hi], ...]} instead of a matroid and runs the
general-poset engines.  All polynomial coefficients are printed as decimal
strings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
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
from .realroots import interlaces, real_rooted

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_CERT_FAIL = 3


class SpecError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


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
    try:
        vals = [int(v) for v in text.split(",") if v.strip() != ""]
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


def cmd_invariant(args):
    try:
        m, braid_n = parse_matroid_spec(args.spec)
    except (SpecError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    deadline = time.monotonic() + args.timeout_secs if args.timeout_secs else None
    try:
        report = invariant_report(
            m, args.kind, args.method, braid_n=braid_n, descriptor=args.spec,
            deadline=deadline,
        )
    except TimeoutError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
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


def _parse_checks(tokens):
    checks = []
    for t in tokens:
        if t.startswith("koszul-prefix:"):
            checks.append(("koszul-prefix", int(t.split(":", 1)[1])))
        elif t in ("gamma", "real-rooted", "unimodal", "dominance", "interlace"):
            checks.append((t, None))
        else:
            raise SpecError("unknown check %r" % t)
    return checks


def _gamma_payload(report):
    return {
        "ok": report.ok,
        "entries": [
            {
                "name": e.name,
                "poly": _coeffs(e.poly),
                "gamma": _coeffs(e.gamma) if e.gamma is not None else None,
                "ok": e.ok,
            }
            for e in report.entries
        ],
    }


def cmd_certify(args):
    try:
        checks = _parse_checks(args.checks)
    except (SpecError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    results = {}
    if args.poset:
        try:
            poset = _load_poset(args.spec)
        except (SpecError, ValueError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        uh, h = kls_uH_general(poset), kls_H_general(poset)
        for name, arg in checks:
            if name == "gamma":
                results["gamma"] = _gamma_payload(certify_gamma_poset(poset))
            elif name == "real-rooted":
                entries = [
                    {"name": t, "poly": _coeffs(p), "ok": bool(p) and real_rooted(p)}
                    for t, p in (("chow", uh), ("augchow", h))
                ]
                results["real-rooted"] = {
                    "ok": all(e["ok"] for e in entries),
                    "entries": entries,
                }
            elif name == "unimodal":
                entries = [
                    {"name": t, "poly": _coeffs(p), "ok": is_unimodal(p)}
                    for t, p in (("chow", uh), ("augchow", h))
                ]
                results["unimodal"] = {
                    "ok": all(e["ok"] for e in entries),
                    "entries": entries,
                }
            else:
                print("error: check %r does not apply to posets" % name, file=sys.stderr)
                return EXIT_USAGE
    else:
        try:
            m, _ = parse_matroid_spec(args.spec)
        except (SpecError, ValueError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        if not m.is_loopless():
            print("error: certification needs a loopless matroid", file=sys.stderr)
            return EXIT_USAGE
        lat = lattice_of_flats(m)  # one lattice, so its interval tables are shared
        uh = chow_char_conv(m, lattice=lat)
        h = aug_chow_contraction_conv(m, lattice=lat)
        z = z_poly(m, lattice=lat)
        p = kl_poly(m, lattice=lat)
        named = (("chow", uh), ("augchow", h), ("z", z), ("kl", p))
        for name, arg in checks:
            if name == "gamma":
                results["gamma"] = _gamma_payload(certify_gamma(m, lattice=lat))
            elif name == "real-rooted":
                entries = [
                    {"name": t, "poly": _coeffs(q), "ok": q.is_zero() or real_rooted(q)}
                    for t, q in named
                ]
                results["real-rooted"] = {
                    "ok": all(e["ok"] for e in entries),
                    "entries": entries,
                }
            elif name == "unimodal":
                entries = [
                    {"name": t, "poly": _coeffs(q), "ok": is_unimodal(q)}
                    for t, q in (("chow", uh), ("augchow", h), ("z", z))
                ]
                results["unimodal"] = {
                    "ok": all(e["ok"] for e in entries),
                    "entries": entries,
                }
            elif name == "dominance":
                rep = certify_dominance(m, lattice=lat)
                results["dominance"] = rep.to_json()
            elif name == "interlace":
                ok = interlaces(uh, h)
                results["interlace"] = {
                    "ok": ok,
                    "chow": _coeffs(uh),
                    "augchow": _coeffs(h),
                }
            elif name == "koszul-prefix":
                terms = arg
                entries = []
                for t, q in (("chow", uh), ("augchow", h)):
                    alt = Poly([(-1) ** i * c for i, c in enumerate(q.coeffs)])
                    prefix = series_inverse_prefix(alt, terms - 1)
                    entries.append(
                        {
                            "name": t,
                            "prefix": [str(c) for c in prefix],
                            "ok": all(c >= 0 for c in prefix),
                        }
                    )
                results["koszul-prefix"] = {
                    "ok": all(e["ok"] for e in entries),
                    "terms": terms,
                    "entries": entries,
                }

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
        print("error: give exactly one of --s or --uniform", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.s is not None:
            s = _parse_ints(args.s)
            poly = hzmod.hz_poly(s)
            descriptor = "s=%s" % (tuple(s),)
        else:
            k, n = _parse_ints(args.uniform, 2)
            poly = hzmod.hz_uniform(k, n)
            descriptor = "uniform:%d,%d" % (k, n)
    except (SpecError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    payload = {"schema": "1", "input": descriptor, "poly": _coeffs(poly)}
    _emit(payload, args.json, ["%s: %s  [%s]" % (descriptor, poly, ", ".join(_coeffs(poly)))])
    return EXIT_OK


# -- equivariant -------------------------------------------------------------------


def cmd_equivariant(args):
    try:
        k, n = _parse_ints(args.uniform, 2)
    except (SpecError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
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
        if args.kind != "z":
            print("error: --gamma needs the palindromic kind z", file=sys.stderr)
            return EXIT_USAGE
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
    try:
        m, _ = parse_matroid_spec(args.spec)
    except (SpecError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if not m.is_loopless():
        print("error: Whitney numbers need a loopless matroid", file=sys.stderr)
        return EXIT_USAGE
    w = whitney_numbers(m)
    terms = args.terms if args.terms is not None else 2 * m.rank
    alt = Poly([(-1) ** i * c for i, c in enumerate(w.coeffs)])
    prefix = series_inverse_prefix(alt, terms - 1)
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
    failures = []
    for name in checks:
        if name == "gamma":
            for tag, q, center in (("chow", uh, k - 1), ("augchow", h, k)):
                g = gamma_vector(q, center)
                if any(c < 0 for c in g.coeffs):
                    failures.append({"check": "gamma", "poly": tag, "gamma": [str(c) for c in g.coeffs]})
        elif name == "real-rooted":
            for tag, q in (("chow", uh), ("augchow", h)):
                if not real_rooted(q):
                    failures.append({"check": "real-rooted", "poly": tag, "coeffs": [str(c) for c in q.coeffs]})
        elif name == "unimodal":
            for tag, q in (("chow", uh), ("augchow", h)):
                if not is_unimodal(q):
                    failures.append({"check": "unimodal", "poly": tag})
    return lam, failures


def cmd_sweep(args):
    if args.family != "sparse-paving":
        print("error: the only supported sweep family is 'sparse-paving'", file=sys.stderr)
        return EXIT_USAGE
    k, n = args.k, args.n
    if not 1 <= k <= n:
        print("error: need 1 <= k <= n", file=sys.stderr)
        return EXIT_USAGE
    lam_min = args.lambda_min
    lam_max = args.lambda_max
    if lam_max is None:
        lam_max = comb(n, k) // (n - k + 1) if n > k else 0
    if lam_min < 0 or lam_max < lam_min:
        print("error: invalid lambda range", file=sys.stderr)
        return EXIT_USAGE
    checks = [c for c in args.certify.split(",") if c]
    jobs = max(args.jobs, 1)
    deadline = time.monotonic() + args.timeout_secs if args.timeout_secs else None
    payloads = [(k, n, lam, checks) for lam in range(lam_min, lam_max + 1)]
    results = []
    if jobs == 1:
        for p in payloads:
            results.append(_sweep_one(p))
            if deadline and time.monotonic() > deadline:
                print("error: timeout exceeded", file=sys.stderr)
                return EXIT_USAGE
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for r in pool.map(_sweep_one, payloads, chunksize=16):
                results.append(r)
                if deadline and time.monotonic() > deadline:
                    print("error: timeout exceeded", file=sys.stderr)
                    return EXIT_USAGE
    results.sort(key=lambda t: t[0])
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
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        for k in range(1, n + 1):
            try:
                rep = hrs_identity(k, n, check_direct=n <= args.direct_max_n)
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
        sub.add_argument("--timeout-secs", type=float, default=0, help="soft time budget")


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
    p.add_argument("--direct-max-n", type=int, default=7)
    _add_common(p)
    p.set_defaults(func=cmd_hrs)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
