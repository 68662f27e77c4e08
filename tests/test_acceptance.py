"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run pytest with -s to see them live).

Full-scale claims deliberately not reproduced here: sparse-paving sweeps
stop at 14 elements (not 40), braid real-rootedness stops at 15 vertices
(not 30), and the open real-rootedness / interlacing conjectures are only
exercised as property sweeps, never asserted as theorems.
"""

import json
import time
from math import comb

from matroid_invariants.cli import main as cli_main
from matroid_invariants.equivariant import (
    VirtualRep,
    eq_kl_uniform,
    eq_z_uniform,
    gamma_decompose_eq,
)
from matroid_invariants.hz import hz_recursion_check, hz_uniform
from matroid_invariants.invariants import (
    _kl_upper_table,
    aug_chow_chains,
    aug_chow_contraction_conv,
    aug_chow_paving,
    aug_chow_uniform,
    certify_dominance,
    certify_gamma,
    certify_gamma_poset,
    chow_braid,
    chow_chains,
    chow_char_conv,
    chow_paving,
    chow_uniform,
    chow_uniform_inverse,
    aug_chow_uniform_inverse,
    chow_incidence_inv,
    aug_chow_incidence_inv,
    hrs_identity,
    invariant_report,
    kl_poly,
    kl_uniform,
    z_poly,
    z_uniform,
)
from matroid_invariants.matroid import boolean, equal_tutte_pair, tutte, uniform, vamos
from matroid_invariants.poly import (
    ONE,
    Poly,
    X,
    binomial_eulerian,
    derangement,
    eulerian,
    ones,
    series_inverse_prefix,
)
from matroid_invariants.poset import (
    GradedPoset,
    interval_chibar,
    kls_H_general,
    kls_uH_general,
)
from matroid_invariants.realroots import real_rooted

TABLE_UH_CORANK1 = {
    1: [1],
    2: [1, 1],
    3: [1, 7, 1],
    4: [1, 21, 21, 1],
    5: [1, 51, 161, 51, 1],
    6: [1, 113, 813, 813, 113, 1],
    7: [1, 239, 3361, 7631, 3361, 239, 1],
}
TABLE_H_CORANK1 = {
    1: [1, 1],
    2: [1, 4, 1],
    3: [1, 11, 11, 1],
    4: [1, 26, 66, 26, 1],
    5: [1, 57, 302, 302, 57, 1],
    6: [1, 120, 1191, 2416, 1191, 120, 1],
    7: [1, 247, 4293, 15619, 15619, 4293, 247, 1],
}
TABLE_UH_CORANK2 = {
    1: [1],
    2: [1, 1],
    3: [1, 11, 1],
    4: [1, 36, 36, 1],
    5: [1, 92, 337, 92, 1],
    6: [1, 211, 1877, 1877, 211, 1],
    7: [1, 457, 8269, 20155, 8269, 457, 1],
}
TABLE_H_CORANK2 = {
    1: [1, 1],
    2: [1, 5, 1],
    3: [1, 16, 16, 1],
    4: [1, 42, 117, 42, 1],
    5: [1, 99, 610, 610, 99, 1],
    6: [1, 219, 2641, 5637, 2641, 219, 1],
    7: [1, 466, 10204, 40444, 40444, 10204, 466, 1],
}

COUNTEREXAMPLE_POSET = GradedPoset(
    [0, 1, 2, 2, 3, 3, 4, 4, 5],
    [[0, 1], [1, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6, 8], [7, 8]],
)


def _report(num, ok, detail):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _dedupe(corpus):
    seen = {}
    for name, m, braid_n in corpus:
        key = m.key()
        if key not in seen:
            seen[key] = (name, m, braid_n)
    return list(seen.values())


def test_criterion_01_uniform_tables():
    t0 = time.perf_counter()
    bad = []
    for k in range(1, 8):
        cases = [
            ("uH", k, k + 1, TABLE_UH_CORANK1[k], chow_uniform, chow_uniform_inverse, chow_chains, chow_incidence_inv),
            ("H", k, k + 1, TABLE_H_CORANK1[k], aug_chow_uniform, aug_chow_uniform_inverse, aug_chow_chains, aug_chow_incidence_inv),
            ("uH", k, k + 2, TABLE_UH_CORANK2[k], chow_uniform, chow_uniform_inverse, chow_chains, chow_incidence_inv),
            ("H", k, k + 2, TABLE_H_CORANK2[k], aug_chow_uniform, aug_chow_uniform_inverse, aug_chow_chains, aug_chow_incidence_inv),
        ]
        for tag, kk, nn, expect, closed, closed_inv, chains, incidence in cases:
            want = Poly(expect)
            m = uniform(kk, nn)
            got = {
                "closed": closed(kk, nn),
                "closed_inverse": closed_inv(kk, nn),
                "chains": chains(m),
                "incidence_inv": incidence(m),
            }
            for how, val in got.items():
                if val != want:
                    bad.append((tag, kk, nn, how))
    dt = time.perf_counter() - t0
    _report(1, not bad and dt < 5.0, "28 table entries x 4 engines exact in %.2fs" % dt)


def test_criterion_02_cross_method_agreement(corpus, store):
    t0 = time.perf_counter()
    bad = []
    count = 0
    for name, m, braid_n in _dedupe(corpus):
        lat = store.lattice(m) if m.is_loopless() else None
        for kind in ("chow", "augchow", "kl", "z"):
            rep = invariant_report(m, kind, braid_n=braid_n, descriptor=name, lattice=lat)
            count += len(rep.results)
            if not rep.agree:
                bad.append((name, kind, {k: v.coeffs for k, v in rep.results.items()}))
    dt = time.perf_counter() - t0
    _report(
        2,
        not bad and dt < 180.0,
        "%d method runs across the corpus agree in %.1fs%s"
        % (count, dt, "" if not bad else "; first disagreement: %s" % (bad[0],)),
    )


def test_criterion_03_vamos_golden(store):
    v = vamos()
    lat = store.lattice(v)
    uh_paving = chow_paving(4, 8, {4: 5})
    h_paving = aug_chow_paving(4, 8, {4: 5})
    uh_chains = chow_chains(v, lat)
    h_chains = aug_chow_chains(v, lat)
    ok = (
        uh_paving == uh_chains == Poly([1, 70, 70, 1])
        and h_paving == h_chains == Poly([1, 78, 234, 78, 1])
        and lat.size == 79
    )
    _report(3, ok, "Vamos uH and H match by paving formula and chain engine (79 flats)")


def test_criterion_04_tutte_counterexample(store):
    m1, m2 = equal_tutte_pair()
    t_expected = {
        (4, 0): 1, (3, 0): 3, (2, 1): 2, (1, 2): 1, (0, 3): 1,
        (2, 0): 4, (1, 1): 5, (0, 2): 3, (1, 0): 2, (0, 1): 2,
    }
    t1, t2 = tutte(m1), tutte(m2)
    uh1 = chow_char_conv(m1, store.lattice(m1))
    uh2 = chow_char_conv(m2, store.lattice(m2))
    h1 = aug_chow_contraction_conv(m1, store.lattice(m1))
    h2 = aug_chow_contraction_conv(m2, store.lattice(m2))
    ok = (
        t1.terms == t_expected
        and t2.terms == t_expected
        and uh1 == Poly([1, 30, 30, 1])
        and uh2 == Poly([1, 31, 31, 1])
        and h1 == Poly([1, 37, 98, 37, 1])
        and h2 == Poly([1, 38, 102, 38, 1])
    )
    _report(4, ok, "equal Tutte polynomials, Chow data differs exactly as quoted")


def test_criterion_05_kl_desk_scale(store):
    t0 = time.perf_counter()
    p = kl_uniform(15, 16)
    dt = time.perf_counter() - t0
    expected = Poly([1, 104, 2640, 23100, 76440, 91728, 32032, 1430])
    ok = p == expected and dt < 1.0
    for n in range(11):
        b = boolean(n)
        lat = store.lattice(b) if n <= 10 else None
        ok = ok and z_poly(b, "conv_def", lat) == (ONE + X) ** n
    _report(5, ok, "P(U_15,16) exact in %.3fs; Z of free matroids to n=10" % dt)


def test_criterion_06_hz_grid():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 10):
        for k in range(2, n + 1):
            if hz_uniform(k, n) != aug_chow_uniform(k, n):
                bad.append(("eq", k, n))
            if not hz_recursion_check(k, n):
                bad.append(("rec", k, n))
    dt = time.perf_counter() - t0
    _report(6, not bad and dt < 120.0, "inversion-sequence grid 2<=k<=n<=9 in %.1fs" % dt)


def test_criterion_07_hrs_grid():
    bad = []
    for n in range(1, 13):
        for k in range(1, n + 1):
            try:
                hrs_identity(k, n)
            except RuntimeError as exc:
                bad.append((k, n, str(exc)))
    _report(7, not bad, "h-polynomial identity for 1<=k<=n<=12, direct complexes to n=7")


def test_criterion_08_gamma_positivity(corpus, store):
    bad = []
    for name, m, _ in _dedupe(corpus):
        if not m.is_loopless():
            continue
        rep = certify_gamma(m, store.lattice(m))
        if not rep.ok:
            bad.append(name)
    for n in range(1, 9):
        rep = certify_gamma(boolean(n), store.lattice(boolean(n)))
        z_gamma = {e.name: e.gamma for e in rep.entries}["z"]
        if z_gamma != ONE:
            bad.append("boolean-z-%d" % n)
    poset_rep = certify_gamma_poset(COUNTEREXAMPLE_POSET)
    chow_gamma = next(e for e in poset_rep.entries if e.name == "chow").gamma
    poset_ok = (
        not poset_rep.ok
        and chow_gamma == Poly([1, 3, -1])
        and kls_uH_general(COUNTEREXAMPLE_POSET) == Poly([1, 7, 11, 7, 1])
        and kls_H_general(COUNTEREXAMPLE_POSET) == Poly([1, 8, 18, 18, 8, 1])
    )
    _report(
        8,
        not bad and poset_ok,
        "gamma-positive across the corpus; counterexample poset fails with gamma = 1 + 3x - x^2",
    )


def test_criterion_09_real_rootedness(corpus, store):
    bad = []
    if not real_rooted((ONE + X) ** 5) or real_rooted(Poly([1, 1, 1])):
        bad.append("sturm-validation")
    for n in range(16):
        if not real_rooted(eulerian(n) if n else ONE):
            bad.append("A_%d" % n)
        if n >= 2 and not real_rooted(derangement(n)):
            bad.append("d_%d" % n)
        if n >= 1 and not real_rooted(binomial_eulerian(n)):
            bad.append("At_%d" % n)
    for n in range(1, 11):
        for k in range(1, n + 1):
            if not real_rooted(aug_chow_uniform(k, n)):
                bad.append("H-U_%d,%d" % (k, n))
    for name, m, _ in _dedupe(corpus):
        if m.is_loopless() and 1 <= m.rank <= 5:
            if not real_rooted(chow_char_conv(m, store.lattice(m))):
                bad.append("uH-%s" % name)
    for n in range(2, 16):
        if not real_rooted(chow_braid(n)):
            bad.append("braid-%d" % n)
    _report(9, not bad, "families, low-rank corpus and braid Chow polynomials real-rooted")


def test_criterion_10_dominance(corpus, store):
    bad = []
    for name, m, _ in _dedupe(corpus):
        if not m.is_loopless():
            continue
        rep = certify_dominance(m, store.lattice(m))
        if not rep.ok:
            bad.append((name, rep.witnesses))
    _report(10, not bad, "uniform matroids dominate coefficientwise across the corpus")


def test_criterion_11_identity_suites(corpus, store):
    from matroid_invariants.invariants import _chow_upper_table

    bad = []
    for name, m, _ in _dedupe(corpus):
        if not m.is_loopless() or m.n > 8:
            continue
        lat = store.lattice(m)
        # telescoping of reduced characteristic polynomials of contractions
        acc = Poly()
        for i in range(lat.size):
            if i != lat.top:
                acc = acc + interval_chibar(lat, i, lat.top)
        if acc != ones(m.rank):
            bad.append(("telescope", name))
        # H from uH, both convolutions
        table = _chow_upper_table(lat)
        h = aug_chow_contraction_conv(m, lat)
        conv = Poly()
        alt = Poly()
        for f in range(lat.size):
            conv = conv + table[f].shift(lat.ranks[f])
            if f != lat.top:
                alt = alt + table[f]
        if h != conv or h != ONE + alt.shift(1):
            bad.append(("h-conv", name))
        # Z from P
        ktab = _kl_upper_table(lat)
        zconv = Poly()
        for f in range(lat.size):
            zconv = zconv + ktab[f].shift(lat.ranks[f])
        if zconv != z_poly(m, "conv_def", lat):
            bad.append(("z-conv", name))
    # multiplicativity of P, non-multiplicativity witness for uH
    pairs = [(uniform(1, 1), uniform(1, 2)), (uniform(2, 3), boolean(2)), (uniform(2, 4), uniform(1, 2))]
    for a, b in pairs:
        s = a.direct_sum(b)
        if kl_poly(s) != kl_poly(a) * kl_poly(b):
            bad.append(("kl-mult", a, b))
    witness = uniform(1, 1).direct_sum(uniform(1, 2))
    if chow_char_conv(witness) == chow_char_conv(uniform(1, 1)) * chow_char_conv(uniform(1, 2)):
        bad.append(("uh-nonmult-witness",))
    _report(11, not bad, "telescoping, convolution and multiplicativity identities exact")


def test_criterion_12_equivariant():
    bad = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            if eq_kl_uniform(k, n).dim_poly() != kl_uniform(k, n):
                bad.append(("kl-dim", k, n))
            if eq_z_uniform(k, n).dim_poly() != z_uniform(k, n):
                bad.append(("z-dim", k, n))
    v2 = VirtualRep.irreducible([2])
    v11 = VirtualRep.irreducible([1, 1])
    z22 = eq_z_uniform(2, 2)
    gammas = gamma_decompose_eq(z22, 2)
    if not (
        z22.coeff(0) == v2
        and z22.coeff(1) == v2 + v11
        and z22.coeff(2) == v2
        and gammas[1] == v11 - v2
        and not gammas[1].is_honest()
    ):
        bad.append(("example-2-2",))
    for n in (3, 4, 5):
        gs = gamma_decompose_eq(eq_z_uniform(n, n).restrict_to(2), n)
        if gs[1] != v11 - v2 or gs[1].is_honest():
            bad.append(("boolean-restriction", n))
    _report(12, not bad, "equivariant dimensions match; Gamma-positivity counterexamples reproduced")


def test_criterion_13_sweep(capsys):
    t0 = time.perf_counter()
    base = ["sweep", "sparse-paving", "--n", "14", "--k", "7", "--json"]
    code1 = cli_main(base + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(base + ["--jobs", "4"])
    out2 = capsys.readouterr().out
    dt = time.perf_counter() - t0
    data1, data2 = json.loads(out1), json.loads(out2)
    lam_max = comb(14, 7) // 8
    ok = (
        code1 == 0
        and code2 == 0
        and data1 == data2
        and data1["failures"] == 0
        and data1["lambda_range"] == [0, lam_max]
        and data1["count"] == lam_max + 1
        and dt < 600.0
    )
    _report(13, ok, "sweep n=14 k=7 over %d cases, jobs-independent, %.1fs" % (data1["count"], dt))


def test_criterion_14_koszul_prefixes(corpus, store):
    bad = []
    for name, m, _ in _dedupe(corpus):
        if not m.is_loopless() or m.rank == 0:
            continue
        lat = store.lattice(m)
        for tag, p in (
            ("chow", chow_char_conv(m, lat)),
            ("augchow", aug_chow_contraction_conv(m, lat)),
        ):
            alt = Poly([(-1) ** i * c for i, c in enumerate(p.coeffs)])
            prefix = series_inverse_prefix(alt, 2 * m.rank - 1)
            if any(c < 0 for c in prefix):
                bad.append((name, tag))
    w = Poly([1, -5, 10, -1])  # Whitney numbers of U_{3,5} at -x
    inverse_ok = series_inverse_prefix(w, 5) == [1, 5, 15, 26, -15, -320]
    _report(
        14,
        not bad and inverse_ok,
        "Koszul prefixes nonnegative on the corpus; U_{3,5} Whitney inverse exact",
    )
