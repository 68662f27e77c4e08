import random

import pytest

from matroid_invariants import invariants, poset
from matroid_invariants.matroid import (
    Matroid,
    boolean,
    complete_graph,
    empty_matroid,
    equal_tutte_pair,
    uniform,
    vamos,
)
from matroid_invariants.poly import (
    ONE,
    Poly,
    X,
    ZERO,
    binomial_eulerian,
    eulerian,
    ones,
)
from matroid_invariants.poset import interval_chibar, lattice_of_flats
from matroid_invariants.invariants import (
    KINDS,
    applicable_methods,
    compute_invariant,
    aug_chow_alt_conv,
    aug_chow_chains,
    aug_chow_contraction_conv,
    aug_chow_incidence_inv,
    aug_chow_intrinsic,
    aug_chow_mobius_conv,
    aug_chow_of_paving,
    aug_chow_paving,
    aug_chow_semismall,
    aug_chow_uniform,
    aug_chow_uniform_coloop,
    aug_chow_uniform_inverse,
    certify_dominance,
    certify_gamma,
    certify_gamma_poset,
    chibar_uniform,
    chow_braid,
    chow_chains,
    chow_char_conv,
    chow_incidence_inv,
    chow_intrinsic,
    chow_of_paving,
    chow_paving,
    chow_semismall,
    chow_uniform,
    chow_uniform_coloop,
    chow_uniform_inverse,
    hrs_identity,
    invariant_report,
    kl_bv_deletion,
    kl_poly,
    kl_uniform,
    tau,
    z_bv_deletion,
    z_poly,
    z_uniform,
)
from matroid_invariants.poset import FlatsLattice, GradedPoset
from test_poset import random_graphic, random_sparse_paving

CHOW_ENGINES = (chow_chains, chow_char_conv, chow_intrinsic, chow_incidence_inv)
AUG_ENGINES = (
    aug_chow_chains,
    aug_chow_contraction_conv,
    aug_chow_alt_conv,
    aug_chow_mobius_conv,
    aug_chow_intrinsic,
    aug_chow_incidence_inv,
)


# -- chain engines ------------------------------------------------------------------


def test_chow_chains_examples():
    for n in range(6):
        assert chow_chains(boolean(n)) == eulerian(n), n
    assert chow_chains(uniform(3, 4)) == Poly([1, 7, 1])
    assert chow_chains(empty_matroid()) == ONE
    assert chow_chains(Matroid.from_bases(2, [{0}])) == ZERO  # loops


def test_aug_chow_chains_examples():
    for n in range(6):
        assert aug_chow_chains(boolean(n)) == binomial_eulerian(n), n
    assert aug_chow_chains(uniform(3, 4)) == Poly([1, 11, 11, 1])
    assert aug_chow_chains(vamos()) == Poly([1, 78, 234, 78, 1])


def _chain_sum_by_enumeration(lat, starts):
    """Literal chain enumeration: the sum over (start, factor) pairs of the
    chains of flats leaving `start`, each weighted by `factor` times
    x + ... + x^(gap - 1) per rank gap; gaps of 1 give zero and are pruned."""
    acc = ZERO

    def walk(i, prod):
        nonlocal acc
        acc = acc + prod
        for j in lat.above[i]:
            gap = lat.ranks[j] - lat.ranks[i]
            if gap >= 2:
                walk(j, prod * ones(gap - 1).shift(1))

    for start, factor in starts:
        walk(start, factor)
    return acc


def test_chain_engines_match_enumeration(small_corpus, store):
    names = [name for name, _, _ in small_corpus]
    assert {"boolean:%d" % n for n in range(8)} <= set(names)
    for name, m, _ in small_corpus:
        lat = store.lattice(m)
        assert chow_chains(m, lat) == _chain_sum_by_enumeration(
            lat, [(lat.bottom, ONE)]
        ), name
        nonempty = [(f, ones(r).shift(1)) for f, r in enumerate(lat.ranks) if r > 0]
        assert aug_chow_chains(m, lat) == ONE + _chain_sum_by_enumeration(
            lat, nonempty
        ), name


# -- convolution engines ---------------------------------------------------------------


def test_chow_char_conv_table_values():
    assert chow_char_conv(uniform(5, 6)) == Poly([1, 51, 161, 51, 1])
    assert chow_char_conv(uniform(2, 2)) == Poly([1, 1])
    # any rank-2 loopless matroid has Chow polynomial 1 + x
    assert chow_char_conv(uniform(2, 5)) == Poly([1, 1])
    assert chow_char_conv(complete_graph(3)) == Poly([1, 1])


def test_chow_intrinsic_values():
    assert chow_intrinsic(uniform(4, 5)) == Poly([1, 21, 21, 1])
    assert chow_intrinsic(vamos()) == Poly([1, 70, 70, 1])


def test_chow_incidence_values():
    assert chow_incidence_inv(uniform(3, 5)) == Poly([1, 11, 1])
    assert chow_incidence_inv(boolean(4)) == eulerian(4)
    k4 = complete_graph(4)
    assert chow_incidence_inv(k4) == chow_chains(k4)


def test_aug_chow_convolutions_agree():
    for m in (uniform(4, 5), boolean(3), empty_matroid(), uniform(2, 6)):
        values = {f(m) for f in AUG_ENGINES}
        assert len(values) == 1, m
    assert aug_chow_mobius_conv(uniform(4, 5)) == Poly([1, 26, 66, 26, 1])
    assert aug_chow_contraction_conv(empty_matroid()) == ONE
    assert aug_chow_alt_conv(boolean(3)) == Poly([1, 7, 7, 1])


# -- semismall -------------------------------------------------------------------------


def test_semismall_hand_run_rank2():
    # deleting a point of a triangle leaves a free pair; no proper flat F
    # with F + i a flat contributes, so uH = uH(U_{2,2}) = 1 + x
    assert chow_semismall(uniform(2, 3)) == Poly([1, 1])


def test_semismall_boolean_coloop_route():
    for n in range(7):
        assert chow_semismall(boolean(n)) == eulerian(n), n
        assert aug_chow_semismall(boolean(n)) == binomial_eulerian(n), n


def test_semismall_matches_other_engines():
    for m in (uniform(3, 6), vamos(), complete_graph(4), uniform(2, 4).add_coloop()):
        assert chow_semismall(m) == chow_char_conv(m), m
        assert aug_chow_semismall(m) == aug_chow_contraction_conv(m), m


# -- flat-set minors and the deletion engines on them ------------------------------------


def _minor_stress(corpus):
    rng = random.Random(6)
    # boolean:n, uniform:n,n and uniform+coloop:n-1,n-1 are one matroid
    distinct = {m.key(): m for _, m, _ in corpus if m.n <= 8 and m.is_loopless()}
    out = list(distinct.values())
    return out + [vamos()] + [random_sparse_paving(rng, 9, 4, 12) for _ in range(2)]


def test_flat_set_minors_match_matroid_minors(corpus):
    key_of = invariants._flat_key
    for m in _minor_stress(corpus):
        lat = lattice_of_flats(m)
        key = key_of(lat)
        for i in range(m.n):  # coloops included: their deletion lowers the rank
            assert invariants._delete(key, i) == key_of(lattice_of_flats(m.delete(1 << i))), (m, i)
        for f, r in zip(lat.flats, lat.ranks):
            assert invariants._contract(key, f, r) == key_of(lattice_of_flats(m.contract(f))), (m, f)
            assert invariants._restrict(key, f, r) == key_of(lattice_of_flats(m.restrict(f))), (m, f)


DELETION_ENGINES = (chow_semismall, aug_chow_semismall, kl_bv_deletion, z_bv_deletion)


def _lattice_engine_values(m, lat):
    return [chow_char_conv(m, lat), aug_chow_contraction_conv(m, lat),
            kl_poly(m, "epw", lat), z_poly(m, "conv_def", lat)]


def test_deletion_engines_match_lattice_engines():
    # symmetric families, then inputs with little symmetry: sparse paving
    # and graphic matroids past DELETION_ENGINE_LIMIT and the Tutte pair
    rng = random.Random(11)
    ms = [complete_graph(5), complete_graph(6), uniform(4, 9), uniform(5, 10),
          uniform(6, 12), boolean(6)]
    ms += [random_sparse_paving(rng, 11, 5, 20) for _ in range(2)]
    ms += [random_graphic(rng, 7, 12), *equal_tutte_pair()]
    for m in ms:
        lat = lattice_of_flats(m)
        values = [engine(m, lat) for engine in DELETION_ENGINES]
        assert values == _lattice_engine_values(m, lat), m


def test_deletion_engines_use_no_interval_table(monkeypatch):
    # the deletion recursions share no chi, mu or table layer with the
    # lattice engines they are checked against
    ms = (vamos(), uniform(3, 6).add_coloop(), uniform(5, 10))
    lats = [lattice_of_flats(m) for m in ms]
    expected = [_lattice_engine_values(m, lat) for m, lat in zip(ms, lats)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a deletion recursion used an interval table")

    monkeypatch.setattr(invariants, "_kl_upper_table", forbidden)
    for name in ("interval_dp", "interval_char_poly", "interval_chibar", "mobius"):
        monkeypatch.setattr(invariants, name, forbidden)
        monkeypatch.setattr(poset, name, forbidden)
    monkeypatch.setattr(poset, "_chi_row", forbidden)
    for m, lat, values in zip(ms, lats, expected):
        assert [engine(m, lat) for engine in DELETION_ENGINES] == values, m


def test_deletion_engines_with_and_without_a_lattice():
    loopy = uniform(0, 1).direct_sum(uniform(2, 4))
    for m in (vamos(), uniform(3, 6).add_coloop(), complete_graph(4), loopy):
        core = m.delete(m.loops())
        for engine in DELETION_ENGINES:
            assert engine(m) == engine(m, lattice_of_flats(core)), (m, engine)


def test_deletion_recursions_scan_no_bases(monkeypatch):
    # given the lattice, the recursions read every minor off its flats; the
    # coloop reaches the free-matroid branch
    ms = (vamos(), uniform(3, 6).add_coloop())
    lats = [lattice_of_flats(m) for m in ms]
    expected = [[engine(m, lat) for engine in DELETION_ENGINES] for m, lat in zip(ms, lats)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a deletion recursion scanned bases or built a lattice")

    for name in ("restrict", "contract", "rank_of", "closure"):
        monkeypatch.setattr(Matroid, name, forbidden)
    monkeypatch.setattr(FlatsLattice, "__init__", forbidden)
    monkeypatch.setattr(invariants, "lattice_of_flats", forbidden)
    for m, lat, values in zip(ms, lats, expected):
        assert [engine(m, lat) for engine in DELETION_ENGINES] == values, m


# -- uniform closed forms -----------------------------------------------------------------


def test_uniform_table_values():
    assert chow_uniform(3, 5) == Poly([1, 11, 1])
    assert chow_uniform(7, 8) == Poly([1, 239, 3361, 7631, 3361, 239, 1])
    assert aug_chow_uniform(7, 9) == Poly([1, 466, 10204, 40444, 40444, 10204, 466, 1])
    with pytest.raises(ValueError):
        chow_uniform(3, 2)


def test_uniform_inverse_forms_agree():
    for n in range(9):
        for k in range(n + 1):
            assert chow_uniform_inverse(k, n) == chow_uniform(k, n), (k, n)
            assert aug_chow_uniform_inverse(k, n) == aug_chow_uniform(k, n), (k, n)
    assert chow_uniform_inverse(2, 7) == Poly([1, 1])


def test_uniform_coloop_closed_forms():
    assert chow_uniform_coloop(2, 3) == Poly([1, 5, 1])
    assert aug_chow_uniform_coloop(3, 4) == Poly([1, 23, 55, 23, 1])
    assert chow_uniform_coloop(1, 1) == eulerian(2)
    for n in range(6):
        assert aug_chow_uniform_coloop(0, n) == ONE + X, n  # n loops and a coloop
    for k, n in [(1, 2), (2, 3), (3, 4), (2, 4), (3, 5)]:
        m = uniform(k, n).add_coloop()
        assert chow_uniform_coloop(k, n) == chow_chains(m), (k, n)
        assert aug_chow_uniform_coloop(k, n) == aug_chow_chains(m), (k, n)


def test_chibar_uniform_closed_form():
    from matroid_invariants.poset import reduced_char_poly

    for n in range(1, 8):
        for k in range(1, n + 1):
            assert chibar_uniform(k, n) == reduced_char_poly(uniform(k, n)), (k, n)


# -- paving ---------------------------------------------------------------------------------


def test_paving_formula_examples():
    assert chow_paving(4, 8, {4: 5}) == Poly([1, 70, 70, 1])
    assert chow_paving(3, 6, {3: 4}) == Poly([1, 8, 1])
    assert chow_paving(3, 6, {}) == chow_uniform(3, 6)
    assert aug_chow_paving(4, 8, {4: 5}) == Poly([1, 78, 234, 78, 1])
    with pytest.raises(ValueError):
        chow_paving(3, 6, {3: -1})
    with pytest.raises(ValueError):
        chow_paving(3, 6, {2: 1})


def test_chow_of_paving_uses_counts():
    assert chow_of_paving(vamos()) == Poly([1, 70, 70, 1])
    assert aug_chow_of_paving(vamos()) == Poly([1, 78, 234, 78, 1])
    assert chow_of_paving(complete_graph(4)) == Poly([1, 8, 1])
    # U_{2,4} plus a coloop is paving with one stressed hyperplane of size 4
    m = uniform(2, 4).add_coloop()
    assert m.is_paving() and m.stressed_hyperplane_counts() == {4: 1}
    assert chow_of_paving(m) == chow_char_conv(m)
    with pytest.raises(ValueError):
        chow_of_paving(complete_graph(4).add_coloop())  # triangles beat the rank


# -- braid ----------------------------------------------------------------------------------


def test_chow_braid_against_lattice():
    assert chow_braid(1) == chow_braid(2) == ONE
    for n in range(2, 7):
        assert chow_braid(n) == chow_chains(complete_graph(n)), n
    for n in range(3, 21):  # palindromic of degree rk - 1 = n - 2
        p = chow_braid(n)
        assert p.degree == n - 2 and p.coeffs == p.coeffs[::-1], n
    with pytest.raises(ValueError):
        chow_braid(0)


# -- Kazhdan-Lusztig and Z ---------------------------------------------------------------------


def test_kl_z_base_values():
    for n in range(7):
        assert kl_poly(boolean(n)) == ONE
        assert z_poly(boolean(n)) == (ONE + X) ** n
    assert kl_poly(empty_matroid()) == ONE
    assert z_poly(empty_matroid()) == ONE
    assert kl_poly(uniform(2, 3)) == ONE
    assert z_poly(uniform(2, 3)) == Poly([1, 3, 1])


def test_kl_loops_convention():
    loopy = Matroid.from_bases(2, [{0}])
    assert kl_poly(loopy) == ZERO
    assert z_poly(loopy) == Poly([1, 1])  # Z of the loop-free part U_{1,1}


def test_kl_uniform_desk_scale():
    assert kl_uniform(15, 16) == Poly([1, 104, 2640, 23100, 76440, 91728, 32032, 1430])
    for n in range(25):
        assert kl_uniform(n, n) == ONE, n  # the boolean matroid
    assert kl_uniform(2, 4) == kl_poly(uniform(2, 4), "epw")


def test_kl_methods_agree():
    for k, n in [(2, 4), (3, 5), (3, 6), (4, 6), (2, 3)]:
        m = uniform(k, n)
        vals = {
            kl_poly(m, "epw"),
            kl_poly(m, "intrinsic"),
            kl_poly(m, "uniform_fast"),
            kl_bv_deletion(m),
        }
        assert len(vals) == 1, (k, n)
        assert z_poly(m, "conv_def") == z_bv_deletion(m) == z_uniform(k, n), (k, n)
    with pytest.raises(ValueError):
        kl_poly(uniform(2, 4), "unknown")
    with pytest.raises(ValueError):
        kl_poly(vamos(), "uniform_fast")


def test_kl_bv_on_non_uniform():
    for m in (vamos(), complete_graph(4), equal_tutte_pair()[0]):
        assert kl_bv_deletion(m) == kl_poly(m, "epw"), m
        assert z_bv_deletion(m) == z_poly(m, "conv_def"), m


def test_tau():
    assert tau(uniform(2, 3)) == 0  # even rank
    assert tau(uniform(1, 2)) == 1
    assert tau(uniform(3, 6)) == kl_poly(uniform(3, 6)).coeff(1)
    assert tau(boolean(5)) == 0
    assert tau(uniform(3, 5).direct_sum(uniform(0, 1))) == 0  # P = 0 with loops


def test_kl_degree_bound(small_corpus, store):
    for name, m, _ in small_corpus:
        if m.rank == 0:
            continue
        p = kl_poly(m, "epw", store.lattice(m))
        assert 2 * p.degree < m.rank, name


# -- certification ------------------------------------------------------------------------------


def test_certify_gamma_pass():
    rep = certify_gamma(vamos())
    assert rep.ok
    by_name = {e.name: e.gamma for e in rep.entries}
    assert by_name["chow"] == Poly([1, 67])
    rep = certify_gamma(boolean(4))
    assert rep.ok
    assert {e.name: e.gamma for e in rep.entries}["z"] == ONE


def test_certify_gamma_poset_counterexample():
    p = GradedPoset(
        [0, 1, 2, 2, 3, 3, 4, 4, 5],
        [[0, 1], [1, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6, 8], [7, 8]],
    )
    rep = certify_gamma_poset(p)
    assert not rep.ok
    chow_entry = next(e for e in rep.entries if e.name == "chow")
    assert chow_entry.gamma == Poly([1, 3, -1])


def test_certify_dominance():
    assert certify_dominance(complete_graph(4)).ok
    assert certify_dominance(uniform(3, 6)).ok  # equality case
    assert certify_dominance(vamos()).ok
    assert chow_char_conv(complete_graph(4)) == Poly([1, 8, 1])
    assert chow_uniform(3, 6) == Poly([1, 16, 1])


def test_certificates_reject_loops():
    for certify in (certify_gamma, certify_dominance):
        with pytest.raises(ValueError, match="loopless"):
            certify(uniform(0, 2))


def test_gamma_entry_of_a_non_palindromic_polynomial():
    rep = invariants.GammaReport([invariants._gamma_entry("chow", Poly([1, 2]), 1)])
    assert not rep.ok
    assert rep.to_json() == {"ok": False, "entries": [{"name": "chow", "poly": ["1", "2"], "gamma": None, "ok": False}]}


def test_empty_gamma_report():
    rep = invariants.GammaReport()
    assert rep.entries == [] and rep.ok
    assert rep.to_json() == {"ok": True, "entries": []}
    assert invariants.GammaReport().entries is not rep.entries


def test_hrs_identity():
    hrs_identity(3, 5)
    hrs_identity(4, 8)
    rep = hrs_identity(1, 6)
    assert rep.h_poly == ONE
    rep = hrs_identity(5, 5)  # barycentric subdivision case
    assert rep.h_poly == eulerian(5)
    with pytest.raises(ValueError):
        hrs_identity(0, 4)


# -- loop conventions and simplification -----------------------------------------------------------


def test_loop_conventions_all_engines():
    loopy = uniform(0, 3)
    for f in CHOW_ENGINES:
        assert f(loopy) == ZERO, f.__name__
    assert chow_semismall(loopy) == ZERO
    for f in AUG_ENGINES:
        assert f(loopy) == ONE, f.__name__
    assert aug_chow_semismall(loopy) == ONE
    loopy2 = uniform(0, 2).add_coloop()
    for f in AUG_ENGINES:
        assert f(loopy2) == Poly([1, 1]), f.__name__


def test_simplification_invariance():
    # uH and H only see the lattice of flats
    m = Matroid.from_bases(4, [{0, 2}, {0, 3}, {1, 2}, {1, 3}])  # two parallel pairs
    s = m.simplify()
    assert s == boolean(2)
    assert chow_char_conv(m) == chow_char_conv(s)
    assert aug_chow_contraction_conv(m) == aug_chow_contraction_conv(s)


# -- identity suites ------------------------------------------------------------------------------


def test_h_from_uh_identities(small_corpus, store):
    for name, m, _ in small_corpus:
        lat = store.lattice(m)
        h = aug_chow_contraction_conv(m, lat)
        assert h == aug_chow_alt_conv(m, lat), name
        # evaluation identity H(1) - uH(1) = sum over nonempty flats of uH(M/F)(1)
        from matroid_invariants.invariants import _chow_upper_table

        table = _chow_upper_table(lat)
        uh = table[lat.bottom]
        total = sum(table[f](1) for f in range(lat.size) if f != lat.bottom)
        assert h(1) - uh(1) == total, name


def test_z_convolution_identity(small_corpus, store):
    from matroid_invariants.invariants import _kl_upper_table

    for name, m, _ in small_corpus:
        lat = store.lattice(m)
        table = _kl_upper_table(lat)
        acc = ZERO
        for f in range(lat.size):
            acc = acc + table[f].shift(lat.ranks[f])
        assert acc == z_poly(m, "conv_def", lat), name


def test_kl_multiplicative_uh_not(small_corpus, store):
    # P is multiplicative over direct sums; uH is not
    pairs = [
        (uniform(1, 1), uniform(1, 2)),
        (uniform(2, 3), uniform(1, 2)),
        (uniform(2, 4), boolean(2)),
        (complete_graph(3), uniform(2, 3)),
    ]
    for a, b in pairs:
        s = a.direct_sum(b)
        assert kl_poly(s) == kl_poly(a) * kl_poly(b), (a, b)
    witness = uniform(1, 1).direct_sum(uniform(1, 2))
    assert chow_char_conv(witness) != chow_char_conv(uniform(1, 1)) * chow_char_conv(
        uniform(1, 2)
    )


def test_tau_nonnegative(small_corpus, store):
    for name, m, _ in small_corpus:
        assert tau(m, store.lattice(m)) >= 0, name


# -- reports ---------------------------------------------------------------------------------------


def test_invariant_report_methods_and_agreement():
    r = invariant_report(uniform(4, 8), "chow")
    assert r.agree
    assert set(r.results) == {
        "chains",
        "char_conv",
        "intrinsic",
        "incidence_inv",
        "semismall",
        "uniform_closed",
        "paving",
    }
    r = invariant_report(complete_graph(4), "chow", braid_n=4)
    assert r.agree and "braid_closed" in r.results
    r = invariant_report(uniform(3, 4).add_coloop(), "augchow")
    assert r.agree and "coloop_closed" in r.results
    r = invariant_report(complete_graph(5), "kl")
    assert r.agree and "bv_deletion" not in r.results  # 10 elements > limit
    data = r.to_json()
    assert data["schema"] == "1" and data["agree"] is True


def test_applicable_methods_respects_kind():
    with pytest.raises(ValueError):
        applicable_methods(uniform(2, 4), "nope")
    with pytest.raises(ValueError):
        invariant_report(uniform(2, 4), "chow", "epw")


# matroid -> kind -> applicable methods, in canonical order
APPLICABLE = {
    "uniform:4,8": {
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "semismall",
                 "uniform_closed", "paving"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "semismall", "uniform_closed", "paving"],
        "kl": ["epw", "intrinsic", "bv_deletion", "uniform_fast"],
        "z": ["conv_def", "bv_deletion"],
    },
    "uniform+coloop:3,4": {
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "semismall", "paving"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "semismall", "paving", "coloop_closed"],
        "kl": ["epw", "intrinsic", "bv_deletion"],
        "z": ["conv_def", "bv_deletion"],
    },
    "braid:4": {
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "semismall", "paving",
                 "braid_closed"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "semismall", "paving"],
        "kl": ["epw", "intrinsic", "bv_deletion"],
        "z": ["conv_def", "bv_deletion"],
    },
    "vamos": {
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "semismall", "paving"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "semismall", "paving"],
        "kl": ["epw", "intrinsic", "bv_deletion"],
        "z": ["conv_def", "bv_deletion"],
    },
    "boolean:10": {
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "uniform_closed",
                 "paving"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "uniform_closed", "paving", "coloop_closed"],
        "kl": ["epw", "intrinsic", "uniform_fast"],
        "z": ["conv_def"],
    },
    "loopy": {
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "semismall"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "semismall"],
        "kl": ["epw", "intrinsic", "bv_deletion"],
        "z": ["conv_def", "bv_deletion"],
    },
}


def _pinned_matroids():
    return {
        "uniform:4,8": (uniform(4, 8), None),
        "uniform+coloop:3,4": (uniform(3, 4).add_coloop(), None),
        "braid:4": (complete_graph(4), 4),
        "vamos": (vamos(), None),
        "boolean:10": (boolean(10), None),
        "loopy": (uniform(3, 5).direct_sum(uniform(0, 1)), None),
    }


def test_applicable_methods_pinned():
    for name, (m, braid_n) in _pinned_matroids().items():
        for kind, methods in APPLICABLE[name].items():
            assert applicable_methods(m, kind, braid_n) == methods, (name, kind)


def test_non_applicable_methods_raise():
    needs = {
        "uniform_closed": "uniform_closed needs a uniform matroid",
        "uniform_fast": "uniform_fast needs a uniform matroid",
        "braid_closed": "braid_closed needs the number of vertices",
        "coloop_closed": "coloop_closed needs a uniform matroid plus a coloop",
    }
    raised = set()
    for name, (m, braid_n) in _pinned_matroids().items():
        for kind, methods in APPLICABLE[name].items():
            for method in KINDS[kind]:
                if method in methods or method not in needs:
                    continue
                if name == "loopy" and method == "uniform_fast":
                    continue  # P vanishes with loops, before any check
                with pytest.raises(ValueError) as info:
                    compute_invariant(m, kind, method, braid_n)
                assert str(info.value) == needs[method], (name, kind, method)
                raised.add(method)
    assert raised == set(needs)
    # the paving engines and uniform_fast still answer for a matroid with loops
    m = uniform(3, 5).direct_sum(uniform(0, 1))
    assert compute_invariant(m, "chow", "paving") == ZERO
    assert compute_invariant(m, "augchow", "paving") == Poly([1, 16, 16, 1])
    assert compute_invariant(m, "kl", "uniform_fast") == ZERO
    assert compute_invariant(uniform(0, 2).add_coloop(), "kl", "uniform_fast") == ZERO
    with pytest.raises(ValueError, match="not paving"):
        compute_invariant(uniform(2, 3).direct_sum(uniform(2, 3)), "chow", "paving")


@pytest.fixture
def lattice_builds(monkeypatch):
    """The matroid of every `FlatsLattice` built while the test runs."""
    builds = []
    init = poset.FlatsLattice.__init__

    def counting_init(self, matroid):
        builds.append(matroid)
        init(self, matroid)

    monkeypatch.setattr(poset.FlatsLattice, "__init__", counting_init)
    return builds


def test_invariant_report_builds_one_lattice_with_loops(lattice_builds):
    m = uniform(3, 9).direct_sum(uniform(0, 1))
    r = invariant_report(m, "augchow")
    assert r.agree and len(r.results) == 6
    assert lattice_builds == [uniform(3, 9)]
    lattice_builds.clear()
    assert invariant_report(m, "chow").results["char_conv"] == ZERO
    assert lattice_builds == []  # uH vanishes with loops: no lattice needed


def test_unknown_kind_or_method_one_message(lattice_builds):
    # the report and the dispatcher share one check, run before any lattice
    m = uniform(2, 4)
    for kind, method in (("nope", "all"), ("nope", "chains"), ("chow", "foo"), ("z", "epw")):
        messages = []
        for entry in (invariant_report, compute_invariant):
            with pytest.raises(ValueError) as err:
                entry(m, kind, method)
            messages.append(str(err.value))
        assert messages[0] == messages[1], (kind, method, messages)
    assert lattice_builds == []


def test_degree_and_symmetry_contracts(small_corpus, store):
    from matroid_invariants.poly import is_palindromic

    for name, m, _ in small_corpus:
        k = m.rank
        if k == 0:
            continue
        lat = store.lattice(m)
        uh = chow_char_conv(m, lat)
        h = aug_chow_contraction_conv(m, lat)
        z = z_poly(m, "conv_def", lat)
        p = kl_poly(m, "epw", lat)
        assert uh.degree == k - 1 and is_palindromic(uh, k - 1), name
        assert h.degree == k and is_palindromic(h, k), name
        assert z.degree == k and is_palindromic(z, k), name
        assert 2 * p.degree < k, name
        assert uh.coeff(0) == h.coeff(0) == z.coeff(0) == p.coeff(0) == 1, name


def test_invariant_report_timeout():
    with pytest.raises(TimeoutError):
        invariant_report(uniform(3, 6), "chow", deadline=0.0)


def test_interval_chibar_is_minor_chibar(store):
    from matroid_invariants.poset import reduced_char_poly

    m = uniform(3, 6)
    lat = store.lattice(m)
    for fid in range(lat.size):
        fmask = lat.flats[fid]
        assert interval_chibar(lat, lat.bottom, fid) == reduced_char_poly(
            m.restrict(fmask)
        ), fid
        assert interval_chibar(lat, fid, lat.top) == reduced_char_poly(
            m.contract(fmask)
        ), fid
