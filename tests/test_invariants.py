import random
from itertools import combinations
from math import comb

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
    palindromic_decompose,
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

# public per-method name -> the (kind, method) it runs through compute_invariant
PUBLIC_METHODS = {
    chow_chains: ("chow", "chains"),
    chow_char_conv: ("chow", "char_conv"),
    chow_intrinsic: ("chow", "intrinsic"),
    chow_incidence_inv: ("chow", "incidence_inv"),
    chow_semismall: ("chow", "semismall"),
    chow_of_paving: ("chow", "paving"),
    aug_chow_chains: ("augchow", "chains"),
    aug_chow_contraction_conv: ("augchow", "contraction_conv"),
    aug_chow_alt_conv: ("augchow", "alt_conv"),
    aug_chow_mobius_conv: ("augchow", "mobius_conv"),
    aug_chow_intrinsic: ("augchow", "intrinsic"),
    aug_chow_incidence_inv: ("augchow", "incidence_inv"),
    aug_chow_semismall: ("augchow", "semismall"),
    aug_chow_of_paving: ("augchow", "paving"),
    kl_bv_deletion: ("kl", "bv_deletion"),
    z_bv_deletion: ("z", "bv_deletion"),
}


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
        values = {compute_invariant(m, "augchow", method) for method in applicable_methods(m, "augchow")}
        assert len(values) == 1, m
    assert aug_chow_mobius_conv(uniform(4, 5)) == Poly([1, 26, 66, 26, 1])
    assert aug_chow_contraction_conv(empty_matroid()) == ONE
    assert aug_chow_alt_conv(boolean(3)) == Poly([1, 7, 7, 1])


# -- semismall -------------------------------------------------------------------------


def test_semismall_hand_run_rank4():
    # U(4,5) with i = 0: M - 0 is free on 4 elements, uH = A_4 = 1 + 11x + 11x^2 + x^3.
    # The nonempty flats F avoiding 0 with F + 0 a flat are the 4 points and
    # the 6 pairs (a triple plus 0 spans E).  A point leaves M/(F+0) of rank 2
    # and M|F of rank 1, a pair the reverse, so each term is (1 + x) * 1 and
    # uH = A_4 + 10x(1 + x) = 1 + 21x + 21x^2 + x^3
    key = invariants._flat_key(lattice_of_flats(uniform(4, 5)))
    free = invariants._flat_key(lattice_of_flats(boolean(4)))
    assert invariants._delete(key, 0) == free
    assert eulerian(4) == Poly([1, 11, 11, 1])
    assert invariants._semismall(free, False, ({}, {})) == eulerian(4)
    families = invariants._s_families(key, 0)
    points = [(1, 1 << j) for j in range(1, 5)]
    pairs = [(2, 1 << a | 1 << b) for a, b in combinations(range(1, 5), 2)]
    assert sorted(families) == sorted([(0, 0)] + points + pairs)
    levels = key[1]
    for r, f in points + pairs:
        con = invariants._low_minor(levels, f | 1, r + 2, 3 - r, True)[0]
        res = invariants._low_minor(levels, f, 1, r, False)[0]
        assert con * res == ONE + X, f
    assert chow_semismall(uniform(4, 5)) == chow_uniform(4, 5) == Poly([1, 21, 21, 1])


def test_semismall_boolean_coloop_route():
    for n in range(7):
        assert chow_semismall(boolean(n)) == eulerian(n), n
        assert aug_chow_semismall(boolean(n)) == binomial_eulerian(n), n


def test_free_semismall_is_eulerian():
    # the coloop variant on sizes alone, past every key the recursions build
    for n in range(13):
        assert invariants._free_semismall(n, False) == eulerian(n), n
        assert invariants._free_semismall(n, True) == binomial_eulerian(n), n


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


def _add_parallel(m, e):
    """m plus a new last element parallel to e."""
    n = m.n
    copies = [b ^ (1 << e) | (1 << n) for b in m.bases if b >> e & 1]
    return Matroid(n + 1, sorted(set(m.bases) | set(copies)))


def _with_parallel_classes():
    """U(2,3) ... U(4,6) with copies parallel to one, two and three of
    their last elements, so their minors of rank <= 3 can have fewer atoms
    than elements.  The recursions delete the least element first, and a
    parallel class goes as soon as one of its elements is deleted."""
    out = []
    for k, n in ((2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)):
        m = uniform(k, n)
        for e in range(3):
            m = _add_parallel(m, n - 1 - e)
            out.append(m)
    return out


def test_deletion_engines_match_lattice_engines():
    # symmetric families, then inputs with little symmetry: sparse paving
    # and graphic matroids past DELETION_ENGINE_LIMIT, the Tutte pair and
    # matroids with parallel classes
    rng = random.Random(11)
    ms = [complete_graph(5), complete_graph(6), uniform(4, 9), uniform(5, 10),
          uniform(6, 12), boolean(6), boolean(9), uniform(7, 8)]
    ms += [random_sparse_paving(rng, 11, 5, 20) for _ in range(2)]
    ms += [random_graphic(rng, 7, 12), *equal_tutte_pair(), *_with_parallel_classes()]
    for m in ms:
        lat = lattice_of_flats(m)
        values = [engine(m, lat) for engine in DELETION_ENGINES]
        assert values == _lattice_engine_values(m, lat), m


def test_deletion_recursions_build_no_key_of_rank_at_most_4(monkeypatch):
    rng = random.Random(9)
    # uniform(7, 9) has restrictions of rank 5, uniform(6, 9) contractions of
    # rank 5; boolean(6) and boolean(7) are free, so they build no key at all
    ms = (vamos(), uniform(4, 9), complete_graph(5), boolean(6), boolean(7),
          random_sparse_paving(rng, 9, 4, 12), random_sparse_paving(rng, 9, 5, 12),
          uniform(5, 8), uniform(6, 9), uniform(7, 9))
    lats = [lattice_of_flats(m) for m in ms]
    ranks = {}
    for name in ("_contract", "_restrict", "_delete"):
        def spy(*args, _name=name, _build=getattr(invariants, name)):
            key = _build(*args)
            ranks.setdefault(_name, []).append(len(key[1]) - 1)
            return key

        monkeypatch.setattr(invariants, name, spy)
    for m, lat in zip(ms, lats):
        values = [engine(m, lat) for engine in DELETION_ENGINES]
        assert values == _lattice_engine_values(m, lat), m
    assert sorted(ranks) == ["_contract", "_delete", "_restrict"]
    assert {name: min(rs) for name, rs in ranks.items()} == dict.fromkeys(ranks, 5)


def _key_counts(levels, k):
    """(a, l, h, s, t) of a loopless flat-set key of rank k <= 4: its flats
    of ranks 1, 2, 3, then its pairs (atom inside a rank-3 flat) and (atom
    inside a rank-2 flat), by subset tests."""
    def pairs(r):
        return sum(not atom & ~g for atom in levels[1] for g in levels[r]) if r < k else 0

    return (*(len(levels[r]) if r < k else 0 for r in (1, 2, 3)), pairs(3), pairs(2))


def _rank4_stress(corpus):
    # every loopless rank-4 matroid of the corpus, seeded rank-4 sparse
    # paving and graphic matroids and matroids with parallel classes
    rng = random.Random(13)
    ms = [m for _, m, _ in corpus if m.rank == 4 and m.is_loopless()]
    ms += [random_sparse_paving(rng, n, 4, 12) for n in (6, 7, 8, 9) for _ in range(3)]
    ms += [m for m in (random_graphic(rng, 5, e) for e in (5, 6, 7, 8, 9) for _ in range(2)) if m.rank == 4]
    return ms + [m for m in _with_parallel_classes() if m.rank == 4]


def test_low_rank_closed_forms(corpus):
    # rank 3: every loopless rank-3 matroid of the corpus, seeded rank-3
    # sparse paving matroids and matroids with parallel classes; rank 4 the same
    rng = random.Random(13)
    ms = [m for _, m, _ in corpus if m.rank == 3 and m.is_loopless()]
    ms += [random_sparse_paving(rng, n, 3, 12) for n in (5, 6, 7, 8, 9) for _ in range(2)]
    ms += [m for m in _with_parallel_classes() if m.rank == 3]
    rank4 = _rank4_stress(corpus)
    assert len(ms) >= 30 and len(rank4) >= 30
    for m in ms + rank4:
        lat = lattice_of_flats(m)
        counts = _key_counts(invariants._flat_key(lat)[1], m.rank)
        assert list(invariants._low_rank(m.rank, *counts)) == _lattice_engine_values(m, lat), m
    # the free matroid on 4 elements: every subset is a flat
    assert invariants._low_rank(4, 4, 6, 4, 12, 12)[:2] == (eulerian(4), binomial_eulerian(4))


def test_low_minor_reads_the_key_counts(corpus):
    # the counts of a minor of rank <= 4, read off its parent's key, give
    # the values of the key that `_contract` or `_restrict` would build; a
    # contraction is read for uH and P only, and with uh true for uH only
    for m in _minor_stress(corpus) + _rank4_stress(corpus):
        lat = lattice_of_flats(m)
        key = invariants._flat_key(lat)
        for f, r in zip(lat.flats, lat.ranks):
            for up, c, lo, build in ((True, m.rank - r, r + 1, invariants._contract),
                                     (False, r, 1, invariants._restrict)):
                if c <= 4:
                    expected = invariants._low_rank(c, *_key_counts(build(key, f, r)[1], c))
                    got = invariants._low_minor(key[1], f, lo, c, up)
                    if up:
                        assert (got[0], got[2]) == (expected[0], expected[2]), (m, f, up)
                    else:
                        assert got == expected, (m, f, up)
                    assert invariants._low_minor(key[1], f, lo, c, up, True)[0] == expected[0]


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
    # given the lattice, the recursions read every minor off its flats
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


# -- closed forms against a table with one entry per rank --------------------------------------
#
# When every upper interval at rank p is alike and a flat of rank p lies below
# counts(p, b) flats of rank b, `chow_table` and `kl_table` hold one entry per
# rank.  Written out that way, they reach the closed forms far past any lattice.


def _rank_table(k, counts, finish):
    """t[p] for p = k, ..., 0: t[k] = 1, and t[p] is finish(S, k - p) for
    S = sum_{b > p} counts(p, b) x^(b - p) t[b]."""
    t = [ONE] * (k + 1)
    for p in range(k - 1, -1, -1):
        s = sum((counts(p, b) * t[b].shift(b - p) for b in range(p + 1, k + 1)), ZERO)
        t[p] = finish(s, k - p)
    return t


def _chow_finish(s, rho):
    return -palindromic_decompose(s)[1]


def _kl_finish(s, rho):
    return Poly([s.coeff(rho - j) - s.coeff(j) for j in range((rho + 1) // 2)])


def _stirling_rows(n):
    """S(a, j) for a <= n, by S(a, j) = j S(a - 1, j) + S(a - 1, j - 1)."""
    rows = [[1]]
    for a in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, a + 1)])
    return rows


def test_chow_braid_against_rank_table():
    # Pi_n has rank n - 1, its upper interval at rank p is Pi_(n-p), and a
    # flat of rank p lies below S(n - p, n - b) flats of rank b
    stirling = _stirling_rows(20)
    for n in range(1, 21):
        t = _rank_table(n - 1, lambda p, b: stirling[n - p][n - b], _chow_finish)
        assert chow_braid(n) == t[0], n


def _uniform_by_rank_table(k, n, finish):
    """(t[0], sum_{r<k} C(n, r) x^r t[r] + x^k) for U(k, n): a flat of rank
    r < k lies below C(n - r, b - r) flats of rank b < k, and below E."""
    t = _rank_table(k, lambda r, b: comb(n - r, b - r) if b < k else 1, finish)
    return t[0], sum((comb(n, r) * t[r].shift(r) for r in range(k)), ONE.shift(k))


def test_uniform_closed_forms_against_rank_table():
    for n in range(1, 17):
        for k in range(1, n + 1):
            uh, h = _uniform_by_rank_table(k, n, _chow_finish)
            assert (chow_uniform(k, n), aug_chow_uniform(k, n)) == (uh, h), (k, n)
            p, z = _uniform_by_rank_table(k, n, _kl_finish)
            assert (kl_uniform(k, n), z_uniform(k, n)) == (p, z), (k, n)
    for k, n in ((23, 24), (12, 24), (10, 20)):
        assert (kl_uniform(k, n), z_uniform(k, n)) == _uniform_by_rank_table(k, n, _kl_finish), (k, n)


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
    # uH and P are 0 with loops, closed forms and methods that do not apply
    # included; every applicable H and Z method answers for the loopless core
    cases = (
        (uniform(0, 3), ONE, ONE),
        (uniform(0, 2).add_coloop(), Poly([1, 1]), Poly([1, 1])),
        (uniform(3, 5).direct_sum(uniform(0, 1)), aug_chow_uniform(3, 5), z_uniform(3, 5)),
    )
    for m, h, z in cases:
        core = m.delete(m.loops())
        assert core.is_loopless() and core.n < m.n
        want = {"augchow": h, "z": z}
        for kind, methods in KINDS.items():
            applicable = applicable_methods(m, kind)
            assert applicable == applicable_methods(core, kind), (m, kind)
            if kind not in want:  # uH and P: every method, braid_closed without braid_n too
                for method in methods:
                    assert compute_invariant(m, kind, method) == ZERO, (m, kind, method)
                continue
            for method in applicable:
                got = compute_invariant(m, kind, method)
                assert got == compute_invariant(core, kind, method) == want[kind], (m, kind, method)


def test_closed_forms_answer_for_the_loopless_core():
    m = uniform(1, 4).direct_sum(uniform(0, 1))
    assert compute_invariant(m, "augchow", "uniform_closed") == aug_chow_uniform(1, 4)
    assert compute_invariant(m, "augchow", "paving") == aug_chow_uniform(1, 4)
    # a chow closed form returns 0 with loops instead of raising
    assert compute_invariant(uniform(3, 5).direct_sum(uniform(0, 1)), "chow", "uniform_closed") == ZERO


def test_public_method_names_run_their_registry_entry(small_corpus, store, monkeypatch):
    calls = []
    run = invariants.compute_invariant

    def recording(m, kind, method, braid_n=None, lattice=None):
        calls.append((kind, method))
        return run(m, kind, method, braid_n, lattice)

    monkeypatch.setattr(invariants, "compute_invariant", recording)
    checked = set()
    for name, m, braid_n in small_corpus:
        lat = store.lattice(m)
        for f, (kind, method) in PUBLIC_METHODS.items():
            if method not in applicable_methods(m, kind, braid_n):
                continue
            want = run(m, kind, method, braid_n, lat)
            calls.clear()
            got = f(m) if method == "paving" else f(m, lat)
            assert got == want and calls == [(kind, method)], (name, f.__name__, calls)
            checked.add(f)
    assert checked == set(PUBLIC_METHODS)


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
    "loopy": {  # the tests see the loopless core U(3,5)
        "chow": ["chains", "char_conv", "intrinsic", "incidence_inv", "semismall",
                 "uniform_closed", "paving"],
        "augchow": ["chains", "contraction_conv", "alt_conv", "mobius_conv", "intrinsic",
                    "incidence_inv", "semismall", "uniform_closed", "paving"],
        "kl": ["epw", "intrinsic", "bv_deletion", "uniform_fast"],
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
                if name == "loopy" and kind in ("chow", "kl"):
                    continue  # uH and P vanish with loops, before any check
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
    assert r.agree and len(r.results) == 9  # semismall is listed on the 9-element core
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
