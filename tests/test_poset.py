import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from matroid_invariants import invariants, poset
from matroid_invariants.matroid import (
    Matroid,
    boolean,
    complete_graph,
    empty_matroid,
    equal_tutte_pair,
    mask_of,
    set_of,
    uniform,
    vamos,
)
from matroid_invariants.poly import ONE, Poly, X, ZERO, eulerian, ones
from matroid_invariants.poset import (
    GradedPoset,
    bergman_f_h,
    char_poly,
    interval_char_poly,
    interval_chibar,
    kls_H_general,
    kls_P_general,
    kls_uH_general,
    kls_Z_general,
    lattice_of_flats,
    mobius,
    reduced_char_poly,
    whitney_numbers,
)

COUNTEREXAMPLE = {
    "rank": [0, 1, 2, 2, 3, 3, 4, 4, 5],
    "covers": [[0, 1], [1, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6, 8], [7, 8]],
}


def brute_mobius_matrix(p):
    """Independent oracle: invert the zeta matrix over the rationals by
    Gauss-Jordan elimination.  Entries stay ints while every pivot is 1,
    as it always is when ids follow rank; a row is turned into Fractions
    only to divide it by another pivot."""
    m = p.size
    zeta = [[1 if p.leq(i, j) else 0 for j in range(m)] for i in range(m)]
    inv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if zeta[r][col])
        zeta[col], zeta[pivot] = zeta[pivot], zeta[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = zeta[col][col]
        if scale != 1:
            zeta[col] = [Fraction(v) / scale for v in zeta[col]]
            inv[col] = [Fraction(v) / scale for v in inv[col]]
        for r in range(m):
            if r != col and zeta[r][col]:
                f = zeta[r][col]
                zeta[r] = [a - f * b for a, b in zip(zeta[r], zeta[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return inv


def chain_poset(length):
    return GradedPoset(list(range(length + 1)), [[i, i + 1] for i in range(length)])


def brute_chow_on_poset(ranks, leq_pairs, top):
    """Independent recursion: rebuild every upper interval as its own poset
    and recurse, with no shared tables."""
    from matroid_invariants.poly import palindromic_decompose

    def upper(z):
        return sorted(j for j in range(len(ranks)) if (z, j) in leq_pairs and j != z)

    def uh(z):
        if z == top:
            return ONE
        s = ZERO
        for f in upper(z):
            s = s + uh(f).shift(ranks[f] - ranks[z])
        return -palindromic_decompose(s)[1]

    return uh


def scan_rank(m, a):
    """Textbook rank, kept as an oracle: the largest intersection of A with
    a basis."""
    return max((a & b).bit_count() for b in m.bases)


def scan_closure(m, a):
    """Textbook closure, kept as an oracle: an element lies outside cl(A)
    iff some basis meeting A in rk(A) elements contains it."""
    r = scan_rank(m, a)
    outside = 0
    for b in m.bases:
        if (a & b).bit_count() == r:
            outside |= b
    return a | (m.full_mask & ~outside)


def reference_lattice(m):
    """Literal build, kept as an oracle: one basis-scan closure per element
    outside each flat, ranks from the basis scan, and `above` by a subset
    test over all flats.  Returns (flats, ranks, by_rank, above) in
    `FlatsLattice` form."""
    by_rank = [[0]]
    seen = {0}
    for r in range(m.rank):
        nxt = set()
        for f in by_rank[r]:
            for e in range(m.n):
                if not f >> e & 1:
                    g = scan_closure(m, f | 1 << e)
                    if g not in seen:
                        seen.add(g)
                        nxt.add(g)
        by_rank.append(sorted(nxt))
    flats = [f for flats_r in by_rank for f in flats_r]
    index = {f: i for i, f in enumerate(flats)}
    ranks = [scan_rank(m, f) for f in flats]
    by_rank_ids = [[index[f] for f in flats_r] for flats_r in by_rank]
    above = [
        [j for j in range(len(flats)) if j != i and flats[j] & f == f]
        for i, f in enumerate(flats)
    ]
    return flats, ranks, by_rank_ids, above


def random_sparse_paving(rng, n, k, tries):
    """Random circuit-hyperplanes (k-sets pairwise meeting in at most k - 2
    elements) removed from the k-subsets of [n]."""
    chosen = []
    for _ in range(tries):
        c = mask_of(rng.sample(range(n), k))
        if all((c & d).bit_count() <= k - 2 for d in chosen):
            chosen.append(c)
    dead = set(chosen)
    bases = [mask_of(s) for s in combinations(range(n), k) if mask_of(s) not in dead]
    return Matroid(n, bases, validate=False)


def random_graphic(rng, vertices, edges):
    """Graphic matroid of a random simple graph: bases are the spanning
    forests of maximum size."""
    pairs = rng.sample(list(combinations(range(vertices), 2)), edges)

    def forest_size(subset):
        parent = list(range(vertices))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        size = 0
        for i in subset:
            ru, rv = find(pairs[i][0]), find(pairs[i][1])
            if ru != rv:
                parent[ru] = rv
                size += 1
        return size

    r = forest_size(range(edges))
    bases = [mask_of(t) for t in combinations(range(edges), r) if forest_size(t) == r]
    return Matroid(edges, bases, validate=False)


def stress_matroids():
    rng = random.Random(20221206)
    out = [("sparse-paving-%d" % i, random_sparse_paving(rng, n, k, 12))
           for i, (n, k) in enumerate([(7, 3), (8, 4), (9, 4), (9, 5), (10, 4)])]
    out += [("graphic-%d" % i, random_graphic(rng, v, e))
            for i, (v, e) in enumerate([(5, 7), (6, 9), (6, 11), (7, 10), (7, 13)])]
    m1, m2 = equal_tutte_pair()
    out += [("tutte-pair-1", m1), ("tutte-pair-2", m2), ("braid:5", complete_graph(5))]
    return out


# -- lattice construction ----------------------------------------------------------


def test_lattice_sizes():
    assert lattice_of_flats(uniform(4, 8)).size == 94
    assert lattice_of_flats(boolean(5)).size == 32
    assert lattice_of_flats(complete_graph(4)).size == 15  # Bell(4)
    assert lattice_of_flats(complete_graph(6)).size == 203  # Bell(6)
    assert lattice_of_flats(complete_graph(7)).size == 877  # Bell(7)


def test_lattice_matches_reference_build(small_corpus):
    cases = [(name, m) for name, m, _ in small_corpus] + stress_matroids()
    cases += [("lattice-large-%d" % i, m) for i, m in enumerate(lattice_large_shapes())]
    # the build has its own paths for rank 0 (no search), rank 1 (the bottom
    # is the one hyperplane) and rank 2 (one search level)
    assert {m.rank for _, m in cases} >= {0, 1, 2, 3}
    for name, m in cases:
        lat = lattice_of_flats(m)
        flats, ranks, by_rank, above = reference_lattice(m)
        assert list(lat.flats) == flats, name
        assert list(lat.ranks) == ranks, name
        assert lat.by_rank == by_rank, name
        assert lat.above == above, name  # same lists, same order
        for i in range(lat.size):
            ups = mask_of(j for j in range(lat.size) if lat.down_mask[j] >> i & 1)
            assert ups == mask_of(above[i]), (name, i)
            assert mask_of(j for j in range(lat.size) if j != i and lat.leq(i, j)) == ups, (name, i)
            assert lat.down_mask[i] == mask_of(j for j in range(lat.size) if i in above[j]), (name, i)


def test_lattice_is_the_graded_poset_of_its_covers(small_corpus):
    cases = [(name, m) for name, m, _ in small_corpus] + stress_matroids()
    for name, m in cases:
        lat = lattice_of_flats(m)
        again = GradedPoset.from_json(lat.to_json())
        assert again.ranks == lat.ranks, name
        assert again.order == lat.order, name
        assert all(again.leq(i, j) == lat.leq(i, j) for i in range(lat.size) for j in range(lat.size)), name
        assert again.down_mask == lat.down_mask, name
        assert again.above == lat.above, name
        assert (again.bottom, again.top) == (lat.bottom, lat.top), name
        flats = lat.flats
        for i, f in enumerate(flats):
            for j, g in enumerate(flats):
                # reference: containment of flats
                assert lat.leq(i, j) == (f & g == f), (name, i, j)


def lattice_large_shapes():
    """Matroids of the two shapes the benchmark's lattice-large workload
    uses: sparse paving with n = 11, k = 5 and 20 circuit-hyperplanes, and
    the cycle matroid of a graph with 7 vertices and 12 edges."""
    rng = random.Random(1112)
    chosen = []
    while len(chosen) < 20:
        c = mask_of(rng.sample(range(11), 5))
        if all((c & d).bit_count() <= 3 for d in chosen):
            chosen.append(c)
    bases = [mask_of(s) for s in combinations(range(11), 5) if mask_of(s) not in chosen]
    return Matroid(11, bases, validate=False), random_graphic(rng, 7, 12)


def test_closure_and_rank_match_the_basis_scan(corpus):
    cases = [(name, m) for name, m, _ in corpus if m.n <= 10]
    cases += [
        ("loops+uniform:2,4", uniform(2, 4).direct_sum(uniform(0, 2))),
        ("loop+parallel", Matroid.from_bases(3, [{0}, {2}])),
        ("rank-0", uniform(0, 3)),
        ("n=0", empty_matroid()),
    ]
    assert {m.n for _, m in cases} >= {0, 10} and any(m.rank == 0 < m.n for _, m in cases)
    for name, m in cases:
        for a in range(1 << m.n):
            assert m.rank_of(a) == scan_rank(m, a), (name, a)
            assert m.closure(a) == scan_closure(m, a), (name, a)
    rng = random.Random(3000)
    for m in lattice_large_shapes():
        for _ in range(1500):
            a = rng.getrandbits(m.n) & rng.getrandbits(m.n)  # mostly below full rank
            assert m.rank_of(a) == scan_rank(m, a), (m, a)
            assert m.closure(a) == scan_closure(m, a), (m, a)


def test_closure_takes_the_span_of_a_covered_flat(corpus):
    # the span the build carries: with S_F the bases containing a basis I of
    # a flat F, S_F & cols[e] spans F + e for every e outside F.  I is drawn
    # at random among the bases of F, not grown greedily as `closure` does
    rng = random.Random(1806)
    cases = [(name, m) for name, m, _ in corpus if m.is_loopless()] + stress_matroids()
    assert {"graphic-K4", "braid:5", "vamos", "graphic-4", "sparse-paving-4"} <= {name for name, _ in cases}
    for name, m in cases:
        cols = m._columns()
        every = (1 << len(m.bases)) - 1
        lat = lattice_of_flats(m)
        for f, r in zip(lat.flats, lat.ranks):
            basis = rng.choice([b for b in m.bases if (b & f).bit_count() == r]) & f
            span = every
            for e in set_of(basis):
                span &= cols[e]
            for e in set_of(m.full_mask & ~f):
                g = f | 1 << e
                assert m.closure(g, span & cols[e]) == m.closure(g), (name, f, e)


def test_closure_within_the_uncovered_elements_matches_the_basis_scan(corpus):
    # the build's contract: for a flat F and e outside it, cl(F + e) lies in
    # F + e together with the elements of E - F - e that no cover of F found
    # before e holds, so the closure need test only those
    cases = [(name, m) for name, m, _ in corpus if m.n <= 10 and m.is_loopless()]
    cases += [("lattice-large-%d" % i, m) for i, m in enumerate(lattice_large_shapes())]
    assert {m.n for _, m in cases} >= {0, 10, 11, 12}
    for name, m in cases:
        lat = lattice_of_flats(m)
        for f in lat.flats:
            covered = 0  # the union of the covers of f found so far
            for e in set_of(m.full_mask & ~f):
                if covered >> e & 1:
                    continue
                within = m.full_mask & ~f & ~(1 << e) & ~covered
                g = m.closure(f | 1 << e, within=within)
                assert g == scan_closure(m, f | 1 << e), (name, f, e)
                covered |= g & ~f
            assert covered == m.full_mask & ~f, (name, f)
        for a in (0, m.full_mask, m.full_mask & 0b1011):
            assert m.closure(a, within=0) == a, (name, a)
    m = empty_matroid()
    assert m.closure(0, within=0) == 0 and m.closure(0, within=m.full_mask) == 0


def test_lattice_build_closes_each_cover_below_the_hyperplanes_once(small_corpus, monkeypatch):
    # the traced closure layer sees the whole cover search: one
    # `Matroid.closure` call per covering pair whose lower end is not a
    # hyperplane, each given a span and a `within` mask and agreeing with
    # the plain closure; every hyperplane's only cover is the top, found
    # with no closure call
    calls = []
    closure = Matroid.closure

    def traced(self, subset, span=None, within=None):
        calls.append((self, subset, span, within))
        return closure(self, subset, span, within)

    monkeypatch.setattr(Matroid, "closure", traced)
    cases = [(name, m) for name, m, _ in small_corpus] + stress_matroids()
    assert {m.rank for _, m in cases} >= {0, 1, 2, 3}
    for name, m in cases:
        calls.clear()
        lat = lattice_of_flats(m)
        hyperplanes = lat.by_rank[m.rank - 1] if m.rank else []
        assert len(calls) == len(lat.to_json()["covers"]) - len(hyperplanes), name
        for who, subset, span, within in calls:
            assert who is m and span is not None and within is not None, (name, subset)
            assert closure(m, subset, span, within) == closure(m, subset), (name, subset)
        for h in hyperplanes:
            assert [j for j in lat.above[h] if lat.ranks[j] == m.rank] == [lat.top], (name, h)


def test_lattice_requires_loopless():
    with pytest.raises(ValueError):
        lattice_of_flats(Matroid.from_bases(2, [{0}]))


# -- Moebius -----------------------------------------------------------------------


def test_mobius_values():
    lat = lattice_of_flats(complete_graph(4))
    assert mobius(lat, lat.bottom, lat.bottom) == 1
    atom = lat.by_rank[1][0]
    assert mobius(lat, lat.bottom, atom) == -1
    assert mobius(lat, lat.bottom, lat.top) == -6
    assert mobius(lat, atom, lat.bottom) == 0  # incomparable direction


def test_mobius_against_zeta_inverse():
    posets = [GradedPoset.from_json(COUNTEREXAMPLE)]
    posets += [lattice_of_flats(m) for m in (uniform(2, 4), complete_graph(4), boolean(3), vamos())]
    posets += [lattice_of_flats(m) for _, m in stress_matroids()[:2]]
    for p in posets:
        inv = brute_mobius_matrix(p)
        for i in range(p.size):
            for j in range(p.size):
                assert mobius(p, i, j) == inv[i][j], (p, i, j)
                if p.leq(i, j):
                    expect = [0] * (p.ranks[j] - p.ranks[i] + 1)
                    for z in range(p.size):
                        if p.leq(i, z) and p.leq(z, j):
                            expect[p.ranks[j] - p.ranks[z]] += int(inv[i][z])
                    assert interval_char_poly(p, i, j) == Poly(expect), (p, i, j)


def random_graded_poset_input(rng, length, width):
    """(ranks, covers) of a random bounded graded poset: levels of 1..width
    elements between a bottom and a top, each element covering a random
    nonempty set of the level below and covered by at least one element of
    the level above."""
    sizes = [1] + [rng.randint(1, width) for _ in range(length - 1)] + [1]
    ranks, levels = [], []
    for r, size in enumerate(sizes):
        levels.append(list(range(len(ranks), len(ranks) + size)))
        ranks += [r] * size
    covers = set()
    for lower, upper in zip(levels, levels[1:]):
        for hi in upper:
            for lo in rng.sample(lower, rng.randint(1, len(lower))):
                covers.add((lo, hi))
        for lo in lower:
            if not any((lo, hi) in covers for hi in upper):
                covers.add((lo, rng.choice(upper)))
    return ranks, sorted(covers)


def random_graded_poset_inputs():
    rng = random.Random(20240607)
    return [random_graded_poset_input(rng, length, width) for length in (1, 2, 3, 4, 5) for width in (1, 2, 4)]


def random_graded_posets():
    return [GradedPoset(ranks, covers) for ranks, covers in random_graded_poset_inputs()]


def relabelled(p, rng):
    """p with its ids renumbered by a random permutation perm (old id i
    becomes perm[i]) and its covers given in random order, one of them
    twice.  Returns the new poset and perm."""
    perm = list(range(p.size))
    rng.shuffle(perm)
    ranks = [0] * p.size
    for i, r in enumerate(p.ranks):
        ranks[perm[i]] = r
    covers = [(perm[lo], perm[hi]) for lo, hi in p.to_json()["covers"]]
    covers.append(covers[0])
    rng.shuffle(covers)
    return GradedPoset(ranks, covers), perm


def relabelled_cases():
    """(poset, relabelled copy, perm) for the random posets and the
    counterexample poset."""
    rng = random.Random(20261019)
    posets = random_graded_posets() + [GradedPoset.from_json(COUNTEREXAMPLE)]
    return [(p,) + relabelled(p, rng) for p in posets]


def test_random_posets_mobius_against_zeta_inverse():
    for p in random_graded_posets():
        inv = brute_mobius_matrix(p)
        for i in range(p.size):
            for j in range(p.size):
                assert mobius(p, i, j) == inv[i][j], (p, i, j)


def chi_from_mobius_matrix(p, inv, leq, x, y):
    """sum over x <= z <= y of inv[x][z] t^(rk y - rk z), with leq[i][j]
    the order relation."""
    coeffs = [0] * (p.ranks[y] - p.ranks[x] + 1)
    for z in range(p.size):
        if leq[x][z] and leq[z][y]:
            coeffs[p.ranks[y] - p.ranks[z]] += inv[x][z]
    return Poly(coeffs)


def test_interval_polynomials_agree_on_every_pair(small_corpus):
    posets = random_graded_posets() + [GradedPoset.from_json(COUNTEREXAMPLE)]
    posets += [q for _, q, _ in relabelled_cases()]
    posets += [lattice_of_flats(m) for _, m, _ in small_corpus]
    for p in posets:
        inv = brute_mobius_matrix(p)
        leq = [[p.leq(x, y) for y in range(p.size)] for x in range(p.size)]
        for x in range(p.size):
            for y in range(p.size):
                if not leq[x][y]:
                    assert mobius(p, x, y) == 0
                    for fn in (interval_char_poly, interval_chibar):
                        with pytest.raises(ValueError):
                            fn(p, x, y)
                    continue
                chi = interval_char_poly(p, x, y)
                assert chi == chi_from_mobius_matrix(p, inv, leq, x, y), (p, x, y)
                assert chi.coeff(0) == mobius(p, x, y), (p, x, y)
                assert chi.degree == p.ranks[y] - p.ranks[x] and chi.coeffs[-1] == 1
                if x == y:
                    assert interval_chibar(p, x, y) == Poly((-1,))
                else:
                    assert interval_chibar(p, x, y) * (X - ONE) == chi, (p, x, y)


def test_relabelled_posets_map_through_the_permutation():
    cases = relabelled_cases()
    # ids out of rank order, so the rank sorts in GradedPoset run
    assert sum(q.order != list(range(q.size)) for _, q, _ in cases) >= len(cases) // 2
    for p, q, perm in cases:
        assert (q.bottom, q.top) == (perm[p.bottom], perm[p.top])
        assert [q.ranks[perm[i]] for i in range(p.size)] == list(p.ranks)
        assert [q.ranks[i] for i in q.order] == sorted(q.ranks)
        for i in range(p.size):
            assert sorted(q.above[perm[i]]) == sorted(perm[j] for j in p.above[i]), (p, i)
        for i in range(q.size):
            assert q.above[i] == sorted(q.above[i], key=lambda j: (q.ranks[j], j)), (q, i)
        for x in range(p.size):
            for y in range(p.size):
                qx, qy = perm[x], perm[y]
                assert q.leq(qx, qy) == p.leq(x, y)
                assert mobius(q, qx, qy) == mobius(p, x, y), (p, x, y)
                for fn in (interval_char_poly, interval_chibar):
                    if p.leq(x, y):
                        assert fn(q, qx, qy) == fn(p, x, y), (fn, p, x, y)
                    else:
                        with pytest.raises(ValueError):
                            fn(q, qx, qy)
        for fn in (kls_uH_general, kls_H_general, kls_P_general, kls_Z_general):
            assert fn(q) == fn(p), (fn, p)
        # the cover given twice comes out once
        covers = sorted([perm[lo], perm[hi]] for lo, hi in p.to_json()["covers"])
        assert q.to_json()["covers"] == covers
        blob = json.dumps(q.to_json(), sort_keys=True)
        again = GradedPoset.from_json(json.loads(blob))
        assert json.dumps(again.to_json(), sort_keys=True) == blob
        assert (again.ranks, again.order, again.above) == (q.ranks, q.order, q.above)
        assert again.down_mask == q.down_mask
        assert all(again.leq(i, j) == q.leq(i, j) for i in range(q.size) for j in range(q.size))


def test_ids_outside_the_poset_are_named():
    p = GradedPoset([0, 1], [[0, 1]])
    queries = [p.leq] + [
        lambda x, y, fn=fn: fn(p, x, y) for fn in (interval_chibar, interval_char_poly, mobius)
    ]
    for bad in (7, -1):
        for query in queries:
            for pair in ((bad, bad), (0, bad), (bad, 0)):
                with pytest.raises(ValueError, match="^id %d is not" % bad):
                    query(*pair)
    # the same once the rows of every element are cached
    assert interval_chibar(p, 0, 1) == ONE and interval_char_poly(p, 1, 1) == ONE
    assert mobius(p, 1, 0) == 0
    for fn in (interval_chibar, interval_char_poly, mobius):
        with pytest.raises(ValueError, match="^id 2 is not"):
            fn(p, 0, 2)


def test_mobius_alternates_on_geometric_lattices(small_corpus, store):
    for name, m, _ in small_corpus:
        lat = store.lattice(m)
        for fid in range(lat.size):
            mu = mobius(lat, lat.bottom, fid)
            r = lat.ranks[fid]
            assert mu != 0 and (mu > 0) == (r % 2 == 0), (name, fid)


# -- characteristic polynomials -------------------------------------------------------


def test_reduced_char_poly_uniform_closed_form():
    for n in range(1, 8):
        for k in range(1, n + 1):
            expect = Poly(
                [(-1) ** j * comb(n - 1, j) for j in range(k)][::-1]
            )
            assert reduced_char_poly(uniform(k, n)) == expect, (k, n)


def test_reduced_char_poly_braid_product():
    for n in (3, 4, 5, 6):
        expect = ONE
        for c in range(2, n):
            expect = expect * (X - c)
        assert reduced_char_poly(complete_graph(n)) == expect, n


def test_char_poly_conventions():
    assert char_poly(Matroid.from_bases(2, [{0}])) == ZERO  # loops
    assert char_poly(empty_matroid()) == ONE
    assert reduced_char_poly(empty_matroid()) == Poly([-1])
    with pytest.raises(ValueError):
        reduced_char_poly(Matroid.from_bases(2, [{0}]))  # loops
    for m in (uniform(2, 4), boolean(3), complete_graph(4)):
        assert char_poly(m)(1) == 0


def test_contraction_telescoping(small_corpus, store):
    # sum over proper flats F of chibar of [F, top] is 1 + x + ... + x^(rk-1)
    for name, m, _ in small_corpus:
        if m.n == 0:
            continue
        lat = store.lattice(m)
        acc = ZERO
        for i in range(lat.size):
            if i != lat.top:
                acc = acc + interval_chibar(lat, i, lat.top)
        assert acc == ones(m.rank), name


def test_whitney_numbers():
    assert whitney_numbers(uniform(3, 5)) == Poly([1, 5, 10, 1])
    assert whitney_numbers(boolean(4)) == (ONE + X) ** 4
    assert whitney_numbers(complete_graph(4)) == Poly([1, 6, 7, 1])


def test_whitney_top_heavy(small_corpus, store):
    for name, m, _ in small_corpus:
        w = whitney_numbers(m, store.lattice(m))
        k = m.rank
        for i in range(k + 1):
            for j in range(i, k - i + 1):
                assert w.coeff(i) <= w.coeff(j), (name, i, j)


# -- Bergman complexes ------------------------------------------------------------------


def brenti_welker_h(k, n):
    acc = ZERO
    for j in range(k):
        acc = acc + comb(n, j) * eulerian(j) * (X - ONE) ** (k - 1 - j)
    return acc


def test_bergman_small_example():
    f, h = bergman_f_h(uniform(2, 3))
    assert f == Poly([3, 1])  # empty chain gives x, three vertices give 3
    assert h == Poly([2, 1])


def test_bergman_matches_closed_form():
    for n in range(1, 8):
        for k in range(1, n + 1):
            _, h = bergman_f_h(uniform(k, n))
            assert h == brenti_welker_h(k, n), (k, n)


def test_bergman_h_nonnegative(small_corpus, store):
    for name, m, _ in small_corpus:
        if m.rank < 1:
            continue
        _, h = bergman_f_h(m, store.lattice(m))
        assert all(c >= 0 for c in h.coeffs), name


def test_bergman_rejects_rank_zero():
    with pytest.raises(ValueError):
        bergman_f_h(empty_matroid())


# -- graded posets and the generic engines -----------------------------------------------


def test_graded_poset_validation():
    with pytest.raises(ValueError):
        GradedPoset([0, 2], [[0, 1]])  # cover jumps two ranks
    with pytest.raises(ValueError):
        GradedPoset([0, 1, 1], [[0, 1], [0, 2]])  # two maximal elements
    with pytest.raises(ValueError):
        GradedPoset([0, 0, 1], [[0, 2], [1, 2]])  # two minimal elements
    with pytest.raises(ValueError):
        GradedPoset([1, 2], [[0, 1]])  # bottom must have rank 0


def assert_order_is_the_closure(p, covers):
    """leq, above and down_mask of p against the transitive closure of the
    cover pairs p was built from."""
    leq = {(lo, hi) for lo, hi in covers}
    while True:  # transitive closure of the covers
        wider = leq | {(a, d) for a, b in leq for c, d in leq if b == c}
        if wider == leq:
            break
        leq = wider
    for i in range(p.size):
        assert mask_of(p.above[i]) == mask_of(j for j in range(p.size) if (i, j) in leq), (p, i)
        assert p.down_mask[i] == mask_of(j for j in range(p.size) if (j, i) in leq), (p, i)
        assert p.above[i] == sorted(
            (j for j in range(p.size) if (i, j) in leq), key=lambda j: (p.ranks[j], j)
        ), (p, i)
        for j in range(p.size):
            assert p.leq(i, j) == (i == j or (i, j) in leq), (p, i, j)


def test_graded_poset_order_masks():
    # the random posets, the counterexample poset and their relabelled
    # copies, whose ids do not follow rank
    inputs = random_graded_poset_inputs() + [(COUNTEREXAMPLE["rank"], COUNTEREXAMPLE["covers"])]
    for (ranks, covers), (p, q, perm) in zip(inputs, relabelled_cases(), strict=True):
        assert list(p.ranks) == ranks
        assert_order_is_the_closure(p, covers)
        assert_order_is_the_closure(q, [(perm[lo], perm[hi]) for lo, hi in covers])


def test_graded_poset_json_round_trip():
    p = GradedPoset.from_json(COUNTEREXAMPLE)
    blob = json.dumps(p.to_json(), sort_keys=True)
    again = GradedPoset.from_json(json.loads(blob))
    assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_counterexample_poset_values():
    p = GradedPoset.from_json(COUNTEREXAMPLE)
    assert kls_uH_general(p) == Poly([1, 7, 11, 7, 1])
    assert kls_H_general(p) == Poly([1, 8, 18, 18, 8, 1])


def test_single_point_poset():
    p = GradedPoset([0], [])
    assert kls_uH_general(p) == ONE
    assert kls_P_general(p) == ONE and kls_Z_general(p) == ONE


def test_chain_posets_against_brute_recursion():
    for length in range(0, 6):
        p = chain_poset(length)
        leq = {(i, j) for i in range(length + 1) for j in range(i, length + 1)}
        brute = brute_chow_on_poset(list(range(length + 1)), leq, length)
        assert kls_uH_general(p) == brute(0), length


def test_general_engines_specialize_to_lattices():
    for m in (uniform(2, 3), boolean(4), complete_graph(4)):
        lat = lattice_of_flats(m)
        assert kls_Z_general(lat).coeff(0) == 1
        assert kls_P_general(lat).coeff(0) == 1


def test_boolean_z_and_p():
    lat = lattice_of_flats(boolean(4))
    assert kls_Z_general(lat) == (ONE + X) ** 4
    assert kls_P_general(lat) == ONE
    lat23 = lattice_of_flats(uniform(2, 3))
    assert kls_Z_general(lat23) == Poly([1, 3, 1])
    assert kls_P_general(lat23) == ONE


def reference_interval_dp(p, name, upward, kernel, finish=None):
    """The interval DP as first written, kept as an oracle: one
    `enumerate` pair per nonzero weight coefficient, reading each
    finished entry's coefficients off the table."""
    table = [None] * p.size
    if upward:
        end, ids = p.top, reversed(p.order)
    else:
        end, ids = p.bottom, p.order
    for z in ids:
        if z == end:
            table[z] = ONE
            continue
        acc = []
        for w in (p.above[z] if upward else set_of(p.down_mask[z])):
            weight = kernel(z, w) if upward else kernel(w, z)
            value = table[w].coeffs
            need = len(weight) + len(value) - 1
            if need > len(acc):
                acc.extend([0] * (need - len(acc)))
            for i, a in enumerate(weight):
                if a:
                    for j, b in enumerate(value, i):
                        acc[j] += a * b
        table[z] = Poly(acc) if finish is None else finish(z, Poly(acc))
    return table


DP_TABLES = {
    "chains": lambda m, p: invariants._chain_table(p),
    "chow_upper": lambda m, p: invariants.chow_char_conv(m, p),
    "chow_table": lambda m, p: poset.chow_table(p),
    "chow_lower": lambda m, p: invariants.chow_incidence_inv(m, p),
    "aug_upper_mobius": lambda m, p: invariants.aug_chow_mobius_conv(m, p),
    "aug_lower_mobius": lambda m, p: invariants.aug_chow_incidence_inv(m, p),
    "kl_upper": lambda m, p: invariants._kl_upper_table(p),
    "kl_table": lambda m, p: poset.kl_table(p),
    "proper_chains": lambda m, p: bergman_f_h(m, p),
}


def test_interval_dp_matches_the_reference_loop(small_corpus, monkeypatch):
    seen = {}
    real = poset.interval_dp

    def recording(p, name, upward, kernel, finish=None, by_gap=False):
        seen[name] = (upward, kernel, finish)
        return real(p, name, upward, kernel, finish, by_gap)

    monkeypatch.setattr(poset, "interval_dp", recording)
    monkeypatch.setattr(invariants, "interval_dp", recording)
    cases = [(name, m, lattice_of_flats(m)) for name, m, _ in small_corpus if m.rank]
    cases += [(name, m, lattice_of_flats(m)) for name, m in stress_matroids()]
    for i, p in enumerate(random_graded_posets()):
        # the two engines that ask a matroid only whether it is loopless
        # and its rank
        stand_in = SimpleNamespace(is_loopless=lambda: True, rank=p.ranks[p.top])
        cases.append(("random-%d" % i, stand_in, p))
    for name, m, p in cases:
        seen.clear()
        for compute in DP_TABLES.values():
            compute(m, p)
        assert set(seen) == set(DP_TABLES), name
        for table, (upward, kernel, finish) in seen.items():
            expect = reference_interval_dp(p, table, upward, kernel, finish)
            assert p._cache[table] == expect, (name, table)


def _scaled_chibar_kernel(p, scale):
    """chibar([x, y]) scaled by `scale`, with each odd coefficient added
    back once, so the weights share no common factor."""
    return lambda x, y: tuple(scale * a + (a & 1) * a for a in interval_chibar(p, x, y).coeffs)


def _negate(z, s):
    return -s


def test_interval_dp_widens_for_large_coefficients(small_corpus):
    # entries of a few hundred to over a thousand bits: the packed width
    # must double from 64 bits at least four times to decode them
    posets = [lattice_of_flats(m) for _, m, _ in small_corpus if m.rank]
    posets += random_graded_posets()
    widest = 0
    for i, p in enumerate(posets):
        for scale in (2**70, -(2**130) + 7, 3**200):
            for upward in (True, False):
                name = "widen-%d-%s" % (scale.bit_length(), upward)
                kernel = _scaled_chibar_kernel(p, scale)
                got = poset.interval_dp(p, name, upward, kernel, _negate)
                assert got == reference_interval_dp(p, name, upward, kernel, _negate), (i, name)
                widest = max(widest, max(abs(c).bit_length() for v in got for c in v.coeffs))
    assert widest > 1000
    # each product fits in 63 bits, their sum over nine neighbours does
    # not: the bound must count the neighbours
    star = GradedPoset([0] + [1] * 8 + [2], [(0, a) for a in range(1, 9)] + [(a, 9) for a in range(1, 9)])
    def kernel(x, y):
        return (2**31 - 1,)

    got = poset.interval_dp(star, "edge", True, kernel)
    assert got == reference_interval_dp(star, "edge", True, kernel)
    assert got[0] == Poly([8 * (2**31 - 1) ** 2 + 2**31 - 1])


def test_packed_digits_round_trip_at_their_edge():
    rng = random.Random(20261020)
    for bits in (2, 8, 64, 65):
        edge = (1 << (bits - 1)) - 1  # the largest |coefficient| decoded exactly
        cases = [[], [0], [edge], [-edge], [0, 0, -edge], [edge, 0, 0, -edge, 0], [-edge, edge, -1]]
        for _ in range(40):
            length = rng.randint(1, 9)
            cases.append([rng.choice((0, edge, -edge, rng.randint(-edge, edge))) for _ in range(length)])
        for cs in cases:
            packed = poset._pack(cs, bits)
            assert packed == Poly(cs)(1 << bits), (bits, cs)
            assert poset._unpack(packed, bits) == list(Poly(cs).coeffs), (bits, cs)
        # one past the edge the signed digit wraps
        half = edge + 1
        assert poset._unpack(poset._pack([half], bits), bits) != [half]


def test_chow_table_finishes_once_per_rank(monkeypatch):
    # every upper interval of a boolean or uniform lattice at one rank is
    # the same lattice, so it has one sum and one finish per rank below
    # the top, whatever the number of flats
    calls = []
    real = poset.palindromic_decompose

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(poset, "palindromic_decompose", counted)
    for m, size, finishes in ((boolean(6), 64, 6), (uniform(3, 6), 23, 3)):
        p = lattice_of_flats(m)
        calls.clear()
        poset.chow_table(p)
        assert p.size == size and len(calls) == finishes, (m, len(calls))


def test_interval_dp_forgets_its_entries_when_it_widens():
    # the rank-1 element 2 is summed first, to t, packed at B = 64 as 2^64.
    # Element 1 then asks a weight of about 2^64, B doubles to 128, and its
    # sum is the constant 2^64: at B = 128 the same int.  Kept across the
    # widening, the entry of 2 would be read back for 1.
    p = GradedPoset(
        [0, 1, 1, 2, 2, 2, 3],
        [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 6), (4, 6), (5, 6)],
    )

    def kernel(x, y):
        # chi of a rank-2 interval with k atoms is (k - 1, -k, 1)
        chi = interval_char_poly(p, x, y).coeffs
        k = -chi[1] if len(chi) == 3 else None
        return {2: (-2, 1), 3: (2**64 - 3,)}.get(k, (1,))

    got = poset.interval_dp(p, "alias", True, kernel)
    assert got == reference_interval_dp(p, "alias", True, kernel)
    assert got[2] == X and got[1] == Poly([2**64])


def test_no_finish_tables_share_one_entry_per_rank_and_value(small_corpus):
    # without a finish an entry is its own sum, so elements of one rank
    # with equal entries hold one object
    shared = 0
    for name, m, _ in small_corpus:
        if not m.rank:
            continue
        p = lattice_of_flats(m)
        invariants.chow_char_conv(m, p)
        invariants.chow_incidence_inv(m, p)
        for table in ("chow_upper", "chow_lower"):
            objects = {}
            for r, v in zip(p.ranks, p._cache[table]):
                objects.setdefault((r, v), set()).add(id(v))
            assert all(len(ids) == 1 for ids in objects.values()), (name, table)
            shared += len(objects) < p.size
    assert shared  # elements really share entries


def test_sums_over_flats_add_each_distinct_term_once(small_corpus):
    # rank_sum, aug_chow_chains and aug_chow_alt_conv add one term per
    # distinct (rank, entry) times its count; against the sum flat by flat,
    # on the real tables and on planted ones with zero entries
    rng = random.Random(20261021)
    palette = [ZERO, ZERO, ONE, X, Poly([3, 0, -2])]
    zeros = 0
    for planted in (False, True):
        posets = [lattice_of_flats(m) for _, m, _ in small_corpus if m.rank]
        posets += random_graded_posets()
        for p in posets:
            if planted:
                for table in ("chains", "chow_upper"):
                    p._cache[table] = [rng.choice(palette) for _ in range(p.size)]
            chains, upper = invariants._chain_table(p), invariants._chow_upper_table(p)
            zeros += sum(not v for v in chains + upper)
            for table in (chains, upper):
                want = sum((v.shift(r) for r, v in zip(p.ranks, table)), ZERO)
                assert poset.rank_sum(p, table) == want, p
            lattice_only = SimpleNamespace()  # the two engines read only the lattice
            want = ONE + sum((ones(r).shift(1) * v for r, v in zip(p.ranks, chains) if r), ZERO)
            assert invariants.aug_chow_chains(lattice_only, p) == want, p
            want = ONE + sum((v for f, v in enumerate(upper) if f != p.top), ZERO).shift(1)
            assert invariants.aug_chow_alt_conv(lattice_only, p) == want, p
    assert zeros


def test_table_kernels_ask_the_traced_names_once_per_class(small_corpus, monkeypatch):
    # a kernel depends on an interval only through its chi class, so each
    # chi table asks its one traced name exactly once per distinct
    # chi([x, y]) with x < y, whatever the number of pairs
    counts = {}

    def count(module, name):
        real = getattr(module, name)
        key = "%s.%s" % (module.__name__.rsplit(".", 1)[1], name)

        def counted(*args):
            counts[key] = counts.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("interval_chibar", "interval_char_poly", "mobius"):
        count(poset, name)
        count(invariants, name)
    tables = {
        "chow_upper": ("invariants.interval_chibar", invariants.chow_char_conv),
        "chow_lower": ("invariants.interval_chibar", invariants.chow_incidence_inv),
        "kl_upper": ("invariants.interval_char_poly", lambda m, p: invariants._kl_upper_table(p)),
        "aug_upper_mobius": ("invariants.mobius", invariants.aug_chow_mobius_conv),
        "aug_lower_mobius": ("invariants.mobius", invariants.aug_chow_incidence_inv),
    }
    many = 0
    for name, m, _ in small_corpus:
        if not m.rank:
            continue
        p = lattice_of_flats(m)
        # a row lists the class of [x, y] for each y in above[x], in order
        cls = {(x, y): c for x in range(p.size) for y, c in zip(p.above[x], poset._chi_row(p, x))}
        classes = set(cls.values())
        pairs = sum(len(a) for a in p.above)
        many += len(classes) < pairs
        for table, (traced, build) in tables.items():
            counts.clear()
            build(m, p)
            assert table in p._cache
            assert counts == {traced: len(classes)}, (name, table)
        # any kernel, by chi class or by rank gap
        for by_gap in (False, True):
            for upward in (True, False):
                asked = []

                def kernel(x, y):
                    asked.append((x, y))
                    return (1,)

                poset.interval_dp(p, "count-%s-%s" % (by_gap, upward), upward, kernel, by_gap=by_gap)
                got = [p.ranks[y] - p.ranks[x] if by_gap else cls[x, y] for x, y in asked]
                want = {p.ranks[y] - p.ranks[x] for x in range(p.size) for y in p.above[x]}
                assert sorted(got) == sorted(want if by_gap else classes), (name, by_gap, upward)
    assert many  # pairs really share classes


def test_gap_tables_fill_no_chi_rows(small_corpus):
    # the rank-gap tables never read chi, so a run of only those leaves no
    # chi row behind
    for name, m, _ in small_corpus:
        if not m.rank or not m.is_loopless():
            continue
        p = lattice_of_flats(m)
        invariants.chow_chains(m, p)
        invariants.aug_chow_chains(m, p)
        kls_uH_general(p)
        kls_P_general(p)
        bergman_f_h(m, p)
        assert {"chains", "chow_table", "kl_table", "proper_chains"} <= set(p._cache), name
        assert not {"chi_rows", "chi_ids", "chi_polys"} & set(p._cache), name


# a graded poset that is not a lattice (the atoms 1 and 2 have two minimal
# upper bounds, 4 and 7) in which [0, 3] is a chain of length 2 (one atom,
# mu = 0) with [0, 5] of length 3 above it
CHAIN_INTERVALS = {
    "rank": [0, 1, 1, 2, 2, 3, 4, 2],
    "covers": [
        [0, 1], [0, 2], [1, 3], [1, 4], [2, 4], [1, 7], [2, 7],
        [3, 5], [4, 5], [7, 5], [5, 6],
    ],
}


def row_test_posets(small_corpus):
    """Lattices of the small corpus, random posets, their relabelled
    copies (ids out of rank order), `COUNTEREXAMPLE`, `CHAIN_INTERVALS`
    and the one-point poset, which has no interval with chi = t - 1."""
    posets = [lattice_of_flats(m) for _, m, _ in small_corpus if m.rank]
    posets += random_graded_posets() + [GradedPoset.from_json(COUNTEREXAMPLE)]
    posets += [q for _, q, _ in relabelled_cases()] + [GradedPoset([0], [])]
    posets.append(GradedPoset.from_json(CHAIN_INTERVALS))
    assert any(q.order != list(range(q.size)) for q in posets)
    return posets


def chi_row_mu_classes(p, x):
    """Fill the chi row of x and return the mu-classes `_chi_row` built for
    it, one dict (mu -> id mask) per rank gap, read off its frame as it
    returns."""
    code, seen = poset._chi_row.__code__, []

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_lines = False

        def on_return(frame, event, arg):
            if event == "return":
                seen.extend((frame.f_locals.get("classes") or [None])[1:])
            return on_return

        return on_return

    tracer = sys.gettrace()
    sys.settrace(on_call)
    try:
        poset._chi_row(p, x)
    finally:
        sys.settrace(tracer)
    return seen


def test_chi_rows_hold_interned_class_ids(small_corpus):
    # a chi row lists a small int for each y in above[x], and the poset
    # keeps one Poly per distinct chi, shared by every interval with that
    # chi; on the small posets each class is checked against the
    # zeta-matrix oracle.  No row builds a mask of the mu = 0 intervals, the
    # gap-2 chains included
    chain_gap = 0  # rows with a gap-2 chain and a gap-3 element above x
    for p in row_test_posets(small_corpus):
        for x in range(p.size):
            classes = chi_row_mu_classes(p, x)
            assert classes or not p.above[x], (p, x)  # the row was built here
            assert all(0 not in cls for cls in classes), (p, x)
            ranks = [p.ranks[y] - p.ranks[x] for y in p.above[x]]
            chain_gap += 3 in ranks and any(
                (p.down_mask[y] & mask_of(p.above[x][: ranks.count(1)])).bit_count() == 1
                for y, gap in zip(p.above[x], ranks) if gap == 2
            )
        inv = brute_mobius_matrix(p) if p.size <= 40 else None
        chis = {}
        for x in range(p.size):
            for y in [x] + p.above[x]:
                chi = interval_char_poly(p, x, y)
                assert chis.setdefault(chi.coeffs, chi) is chi, (p, x, y)
                if inv is not None:
                    expect = [0] * (p.ranks[y] - p.ranks[x] + 1)
                    for z in [x] + p.above[x]:
                        if p.leq(z, y):
                            expect[p.ranks[y] - p.ranks[z]] += int(inv[x][z])
                    assert chi == Poly(expect), (p, x, y)
        rows, ids, polys = (p._cache[k] for k in ("chi_rows", "chi_ids", "chi_polys"))
        assert len(polys) == len(ids) == len(chis), p
        assert sorted(rows) == list(range(p.size)), p
        for x, row in rows.items():
            assert len(row) == len(p.above[x]) and all(type(c) is int for c in row), (p, x)
            for y, c in zip(p.above[x], row):
                assert polys[c] is interval_char_poly(p, x, y), (p, x, y)
        for key, cid in ids.items():
            assert polys[cid] is chis[key], (p, key)
    assert chain_gap


def test_chi_transpose_matches_the_rows(small_corpus):
    # below[z] lists the w < z in (rank, id) order and cols[z] the class
    # of each [w, z]: the rows read column by column.  Lookups find
    # y by bisection in above[x], so an incomparable pair and an id
    # outside the poset still answer as before
    for p in row_test_posets(small_corpus):
        below, cols = poset._chi_below(p)
        assert len(below) == len(cols) == p.size, p
        for z in range(p.size):
            want = [w for w in p.order if p.down_mask[z] >> w & 1]
            assert below[z] == want, (p, z)
            assert cols[z] == [poset._chi_row(p, w)[p.above[w].index(z)] for w in want], (p, z)
        assert poset._chi_below(p) is poset._chi_below(p)  # built once
        for x in range(p.size):
            for y in range(p.size):
                if not p.leq(x, y):
                    assert mobius(p, x, y) == 0, (p, x, y)
                    with pytest.raises(ValueError, match="^not an interval"):
                        interval_char_poly(p, x, y)
        for bad in (p.size, -1):
            for fn in (mobius, interval_char_poly, interval_chibar):
                for pair in ((0, bad), (bad, 0)):
                    with pytest.raises(ValueError, match="^id %d is not" % bad):
                        fn(p, *pair)
