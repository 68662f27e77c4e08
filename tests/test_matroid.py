import json
import random
import re
from itertools import combinations
from math import comb

import pytest

from matroid_invariants.matroid import (
    BivariatePoly,
    Matroid,
    MatroidError,
    boolean,
    complete_graph,
    direct_sum,
    empty_matroid,
    equal_tutte_pair,
    mask_of,
    set_of,
    tutte,
    uniform,
    vamos,
)
from test_poset import random_graphic, random_sparse_paving, stress_matroids

EXPECTED_TUTTE = BivariatePoly(
    {
        (4, 0): 1,
        (3, 0): 3,
        (2, 1): 2,
        (1, 2): 1,
        (0, 3): 1,
        (2, 0): 4,
        (1, 1): 5,
        (0, 2): 3,
        (1, 0): 2,
        (0, 1): 2,
    }
)


def test_from_bases_validation_errors():
    with pytest.raises(MatroidError) as err:
        Matroid.from_bases(3, [])
    assert err.value.reason == "empty"
    with pytest.raises(MatroidError) as err:
        Matroid.from_bases(3, [{0}, {1, 2}])
    assert err.value.reason == "mixed"
    with pytest.raises(MatroidError) as err:
        Matroid.from_bases(4, [{0, 1}, {2, 3}])
    assert err.value.reason == "exchange"


def pairwise_exchange_failure(bases):
    """Oracle: the exchange axiom over every ordered pair of bases.  Returns
    the first (B1, B2, x) with x in B1 - B2 and no y in B2 - B1 making
    B1 - x + y a basis, or None if the axiom holds."""
    inset = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in set_of(b1 & ~b2):
                if not any((b1 ^ 1 << x) | 1 << y in inset for y in set_of(b2 & ~b1)):
                    return b1, b2, x
    return None


def random_families(rng, count):
    """Seeded bases families: a third are random sets of k-subsets, which
    are mostly not matroids; the rest are the bases of seeded sparse paving
    and graphic matroids, half of them losing one basis or gaining one
    non-basis of the same size, which may break the exchange axiom."""
    out = []
    for _ in range(count):
        n = rng.randint(4, 7)
        k = rng.randint(2, n - 2)
        if rng.random() < 1 / 3:
            ksets = [mask_of(c) for c in combinations(range(n), k)]
            out.append((n, sorted(rng.sample(ksets, rng.randint(1, len(ksets))))))
            continue
        if rng.random() < 0.5:
            m = random_sparse_paving(rng, n, k, rng.randint(0, 4))
        else:
            v = rng.randint(4, 5)
            m = random_graphic(rng, v, rng.randint(v, min(v * (v - 1) // 2, 8)))
        family = set(m.bases)
        if rng.random() < 0.5:
            flip = mask_of(rng.sample(range(m.n), m.rank))
            if flip in family and len(family) > 1:
                family.discard(flip)
            else:
                family.add(flip)
        out.append((m.n, sorted(family)))
    return out


def test_exchange_check_matches_pairwise_oracle():
    broken = 0
    for n, bases in random_families(random.Random(20261018), 300):
        failure = pairwise_exchange_failure(bases)
        if failure is None:
            Matroid(n, bases)
            continue
        broken += 1
        with pytest.raises(MatroidError) as err:
            Matroid(n, bases)
        assert err.value.reason == "exchange"
        # the named pair and element really break the axiom
        named = re.fullmatch(r"exchange fails for bases (\[.*\]), (\[.*\]) at element (\d+)", str(err.value))
        b1, b2 = mask_of(json.loads(named[1])), mask_of(json.loads(named[2]))
        x = int(named[3])
        assert b1 in bases and b2 in bases and b1 >> x & 1 and not b2 >> x & 1, (bases, str(err.value))
        assert not any((b1 ^ 1 << x) | 1 << y in bases for y in set_of(b2 & ~b1)), (bases, str(err.value))
    assert 50 <= broken <= 250, broken


def test_from_bases_examples():
    assert Matroid.from_bases(2, [{0}, {1}]) == uniform(1, 2)
    # the exchange axiom holds here even though the family is lopsided
    m = Matroid.from_bases(3, [{0, 1}, {0, 2}])
    assert m.rank == 2
    lo = Matroid.from_bases(1, [set()])
    assert lo == uniform(0, 1) and lo.loops() == 1


def test_ground_set_cap():
    with pytest.raises(ValueError):
        uniform(1, 25)


def test_duality():
    assert uniform(2, 5).dual() == uniform(3, 5)
    for m in (uniform(2, 4), vamos(), complete_graph(4), boolean(3)):
        assert m.dual().dual() == m
        assert m.rank + m.dual().rank == m.n


def test_rank_closure_loops():
    assert uniform(2, 4).rank_of({0, 1, 2}) == 2
    assert boolean(3).closure(0b001) == 0b001
    assert Matroid.from_bases(2, [{0}]).loops() == 0b10
    assert boolean(4).coloops() == 0b1111
    m = uniform(2, 4)
    assert m.closure(0b0011) == m.full_mask  # any 2 elements span


def literal_minors(m, a):
    """M|A and M/A by the definitions: the largest intersections of the
    bases with A (or the bases meeting A in rk A elements, minus A), each
    element renamed by its position among the kept elements."""
    def relabel(keep, sets):
        pos = {e: i for i, e in enumerate(keep)}
        return Matroid(len(keep), [mask_of(pos[e] for e in set_of(b)) for b in sets], validate=False)

    r = max((b & a).bit_count() for b in m.bases)
    meet = [b for b in m.bases if (b & a).bit_count() == r]
    return (relabel(set_of(a), [b & a for b in meet]),
            relabel(set_of(m.full_mask & ~a), [b & ~a for b in meet]))


def test_minor_duality_identity():
    rng = random.Random(7)
    for m in (uniform(3, 6), complete_graph(4), vamos()):
        for _ in range(12):
            s = mask_of(rng.sample(range(m.n), rng.randint(0, m.n // 2)))
            assert m.contract(s) == m.dual().delete(s).dual()
    # restrict and contract against the literal relabelling, on subsets
    # made of several runs of consecutive elements
    runs = set()
    for name, m in stress_matroids():
        for _ in range(12):
            a = mask_of(rng.sample(range(m.n), rng.randint(0, m.n)))
            assert (m.restrict(a), m.contract(a)) == literal_minors(m, a), (name, a)
            runs.add((a & ~(a << 1)).bit_count())
    assert max(runs) >= 3


def test_restrict_contract_shapes():
    m = uniform(3, 6)
    assert m.restrict(mask_of([0, 1])) == boolean(2)
    assert m.contract(mask_of([0])) == uniform(2, 5)
    assert m.delete(mask_of([5])) == uniform(3, 5)


def test_simplify():
    m = Matroid.from_bases(3, [{0}, {1}])  # 0,1 parallel; 2 a loop
    assert m.simplify() == uniform(1, 1)
    assert vamos().simplify() == vamos()


def test_direct_sum_and_coloop():
    m = uniform(1, 2).direct_sum(uniform(1, 1))
    assert m == direct_sum(uniform(1, 2), uniform(1, 1))
    assert m.rank == 2 and m.n == 3
    assert uniform(2, 3).add_coloop().coloops() == 0b1000
    assert boolean(2) == uniform(1, 1).direct_sum(uniform(1, 1))


def brute_spanning_trees(m):
    """Every (m - 1)-subset of the edges of K_m closed by a fresh
    union-find and kept when it has no cycle: the reference enumeration."""
    edges = list(combinations(range(m), 2))
    trees = []
    for tree in combinations(range(len(edges)), m - 1):
        parent = list(range(m))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for i in tree:
            ru, rv = find(edges[i][0]), find(edges[i][1])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            trees.append(mask_of(tree))
    return tuple(sorted(trees))


def test_complete_graph():
    assert complete_graph(1) == empty_matroid()
    assert complete_graph(3) == uniform(2, 3)
    for m in range(1, 8):
        k = complete_graph(m)
        assert k.bases == brute_spanning_trees(m), m
        assert len(k.bases) == max(1, m ** (m - 2)), m  # Cayley; K1 has the empty tree
        assert k.rank == m - 1 and k.n == m * (m - 1) // 2


def test_uniform_flats_against_closure_oracle():
    m = uniform(3, 5)
    flats = {m.closure(a) for a in range(1 << 5)}
    expected = {s for s in range(1 << 5) if bin(s).count("1") < 3}
    expected.add(m.full_mask)
    assert flats == expected


def test_paving_predicates():
    assert uniform(3, 6).is_paving()
    assert uniform(3, 6).stressed_hyperplane_counts() == {}
    v = vamos()
    assert v.is_paving() and v.is_sparse_paving()
    assert v.stressed_hyperplane_counts() == {4: 5}
    k4 = complete_graph(4)
    assert k4.is_sparse_paving()
    assert k4.stressed_hyperplane_counts() == {3: 4}
    with pytest.raises(ValueError):
        Matroid.from_bases(2, [{0}]).is_paving()


def test_paving_hierarchy_on_corpus(corpus):
    for name, m, _ in corpus:
        if not m.is_loopless():
            continue
        if m.n > 9:
            continue
        if m.is_sparse_paving():
            assert m.is_paving(), name


def brute_paving(n, k, rank):
    """Circuit-size definition from a rank function: every set of fewer than
    k elements is independent."""
    return all(rank(s) == s.bit_count() for s in range(1 << n) if s.bit_count() < k)


def brute_hyperplanes(m):
    """Sets of rank rk(M) - 1 that every further element raises to rk(M)."""
    k = m.rank
    if k == 0:
        return []
    return [
        s
        for s in range(1 << m.n)
        if m.rank_of(s) == k - 1
        and all(m.rank_of(s | 1 << e) == k for e in range(m.n) if not s >> e & 1)
    ]


def test_paving_scan_against_rank_oracle(corpus):
    cases = [(name, m) for name, m, _ in corpus if m.n <= 10]
    cases += [(name, m) for name, m in stress_matroids() if m.n <= 11]
    cases += [(name + "+loop", Matroid(m.n + 1, m.bases, validate=False)) for name, m in cases[::7]]
    # duals of matroids with coloops have loops: the dual scan of is_sparse_paving
    cases += [(name + "*", m.dual()) for name, m in cases]
    seen = set()
    for name, m in cases:
        full = m.full_mask
        assert m.hyperplanes() == brute_hyperplanes(m), name
        paving = brute_paving(m.n, m.rank, m.rank_of)
        assert m._is_paving() == paving, name
        if not m.is_loopless():
            for predicate in (m.is_paving, m.is_sparse_paving):
                with pytest.raises(ValueError):
                    predicate()
            seen.add("loops")
            continue
        dual_paving = brute_paving(
            m.n, m.n - m.rank, lambda s: s.bit_count() + m.rank_of(full & ~s) - m.rank
        )
        assert m.is_paving() == paving, name
        assert m.is_sparse_paving() == (paving and dual_paving), name
        seen.add((paving, paving and dual_paving, bool(m.coloops())))
    assert seen >= {"loops", (False, False, False), (True, False, True), (True, True, False)}


def test_cusp_and_relaxation():
    k4 = complete_graph(4)
    triangles = [{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {3, 4, 5}]
    m = k4
    for t in triangles:
        cusp = m.cusp(mask_of(t))
        relaxed = m.relax(mask_of(t))
        assert len(relaxed.bases) == len(m.bases) + len(cusp)
        m = relaxed
    assert m == uniform(3, 6)

    v = vamos()
    for ch in [{0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 4, 5}, {0, 1, 6, 7}, {2, 3, 6, 7}]:
        v = v.relax(mask_of(ch))
    assert v == uniform(4, 8)
    assert len(v.bases) == comb(8, 4)

    assert uniform(2, 4).cusp(mask_of({0})) == set()
    # a free 4-set is (trivially) stressed with empty cusp: relax is identity
    assert vamos().relax(mask_of({0, 1, 2, 4})) == vamos()
    with pytest.raises(ValueError):
        vamos().relax(mask_of({0, 1, 2, 3, 4}))  # restriction not uniform


def test_tutte_base_cases():
    assert tutte(uniform(1, 1)) == BivariatePoly({(1, 0): 1})
    assert tutte(uniform(0, 1)) == BivariatePoly({(0, 1): 1})
    assert tutte(empty_matroid()) == BivariatePoly.one()


def test_tutte_direct_sum_multiplicative():
    k4 = complete_graph(4)
    assert tutte(uniform(1, 2).direct_sum(k4)) == tutte(uniform(1, 2)) * tutte(k4)


def test_equal_tutte_pair():
    m1, m2 = equal_tutte_pair()
    assert (m1.rank, m1.n) == (4, 7) and (m2.rank, m2.n) == (4, 7)
    assert m1 != m2
    assert tutte(m1) == EXPECTED_TUTTE
    assert tutte(m2) == EXPECTED_TUTTE


def test_json_round_trip_canonical():
    for m in (uniform(2, 4), vamos(), complete_graph(4)):
        blob = json.dumps(m.to_json(), sort_keys=True)
        again = Matroid.from_json(json.loads(blob))
        assert again == m
        assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert set_of(0b100101) == [0, 2, 5]
