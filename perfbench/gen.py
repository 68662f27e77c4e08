"""Seeded input generators.

Every generator takes a `random.Random` and fixed sizes, so the same seed
gives the same matroid and the cost of a workload does not depend on the
seed: a relabelling keeps the lattice of flats, a sparse paving matroid's
flat count depends only on (n, k, lambda), and graphs are drawn until their
flat count is the stated one.
"""

from __future__ import annotations

from itertools import combinations

from matroid_invariants.matroid import Matroid, mask_of, set_of

# Draws before a generator gives up; the fixed sizes below need far fewer.
SPARSE_PAVING_TRIES = 100_000
GRAPHIC_TRIES = 10_000


def relabel(m, rng):
    """An isomorphic copy of `m` under a seeded permutation of its ground set."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    bases = (mask_of(perm[e] for e in set_of(b)) for b in m.bases)
    return Matroid(m.n, bases, validate=False)


def sparse_paving(n, k, lam, rng):
    """Rank-k sparse paving matroid on n elements with exactly `lam`
    circuit-hyperplanes: seeded k-subsets that pairwise meet in at most
    k - 2 elements, removed from the bases of U_{k,n}."""
    chosen = []
    tries = 0
    while len(chosen) < lam:
        tries += 1
        if tries > SPARSE_PAVING_TRIES:
            raise RuntimeError("could not place %d circuit-hyperplanes in U_{%d,%d}" % (lam, k, n))
        cand = mask_of(rng.sample(range(n), k))
        if all((cand & c).bit_count() <= k - 2 for c in chosen):
            chosen.append(cand)
    removed = set(chosen)
    bases = (mask_of(b) for b in combinations(range(n), k) if mask_of(b) not in removed)
    return Matroid(n, bases, validate=False)


def graphic_flat_count(vertices, edges):
    """Number of flats of a graph's cycle matroid: the partitions of the
    vertex set into blocks that each induce a connected subgraph."""
    adj = [0] * vertices
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << vertices) - 1
    connected = [False] * (full + 1)
    for s in range(1, full + 1):
        reach = s & -s
        while True:
            grow = reach
            rest = reach
            while rest:
                bit = rest & -rest
                rest ^= bit
                grow |= adj[bit.bit_length() - 1] & s
            if grow == reach:
                break
            reach = grow
        connected[s] = reach == s
    # partitions[s]: ways to split s into connected blocks, counted by the
    # block holding the lowest vertex of s
    partitions = [0] * (full + 1)
    partitions[0] = 1
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        sub = rest
        total = 0
        while True:
            block = sub | low
            if connected[block]:
                total += partitions[s ^ block]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        partitions[s] = total
    return partitions[full]


def _rank(vertices, edges):
    """Rank of an edge set in the cycle matroid: vertices minus components."""
    parent = list(range(vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def graphic(vertices, n_edges, n_flats, rng):
    """Cycle matroid of a seeded connected simple graph with exactly
    `n_flats` flats.  A simple graph gives a simple matroid of rank
    vertices - 1; fixing the flat count as well keeps the lattice size, and
    so the cost, the same for every seed."""
    pairs = list(combinations(range(vertices), 2))
    for _ in range(GRAPHIC_TRIES):
        edges = rng.sample(pairs, n_edges)
        if _rank(vertices, edges) == vertices - 1 and graphic_flat_count(vertices, edges) == n_flats:
            break
    else:
        raise RuntimeError(
            "no connected graph with %d vertices, %d edges and %d flats" % (vertices, n_edges, n_flats)
        )
    bases = [
        mask_of(tree)
        for tree in combinations(range(n_edges), vertices - 1)
        if _rank(vertices, [edges[i] for i in tree]) == vertices - 1
    ]
    return Matroid(n_edges, bases, validate=False)
