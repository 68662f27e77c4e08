"""Matroids on ground sets of at most 24 elements.

Subsets of the ground set [n] = {0, ..., n-1} are bit masks in a single
machine word; the bases family is a sorted tuple of masks.  Rank, closure
and the exchange check run on basis-incidence columns, built once per
matroid when first needed: `cols[e]` is an int whose bit i is set when
basis i contains e.  Growing a basis I of A greedily narrows the set S of
bases containing I by one AND per element of A; then rk(A) = |I|, and
f lies outside cl(A) exactly when its column meets S, so no query scans the
bases.  A caller that already holds S may pass it to `closure` as the
subset's span and skip the growing: the lattice build carries S from each
flat to the covers it finds, and tells the closure which elements can
still join.  Construction from an explicit bases list
validates the exchange axiom in full; matroids produced by the combinators
(dual, minors, sums) skip re-validation where validity is inherited, while
the relaxation of a stressed subset is validated again.  One relabelling
routine, `squeeze`, renumbers the masks of every kind of minor: the bases
of a restriction or contraction here, and the flats of the flat-set minors
of the deletion engines.
"""

from __future__ import annotations

from itertools import combinations

MAX_GROUND = 24
_BITS = tuple(1 << e for e in range(MAX_GROUND))  # element e -> its mask


class MatroidError(ValueError):
    """Invalid bases family; `reason` is one of 'empty', 'mixed', 'exchange'."""

    def __init__(self, reason, message):
        self.reason = reason
        super().__init__(message)


def mask_of(elements):
    """Bit mask of an iterable of elements."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def set_of(mask):
    """Sorted element list of a bit mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def squeeze(masks, keep):
    """The masks, each inside `keep`, with the elements of `keep` renumbered
    0, 1, ... in increasing order; order is preserved."""
    runs = []  # (run of consecutive elements of keep, how far it moves down)
    done = 0
    while keep:
        lo = (keep & -keep).bit_length() - 1
        length = (~keep >> lo & (keep >> lo) + 1).bit_length() - 1
        run = ((1 << length) - 1) << lo
        runs.append((run, lo - done))
        keep ^= run
        done += length
    if len(runs) == 1:
        ((run, shift),) = runs
        return [f >> shift for f in masks]
    out = []
    for f in masks:
        g = 0
        for run, shift in runs:
            g |= (f & run) >> shift
        out.append(g)
    return out


def _subsets_of_size(mask, k):
    return (mask_of(c) for c in combinations(set_of(mask), k))


class Matroid:
    """Matroid given by its ground-set size and bases (as bit masks)."""

    __slots__ = ("n", "bases", "rank", "_bases_set", "_cols")

    def __init__(self, n, bases, validate=True):
        if n < 0 or n > MAX_GROUND:
            raise ValueError("ground set size must be between 0 and %d" % MAX_GROUND)
        bases = tuple(sorted(set(bases)))
        if not bases:
            raise MatroidError("empty", "a matroid needs at least one basis")
        full = (1 << n) - 1
        if any(b & ~full for b in bases):
            raise ValueError("basis uses elements outside the ground set")
        rank = bases[0].bit_count()
        if any(b.bit_count() != rank for b in bases):
            raise MatroidError("mixed", "bases of different cardinalities")
        self.n = n
        self.bases = bases
        self.rank = rank
        self._bases_set = frozenset(bases)
        self._cols = None
        if validate:
            self._check_exchange()

    def _check_exchange(self):
        """The exchange axiom, one basis B1 and one x in B1 at a time.

        With Y the elements y outside B1 for which B1 - x + y is a basis,
        every basis B2 avoiding x must meet Y; so the axiom fails at (B1, x)
        exactly when some basis avoids Y + x, a nonzero AND of columns."""
        bases = self.bases
        inset = self._bases_set
        cols = self._columns()
        every = (1 << len(bases)) - 1
        for b1 in bases:
            outside = [(bit, col) for bit, col in zip(_BITS, cols) if not b1 & bit]
            a = b1
            while a:
                x = a & -a
                a ^= x
                meets = cols[x.bit_length() - 1]
                swap_base = b1 ^ x
                for bit, col in outside:
                    if swap_base | bit in inset:
                        meets |= col
                avoiding = every & ~meets
                if avoiding:
                    b2 = bases[(avoiding & -avoiding).bit_length() - 1]
                    raise MatroidError(
                        "exchange",
                        "exchange fails for bases %s, %s at element %d"
                        % (set_of(b1), set_of(b2), x.bit_length() - 1),
                    )

    @classmethod
    def from_bases(cls, n, bases):
        """Validated construction from an iterable of element iterables."""
        return cls(n, (mask_of(b) for b in bases))

    # -- oracles -----------------------------------------------------------

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def _columns(self):
        """Basis-incidence columns, built once: bit i of `cols[e]` is set
        when basis i contains e.  Each basis is a 3-byte (MAX_GROUND-bit)
        little-endian word and basis i the i-th word from the end, so byte
        e // 8 of every basis is one strided slice, and mapping each byte
        to b"0" or b"1" by its bit e % 8 spells `cols[e]` in binary."""
        cols = self._cols
        if cols is None:
            words = b"".join(b.to_bytes(3, "little") for b in reversed(self.bases))
            cols = self._cols = []
            for e in range(self.n):
                run = 1 << (e & 7)
                digits = (b"0" * run + b"1" * run) * (128 // run)  # byte x -> bit e % 8 of x
                cols.append(int(words[e >> 3::3].translate(digits), 2))
        return cols

    def _spanning(self, a):
        """(rk A, mask over basis ids of the bases containing a basis I of
        A), with I grown greedily: e joins I when some basis holds I + e."""
        cols = self._columns()
        s = (1 << len(self.bases)) - 1
        r = 0
        while a:
            low = a & -a
            a ^= low
            t = s & cols[low.bit_length() - 1]
            if t:
                s = t
                r += 1
        return r, s

    def rank_of(self, subset):
        """rk(A), the size of a greedy basis of A, in |A| ANDs of columns."""
        a = subset if isinstance(subset, int) else mask_of(subset)
        return self._spanning(a)[0]

    def closure(self, subset, span=None, within=None):
        """Smallest flat containing the subset, as a mask.

        With I a basis of A and S the bases containing I, an element f lies
        outside cl(A) exactly when I + f is independent, that is, when some
        basis in S contains f.  So cl(A) is A together with every f outside
        A whose column misses S: one AND of a column per element tested, no
        scan of the bases.

        `span`, when given, is such an S for the subset: the mask over
        basis ids of the bases containing some basis I of A.  Without it
        I is grown greedily (`_spanning`), |A| more ANDs.  A caller that
        knows S for a flat F and the basis I behind it gets S for F + e,
        e outside F, as S & cols[e]: I + e is independent and spans F + e.

        `within` is a mask of the only elements that may join: the caller
        guarantees cl(A) is inside A | within, and only the columns of
        `within` are tested, one AND each.  It defaults to E - A, every
        element outside A.  The lattice build passes the elements outside
        a flat F that no cover of F found so far holds, since the covers
        of F partition E - F.
        """
        a = subset if isinstance(subset, int) else mask_of(subset)
        s = self._spanning(a)[1] if span is None else span
        cols = self._columns()
        if within is None:
            within = self.full_mask & ~a
        while within:
            low = within & -within
            within ^= low
            if not cols[low.bit_length() - 1] & s:
                a |= low
        return a

    def loops(self):
        union = 0
        for b in self.bases:
            union |= b
        return self.full_mask & ~union

    def coloops(self):
        inter = self.full_mask
        for b in self.bases:
            inter &= b
        return inter

    def is_loopless(self):
        return self.loops() == 0

    # -- combinators ---------------------------------------------------------

    def dual(self):
        full = self.full_mask
        return Matroid(self.n, (full & ~b for b in self.bases), validate=False)

    def restrict(self, subset):
        """M|_A on the elements of A, relabelled in increasing order."""
        a = subset if isinstance(subset, int) else mask_of(subset)
        if a & ~self.full_mask:
            raise ValueError("restriction set is not inside the ground set")
        r = self.rank_of(a)
        kept = [b & a for b in self.bases if (b & a).bit_count() == r]
        return Matroid(a.bit_count(), squeeze(kept, a), validate=False)

    def delete(self, subset):
        a = subset if isinstance(subset, int) else mask_of(subset)
        return self.restrict(self.full_mask & ~a)

    def contract(self, subset):
        """M/A = (M* restricted to the complement)* on E - A, relabelled."""
        a = subset if isinstance(subset, int) else mask_of(subset)
        if a & ~self.full_mask:
            raise ValueError("contraction set is not inside the ground set")
        r = self.rank_of(a)
        kept = [b & ~a for b in self.bases if (b & a).bit_count() == r]
        return Matroid(self.n - a.bit_count(), squeeze(kept, self.full_mask & ~a), validate=False)

    def simplify(self):
        """Delete loops and all but one representative of each parallel class."""
        keep = []
        seen = 0
        loops = self.loops()
        for e in range(self.n):
            bit = 1 << e
            if bit & loops or bit & seen:
                continue
            keep.append(e)
            seen |= self.closure(bit)
        return self.restrict(mask_of(keep))

    def add_coloop(self):
        bit = 1 << self.n
        return Matroid(self.n + 1, (b | bit for b in self.bases), validate=False)

    def direct_sum(self, other):
        shift = self.n
        return Matroid(
            self.n + other.n,
            (b1 | (b2 << shift) for b1 in self.bases for b2 in other.bases),
            validate=False,
        )

    # -- structure predicates ------------------------------------------------

    def is_uniform(self):
        from math import comb

        return len(self.bases) == comb(self.n, self.rank)

    def is_paving(self):
        """Every circuit has size >= rank, i.e. all (rank-1)-subsets independent."""
        if not self.is_loopless():
            raise ValueError("paving predicates require a loopless matroid")
        return self._is_paving()

    def _is_paving(self):
        # circuit-size definition, valid with loops: rank <= 1 is always
        # paving, and loops rule out paving once the rank exceeds 1
        if self.rank <= 1:
            return True
        return self.is_loopless() and all(self._basis_completions())

    def is_sparse_paving(self):
        if not self.is_loopless():
            raise ValueError("paving predicates require a loopless matroid")
        return self.is_paving() and self.dual()._is_paving()

    def hyperplanes(self):
        """All flats of rank rk(M) - 1, as masks.

        Each is the closure of an independent (rank-1)-set a.  The elements e
        with a + e a basis are exactly those outside cl(a), and there are
        some iff a is independent."""
        if self.rank == 0:
            return []
        full = self.full_mask
        return sorted({full & ~outside for outside in self._basis_completions() if outside})

    def _basis_completions(self):
        """For each (rank-1)-set a, the mask of the elements e with a + e a
        basis; it is nonzero iff a is independent.  Needs rank at least 1."""
        bases = self._bases_set
        bits = _BITS[: self.n]
        for a in _subsets_of_size(self.full_mask, self.rank - 1):
            outside = 0
            for bit in bits:
                if a | bit in bases:
                    outside |= bit
            yield outside

    def is_stressed(self, subset):
        """Whether M|_A and M/A are both uniform."""
        a = subset if isinstance(subset, int) else mask_of(subset)
        return self.restrict(a).is_uniform() and self.contract(a).is_uniform()

    def stressed_hyperplane_counts(self):
        """Map h -> number of stressed hyperplanes of size h, for h >= rank."""
        if not self.is_loopless():
            raise ValueError("stressed hyperplane counts require a loopless matroid")
        k = self.rank
        counts = {}
        for hmask in self.hyperplanes():
            h = hmask.bit_count()
            if h < k:
                continue
            if self.restrict(hmask).is_uniform():
                counts[h] = counts.get(h, 0) + 1
        return counts

    def cusp(self, subset):
        """Size-rk(M) subsets meeting A in more than rk(A) elements."""
        a = subset if isinstance(subset, int) else mask_of(subset)
        r = self.rank_of(a)
        return {
            s
            for s in _subsets_of_size(self.full_mask, self.rank)
            if (s & a).bit_count() >= r + 1
        }

    def relax(self, subset):
        """Relaxation by a stressed subset: adjoin the cusp sets as new bases."""
        a = subset if isinstance(subset, int) else mask_of(subset)
        if not self.is_stressed(a):
            raise ValueError("relaxation requires a stressed subset")
        return Matroid(self.n, set(self.bases) | self.cusp(a), validate=True)

    # -- identity, serialization ----------------------------------------------

    def key(self):
        return (self.n, self.bases)

    def __eq__(self, other):
        return isinstance(other, Matroid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Matroid(n=%d, rank=%d, bases=%d)" % (self.n, self.rank, len(self.bases))

    def to_json(self):
        return {"n": self.n, "bases": sorted(set_of(b) for b in self.bases)}

    @classmethod
    def from_json(cls, data):
        """The inverse of `to_json`; input of another shape raises `ValueError`."""
        if not isinstance(data, dict) or not {"n", "bases"} <= data.keys():
            raise ValueError('a matroid needs a JSON object with keys "n" and "bases"')
        n, bases = data["n"], data["bases"]
        if type(n) is not int or not 0 <= n <= MAX_GROUND:
            raise ValueError('"n" must be an integer between 0 and %d' % MAX_GROUND)
        if not isinstance(bases, list) or not all(
            isinstance(b, list) and all(type(e) is int and 0 <= e < n for e in b) for b in bases
        ):
            raise ValueError('"bases" must be a list of lists of elements 0..n-1')
        for b in bases:
            if len(set(b)) != len(b):
                raise ValueError("basis %s repeats an element" % b)
        return cls.from_bases(n, bases)


# -- constructors -----------------------------------------------------------


def uniform(k, n):
    """The uniform matroid of rank k on n elements."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n > MAX_GROUND:
        raise ValueError("ground set too large")
    full = (1 << n) - 1
    return Matroid(n, _subsets_of_size(full, k), validate=False)


def boolean(n):
    """The free matroid on n elements."""
    return uniform(n, n)


def empty_matroid():
    return uniform(0, 0)


def vamos():
    """The rank-4 matroid on 8 elements whose bases are all 4-subsets except
    five circuit-hyperplanes (the standard V_8 presentation)."""
    chs = [{0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 4, 5}, {0, 1, 6, 7}, {2, 3, 6, 7}]
    ch_masks = {mask_of(c) for c in chs}
    full = (1 << 8) - 1
    bases = [b for b in _subsets_of_size(full, 4) if b not in ch_masks]
    return Matroid(8, bases, validate=True)


def complete_graph(m):
    """Graphic matroid of the complete graph on m vertices (spanning trees).

    The trees are grown edge by edge in index order, each edge kept only
    when it joins two components of the forest so far, so no edge set
    with a cycle is ever tested or extended."""
    if m < 1:
        raise ValueError("need at least one vertex")
    edges = list(combinations(range(m), 2))
    if len(edges) > MAX_GROUND:
        raise ValueError("too many edges for the ground-set cap")
    bases = []

    def grow(start, comp, tree, size):
        # comp[v] labels v's component in the forest `tree` of `size` edges;
        # an edge inside one component would close a cycle, so it is skipped
        if size == m - 1:
            bases.append(tree)
            return
        for i in range(start, len(edges) - (m - 2 - size)):
            u, v = edges[i]
            cu, cv = comp[u], comp[v]
            if cu != cv:
                grow(i + 1, [cu if c == cv else c for c in comp], tree | 1 << i, size + 1)

    grow(0, list(range(m)), 0, 0)
    return Matroid(len(edges), bases, validate=False)


def _rank3_from_lines(n, lines, parallel_pairs=()):
    """Rank-3 matroid on [n] given by its rank-2 flats ("lines") and any
    parallel pairs; bases are the triples not inside a line and not
    containing a parallel pair.  Lines must pairwise meet in at most one
    parallel class for this to be a matroid (validated)."""
    dependent = set()
    for line in lines:
        for t in combinations(sorted(line), 3):
            dependent.add(mask_of(t))
    for p in parallel_pairs:
        pm = mask_of(p)
        for e in range(n):
            if not pm & (1 << e):
                dependent.add(pm | (1 << e))
    full = (1 << n) - 1
    bases = [b for b in _subsets_of_size(full, 3) if b not in dependent]
    return Matroid(n, bases, validate=True)


def equal_tutte_pair():
    """Two rank-4 matroids on 7 elements with equal Tutte polynomials but
    different Chow and augmented Chow polynomials.

    Both are duals of rank-3 point-line geometries with one doubled point:
    the first has lines {0,1,2,3}, {0,4,5}, {1,5,6}, {2,3,4,6} with 2 and 3
    parallel; the second has lines {0,1,2,3}, {0,4,5,6} with 5 and 6
    parallel.
    """
    m1_dual = _rank3_from_lines(
        7,
        [{0, 1, 2, 3}, {0, 4, 5}, {1, 5, 6}, {2, 3, 4, 6}],
        parallel_pairs=[(2, 3)],
    )
    m2_dual = _rank3_from_lines(
        7,
        [{0, 1, 2, 3}, {0, 4, 5, 6}],
        parallel_pairs=[(5, 6)],
    )
    return m1_dual.dual(), m2_dual.dual()


def direct_sum(m1, m2):
    return m1.direct_sum(m2)


# -- Tutte polynomial ---------------------------------------------------------


class BivariatePoly:
    """Sparse polynomial in two variables with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if c:
                data[(i, j)] = data.get((i, j), 0) + c
        self.terms = {k: v for k, v in data.items() if v}

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivariatePoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariatePoly({k: other * v for k, v in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def shift(self, dx, dy):
        return BivariatePoly({(i + dx, j + dy): c for (i, j), c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        def mono(i, j, c):
            parts = []
            if c != 1 or (i == 0 and j == 0):
                parts.append(str(c))
            if i:
                parts.append("x" if i == 1 else "x^%d" % i)
            if j:
                parts.append("y" if j == 1 else "y^%d" % j)

            return "*".join(parts)
        keys = sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
        return " + ".join(mono(i, j, self.terms[(i, j)]) for i, j in keys)


def tutte(m):
    """Tutte polynomial by deletion-contraction, memoized on minor identity."""
    memo = {}

    def rec(mat):
        key = mat.key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        if mat.n == 0:
            result = BivariatePoly.one()
        else:
            bit = 1
            loops = mat.loops()
            coloops = mat.coloops()
            if bit & loops:
                result = rec(mat.delete(bit)).shift(0, 1)
            elif bit & coloops:
                result = rec(mat.contract(bit)).shift(1, 0)
            else:
                result = rec(mat.delete(bit)) + rec(mat.contract(bit))
        memo[key] = result
        return result

    return rec(m)
