"""Graded posets, lattices of flats, Moebius functions, and the generic
interval engines that compute Chow-type and Kazhdan-Lusztig-type
polynomials on any finite bounded graded poset.

Both `GradedPoset` and `FlatsLattice` expose the same small interface used
by the engines: `size`, `ranks[i]`, `order` (all ids in increasing rank
order), `above[i]` (ids strictly above i, ascending by rank), `bottom`,
`top`, `leq(i, j)`, and the order relation as int bitsets over ids,
`up_mask[i]` (ids strictly above i) and `down_mask[i]` (ids strictly below
i).  Interval data (Moebius numbers, interval characteristic polynomials,
the per-interval polynomial tables) is cached on the object after first
use; instances are immutable apart from those caches.

Every per-interval table, here and in `invariants`, is one `interval_dp`:
the value at an element is a sum over the elements strictly above (or
below) it of a kernel of the interval between them times the value there,
followed by a finishing step.
"""

from __future__ import annotations

from .matroid import mask_of, set_of
from .poly import ONE, Poly, X, ZERO, exact_div_x_minus_1, palindromic_decompose


def _order_masks(covers_up, order):
    """`up_mask` and `down_mask` from the cover bitsets `covers_up[i]`,
    given the ids in increasing rank order."""
    up_mask = [0] * len(covers_up)
    down_mask = [0] * len(covers_up)
    for i in reversed(order):
        acc = 0
        for j in set_of(covers_up[i]):
            acc |= (1 << j) | up_mask[j]
        up_mask[i] = acc
    for i in order:
        at_or_below = down_mask[i] | (1 << i)
        for j in set_of(covers_up[i]):
            down_mask[j] |= at_or_below
    return up_mask, down_mask


class GradedPoset:
    """Finite bounded graded poset given by ranks plus covering pairs."""

    def __init__(self, ranks, covers):
        ranks = tuple(ranks)
        m = len(ranks)
        if m == 0:
            raise ValueError("empty poset")
        up = [0] * m
        for lo, hi in covers:
            if not (0 <= lo < m and 0 <= hi < m):
                raise ValueError("cover endpoint out of range")
            if ranks[hi] != ranks[lo] + 1:
                raise ValueError(
                    "cover (%d, %d) does not raise rank by exactly 1" % (lo, hi)
                )
            up[lo] |= 1 << hi
        order = sorted(range(m), key=lambda i: ranks[i])
        up_mask, down_mask = _order_masks(up, order)
        bottoms = [i for i in range(m) if not down_mask[i]]
        tops = [i for i in range(m) if not up_mask[i]]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("poset is not bounded (needs unique bottom and top)")
        self.bottom, self.top = bottoms[0], tops[0]
        # a unique minimal (maximal) element of a finite poset lies below
        # (above) every element, so the poset is bounded
        if ranks[self.bottom] != 0:
            raise ValueError("bottom element must have rank 0")
        self.ranks = ranks
        self.size = m
        self.order = order
        self.up_mask = up_mask
        self.down_mask = down_mask
        self.above = [sorted(set_of(a), key=lambda j: (ranks[j], j)) for a in up_mask]
        self._cache = {}

    def leq(self, i, j):
        return i == j or bool(self.up_mask[i] >> j & 1)

    @classmethod
    def from_json(cls, data):
        return cls(data["rank"], data["covers"])

    def to_json(self):
        covers = []
        for i in range(self.size):
            for j in self.above[i]:
                if self.ranks[j] == self.ranks[i] + 1:
                    covers.append([i, j])
        return {"rank": list(self.ranks), "covers": sorted(covers)}

    def __repr__(self):
        return "GradedPoset(size=%d, length=%d)" % (self.size, self.ranks[self.top])


class FlatsLattice:
    """Lattice of flats of a loopless matroid, flats as bit masks by rank.

    Flats get ids by rank, then by mask.  The build is a breadth-first
    search by rank that uses the fact that the flats covering a flat F
    partition E - F (Oxley, Matroid Theory, section 1.7).  For each flat F
    of rank r it scans the bases once and keeps those meeting F in r
    elements; they hold every basis that attains rank r + 1 on F + e, so
    each closure scans only them.  Each closure strips its whole cover
    from the elements still to try, so there is one `closure` call per
    covering pair, and ranks come from the search level.  The order
    relation is then assembled from the covers as id bitsets.

    `from_levels` assembles the same object from a flat set alone, with no
    matroid and no bases scan; the deletion engines use it for the minors
    they read off a lattice that is already built.
    """

    def __init__(self, matroid):
        if not matroid.is_loopless():
            raise ValueError("the lattice of flats requires a loopless matroid")
        self.matroid = matroid
        k = matroid.rank
        full = matroid.full_mask
        bases = matroid.bases
        by_rank = [[0]]
        covers = {}  # flat -> the flats covering it
        for r in range(k):
            nxt = set()
            for f in by_rank[r]:
                spanning = [b for b in bases if (b & f).bit_count() == r]
                covers[f] = ups = []
                rest = full & ~f
                while rest:
                    g = matroid.closure(f | (rest & -rest), spanning)
                    rest &= ~g
                    ups.append(g)
                nxt.update(ups)
            by_rank.append(sorted(nxt))
        self._assemble(by_rank, covers)

    @classmethod
    def from_levels(cls, levels):
        """The lattice of a flat set given by rank: `levels[r]` lists the
        masks of the rank-r flats in increasing order.  Its `matroid` is
        None.  The covers of a flat are the flats one rank up that contain
        it."""
        lat = cls.__new__(cls)
        lat.matroid = None
        covers = {}
        for lower, upper in zip(levels, levels[1:]):
            for f in lower:
                covers[f] = [g for g in upper if g & f == f]
        lat._assemble(levels, covers)
        return lat

    def _assemble(self, levels, covers):
        """Ids, ranks and the order bitsets from the flats by rank and the
        covers of each flat."""
        flats = [f for flats_r in levels for f in flats_r]
        self.flats = tuple(flats)
        self.size = len(flats)
        self.index = index = {f: i for i, f in enumerate(flats)}
        self.ranks = tuple(r for r, flats_r in enumerate(levels) for _ in flats_r)
        self.order = range(self.size)  # ids are numbered by rank
        self.by_rank = [[index[f] for f in flats_r] for flats_r in levels]
        self.bottom = 0
        self.top = self.size - 1
        covers_up = [0] * self.size
        for f, ups in covers.items():
            covers_up[index[f]] = mask_of(index[g] for g in ups)
        self.up_mask, self.down_mask = _order_masks(covers_up, self.order)
        self.above = [set_of(a) for a in self.up_mask]
        self._cache = {}

    def leq(self, i, j):
        return self.flats[i] & self.flats[j] == self.flats[i]

    def covers(self):
        """Covering pairs (i, j); in a geometric lattice these are exactly
        the comparable pairs whose ranks differ by one."""
        return [
            (i, j)
            for i in range(self.size)
            for j in self.above[i]
            if self.ranks[j] == self.ranks[i] + 1
        ]

    def __repr__(self):
        return "FlatsLattice(flats=%d, rank=%d)" % (self.size, self.ranks[self.top])


def lattice_of_flats(matroid):
    """All flats of a loopless matroid, grouped by rank."""
    return FlatsLattice(matroid)


# -- Moebius numbers and interval characteristic polynomials -----------------


def _mobius_row(p, x):
    """All values mu(x, y) for y >= x, memoized on the poset."""
    rows = p._cache.setdefault("mobius_rows", {})
    row = rows.get(x)
    if row is None:
        row = {x: 1}
        from_x = p.up_mask[x] | (1 << x)
        for y in p.above[x]:  # ascending rank order
            row[y] = -sum(row[z] for z in set_of(p.down_mask[y] & from_x))
        rows[x] = row
    return row


def mobius(p, x, y):
    """Moebius number mu(x, y); 0 when x is not below y."""
    if x == y:
        return 1
    if not p.leq(x, y):
        return 0
    return _mobius_row(p, x)[y]


def interval_char_poly(p, x, y):
    """Characteristic polynomial of the interval [x, y]:
    sum_{x <= z <= y} mu(x, z) t^(rk y - rk z)."""
    if not p.leq(x, y):
        raise ValueError("not an interval")
    row = _mobius_row(p, x)
    ranks = p.ranks
    ry = ranks[y]
    out = [0] * (ry - ranks[x] + 1)
    for z in set_of((p.down_mask[y] & p.up_mask[x]) | (1 << x) | (1 << y)):
        out[ry - ranks[z]] += row[z]
    return Poly(out)


def interval_chibar(p, x, y):
    """Reduced characteristic polynomial of the interval [x, y]; by
    convention -1 for the one-point interval."""
    if x == y:
        return Poly((-1,))
    table = p._cache.setdefault("chibar", {})
    val = table.get((x, y))
    if val is None:
        val = exact_div_x_minus_1(interval_char_poly(p, x, y))
        table[(x, y)] = val
    return val


# -- matroid-level poset invariants ------------------------------------------


def char_poly(matroid, lattice=None):
    """Characteristic polynomial; zero for matroids with loops."""
    if not matroid.is_loopless():
        return ZERO
    lat = lattice if lattice is not None else FlatsLattice(matroid)
    return interval_char_poly(lat, lat.bottom, lat.top)


def reduced_char_poly(matroid, lattice=None):
    """chi / (x - 1) for nonempty loopless matroids; -1 for the empty one."""
    if not matroid.is_loopless():
        raise ValueError("reduced characteristic polynomial needs a loopless matroid")
    if matroid.n == 0:
        return Poly((-1,))
    return exact_div_x_minus_1(char_poly(matroid, lattice))


def whitney_numbers(matroid, lattice=None):
    """sum over flats of x^rk(F): Hilbert series of the graded Moebius algebra."""
    if not matroid.is_loopless():
        raise ValueError("Whitney numbers need a loopless matroid")
    lat = lattice if lattice is not None else FlatsLattice(matroid)
    out = [0] * (lat.ranks[lat.top] + 1)
    for r in lat.ranks:
        out[r] += 1
    return Poly(out)


def bergman_f_h(matroid, lattice=None):
    """f- and h-polynomials of the order complex of the proper part of the
    lattice of flats.

    A chain of j proper nonempty flats contributes x^(rk - 1 - j) to f
    (the empty chain gives the leading term x^(rk-1)); h(x) = f(x - 1).
    """
    if not matroid.is_loopless():
        raise ValueError("Bergman complex needs a loopless matroid")
    k = matroid.rank
    if k < 1:
        raise ValueError("Bergman complex needs rank at least 1")
    lat = lattice if lattice is not None else FlatsLattice(matroid)
    # c[F] = x(1 + sum of c[G] over proper flats G > F): x^(j+1) in
    # c[bottom] counts the chains of j proper nonempty flats
    top = lat.top
    c = interval_dp(
        lat, "proper_chains", True,
        lambda lo, hi, t: ZERO if hi == top else t,
        lambda z, s: (ONE + s).shift(1),
    )
    f = Poly([c[lat.bottom].coeff(k - e) for e in range(k)])
    return f, _compose_x_minus_1(f)


def _compose_x_minus_1(f):
    """f(x - 1), exactly."""
    acc = ZERO
    shifted = ONE
    base = X - ONE
    for c in f.coeffs:
        if c:
            acc = acc + c * shifted
        shifted = shifted * base
    return acc


# -- generic interval engines -------------------------------------------------


def interval_dp(p, name, upward, term, finish=None):
    """Table over all elements of p, cached as `p._cache[name]`.

    Going up, the top gets ONE and every other z gets
    finish(z, sum over w > z of term(z, w, table[w])); going down, the
    bottom gets ONE and z gets finish(z, sum over w < z of
    term(w, z, table[w])).  So `term(x, y, value)` always sees the interval
    [x, y] in order, and `value` is the entry at its end other than z.
    Without `finish` the sum itself is stored.  The sum is one pass over the
    comparable pairs, accumulated in a coefficient list.
    """
    table = p._cache.get(name)
    if table is not None:
        return table
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
            t = term(z, w, table[w]) if upward else term(w, z, table[w])
            cs = t.coeffs
            if len(cs) > len(acc):
                acc.extend([0] * (len(cs) - len(acc)))
            for d, c in enumerate(cs):
                acc[d] += c
        table[z] = Poly(acc) if finish is None else finish(z, Poly(acc))
    p._cache[name] = table
    return table


def rank_sum(p, table):
    """sum over elements F of x^rk(F) * table[F]."""
    return sum((table[f].shift(r) for f, r in enumerate(p.ranks)), ZERO)


def chow_table(p):
    """Per-element table of the Chow-type polynomial of each upper interval
    [z, top], via the symmetric-decomposition recursion: with
    S(x) = sum_{F > z} x^(rk F - rk z) * table[F], split S = a + b into its
    palindromic parts and take -b."""
    return interval_dp(
        p, "chow_table", True,
        lambda x, y, t: t.shift(p.ranks[y] - p.ranks[x]),
        lambda z, s: -palindromic_decompose(s)[1],
    )


def kl_table(p):
    """Per-element Kazhdan-Lusztig-type table for upper intervals [z, top]:
    with S(x) = sum_{F > z} x^(rk F - rk z) * table[F] and rho the interval
    rank, the coefficients are p_j = s_(rho - j) - s_j for j < rho / 2."""
    rk = p.ranks[p.top]

    def finish(z, s):
        rho = rk - p.ranks[z]
        return Poly([s.coeff(rho - j) - s.coeff(j) for j in range((rho + 1) // 2)])

    return interval_dp(
        p, "kl_table", True, lambda x, y, t: t.shift(p.ranks[y] - p.ranks[x]), finish
    )


def kls_uH_general(p):
    """Chow-type polynomial of a bounded graded poset."""
    return chow_table(p)[p.bottom]


def kls_H_general(p):
    """Augmented Chow-type polynomial: sum_F x^rk(F) * uH of [F, top]."""
    return rank_sum(p, chow_table(p))


def kls_P_general(p):
    """Kazhdan-Lusztig-type polynomial of a bounded graded poset."""
    return kl_table(p)[p.bottom]


def kls_Z_general(p):
    """Z-type polynomial: sum_F x^rk(F) * P of [F, top]."""
    return rank_sum(p, kl_table(p))
