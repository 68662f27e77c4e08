"""Graded posets, lattices of flats, Moebius functions, and the generic
interval engines that compute Chow-type and Kazhdan-Lusztig-type
polynomials on any finite bounded graded poset.

A `GradedPoset` is built from ranks and cover pairs, and `FlatsLattice`,
the lattice of flats of a matroid, is a `GradedPoset` whose covers come from
a closure search.  The engines use one small interface: `size`, `ranks[i]`,
`order` (all ids in increasing rank order), `above[i]` (ids strictly above
i, ascending by rank, then by id, so the covers of i lead it), `bottom`,
`top`, `leq(i, j)`, and the order relation as one int bitset over ids per
element, `down_mask[i]` (ids strictly below i), of which `above` is the
transpose.  An id outside 0..size-1 raises `ValueError`.  Instances are
immutable apart from `_cache`, which holds, once first asked for:

- `chi_ids` and `chi_polys`: each distinct chi([x, y]) interned once,
  its coefficient tuple -> a small int class id -> its `Poly`, whose
  constant term is mu(x, y);
- `chi_rows[x]`: a list aligned with `above[x]`, the class id of
  chi([x, y]) for each y in it.  One walk over the y > x fills the row:
  it sorts the z already done into mu-classes by rank and value, so each
  coefficient of chi([x, y]) is a few popcounts of `down_mask[y]` against
  class masks.  A lookup finds y in `above[x]` by bisection on (rank, id);
- `chi_below`: the transpose of the rows, for the downward tables: for
  every z, the ids below z in (rank, id) order and the class of each
  [w, z];
- one table per `interval_dp` name.

Every per-interval table, here and in `invariants`, is one `interval_dp`:
the value at an element is a sum over the elements strictly above (or
below) it of a kernel of the interval between them times the value there,
followed by a finishing step.  A kernel depends on the interval only
through its chi class or only through its rank gap, so it is asked once
per class, and a finishing step depends on the element only through its
rank.  Each weight and each finished entry is packed into one int, the
polynomial evaluated at a power of two wide enough for a proven bound on
the coefficients of the sum, so a table costs one big-integer multiply-add
per comparable pair.  Intervals repeat ([F, top] of a lattice of flats is
the lattice of the contraction by F), so sums repeat: each distinct
(rank, sum) is decoded and finished exactly once, and the elements that
share it share one entry.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter

from .matroid import set_of
from .poly import ONE, Poly, X, ZERO, exact_div_x_minus_1, palindromic_decompose


class GradedPoset:
    """Finite bounded graded poset given by ranks plus covering pairs."""

    def __init__(self, ranks, covers):
        ranks = tuple(ranks)
        m = len(ranks)
        if m == 0:
            raise ValueError("empty poset")
        ups = [[] for _ in range(m)]  # ids covering each id
        for lo, hi in covers:
            if not (0 <= lo < m and 0 <= hi < m):
                raise ValueError("cover endpoint out of range")
            if ranks[hi] != ranks[lo] + 1:
                raise ValueError(
                    "cover (%d, %d) does not raise rank by exactly 1" % (lo, hi)
                )
            ups[lo].append(hi)
        order = sorted(range(m), key=ranks.__getitem__)
        # the order relation from the covers: the ids below each id, by
        # increasing rank
        down_mask = [0] * m
        for i in order:
            at_or_below = down_mask[i] | (1 << i)
            for j in ups[i]:
                down_mask[j] |= at_or_below
        bottoms = [i for i in range(m) if not down_mask[i]]
        tops = [i for i in range(m) if not ups[i]]
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
        self.down_mask = down_mask
        # the transpose of down_mask: y joins above[x] for each x below it,
        # and y runs in (rank, id) order, so every list comes out in it
        self.above = above = [[] for _ in range(m)]
        for y in order:
            for x in set_of(down_mask[y]):
                above[x].append(y)
        self._cache = {}

    def leq(self, i, j):
        _require_id(self, i)
        _require_id(self, j)
        return i == j or bool(self.down_mask[j] >> i & 1)

    @classmethod
    def from_json(cls, data):
        """The inverse of `to_json`; input of another shape raises `ValueError`."""
        if not isinstance(data, dict) or not {"rank", "covers"} <= data.keys():
            raise ValueError('a poset needs a JSON object with keys "rank" and "covers"')
        ranks, covers = data["rank"], data["covers"]
        if not isinstance(ranks, list) or not all(type(r) is int for r in ranks):
            raise ValueError('"rank" must be a list of integers')
        if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(type(i) is int for i in c) for c in covers
        ):
            raise ValueError('"covers" must be a list of [lo, hi] integer pairs')
        return cls(ranks, covers)

    def to_json(self):
        covers = []
        for i in range(self.size):
            for j in self.above[i]:
                if self.ranks[j] == self.ranks[i] + 1:
                    covers.append([i, j])
        return {"rank": list(self.ranks), "covers": sorted(covers)}

    def __repr__(self):
        return "GradedPoset(size=%d, length=%d)" % (self.size, self.ranks[self.top])


class FlatsLattice(GradedPoset):
    """Lattice of flats of a loopless matroid, flats as bit masks by rank.

    Flats get ids by rank, then by mask.  The build is a breadth-first
    search by rank that uses the fact that the flats covering a flat F
    partition E - F (Oxley, Matroid Theory, section 1.7).  For each flat F
    it takes `matroid.closure(F + e)` for an element e still to try; the
    closure is the cover of F through e, and it strips that whole cover
    from the elements still to try, so there is one `closure` call per
    covering pair, and ranks come from the search level.

    Each closure gets its span from the search.  Let S_F be the mask of the
    bases that contain a fixed basis I of F, with I empty and S_F all
    bases for F = the empty flat.  For e outside F = cl(I), I + e is
    independent and spans F + e, so S_F & cols[e], the bases containing
    I + e, is a valid span for F + e and, since cl(F + e) has the same
    bases as F + e, for the cover cl(F + e) too.  A cover reached from
    several flats keeps the span of the first pair that found it; any of
    them is valid.  So a closure is one AND of S with each of the
    matroid's n basis-incidence columns, with no basis of F + e regrown
    and no basis scanned.  The ranks and the covering pairs of ids then
    make the `GradedPoset`.
    """

    def __init__(self, matroid):
        if not matroid.is_loopless():
            raise ValueError("the lattice of flats requires a loopless matroid")
        full = matroid.full_mask
        cols = matroid._columns()
        levels = [[0]]
        spans = {0: (1 << len(matroid.bases)) - 1}  # flat of this level -> its span
        covers = {}  # flat -> the flats covering it
        for r in range(matroid.rank):
            found = {}
            for f in levels[r]:
                covers[f] = ups = []
                span = spans.pop(f)  # freed once its covers are found
                rest = full & ~f
                while rest:
                    low = rest & -rest
                    t = span & cols[low.bit_length() - 1]
                    g = matroid.closure(f | low, t)
                    rest &= ~g
                    ups.append(g)
                    found.setdefault(g, t)
            levels.append(sorted(found))
            spans = found
        flats = [f for flats_r in levels for f in flats_r]
        index = {f: i for i, f in enumerate(flats)}
        self.matroid = matroid
        self.flats = tuple(flats)
        self.by_rank = [[index[f] for f in flats_r] for flats_r in levels]
        super().__init__(
            (r for r, flats_r in enumerate(levels) for _ in flats_r),
            ((index[f], index[g]) for f, ups in covers.items() for g in ups),
        )

    def __repr__(self):
        return "FlatsLattice(flats=%d, rank=%d)" % (self.size, self.ranks[self.top])


def lattice_of_flats(matroid):
    """All flats of a loopless matroid, grouped by rank."""
    return FlatsLattice(matroid)


# -- Moebius numbers and interval characteristic polynomials -----------------


def _require_id(p, i):
    """Raise ValueError naming i unless it is an id of p."""
    if not 0 <= i < p.size:
        raise ValueError("id %r is not an element of this poset (ids run 0..%d)" % (i, p.size - 1))


def _chi_row(p, x):
    """The chi class of [x, y] for every y in `above[x]`, as a list aligned
    with it, memoized on the poset.

    A chi class is a small int: the poset interns each distinct
    coefficient tuple of a chi([x, y]) once, in `_cache["chi_ids"]`
    (tuple -> id) and `_cache["chi_polys"]` (id -> `Poly`), so a row is a
    list of ints and the intervals with one chi share one `Poly`.  Class 0
    is chi = 1, that of [x, x], which the row leaves out.

    The walk visits y in increasing rank and sorts the z >= x already seen
    into mu-classes: for each rank gap s, a dict from a value v to the id
    mask of the z with rk z - rk x = s and mu(x, z) = v (mu = 0 drops out).
    Coefficient rk y - rk x - s of chi([x, y]) is then
    sum_v v * |down[y] & mask|, one popcount per class, and mu(x, y) is minus
    the sum of the others.  The covers of x, the leading run of `above[x]`,
    all have chi = t - 1 and mu = -1, so they get that class in one step,
    and their mask, built in one pass over that run, is the one gap-1
    mu-class.  Every y of a higher rank finds the classes below its rank
    complete, so the (coefficient index, v, mask) terms are listed once per
    rank and each y runs one loop over them."""
    cache = p._cache
    rows = cache.get("chi_rows")
    if rows is None:
        rows = cache["chi_rows"] = {}
        cache["chi_ids"] = {ONE.coeffs: 0}
        cache["chi_polys"] = [ONE]
    row = rows.get(x)
    if row is not None:
        return row
    _require_id(p, x)
    ids, polys = cache["chi_ids"], cache["chi_polys"]
    ranks, down, above = p.ranks, p.down_mask, p.above[x]
    rx = ranks[x]
    rows[x] = row = []
    if not above:  # x is the top
        return row
    covers = n_covers = 0  # the mask and the length of the leading run
    for y in above:
        if ranks[y] > rx + 1:
            break
        covers |= 1 << y
        n_covers += 1
    key = (-1, 1)
    cid = ids.get(key)
    if cid is None:
        cid = ids[key] = len(polys)
        polys.append(Poly(key))
    row += [cid] * n_covers
    classes = [None, {-1: covers}]
    d = 1
    for y in above[n_covers:]:  # ascending rank
        if ranks[y] - rx != d:  # classes[1..d] are complete
            classes.append({})
            d += 1
            terms = [(d - s, v, mask) for s in range(1, d) for v, mask in classes[s].items()]
        below = down[y]
        graded = [0] * d + [1]
        for i, v, mask in terms:
            graded[i] += v * (below & mask).bit_count()
        mu = graded[0] = -sum(graded)
        if mu:
            cls = classes[d]
            cls[mu] = cls.get(mu, 0) | 1 << y
        key = tuple(graded)
        cid = ids.get(key)
        if cid is None:
            cid = ids[key] = len(polys)
            polys.append(Poly(key))
        row.append(cid)
    return row


def _chi_below(p):
    """(below, cols): below[z] lists the ids strictly below z in (rank, id)
    order and cols[z] the chi class of [w, z] for each w in below[z].  One
    pass over the chi rows, by rank, transposes them, on first use; the
    pair is cached."""
    got = p._cache.get("chi_below")
    if got is None:
        below = [[] for _ in range(p.size)]
        cols = [[] for _ in range(p.size)]
        for w in p.order:
            for y, c in zip(p.above[w], _chi_row(p, w)):
                below[y].append(w)
                cols[y].append(c)
        got = p._cache["chi_below"] = below, cols
    return got


def _chi(p, x, y):
    """chi([x, y]) as the poset's interned `Poly`, or None when x is not
    below y.  y is found in `above[x]` by bisection on (rank, id)."""
    _require_id(p, y)
    row = _chi_row(p, x)
    polys = p._cache["chi_polys"]
    if x == y:
        return polys[0]
    if not p.down_mask[y] >> x & 1:
        return None
    ranks = p.ranks
    i = bisect_left(p.above[x], (ranks[y], y), key=lambda j: (ranks[j], j))
    return polys[row[i]]


def mobius(p, x, y):
    """Moebius number mu(x, y); 0 when x is not below y.  Ids outside the
    poset raise ValueError."""
    chi = _chi(p, x, y)
    return 0 if chi is None else chi.coeffs[0]


def interval_char_poly(p, x, y):
    """Characteristic polynomial of the interval [x, y]:
    sum_{x <= z <= y} mu(x, z) t^(rk y - rk z)."""
    chi = _chi(p, x, y)
    if chi is None:
        raise ValueError("not an interval")
    return chi


def interval_chibar(p, x, y):
    """Reduced characteristic polynomial chi([x, y]) / (x - 1).  By
    convention -1 for the one-point interval."""
    chi = _chi(p, x, y)
    if chi is None:
        raise ValueError("not an interval")
    if x == y:
        return Poly((-1,))
    return exact_div_x_minus_1(chi)


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
    lat = lattice if lattice is not None else FlatsLattice(matroid)
    return interval_chibar(lat, lat.bottom, lat.top)


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
    # c[F] = x(1 + sum of c[G] over proper flats G > F), where c[top] = 1
    # gives the 1: x^(j+1) in c[bottom] counts the chains of j proper
    # nonempty flats
    c = interval_dp(lat, "proper_chains", True, lambda lo, hi: (1,), lambda z, s: s.shift(1), by_gap=True)
    f = Poly([c[lat.bottom].coeff(k - e) for e in range(k)])
    return f, f(X - ONE)


# -- generic interval engines -------------------------------------------------


def _pack(coeffs, bits):
    """The polynomial with these coefficients, evaluated at x = 2^bits."""
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def _unpack(v, bits):
    """Coefficients of the integer polynomial S with S(2^bits) = v, read as
    signed base-2^bits digits, lowest first.  Exact when every coefficient
    of S has absolute value below 2^(bits - 1)."""
    mask, half, base = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    out = []
    while v:
        d = v & mask
        v >>= bits
        if d >= half:  # a negative digit borrows one from the next
            d -= base
            v += 1
        out.append(d)
    return out


def interval_dp(p, name, upward, kernel, finish=None, by_gap=False):
    """Table over all elements of p, cached as `p._cache[name]`.

    Going up, the top gets ONE and every other z gets
    finish(z, sum over w > z of K(z, w) * table[w]); going down, the
    bottom gets ONE and z gets finish(z, sum over w < z of
    K(w, z) * table[w]).  So `kernel(x, y)` always sees the interval [x, y]
    in order; it returns the coefficient tuple of the interval's weight
    K(x, y), empty for a zero weight.  Without `finish` the sum itself is
    stored.

    The weight may depend on [x, y] only through its class: chi([x, y]),
    as the class id of the cached chi rows, or with `by_gap` only the rank
    gap rk y - rk x.  Going up, an element's neighbours are `above[z]` and
    their chi classes the row of z as it is, with no lookup per pair, and
    a gap table fills no chi row.  Going down, both come from the one
    cached transpose of the chi rows (`_chi_below`), so no table decodes
    `down_mask[z]`.  The kernel is asked once per class, at the first pair
    of that class, and every later pair of the class reuses its weight.
    Likewise `finish(z, s)` may depend on z only through rk z, as every
    finish here and in `invariants` does, so one call serves every element
    of that rank with that sum.

    Every weight and every finished entry is packed into one int, the
    polynomial evaluated at x = 2^B, so a comparable pair costs one read
    of its class's packed weight and one big-integer multiply-add.
    Evaluation at 2^B is a ring homomorphism, so the packed sum is S(2^B)
    exactly, and decoding it as signed base-2^B digits returns S when
    every |S_k| < 2^(B - 1).  Bound: for z with N neighbours,
    |S_k(z)| <= sum_w |K(z, w)|_1 * |table[w]|_inf <= N * max_k * max_t,
    where max_k is the largest L1 norm of a weight asked for so far and
    max_t the largest |coefficient| of a finished entry.  B starts at 64;
    after summing z, unless (N * max_k * max_t).bit_length() + 1 < B,
    B doubles until it holds, every weight and finished entry is repacked
    from its coefficient tuple and z is summed again.  Weights live only
    for one call.

    Under that bound packing is injective, so equal packed sums at one
    width are equal sums.  A dict local to the call maps (rk z, packed
    sum) to the finished entry and its packed form: only a pair not seen
    before is decoded, finished, repacked and counted in max_t, and every
    later element with that pair takes the same entry object.  A packed
    int means nothing at another width (t at B = 64 and the constant 2^64
    at B = 128 are one int), so the dict is emptied whenever B doubles.
    """
    table = p._cache.get(name)
    if table is not None:
        return table
    ranks = p.ranks
    if upward:
        end, ids, neighbours = p.top, reversed(p.order), p.above
        classes = None if by_gap else [_chi_row(p, x) for x in range(p.size)]
    else:
        end, ids = p.bottom, p.order
        neighbours, classes = _chi_below(p)
    n_classes = ranks[p.top] + 1 if by_gap else len(p._cache["chi_polys"])
    weights = [None] * n_classes  # class -> the kernel's coefficient tuple
    packs = [None] * n_classes  # class -> its weight at x = 2^bits
    table = [None] * p.size
    packed = [0] * p.size  # table[w] at x = 2^bits
    done = {}  # (rk z, packed sum) -> (entry, packed entry), at this width
    bits = 64
    max_k, max_t = 0, 1
    for z in ids:
        if z == end:
            table[z], packed[z] = ONE, 1
            continue
        ws = neighbours[z]
        if by_gap:
            rz = ranks[z]
            cs = [ranks[w] - rz for w in ws] if upward else [rz - ranks[w] for w in ws]
        else:
            cs = classes[z]
        while True:
            acc = 0
            for w, c in zip(ws, cs):
                pw = packs[c]
                if pw is None:
                    weight = weights[c] = kernel(z, w) if upward else kernel(w, z)
                    max_k = max(max_k, sum(map(abs, weight)))
                    pw = packs[c] = _pack(weight, bits)
                acc += pw * packed[w]
            need = (len(ws) * max_k * max_t).bit_length() + 1
            if need < bits:
                break
            while need >= bits:
                bits *= 2
            packs = [None if wt is None else _pack(wt, bits) for wt in weights]
            for w, val in enumerate(table):
                if val is not None:
                    packed[w] = _pack(val.coeffs, bits)
            done.clear()
        key = (ranks[z], acc)
        got = done.get(key)
        if got is None:
            s = Poly(_unpack(acc, bits))
            val = s if finish is None else finish(z, s)
            got = done[key] = val, _pack(val.coeffs, bits)
            max_t = max(max_t, max(map(abs, val.coeffs), default=0))
        table[z], packed[z] = got
    p._cache[name] = table
    return table


def rank_sum(p, table):
    """sum over elements F of x^rk(F) * table[F], one term per distinct
    (rank, entry) times its count."""
    counts = Counter(zip(p.ranks, table))
    return sum((v.shift(r) * c for (r, v), c in counts.items()), ZERO)


def _rank_gap_monomial(p):
    """Kernel x^(rk y - rk x)."""
    ranks = p.ranks
    return lambda x, y: (0,) * (ranks[y] - ranks[x]) + (1,)


def chow_table(p):
    """Per-element table of the Chow-type polynomial of each upper interval
    [z, top], via the symmetric-decomposition recursion: with
    S(x) = sum_{F > z} x^(rk F - rk z) * table[F], split S = a + b into its
    palindromic parts and take -b."""
    return interval_dp(
        p, "chow_table", True, _rank_gap_monomial(p),
        lambda z, s: -palindromic_decompose(s)[1], by_gap=True,
    )


def kl_table(p):
    """Per-element Kazhdan-Lusztig-type table for upper intervals [z, top]:
    with S(x) = sum_{F > z} x^(rk F - rk z) * table[F] and rho the interval
    rank, the coefficients are p_j = s_(rho - j) - s_j for j < rho / 2."""
    rk = p.ranks[p.top]

    def finish(z, s):
        rho = rk - p.ranks[z]
        return Poly([s.coeff(rho - j) - s.coeff(j) for j in range((rho + 1) // 2)])

    return interval_dp(p, "kl_table", True, _rank_gap_monomial(p), finish, by_gap=True)


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
