"""Symmetric-group equivariant Kazhdan-Lusztig and Z-polynomials of uniform
matroids.

Irreducible representations of the symmetric group on m letters are indexed
by partitions of m; a virtual representation is a signed integer combination
of them, and a graded virtual representation assigns one to each degree.
The equivariant Kazhdan-Lusztig polynomial of U_{k,n} has an explicit
partition-indexed coefficient formula; the equivariant Z-polynomial is
assembled from it with one flat orbit per rank, using induction of the
trivial representation along a Pieri rule.  Applying dimensions
coefficientwise recovers the ordinary polynomials, which is how all of this
is cross-checked.

Only symmetric-group actions on uniform matroids are supported; general
group actions are out of scope.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .poly import Poly


def _as_partition(parts):
    p = tuple(int(v) for v in parts if v)
    if any(v <= 0 for v in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("partition must be weakly decreasing and positive")
    return p


@lru_cache(maxsize=None)
def specht_dim(parts):
    """Dimension of the irreducible indexed by a partition of m into k parts,
    by the Frobenius formula m! prod_{i<j} (l_i - l_j) / prod_i l_i! with
    l_i = lam_i + k - i; it equals the hook length formula and needs no
    conjugate partition."""
    lam = _as_partition(parts)
    k = len(lam)
    ls = [v + k - i for i, v in enumerate(lam, 1)]
    num, den = factorial(sum(lam)), 1
    for i, a in enumerate(ls):
        den *= factorial(a)
        for b in ls[i + 1:]:
            num *= a - b
    return num // den


class VirtualRep:
    """Signed multiset of partitions of a common size."""

    __slots__ = ("size", "mult")

    def __init__(self, size, mult=()):
        self.size = size
        data = {}
        items = mult.items() if isinstance(mult, dict) else mult
        for lam, c in items:
            lam = _as_partition(lam)
            if sum(lam) != size:
                raise ValueError("partition %r is not of size %d" % (lam, size))
            if c:
                data[lam] = data.get(lam, 0) + c
        self.mult = {k: v for k, v in data.items() if v}

    @classmethod
    def irreducible(cls, parts):
        lam = _as_partition(parts)
        return cls(sum(lam), {lam: 1})

    def __add__(self, other):
        if self.size != other.size:
            raise ValueError("cannot add representations of different groups")
        out = dict(self.mult)
        for k, v in other.mult.items():
            out[k] = out.get(k, 0) + v
        return VirtualRep(self.size, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, c):
        return VirtualRep(self.size, {k: c * v for k, v in self.mult.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, VirtualRep)
            and self.size == other.size
            and self.mult == other.mult
        )

    def __hash__(self):
        return hash((self.size, frozenset(self.mult.items())))

    def is_honest(self):
        return all(c >= 0 for c in self.mult.values())

    def dim(self):
        return sum(c * specht_dim(lam) for lam, c in self.mult.items())

    def items(self):
        return sorted(self.mult.items(), key=lambda kv: kv[0], reverse=True)

    def __repr__(self):
        if not self.mult:
            return "0"
        parts = []
        for lam, c in self.items():
            body = "V%s" % (list(lam),)
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%d*%s" % (c, body))
        return " + ".join(parts).replace("+ -", "- ")


def restrict_once(rep):
    """Branching: restrict from m letters to m - 1 by removing corner boxes."""
    if rep.size < 1:
        raise ValueError("cannot restrict below the trivial group")
    out = {}
    for lam, c in rep.mult.items():
        for i, row in enumerate(lam):
            if i == len(lam) - 1 or lam[i + 1] < row:
                mu = tuple(v - 1 if j == i else v for j, v in enumerate(lam) if not (j == i and v == 1))
                out[mu] = out.get(mu, 0) + c
    return VirtualRep(rep.size - 1, out)


def restrict_to(rep, target):
    """Iterated branching down to a symmetric group on `target` letters."""
    if target < 1 or target > rep.size:
        raise ValueError("restriction target must be between 1 and the group size")
    while rep.size > target:
        rep = restrict_once(rep)
    return rep


def _horizontal_strips(lam, r):
    """Partitions mu obtained from lam by adding a horizontal strip of r boxes."""
    lam = list(lam)
    rows = len(lam) + 1
    out = []

    def build(i, remaining, current):
        if i == rows:
            if remaining == 0:
                out.append(tuple(v for v in current if v))
            return
        lo = lam[i] if i < len(lam) else 0
        hi = lam[i - 1] if i > 0 else lo + remaining
        for add in range(0, min(hi - lo, remaining) + 1):
            build(i + 1, remaining - add, current + [lo + add])

    build(0, r, [])
    return out


def pieri_induce_trivial(parts, r):
    """Induction of trivial x V_lambda from S_r x S_m up to S_{m+r}:
    the sum of V_mu over mu/lambda a horizontal r-strip."""
    if r < 0:
        raise ValueError("strip size must be nonnegative")
    lam = _as_partition(parts)
    m = sum(lam)
    return VirtualRep(m + r, {mu: 1 for mu in _horizontal_strips(lam, r)})


def induce_trivial_rep(rep, r):
    """Multiplicity-linear extension of the Pieri induction."""
    out = VirtualRep(rep.size + r)
    for lam, c in rep.mult.items():
        out = out + c * pieri_induce_trivial(lam, r)
    return out


class GradedVirtualRep:
    """Degree-indexed virtual representations of a common symmetric group."""

    __slots__ = ("size", "degrees")

    def __init__(self, size, degrees=()):
        self.size = size
        data = {}
        items = degrees.items() if isinstance(degrees, dict) else degrees
        for d, rep in items:
            if rep.size != size:
                raise ValueError("degree %d carries the wrong group size" % d)
            if rep.mult:
                data[d] = rep
        self.degrees = data

    def coeff(self, d):
        rep = self.degrees.get(d)
        return VirtualRep(self.size) if rep is None else rep

    @property
    def degree(self):
        return max(self.degrees, default=0)

    def dim_poly(self):
        reps = self.degrees
        return Poly([reps[d].dim() if d in reps else 0 for d in range(self.degree + 1)])

    def is_palindromic(self, d=None):
        if d is None:
            d = self.degree
        return all(self.coeff(i) == self.coeff(d - i) for i in range(d + 1))

    def restrict_to(self, target):
        return GradedVirtualRep(
            target, {d: restrict_to(rep, target) for d, rep in self.degrees.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedVirtualRep)
            and self.size == other.size
            and self.degrees == other.degrees
        )

    def __repr__(self):
        top = self.degree
        return " + ".join(
            "(%r) x^%d" % (self.coeff(d), d) for d in range(top + 1)
        )


def eq_kl_uniform(k, n):
    """Equivariant Kazhdan-Lusztig polynomial of U_{k,n} under the full
    symmetric group, by the explicit coefficient formula: degree 0 is the
    trivial representation and for 0 < i < k/2 the coefficient is the sum of
    V over shapes [n-2i-b+1, b+1, 2, ..., 2] (with i-1 twos) for
    1 <= b <= min(n-k, k-2i).  Each shape is a partition, since 2b <= n - 2i
    makes its first part at least its second, and distinct b give distinct
    shapes, so every multiplicity is 1."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    degrees = {0: VirtualRep.irreducible([n])}
    i = 1
    while 2 * i < k:
        degrees[i] = VirtualRep(n, {
            (n - 2 * i - b + 1, b + 1) + (2,) * (i - 1): 1
            for b in range(1, min(n - k, k - 2 * i) + 1)
        })
        i += 1
    return GradedVirtualRep(n, degrees)


def eq_z_uniform(k, n):
    """Equivariant Z-polynomial of U_{k,n}: one flat orbit per rank r < k
    (the r-subsets, inducing from S_r x S_{n-r}) plus the top flat."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    acc = {}

    def add(d, rep):
        acc[d] = acc.get(d, VirtualRep(n)) + rep

    for r in range(k):
        p = eq_kl_uniform(k - r, n - r)
        for d, rep in p.degrees.items():
            add(r + d, induce_trivial_rep(rep, r))
    add(k, VirtualRep.irreducible([n]))
    return GradedVirtualRep(n, acc)


def gamma_decompose_eq(graded, d=None):
    """Equivariant gamma decomposition: the unique virtual representations
    Gamma_i with F = sum_i Gamma_i x^i (1+x)^(d-2i); Gamma-positive means
    every Gamma_i is honest."""
    if d is None:
        d = graded.degree
    if not graded.is_palindromic(d):
        raise ValueError("equivariant gamma decomposition needs a palindromic input")
    gammas = []
    for i in range(d // 2 + 1):
        g = graded.coeff(i)
        for j in range(i):
            g = g - comb(d - 2 * j, i - j) * gammas[j]
        gammas.append(g)
    return gammas
