"""Generalized binomial Eulerian polynomials from inversion sequences.

For a vector s = (s_1, ..., s_n) of positive integers, the inversion
sequences are all e = (e_1, ..., e_n) with 0 <= e_i < s_i, padded on both
sides by e_0 = e_{n+1} = 0 and s_0 = s_{n+1} = 1.  A position i in [0, n]
is an ascent when e_i/s_i < e_{i+1}/s_{i+1} and a collision when the two
ratios are equal; comparisons are done by exact cross-multiplication.  The
polynomial of the vector is

    sum over e of (1 + x)^col(e) * x^asc(e).

It is computed by refining the sum by the last entry (the Haglund-Zhang
refinement), as a transfer matrix: f[a] is the polynomial of the prefixes
e_0..e_i with e_i = a.  Each padded pair contributes x on an ascent, 1 + x
on a collision and 1 on a descent, so with s = s_i and s' = s_{i+1}

    f'[b] = (sum_a f[a] - sum_{a s' < b s} f[a]) + x sum_{a s' <= b s} f[a],

two prefix sums over a.  The cost is O(sum s_i) polynomial additions, not
one term per sequence; the literal enumeration over all prod s_i sequences
is kept as the test oracle.

The consecutive-integer specialization s = (n-k+2, ..., n) reproduces the
augmented Chow polynomial of the uniform matroid U_{k,n}.  For k = 1 the
vector is empty: the one sequence is the padding e_0 = e_1 = 0, a collision,
so it gives x + 1.  Only k = 0 is a convention, giving 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .poly import ONE, ZERO, Poly, eulerian


def hz_poly(s):
    """Ascent/collision generating polynomial of the inversion sequences of s."""
    s = tuple(s)
    if any(v <= 0 for v in s):
        raise ValueError("entries of s must be positive integers")
    width = len(s) + 2  # n + 1 padded pairs, each raising the degree by at most 1
    f = [[1] + [0] * (width - 1)]  # e_0 = 0 with s_0 = 1
    prev = 1
    for cur in s + (1,):
        prefix = [[0] * width]  # prefix[j] = f[0] + ... + f[j-1]
        for row in f:
            prefix.append([p + c for p, c in zip(prefix[-1], row)])
        total = prefix[-1]
        f = []
        for b in range(cur):
            below = prefix[-(-b * prev // cur)]  # the a with a cur < b prev
            upto = prefix[b * prev // cur + 1]  # the a with a cur <= b prev
            f.append([t - lo + up for t, lo, up in zip(total, below, [0] + upto)])
        prev = cur
    return Poly(f[0])


@lru_cache(maxsize=None)
def hz_uniform(k, n):
    """The polynomial of s = (n-k+2, ..., n); equals the augmented Chow
    polynomial of U_{k,n}.  k = 1 gives x + 1, the value of the empty vector;
    k = 0 gives 1 by convention."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return ONE
    return hz_poly(range(n - k + 2, n + 1))


def hz_recursion_check(k, n):
    """Verify the deletion-style recursion of the inversion-sequence polynomials
    E(k,n) = E(k-1,n-1) + x sum_{j<k} C(n-1,j) A_j(x) E(k-1-j, n-1-j)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rhs = hz_uniform(k - 1, n - 1)
    acc = ZERO
    for j in range(k):
        acc = acc + comb(n - 1, j) * eulerian(j) * hz_uniform(k - 1 - j, n - 1 - j)
    return hz_uniform(k, n) == rhs + acc.shift(1)


def search_s_vectors(target, length):
    """All s in Z_{>0}^length with hz_poly(s) == target, exhaustively.

    Finiteness: every inversion sequence contributes at least 1 to the
    evaluation at x = 1, so prod(s) <= target(1); only vectors within that
    product bound can match, and all of them are enumerated.
    """
    bound = target(1)
    hits = []
    stack = [((), 1)]
    while stack:
        prefix, prod_so_far = stack.pop()
        if len(prefix) == length:
            if hz_poly(prefix) == target:
                hits.append(prefix)
            continue
        v = 1
        while prod_so_far * v <= bound:
            stack.append((prefix + (v,), prod_so_far * v))
            v += 1
    hits.sort()
    return hits
