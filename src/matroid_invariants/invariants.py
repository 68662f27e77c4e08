"""Engines for the four polynomial invariants of a matroid: the Chow
polynomial (Hilbert series of the Chow ring), the augmented Chow polynomial,
the Kazhdan-Lusztig polynomial and the Z-polynomial.

Every invariant is implemented by several genuinely different formulas
(chain sums, characteristic-polynomial convolutions, the intrinsic
symmetric-decomposition recursion, incidence-algebra inverse formulas,
deletion recursions from semi-small decompositions, and closed forms for
uniform, paving and braid matroids).  Cross-checking them against each
other is the central correctness property of this package; `invariant_report`
runs every applicable method and reports agreement.

The lattice engines are kernels over `poset.interval_dp`, one pass over the
comparable pairs of the lattice of flats per table; they differ only in the
kernel of an interval (reduced characteristic polynomial, Moebius number
times 1 + ... + x^rank, characteristic polynomial, rank-gap factor), given
as a coefficient tuple and asked once per chi class or rank gap, and in
the finishing step.

The deletion engines (semismall, bv_deletion) take the same lattice and
recurse over flat-set minors read off its flats: a minor is the key
(n, levels) of its flats by rank, which is also the memo key, so the
recursions scan no bases, build no lattice of a minor and share no
interval table with the lattice engines.  The two semismall engines share
one recursion, for uH or H, whose contraction factors are always uH.
bv_deletion reads `tau` of a contraction off the P that its own recursion
computes for it.  Both answer a free key, whose rank equals its size, from
that size at entry: `_free_semismall` gives uH and H, and (P, Z) is
(1, (1+x)^n).  Neither recursion builds a minor of rank at most 4:
`_low_rank` gives its values, and their sources, from its numbers a, l, h
of flats of ranks 1, 2, 3 and s, t of pairs (atom, rank-3 flat) and (atom,
rank-2 flat) with the atom inside; in rank 3, uH = 1 + (l+1)x + x^2,
H = 1 + (a+l+1)(x + x^2) + x^3, P = 1 + (l-a)x, Z = 1 + l(x + x^2) + x^3;
in rank 4, with c = l + h + 1, uH = 1 + c(x + x^2) + x^3, P = 1 + (h-a)x,
H = 1 + (c+a)(x + x^3) + (c+a+l+s)x^2 + x^4, Z = 1 + h(x + x^3) +
(l+s-t)x^2 + x^4.  `_low_minor` counts them on the parent's key.

Conventions for matroids with loops, one rule applied in `compute_invariant`:
uH and P are 0 with loops before any method runs; every other engine and
every applicability test sees the loopless core.  So H and Z are those of
the matroid with its loops deleted, and a lattice passed along with such a
matroid is that of its loopless core.  The characteristic polynomial
vanishes with loops too.

Method identifiers (stable strings, also used by the CLI), in the order of
the `METHODS` registry:

==============  ==============================================================
kind            methods
==============  ==============================================================
chow            chains, char_conv, intrinsic, incidence_inv, semismall,
                uniform_closed, paving, braid_closed
augchow         chains, contraction_conv, alt_conv, mobius_conv, intrinsic,
                incidence_inv, semismall, uniform_closed, paving,
                coloop_closed
kl              epw, intrinsic, bv_deletion, uniform_fast
z               conv_def, bv_deletion
==============  ==============================================================

chains          sum over chains of flats of products of truncated geometric
                factors, one per rank gap, computed as a DP over the flats
char_conv       uH_M = sum over nonempty flats of chibar(M|F) * uH(M/F)
intrinsic       symmetric a/b decomposition of S(x) = sum x^rk(F) uH(M/F)
incidence_inv   uH_M = sum over proper flats of uH(M|F) * chibar(M/F); the
                augmented variant uses Moebius numbers mu(F, E)
contraction_conv  H_M = sum over flats of x^rk(F) * uH(M/F)
alt_conv        H_M = 1 + x * sum over proper flats of uH(M/F)
mobius_conv     H_M = -sum over nonempty flats of mu(0, F)(1+...+x^rk(F)) H(M/F)
semismall       deletion recursion from the semi-small decomposition
uniform_closed  closed forms in derangement / Eulerian polynomials
paving          inclusion-exclusion over stressed hyperplanes
braid_closed    chain formula aggregated by Stirling numbers of 2nd kind
coloop_closed   closed form for a uniform matroid plus a coloop
epw             characteristic-polynomial recursion defining P_M
conv_def        Z_M = sum over flats of x^rk(F) * P(M/F)
bv_deletion     single-element deletion recursion with tau-invariants
uniform_fast    rank-aggregated epw recursion, memoized on (k, n)
==============  ==============================================================
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache, partial
from math import comb

from .matroid import squeeze, uniform
from .poly import (
    ONE,
    Poly,
    X,
    ZERO,
    binomial_eulerian,
    derangement,
    eulerian,
    gamma_vector,
    NotPalindromic,
    ones,
    stirling2,
)
from .poset import (
    bergman_f_h,
    interval_char_poly,
    interval_chibar,
    interval_dp,
    kls_H_general,
    kls_P_general,
    kls_uH_general,
    kls_Z_general,
    lattice_of_flats,
    mobius,
    rank_sum,
)

DELETION_ENGINE_LIMIT = 9  # semismall / bv_deletion are listed up to a loopless core this size


def _loopless_core(m):
    loops = m.loops()
    return m.delete(loops) if loops else m


def _lat(m, lattice=None):
    """The lattice of flats of m's loopless core, unless one is given."""
    return lattice if lattice is not None else lattice_of_flats(_loopless_core(m))


# -- chain sums -------------------------------------------------------------------


def _chain_table(lat):
    """u[F] = sum over chains of flats F = F0 < F1 < ... of the products of
    x + ... + x^(gap - 1) over their rank gaps, by the DP
    u[F] = 1 + sum_{G > F} (x + ... + x^(rk G - rk F - 1)) u[G].  Gaps of 1
    give a zero factor and are skipped."""
    ranks = lat.ranks
    return interval_dp(
        lat, "chains", True, lambda f, g: ones(ranks[g] - ranks[f] - 1).shift(1).coeffs,
        lambda f, s: ONE + s, by_gap=True,
    )


def chow_chains(m, lattice=None):
    """Chow polynomial as a sum over chains of flats starting at the empty
    set, each chain weighted by the product of x(1-x^(gap-1))/(1-x) over its
    rank gaps."""
    return compute_invariant(m, "chow", "chains", None, lattice)


def aug_chow_chains(m, lattice=None):
    """Augmented Chow polynomial: 1 plus a sum over chains of nonempty
    flats, with leading factor x + ... + x^rk(F0)."""
    return compute_invariant(m, "augchow", "chains", None, lattice)


def _aug_chow_chains(lat):
    counts = Counter(zip(lat.ranks, _chain_table(lat)))
    return ONE + sum((ones(r).shift(1) * v * c for (r, v), c in counts.items() if r), ZERO)


# -- convolution engines --------------------------------------------------------


def _chibar_kernel(lat):
    return lambda x, y: interval_chibar(lat, x, y).coeffs


def _mobius_table(lat, name, upward):
    """-sum of mu(x, y)(1 + ... + x^(rk y - rk x)) times the table at the
    far end, over the intervals [x, y] at each flat, going up or down."""
    ranks = lat.ranks
    return interval_dp(
        lat, name, upward, lambda x, y: (mobius(lat, x, y),) * (ranks[y] - ranks[x] + 1), lambda z, s: -s,
    )


def _chow_upper_table(lat):
    """uH of every upper interval [F, top], by the reduced-characteristic
    convolution uH[F] = sum_{G > F} chibar([F, G]) * uH[G]."""
    return interval_dp(lat, "chow_upper", True, _chibar_kernel(lat))


def chow_char_conv(m, lattice=None):
    """Chow polynomial by the reduced-characteristic-polynomial convolution."""
    return compute_invariant(m, "chow", "char_conv", None, lattice)


def chow_intrinsic(m, lattice=None):
    """Chow polynomial by the intrinsic symmetric-decomposition recursion."""
    return compute_invariant(m, "chow", "intrinsic", None, lattice)


def aug_chow_intrinsic(m, lattice=None):
    """Augmented Chow polynomial by the intrinsic recursion."""
    return compute_invariant(m, "augchow", "intrinsic", None, lattice)


def chow_incidence_inv(m, lattice=None):
    """Chow polynomial by the two-sided-inverse formula
    uH_M = sum_{F != E} uH(M|F) * chibar(M/F), run as a DP over lower
    intervals."""
    return compute_invariant(m, "chow", "incidence_inv", None, lattice)


def aug_chow_contraction_conv(m, lattice=None):
    """H_M = sum over flats of x^rk(F) * uH(M/F)."""
    return compute_invariant(m, "augchow", "contraction_conv", None, lattice)


def aug_chow_alt_conv(m, lattice=None):
    """H_M = 1 + x * sum over proper flats of uH(M/F)."""
    return compute_invariant(m, "augchow", "alt_conv", None, lattice)


def _aug_chow_alt_conv(lat):
    table = _chow_upper_table(lat)
    counts = Counter(v for f, v in enumerate(table) if f != lat.top)
    return ONE + sum((v * c for v, c in counts.items()), ZERO).shift(1)


def aug_chow_mobius_conv(m, lattice=None):
    """H_M = -sum over nonempty flats of mu(0, F)(1 + ... + x^rk(F)) H(M/F)."""
    return compute_invariant(m, "augchow", "mobius_conv", None, lattice)


def aug_chow_incidence_inv(m, lattice=None):
    """H_M = -sum_{F != E} H(M|F) * mu(F, E)(1 + ... + x^(rk M - rk F))."""
    return compute_invariant(m, "augchow", "incidence_inv", None, lattice)


# -- flat-set minors ------------------------------------------------------------
#
# The deletion engines recurse over minors M - i, M/A and M|F of one matroid,
# and every invariant they compute depends only on the lattice of flats.  So
# a minor is its flat set, the hashable key (n, levels): levels[r] is the
# increasing tuple of the masks of the rank-r flats on the elements
# 0, ..., n-1.  The first key is read off the one lattice an engine is given
# or builds; every minor after it is a pass over the flats of its parent,
# with no bases scan and no lattice build.


def _flat_key(lat):
    """Flat-set key of a lattice of flats; its top flat is the ground set."""
    flats = lat.flats
    return flats[lat.top].bit_length(), tuple(
        tuple(flats[j] for j in ids) for ids in lat.by_rank
    )


def _delete(key, i):
    """M - i: the flats F - i, each at the least rank of the flats F it comes
    from.  Deleting a coloop lowers the rank, so a trailing empty level is
    dropped."""
    n, levels = key
    bit = 1 << i
    keep = ((1 << n) - 1) ^ bit
    seen = set()
    out = []
    for flats_r in levels:
        level = []
        for g in squeeze([f & ~bit for f in flats_r], keep):
            if g not in seen:
                seen.add(g)
                level.append(g)
        out.append(tuple(sorted(level)))
    if not out[-1]:
        out.pop()
    return n - 1, tuple(out)


def _contract(key, a, ra):
    """M/A for a flat A of rank ra: the flats G - A over the flats G
    containing A, at rank rk G - ra."""
    n, levels = key
    keep = ((1 << n) - 1) ^ a
    return n - a.bit_count(), tuple(
        tuple(squeeze([g ^ a for g in flats_r if g & a == a], keep)) for flats_r in levels[ra:]
    )


def _restrict(key, f, rf):
    """M|F for a flat F of rank rf: the flats inside F."""
    levels = key[1]
    return f.bit_count(), tuple(
        tuple(squeeze([g for g in flats_r if not g & ~f], f)) for flats_r in levels[: rf + 1]
    )


def _smallest_non_coloop(key):
    """The least element that is not a coloop of a key that is not free:
    i is a coloop iff E - i is a hyperplane."""
    n, levels = key
    full = (1 << n) - 1
    rest = full
    for h in levels[-2]:
        if h.bit_count() == n - 1:
            rest ^= full ^ h
    return (rest & -rest).bit_length() - 1


def _s_families(key, i):
    """(rk F, F) for the flats F avoiding i with F + i a flat; i is never a
    coloop here, so E - i is not a flat and each F lies strictly inside it."""
    levels = key[1]
    bit = 1 << i
    out = []
    for r in range(len(levels) - 1):
        upper = set(levels[r + 1])
        out.extend((r, f) for f in levels[r] if not f & bit and f | bit in upper)
    return out


@lru_cache(maxsize=None)
def _low_rank(k, a=0, l=0, h=0, s=0, t=0):
    """(uH, H, P, Z) of a loopless matroid of rank k <= 4 with a, l, h
    flats of ranks 1, 2, 3, s pairs (atom, rank-3 flat) and t pairs (atom,
    rank-2 flat) with the atom inside.  Rank 0: all four are 1; rank 1:
    uH = P = 1, H = Z = 1 + x; rank 2: uH = 1 + x, P = 1,
    H = 1 + (a+1)x + x^2, Z = 1 + ax + x^2.  Rank 3: uH = 1 + (l+1)x + x^2,
    as dim A^1 = #(nonempty proper flats) - a + 1; P = 1 + (l-a)x, whose
    linear coefficient is #hyperplanes - #atoms (Elias-Proudfoot-Wakefield);
    H and Z are the sums over flats F of x^rk F uH(M/F) and x^rk F P(M/F).
    Rank 4, c = l + h + 1: uH = 1 + c(x + x^2) + x^3, P = 1 + (h-a)x by
    the same facts, H and Z by the same sums: M/A for an atom A has the t_A
    lines through A as atoms and the s_A rank-3 flats through A as lines."""
    if k == 0:
        return ONE, ONE, ONE, ONE
    if k == 1:
        return ONE, ONE + X, ONE, ONE + X
    if k == 2:
        return ONE + X, Poly((1, a + 1, 1)), ONE, Poly((1, a, 1))
    if k == 3:
        b = a + l + 1
        return Poly((1, l + 1, 1)), Poly((1, b, b, 1)), Poly((1, l - a)), Poly((1, l, l, 1))
    c = l + h + 1
    b = c + a
    return (Poly((1, c, c, 1)), Poly((1, b, b + l + s, b, 1)), Poly((1, h - a)),
            Poly((1, h, l + s - t, h, 1)))


def _low_minor(levels, f, lo, c, up, uh=False):
    """`_low_rank` of the minor M/f (up) or M|f of rank c <= 4, whose flats
    of ranks 1, 2, 3 are the flats of ranks lo, lo + 1, lo + 2 containing f,
    or inside f.  uH reads no rank-1 count, so with uh true none is made.
    s and t are counted on M|f only, as M/f is read for uH or P: a flat
    holds as many of its atoms (parallel classes) as of their least bits."""
    def flats(j):
        return [g for g in levels[lo + j - 1] if (g & f if up else g | f) == f]

    atoms = flats(1) if c >= 2 and not uh else ()
    if c <= 2:
        return _low_rank(c, len(atoms))
    lines = flats(2)
    if c == 3:
        return _low_rank(3, len(atoms), len(lines))
    hyps = flats(3)
    s = t = 0
    if atoms and not up:
        least = 0
        for g in atoms:
            least |= g & -g
        s = sum((g & least).bit_count() for g in hyps)
        t = sum((g & least).bit_count() for g in lines)
    return _low_rank(4, len(atoms), len(lines), len(hyps), s, t)


# -- semi-small deletion engines ------------------------------------------------


def chow_semismall(m, lattice=None):
    """Chow polynomial by the quadratic deletion recursion coming from the
    semi-small decomposition; the all-coloop (free matroid) case uses the
    coloop variant of the decomposition."""
    return compute_invariant(m, "chow", "semismall", None, lattice)


def aug_chow_semismall(m, lattice=None):
    """Augmented Chow polynomial by the semi-small deletion recursion."""
    return compute_invariant(m, "augchow", "semismall", None, lattice)


def _semismall(key, aug, memo):
    """uH (aug false) or H (aug true) of a flat-set minor by
    f(M) = f(M - i) + x sum_F uH(M/(F+i)) f(M|F) over the flats F of
    `_s_families`: nonempty F for uH, every F for H.  memo is one dict per
    polynomial, (uH, H).  A minor of rank at most 4 is read off `_low_minor`,
    at entry and before a child is built, so no such key is made: M - i
    keeps rank k, M/(F+i) has rank k - rk F - 1 and M|F rank rk F.  A free
    key, of rank equal to its size, is answered at entry by
    `_free_semismall` on its size.  Equal terms are summed once, by
    (uH(M/(F+i)), f(M|F))."""
    n, levels = key
    k = len(levels) - 1
    if k <= 4:
        return _low_minor(levels, (1 << n) - 1, 1, k, False, not aug)[aug]
    if k == n:
        return _free_semismall(n, aug)
    table = memo[aug]
    val = table.get(key)
    if val is not None:
        return val
    i = _smallest_non_coloop(key)
    bit = 1 << i
    terms = Counter()
    for r, f in _s_families(key, i):
        if f or aug:
            c, g = k - r - 1, f | bit
            con = (_low_minor(levels, g, r + 2, c, True, True)[0] if c <= 4
                   else _semismall(_contract(key, g, r + 1), False, memo))
            res = (_low_minor(levels, f, 1, r, False, not aug)[aug] if r <= 4
                   else _semismall(_restrict(key, f, r), aug, memo))
            terms[con, res] += 1
    extra = sum((t * con * res for (con, res), t in terms.items()), ZERO)
    val = _semismall(_delete(key, i), aug, memo) + extra.shift(1)
    table[key] = val
    return val


@lru_cache(maxsize=None)
def _free_semismall(n, aug):
    """uH (aug false) or H (aug true) of the free matroid B_n by the coloop
    variant of the recursion: splitting off the last coloop,
    f(B_n) = (1 + x) f(B_(n-1)) + x sum_c C(n-1, c) uH(B_(n-1-c)) f(B_c),
    over c >= 1 for uH and c >= 0 for H.  uH = H = 1 on B_0, and uH = 1,
    H = 1 + x on B_1."""
    if n <= 1:
        return ONE + X if n and aug else ONE
    n -= 1
    extra = sum((comb(n, c) * _free_semismall(n - c, False) * _free_semismall(c, aug)
                 for c in range(0 if aug else 1, n)), ZERO)
    return (ONE + X) * _free_semismall(n, aug) + extra.shift(1)


# -- closed forms: uniform matroids ---------------------------------------------

# uH and H of U_{k,n} and of U_{k,n} plus a coloop are memoized on (k, n):
# the paving closed forms ask for the same few values for every lambda.


@lru_cache(maxsize=None)
def chow_uniform(k, n):
    """uH of the uniform matroid U_{k,n}:
    sum_{j<k} C(n,j) d_j(x) (1 + x + ... + x^(k-1-j))."""
    _check_uniform_args(k, n)
    if k == 0:
        return ONE if n == 0 else ZERO
    acc = ZERO
    for j in range(k):
        acc = acc + comb(n, j) * derangement(j) * ones(k - j)
    return acc


@lru_cache(maxsize=None)
def aug_chow_uniform(k, n):
    """H of U_{k,n}: 1 + x sum_{j<k} C(n,j) A_j(x) (1 + ... + x^(k-1-j))."""
    _check_uniform_args(k, n)
    acc = ZERO
    for j in range(k):
        acc = acc + comb(n, j) * eulerian(j) * ones(k - j)
    return ONE + acc.shift(1)


def chibar_uniform(k, n):
    """Reduced characteristic polynomial of U_{k,n} in closed form."""
    _check_uniform_args(k, n)
    if k == 0:
        if n == 0:
            return Poly((-1,))
        raise ValueError("U_{0,n} with n > 0 has loops")
    out = [0] * k
    for j in range(k):
        out[k - 1 - j] = (-1) ** j * comb(n - 1, j)
    return Poly(out)


def chow_uniform_inverse(k, n):
    """uH of U_{k,n} by the alternating incidence-inverse formula
    sum_{j<k} C(n,j) A_j(x) chibar(U_{k-j,n-j})."""
    _check_uniform_args(k, n)
    if k == 0:
        return ONE if n == 0 else ZERO
    acc = ZERO
    for j in range(k):
        acc = acc + comb(n, j) * eulerian(j) * chibar_uniform(k - j, n - j)
    return acc


def aug_chow_uniform_inverse(k, n):
    """H of U_{k,n} by the alternating Moebius formula."""
    _check_uniform_args(k, n)
    if k == 0:
        return ONE
    acc = ZERO
    for j in range(k):
        sign = (-1) ** (k - 1 - j)
        c = comb(n, j) * comb(n - 1 - j, k - 1 - j)
        acc = acc + (sign * c) * binomial_eulerian(j) * ones(k - j + 1)
    return acc


@lru_cache(maxsize=None)
def chow_uniform_coloop(k, n):
    """uH of U_{k,n} plus a coloop:
    (1+x) uH(U_{k,n}) + x sum_{j=1}^{k-1} C(n,j) uH(U_{k-j,n-j}) A_j(x)."""
    _check_uniform_args(k, n)
    if k == 0:
        return ONE if n == 0 else ZERO
    acc = (ONE + X) * chow_uniform(k, n)
    extra = ZERO
    for j in range(1, k):
        extra = extra + comb(n, j) * chow_uniform(k - j, n - j) * eulerian(j)
    return acc + extra.shift(1)


@lru_cache(maxsize=None)
def aug_chow_uniform_coloop(k, n):
    """H of U_{k,n} plus a coloop:
    (1+x) H(U_{k,n}) + x sum_{j=0}^{k-1} C(n,j) uH(U_{k-j,n-j}) At_j(x)."""
    _check_uniform_args(k, n)
    acc = (ONE + X) * aug_chow_uniform(k, n)
    extra = ZERO
    for j in range(k):
        extra = extra + comb(n, j) * chow_uniform(k - j, n - j) * binomial_eulerian(j)
    return acc + extra.shift(1)


def _check_uniform_args(k, n):
    if k < 0 or n < 0 or k > n:
        raise ValueError("need 0 <= k <= n")


# -- closed forms: paving matroids ------------------------------------------------


def _paving_form(uniform, coloop, k, n, counts):
    """f of a paving matroid of rank k on n elements from its stressed
    hyperplane counts {h: lambda_h}:
    f(U_{k,n}) - sum_h lambda_h (f(U_{k,h+1}) - f(U_{k-1,h} + coloop)),
    where `uniform(k, n)` and `coloop(k, n)` give f on U_{k,n} and on
    U_{k,n} plus a coloop."""
    if k < 1:
        raise ValueError("paving formula needs rank at least 1")
    for h, lam in counts.items():
        if lam < 0:
            raise ValueError("stressed hyperplane counts must be nonnegative")
        if h < k and lam:
            raise ValueError("stressed hyperplanes entering the formula have size >= rank")
    acc = uniform(k, n)
    for h, lam in counts.items():
        if lam:
            acc = acc - lam * (uniform(k, h + 1) - coloop(k - 1, h))
    return acc


def chow_paving(k, n, counts):
    """uH of a paving matroid of rank k on n elements from its stressed
    hyperplane counts {h: lambda_h}, by `_paving_form`."""
    return _paving_form(chow_uniform, chow_uniform_coloop, k, n, counts)


def aug_chow_paving(k, n, counts):
    """H of a paving matroid of rank k on n elements from its stressed
    hyperplane counts {h: lambda_h}, by `_paving_form`."""
    return _paving_form(aug_chow_uniform, aug_chow_uniform_coloop, k, n, counts)


def chow_of_paving(m):
    """Fast path: uH of a paving matroid via its stressed hyperplane counts."""
    return compute_invariant(m, "chow", "paving")


def aug_chow_of_paving(m):
    """Fast path: H of a matroid whose loopless core is paving."""
    return compute_invariant(m, "augchow", "paving")


# -- closed form: braid matroids ---------------------------------------------------


def chow_braid(n):
    """Chow polynomial of the graphic matroid of the complete graph on n
    vertices: the chain formula aggregated over the ranks of the chain,
    weighted by Stirling numbers of the second kind, as a DP over the
    previous rank p of the chain,
    h[p] = 1 + sum_{b >= p+2} S(n-p, n-b) (x + ... + x^(b-p-1)) h[b],
    with answer h[0].  Rank gaps of 1 give a zero factor and are skipped."""
    if n < 1:
        raise ValueError("need at least one vertex")
    h = [ONE] * n
    for p in range(n - 3, -1, -1):
        acc = ONE
        for b in range(p + 2, n):
            acc = acc + stirling2(n - p, n - b) * ones(b - p - 1).shift(1) * h[b]
        h[p] = acc
    return h[0]


# -- Kazhdan-Lusztig and Z engines ---------------------------------------------------


def _kl_truncate(s, rho):
    """[x^(rho - j)] s for j < rho / 2: the Kazhdan-Lusztig polynomial of
    rank rho read off its characteristic-polynomial recursion."""
    return Poly([s.coeff(rho - j) for j in range((rho + 1) // 2)])


def _kl_upper_table(lat):
    """Kazhdan-Lusztig polynomial of every upper interval [F, top] by the
    characteristic-polynomial recursion: with
    R(x) = sum_{G > F} chi([F,G]) P[G] and rho the interval rank,
    P[F] has coefficients [x^(rho - j)] R for j < rho/2."""
    rk = lat.ranks[lat.top]
    return interval_dp(
        lat, "kl_upper", True,
        lambda x, y: interval_char_poly(lat, x, y).coeffs,
        lambda z, s: _kl_truncate(s, rk - lat.ranks[z]),
    )


def kl_poly(m, method="epw", lattice=None):
    """Kazhdan-Lusztig polynomial of a matroid (zero when there are loops),
    by `compute_invariant`."""
    return compute_invariant(m, "kl", method, None, lattice)


def z_poly(m, method="conv_def", lattice=None):
    """Z-polynomial of a matroid (loops are deleted first), by
    `compute_invariant`."""
    return compute_invariant(m, "z", method, None, lattice)


def tau(m, lattice=None):
    """Coefficient of x^((rk-1)/2) in P_M for odd rank; 0 for even rank."""
    if m.rank % 2 == 0:
        return 0
    return kl_poly(m, "epw", lattice).coeff((m.rank - 1) // 2)


@lru_cache(maxsize=None)
def kl_uniform(k, n):
    """P of U_{k,n} by the rank-aggregated characteristic recursion
    x^k P(1/x) = sum_{r<k} C(n,r)(x-1)^r P(U_{k-r,n-r}) + chi(U_{k,n}),
    memoized on (k, n)."""
    _check_uniform_args(k, n)
    if k == 0:
        return ONE if n == 0 else ZERO
    acc = (X - ONE) * chibar_uniform(k, n)
    for r in range(1, k):
        acc = acc + comb(n, r) * (X - ONE) ** r * kl_uniform(k - r, n - r)
    return _kl_truncate(acc, k)


def z_uniform(k, n):
    """Z of U_{k,n} aggregated over flat ranks, via `kl_uniform`."""
    _check_uniform_args(k, n)
    acc = ONE.shift(k)
    for r in range(k):
        acc = acc + comb(n, r) * kl_uniform(k - r, n - r).shift(r)
    return acc


def _bv_pair(key, memo):
    """(P, Z) of a flat-set minor by the deletion recursion.  tau of each
    contraction M/(F+i) is the middle coefficient of its own P, from the
    same recursion and memo: it has fewer elements, so the recursion ends.
    As in `_semismall`, a minor of rank at most 4 is read off `_low_minor`
    and its key is never built; M/i has rank k - 1.  A free key of size n is
    answered at entry by (1, (1+x)^n).  Equal terms are summed once, by
    (shift, P(M|F), Z(M|F)) with their tau added."""
    n, levels = key
    k = len(levels) - 1
    if k <= 4:
        return _low_minor(levels, (1 << n) - 1, 1, k, False)[2:]
    if k == n:
        return ONE, (ONE + X) ** n
    val = memo.get(key)
    if val is not None:
        return val
    i = _smallest_non_coloop(key)
    bit = 1 << i
    p_del, z_del = _bv_pair(_delete(key, i), memo)
    if bit not in levels[1]:  # M/i is loopless iff {i} is a flat
        p_con = ZERO
    elif k <= 5:
        p_con = _low_minor(levels, bit, 2, k - 1, True)[2]
    else:
        p_con = _bv_pair(_contract(key, bit, 1), memo)[0]
    terms = Counter()
    for r, f in _s_families(key, i):
        if (k - r) % 2:
            continue  # tau of the even-rank contraction vanishes
        c, g = k - r - 1, f | bit
        p_c = (_low_minor(levels, g, r + 2, c, True)[2] if c <= 4
               else _bv_pair(_contract(key, g, r + 1), memo)[0])
        t = p_c.coeff((c - 1) // 2)
        if t:
            terms[(k - r) // 2, _low_minor(levels, f, 1, r, False)[2:] if r <= 4
                  else _bv_pair(_restrict(key, f, r), memo)] += t
    p_acc = sum(((t * p).shift(d) for (d, (p, z)), t in terms.items()), ZERO)
    z_acc = sum(((t * z).shift(d) for (d, (p, z)), t in terms.items()), ZERO)
    val = (p_del - p_con.shift(1) + p_acc, z_del + z_acc)
    memo[key] = val
    return val


def kl_bv_deletion(m, lattice=None):
    """P_M by the deletion recursion
    P_M = P(M-i) - x P(M/i) + sum_{F} tau(M/(F+i)) x^((k-rk F)/2) P(M|F)."""
    return compute_invariant(m, "kl", "bv_deletion", None, lattice)


def z_bv_deletion(m, lattice=None):
    """Z_M by the deletion recursion (same shape, without the -x P(M/i) term)."""
    return compute_invariant(m, "z", "bv_deletion", None, lattice)


# -- certification ------------------------------------------------------------------


class GammaEntry:
    def __init__(self, name: str, poly: Poly, gamma: Poly | None, ok: bool):
        self.name = name
        self.poly = poly
        self.gamma = gamma
        self.ok = ok


class GammaReport:
    def __init__(self, entries: list[GammaEntry] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def to_json(self):
        """The `gamma` block of `certify --json`: coefficients as decimal
        strings, gamma None where the polynomial is not palindromic."""
        return {
            "ok": self.ok,
            "entries": [
                {
                    "name": e.name,
                    "poly": [str(c) for c in e.poly.coeffs],
                    "gamma": [str(c) for c in e.gamma.coeffs] if e.gamma is not None else None,
                    "ok": e.ok,
                }
                for e in self.entries
            ],
        }


def _gamma_entry(name, poly, center):
    try:
        g = gamma_vector(poly, center)
    except NotPalindromic:
        return GammaEntry(name, poly, None, False)
    return GammaEntry(name, poly, g, all(c >= 0 for c in g.coeffs))


def _gamma_report(k, uh, h, z):
    return GammaReport([
        _gamma_entry("chow", uh, max(k - 1, 0)),
        _gamma_entry("augchow", h, k),
        _gamma_entry("z", z, k),
    ])


def certify_gamma(m, lattice=None):
    """Gamma vectors of uH (center rk-1), H (center rk) and Z (center rk),
    with nonnegativity flags; a failure is reported, not raised."""
    if not m.is_loopless():
        raise ValueError("gamma certification needs a loopless matroid")
    lat = _lat(m, lattice)
    uh = chow_char_conv(m, lat)
    h = aug_chow_contraction_conv(m, lat)
    return _gamma_report(m.rank, uh, h, z_poly(m, "conv_def", lat))


def certify_gamma_poset(p):
    """Gamma certification of the Chow-type and Z-type polynomials of a
    general bounded graded poset; this is where counterexamples live."""
    uh = kls_uH_general(p)
    h = kls_H_general(p)
    return _gamma_report(p.ranks[p.top], uh, h, kls_Z_general(p))


class DominanceReport:
    def __init__(self, ok: bool, witnesses: list):
        self.ok = ok
        self.witnesses = witnesses

    def to_json(self):
        return {"ok": self.ok, "witnesses": self.witnesses}


def certify_dominance(m, lattice=None):
    """Coefficientwise uH_M <= uH(U_{k,n}) and H_M <= H(U_{k,n})."""
    if not m.is_loopless():
        raise ValueError("dominance certification needs a loopless matroid")
    lat = _lat(m, lattice)
    k, n = m.rank, m.n
    witnesses = []
    for name, mine, bound in (
        ("chow", chow_char_conv(m, lat), chow_uniform(k, n)),
        ("augchow", aug_chow_contraction_conv(m, lat), aug_chow_uniform(k, n)),
    ):
        for i in range(max(mine.degree, bound.degree) + 1):
            if mine.coeff(i) > bound.coeff(i):
                witnesses.append(
                    {"kind": name, "degree": i, "value": str(mine.coeff(i)), "bound": str(bound.coeff(i))}
                )
    return DominanceReport(not witnesses, witnesses)


class HrsReport:
    def __init__(self, k: int, n: int, h_poly: Poly, direct_checked: bool):
        self.k = k
        self.n = n
        self.h_poly = h_poly
        self.direct_checked = direct_checked


def hrs_identity(k, n):
    """Check that the Bergman-complex h-polynomial of U_{k,n} equals
    sum_{i=1}^k C(n-i-1, k-i) uH(U_{i,n}); additionally, for n <= 7,
    recompute the left side by direct chain enumeration.

    A mismatch raises: it would falsify the implementation, not the input.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    h = ZERO
    for j in range(k):
        h = h + comb(n, j) * eulerian(j) * (X - ONE) ** (k - 1 - j)
    rhs = ZERO
    for i in range(1, k + 1):
        # C(n-i-1, 0) = 1 even when n - i - 1 = -1 (the i = k = n term)
        c = 1 if k == i else comb(n - i - 1, k - i)
        rhs = rhs + c * chow_uniform(i, n)
    if h != rhs:
        raise RuntimeError("h-polynomial identity failed for (%d, %d)" % (k, n))
    direct = n <= 7
    if direct:
        _, h_direct = bergman_f_h(uniform(k, n))
        if h_direct != h:
            raise RuntimeError(
                "direct order-complex h-vector disagrees for (%d, %d)" % (k, n)
            )
    return HrsReport(k, n, h, direct)


# -- cross-method reports --------------------------------------------------------------


def _has_uniform_plus_coloop_form(core, braid_n=None):
    """(k, n) when the loopless matroid core is U_{k,n} plus a coloop, else
    None, so it is also coloop_closed's applicability test.  With two
    coloops, deleting one leaves a coloop, so the rest is uniform only when
    it is free; then any coloop answers, so the lowest is tried."""
    coloops = core.coloops()
    if not coloops:
        return None
    rest = core.delete(coloops & -coloops)
    return (rest.rank, rest.n) if rest.is_uniform() else None


# -- the method registry ----------------------------------------------------------
#
# LATTICE_METHODS[kind][method] = (engine, applies) with `engine(lat)` run on
# the lattice of flats of the loopless core, and CLOSED_FORMS[kind][method] =
# (engine, applies) with `engine(core, braid_n)` run on the loopless core
# itself.  METHODS merges the two, lattice engines first, in the canonical
# order of the reports.  An engine raises ValueError where it cannot answer.
# Only `compute_invariant` runs one, and each public per-method function is
# a call of it.  The loop rule is applied there and nowhere else: uH and P
# are 0 with loops before any method runs (VANISH_WITH_LOOPS); every other
# engine and every applicability test sees the loopless core.
# `applicable_methods` lists a method when `applies` is None or
# `applies(core, braid_n)` holds.

VANISH_WITH_LOOPS = ("chow", "kl")


def _uniform_form(form, method, core, braid_n):
    if not core.is_uniform():
        raise ValueError("%s needs a uniform matroid" % method)
    return form(core.rank, core.n)


def _of_paving(form, core, braid_n):
    """`form` of a paving core from its stressed hyperplane counts; 1 in rank 0."""
    if core.rank == 0:
        return ONE
    if not core.is_paving():
        raise ValueError("matroid is not paving")
    return form(core.rank, core.n, core.stressed_hyperplane_counts())


def _braid_closed(core, braid_n):
    if braid_n is None:
        raise ValueError("braid_closed needs the number of vertices")
    return chow_braid(braid_n)


def _coloop_closed(core, braid_n):
    form = _has_uniform_plus_coloop_form(core)
    if form is None:
        raise ValueError("coloop_closed needs a uniform matroid plus a coloop")
    return aug_chow_uniform_coloop(*form)


def _small(core, braid_n):
    return core.n <= DELETION_ENGINE_LIMIT


def _uniform(core, braid_n):
    return core.is_uniform()


def _paving(core, braid_n):
    return core.rank >= 1 and core.is_paving()


LATTICE_METHODS = {
    "chow": {
        "chains": (lambda lat: _chain_table(lat)[lat.bottom], None),
        "char_conv": (lambda lat: _chow_upper_table(lat)[lat.bottom], None),
        "intrinsic": (kls_uH_general, None),
        "incidence_inv": (lambda lat: interval_dp(lat, "chow_lower", False, _chibar_kernel(lat))[lat.top], None),
        "semismall": (lambda lat: _semismall(_flat_key(lat), False, ({}, {})), _small),
    },
    "augchow": {
        "chains": (_aug_chow_chains, None),
        "contraction_conv": (lambda lat: rank_sum(lat, _chow_upper_table(lat)), None),
        "alt_conv": (_aug_chow_alt_conv, None),
        "mobius_conv": (lambda lat: _mobius_table(lat, "aug_upper_mobius", True)[lat.bottom], None),
        "intrinsic": (kls_H_general, None),
        "incidence_inv": (lambda lat: _mobius_table(lat, "aug_lower_mobius", False)[lat.top], None),
        "semismall": (lambda lat: _semismall(_flat_key(lat), True, ({}, {})), _small),
    },
    "kl": {
        "epw": (lambda lat: _kl_upper_table(lat)[lat.bottom], None),
        "intrinsic": (kls_P_general, None),
        "bv_deletion": (lambda lat: _bv_pair(_flat_key(lat), {})[0], _small),
    },
    "z": {
        "conv_def": (lambda lat: rank_sum(lat, _kl_upper_table(lat)), None),
        "bv_deletion": (lambda lat: _bv_pair(_flat_key(lat), {})[1], _small),
    },
}
CLOSED_FORMS = {
    "chow": {
        "uniform_closed": (partial(_uniform_form, chow_uniform, "uniform_closed"), _uniform),
        "paving": (partial(_of_paving, chow_paving), _paving),
        "braid_closed": (_braid_closed, lambda core, braid_n: braid_n is not None),
    },
    "augchow": {
        "uniform_closed": (partial(_uniform_form, aug_chow_uniform, "uniform_closed"), _uniform),
        "paving": (partial(_of_paving, aug_chow_paving), _paving),
        "coloop_closed": (_coloop_closed, _has_uniform_plus_coloop_form),
    },
    "kl": {"uniform_fast": (partial(_uniform_form, kl_uniform, "uniform_fast"), _uniform)},
    "z": {},
}
METHODS = {kind: {**LATTICE_METHODS[kind], **CLOSED_FORMS[kind]} for kind in LATTICE_METHODS}
KINDS = {kind: tuple(methods) for kind, methods in METHODS.items()}


def applicable_methods(m, kind, braid_n=None):
    """Method ids applicable to a given matroid, in canonical order; each
    test sees its loopless core."""
    if kind not in METHODS:
        raise ValueError("unknown kind %r" % kind)
    core = _loopless_core(m)
    return [
        name
        for name, (_, applies) in METHODS[kind].items()
        if applies is None or applies(core, braid_n)
    ]


def compute_invariant(m, kind, method, braid_n=None, lattice=None):
    """Run one named method; this is the one place where a registry engine
    runs, and where the loop rule is applied.  Raises ValueError for
    an unknown kind or method, or when the method does not apply.  A lattice
    passed along with a matroid that has loops is that of its loopless
    core."""
    if kind not in METHODS:
        raise ValueError("unknown kind %r" % kind)
    if method not in METHODS[kind]:
        raise ValueError("unknown %s method %r" % (kind, method))
    if kind in VANISH_WITH_LOOPS and not m.is_loopless():
        return ZERO  # uH and P vanish with loops, before any engine runs
    engine = METHODS[kind][method][0]
    if method in LATTICE_METHODS[kind]:
        return engine(_lat(m, lattice))
    return engine(_loopless_core(m), braid_n)


class InvariantReport:
    def __init__(self, descriptor: str, kind: str, results: dict, seconds: dict, agree: bool):
        self.descriptor = descriptor
        self.kind = kind
        self.results = results
        self.seconds = seconds
        self.agree = agree

    def to_json(self):
        return {
            "schema": "1",
            "matroid": self.descriptor,
            "kind": self.kind,
            "methods": {
                name: {
                    "coeffs": [str(c) for c in poly.coeffs],
                    "seconds": round(self.seconds[name], 6),
                }
                for name, poly in self.results.items()
            },
            "agree": self.agree,
        }


def invariant_report(m, kind, method="all", braid_n=None, descriptor=None,
                     lattice=None, deadline=None):
    """Run one or all applicable methods for a kind and compare the results.

    `deadline` is an absolute time.monotonic() stamp; exceeding it between
    methods raises TimeoutError (cooperative budget, never mid-method).
    """
    core = _loopless_core(m)
    # with loops uH and P are 0: the methods get m and need no lattice
    subject = m if kind in VANISH_WITH_LOOPS else core
    if method == "all":
        methods = applicable_methods(core, kind, braid_n)
        if lattice is None and subject is core:
            lattice = lattice_of_flats(core)  # one lattice for every method
    else:
        methods = [method]  # compute_invariant checks it before building a lattice
    results = {}
    seconds = {}
    for name in methods:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exhausted before method %r" % name)
        t0 = time.perf_counter()
        # Z goes through its public entry point, so a wrapper around
        # `z_poly` sees every Z polynomial a report computes
        results[name] = (
            z_poly(subject, name, lattice)
            if kind == "z"
            else compute_invariant(subject, kind, name, braid_n, lattice)
        )
        seconds[name] = time.perf_counter() - t0
    values = list(results.values())
    agree = all(v == values[0] for v in values)
    return InvariantReport(descriptor or repr(m), kind, results, seconds, agree)
