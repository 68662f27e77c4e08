"""Engines for the four polynomial invariants of a matroid: the Chow
polynomial (Hilbert series of the Chow ring), the augmented Chow polynomial,
the Kazhdan-Lusztig polynomial and the Z-polynomial.

Every invariant is implemented by several genuinely different formulas
(chain enumeration, characteristic-polynomial convolutions, the intrinsic
symmetric-decomposition recursion, incidence-algebra inverse formulas,
deletion recursions from semi-small decompositions, and closed forms for
uniform, paving and braid matroids).  Cross-checking them against each
other is the central correctness property of this package; `invariant_report`
runs every applicable method and reports agreement.

Conventions for matroids with loops: the Chow polynomial, Kazhdan-Lusztig
polynomial and characteristic polynomial vanish; the augmented Chow and
Z-polynomials are those of the matroid with its loops deleted.

Method identifiers (stable strings, also used by the CLI):

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
                factors, one per rank gap
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

import os
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .matroid import set_of, uniform
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
    interval_char_poly,
    interval_chibar,
    kls_H_general,
    kls_P_general,
    kls_uH_general,
    kls_Z_general,
    lattice_of_flats,
    mobius,
)

CHOW_METHODS = (
    "chains",
    "char_conv",
    "intrinsic",
    "incidence_inv",
    "semismall",
    "uniform_closed",
    "paving",
    "braid_closed",
)
AUGCHOW_METHODS = (
    "chains",
    "contraction_conv",
    "alt_conv",
    "mobius_conv",
    "intrinsic",
    "incidence_inv",
    "semismall",
    "uniform_closed",
    "paving",
    "coloop_closed",
)
KL_METHODS = ("epw", "intrinsic", "bv_deletion", "uniform_fast")
Z_METHODS = ("conv_def", "bv_deletion")

KINDS = {"chow": CHOW_METHODS, "augchow": AUGCHOW_METHODS, "kl": KL_METHODS, "z": Z_METHODS}

DELETION_ENGINE_LIMIT = 9  # semismall / bv_deletion are exercised up to here


def _lat(m, lattice=None):
    return lattice if lattice is not None else lattice_of_flats(m)


def _warn_if_many_flats(lat):
    threshold = int(os.environ.get("MATROID_MAX_FLATS", "2000"))
    if lat.size > threshold:
        warnings.warn(
            "enumerating chains over %d flats; expect this to be slow" % lat.size,
            RuntimeWarning,
            stacklevel=3,
        )


def _loopless_core(m):
    loops = m.loops()
    return m.delete(loops) if loops else m


# -- chain-enumeration engines ------------------------------------------------


def chow_chains(m, lattice=None):
    """Chow polynomial as a sum over chains of flats starting at the empty
    set, each chain weighted by the product of x(1-x^(gap-1))/(1-x) over its
    rank gaps.  Chains with any gap of 1 contribute zero and are pruned."""
    if not m.is_loopless():
        return ZERO
    lat = _lat(m, lattice)
    _warn_if_many_flats(lat)
    k = lat.ranks[lat.top]
    gap_factor = [ones(g - 1).shift(1) for g in range(k + 2)]
    acc = [0] * (k + 1)
    ranks = lat.ranks
    above = lat.above

    def walk(i, prod):
        for d, c in enumerate(prod.coeffs):
            acc[d] += c
        ri = ranks[i]
        for j in above[i]:
            g = ranks[j] - ri
            if g >= 2:
                walk(j, prod * gap_factor[g])

    walk(lat.bottom, ONE)
    return Poly(acc)


def aug_chow_chains(m, lattice=None):
    """Augmented Chow polynomial: 1 plus a sum over chains of nonempty
    flats, with leading factor x + ... + x^rk(F0)."""
    core = _loopless_core(m)
    lat = _lat(core, lattice if core is m else None)
    _warn_if_many_flats(lat)
    k = lat.ranks[lat.top]
    gap_factor = [ones(g - 1).shift(1) for g in range(k + 2)]
    acc = [0] * (k + 1)
    acc[0] = 1
    ranks = lat.ranks
    above = lat.above

    def walk(i, prod):
        for d, c in enumerate(prod.coeffs):
            acc[d] += c
        ri = ranks[i]
        for j in above[i]:
            g = ranks[j] - ri
            if g >= 2:
                walk(j, prod * gap_factor[g])

    for start in range(lat.size):
        r = ranks[start]
        if r > 0:
            walk(start, ones(r).shift(1))
    return Poly(acc)


# -- convolution engines --------------------------------------------------------


def _chow_upper_table(lat):
    """uH of every upper interval [F, top], by the reduced-characteristic
    convolution uH[F] = sum_{G > F} chibar([F, G]) * uH[G]."""
    table = lat._cache.get("chow_upper")
    if table is None:
        table = [None] * lat.size
        order = sorted(range(lat.size), key=lambda i: (-lat.ranks[i], i))
        for z in order:
            if z == lat.top:
                table[z] = ONE
                continue
            acc = ZERO
            for g in lat.above[z]:
                acc = acc + interval_chibar(lat, z, g) * table[g]
            table[z] = acc
        lat._cache["chow_upper"] = table
    return table


def chow_char_conv(m, lattice=None):
    """Chow polynomial by the reduced-characteristic-polynomial convolution."""
    if not m.is_loopless():
        return ZERO
    lat = _lat(m, lattice)
    return _chow_upper_table(lat)[lat.bottom]


def chow_intrinsic(m, lattice=None):
    """Chow polynomial by the intrinsic symmetric-decomposition recursion."""
    if not m.is_loopless():
        return ZERO
    lat = _lat(m, lattice)
    return kls_uH_general(lat)


def aug_chow_intrinsic(m, lattice=None):
    if not m.is_loopless():
        return aug_chow_intrinsic(_loopless_core(m))
    lat = _lat(m, lattice)
    return kls_H_general(lat)


def chow_incidence_inv(m, lattice=None):
    """Chow polynomial by the two-sided-inverse formula
    uH_M = sum_{F != E} uH(M|F) * chibar(M/F), run as a DP over lower
    intervals."""
    if not m.is_loopless():
        return ZERO
    lat = _lat(m, lattice)
    table = lat._cache.get("chow_lower")
    if table is None:
        table = [None] * lat.size
        order = sorted(range(lat.size), key=lambda i: (lat.ranks[i], i))
        for z in order:
            if z == lat.bottom:
                table[z] = ONE
                continue
            acc = ZERO
            for g in set_of(lat.down_mask[z]):
                acc = acc + table[g] * interval_chibar(lat, g, z)
            table[z] = acc
        lat._cache["chow_lower"] = table
    return table[lat.top]


def aug_chow_contraction_conv(m, lattice=None):
    """H_M = sum over flats of x^rk(F) * uH(M/F)."""
    core = _loopless_core(m)
    lat = _lat(core, lattice if core is m else None)
    table = _chow_upper_table(lat)
    acc = ZERO
    for f in range(lat.size):
        acc = acc + table[f].shift(lat.ranks[f])
    return acc


def aug_chow_alt_conv(m, lattice=None):
    """H_M = 1 + x * sum over proper flats of uH(M/F)."""
    core = _loopless_core(m)
    lat = _lat(core, lattice if core is m else None)
    table = _chow_upper_table(lat)
    acc = ZERO
    for f in range(lat.size):
        if f != lat.top:
            acc = acc + table[f]
    return ONE + acc.shift(1)


def aug_chow_mobius_conv(m, lattice=None):
    """H_M = -sum over nonempty flats of mu(0, F)(1 + ... + x^rk(F)) H(M/F)."""
    core = _loopless_core(m)
    lat = _lat(core, lattice if core is m else None)
    table = lat._cache.get("aug_upper_mobius")
    if table is None:
        table = [None] * lat.size
        order = sorted(range(lat.size), key=lambda i: (-lat.ranks[i], i))
        for z in order:
            if z == lat.top:
                table[z] = ONE
                continue
            rz = lat.ranks[z]
            acc = ZERO
            for g in lat.above[z]:
                mu = mobius(lat, z, g)
                if mu:
                    acc = acc + (mu * ones(lat.ranks[g] - rz + 1)) * table[g]
            table[z] = -acc
        lat._cache["aug_upper_mobius"] = table
    return table[lat.bottom]


def aug_chow_incidence_inv(m, lattice=None):
    """H_M = -sum_{F != E} H(M|F) * mu(F, E)(1 + ... + x^(rk M - rk F))."""
    core = _loopless_core(m)
    lat = _lat(core, lattice if core is m else None)
    table = lat._cache.get("aug_lower_mobius")
    if table is None:
        table = [None] * lat.size
        order = sorted(range(lat.size), key=lambda i: (lat.ranks[i], i))
        for z in order:
            if z == lat.bottom:
                table[z] = ONE
                continue
            rz = lat.ranks[z]
            acc = ZERO
            for g in set_of(lat.down_mask[z]):
                mu = mobius(lat, g, z)
                if mu:
                    acc = acc + (mu * ones(rz - lat.ranks[g] + 1)) * table[g]
            table[z] = -acc
        lat._cache["aug_lower_mobius"] = table
    return table[lat.top]


# -- semi-small deletion engines ------------------------------------------------


def _s_families(m, lat, i):
    """Flats F avoiding i with F union {i} a flat and F strictly inside
    E - i; returns (with-empty-set, without-empty-set) id lists as masks."""
    bit = 1 << i
    rest = m.full_mask ^ bit
    out = []
    for f in lat.flats:
        if f & bit or f == rest:
            continue
        if (f | bit) in lat.index:
            out.append(f)
    return out


def _smallest_non_coloop(m):
    coloops = m.coloops()
    for e in range(m.n):
        if not coloops & (1 << e):
            return e
    return None


def chow_semismall(m):
    """Chow polynomial by the quadratic deletion recursion coming from the
    semi-small decomposition; the all-coloop (free matroid) case uses the
    coloop variant of the decomposition."""
    if not m.is_loopless():
        return ZERO
    memo = {}
    return _ss_chow(m, memo)


def _ss_chow(m, memo):
    key = m.key()
    val = memo.get(key)
    if val is not None:
        return val
    if m.n <= 1:
        val = ONE
    else:
        i = _smallest_non_coloop(m)
        if i is None:
            # free matroid: split off the last coloop
            n = m.n - 1
            free = m.delete(1 << n)
            acc = (ONE + X) * _ss_chow(free, memo)
            extra = ZERO
            for f in range(1, (1 << n) - 1):
                extra = extra + _ss_chow(free.contract(f), memo) * _ss_chow(
                    free.restrict(f), memo
                )
            val = acc + extra.shift(1)
        else:
            bit = 1 << i
            lat = lattice_of_flats(m)
            acc = _ss_chow(m.delete(bit), memo)
            extra = ZERO
            for f in _s_families(m, lat, i):
                if f == 0:
                    continue
                extra = extra + _ss_chow(m.contract(f | bit), memo) * _ss_chow(
                    m.restrict(f), memo
                )
            val = acc + extra.shift(1)
    memo[key] = val
    return val


def aug_chow_semismall(m):
    """Augmented Chow polynomial by the semi-small deletion recursion."""
    core = _loopless_core(m)
    return _ss_aug(core, {}, {})


def _ss_aug(m, memo_h, memo_u):
    key = m.key()
    val = memo_h.get(key)
    if val is not None:
        return val
    if m.n == 0:
        val = ONE
    elif m.n == 1:
        val = ONE + X
    else:
        i = _smallest_non_coloop(m)
        if i is None:
            n = m.n - 1
            free = m.delete(1 << n)
            acc = (ONE + X) * _ss_aug(free, memo_h, memo_u)
            extra = ZERO
            for f in range((1 << n) - 1):
                extra = extra + _ss_chow(free.contract(f), memo_u) * _ss_aug(
                    free.restrict(f), memo_h, memo_u
                )
            val = acc + extra.shift(1)
        else:
            bit = 1 << i
            lat = lattice_of_flats(m)
            acc = _ss_aug(m.delete(bit), memo_h, memo_u)
            extra = ZERO
            for f in _s_families(m, lat, i):
                extra = extra + _ss_chow(m.contract(f | bit), memo_u) * _ss_aug(
                    m.restrict(f), memo_h, memo_u
                )
            val = acc + extra.shift(1)
    memo_h[key] = val
    return val


# -- closed forms: uniform matroids ---------------------------------------------


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


def aug_chow_uniform_coloop(k, n):
    """H of U_{k,n} plus a coloop:
    (1+x) H(U_{k,n}) + x sum_{j=0}^{k-1} C(n,j) uH(U_{k-j,n-j}) At_j(x)."""
    _check_uniform_args(k, n)
    if k == 0:
        return ONE + X
    acc = (ONE + X) * aug_chow_uniform(k, n)
    extra = ZERO
    for j in range(k):
        extra = extra + comb(n, j) * chow_uniform(k - j, n - j) * binomial_eulerian(j)
    return acc + extra.shift(1)


def _check_uniform_args(k, n):
    if k < 0 or n < 0 or k > n:
        raise ValueError("need 0 <= k <= n")


# -- closed forms: paving matroids ------------------------------------------------


def _check_paving_args(k, counts):
    if k < 1:
        raise ValueError("paving formula needs rank at least 1")
    for h, lam in counts.items():
        if lam < 0:
            raise ValueError("stressed hyperplane counts must be nonnegative")
        if h < k and lam:
            raise ValueError("stressed hyperplanes entering the formula have size >= rank")


def chow_paving(k, n, counts):
    """uH of a paving matroid of rank k on n elements from its stressed
    hyperplane counts {h: lambda_h}:
    uH(U_{k,n}) - sum_h lambda_h (uH(U_{k,h+1}) - uH(U_{k-1,h} + coloop))."""
    _check_paving_args(k, counts)
    acc = chow_uniform(k, n)
    for h, lam in counts.items():
        if lam:
            acc = acc - lam * (chow_uniform(k, h + 1) - chow_uniform_coloop(k - 1, h))
    return acc


def aug_chow_paving(k, n, counts):
    """Augmented variant of the paving closed form."""
    _check_paving_args(k, counts)
    acc = aug_chow_uniform(k, n)
    for h, lam in counts.items():
        if lam:
            acc = acc - lam * (
                aug_chow_uniform(k, h + 1) - aug_chow_uniform_coloop(k - 1, h)
            )
    return acc


def chow_of_paving(m):
    """Fast path: uH of a paving matroid via its stressed hyperplane counts."""
    if not m.is_loopless():
        return ZERO
    if m.rank == 0:
        return ONE
    if not m.is_paving():
        raise ValueError("matroid is not paving")
    return chow_paving(m.rank, m.n, m.stressed_hyperplane_counts())


def aug_chow_of_paving(m):
    core = _loopless_core(m)
    if core.rank == 0:
        return ONE
    if not core.is_paving():
        raise ValueError("matroid is not paving")
    return aug_chow_paving(core.rank, core.n, core.stressed_hyperplane_counts())


# -- closed form: braid matroids ---------------------------------------------------


def chow_braid(n):
    """Chow polynomial of the graphic matroid of the complete graph on n
    vertices, via the chain formula aggregated over rank sets R weighted by
    Stirling numbers of the second kind."""
    if n < 1:
        raise ValueError("need at least one vertex")
    acc = ZERO
    for mask in range(1 << n):
        if mask & 1 or mask & (mask >> 1):
            continue  # a rank gap of 1 makes the product vanish
        prod = ONE
        prev = 0
        for b in range(1, n + 1):
            if not mask & (1 << (b - 1)):
                continue
            s = stirling2(n - prev, n - b)
            if s == 0:
                prod = ZERO
                break
            prod = prod * (s * ones(b - prev - 1).shift(1))
            prev = b
        acc = acc + prod
    return acc


# -- Kazhdan-Lusztig and Z engines ---------------------------------------------------


def _kl_upper_table(lat):
    """Kazhdan-Lusztig polynomial of every upper interval [F, top] by the
    characteristic-polynomial recursion: with
    R(x) = sum_{G > F} chi([F,G]) P[G] and rho the interval rank,
    P[F] has coefficients [x^(rho - j)] R for j < rho/2."""
    table = lat._cache.get("kl_upper")
    if table is None:
        table = [None] * lat.size
        order = sorted(range(lat.size), key=lambda i: (-lat.ranks[i], i))
        for z in order:
            if z == lat.top:
                table[z] = ONE
                continue
            rho = lat.ranks[lat.top] - lat.ranks[z]
            acc = ZERO
            for g in lat.above[z]:
                acc = acc + interval_char_poly(lat, z, g) * table[g]
            half = (rho - 1) // 2 if rho % 2 else rho // 2 - 1
            table[z] = Poly([acc.coeff(rho - j) for j in range(half + 1)])
        lat._cache["kl_upper"] = table
    return table


def kl_poly(m, method="epw", lattice=None):
    """Kazhdan-Lusztig polynomial of a matroid (zero when there are loops)."""
    if method not in KL_METHODS:
        raise ValueError("unknown kl method %r" % method)
    if not m.is_loopless():
        return ZERO
    if method == "bv_deletion":
        return kl_bv_deletion(m)
    if method == "uniform_fast":
        if not m.is_uniform():
            raise ValueError("uniform_fast needs a uniform matroid")
        return kl_uniform(m.rank, m.n)
    lat = _lat(m, lattice)
    if method == "epw":
        return _kl_upper_table(lat)[lat.bottom]
    return kls_P_general(lat)


def z_poly(m, method="conv_def", lattice=None):
    """Z-polynomial of a matroid (loops are deleted first)."""
    if method not in Z_METHODS:
        raise ValueError("unknown z method %r" % method)
    core = _loopless_core(m)
    if method == "bv_deletion":
        return z_bv_deletion(core)
    lat = _lat(core, lattice if core is m else None)
    table = _kl_upper_table(lat)
    acc = ZERO
    for f in range(lat.size):
        acc = acc + table[f].shift(lat.ranks[f])
    return acc


def tau(m, lattice=None):
    """Coefficient of x^((rk-1)/2) in P_M for odd rank; 0 for even rank."""
    if not m.is_loopless():
        return 0
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
    if k == n:
        return ONE
    acc = (X - ONE) * chibar_uniform(k, n)
    for r in range(1, k):
        acc = acc + comb(n, r) * (X - ONE) ** r * kl_uniform(k - r, n - r)
    half = (k - 1) // 2 if k % 2 else k // 2 - 1
    return Poly([acc.coeff(k - j) for j in range(half + 1)])


def z_uniform(k, n):
    """Z of U_{k,n} aggregated over flat ranks, via `kl_uniform`."""
    _check_uniform_args(k, n)
    acc = ONE.shift(k)
    for r in range(k):
        acc = acc + comb(n, r) * kl_uniform(k - r, n - r).shift(r)
    return acc


def _bv_pair(m, memo, tau_memo):
    key = m.key()
    val = memo.get(key)
    if val is not None:
        return val
    k = m.rank
    if k == 0:
        val = (ONE, ONE)
    else:
        i = _smallest_non_coloop(m)
        if i is None:
            val = (ONE, (ONE + X) ** m.n)
        else:
            bit = 1 << i
            lat = lattice_of_flats(m)
            p_del, z_del = _bv_pair(m.delete(bit), memo, tau_memo)
            contr = m.contract(bit)
            if contr.is_loopless():
                p_con = _bv_pair(contr, memo, tau_memo)[0]
            else:
                p_con = ZERO
            p_acc, z_acc = ZERO, ZERO
            for f in _s_families(m, lat, i):
                rf = m.rank_of(f)
                if (k - rf) % 2:
                    continue  # tau of the odd-corank contraction vanishes
                minor = m.contract(f | bit)
                tkey = minor.key()
                t = tau_memo.get(tkey)
                if t is None:
                    t = tau(minor)
                    tau_memo[tkey] = t
                if t:
                    rest = m.restrict(f)
                    p_r, z_r = _bv_pair(rest, memo, tau_memo)
                    shift = (k - rf) // 2
                    p_acc = p_acc + (t * p_r).shift(shift)
                    z_acc = z_acc + (t * z_r).shift(shift)
            val = (p_del - p_con.shift(1) + p_acc, z_del + z_acc)
    memo[key] = val
    return val


def kl_bv_deletion(m):
    """P_M by the deletion recursion
    P_M = P(M-i) - x P(M/i) + sum_{F} tau(M/(F+i)) x^((k-rk F)/2) P(M|F)."""
    if not m.is_loopless():
        return ZERO
    return _bv_pair(m, {}, {})[0]


def z_bv_deletion(m):
    """Z_M by the deletion recursion (same shape, without the -x P(M/i) term)."""
    core = _loopless_core(m)
    return _bv_pair(core, {}, {})[1]


# -- certification ------------------------------------------------------------------


@dataclass
class GammaEntry:
    name: str
    poly: Poly
    center: int
    gamma: Poly | None
    ok: bool


@dataclass
class GammaReport:
    entries: list[GammaEntry] = field(default_factory=list)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def to_json(self):
        return {
            "ok": self.ok,
            "entries": [
                {
                    "name": e.name,
                    "poly": e.poly.to_json(),
                    "center": e.center,
                    "gamma": e.gamma.to_json() if e.gamma is not None else None,
                    "ok": e.ok,
                }
                for e in self.entries
            ],
        }


def _gamma_entry(name, poly, center):
    try:
        g = gamma_vector(poly, center)
    except NotPalindromic:
        return GammaEntry(name, poly, center, None, False)
    return GammaEntry(name, poly, center, g, all(c >= 0 for c in g.coeffs))


def certify_gamma(m, lattice=None):
    """Gamma vectors of uH (center rk-1), H (center rk) and Z (center rk),
    with nonnegativity flags; a failure is reported, not raised."""
    if not m.is_loopless():
        raise ValueError("gamma certification needs a loopless matroid")
    lat = _lat(m, lattice)
    k = m.rank
    uh = chow_char_conv(m, lat)
    h = aug_chow_contraction_conv(m, lat)
    z = z_poly(m, "conv_def", lat)
    report = GammaReport()
    report.entries.append(_gamma_entry("chow", uh, max(k - 1, 0)))
    report.entries.append(_gamma_entry("augchow", h, k))
    report.entries.append(_gamma_entry("z", z, k))
    return report


def certify_gamma_poset(p):
    """Gamma certification of the Chow-type and Z-type polynomials of a
    general bounded graded poset; this is where counterexamples live."""
    k = p.ranks[p.top]
    uh = kls_uH_general(p)
    h = kls_H_general(p)
    z = kls_Z_general(p)
    report = GammaReport()
    report.entries.append(_gamma_entry("chow", uh, max(k - 1, 0)))
    report.entries.append(_gamma_entry("augchow", h, k))
    report.entries.append(_gamma_entry("z", z, k))
    return report


@dataclass
class DominanceReport:
    ok: bool
    witnesses: list

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


@dataclass
class HrsReport:
    k: int
    n: int
    h_poly: Poly
    direct_checked: bool

    def to_json(self):
        return {
            "k": self.k,
            "n": self.n,
            "h": self.h_poly.to_json(),
            "direct_checked": self.direct_checked,
        }


def hrs_identity(k, n, check_direct=None):
    """Check that the Bergman-complex h-polynomial of U_{k,n} equals
    sum_{i=1}^k C(n-i-1, k-i) uH(U_{i,n}); additionally, for small n,
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
    if check_direct is None:
        check_direct = n <= 7
    if check_direct:
        from .poset import bergman_f_h

        _, h_direct = bergman_f_h(uniform(k, n))
        if h_direct != h:
            raise RuntimeError(
                "direct order-complex h-vector disagrees for (%d, %d)" % (k, n)
            )
    return HrsReport(k, n, h, check_direct)


# -- cross-method reports --------------------------------------------------------------


def _has_uniform_plus_coloop_form(m):
    core = _loopless_core(m)
    coloops = core.coloops()
    e = 0
    while coloops:
        if coloops & 1:
            rest = core.delete(1 << e)
            if rest.is_uniform():
                return rest.rank, rest.n
        coloops >>= 1
        e += 1
    return None


def applicable_methods(m, kind, braid_n=None, deletion_limit=DELETION_ENGINE_LIMIT):
    """Method ids applicable to a given matroid, in canonical order."""
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % kind)
    loopless = m.is_loopless()
    paving = loopless and m.rank >= 1 and m.is_paving()
    out = []
    for method in KINDS[kind]:
        if method in ("semismall", "bv_deletion"):
            if m.n <= deletion_limit:
                out.append(method)
        elif method in ("uniform_closed", "uniform_fast"):
            if m.is_uniform():
                out.append(method)
        elif method == "paving":
            if paving:
                out.append(method)
        elif method == "braid_closed":
            if braid_n is not None:
                out.append(method)
        elif method == "coloop_closed":
            if _has_uniform_plus_coloop_form(m):
                out.append(method)
        else:
            out.append(method)
    return out


def compute_invariant(m, kind, method, braid_n=None, lattice=None):
    """Run one named method; raises ValueError when it does not apply."""
    if kind == "chow":
        if method == "chains":
            return chow_chains(m, lattice)
        if method == "char_conv":
            return chow_char_conv(m, lattice)
        if method == "intrinsic":
            return chow_intrinsic(m, lattice)
        if method == "incidence_inv":
            return chow_incidence_inv(m, lattice)
        if method == "semismall":
            return chow_semismall(m)
        if method == "uniform_closed":
            if not m.is_uniform():
                raise ValueError("uniform_closed needs a uniform matroid")
            return chow_uniform(m.rank, m.n)
        if method == "paving":
            return chow_of_paving(m)
        if method == "braid_closed":
            if braid_n is None:
                raise ValueError("braid_closed needs the number of vertices")
            return chow_braid(braid_n)
    elif kind == "augchow":
        if method == "chains":
            return aug_chow_chains(m, lattice)
        if method == "contraction_conv":
            return aug_chow_contraction_conv(m, lattice)
        if method == "alt_conv":
            return aug_chow_alt_conv(m, lattice)
        if method == "mobius_conv":
            return aug_chow_mobius_conv(m, lattice)
        if method == "intrinsic":
            return aug_chow_intrinsic(m, lattice)
        if method == "incidence_inv":
            return aug_chow_incidence_inv(m, lattice)
        if method == "semismall":
            return aug_chow_semismall(m)
        if method == "uniform_closed":
            if not m.is_uniform():
                raise ValueError("uniform_closed needs a uniform matroid")
            return aug_chow_uniform(m.rank, m.n)
        if method == "paving":
            return aug_chow_of_paving(m)
        if method == "coloop_closed":
            form = _has_uniform_plus_coloop_form(m)
            if form is None:
                raise ValueError("coloop_closed needs a uniform matroid plus a coloop")
            return aug_chow_uniform_coloop(*form)
    elif kind == "kl":
        return kl_poly(m, method, lattice)
    elif kind == "z":
        return z_poly(m, method, lattice)
    raise ValueError("unknown kind/method %r/%r" % (kind, method))


@dataclass
class InvariantReport:
    descriptor: str
    kind: str
    results: dict
    seconds: dict
    agree: bool

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
                     deletion_limit=DELETION_ENGINE_LIMIT, lattice=None,
                     deadline=None):
    """Run one or all applicable methods for a kind and compare the results.

    `deadline` is an absolute time.monotonic() stamp; exceeding it between
    methods raises TimeoutError (cooperative budget, never mid-method).
    """
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % kind)
    if method == "all":
        methods = applicable_methods(m, kind, braid_n, deletion_limit)
    else:
        if method not in KINDS[kind]:
            raise ValueError("method %r is not a %s method" % (method, kind))
        methods = [method]
    lat = lattice
    if lat is None and m.is_loopless():
        lat = lattice_of_flats(m)
    results = {}
    seconds = {}
    for name in methods:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exhausted before method %r" % name)
        t0 = time.perf_counter()
        results[name] = compute_invariant(m, kind, name, braid_n, lat)
        seconds[name] = time.perf_counter() - t0
    values = list(results.values())
    agree = all(v == values[0] for v in values)
    return InvariantReport(descriptor or repr(m), kind, results, seconds, agree)
