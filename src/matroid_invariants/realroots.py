"""Exact real-root certification: Sturm sequences, isolation, interlacing.

Everything here runs on integers; there is no floating point on any
certification path.  The module has one Euclidean loop, the signed
remainder sequence a, b, -rem(a, b), ... of two polynomials in Z[x]
(`_signed_remainders`): each remainder is an integer pseudo-remainder,
scaled at every step by a positive factor of the divisor's leading
coefficient, and reduced to its primitive part.  Positive scaling keeps the
sign structure, and a primitive part is the same whatever positive multiple
it came from, so every entry is the primitive part of the remainder over Q.
A Sturm chain is the sequence of p and p', and squarefree parts divide by
its last entry.

Interlacing is decided by the Cauchy index of p / q, read off the signed
remainder sequence of (q, p) at -inf and +inf, with no evaluation point
(`interlaces` gives the proof).  Rationals appear only in
`isolate_real_roots` and `count_distinct_real_roots`, as interval
endpoints that `cauchy_bound` and `count_distinct_real_roots` make by
importing `fractions` themselves; the sign of a polynomial at a / b is
read off an integer sum, with no `Fraction` arithmetic per coefficient.

A palindromic polynomial with a nonnegative gamma vector is decided on its
gamma polynomial, of half the degree (Gal 2005; Branden 2004): if
p = sum gamma_i x^i (1+x)^(d-2i) with every gamma_i >= 0, then p is
real-rooted iff Gamma(t) = sum gamma_i t^i is.  `real_rooted` gives the
proof.  The Chow, augmented Chow and Z-polynomials of a matroid are
gamma-positive, so their certificates are all decided this way.
"""

from __future__ import annotations

from math import gcd

from .poly import Poly, gamma_vector


def _int_coeffs(p):
    if isinstance(p, Poly):
        return p.coeffs
    return Poly(p).coeffs


def _sign_at(coeffs, x):
    """Sign of the polynomial at a rational x = a / b with b > 0: that of
    b^d p(a / b) = sum c_i a^i b^(d - i), a Horner loop in integers."""
    a, b = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * a + c * scale
        scale *= b
    return _sign(acc)


def _derivative(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs) if i)


def _primitive(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = 0
    for c in cs:
        g = gcd(g, c)
    if g > 1:
        cs = [c // g for c in cs]
    return tuple(cs)


def _pseudo_rem(a, b):
    """A positive multiple of the remainder of a by b over Q, for integer
    coefficient tuples a and b (b nonzero, without trailing zeros).

    Each step cancels the top coefficient c of the running remainder r by
    r <- (|lead b| / g) r - sign(lead b) (c / g) x^i b with g = gcd(c, lead b),
    so only positive integer factors ever multiply r.
    """
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        g = gcd(c, lead)
        scale, q = abs(lead) // g, c // g
        if lead < 0:
            q = -q
        if scale != 1:
            for j in range(i):
                rem[j] *= scale
        for j in range(db):
            rem[i - db + j] -= q * b[j]
        rem[i] = 0
    del rem[db:]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _exact_quotient(a, b):
    """a / b in Z[x] when b is primitive and divides a over Q (Gauss's lemma
    puts the quotient in Z[x], so every step divides exactly)."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quo = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c, r = divmod(rem[i], lead)
        assert not r, "gcd failed to divide its polynomial"
        if c:
            quo[i - db] = c
            for j, bj in enumerate(b):
                rem[i - db + j] -= c * bj
    assert not any(rem), "gcd failed to divide its polynomial"
    return tuple(quo)


def squarefree_part(p):
    """p / gcd(p, p') as a primitive integer polynomial (same root set).

    The gcd is the last entry of the Sturm chain of p, taken with a
    positive leading coefficient so that the quotient has the sign of p."""
    cs = _primitive(_int_coeffs(p))
    if len(cs) <= 1:
        return cs
    g = sturm_chain(cs)[-1]
    if len(g) == 1:
        return cs
    if g[-1] < 0:
        g = tuple(-c for c in g)
    return _primitive(_exact_quotient(cs, g))


def _signed_remainders(a, b):
    """The signed remainder sequence a, b, -rem(a, b), ... of two integer
    polynomials, each entry primitive and none zero.

    The last entry is gcd(a, b) up to a nonzero constant."""
    chain = [_primitive(a), _primitive(b)]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive(tuple(-c for c in rem)))
    return [c for c in chain if c]


def sturm_chain(coeffs):
    """Sturm chain of an integer polynomial, each entry primitive integer.

    The last entry is gcd(p, p') up to a nonzero constant."""
    return _signed_remainders(coeffs, _derivative(coeffs))


def _sign(v):
    return (v > 0) - (v < 0)


def _variations(signs):
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain, x):
    return _variations([_sign_at(c, x) for c in chain])


def _variations_at_inf(chain, positive):
    signs = []
    for c in chain:
        s = _sign(c[-1])
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_distinct_real_roots(p, lo=None, hi=None):
    """Number of distinct real roots of p, in (lo, hi] if bounds are given.

    The chain is that of the squarefree part, so an endpoint may be a root,
    of any multiplicity.  Bounds are read exactly as `Fraction`s, and
    lo > hi raises `ValueError`.
    """
    from fractions import Fraction

    lo, hi = (None if x is None else Fraction(x) for x in (lo, hi))
    cs = squarefree_part(p)
    if not cs:
        raise ValueError("the zero polynomial has every number as a root")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("the interval (lo, hi] needs lo <= hi")
    chain = sturm_chain(cs)
    va = _variations_at_inf(chain, False) if lo is None else _variations_at(chain, lo)
    vb = _variations_at_inf(chain, True) if hi is None else _variations_at(chain, hi)
    return va - vb


def cauchy_bound(coeffs):
    """1 + max |a_i| / |a_d|: every root has absolute value strictly below it."""
    from fractions import Fraction

    cs = _primitive(_int_coeffs(coeffs))
    lead = abs(cs[-1])
    worst = max(abs(c) for c in cs[:-1]) if len(cs) > 1 else 0
    return Fraction(1) + Fraction(worst, lead)


def real_rooted(p):
    """True iff every complex root of p is real (Sturm certificate).

    One chain decides it.  Strip the x^m factor to get q.  If q is
    palindromic and its gamma vector is nonnegative, chain the gamma
    polynomial Gamma instead of q (lemma below); otherwise chain q.  The
    last chain entry g is gcd(f, f') up to a constant, for f the polynomial
    chained, so f has deg f - deg g distinct complex roots, and the chain
    counts V(-inf) - V(+inf) distinct real ones; f is real-rooted iff the
    two counts agree.  Constants are vacuously real-rooted.

    Lemma (Gal 2005; Branden 2004).  Let q = sum gamma_i x^i (1+x)^(d-2i)
    with every gamma_i >= 0, Gamma(t) = sum gamma_i t^i, m = deg Gamma and
    t_j the roots of Gamma.  Then q is real-rooted iff Gamma is.  Proof:
    q = (1+x)^d Gamma(x / (1+x)^2) = gamma_m (1+x)^(d-2m) prod_j
    (x - t_j (1+x)^2).  Each factor, -(t x^2 + (2t-1) x + t) with t = t_j,
    has real roots iff t is real and t <= 1/4.  Since gamma >= 0 and gamma_0 = q(0) > 0,
    Gamma > 0 on [0, inf), so every real t_j is negative, and q is
    real-rooted iff every t_j is real.
    """
    if isinstance(p, (list, tuple)):
        p = Poly(p)
    if p.is_zero():
        raise ValueError("the zero polynomial is not a valid input")
    cs = list(p.coeffs)
    while cs[0] == 0:
        cs.pop(0)
    if cs == cs[::-1]:
        gamma = gamma_vector(Poly(cs)).coeffs
        if all(c >= 0 for c in gamma):
            cs = gamma
    return roots_all_real(cs)


def roots_all_real(cs):
    """True iff every complex root of the nonzero integer polynomial with
    coefficients cs (lowest first) is real: the one-chain count of
    `real_rooted`.  By the lemma there, a palindromic q with q(0) != 0
    and gamma vector gamma >= 0 is real-rooted iff gamma is.  An empty or
    all-zero cs, the zero polynomial, raises `ValueError`."""
    chain = sturm_chain(cs)
    if not chain:
        raise ValueError("the zero polynomial is not a valid input")
    real = _variations_at_inf(chain, False) - _variations_at_inf(chain, True)
    return real == len(chain[0]) - len(chain[-1])


def isolate_real_roots(p):
    """Disjoint open rational intervals, one per distinct real root of p.

    Interval endpoints are never roots.  Input need not be squarefree; the
    isolation runs on the squarefree part.
    """
    q = squarefree_part(p)
    if len(q) <= 1:
        return []
    chain = sturm_chain(q)
    bound = cauchy_bound(q)

    def count(a, b):
        return _variations_at(chain, a) - _variations_at(chain, b)

    total = count(-bound, bound)
    out = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        # lo is not a root and q has finitely many, so this ends
        mid = (lo + hi) / 2
        while not _sign_at(q, mid):
            mid = (lo + mid) / 2
        stack.append((lo, mid, count(lo, mid)))
        stack.append((mid, hi, count(mid, hi)))
    out.sort()
    return out


def interlaces(p, q):
    """Weak interlacing of root multisets: with p_1 <= ... <= p_s and
    q_1 <= ... <= q_t the sorted real roots (with multiplicity), checks
    q_1 <= p_1 <= q_2 <= p_2 <= ...  Shared roots are allowed.

    Requires deg q in {deg p, deg p + 1}; a q of smaller degree never
    interlaces.  Both inputs must be real-rooted.

    Decided by the Cauchy index of p / q: V(-inf) - V(+inf) on the signed
    remainder sequence of (q, p) (Sturm-Sylvester), which ends in
    g = gcd(p, q).  Let p1 = p / g, q1 = q / g and m = deg q1.  Common roots
    cancel: in the merged sorted roots every run of equal values alternates
    q, p, q, ..., so deleting or inserting an adjacent (q, p) pair keeps the
    pattern, and p, q interlace weakly iff p1, q1 interlace strictly.  Each
    distinct root x of q1 adds -1, 0 or 1 to the index, a simple one the
    sign of p1(x) / q1'(x).  So, q1 being real-rooted, the index is s m
    (|s| = 1) iff q1 has simple roots x_1 < ... < x_m with
    sign p1(x_j) = s sign lead(q1) (-1)^(m-j).  Then p1 has a root in each
    gap, and deg p1 <= m leaves at most one more, outside [x_1, x_m];
    p1(x_m) has the sign of lead(p1) unless that one lies right of x_m, as
    strict interlacing needs when deg p = deg q.  Hence s, as lead(p1)
    lead(q1) has the sign of lead(p) lead(q).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("interlacing needs nonzero polynomials")
    if not real_rooted(p) or not real_rooted(q):
        raise ValueError("interlacing requires real-rooted polynomials")
    if q.degree < p.degree or q.degree > p.degree + 1:
        return False
    chain = _signed_remainders(q.coeffs, p.coeffs)
    index = _variations_at_inf(chain, False) - _variations_at_inf(chain, True)
    m = q.degree - (len(chain[-1]) - 1)
    s = _sign(p.coeffs[-1] * q.coeffs[-1])
    if p.degree == q.degree:
        s = -s
    return index == s * m
