"""Exact real-root certification: Sturm sequences, isolation, interlacing.

Everything here runs on integers; there is no floating point on any
certification path.  Sturm chains, and with them squarefree parts, are
computed in Z[x] alone: each remainder is an integer pseudo-remainder,
scaled at every step by a positive factor of the divisor's leading
coefficient, and reduced to its primitive part.  Positive scaling keeps the
sign structure, and a primitive part is the same whatever positive multiple
it came from, so every chain entry is the primitive part of the remainder
over Q.  Rationals appear only as evaluation points (root isolation and
interlacing), as `fractions.Fraction`s that `cauchy_bound` and
`count_distinct_real_roots` make, which import `fractions` themselves; the
sign of a polynomial at a / b is read off an integer sum, with no
`Fraction` arithmetic per coefficient.

Interlacing counts the roots of a real-rooted polynomial up to a point,
with multiplicity, by Descartes' rule of signs on its Taylor expansion at
that point (`_descartes_counter`), so the Sturm chain is the module's one
Euclidean loop.

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
    """p / gcd(p, p') as a primitive integer polynomial (same root set)."""
    return _squarefree_with_chain(p)[0]


def _squarefree_with_chain(p):
    """(q, chain): q = squarefree_part(p), and chain the Sturm chain of q
    when it came for free, else None.

    The gcd is the last entry of the Sturm chain of p, taken with a
    positive leading coefficient so that the quotient has the sign of p.
    When it is a constant, p is squarefree, q is p's primitive part and
    that chain is q's."""
    cs = _primitive(_int_coeffs(p))
    if len(cs) <= 1:
        return cs, None
    chain = sturm_chain(cs)
    g = chain[-1]
    if len(g) == 1:
        return cs, chain
    if g[-1] < 0:
        g = tuple(-c for c in g)
    return _primitive(_exact_quotient(cs, g)), None


def sturm_chain(coeffs):
    """Sturm chain of an integer polynomial, each entry primitive integer.

    The last entry is gcd(p, p') up to a nonzero constant."""
    s0 = _primitive(coeffs)
    if len(s0) <= 1:
        return [s0] if s0 else []
    chain = [s0, _primitive(_derivative(s0))]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive(tuple(-c for c in rem)))
    return chain


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
    of any multiplicity.  Bounds are read exactly as `Fraction`s.
    """
    from fractions import Fraction

    cs, chain = _squarefree_with_chain(p)
    if not cs:
        raise ValueError("the zero polynomial has every number as a root")
    chain = chain or sturm_chain(cs)
    va = _variations_at_inf(chain, False) if lo is None else _variations_at(chain, Fraction(lo))
    vb = _variations_at_inf(chain, True) if hi is None else _variations_at(chain, Fraction(hi))
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
    q, chain = _squarefree_with_chain(p)
    if len(q) <= 1:
        return []
    chain = chain or sturm_chain(q)
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


def _descartes_counter(p):
    """x -> the number of roots <= x of the real-rooted polynomial p,
    counted with multiplicity, at any rational x.

    With d = deg p and V(x) the sign changes, zeros dropped, in
    p(x), p'(x), ..., p^(d)(x), the count is d - V(x).  Proof: the roots of
    p(x + t) = sum_k p^(k)(x) t^k / k! in t are those of p shifted by -x,
    so all real, and its coefficients have the signs of the p^(k)(x).
    Descartes' rule of signs is exact for a real-rooted polynomial: its
    positive roots, with multiplicity, number its sign changes.  So V(x)
    counts the roots of p above x, and the other d - V(x) are <= x.
    """
    derivs = [p.coeffs]
    while len(derivs[-1]) > 1:
        derivs.append(_derivative(derivs[-1]))
    return lambda x: p.degree - _variations_at(derivs, x)


def interlaces(p, q):
    """Weak interlacing of root multisets: with p_1 <= ... <= p_s and
    q_1 <= ... <= q_t the sorted real roots (with multiplicity), checks
    q_1 <= p_1 <= q_2 <= p_2 <= ...  Shared roots are allowed.

    Requires deg q in {deg p, deg p + 1}; a q of smaller degree never
    interlaces.  Both inputs must be real-rooted.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("interlacing needs nonzero polynomials")
    if not real_rooted(p) or not real_rooted(q):
        raise ValueError("interlacing requires real-rooted polynomials")
    if q.degree < p.degree or q.degree > p.degree + 1:
        return False

    # the counts change only at roots of p * q; left of them both are 0
    count_p = _descartes_counter(p)
    count_q = _descartes_counter(q)
    for _, s in isolate_real_roots(p * q):
        np_, nq = count_p(s), count_q(s)
        if not (np_ <= nq <= np_ + 1):
            return False
    return True
