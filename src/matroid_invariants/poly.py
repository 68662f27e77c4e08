"""Exact univariate polynomial arithmetic over the integers.

A polynomial is an immutable value holding its coefficients in ascending
degree order, with no trailing zeros (the zero polynomial has no
coefficients at all).  Coefficients are Python ints, so nothing here ever
overflows; nothing here ever touches floating point.

Besides the arithmetic, this module hosts the classical families that keep
showing up as Hilbert series of small matroids (Eulerian, derangement,
binomial Eulerian polynomials, Stirling numbers) and the shape analysis
used for certification: palindromicity, unimodality, log-concavity, the
symmetric a/b decomposition and gamma vectors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from math import comb


class NotPalindromic(ValueError):
    """Raised when an operation needs a symmetric polynomial and got none."""


class NonUnitConstant(ValueError):
    """Raised when inverting a power series whose constant term is not +-1."""


class Poly:
    """Dense univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        """Coefficient of x^i (0 outside the support)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    __getitem__ = coeff

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Poly()
            return Poly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, r):
        """Multiply by x^r."""
        if r < 0:
            raise ValueError("shift exponent must be nonnegative")
        if not self.coeffs:
            return self
        return Poly((0,) * r + self.coeffs)

    def reverse(self, d=None):
        """The reciprocal x^d * p(1/x); d defaults to deg p and must be >= it."""
        if d is None:
            d = max(self.degree, 0)
        if d < self.degree:
            raise ValueError("reversal center %d below degree %d" % (d, self.degree))
        out = [0] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return Poly(out)

    def derivative(self):
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, v):
        """Evaluate by Horner's rule; works for ints and Fractions alike."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    # -- serialization, printing ------------------------------------------

    def to_json(self):
        """JSON form {"coeffs": [...]} with decimal-string coefficients."""
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls(int(c) for c in data["coeffs"])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else "x^%d" % i
                body = var if mag == 1 else "%d%s" % (mag, var)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


def ones(k):
    """The truncated geometric series 1 + x + ... + x^(k-1); zero for k <= 0."""
    return Poly((1,) * k)


# -- classical families ---------------------------------------------------


@lru_cache(maxsize=None)
def eulerian(n):
    """n-th Eulerian polynomial A_n, with A_0 = 1 and deg A_n = n - 1.

    Computed by the triangle recurrence
    A(n, k) = (k + 1) A(n-1, k) + (n - k) A(n-1, k-1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ONE
    prev = eulerian(n - 1).coeffs
    out = []
    for k in range(n):
        c = 0
        if k < len(prev):
            c += (k + 1) * prev[k]
        if 0 <= k - 1 < len(prev):
            c += (n - k) * prev[k - 1]
        out.append(c)
    return Poly(out)


@lru_cache(maxsize=None)
def derangement(n):
    """n-th derangement polynomial d_n (excedance statistic); d_0 = 1, d_1 = 0.

    Computed by the recurrence
    d_n = sum_{j=0}^{n-2} C(n, j) d_j (x + x^2 + ... + x^(n-j-1)),
    which determines the family together with d_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ONE
    acc = ZERO
    for j in range(n - 1):
        acc = acc + comb(n, j) * derangement(j) * ones(n - j - 1).shift(1)
    return acc


@lru_cache(maxsize=None)
def binomial_eulerian(n):
    """n-th binomial Eulerian polynomial 1 + x sum_{j=1}^n C(n,j) A_j(x)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = ZERO
    for j in range(1, n + 1):
        acc = acc + comb(n, j) * eulerian(j)
    return ONE + acc.shift(1)


@lru_cache(maxsize=None)
def _stirling2_row(a):
    if a == 0:
        return (1,)
    prev = _stirling2_row(a - 1)
    row = [0] * (a + 1)
    for b in range(1, a + 1):
        row[b] = b * (prev[b] if b < len(prev) else 0) + prev[b - 1]
    return tuple(row)


def stirling2(a, b):
    """Stirling number of the second kind: partitions of an a-set into b blocks."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    if b > a:
        return 0
    return _stirling2_row(a)[b]


# -- shape analysis -------------------------------------------------------


def is_palindromic(p, d=None):
    """Whether x^d p(1/x) == p; d defaults to deg p.  True for the zero poly."""
    if p.is_zero():
        return True
    if d is None:
        d = p.degree
    if d < p.degree:
        return False
    return all(p.coeff(i) == p.coeff(d - i) for i in range(d + 1))


def is_nonneg(p):
    return all(c >= 0 for c in p.coeffs)


def is_unimodal(p):
    """Coefficients weakly rise then weakly fall."""
    cs = p.coeffs
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return i >= len(cs) - 1


def is_log_concave(p):
    """a_i^2 >= a_{i-1} a_{i+1} for all interior indices."""
    cs = p.coeffs
    return all(cs[i] * cs[i] >= cs[i - 1] * cs[i + 1] for i in range(1, len(cs) - 1))


def shape_checks(p, center=None):
    """Bundle of shape flags; palindromicity is tested against `center`."""
    return {
        "palindromic": is_palindromic(p, center),
        "unimodal": is_unimodal(p),
        "log_concave": is_log_concave(p),
        "nonneg": is_nonneg(p),
    }


def palindromic_decompose(p):
    """Split p of degree d uniquely as a + b with x^d a(1/x) = a and
    x^(d-1) b(1/x) = b, deg b <= d - 1.

    Coefficients come from the explicit peeling
        a_i = p_d + ... + p_{d-i} - p_0 - ... - p_{i-1},
        b_i = p_0 + ... + p_i - p_d - ... - p_{d-i}.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    d = p.degree
    lo = 0  # p_0 + ... + p_{i-1}
    hi = 0  # p_d + ... + p_{d-i+1}
    a = []
    b = []
    for i in range(d + 1):
        hi += p.coeff(d - i)
        a.append(hi - lo)
        lo += p.coeff(i)
        if i < d:
            b.append(lo - hi)
    return Poly(a), Poly(b)


def gamma_vector(p, d=None):
    """Gamma vector of a symmetric polynomial with center d/2, i.e. the
    coefficients of p in the basis x^i (1+x)^(d-2i); d defaults to deg p.

    Raises NotPalindromic unless x^d p(1/x) == p, in particular when
    d < deg p.  The zero polynomial is symmetric about every center.
    """
    cs = p.coeffs
    if not cs:
        return ZERO
    if d is None:
        d = len(cs) - 1
    work = list(cs) + [0] * (d + 1 - len(cs))
    if len(cs) > d + 1 or work != work[::-1]:
        raise NotPalindromic("polynomial is not symmetric with center %s/2" % d)
    # Subtracting gamma_i x^i (1+x)^(d-2i) keeps the rest symmetric about
    # d/2, so only the lower half is updated: once it is peeled to zero,
    # so is the upper half.
    half = d // 2
    gamma = []
    for i in range(half + 1):
        g = work[i]
        gamma.append(g)
        if g:
            e = d - 2 * i
            c = g  # g * C(e, j), one row entry after another
            for j in range(half - i + 1):
                work[i + j] -= c
                c = c * (e - j) // (j + 1)
    return Poly(gamma)


def gamma_expand(g, d):
    """Reassemble sum gamma_i x^i (1+x)^(d-2i); inverse of gamma_vector."""
    if 2 * g.degree > d:
        raise ValueError("gamma vector too long for center degree %d" % d)
    acc = ZERO
    for i, c in enumerate(g.coeffs):
        if c:
            acc = acc + c * ((ONE + X) ** (d - 2 * i)).shift(i)
    return acc


def series_inverse(p):
    """The coefficients of the power series 1/p(x), exactly, without end.

    Requires p(0) in {1, -1} so that the expansion stays integral.
    """
    c0 = p.coeff(0)
    if c0 not in (1, -1):
        raise NonUnitConstant("constant term must be +-1, got %s" % c0)
    out = [c0]  # 1/c0 == c0 for c0 = +-1
    yield c0
    for k in count(1):
        s = 0
        for j in range(1, min(k, p.degree) + 1):
            s += p.coeff(j) * out[k - j]
        out.append(-c0 * s)
        yield out[k]


def series_inverse_prefix(p, n_terms):
    """First n_terms + 1 coefficients of the power series 1/p(x), exactly.

    Requires p(0) in {1, -1} so that the expansion stays integral.
    """
    return list(islice(series_inverse(p), n_terms + 1))


def exact_div_x_minus_1(p):
    """Exact quotient p / (x - 1); raises if p(1) != 0.  Coefficient i of
    the quotient is the sum of the coefficients of p above degree i, so one
    walk down the coefficients divides, and the last sum plus the constant
    term is p(1)."""
    cs = p.coeffs
    out = [0] * max(len(cs) - 1, 0)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry += cs[i]
        out[i - 1] = carry
    if cs and carry + cs[0]:
        raise ValueError("polynomial is not divisible by x - 1")
    return Poly(out)
