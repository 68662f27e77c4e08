import random
from fractions import Fraction
from math import gcd

import pytest

from matroid_invariants import realroots
from matroid_invariants.invariants import aug_chow_paving, chow_braid, chow_paving
from matroid_invariants.poly import ONE, Poly, X, eulerian, gamma_expand, gamma_vector
from matroid_invariants.realroots import (
    _derivative,
    _descartes_counter,
    _primitive,
    _variations_at_inf,
    cauchy_bound,
    count_distinct_real_roots,
    interlaces,
    isolate_real_roots,
    real_rooted,
    roots_all_real,
    squarefree_part,
    sturm_chain,
)


def poly_from_roots(roots):
    p = ONE
    for r in roots:
        p = p * Poly([-r, 1])
    return p


# -- Fraction-Euclid references: the chain, gcd and squarefree part over Q ------


class RatPoly:
    """Dense polynomial with exact rational coefficients (ascending degree)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / lead
            if c:
                quo[i - dd] = c
                for j, dj in enumerate(div):
                    rem[i - dd + j] -= c * dj
        return RatPoly(quo), RatPoly(rem)

    def primitive_int(self):
        """Positive rescaling onto primitive integer coefficients."""
        if not self.coeffs:
            return ()
        denom = 1
        for c in self.coeffs:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, c)
        return tuple(c // g for c in ints)

    def __repr__(self):
        return "RatPoly(%r)" % (self.coeffs,)


def ref_sturm_chain(coeffs):
    s0 = _primitive(coeffs)
    if len(s0) <= 1:
        return [s0] if s0 else []
    chain = [s0, _primitive(_derivative(s0))]
    while True:
        rem = RatPoly(chain[-2]).divmod(RatPoly(chain[-1]))[1]
        if not rem:
            break
        chain.append(_primitive(tuple(-c for c in rem.primitive_int())))
        if len(chain[-1]) == 1:
            break
    return chain


def ref_poly_gcd(a, b):
    fa, fb = RatPoly(a), RatPoly(b)
    while fb:
        fa, fb = fb, fa.divmod(fb)[1]
    out = fa.primitive_int()
    if out and out[-1] < 0:
        out = tuple(-c for c in out)
    return out


def ref_squarefree_part(coeffs):
    cs = _primitive(coeffs)
    if len(cs) <= 1:
        return cs
    g = ref_poly_gcd(cs, _derivative(cs))
    if len(g) == 1:
        return cs
    quo, rem = RatPoly(cs).divmod(RatPoly(g))
    assert not rem
    return quo.primitive_int()


def ref_real_rooted(p):
    """Strip x^m, pass to the squarefree part q, and ask for deg q distinct
    real roots."""
    cs = list(p.coeffs)
    while cs[0] == 0:
        cs.pop(0)
    q = ref_squarefree_part(cs)
    if len(q) <= 2:
        return True
    chain = ref_sturm_chain(q)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True) == len(q) - 1


def random_factored(rng):
    """A product of linear factors, x, and the irreducible quadratics
    x^2 + 1 and x^2 + 2x + 2, each to a power of at most 3."""
    p = Poly([rng.choice([-3, -2, -1, 1, 2, 3])])
    for _ in range(rng.randint(0, 5)):
        factor = rng.choice(
            [Poly([rng.randint(-5, 5), rng.choice([-3, -1, 1, 2])]), X, Poly([1, 0, 1]), Poly([2, 2, 1])]
        )
        p = p * factor ** rng.randint(1, 3)
    return p


def integer_corpus():
    """Sweep polynomials, chow_braid(2..15) and random integer polynomials,
    a share of them with negative leading coefficients."""
    polys = []
    for k in range(2, 8):
        for lam in range(0, 30, 3):
            polys += [chow_paving(k, 14, {k: lam}), aug_chow_paving(k, 14, {k: lam})]
    polys += [chow_braid(n) for n in range(2, 16)]
    rng = random.Random(41)
    for _ in range(300):
        cs = [rng.randint(-30, 30) for _ in range(rng.randint(1, 9))]
        cs[-1] = rng.choice([-1, 1]) * rng.randint(1, 9)
        polys.append(Poly(cs))
    for _ in range(300):
        polys.append(random_factored(rng))
    assert any(p.coeffs[-1] < 0 for p in polys)
    return polys


def test_integer_chains_equal_fraction_reference():
    for p in integer_corpus():
        cs = p.coeffs
        assert sturm_chain(cs) == ref_sturm_chain(cs), cs
        assert squarefree_part(cs) == ref_squarefree_part(cs), cs


def test_real_rooted_matches_squarefree_reference():
    rng = random.Random(53)
    polys = [random_factored(rng) for _ in range(400)]
    polys += [Poly([c]) for c in (-4, -1, 1, 7)]
    polys += [X ** m * Poly([2, 2, 1]) ** e for m in range(3) for e in (1, 2)]
    polys += [X ** m * Poly([1, 0, 1]) ** e for m in range(3) for e in (1, 2)]
    polys += [Poly([rng.randint(-9, 9) for _ in range(d + 1)]) for d in (1, 2) for _ in range(40)]
    polys = [p for p in polys if p]
    verdicts = set()
    for p in polys:
        want = ref_real_rooted(p)
        assert real_rooted(p) == want, p
        verdicts.add((p.degree <= 2, want))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def palindromic_corpus(rng):
    """Palindromic polynomials, most of them gamma-nonnegative: expansions
    of random gamma >= 0 (real-rooted or not), products of (x + a)(a x + 1),
    1 + x and a non-real-rooted gamma-positive quartic with repeated factors,
    expansions of mixed-sign gamma, then x^m shifts and negations of a share
    of them."""
    quartic = gamma_expand(Poly([1, 0, 1]), 4)
    polys = [gamma_expand(Poly(g), d) for g, d in (([1, 0, 1], 4), ([1, 0, 1], 5), ([1, 0, 0, 1], 6), ([1, 0, 0, 1], 7))]
    for sign in (0, 1):
        for _ in range(150):
            d = rng.randint(0, 12)
            g = [rng.randint(-6 * sign, 6) for _ in range(d // 2 + 1)]
            g[0] = rng.randint(1, 6)
            polys.append(gamma_expand(Poly(g), d))
    for _ in range(200):
        p = Poly([rng.randint(1, 3)])
        for _ in range(rng.randint(1, 4)):
            a = rng.choice([-3, -2, -1, 1, 2, 3, 5])
            factor = rng.choice([Poly([a, 1]) * Poly([1, a]), ONE + X, quartic])
            p = p * factor ** rng.randint(1, 3)
        polys.append(p)
    for p in list(polys[::3]):
        polys += [p.shift(rng.randint(1, 3)), -p, -p.shift(1)]
    return polys


def test_gamma_route_matches_reference(monkeypatch):
    """`real_rooted` chains the gamma polynomial of palindromic,
    gamma-nonnegative inputs; the Fraction reference never reduces."""
    chained = []
    chain = realroots.sturm_chain

    def spy(cs):
        chained.append(len(cs))
        return chain(cs)

    monkeypatch.setattr(realroots, "sturm_chain", spy)
    verdicts = set()
    for p in palindromic_corpus(random.Random(83)):
        chained.clear()
        got = real_rooted(p)
        assert got == ref_real_rooted(p), p
        q = list(p.coeffs)
        while q[0] == 0:
            q.pop(0)
        gamma = gamma_vector(Poly(q)).coeffs if q == q[::-1] else None
        route = gamma is not None and all(c >= 0 for c in gamma)
        assert chained == [len(gamma) if route else len(q)], p
        verdicts.add((route, got))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_real_rooted_basic():
    assert real_rooted((ONE + X) ** 3)
    assert not real_rooted(Poly([1, 1, 1]))
    assert real_rooted(Poly([1, 51, 161, 51, 1]))
    assert real_rooted(Poly([5]))  # constants are vacuously real-rooted
    assert real_rooted(Poly([0, 0, 3]))  # x^2
    with pytest.raises(ValueError):
        real_rooted(Poly())


def test_roots_all_real_on_constants_and_the_zero_polynomial():
    assert roots_all_real((5,)) and roots_all_real((-1, 0))  # constants
    assert roots_all_real((2, 1)) and not roots_all_real((1, 0, 1))
    for cs in ((), (0,), (0, 0)):
        with pytest.raises(ValueError):
            roots_all_real(cs)


def test_real_rooted_mixed_multiplicities():
    p = (ONE + X) ** 2 * Poly([-2, 1]) * X
    assert real_rooted(p)
    assert not real_rooted(p * Poly([1, 0, 1]))


def test_sturm_ignores_complex_factors():
    rng = random.Random(11)
    for _ in range(40):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        q = poly_from_roots(roots)
        base = count_distinct_real_roots(q)
        assert base == len(set(roots))
        assert count_distinct_real_roots(q * Poly([1, 0, 1])) == base
        assert count_distinct_real_roots(q * Poly([2, 2, 1])) == base


def test_count_on_intervals():
    p = poly_from_roots([-3, -1, 2])
    assert count_distinct_real_roots(p, Fraction(-4), Fraction(3)) == 3
    assert count_distinct_real_roots(p, Fraction(-2), Fraction(3)) == 2
    assert count_distinct_real_roots(p, Fraction(0), Fraction(3)) == 1
    # a nonzero constant has no roots, on the whole line or an interval
    assert count_distinct_real_roots(Poly([-5])) == 0
    assert count_distinct_real_roots(Poly([-5]), Fraction(-4), Fraction(3)) == 0


def test_count_with_roots_at_endpoints():
    # the chain is that of the squarefree part, so an endpoint may be a
    # multiple root: counts are of (lo, hi] all the same
    p = poly_from_roots([1, 1, 2])
    assert count_distinct_real_roots(p, 0, 1) == 1
    assert count_distinct_real_roots(p, 1, 3) == 1
    q = poly_from_roots([1, 1, 1]) * Poly([1, 0, 1])
    assert count_distinct_real_roots(q, 1, 2) == 0
    assert count_distinct_real_roots(q, 0, 1) == 1
    rng = random.Random(79)
    for _ in range(150):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(rng.randint(1, 6))]
        p = rational_root_poly(roots, rng.choice((1, -1))) * rng.choice((ONE, Poly([1, 0, 1]), Poly([2, 2, 1]) ** 2))
        points = set(roots) | {Fraction(rng.randint(-14, 14), rng.randint(1, 4)) for _ in range(3)}
        for lo in [None, *points]:
            for hi in [None, *points]:
                if lo is None or hi is None or lo < hi:
                    want = len({r for r in roots if (lo is None or lo < r) and (hi is None or r <= hi)})
                    assert count_distinct_real_roots(p, lo, hi) == want, (roots, lo, hi)


def test_squarefree_part():
    p = (ONE + X) ** 3 * Poly([-2, 1])
    q = Poly(squarefree_part(p))
    assert q.degree == 2
    assert q(-1) == 0 and q(2) == 0


def test_cauchy_bound_contains_roots():
    p = poly_from_roots([-5, 3, 7])
    b = cauchy_bound(p.coeffs)
    assert b > 7


def test_isolation():
    rng = random.Random(23)
    cases = []
    for _ in range(30):
        roots = sorted(set(rng.randint(-8, 8) for _ in range(rng.randint(1, 5))))
        cases.append((poly_from_roots(roots), roots))
    # the first midpoint, 0, is a root of each of these
    cases += [(poly_from_roots(roots), roots) for roots in ([-1, 0, 1], [-2, 0, 1, 5])]
    cases.append((X * Poly([-4, 0, 1]) ** 2, [-2, 0, 2]))
    for p, roots in cases:
        intervals = isolate_real_roots(p)
        assert len(intervals) == len(roots)
        for (lo, hi), r in zip(intervals, roots):
            assert lo < r < hi and p(lo) != 0 and p(hi) != 0
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi <= lo


def fraction_isolation(p):
    """The bisection of `isolate_real_roots`, with every sign taken from a
    `Fraction` Horner evaluation: the reference for the integer signs."""
    def sign_at(coeffs, x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return (acc > 0) - (acc < 0)

    def variations(chain, x):
        signs = [s for s in (sign_at(c, x) for c in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    q = squarefree_part(p)
    if len(q) <= 1:
        return []
    chain = sturm_chain(q)
    bound = cauchy_bound(q)
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        k = variations(chain, lo) - variations(chain, hi)
        if k == 1:
            out.append((lo, hi))
        elif k > 1:
            mid = (lo + hi) / 2
            while sign_at(q, mid) == 0:
                mid = (lo + mid) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


def test_isolation_equals_fraction_reference():
    rng = random.Random(67)
    polys = [p for p in integer_corpus()[::3] if p.degree >= 1]  # every family, a third of each
    polys += [rational_root_poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))],
                                 rng.choice((1, -1))) for _ in range(100)]
    polys += [poly_from_roots(roots) for roots in ([-1, 0, 1], [-2, 0, 1, 5])]  # the first midpoint is a root
    for p in polys:
        intervals = isolate_real_roots(p)
        assert intervals == fraction_isolation(p), p
        assert all(type(lo) is Fraction and type(hi) is Fraction for lo, hi in intervals)



def test_squarefree_input_builds_one_sturm_chain(monkeypatch):
    # the chain that finds gcd(p, p') = 1 is the chain of p itself, so a
    # squarefree input costs one Euclidean loop; a square factor costs two
    p = Poly([1, 3, 1]) * Poly([2, 5, 1])
    square = p * (ONE + X) ** 2
    want = {
        "isolate": (fraction_isolation(p), fraction_isolation(square)),
        "count": (4, 5),
        "count in (-1, 0]": (2, 2),
    }
    calls = []
    chain = realroots.sturm_chain

    def spy(cs):
        calls.append(cs)
        return chain(cs)

    monkeypatch.setattr(realroots, "sturm_chain", spy)
    queries = {
        "isolate": isolate_real_roots,
        "count": count_distinct_real_roots,
        "count in (-1, 0]": lambda q: count_distinct_real_roots(q, -1, 0),
    }
    for name, query in queries.items():
        for q, expect, n_chains in zip((p, square), want[name], (1, 2)):
            calls.clear()
            assert query(q) == expect, (name, q)
            assert len(calls) == n_chains, (name, q)
    assert squarefree_part(p) == p.coeffs

def test_interlaces_examples():
    assert interlaces(Poly([1, 1]), Poly([1, 1]) * Poly([2, 1]))
    assert not interlaces(Poly([1, 1]) * Poly([3, 1]), Poly([2, 1]))
    assert interlaces(Poly([1, 7, 1]), Poly([1, 11, 11, 1]))
    # a constant has no roots: it interlaces any q of degree 0 or 1
    assert interlaces(Poly([3]), Poly([2, 1]))
    assert interlaces(Poly([3]), Poly([-2]))
    assert not interlaces(Poly([3]), Poly([2, 1]) ** 2)


def test_interlaces_shared_roots_weak():
    assert interlaces(Poly([1, 1]), Poly([1, 1]) ** 2)
    assert interlaces(Poly([1, 1]) * Poly([3, 1]), Poly([1, 1]) * Poly([2, 1]) * Poly([4, 1]))


def test_interlaces_requires_real_rooted():
    with pytest.raises(ValueError):
        interlaces(Poly([1, 1, 1]), Poly([1, 1]) * Poly([2, 1]))


def test_interlaces_alternation_property():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        qroots = sorted(rng.sample(range(-40, 40, 2), n + 1))
        proots = [rng.randint(qroots[i] , qroots[i + 1]) for i in range(n)]
        p, q = poly_from_roots(proots), poly_from_roots(qroots)
        assert interlaces(p, q)
    # a decisively non-interlacing pair: all roots of p beyond the range of q
    p = poly_from_roots([10, 12])
    q = poly_from_roots([-3, -2, -1])
    assert not interlaces(p, q)


def rational_root_poly(roots, sign):
    """sign * prod (b x - a) over the roots a / b."""
    p = Poly([sign])
    for r in roots:
        p = p * Poly([-r.numerator, r.denominator])
    return p


def merged_interlacing(proots, qroots):
    """Oracle: q_1 <= p_1 <= q_2 <= p_2 <= ... on the sorted root lists,
    false unless q has as many roots as p or one more."""
    if not len(proots) <= len(qroots) <= len(proots) + 1:
        return False
    merged = [None] * (len(proots) + len(qroots))
    merged[0::2], merged[1::2] = sorted(qroots), sorted(proots)
    return all(a <= b for a, b in zip(merged, merged[1:]))


def test_interlaces_against_merged_roots():
    # deg q - deg p in {-1, 0, 1, 2}, roots drawn from a small pool so that
    # they repeat within each polynomial and are shared between the two
    rng = random.Random(1901)
    verdicts = set()
    shared = repeated = 0
    for trial in range(1200):
        pool = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        gap = rng.choice((-1, 0, 1, 2))
        deg_p = rng.randint(max(0, -gap), 5)
        qroots = sorted(rng.choice(pool) for _ in range(deg_p + gap))
        if trial % 2 and gap in (0, 1):
            # interlacing by construction: p_i from [q_i, q_(i+1)], or from
            # [q_i, q_i + 1] for the last root when deg q = deg p
            proots = []
            for i in range(deg_p):
                lo = qroots[i]
                hi = qroots[i + 1] if i + 1 < len(qroots) else lo + 1
                proots.append(rng.choice([r for r in pool + qroots + [lo + Fraction(1, 7)] if lo <= r <= hi]))
        else:
            proots = [rng.choice(pool + qroots) for _ in range(deg_p)]
        p = rational_root_poly(proots, rng.choice((1, -1)))
        q = rational_root_poly(qroots, rng.choice((1, -1)))
        expected = merged_interlacing(proots, qroots)
        assert interlaces(p, q) == expected, (proots, qroots)
        verdicts.add((gap, expected))
        shared += bool(set(proots) & set(qroots))
        repeated += len(set(proots)) < len(proots) or len(set(qroots)) < len(qroots)
    assert verdicts == {(-1, False), (0, False), (0, True), (1, False), (1, True), (2, False)}
    assert shared > 300 and repeated > 300, (shared, repeated)


def test_descartes_count_at_rational_points():
    # deg p - V(x) counts the roots <= x with multiplicity, at roots too
    rng = random.Random(1902)
    for _ in range(300):
        pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        roots = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        count = _descartes_counter(rational_root_poly(roots, rng.choice((1, -1))))
        points = set(pool) | {Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(4)}
        for x in points:
            assert count(x) == sum(r <= x for r in roots), (roots, x)


def test_derivative_interlaces():
    for n in (3, 5, 7):
        p = eulerian(n)
        assert interlaces(Poly(tuple(c for c in p.derivative().coeffs)), p)


def test_ratpoly_division():
    a = RatPoly([1, 0, 1])
    b = RatPoly([1, 1])
    quo, rem = a.divmod(b)
    assert quo == RatPoly([-1, 1]) and rem == RatPoly([2])
    assert RatPoly([Fraction(1, 2), Fraction(3, 2)]).primitive_int() == (1, 3)
