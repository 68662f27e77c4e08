import random
from itertools import islice, permutations
from math import comb

import pytest

from matroid_invariants.poly import (
    ONE,
    NonUnitConstant,
    NotPalindromic,
    Poly,
    X,
    ZERO,
    binomial_eulerian,
    derangement,
    eulerian,
    exact_div_x_minus_1,
    gamma_expand,
    gamma_vector,
    is_log_concave,
    is_nonneg,
    is_palindromic,
    is_unimodal,
    ones,
    palindromic_decompose,
    series_inverse,
    series_inverse_prefix,
    shape_checks,
    stirling2,
)
from matroid_invariants.realroots import real_rooted


# -- enumeration oracles -------------------------------------------------------


def eulerian_by_descents(n):
    if n == 0:
        return ONE
    out = [0] * n
    for perm in permutations(range(1, n + 1)):
        out[sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])] += 1
    return Poly(out)


def derangement_by_excedances(n):
    if n == 0:
        return ONE
    out = [0] * n
    for perm in permutations(range(1, n + 1)):
        if any(perm[i] == i + 1 for i in range(n)):
            continue
        out[sum(1 for i in range(n) if perm[i] > i + 1)] += 1
    return Poly(out)


def count_set_partitions(a, b):
    def rec(i, blocks):
        if i == a:
            return 1 if len(blocks) == b else 0
        total = 0
        if len(blocks) < b:
            total += rec(i + 1, blocks + [[i]])
        for bl in blocks:
            bl.append(i)
            total += rec(i + 1, blocks)
            bl.pop()
        return total

    return rec(0, [])


def random_poly(rng, max_deg, lo=-9, hi=9):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(coeffs)


def random_palindromic(rng, max_half):
    d = rng.randint(0, 2 * max_half)
    g = [rng.randint(-4, 4) for _ in range(d // 2 + 1)]
    if not any(g):
        g[0] = 1
    return gamma_expand(Poly(g), d), d


# -- arithmetic ----------------------------------------------------------------


def test_basic_arithmetic():
    assert Poly([1, 1]) + Poly([-1, 1]) == Poly([0, 2])
    assert ZERO * Poly([5, 1]) == ZERO
    assert Poly([1, 2, 3]) - Poly([1, 2, 3]) == ZERO
    assert (ONE + X) ** 2 == Poly([1, 2, 1])
    assert Poly([2, 1]).shift(2) == Poly([0, 0, 2, 1])
    assert Poly([1, 4, 1])(10) == 141
    assert ones(3) == Poly([1, 1, 1]) and ones(0) == ZERO and ones(-2) == ZERO
    assert Poly([7]).degree == 0 and ZERO.degree == -1


def test_reverse_reciprocal():
    q = Poly([0, 1, 1])  # x^2 + x
    # x^3 q(1/x) == q even though q is not palindromic (degree 2, center 3/2)
    assert q.reverse(3) == q
    assert not is_palindromic(q, 2)
    assert q.reverse() == Poly([1, 1])
    with pytest.raises(ValueError):
        q.reverse(1)


def test_poly_json_round_trip():
    p = Poly([1, -(10**40), 91728])
    data = p.to_json()
    assert data["coeffs"] == ["1", str(-(10**40)), "91728"]
    assert Poly.from_json(data) == p


def test_exact_div_x_minus_1():
    assert exact_div_x_minus_1(Poly([-1, 0, 1])) == Poly([1, 1])
    with pytest.raises(ValueError):
        exact_div_x_minus_1(Poly([1, 1]))
    assert exact_div_x_minus_1(ZERO) == ZERO
    with pytest.raises(ValueError):
        exact_div_x_minus_1(Poly([5]))
    rng = random.Random(8)
    for _ in range(50):
        q = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        p = (X - ONE) * q
        assert exact_div_x_minus_1(p) == q, q
        with pytest.raises(ValueError):
            exact_div_x_minus_1(p + ONE)


# -- classical families ---------------------------------------------------------


def test_eulerian_values():
    assert eulerian(0) == ONE
    assert eulerian(3) == Poly([1, 4, 1])
    assert eulerian(5) == Poly([1, 26, 66, 26, 1])


def test_eulerian_against_descent_enumeration():
    for n in range(9):
        assert eulerian(n) == eulerian_by_descents(n), n


def test_derangement_values():
    assert derangement(1) == ZERO
    assert derangement(4) == Poly([0, 1, 7, 1])
    assert derangement(5) == Poly([0, 1, 21, 21, 1])


def test_derangement_against_excedance_enumeration():
    for n in range(9):
        assert derangement(n) == derangement_by_excedances(n), n


def test_binomial_eulerian_values():
    assert binomial_eulerian(0) == ONE
    assert binomial_eulerian(4) == Poly([1, 15, 33, 15, 1])
    assert binomial_eulerian(5) == Poly([1, 31, 131, 131, 31, 1])


def test_binomial_eulerian_identity():
    for n in range(15):
        acc = ZERO
        for j in range(1, n + 1):
            acc = acc + comb(n, j) * eulerian(j)
        assert binomial_eulerian(n) == ONE + acc.shift(1), n


def test_eulerian_quadratic_recursion():
    for n in range(15):
        acc = ZERO
        for j in range(n):
            acc = acc + comb(n, j) * eulerian(j) * eulerian(n - j)
        assert eulerian(n + 1) == eulerian(n) + acc.shift(1), n


def test_stirling2():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert all(stirling2(a, 1) == 1 for a in range(1, 8))
    for a in range(7):
        for b in range(a + 2):
            assert stirling2(a, b) == count_set_partitions(a, b), (a, b)


# -- symmetric decomposition ------------------------------------------------------


def test_palindromic_decompose_frozen():
    # computed from the closed coefficient sums for p = x^2 + x
    a, b = palindromic_decompose(Poly([0, 1, 1]))
    assert a == Poly([1, 2, 1])
    assert b == Poly([-1, -1])


def test_palindromic_decompose_fixed_point():
    p = Poly([1, 3, 1])
    a, b = palindromic_decompose(p)
    assert a == p and b == ZERO


def test_palindromic_decompose_zero_rejected():
    with pytest.raises(ValueError):
        palindromic_decompose(ZERO)


def test_palindromic_decompose_reassembly_property():
    rng = random.Random(20240517)
    for _ in range(1000):
        p = random_poly(rng, 12)
        d = p.degree
        a, b = palindromic_decompose(p)
        assert a + b == p
        assert a.reverse(d) == a
        assert b.is_zero() or b.reverse(d - 1) == b
        assert a.degree == d


def test_palindromic_decompose_uniqueness_by_perturbation():
    # changing any single coefficient of the symmetric part breaks one of
    # the two symmetry constraints on (a, p - a)
    rng = random.Random(99)
    for _ in range(60):
        p = random_poly(rng, 8)
        d = p.degree
        a, b = palindromic_decompose(p)
        i = rng.randint(0, d)
        bump = rng.choice([-2, -1, 1, 2])
        a2 = a + Poly([0] * i + [bump])
        b2 = p - a2
        sym_a = a2.degree == d and a2.reverse(d) == a2
        sym_b = b2.is_zero() or (b2.degree <= d - 1 and b2.reverse(d - 1) == b2)
        assert not (sym_a and sym_b)


# -- gamma vectors ------------------------------------------------------------------


def test_gamma_vector_values():
    assert gamma_vector((ONE + X) ** 6, 6) == ONE
    assert gamma_vector(Poly([1, 7, 11, 7, 1]), 4) == Poly([1, 3, -1])
    # derived by solving g0 (1+x)^2 + g1 x = 1 + 3x + x^2
    assert gamma_vector(Poly([1, 3, 1]), 2) == Poly([1, 1])
    for d in (None, 0, 4):
        assert gamma_vector(ZERO, d) == ZERO, d


def test_gamma_vector_requires_symmetry():
    with pytest.raises(NotPalindromic):
        gamma_vector(Poly([0, 1, 1]), 2)


def peel_gamma_vector(p, d=None):
    """The full-row peel with `comb` per entry and a residue check: the
    reference for `gamma_vector`."""
    if d is None:
        d = p.degree
    if not is_palindromic(p, d):
        raise NotPalindromic("polynomial is not symmetric with center %s/2" % d)
    work = [p.coeff(i) for i in range(d + 1)]
    gamma = []
    for i in range(d // 2 + 1):
        g = work[i]
        gamma.append(g)
        if g:
            e = d - 2 * i
            for j in range(e + 1):
                work[i + j] -= g * comb(e, j)
    if any(work):
        raise NotPalindromic("gamma peeling left a nonzero residue")
    return Poly(gamma)


def test_gamma_vector_matches_full_peel():
    assert gamma_vector(X, 2) == Poly([0, 1])
    assert gamma_vector(X ** 2, 4) == Poly([0, 0, 1])
    for p, d in ((X, 0), (X ** 3, 2), (Poly([1, 2, 1]), 1), (Poly([1, 1]), -1), (Poly([0, 1, 1]), 2)):
        for f in (gamma_vector, peel_gamma_vector):
            with pytest.raises(NotPalindromic):
                f(p, d)
    rng = random.Random(71)
    cases = [(ZERO, d) for d in (None, -3, -1, 0, 5)]
    for _ in range(400):
        p, d = random_palindromic(rng, 6)
        cases += [(p, d), (p, d + rng.randint(1, 3)), (p, None)]
        if p.degree > 0:
            cases.append((p, p.degree - 1))  # d below the degree
        cases.append((p + Poly([0] * rng.randint(0, d) + [rng.choice([-1, 1])]), d))
    odd = even = 0
    for p, d in cases:
        try:
            want = peel_gamma_vector(p, d)
        except NotPalindromic:
            with pytest.raises(NotPalindromic):
                gamma_vector(p, d)
            continue
        assert gamma_vector(p, d) == want, (p, d)
        center = p.degree if d is None else d
        if p:
            assert gamma_expand(want, center) == p
            odd += center % 2
            even += 1 - center % 2
    assert odd and even


def test_gamma_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        p, d = random_palindromic(rng, 6)
        assert gamma_expand(gamma_vector(p, d), d) == p


def test_gamma_toolbox_identities():
    rng = random.Random(13)
    for _ in range(200):
        f, df = random_palindromic(rng, 4)
        g, dg = random_palindromic(rng, 4)
        if f.is_zero() or g.is_zero():
            continue
        gf, gg = gamma_vector(f, df), gamma_vector(g, dg)
        assert gamma_vector(f * g, df + dg) == gf * gg
        assert gamma_vector(f.shift(1), df + 2) == gf.shift(1)
        assert gamma_vector((ONE + X) * f, df + 1) == gf
        if df == dg:
            s = f + g
            if not s.is_zero():
                assert gamma_vector(s, df) == gf + gg


# -- shape flags ---------------------------------------------------------------------


def test_shape_checks():
    flags = shape_checks(Poly([0, 1, 1]), center=2)
    assert flags["palindromic"] is False
    assert all(shape_checks((ONE + X) ** 4).values())
    flags = shape_checks(Poly([1, 4, 1]), center=2)
    assert flags["palindromic"] and flags["unimodal"] and flags["log_concave"]
    assert not is_unimodal(Poly([1, 0, 2]))
    assert is_unimodal(Poly([1, 2, 2, 1]))
    assert not is_log_concave(Poly([1, 1, 2]))
    assert is_nonneg(Poly([0, 2])) and not is_nonneg(Poly([-1, 2]))


def test_real_rooted_implies_log_concave_and_gamma_nonneg():
    candidates = [eulerian(n) for n in range(2, 9)]
    candidates += [binomial_eulerian(n) for n in range(1, 8)]
    candidates += [derangement(n) for n in range(2, 9)]
    for p in candidates:
        assert real_rooted(p)
        assert is_log_concave(Poly([abs(c) for c in p.coeffs]))
        d = p.degree if p.coeff(0) else p.degree + 1  # derangements center n/2
        if is_palindromic(p, d):
            assert is_nonneg(gamma_vector(p, d))


# -- series inversion -----------------------------------------------------------------


def test_series_inverse_geometric():
    assert series_inverse_prefix(Poly([1, -1]), 4) == [1, 1, 1, 1, 1]


def test_series_inverse_whitney_example():
    p = Poly([1, -5, 10, -1])
    assert series_inverse_prefix(p, 5) == [1, 5, 15, 26, -15, -320]


def test_series_inverse_quadratic_term():
    # for 1 - a x + b x^2 - a x^3 + x^4 the x^2 coefficient of the inverse
    # is a^2 - b
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(0, 50), rng.randint(0, 50)
        p = Poly([1, -a, b, -a, 1])
        assert series_inverse_prefix(p, 2)[2] == a * a - b


def test_series_inverse_runs_on_past_any_prefix():
    p = Poly([1, -5, 10, -1])
    assert list(islice(series_inverse(p), 6)) == series_inverse_prefix(p, 5)
    assert next(islice(series_inverse(Poly([1, -1])), 10**4, None)) == 1


def test_series_inverse_requires_unit():
    with pytest.raises(NonUnitConstant):
        series_inverse_prefix(Poly([2, 1]), 3)
    with pytest.raises(NonUnitConstant):
        next(series_inverse(Poly([2, 1])))
