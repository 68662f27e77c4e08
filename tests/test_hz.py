import random
from itertools import product

import pytest

from matroid_invariants.hz import hz_poly, hz_recursion_check, hz_uniform, search_s_vectors
from matroid_invariants.invariants import aug_chow_uniform
from matroid_invariants.poly import ONE, Poly, X, binomial_eulerian


def asc_col(s):
    """(e, asc, col) for every inversion sequence e of s, by the definition."""
    n = len(s)
    padded_s = (1,) + tuple(s) + (1,)
    for e in product(*(range(v) for v in s)):
        seq = (0,) + e + (0,)
        asc = col = 0
        for i in range(n + 1):
            lhs, rhs = seq[i] * padded_s[i + 1], seq[i + 1] * padded_s[i]
            if lhs < rhs:
                asc += 1
            elif lhs == rhs:
                col += 1
        yield e, asc, col


def hz_enumerate(s):
    """The literal product enumeration: one term per inversion sequence."""
    n = len(s)
    powers = [(ONE + X) ** c for c in range(n + 2)]
    acc = Poly()
    for _, asc, col in asc_col(s):
        acc = acc + powers[col].shift(asc)
    return acc


def test_hz_single_entry_hand_enumeration():
    # s = (2): e = 0 gives two collisions, e = 1 gives one ascent
    assert hz_poly([2]) == Poly([1, 3, 1])


def test_hz_empty_vector_convention():
    assert hz_poly([]) == ONE + X
    assert hz_uniform(1, 7) == ONE + X
    assert hz_uniform(0, 7) == ONE


def test_hz_consecutive_gives_binomial_eulerian():
    for n in range(1, 8):
        assert hz_poly(range(2, n + 1)) == binomial_eulerian(n), n
    # 12! (about 4.8e8) sequences: out of reach of the enumeration
    assert hz_poly(range(2, 13)) == binomial_eulerian(12)


def test_hz_transfer_matrix_matches_enumeration():
    rng = random.Random(7)
    vectors = [(), (1,), (1, 1, 1), (5, 5), (2, 1, 2), (3, 3, 3, 3, 3)]
    for _ in range(300):
        vectors.append(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 5))))
    assert any(1 in s for s in vectors) and any(len(set(s)) < len(s) for s in vectors)
    for s in vectors:
        assert hz_poly(s) == hz_enumerate(s), s
    for n in range(0, 9):
        for k in range(2, n + 1):
            assert hz_uniform(k, n) == hz_enumerate(range(n - k + 2, n + 1)), (k, n)


def test_hz_uniform_table_value():
    assert hz_uniform(3, 5) == Poly([1, 16, 16, 1])


def test_hz_rejects_nonpositive():
    with pytest.raises(ValueError):
        hz_poly([2, 0, 3])
    with pytest.raises(ValueError):
        hz_uniform(4, 3)


def test_statistic_sanity():
    # every padded sequence has asc + col <= n + 1, and all-zeros hits
    # col = n + 1 exactly, contributing (1 + x)^(n+1)
    for s in [(2, 2), (3, 4), (2, 3, 4)]:
        n = len(s)
        total = 0
        for e, asc, col in asc_col(s):
            assert asc + col <= n + 1
            if all(v == 0 for v in e):
                assert col == n + 1 and asc == 0
            total += 1
        prod = 1
        for v in s:
            prod *= v
        assert total == prod
        # the evaluation at 1 sums 2^col over sequences, so it bounds prod
        assert hz_poly(s)(1) >= prod


def test_hz_recursion():
    for k, n in [(1, 4), (2, 2), (3, 5), (5, 8), (4, 4)]:
        assert hz_recursion_check(k, n), (k, n)


def test_hz_matches_aug_chow_small():
    for n in range(0, 15):
        for k in range(0, n + 1):
            assert hz_uniform(k, n) == aug_chow_uniform(k, n), (k, n)


def test_search_finds_positive_control():
    target = hz_poly([3, 4])
    assert (3, 4) in search_s_vectors(target, 2)
    assert search_s_vectors(Poly([5]), 1) == []
    # every sequence adds at least 1 at x = 1, so target(1) <= 0 matches nothing
    for target in (Poly(), Poly([-1]), Poly([1, -2]), Poly([0, 1, -1])):
        for length in range(3):
            assert search_s_vectors(target, length) == [], (target, length)


def test_no_s_vector_matches_coloop_or_corank_one_targets():
    # exhaustive negative results: search space bounded by prod(s) <= p(1)
    from matroid_invariants.invariants import aug_chow_uniform_coloop, chow_uniform

    target = aug_chow_uniform_coloop(3, 4)
    assert target == Poly([1, 23, 55, 23, 1])
    assert search_s_vectors(target, 3) == []
    target = chow_uniform(5, 6)
    assert target == Poly([1, 51, 161, 51, 1])
    assert search_s_vectors(target, 3) == []
