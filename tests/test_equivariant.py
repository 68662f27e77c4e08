from math import comb

import pytest

from matroid_invariants.equivariant import (
    GradedVirtualRep,
    VirtualRep,
    eq_kl_uniform,
    eq_z_uniform,
    gamma_decompose_eq,
    induce_trivial_rep,
    pieri_induce_trivial,
    restrict_once,
    restrict_to,
    specht_dim,
)
from matroid_invariants.invariants import kl_uniform, z_uniform
from matroid_invariants.poly import Poly, gamma_vector

V2 = VirtualRep.irreducible([2])
V11 = VirtualRep.irreducible([1, 1])


def test_specht_dims():
    assert specht_dim((6,)) == 1
    assert specht_dim((5, 1)) == 5
    assert specht_dim((2, 2)) == 2
    assert specht_dim((3, 2, 1)) == 16
    # dimensions square-sum to the group order for a full level
    from math import factorial

    def partitions(m):
        if m == 0:
            yield ()
            return
        def rec(rest, maxpart):
            if rest == 0:
                yield ()
                return
            for first in range(min(rest, maxpart), 0, -1):
                for tail in rec(rest - first, first):
                    yield (first,) + tail
        yield from rec(m, m)

    for m in range(1, 7):
        assert sum(specht_dim(lam) ** 2 for lam in partitions(m)) == factorial(m)

    # the Frobenius product agrees with the hook length formula box by box
    def by_hooks(lam):
        conj = [sum(1 for v in lam if v > j) for j in range(lam[0])] if lam else []
        hooks = 1
        for i, row in enumerate(lam):
            for j in range(row):
                hooks *= row - j + conj[j] - i - 1
        return factorial(sum(lam)) // hooks

    assert specht_dim(()) == 1
    for m in range(1, 13):
        for lam in partitions(m):
            assert specht_dim(lam) == by_hooks(lam), lam


def test_dim_poly_fills_missing_degrees():
    g = GradedVirtualRep(3, {0: VirtualRep.irreducible([3]), 2: 2 * VirtualRep.irreducible([2, 1])})
    assert g.dim_poly() == Poly([1, 0, 4])
    assert g.coeff(1) == VirtualRep(3)
    assert GradedVirtualRep(3).dim_poly() == Poly([0])


def test_virtual_rep_arithmetic():
    r = 2 * V2 - V11
    assert r.dim() == 1
    assert not r.is_honest()
    assert (r + V11).is_honest()
    with pytest.raises(ValueError):
        VirtualRep(3, {(2,): 1})  # size mismatch


def test_restriction_display():
    for n in (4, 5, 6):
        rep = VirtualRep.irreducible([n]) + VirtualRep.irreducible([n - 1, 1])
        assert restrict_to(rep, 2) == VirtualRep(2, {(2,): n - 1, (1, 1): 1}), n
    assert restrict_once(VirtualRep.irreducible([5])) == VirtualRep.irreducible([4])


def test_restriction_preserves_dimension_and_sums():
    a = VirtualRep(6, {(3, 2, 1): 2, (4, 2): -1})
    b = VirtualRep(6, {(6,): 1, (2, 2, 1, 1): 3})
    assert restrict_once(a).dim() == a.dim()
    assert restrict_once(a + b) == restrict_once(a) + restrict_once(b)
    assert restrict_to(b, 3).dim() == b.dim()


def test_pieri_examples():
    assert pieri_induce_trivial((2,), 1) == VirtualRep(3, {(3,): 1, (2, 1): 1})
    assert pieri_induce_trivial((2, 1), 0) == VirtualRep.irreducible((2, 1))
    for lam, r in [((2,), 2), ((2, 1), 2), ((3, 1), 3), ((2, 2), 1)]:
        got = pieri_induce_trivial(lam, r)
        m = sum(lam)
        assert got.dim() == comb(m + r, r) * specht_dim(lam), (lam, r)
        # horizontal strips: multiplicity-free
        assert all(c == 1 for c in got.mult.values())


def test_eq_kl_constant_term_and_dims():
    for n in range(1, 10):
        for k in range(1, n + 1):
            p = eq_kl_uniform(k, n)
            assert p.coeff(0) == VirtualRep.irreducible([n]), (k, n)
            assert p.dim_poly() == kl_uniform(k, n), (k, n)
    assert eq_kl_uniform(1, 1) == GradedVirtualRep(1, {0: VirtualRep.irreducible([1])})


def test_eq_kl_desk_scale_top_coefficient():
    p = eq_kl_uniform(15, 16)
    assert p.coeff(7).dim() == 1430


def test_eq_z_example_2_2():
    z = eq_z_uniform(2, 2)
    assert z.coeff(0) == V2
    assert z.coeff(1) == V2 + V11
    assert z.coeff(2) == V2


def test_eq_z_dims_and_palindromicity():
    for n in range(1, 9):
        for k in range(1, n + 1):
            z = eq_z_uniform(k, n)
            assert z.dim_poly() == z_uniform(k, n), (k, n)
            assert z.is_palindromic(k), (k, n)


def test_eq_z_equivariant_unimodality():
    # [x^(i-1)] Z is a direct summand of [x^i] Z for i <= k/2
    for n in range(1, 9):
        for k in range(1, n + 1):
            z = eq_z_uniform(k, n)
            for i in range(1, k // 2 + 1):
                prev, cur = z.coeff(i - 1), z.coeff(i)
                diff = cur - prev
                assert diff.is_honest(), (k, n, i)


def test_gamma_decomposition_counterexample():
    z = eq_z_uniform(2, 2)
    gammas = gamma_decompose_eq(z, 2)
    assert gammas[0] == V2
    assert gammas[1] == V11 - V2
    assert not gammas[1].is_honest()


def test_boolean_restriction_not_gamma_positive():
    for n in (3, 4, 5):
        z = eq_z_uniform(n, n).restrict_to(2)
        gammas = gamma_decompose_eq(z, n)
        assert gammas[1] == V11 - V2, n
        assert not gammas[1].is_honest()


def test_gamma_decomposition_dims_match_scalar_gamma():
    for k, n in [(2, 4), (3, 5), (4, 6), (3, 3)]:
        z = eq_z_uniform(k, n)
        gammas = gamma_decompose_eq(z, k)
        assert Poly([g.dim() for g in gammas]) == gamma_vector(z_uniform(k, n), k), (k, n)


def test_gamma_decomposition_requires_palindromic():
    p = eq_kl_uniform(3, 6)
    graded = GradedVirtualRep(6, dict(p.degrees))
    with pytest.raises(ValueError):
        gamma_decompose_eq(graded, 3)


def test_induce_trivial_rep_linear():
    a = VirtualRep(2, {(2,): 2, (1, 1): -1})
    out = induce_trivial_rep(a, 1)
    expect = 2 * pieri_induce_trivial((2,), 1) - pieri_induce_trivial((1, 1), 1)
    assert out == expect
