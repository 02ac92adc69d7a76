"""Automorphism matrices, eigenspaces and fixed fields."""

import numpy as np
import pytest

from skewrank import galois
from skewrank.linalg import matmul_mod, rank_mod


def test_sigma_matrix_identity_and_group_law(ctx):
    c = ctx(3, 4)
    assert np.array_equal(c.sigma_power_matrix(0), np.eye(4, dtype=np.int64))
    for i in range(4):
        for j in range(4):
            lhs = matmul_mod(c.sigma_power_matrix(i), c.sigma_power_matrix(j), 3)
            rhs = c.sigma_power_matrix((i + j) % 4)
            assert np.array_equal(lhs, rhs)


def test_sigma_matrix_columns_are_frobenius_images(ctx):
    c = ctx(5, 3)
    basis = c.power_basis()
    for i in range(1, 3):
        mat = c.sigma_power_matrix(i)
        for j, b in enumerate(basis):
            assert tuple(int(x) for x in mat[:, j]) == c.frobenius_power(b, i).coeffs


def test_sigma_matrix_det_is_root_of_unity(ctx):
    c = ctx(3, 4)
    mat = c.sigma_power_matrix(1)
    det = int(round(np.linalg.det(mat.astype(float))))  # exact for these sizes
    assert pow(det % 3, 4, 3) == 1


def test_order_of(ctx):
    c12 = ctx(3, 12)
    assert galois.order_of(c12, 0) == 1
    assert galois.order_of(c12, 8) == 3
    c4 = ctx(3, 4)
    assert galois.order_of(c4, 2) == 2  # the unique involution
    with pytest.raises(ValueError):
        galois.order_of(c4, 4)


def test_eigenspace_dimensions_at_3_4(ctx):
    c = ctx(3, 4)
    assert galois.eigenspace(c, 4, 1).dimension == 4  # sigma^n = id
    assert galois.eigenspace(c, 2, -1).dimension == 2  # E_1
    assert galois.eigenspace(c, 1, -1).dimension == 1  # V_2 (k = 1)
    assert galois.eigenspace(c, 1, 1).dimension == 1  # V_1 = K


def test_eigenspace_vectors_satisfy_the_eigen_condition(ctx):
    c = ctx(3, 8)
    for t, lam in [(4, -1), (2, -1), (1, -1), (1, 1)]:
        space = galois.eigenspace(c, t, lam)
        scale = c.scalar(lam)
        for b in space.basis:
            assert c.frobenius_power(b, t) == scale * b
        assert rank_mod(space.basis_matrix(), c.p) == space.dimension


def test_eigenspace_is_deterministic(ctx):
    c = ctx(3, 8)
    one = galois.eigenspace(c, 2, -1)
    two = galois.eigenspace(c, 2, -1)
    assert [b.coeffs for b in one.basis] == [b.coeffs for b in two.basis]


def test_eigenspace_chain_spans_l(ctx):
    # V1 + V2 + E_{alpha-1} + ... + E_1 is all of L
    for (p, n) in [(3, 4), (3, 8), (3, 16)]:
        c = ctx(p, n)
        alpha, k = galois.two_adic_shape(n)
        spaces = [galois.eigenspace(c, k, 1), galois.eigenspace(c, k, -1)]
        for i in range(1, alpha):
            spaces.append(galois.eigenspace(c, n >> i, -1))
        total = sum(s.dimension for s in spaces)
        assert total == n
        stacked = np.vstack([s.basis_matrix() for s in spaces])
        assert rank_mod(stacked, p) == n


def test_eigenspace_nested_in_fixed_fields(ctx):
    # E_i sits inside the fixed field of sigma^(n/2^(i-1))
    c = ctx(3, 8)
    for i in [1, 2]:
        e = galois.eigenspace(c, 8 >> i, -1)
        t = 8 >> (i - 1)
        for b in e.basis:
            assert c.frobenius_power(b, t) == b


def test_fixed_field_dimensions_and_extremes(ctx):
    c = ctx(3, 4)
    import math

    for i in range(1, 5):
        assert galois.fixed_field_basis(c, i).dimension == math.gcd(4, i)
    assert galois.fixed_field_basis(c, 1).dimension == 1
    assert galois.fixed_field_basis(c, 4).dimension == 4


def test_fixed_field_is_multiplicatively_closed(ctx):
    c = ctx(3, 4)
    sub = galois.fixed_field_basis(c, 2)
    for a in sub.basis:
        for b in sub.basis:
            prod = a * b
            assert c.frobenius_power(prod, 2) == prod


def test_negation_eigenvector(ctx):
    c = ctx(3, 4)
    j = galois.eigenspace(c, 2, -1).basis[0]
    assert c.frobenius_power(j, 2) == -j


def test_two_adic_shape():
    assert galois.two_adic_shape(16) == (4, 1)
    assert galois.two_adic_shape(12) == (2, 3)
    assert galois.two_adic_shape(5) == (0, 5)
