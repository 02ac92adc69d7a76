"""Gram construction, exact rank, and the degeneracy criteria."""

import itertools
import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from skewrank import forms, galois
from skewrank.decomposition import _allowed_ranks
from skewrank.errors import (
    InvolutionNotSupported,
    NotInEigenspace,
    ZeroElement,
)
from skewrank.fields import ExtensionContext
from skewrank.linalg import rank_mod

from conftest import BIG_MODULI, BIG_P, element_order, elements, power_basis, trace


def gram_reference(c, b, i):
    """Direct entrywise construction straight from the defining formula."""
    n = c.n
    basis = power_basis(c)
    m = np.zeros((n, n), dtype=np.int64)
    for r in range(n):
        for s in range(n):
            val = b * (basis[r] * c.frobenius_power(basis[s], i)
                       - c.frobenius_power(basis[r], i) * basis[s])
            m[r, s] = trace(c, val).scalar()
    return m


def rank_oracle(matrix, p):
    """Independent exact rank over GF(p) via sympy's domain matrices."""
    dom = GF(p)
    rows = [[dom(int(x)) for x in row] for row in matrix]
    return DomainMatrix(rows, matrix.shape, dom).rank()


def subspace_elements(c, rows):
    for coeffs in itertools.product(range(c.p), repeat=len(rows)):
        if not any(coeffs):
            continue
        b = c.zero()
        for v, row in zip(coeffs, rows):
            b = b + c.element(row) * c.scalar(v)
        yield b


def test_gram_matches_direct_formula(ctx):
    for (p, n) in [(3, 4), (5, 3)]:
        c = ctx(p, n)
        rng = random.Random(p * n)
        for _ in range(8):
            b = c.from_index(rng.randrange(c.order))
            for i in range(1, n):
                fast = forms.gram(c, b, i)
                assert np.array_equal(fast, gram_reference(c, b, i) % p)


@pytest.mark.parametrize("p,n,modulus,powers", [
    (3, 17, None, (1, 8, 16)),
    (BIG_P, 3, BIG_MODULI[3], (1, 2)),  # contract_mod's limb passes
])
def test_stack_and_scalar_grams_match_the_defining_formula(p, n, modulus, powers):
    """Both Gram paths against tr(b(x*sigma^i(y) - sigma^i(x)*y)) entry by
    entry, past the exhaustive census at n = 17 and at the largest prime."""
    c = ExtensionContext(p, n, modulus)
    rng = random.Random(n)
    rows = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(3)], dtype=np.int64)
    rows[0] = p - 1  # the largest residues, so the products overflow int64 without limbs
    for i in powers:
        stack = forms.gram_stack(c, rows, i)
        assert stack.shape == (3, n, n)
        for row, g in zip(rows, stack):
            reference = gram_reference(c, c.element(row), i)
            assert np.array_equal(g, reference)
            assert np.array_equal(forms.gram_entries(c, row, i), reference)


def test_gram_zero_and_linearity(ctx):
    c = ctx(3, 4)
    assert not forms.gram(c, c.zero(), 1).any()
    rng = random.Random(9)
    for _ in range(20):
        a = c.from_index(rng.randrange(c.order))
        b = c.from_index(rng.randrange(c.order))
        lhs = forms.gram(c, a + b, 1)
        rhs = (forms.gram(c, a, 1) + forms.gram(c, b, 1)) % 3
        assert np.array_equal(lhs, rhs)


def test_gram_is_alternating_everywhere(ctx):
    c = ctx(3, 6)
    rng = random.Random(6)
    for _ in range(25):
        b = c.from_index(rng.randrange(c.order))
        i = rng.randrange(1, 6)
        g = forms.gram(c, b, i)
        assert not ((g + g.T) % 3).any() and not g.diagonal().any()


def test_gram_of_one_has_rank_two_at_3_4(ctx):
    g = forms.gram(ctx(3, 4), ctx(3, 4).one(), 1)
    assert rank_mod(g, 3) == 2


def test_rank_against_domain_matrix_oracle(ctx):
    c = ctx(3, 4)
    rng = random.Random(44)
    for _ in range(30):
        b = c.from_index(rng.randrange(1, c.order))
        i = rng.randrange(1, 4)
        g = forms.gram(c, b, i)
        assert rank_mod(g, 3) == rank_oracle(g, 3)
    zero = forms.gram(c, c.zero(), 1)
    assert rank_mod(zero, 3) == 0


def test_rank_parity_and_transpose_invariance(ctx):
    c = ctx(5, 4)
    rng = random.Random(4)
    for _ in range(30):
        b = c.from_index(rng.randrange(1, c.order))
        g = forms.gram(c, b, 1)
        r = rank_mod(g, 5)
        assert r % 2 == 0
        assert rank_mod(g.T, 5) == r


def test_rank_is_congruence_invariant(ctx):
    # change of basis by multiplication-by-c preserves rank
    c = ctx(3, 4)
    rng = random.Random(12)
    basis = power_basis(c)
    for _ in range(10):
        b = c.from_index(rng.randrange(1, c.order))
        scale = c.from_index(rng.randrange(1, c.order))
        mult = np.array([(scale * e).coeffs for e in basis], dtype=np.int64).T
        g = forms.gram(c, b, 1)
        conj = (mult.T @ g @ mult) % 3
        assert rank_mod(conj, 3) == rank_mod(g, 3)


def test_eigenspace_e1_gives_full_rank(ctx):
    c = ctx(3, 4)
    e1 = galois.eigenspace(c, 2, -1)
    for b in subspace_elements(c, e1):
        assert rank_mod(forms.gram(c, b, 1), c.p) == 4


def test_norm_criterion_on_scalars_and_eigenvectors(ctx):
    c = ctx(3, 4)
    assert forms.is_degenerate_by_norm(c, c.one(), 1)
    assert forms.is_degenerate_by_norm(c, c.scalar(2), 1)
    e1 = galois.eigenspace(c, 2, -1)
    for b in subspace_elements(c, e1):
        assert not forms.is_degenerate_by_norm(c, b, 1)


def test_norm_criterion_matches_rank_exhaustively(ctx):
    c = ctx(3, 4)
    for b in elements(c):
        for i in (1, 3):
            assert forms.is_degenerate_by_norm(c, b, i) == (rank_mod(forms.gram(c, b, i), 3) < 4)


def test_norm_criterion_rejects_involutions_and_zero(ctx):
    c = ctx(3, 4)
    with pytest.raises(InvolutionNotSupported):
        forms.is_degenerate_by_norm(c, c.one(), 2)
    with pytest.raises(ZeroElement):
        forms.is_degenerate_by_norm(c, c.zero(), 1)


def test_odd_order_forms_have_the_one_allowed_rank(ctx):
    c = ctx(3, 6)
    assert _allowed_ranks(6, galois.order_of(c, 2)) == {4}  # order 3: 6 - 6/3
    for b in elements(c):
        assert rank_mod(forms.gram(c, b, 2), 3) == 4


def test_allowed_ranks_examples(ctx):
    c = ctx(3, 4)
    assert _allowed_ranks(4, 4) == {2, 4}
    assert forms.is_degenerate_by_norm(c, c.one(), 1)
    assert rank_mod(forms.gram(c, c.one(), 1), 3) == 2
    assert _allowed_ranks(4, 2) == {0, 4}  # involution: 0 on its fixed field, which holds 1
    assert rank_mod(forms.gram(c, c.one(), 2), 3) == 0
    assert rank_mod(forms.gram(c, c.theta(), 2), 3) == 4


def test_norm_predicate_picks_the_rank_among_the_allowed_ones(ctx):
    c = ctx(3, 4)
    for b in elements(c):
        for i in range(1, 4):
            o = galois.order_of(c, i)
            allowed = _allowed_ranks(4, o)
            actual = rank_mod(forms.gram(c, b, i), 3)
            assert actual in allowed
            if o > 2:
                degenerate = forms.is_degenerate_by_norm(c, b, i)
                assert actual == (min(allowed) if degenerate else max(allowed))


def test_witness_identity_exhaustive_on_e2_at_3_8(ctx):
    c = ctx(3, 8)
    e2 = galois.eigenspace(c, 2, -1)
    assert len(e2) == 2
    for b in subspace_elements(c, e2):
        wit = forms.degeneracy_witness(c, b, 2)
        # the constructor already certifies the norm identity; cross-check here
        lhs = c.norm(b, 2)
        sign = c.scalar(-1 if (8 // 4) % 2 else 1)
        assert lhs == sign * wit.w ** 4
        assert wit.eta == c.frobenius_power(wit.w, 1) / wit.w
        assert wit.is_degenerate == forms.is_degenerate_by_norm(c, b, 1)
        if wit.is_degenerate:
            assert c.frobenius_power(wit.eta, 1) * wit.eta == c.scalar(-1)


def test_witness_eta_order_is_the_order_when_it_divides_2_to_the_i(ctx):
    c = ctx(3, 8)
    for i_index, t in ((1, 4), (2, 2)):
        for b in subspace_elements(c, galois.eigenspace(c, t, -1)):
            wit = forms.degeneracy_witness(c, b, i_index)
            order = element_order(c, wit.eta)
            assert wit.eta_order == (order if 2**i_index % order == 0 else None)


def test_witness_never_degenerate_on_e1(ctx):
    for (p, n) in [(3, 4), (3, 8)]:
        c = ctx(p, n)
        e1 = galois.eigenspace(c, n // 2, -1)
        for b in subspace_elements(c, e1):
            assert not forms.degeneracy_witness(c, b, 1).is_degenerate


def test_witness_degenerate_on_high_eigenspaces_at_3_16(ctx):
    c = ctx(3, 16)
    e3 = galois.eigenspace(c, 2, -1)
    assert len(e3) == 2
    for b in subspace_elements(c, e3):
        wit = forms.degeneracy_witness(c, b, 3)
        assert wit.is_degenerate
        assert (2**3) % wit.eta_order == 0


def test_witness_rejects_non_eigenvectors(ctx):
    c = ctx(3, 8)
    with pytest.raises(NotInEigenspace):
        forms.degeneracy_witness(c, c.one(), 1)
    with pytest.raises(ZeroElement):
        forms.degeneracy_witness(c, c.zero(), 1)
