"""The one scalar Gauss-Jordan routine against sympy, over GF(p) and Q.

rref_mod, nullspace_mod and rank_mod are played against sympy's
DomainMatrix over GF(p), in int64 and object dtype, on rectangular and
rank-deficient input; rref over Q against sympy.Matrix on random
rational matrices; contract_mod against Python-integer contractions on
both sides of its one-pass bound.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from skewrank import linalg
from skewrank.linalg import block_rows, contract_mod, matmul_mod, nullspace_mod, rank_mod, rref, rref_mod

PRIMES = [3, 1000003, 2**31 - 1]


def domain_matrix(matrix, p):
    dom = GF(p)
    return DomainMatrix([[dom(int(x)) for x in row] for row in matrix], matrix.shape, dom)


def residues(domain_rows, p):
    return [[int(x) % p for x in row] for row in domain_rows]


@st.composite
def matrices_mod_p(draw):
    """(p, matrix): random, zero, or a product of thin factors (rank-deficient)."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["random", "zero", "low-rank"]))
    if kind == "zero":
        m = np.zeros((rows, cols), dtype=object)
    elif kind == "random":
        m = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows)), dtype=object)
    else:
        k = draw(st.integers(1, min(rows, cols)))
        left = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                      min_size=rows, max_size=rows)), dtype=object)
        right = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                       min_size=k, max_size=k)), dtype=object)
        m = left.dot(right) % p
    dtype = draw(st.sampled_from([np.int64, object]))
    return p, m.astype(dtype)


@settings(max_examples=80, deadline=None)
@given(matrices_mod_p())
def test_rref_and_nullspace_match_domain_matrix(case):
    p, a = case
    dm = domain_matrix(a, p)
    rank = dm.rank()
    form, pivots = rref_mod(a, p)
    expect_form, expect_pivots = dm.rref()
    assert form.dtype == a.dtype
    assert list(pivots) == list(expect_pivots)
    assert residues(form.tolist(), p) == residues(expect_form.to_Matrix().tolist(), p)
    assert rank_mod(a, p) == rank
    basis = nullspace_mod(a, p)
    assert basis.shape == (a.shape[1] - rank, a.shape[1])
    exact = a.astype(object)
    for row in basis:
        assert not (exact.dot(row.astype(object)) % p).any()
    if len(basis):  # the same kernel as sympy's (which scales its vectors differently)
        theirs = np.array(residues(dm.nullspace().to_Matrix().tolist(), p), dtype=object)
        assert domain_matrix(np.vstack([basis.astype(object), theirs]), p).rank() == len(basis)


@st.composite
def rational_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 50))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    entries = draw(st.sampled_from([entry, small]))
    k = draw(st.integers(0, min(rows, cols)))
    if draw(st.booleans()):  # random, generically of full rank
        return np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)), dtype=object)
    left = np.array(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                  min_size=rows, max_size=rows)), dtype=object).reshape(rows, k)
    right = np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                   min_size=k, max_size=k)), dtype=object).reshape(k, cols)
    return left.dot(right) if k else np.full((rows, cols), Fraction(0), dtype=object)


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_rational_rref_matches_sympy(m):
    form, pivots = rref(m, lambda x: 1 / Fraction(x), lambda a: a)
    expect = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
    expect_form, expect_pivots = expect.rref()
    assert len(pivots) == expect.rank()
    assert list(pivots) == list(expect_pivots)
    assert [[Fraction(int(x.p), int(x.q)) for x in row] for row in expect_form.tolist()] == form.tolist()


EDGE_TERMS = 8  # one pass holds 8 products of residues exactly when p <= 2^30


@pytest.mark.parametrize("p, passes", [
    (3, 1), (1000003, 1),
    (sympy.prevprime(2**30 + 1), 1),  # the largest prime taking one pass
    (sympy.nextprime(2**30), 2),  # the smallest taking two limb passes
    (2**31 - 1, 2),
])
def test_contract_mod_on_both_sides_of_the_headroom_edge(p, passes):
    """Rows of p - 1 make every sum as large as EDGE_TERMS residue products
    allow, so a pass that overflowed or a limb lost would show."""
    rng = np.random.Generator(np.random.PCG64(p))
    a = np.vstack([np.full((2, EDGE_TERMS), p - 1), rng.integers(0, p, size=(4, EDGE_TERMS))])
    b = np.hstack([np.full((EDGE_TERMS, 2), p - 1), rng.integers(0, p, size=(EDGE_TERMS, 3))])
    for product, x, y in ((np.matmul, a, b), (np.convolve, a[0], b[:, 0]), (np.convolve, a[3], b[:, 4])):
        calls = []

        def counted(u, v):
            calls.append(u.dtype)
            return product(u, v)

        out = contract_mod(counted, x, y, p, EDGE_TERMS)
        assert out.dtype == np.int64
        assert np.array_equal(out, product(x.astype(object), y.astype(object)) % p)
        assert calls == [np.int64] * passes
    assert np.array_equal(matmul_mod(a, b, p), (a.astype(object) @ b.astype(object)) % p)


def test_block_rows_fill_the_stack_up_to_n_16_and_keep_64_rows_above(monkeypatch):
    # one (B, n, n) int64 stack in 2^17 bytes is 2^14 // n^2 rows: 64 at n = 16
    assert [block_rows(n) for n in range(1, 17)] == [2**14 // (n * n) for n in range(1, 17)]
    assert {block_rows(n) for n in range(17, 65)} == {64}
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)  # how the tests force one-row blocks
    assert {block_rows(n) for n in range(1, 65)} == {1}
