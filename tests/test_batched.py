"""Stacked kernels against the scalar paths they replace in the hot loops.

The batched rank is played against rank_mod and sympy's DomainMatrix; the
stacked Gram, field arithmetic and norm predicate against gram_entries,
FieldElement arithmetic and is_degenerate_by_norm on every nonzero element
of small fields; the stacked Frobenius and norm against the field algebra
they must obey; and the census report against itself with one-row blocks.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from skewrank import decomposition, forms
from skewrank.errors import InternalCheckError, ZeroElement
from skewrank.fields import ExtensionContext
from skewrank.galois import order_of
from skewrank.linalg import rank_mod, rank_mod_batch

BIG_P = 2147483647  # 2**31 - 1 = 3 mod 4, so x^2 + 1 is irreducible


def domain_rank(matrix, p):
    dom = GF(p)
    rows = [[dom(int(x)) for x in row] for row in matrix]
    return DomainMatrix(rows, matrix.shape, dom).rank()


def mixed_stack(p, rows, cols, count, seed):
    """Stack cycling through random, all-zero, full-rank, low-rank and,
    when square, alternating matrices; Python-int entries."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(shape):
        return np.array(rng.integers(0, p, size=shape, dtype=np.int64), dtype=object)

    def full_rank():
        m = draw((rows, cols))
        k = min(rows, cols)
        tri = np.triu(draw((k, k)))
        tri[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
        m[:k, :k] = tri
        return m[rng.permutation(rows)][:, rng.permutation(cols)]

    def low_rank():
        k = int(rng.integers(0, min(rows, cols) + 1))
        return draw((rows, k)).dot(draw((k, cols))) % p

    kinds = [lambda: draw((rows, cols)), lambda: np.zeros((rows, cols), dtype=object), full_rank, low_rank]
    if rows == cols:
        kinds.append(lambda: (lambda a: (a - a.T) % p)(draw((rows, rows))))
    return np.stack([kinds[j % len(kinds)]() for j in range(count)]), len(kinds)


def check_rank_stack(p, rows, cols, count, seed):
    stack, period = mixed_stack(p, rows, cols, count, seed)
    ranks = rank_mod_batch(stack, p)
    assert ranks.shape == (count,)
    for j, (m, r) in enumerate(zip(stack, ranks)):
        assert r == rank_mod(m, p) == domain_rank(m, p)
        if j % period == 1:
            assert r == 0
        if j % period == 2:
            assert r == min(rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 1000003]),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    count=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rank_matches_rank_mod_and_domain_matrix(p, rows, cols, count, seed):
    check_rank_stack(p, rows, cols, count, seed)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rank_exact_near_the_int64_limit(rows, cols, count, seed):
    check_rank_stack(BIG_P, rows, cols, count, seed)


def all_rows(c):
    return np.array([b.coeffs for b in c.elements()], dtype=c._dtype)


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3)])
def test_stacked_gram_rank_and_predicate_on_whole_fields(ctx, p, n):
    c = ctx(p, n)
    vecs = all_rows(c)
    for i in range(1, n):
        grams = forms.gram_stack(c, vecs, i)
        ranks = rank_mod_batch(grams, p)
        for vec, g, r in zip(vecs, grams, ranks):
            scalar = forms.gram_entries(c, vec, i)
            assert np.array_equal(g, scalar)
            assert r == rank_mod(scalar, p)
        if order_of(c, i) > 2:
            predicate = forms.is_degenerate_by_norm_stack(c, vecs, i)
            expected = [forms.is_degenerate_by_norm(c, c.element(v), i) for v in vecs]
            assert predicate.tolist() == expected
            assert predicate.tolist() == (ranks < n).tolist()


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3)])
def test_stacked_field_arithmetic_on_whole_fields(ctx, p, n):
    c = ctx(p, n)
    vecs = all_rows(c)
    elements = list(c.elements())
    shifted = np.roll(vecs, 1, axis=0)
    products = c.mul_stack(vecs, shifted)
    for j, b in enumerate(elements):
        assert tuple(products[j]) == (b * elements[j - 1]).coeffs
    for sub in (d for d in range(1, n + 1) if n % d == 0):
        norms = c.norm_stack(vecs, sub)
        assert [tuple(v) for v in norms] == [c.norm(b, sub).coeffs for b in elements]
    for i in range(n):
        images = c.frobenius_stack(vecs, i)
        assert [tuple(v) for v in images] == [c.frobenius_power(b, i).coeffs for b in elements]


# x^2 + 1 is irreducible as p = 3 mod 4; x^3 + x^2 + x + 3 has no root mod p
# and is dense, so every accumulation sums several full-size products.
# Explicit moduli skip the O(p) modulus search.
BIG_MODULI = {2: (1, 0, 1), 3: (3, 1, 1, 1)}


@pytest.fixture(scope="module", params=sorted(BIG_MODULI))
def big_ctx(request):
    c = ExtensionContext(BIG_P, request.param, modulus=BIG_MODULI[request.param])
    assert c._dtype is object  # context arithmetic falls back to Python ints here
    return c


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(0, BIG_P - 1), min_size=3, max_size=3)
                .filter(lambda row: any(row[:2])), min_size=1, max_size=6))
def test_stacks_stay_exact_in_object_dtype(big_ctx, coeffs):
    c = big_ctx
    coeffs = [row[: c.n] for row in coeffs]
    vecs = np.array(coeffs, dtype=object)
    elements = [c.element(row) for row in coeffs]
    for i in range(1, c.n):
        grams = forms.gram_stack(c, vecs, i)
        ranks = rank_mod_batch(grams, BIG_P)
        for vec, g, r in zip(vecs, grams, ranks):
            scalar = forms.gram_entries(c, vec, i)
            assert np.array_equal(g, scalar)
            assert r == rank_mod(scalar, BIG_P) == domain_rank(scalar, BIG_P)
        if order_of(c, i) > 2:
            predicate = forms.is_degenerate_by_norm_stack(c, vecs, i)
            assert predicate.tolist() == [forms.is_degenerate_by_norm(c, b, i) for b in elements]
    products = c.mul_stack(vecs, vecs[::-1])
    norms = c.norm_stack(vecs)
    conjugates = c.frobenius_stack(vecs, 1)
    for j, b in enumerate(elements):
        assert tuple(products[j]) == (b * elements[-1 - j]).coeffs
        assert tuple(norms[j]) == c.norm(b).coeffs
        assert tuple(conjugates[j]) == c.frobenius_power(b, 1).coeffs


@pytest.fixture(scope="module", params=[(3, 6), (5, 4), (7, 6), (BIG_P, 2), (BIG_P, 3)], ids=str)
def kernel_ctx(request):
    p, n = request.param
    return ExtensionContext(p, n, modulus=BIG_MODULI[n] if p == BIG_P else None)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_kernels_keep_the_field_algebra(kernel_ctx, data):
    c = kernel_ctx
    p, n = c.p, c.n
    count = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a, b = (np.array(data.draw(st.lists(row, min_size=count, max_size=count)), dtype=c._dtype)
            for _ in range(2))
    product = c.mul_stack(a, b)
    for i in range(n):
        # sigma^i is a ring homomorphism
        frob_a, frob_b = c.frobenius_stack(a, i), c.frobenius_stack(b, i)
        assert np.array_equal(c.frobenius_stack((a + b) % p, i), (frob_a + frob_b) % p)
        assert np.array_equal(c.frobenius_stack(product, i), c.mul_stack(frob_a, frob_b))
    for sub in (d for d in range(1, n + 1) if n % d == 0):
        norm_a = c.norm_stack(a, sub)
        # multiplicative, and it commutes with every sigma^i
        assert np.array_equal(c.norm_stack(product, sub), c.mul_stack(norm_a, c.norm_stack(b, sub)))
        for i in range(n):
            assert np.array_equal(c.norm_stack(c.frobenius_stack(a, i), sub),
                                  c.frobenius_stack(norm_a, i))
        # transitivity: N_{L/K} = N_{L_sub/K} o N_{L/L_sub}, the outer norm
        # being the product of the sub conjugates of an element of L_sub
        assert np.array_equal(c.frobenius_stack(norm_a, sub), norm_a)
        outer = norm_a
        for j in range(1, sub):
            outer = c.mul_stack(outer, c.frobenius_stack(norm_a, j))
        assert np.array_equal(outer, c.norm_stack(a, 1))

def test_stacked_kernels_reject_zero_rows(ctx):
    c = ctx(3, 5)
    vecs = np.array([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]], dtype=c._dtype)
    with pytest.raises(ZeroElement):
        forms.is_degenerate_by_norm_stack(c, vecs, 1)


def report_bytes(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def test_oracle_report_is_independent_of_block_size(ctx, monkeypatch):
    c = ctx(3, 5)
    default = report_bytes(decomposition.oracle_survey(c))
    monkeypatch.setattr(decomposition, "STACK_BYTES", 1)  # one row per block
    assert report_bytes(decomposition.oracle_survey(c)) == default


def test_sampled_reports_are_independent_of_block_size(ctx, monkeypatch):
    c = ctx(5, 4)
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)  # force a sampled census
    oracle = report_bytes(decomposition.oracle_survey(c, seed=3, sample_cap=150))
    direct = report_bytes(decomposition.verify_direct_sum(c, seed=3, sample_cap=150))
    assert json.loads(oracle)["mode"] == "sampled"
    monkeypatch.setattr(decomposition, "STACK_BYTES", 1)
    assert report_bytes(decomposition.oracle_survey(c, seed=3, sample_cap=150)) == oracle
    assert report_bytes(decomposition.verify_direct_sum(c, seed=3, sample_cap=150)) == direct


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_remark_c_report_is_independent_of_block_size(ctx, monkeypatch, rows_per_block):
    c = ctx(11, 16)
    default = report_bytes(decomposition.remark_C_check(c, 3))
    monkeypatch.setattr(decomposition, "STACK_BYTES", 8 * 16 * 16 * rows_per_block)
    assert report_bytes(decomposition.remark_C_check(c, 3)) == default


def test_scalar_spot_check_catches_a_wrong_stacked_rank(ctx, monkeypatch):
    c = ctx(3, 4)
    monkeypatch.setattr(decomposition, "rank_mod_batch", lambda stack, p: np.zeros(len(stack), dtype=int))
    with pytest.raises(InternalCheckError, match="scalar path"):
        decomposition.oracle_survey(c)
    with pytest.raises(InternalCheckError, match="scalar path"):
        decomposition.remark_C_check(ctx(11, 16), 3)


def test_scalar_spot_check_catches_a_wrong_stacked_predicate(ctx, monkeypatch):
    c = ctx(3, 4)
    real = forms.is_degenerate_by_norm_stack
    monkeypatch.setattr(decomposition, "is_degenerate_by_norm_stack",
                        lambda *args: ~real(*args))
    with pytest.raises(InternalCheckError, match="scalar path"):
        decomposition.oracle_survey(c)
    with pytest.raises(InternalCheckError, match="scalar path"):
        decomposition.remark_C_check(ctx(11, 16), 3)
