"""Stacked kernels against the scalar paths they replace in the hot loops.

The batched rank is played against rank_mod and sympy's DomainMatrix; the
stacked Gram, field arithmetic and norm predicate against gram_entries,
FieldElement arithmetic and is_degenerate_by_norm on every nonzero element
of small fields; every int64 contraction, up to p = 2^31 - 1, against the
same contraction in Python integers; the stacked Frobenius and norm against
the field algebra they must obey; the streamed sampled row blocks against
the rows drawn in one call, and an exhaustive spectrum against no draw at
all; and the census report against itself with one-row blocks.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from skewrank import decomposition, forms, linalg
from skewrank.errors import InternalCheckError, ZeroElement
from skewrank.fields import ExtensionContext
from skewrank.galois import eigenspace, order_of
from skewrank.linalg import matmul_mod, rank_mod, rank_mod_batch
from skewrank.stream import Stream

from conftest import BIG_MODULI, BIG_P, block_lengths, elements, trace


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


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 11, BIG_P]),
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_rank_with_forced_low_rank(p, rows, cols, count, seed, data):
    # zeroed rows and columns and repeated rows (some scaled) leave many
    # entries that are 0 mod p, among them every earlier pivot row's
    rng = np.random.Generator(np.random.PCG64(seed))
    stack = rng.integers(0, p, size=(count, rows, cols))
    row, col = st.integers(0, rows - 1), st.integers(0, cols - 1)
    for m in stack:
        m[data.draw(st.lists(row, max_size=rows))] = 0
        m[:, data.draw(st.lists(col, max_size=cols))] = 0
        for src, dst, scale in data.draw(st.lists(st.tuples(row, row, st.integers(1, p - 1)), max_size=rows)):
            m[dst] = scale * m[src] % p
    assert rank_mod_batch(stack, p).tolist() == [rank_mod(m, p) for m in stack]


# entries p - 1 make every unreduced product as large as a residue allows,
# and low-rank matrices must end in rows that are zero mod p; the sizes take
# each p past the point where rank_mod_batch must reduce the trailing block
# (after 60 columns at p = 3, every 2 at 1000003, every one at 2^31 - 1)
@pytest.mark.parametrize("p, size", [(3, 64), (1000003, 8), (BIG_P, 8)])
def test_batched_rank_at_the_headroom_edge(p, size):
    rng = np.random.Generator(np.random.PCG64(size))
    ones = [np.ones((size, size), dtype=np.int64), np.tril(np.ones((size, size), dtype=np.int64))]
    ones += [rng.integers(0, 2, size=(size, size)) for _ in range(4)]
    ones += [(lambda a: a.T @ a)(rng.integers(0, 2, size=(size // 2, size))) for _ in range(2)]
    stack = (p - 1) * np.array(ones, dtype=object)
    low = [np.array(rng.integers(0, p, size=shape), dtype=object) for shape in [(2, size, size // 2),
                                                                                (2, size // 2, size)]]
    stack = np.concatenate([stack % p, np.matmul(*low) % p])
    ranks = rank_mod_batch(stack, p)
    assert ranks[0] == 1 and ranks[1] == size
    for m, r in zip(stack, ranks):
        assert r == rank_mod(m, p) == domain_rank(m, p)


def all_rows(c):
    return np.array([b.coeffs for b in elements(c)], dtype=np.int64)


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
            predicate = forms.norm_predicates(c, vecs, [i])[i]
            expected = [forms.is_degenerate_by_norm(c, c.element(v), i) for v in vecs]
            assert predicate.tolist() == expected
            assert predicate.tolist() == (ranks < n).tolist()


def class_representatives(c, vecs):
    """Index in vecs of the least element of each row's class under
    sigma and scaling by K^x; vecs holds every nonzero element in
    counting order, row j having index j + 1."""
    p, n = c.p, c.n
    digits = p ** np.arange(n)
    least = np.full(len(vecs), c.order)
    image = vecs
    for _ in range(n):
        for scale in range(1, p):
            least = np.minimum(least, (scale * image % p) @ digits)
        image = c.frobenius_stack(image, 1)
    return least - 1


@pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 4)])
def test_norm_predicates_on_whole_fields(ctx, p, n):
    # N(sigma^i(b)) / N(b) is the same for sigma(b) and for c*b, c in K^x,
    # so the scalar predicate runs once per class of those moves
    c = ctx(p, n)
    vecs = all_rows(c)
    powers = [i for i in range(1, n) if order_of(c, i) > 2]
    predicates = forms.norm_predicates(c, vecs, powers)
    assert sorted(predicates) == powers
    reps = class_representatives(c, vecs)
    for i in powers:
        scalar = {j: forms.is_degenerate_by_norm(c, c.element(vecs[j]), i) for j in set(reps.tolist())}
        assert predicates[i].tolist() == [scalar[j] for j in reps]
        assert predicates[i].tolist() == (rank_mod_batch(forms.gram_stack(c, vecs, i), p) < n).tolist()


def test_norm_predicates_across_subfields(ctx):
    # at n = 12 the powers have sub = gcd(12, 2i) = 2, 4 or 6 and one table
    # of conjugates, step d = 1; six coset products (sub, i mod sub) = (2, 0),
    # (2, 1), (4, 0), (4, 2), (6, 0), (6, 3) serve all ten powers, and at
    # i = 4, 8 (order 3, i = 0 mod sub) N(sigma^i(b)) is N(b) itself
    c = ctx(3, 12)
    rng = np.random.Generator(np.random.PCG64(12))
    vecs = rng.integers(0, 3, size=(150, 12))
    vecs = vecs[vecs.any(axis=1)]
    powers = [i for i in range(1, 12) if order_of(c, i) > 2]
    assert powers == [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]
    predicates = forms.norm_predicates(c, vecs, powers[::-1])
    for i in powers:
        expected = [forms.is_degenerate_by_norm(c, c.element(v), i) for v in vecs]
        assert predicates[i].tolist() == expected
        assert predicates[i].tolist() == (rank_mod_batch(forms.gram_stack(c, vecs, i), 3) < 12).tolist()


def test_invariance_criterion_is_checked_at_odd_orders(ctx, monkeypatch):
    # at i = 4 (order 3 at n = 12) the quotient criterion compares N(b) with
    # itself; sigma^4(N(b)) = N(b) is still computed and must agree with it
    c = ctx(3, 12)
    vecs = np.eye(12, dtype=np.int64)[:3]
    assert all(forms.norm_predicates(c, vecs, [1, 4])[4])
    real, tampered = ExtensionContext.frobenius_stack, []

    def frobenius_stack(self, a, i):  # the conjugate table has step d = 1
        if i != 4:
            return real(self, a, i)
        tampered.append(i)
        return (real(self, a, i) + np.eye(1, 12, dtype=np.int64)) % 3

    monkeypatch.setattr(ExtensionContext, "frobenius_stack", frobenius_stack)
    with pytest.raises(InternalCheckError, match=r"disagree for b=.*, i=4$"):
        forms.norm_predicates(c, vecs, [1, 4])
    assert tampered == [4]


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3)])
def test_stacked_field_arithmetic_on_whole_fields(ctx, p, n):
    c = ctx(p, n)
    vecs = all_rows(c)
    every = list(elements(c))
    shifted = np.roll(vecs, 1, axis=0)
    products = c.mul_stack(vecs, shifted)
    for j, b in enumerate(every):
        assert np.array_equal(products[j], (b * every[j - 1]).coeffs)
    for sub in (d for d in range(1, n + 1) if n % d == 0):
        norms = vecs  # the product of the n/sub conjugates sigma^(sub*j)
        for j in range(1, n // sub):
            norms = c.mul_stack(norms, c.frobenius_stack(vecs, sub * j))
        assert np.array_equal(norms, [c.norm(b, sub).coeffs for b in every])
    for i in range(n):
        images = c.frobenius_stack(vecs, i)
        assert np.array_equal(images, [c.frobenius_power(b, i).coeffs for b in every])


@pytest.fixture(scope="module", params=[(3, 6), (5, 4), (7, 6), (1000003, 3), (BIG_P, 2), (BIG_P, 3)],
                ids=str)
def kernel_ctx(request):
    p, n = request.param
    return ExtensionContext(p, n, modulus=BIG_MODULI[n] if p == BIG_P else None)


def object_product(c, a, b):
    """Reference of a * b: np.convolve and the reduction matrix in Python
    integers, which never overflow."""
    conv = np.convolve(np.array(a, dtype=object), np.array(b, dtype=object)) % c.p
    return (c._reduce_matrix.astype(object) @ conv) % c.p


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_int64_kernels_match_the_object_dtype_reference(kernel_ctx, data):
    """Every int64 contraction against the same contraction in Python
    integers, the ranks against sympy, and the stacked kernels against the
    scalar paths.  At 2^31 - 1 every contraction of more than two terms
    takes contract_mod's two limb passes: all of them at n = 3, the
    reduction matrix's at n = 2."""
    c = kernel_ctx
    p, n = c.p, c.n
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(lambda r: any(r[:2]))
    coeffs = data.draw(st.lists(row, min_size=1, max_size=6))
    vecs, exact = np.array(coeffs, dtype=np.int64), np.array(coeffs, dtype=object)
    elements = [c.element(r) for r in coeffs]
    frobenius = c.sigma_power_matrix(1).astype(object)
    products = c.mul_stack(vecs, vecs[::-1])
    conjugates = c.frobenius_stack(vecs, 1)
    combined = matmul_mod(vecs, vecs.T, p)
    for out in (products, conjugates, combined, c._vmul(vecs[0], vecs[-1])):
        assert out.dtype == np.int64
    assert np.array_equal(combined, (exact @ exact.T) % p)
    assert np.array_equal(conjugates, (exact @ frobenius.T) % p)
    for j, b in enumerate(elements):
        reference = object_product(c, coeffs[j], coeffs[-1 - j])
        assert np.array_equal(products[j], reference)
        assert np.array_equal(c._vmul(vecs[j], vecs[-1 - j]), reference)
        assert np.array_equal(products[j], (b * elements[-1 - j]).coeffs)
        assert np.array_equal(conjugates[j], c.frobenius_power(b, 1).coeffs)
    norms = c.mul_stack(vecs, conjugates)
    for i in range(2, n):
        norms = c.mul_stack(norms, c.frobenius_stack(vecs, i))
    assert np.array_equal(norms, [c.norm(b).coeffs for b in elements])
    for i in range(1, n):
        grams = forms.gram_stack(c, vecs, i)
        assert grams.dtype == np.int64
        basis = np.array([forms.gram_entries(c, e, i) for e in np.eye(n, dtype=np.int64)], dtype=object)
        assert np.array_equal(grams, np.tensordot(exact, basis, axes=1) % p)
        ranks = rank_mod_batch(grams, p)
        for vec, g, r in zip(vecs, grams, ranks):
            scalar = forms.gram_entries(c, vec, i)
            assert np.array_equal(g, scalar)
            assert r == rank_mod(scalar, p) == domain_rank(scalar, p)
        if order_of(c, i) > 2:
            predicate = forms.norm_predicates(c, vecs, [i])[i]
            assert predicate.tolist() == [forms.is_degenerate_by_norm(c, b, i) for b in elements]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_arithmetic_is_the_stacked_kernels_row_by_row(kernel_ctx, data):
    """FieldElement holds its read-only int64 row: each scalar operation
    gives, row by row, what the stacked kernels give on the whole stack."""
    c = kernel_ctx
    p, n = c.p, c.n
    count, e, i = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 6)), data.draw(st.integers(0, n - 1))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a, b = (np.array(data.draw(st.lists(row, min_size=count, max_size=count)), dtype=np.int64)
            for _ in range(2))
    one = c.one().vector()
    powers = np.broadcast_to(one, a.shape)
    for _ in range(e):
        powers = c.mul_stack(powers, a)
    for j, (x, y) in enumerate(zip(map(c.element, a), map(c.element, b))):
        for got, want in ((x + y, (a[j] + b[j]) % p), (x - y, (a[j] - b[j]) % p), (-x, -a[j] % p),
                          (x * y, c.mul_stack(a, b)[j]), (x**e, powers[j]),
                          (c.frobenius_power(x, i), c.frobenius_stack(a, i)[j])):
            assert got.vector().dtype == np.int64 and np.array_equal(got.vector(), want)
        with pytest.raises(ValueError, match="read-only"):
            x.vector()[0] = 1
        # an element that differs only above the constant term hashes apart
        assert hash(x + c.theta()) != hash(x)
        if x:
            inverse = x.inverse()
            assert np.array_equal(c.mul_stack(inverse.vector()[None], a[j : j + 1])[0], one)
            # _vinv's column of [M_x | e_0] is a strided view; its copy is contiguous
            column = c._vinv(x.vector())
            copy = c.element(column)
            assert not column.flags.c_contiguous and copy.vector().flags.c_contiguous
            assert inverse == copy and hash(inverse) == hash(copy)


def scalar_norms(c, rows, sub):
    """Norms down to GF(p^sub) of a (B, n) stack, row by row on the scalar path."""
    return np.array([c.norm(c.element(row), sub).coeffs for row in rows], dtype=np.int64)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_kernels_keep_the_field_algebra(kernel_ctx, data):
    c = kernel_ctx
    p, n = c.p, c.n
    count = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a, b = (np.array(data.draw(st.lists(row, min_size=count, max_size=count)), dtype=np.int64)
            for _ in range(2))
    product = c.mul_stack(a, b)
    for i in range(n):
        # sigma^i is a ring homomorphism
        frob_a, frob_b = c.frobenius_stack(a, i), c.frobenius_stack(b, i)
        assert np.array_equal(c.frobenius_stack((a + b) % p, i), (frob_a + frob_b) % p)
        assert np.array_equal(c.frobenius_stack(product, i), c.mul_stack(frob_a, frob_b))
    for sub in (d for d in range(1, n + 1) if n % d == 0):
        norm_a = scalar_norms(c, a, sub)
        # multiplicative, and it commutes with every sigma^i
        assert np.array_equal(scalar_norms(c, product, sub), c.mul_stack(norm_a, scalar_norms(c, b, sub)))
        for i in range(n):
            assert np.array_equal(scalar_norms(c, c.frobenius_stack(a, i), sub),
                                  c.frobenius_stack(norm_a, i))
        # transitivity: N_{L/K} = N_{L_sub/K} o N_{L/L_sub}, the outer norm
        # being the product of the sub conjugates of an element of L_sub
        assert np.array_equal(c.frobenius_stack(norm_a, sub), norm_a)
        outer = norm_a
        for j in range(1, sub):
            outer = c.mul_stack(outer, c.frobenius_stack(norm_a, j))
        assert np.array_equal(outer, scalar_norms(c, a, 1))

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_is_transitive_through_intermediate_fields(kernel_ctx, data):
    c = kernel_ctx
    p, n = c.p, c.n
    b = c.element(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    absolute = trace(c, b)
    assert absolute.in_prime_field()
    for sub in (d for d in range(1, n + 1) if n % d == 0):
        partial = trace(c, b, sub)
        # it lies in GF(p^sub), the fixed field of sigma^sub
        assert c.frobenius_power(partial, sub) == partial
        # Tr_{L/K} = Tr_{L_sub/K} o Tr_{L/L_sub}, and on L_sub Tr_{L/K} is
        # (n/sub) Tr_{L_sub/K}: so Tr_{L/K}(Tr_{L/L_sub}(b)) = (n/sub) Tr_{L/K}(b)
        assert trace(c, partial).scalar() == (n // sub) * absolute.scalar() % p


def test_stacked_kernels_reject_zero_rows(ctx):
    c = ctx(3, 5)
    vecs = np.array([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(ZeroElement):
        forms.norm_predicates(c, vecs, [1])


def report_bytes(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def test_oracle_report_is_independent_of_block_size(ctx, monkeypatch):
    c = ctx(3, 5)
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    default = report_bytes(decomposition.oracle_survey(c))
    # the 242 units fall into m_i = gcd(1 + 3^i, 242) = 2 cosets at i = 1
    # and at i = 2: one block of 2 representatives per power
    assert blocks == [2, 2]
    blocks.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)  # one row per block
    assert report_bytes(decomposition.oracle_survey(c)) == default
    assert blocks == [1] * 4


@pytest.mark.parametrize("p,n,grams", [(3, 7, 6), (7, 4, 58), (3, 12, 778), (3, 13, 12)])
def test_exhaustive_census_ranks_one_gram_per_coset_and_power(ctx, monkeypatch, p, n, grams):
    # sum of m_i = gcd(1 + p^i, p^n - 1) over i <= n/2.  (3, 7): 2 at each of
    # i = 1, 2, 3, against 2186 * 6 = 13116 Grams ranked one per element;
    # (7, 4): 8 + 50, against 7200; (3, 12): 4 + 10 + 28 + 2 + 4 + 730;
    # (3, 13): 2 at each of i = 1 .. 6
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    decomposition.oracle_survey(ctx(p, n))
    assert sum(blocks) == grams


@pytest.mark.parametrize("verify, p, n, grams", [
    (decomposition.verify_theorem_A, 3, 10, [2, 2]),
    (decomposition.verify_theorem_C, 3, 16, [2, 2, 4, 4, 4]),
    (decomposition.verify_direct_sum, 3, 8, [4, 10, 4, 82]),
])
def test_exhaustive_spectra_rank_one_gram_per_coset(ctx, monkeypatch, verify, p, n, grams):
    # m = gcd(1 + p^i, p^t - 1) Grams per space b0*GF(p^t), against the
    # p^t - 1 that ranked one per element: TA (3, 10) 242 per space; TC
    # (3, 16) V1 2, V2 2, E1 6560, E2 80, E3 8; direct-sum (3, 8) 6560 at
    # each of i = 1 .. 4.  The span checks rank by rank_mod, unseen here
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    report = verify(ctx(p, n))
    assert report.passed and {comp.mode for comp in report.components} == {"exhaustive"}
    assert blocks == grams + [1]  # and the one matrix of the direct-sum certificate


@pytest.mark.parametrize("p,n,cap,grams", [(3, 16, 200, 1600), (1000003, 3, 300, 300)])
def test_sampled_census_ranks_each_draw_at_powers_up_to_n_over_2(ctx, monkeypatch, p, n, cap, grams):
    # (3, 16): 200 draws times i = 1 .. 8, against 200 * 15 = 3000 at every
    # power; (1000003, 3): 300 draws times i = 1, against 600
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    report = decomposition.oracle_survey(ctx(p, n), sample_cap=cap)
    assert report.mode == "sampled" and report.checked == cap
    assert sum(blocks) == grams


def test_census_builds_each_norm_once(ctx, monkeypatch):
    # (3, 7) by cosets, one block of 2 rows per power: 6 products for its
    # norm and 1 that forms the block, after 2 one-row products that double
    # the table of powers
    products = block_lengths(monkeypatch, ExtensionContext, "mul_stack", 1)
    decomposition.oracle_survey(ctx(3, 7))
    assert products == [1, 1, 2, 2, 2, 2, 2, 2, 2] * 3
    # sampled in one block of 157 rows at i = 1, 2, 3, all with sub =
    # gcd(7, 2i) = 1, so one product of the 7 conjugates: 6 stacked
    # products, against 14 for a suffix times prefix rotated per power
    products.clear()
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)
    decomposition.oracle_survey(ctx(3, 7), sample_cap=157)
    assert len(products) == 6 and set(products) == {157}


def test_sampled_reports_are_independent_of_block_size(ctx, monkeypatch):
    c = ctx(5, 4)
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)  # force a sampled census
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    oracle = report_bytes(decomposition.oracle_survey(c, seed=3, sample_cap=150))
    direct = report_bytes(decomposition.verify_direct_sum(c, seed=3, sample_cap=150))
    assert json.loads(oracle)["mode"] == "sampled"
    assert max(blocks) == 150
    blocks.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)
    assert report_bytes(decomposition.oracle_survey(c, seed=3, sample_cap=150)) == oracle
    assert report_bytes(decomposition.verify_direct_sum(c, seed=3, sample_cap=150)) == direct
    assert set(blocks) == {1}


def one_call_rows(p, dim, count, rng):
    """The row source that the blocks replace: one draw of all rows and
    then rounds redrawing the all-zero ones."""
    rows = rng.integers(0, p, size=(count, dim))
    while (zero := ~rows.any(axis=1)).any():
        rows[zero] = rng.integers(0, p, size=(int(zero.sum()), dim))
    return rows


# (3, 1) draws a zero row a third of the time, its redraws too; n = 6 sets
# the block size, and small STACK_BYTES make chunks of 36 and 252 rows, so
# with one-row blocks the redraws of zero rows span several chunks; where
# GF(p)^dim has at most `limit` nonzero elements, a spectrum of
# GF(p^dim) with that cap walks it by cosets and draws no row at all
@pytest.mark.parametrize("p, dim, limit, count", [
    (3, 1, 0, 700), (3, 1, 2, 700), (3, 4, 79, 0), (3, 4, 79, 300), (3, 4, 80, 300), (5, 3, 100, 1000),
    (7, 3, 400, 50),
])
@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_row_blocks_match_the_one_call_rows(ctx, monkeypatch, p, dim, limit, count, rows_per_block):
    n = 6
    if rows_per_block:
        monkeypatch.setattr(linalg, "STACK_BYTES", 8 * n * n * rows_per_block)
    size = linalg.block_rows(n)
    for seed in range(3):
        ours, theirs = Stream(seed), Stream(seed)
        if p**dim - 1 <= limit:  # GF(p^dim) in GF(p^12), which holds dim = 1, 3 and 4
            c = ctx(p, 12)
            report = decomposition.rank_spectrum_check(c, 1, c.one(), dim, "F", {0}, sample_cap=limit, rng=ours)
            assert (report.mode, report.checked) == ("exhaustive", p**dim - 1)
        else:
            expect = one_call_rows(p, dim, count, theirs)
            blocks = list(decomposition._sampled_blocks(p, dim, n, count, ours))
            assert all(1 <= len(block) <= size and block.any(axis=1).all() for block in blocks)
            rows = np.concatenate(blocks or [np.zeros((0, dim), np.int64)])
            # a spectrum sees the rows only as a multiset
            assert sorted(rows.tolist()) == sorted(expect.tolist())
        # once every block is taken, the stream is where the one call leaves it
        assert np.array_equal(ours.integers(0, 2**32, size=5), theirs.integers(0, 2**32, size=5))


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_remark_c_report_is_independent_of_block_size(ctx, monkeypatch, rows_per_block):
    c = ctx(11, 16)
    # the driver ranks the p + 1 = 12 coset representatives, one block by default
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    default = report_bytes(decomposition.remark_C_check(c, 3))
    assert blocks == [12]
    blocks.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 8 * 16 * 16 * rows_per_block)
    assert report_bytes(decomposition.remark_C_check(c, 3)) == default
    assert blocks == [rows_per_block] * (12 // rows_per_block)


# every walk that _ranked_blocks serves; with the census ceiling at 100
# (set by the tests below) the 80 units of (3, 4) are still walked by
# cosets, and the 624 of (5, 4) are sampled
WALKS = {
    "direct-sum": lambda ctx: decomposition.verify_direct_sum(ctx(3, 4)),
    "TA": lambda ctx: decomposition.verify_theorem_A(ctx(3, 6)),
    "TC": lambda ctx: decomposition.verify_theorem_C(ctx(3, 8), sample_cap=50),
    "coset census": lambda ctx: decomposition.oracle_survey(ctx(3, 4)),
    "sampled census": lambda ctx: decomposition.oracle_survey(ctx(5, 4), sample_cap=50),
    "RemarkC": lambda ctx: decomposition.remark_C_check(ctx(11, 16), 3),
}
# the walks that ask the driver for norm predicates too
PREDICATE_WALKS = ["coset census", "sampled census", "RemarkC"]


@pytest.mark.parametrize("walk", WALKS)
def test_scalar_spot_check_catches_a_wrong_stacked_rank(ctx, monkeypatch, walk):
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)
    monkeypatch.setattr(decomposition, "rank_mod_batch", lambda stack, p: np.zeros(len(stack), dtype=int))
    with pytest.raises(InternalCheckError, match="stacked Gram rank disagrees with the scalar path"):
        WALKS[walk](ctx)


def test_remark_c_checks_the_degeneracy_witness_once_per_block(ctx, monkeypatch):
    calls, checked = [], []
    real = forms.degeneracy_witness
    identities = decomposition._check_census_identities

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(decomposition, "degeneracy_witness", spy)
    monkeypatch.setattr(decomposition, "_check_census_identities",
                        lambda c, vec, i, *rest: checked.append(i) or identities(c, vec, i, *rest))
    c = ctx(11, 16)
    assert decomposition.remark_C_check(c, 3).passed
    # the 12 coset representatives b0*x^j, j < 12, fit one block: the
    # witness decides b0, and the census identities are checked on b0*x^11
    b0, x = c.element(eigenspace(c, 2, -1)[0]), decomposition._coset_step(c, 2, 1)[0]
    assert [w.is_degenerate for w in calls] == [rank_mod(forms.gram(c, b0, 1), 11) < 16]
    assert checked == [1]
    calls.clear()
    checked.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)  # one row per block
    assert decomposition.remark_C_check(c, 3).passed
    # in row order, and degenerate on (p + 1)/l = 12/3 rows
    rows = [b0 * x**j for j in range(12)]
    assert [w.is_degenerate for w in calls] == [rank_mod(forms.gram(c, b, 1), 11) < 16 for b in rows]
    assert sum(w.is_degenerate for w in calls) == 4
    assert checked == [1] * 12

    def flipped(*args):
        witness = real(*args)
        witness.is_degenerate = not witness.is_degenerate
        return witness

    monkeypatch.setattr(decomposition, "degeneracy_witness", flipped)
    with pytest.raises(InternalCheckError, match="degeneracy witness and norm predicate disagree"):
        decomposition.remark_C_check(ctx(11, 16), 3)


@pytest.mark.parametrize("walk", PREDICATE_WALKS)
def test_scalar_spot_check_catches_a_wrong_stacked_predicate(ctx, monkeypatch, walk):
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)
    real = forms.norm_predicates
    monkeypatch.setattr(decomposition, "norm_predicates",
                        lambda *args: {i: ~v for i, v in real(*args).items()})
    with pytest.raises(InternalCheckError, match="stacked norm predicate disagrees with the scalar path"):
        WALKS[walk](ctx)
