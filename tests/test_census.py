"""The exhaustive walks by cosets: the oracle census and the theorem spectra.

The census ranks one representative per coset of the (1 + p^i)-th powers
in L^x, for i <= n/2 only, and copies i to n - i.  Here it is played
against: a reference census that shares no code with skewrank.fields,
forms or linalg; cosets found by brute force with Python sets; and the
identities behind it (the coset move b -> b*c^(1+p^i), the mirror n - i
and the congruences it uses), as hypothesis properties of the scalar path.
The in-walk cross-checks must catch each identity broken on its own.

Its report bytes are also held to those of the census that ranked every
nonzero element for every i in 1..n-1: the golden files
tests/golden/oracle_--p_P_--n_N.out at (3, 5), (5, 6), (3, 8), (7, 4) and
(3, 10) are that census's stdout, checked by test_golden.py.

An exhaustive theorem spectrum walks b0*GF(p^t) the same way.  It is
played against the walk it replaced, which ranked every nonzero
combination of the basis rows (elementwise_spectrum), on every space the
verifiers build at fourteen instances and on random spans.
"""

import contextlib
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from skewrank import decomposition, forms, linalg
from skewrank.errors import HypothesisViolation, InternalCheckError, WrongShape
from skewrank.galois import fixed_field_basis, order_of
from skewrank.linalg import rank_mod

from conftest import _ctx, block_lengths, elements

# ---------------------------------------------------------------------------
# reference census: sympy Poly arithmetic and DomainMatrix ranks only
# ---------------------------------------------------------------------------

X = symbols("x")


class ReferenceField:
    """GF(p)[x]/(m) for the lexicographically least monic irreducible m of
    degree n (coefficients compared from the constant term up), in sympy
    Poly arithmetic.  Elements are Polys of degree < n."""

    def __init__(self, p, n):
        self.p, self.n = p, n
        for lower in itertools.product(range(p), repeat=n):  # last coefficient moves fastest
            modulus = Poly([1, *reversed(lower)], X, modulus=p)
            if modulus.is_irreducible:
                self.modulus = modulus
                break
        self.theta = [self.reduce(Poly(X**j, X, modulus=p)) for j in range(n)]
        # tr(theta^j) as the sum of the Frobenius images of theta^j
        self.basis_traces = [self.coeffs(sum(self.conjugates(t), Poly(0, X, modulus=p)))[0]
                             for t in self.theta]

    def reduce(self, a):
        return a.rem(self.modulus)

    def coeffs(self, a):
        """Coefficients c0, c1, ... as residues in [0, p), padded to n."""
        low = [int(c) % self.p for c in reversed(a.all_coeffs())]
        return low + [0] * (self.n - len(low))

    def element(self, index):
        digits = [index // self.p**j % self.p for j in range(self.n)]
        return self.reduce(Poly(list(reversed(digits)), X, modulus=self.p))

    def frobenius(self, a):
        return self.reduce(a**self.p)

    def conjugates(self, a):
        """a, sigma(a), ..., sigma^(n-1)(a)."""
        out = [a]
        for _ in range(self.n - 1):
            out.append(self.frobenius(out[-1]))
        return out

    def trace(self, a):
        return sum(c * t for c, t in zip(self.coeffs(a), self.basis_traces)) % self.p

    def product(self, factors):
        out = Poly(1, X, modulus=self.p)
        for f in factors:
            out = self.reduce(out * f)
        return out


def reference_oracle(field):
    """The whole-field oracle report at (p, n), from the defining formula
    Q_b(x, y) = tr(b(x sigma^i(y) - sigma^i(x) y)) for every nonzero b and
    every i, ranked by DomainMatrix over GF(p); the norm predicate is
    N(sigma^i(b)) = N(b) with N the norm down to GF(p^gcd(n, 2i))."""
    p, n = field.p, field.n
    theta = field.theta
    images = [field.conjugates(t) for t in theta]  # images[r][i] = sigma^i(theta^r)
    # w[i][r][c] = theta^r sigma^i(theta^c) - sigma^i(theta^r) theta^c
    w = {i: [[field.reduce(theta[r] * images[c][i] - images[r][i] * theta[c]) for c in range(n)]
              for r in range(n)] for i in range(1, n)}
    orders = {i: n // math.gcd(n, i) for i in range(1, n)}
    histograms = {i: Counter() for i in range(1, n)}
    predicate_checked = predicate_disagreements = 0
    dom = GF(p)
    for index in range(1, p**n):
        b = field.element(index)
        conj = field.conjugates(b)
        for i in range(1, n):
            gram = [[dom(field.trace(field.reduce(b * w[i][r][c]))) for c in range(n)] for r in range(n)]
            rank = DomainMatrix(gram, (n, n), dom).rank()
            histograms[i][rank] += 1
            if orders[i] > 2:
                sub = math.gcd(n, 2 * i)
                norm = field.product(conj[sub * j] for j in range(n // sub))
                moved = field.product(conj[(i + sub * j) % n] for j in range(n // sub))
                predicate_checked += 1
                predicate_disagreements += (moved == norm) != (rank < n)

    def allowed(o):
        return {n - n // o} if o % 2 else {n, n - 2 * n // o}

    support_ok = all(set(histograms[i]) == allowed(orders[i]) for i in range(1, n))
    return {
        "theorem": "oracle",
        "instance": {"p": p, "n": n},
        "mode": "exhaustive",
        "checked": p**n - 1,
        "histograms": {str(i): {str(r): histograms[i][r] for r in sorted(histograms[i])}
                       for i in range(1, n)},
        "support_ok": support_ok,
        "degenerate_counts": {str(i): sum(k for r, k in histograms[i].items() if r < n)
                              for i in range(1, n)},
        "predicate_checked": predicate_checked,
        "predicate_disagreements": predicate_disagreements,
        "seed": 0,
        "rng": "PCG64",
        "pass": support_ok and predicate_disagreements == 0,
    }


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (3, 5), (7, 3)])
def test_census_matches_the_independent_reference(ctx, p, n):
    c = ctx(p, n)
    field = ReferenceField(p, n)
    assert field.coeffs(field.modulus) == list(c.modulus)
    assert decomposition.oracle_survey(c).to_json_dict() == reference_oracle(field)


# ---------------------------------------------------------------------------
# cosets and weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3), (3, 6)])
@pytest.mark.parametrize("stack_bytes", [None, 1])
def test_every_unit_is_one_coset_representative_times_one_power(ctx, monkeypatch, p, n, stack_bytes):
    # at each i <= n/2 the census ranks x^0 .. x^(m_i - 1), m_i = gcd(1 + p^i,
    # q - 1), x the generator slice_generator finds for m_i: every unit is
    # x^k * h for exactly one k < m_i and h in H_i, the (1 + p^i)-th powers
    c = ctx(p, n)
    if stack_bytes:
        monkeypatch.setattr(linalg, "STACK_BYTES", stack_bytes)  # one row per block
    walked = []
    real = decomposition._power_blocks

    def spy(c, g, count, start):
        walked.append((g, count, start, []))
        for rows, s in real(c, g, count, start):
            walked[-1][3].extend(c.element(row).index() for row in rows)
            yield rows, s

    monkeypatch.setattr(decomposition, "_power_blocks", spy)
    decomposition.oracle_survey(c)
    units = list(elements(c))
    for i, (x, count, start, ranked) in enumerate(walked, start=1):
        m = math.gcd(1 + p**i, p**n - 1)
        assert (x, count, start) == (decomposition.slice_generator(c, m), m, c.one())
        assert ranked == [(x**k).index() for k in range(m)]
        powers = {(h ** (1 + p**i)).index() for h in units}
        assert len(powers) * m == len(units)
        cosets = [{(x**k * c.from_index(h)).index() for h in powers} for k in range(m)]
        assert sum(map(len, cosets)) == len(units) and set().union(*cosets) == {u.index() for u in units}
    assert len(walked) == n // 2


@pytest.mark.parametrize("p,n,count", [(3, 5, 40), (11, 4, 121)])
@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_power_blocks_are_the_scalar_powers_in_order(ctx, monkeypatch, p, n, count, rows_per_block):
    # the doubling table and its shifted copies against FieldElement powers
    if rows_per_block:
        monkeypatch.setattr(linalg, "STACK_BYTES", 8 * n * n * rows_per_block)
    c = ctx(p, n)
    g, start = c.theta() + c.one(), c.theta() ** 2 + c.scalar(2)
    blocks = list(decomposition._power_blocks(c, g, count, start))
    assert all(1 <= len(rows) <= linalg.block_rows(n) for rows, _ in blocks)
    rows, exponents = (np.concatenate(parts) for parts in zip(*blocks))
    assert exponents.tolist() == list(range(count))
    assert [c.element(row) for row in rows] == [start * g**s for s in range(count)]


# ---------------------------------------------------------------------------
# the theorem spectra by cosets
# ---------------------------------------------------------------------------

def elementwise_spectrum(c, i, basis):
    """The walk the coset walk replaced: the rank at i of every nonzero
    combination of the basis rows, in counting order, 4096 at a time."""
    p, dim = c.p, len(basis)
    spectrum = Counter()
    for start in range(1, p**dim, 4096):
        index = np.arange(start, min(start + 4096, p**dim))
        coeffs = np.stack(np.unravel_index(index, (p,) * dim)[::-1], axis=1)
        grams = forms.gram_stack(c, linalg.matmul_mod(coeffs, basis, p), i)
        spectrum.update(linalg.rank_mod_batch(grams, p).tolist())
    return dict(spectrum)


def verifier_spaces(c, monkeypatch):
    """(i, basis, label, allowed) of every space that verify_direct_sum,
    verify_theorem_A and verify_theorem_C hand to rank_spectrum_check at c,
    where their hypotheses hold; a cap of 0 walks none of them."""
    spaces = []
    real = decomposition.rank_spectrum_check
    monkeypatch.setattr(decomposition, "rank_spectrum_check",
                        lambda c, *space, **kwargs: spaces.append(space[:4]) or real(c, *space, **kwargs))
    for verify in (decomposition.verify_direct_sum, decomposition.verify_theorem_A,
                   decomposition.verify_theorem_C):
        with contextlib.suppress(HypothesisViolation, WrongShape):
            verify(c, sample_cap=0)
    monkeypatch.setattr(decomposition, "rank_spectrum_check", real)
    return spaces


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (3, 6), (3, 8), (3, 10), (3, 16), (5, 4), (5, 6), (7, 3),
                                 (7, 6), (7, 8), (11, 6), (11, 8), (19, 4)])
def test_coset_walk_matches_the_elementwise_spectrum_of_every_verifier_space(ctx, monkeypatch, p, n):
    # every space small enough to be walked exhaustively (at most 2^20
    # elements; the largest here is all of GF(19^4)) passes the span check
    # and has the spectrum of the element-by-element walk
    c = ctx(p, n)
    spaces = [space for space in verifier_spaces(c, monkeypatch)
              if p ** len(space[1]) - 1 <= decomposition.EXHAUSTIVE_CEILING]
    assert spaces
    for i, basis, label, allowed in spaces:
        report = decomposition.rank_spectrum_check(c, i, basis, label, allowed,
                                                   sample_cap=decomposition.EXHAUSTIVE_CEILING)
        assert report.mode == "exhaustive" and report.checked == p ** len(basis) - 1
        assert report.rank_spectrum == elementwise_spectrum(c, i, basis), label
        assert report.passed, label


@st.composite
def spans(draw):
    """A span b0*GF(p^t) in GF(p^n) of at most 3000 nonzero elements, its
    basis rows in a drawn order, and a power i."""
    p, n = draw(st.sampled_from([3, 5, 7, 11, 13])), draw(st.integers(2, 10))
    t = draw(st.sampled_from([t for t in range(1, n + 1) if n % t == 0 and p**t <= 3001]))
    b0 = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(any))
    return p, n, t, b0, draw(st.permutations(range(t))), draw(st.integers(1, n - 1))


@settings(max_examples=40, deadline=None)
@given(spans())
def test_coset_walk_matches_the_elementwise_spectrum_of_any_span(span):
    p, n, t, coeffs, order, i = span
    c = _ctx(p, n)
    b0 = c.element(coeffs)
    basis = np.array([(b0 * f).coeffs for f in fixed_field_basis(c, t).basis])[order]
    expect = elementwise_spectrum(c, i, basis)
    report = decomposition.rank_spectrum_check(c, i, basis, "S", set(expect), sample_cap=p**t - 1)
    assert (report.mode, report.rank_spectrum, report.passed) == ("exhaustive", expect, True)


def test_an_exhaustive_spectrum_checks_its_span(ctx):
    # span{1, theta} in GF(3^4) is not b0*GF(3^2): theta generates all of GF(3^4)
    c = ctx(3, 4)
    basis = np.eye(4, dtype=np.int64)[:2]
    with pytest.raises(InternalCheckError, match=re.escape("the span of S is not b0*GF(3^2)")):
        decomposition.rank_spectrum_check(c, 1, basis, "S", {2, 4})
    # sampled, it needs no span check: the 5 draws of seed 0 rank as always
    sampled = decomposition.rank_spectrum_check(c, 1, basis, "S", {2, 4}, sample_cap=5)
    assert (sampled.mode, sampled.checked, sampled.rank_spectrum) == ("sampled", 5, {2: 1, 4: 4})
    # three rows cannot span a subfield of GF(3^4), though span{1, theta, theta^2} holds GF(3)
    with pytest.raises(InternalCheckError, match=re.escape("the span of T is not b0*GF(3^3)")):
        decomposition.rank_spectrum_check(c, 1, np.eye(4, dtype=np.int64)[:3], "T", {2, 4})
    # rows 1, 1 lie in GF(3^2) but span only GF(3), which has 2 nonzero elements, not 8
    with pytest.raises(InternalCheckError, match=re.escape("the span of D is not b0*GF(3^2)")):
        decomposition.rank_spectrum_check(c, 1, np.eye(4, dtype=np.int64)[[0, 0]], "D", {4})


def test_an_empty_basis_fails_without_a_walk(ctx):
    report = decomposition.rank_spectrum_check(ctx(3, 4), 1, np.zeros((0, 4), dtype=np.int64), "E", {4})
    assert (report.checked, report.mode, report.rank_spectrum, report.passed) == (0, "exhaustive", {}, False)


def test_an_exhaustive_spectrum_fails_when_an_identity_breaks(ctx, monkeypatch):
    # the spectrum ranks only at i = 1; the identity check also ranks b at n - 1
    real = decomposition.gram_entries
    monkeypatch.setattr(decomposition, "gram_entries",
                        lambda c, x, j: 0 * real(c, x, j) if j == c.n - 1 else real(c, x, j))
    with pytest.raises(InternalCheckError, match="census identity fails"):
        decomposition.verify_theorem_A(ctx(3, 6))
    # a sampled spectrum ranks every element it draws and rests on no identity
    assert decomposition.verify_theorem_A(ctx(3, 6), sample_cap=10).passed


# ---------------------------------------------------------------------------
# the identities, on the scalar path
# ---------------------------------------------------------------------------

@st.composite
def instances(draw):
    p, n = draw(st.sampled_from([(3, 4), (3, 5), (5, 4), (7, 3), (3, 6), (11, 3)]))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(any))
    return p, n, coeffs, draw(st.integers(1, p - 1)), draw(st.integers(1, n - 1))


def predicate(c, b, i):
    return forms.is_degenerate_by_norm(c, b, i) if order_of(c, i) > 2 else None


@settings(max_examples=40, deadline=None)
@given(instances())
def test_scaled_form_is_the_scaled_form(instance):
    # (a) the form of s*b is s times the form of b
    p, n, coeffs, s, i = instance
    c = _ctx(p, n)
    b = c.element(coeffs)
    gram = forms.gram(c, b, i)
    scaled = forms.gram(c, c.scalar(s) * b, i)
    assert np.array_equal(scaled, s * gram % p)
    assert rank_mod(scaled, p) == rank_mod(gram, p)
    assert predicate(c, c.scalar(s) * b, i) == predicate(c, b, i)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_conjugate_form_is_congruent(instance):
    # (b) Q_sigma(b)(x, y) = Q_b(sigma^-1 x, sigma^-1 y): Gram S^T G S, S the matrix of sigma^-1
    p, n, coeffs, _, i = instance
    c = _ctx(p, n)
    b = c.element(coeffs)
    gram = forms.gram(c, b, i)
    conjugate = forms.gram(c, c.frobenius_power(b, 1), i)
    inverse = c.sigma_power_matrix(n - 1).astype(object)
    assert np.array_equal(conjugate, (inverse.T @ gram.astype(object) @ inverse) % p)
    assert rank_mod(conjugate, p) == rank_mod(gram, p)
    assert predicate(c, c.frobenius_power(b, 1), i) == predicate(c, b, i)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_mirrored_power_is_minus_the_moved_form(instance):
    # (c) the form of (b, sigma^(n-i)) is minus the form of (sigma^i(b), sigma^i)
    p, n, coeffs, _, i = instance
    c = _ctx(p, n)
    b = c.element(coeffs)
    moved = c.frobenius_power(b, i)
    mirrored = forms.gram(c, b, n - i)
    assert np.array_equal(mirrored, -forms.gram(c, moved, i) % p)
    assert rank_mod(mirrored, p) == rank_mod(forms.gram(c, b, i), p)
    assert predicate(c, b, n - i) == predicate(c, moved, i) == predicate(c, b, i)


@st.composite
def single_elements(draw):
    p, n = draw(st.sampled_from([3, 5, 7])), draw(st.integers(3, 12))
    coeffs, mover = (draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(any))
                     for _ in range(2))
    return p, n, coeffs, mover, draw(st.integers(1, n - 1))


@settings(max_examples=60, deadline=None)
@given(single_elements())
def test_each_element_keeps_its_rank_at_the_mirrored_power(instance):
    # both census modes rank i <= n/2 only: for every single b, b at n - i
    # and b*c^(1+p^i) at i have b's rank at i, and the same norm predicate
    p, n, coeffs, mover, drawn = instance
    c = _ctx(p, n)
    b, mover = c.element(coeffs), c.element(mover)

    def rank(x, i):
        return rank_mod(forms.gram(c, x, i), p)

    for i in range(1, n):
        moved = b * mover ** (1 + p**i)
        assert rank(b, i) == rank(b, n - i) == rank(moved, i)
        if order_of(c, i) > 2:
            assert (forms.is_degenerate_by_norm(c, b, i) == forms.is_degenerate_by_norm(c, b, n - i)
                    == forms.is_degenerate_by_norm(c, moved, i))
    # and the rank itself, at the drawn power, by sympy over GF(p)
    gram = forms.gram(c, b, drawn)
    reference = DomainMatrix([[GF(p)(int(x)) for x in row] for row in gram], (n, n), GF(p)).rank()
    assert rank(b, drawn) == reference == rank(b, n - drawn)


# ---------------------------------------------------------------------------
# the in-walk cross-checks
# ---------------------------------------------------------------------------

def test_every_rank_block_checks_the_identities(ctx, monkeypatch):
    c = ctx(3, 5)
    checked = []
    real = decomposition._check_census_identities
    monkeypatch.setattr(decomposition, "_check_census_identities",
                        lambda c, vec, i, *rest: checked.append((tuple(vec), i)) or real(c, vec, i, *rest))
    decomposition.oracle_survey(c)
    # one block of m_i = 2 representatives at each of i = 1, 2; its last
    # representative, unlike the first (b = 1), is not fixed by the move
    assert [i for _, i in checked] == [1, 2]
    theta = c.theta()
    for vec, i in checked:
        b = c.element(vec)
        assert b != c.one() and b * theta * c.frobenius_power(theta, i) != b
    checked.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)
    decomposition.oracle_survey(c)
    assert len(checked) == 4


def test_sampled_census_checks_the_identities_per_block(ctx, monkeypatch):
    # the sampled census ranks i <= n/2 only, as the coset census does, and
    # checks the same identities on the last row of every block
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)
    c = ctx(5, 4)
    checked = []
    real = decomposition._check_census_identities
    monkeypatch.setattr(decomposition, "_check_census_identities",
                        lambda c, vec, i, *rest: checked.append(i) or real(c, vec, i, *rest))
    blocks = block_lengths(monkeypatch, decomposition, "rank_mod_batch", 0)
    report = decomposition.oracle_survey(c, sample_cap=150)
    assert report.mode == "sampled" and report.checked == 150
    assert blocks == [150, 150] and checked == [1, 2]
    checked.clear()
    blocks.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)  # one row per block
    decomposition.oracle_survey(c, sample_cap=150)
    assert blocks == [1] * 300 and checked == [1, 2] * 150


@pytest.mark.parametrize("kernel", ["gram_entries", "is_degenerate_by_norm"])
@pytest.mark.parametrize("move", ["b*theta^(1+p^i)", "b at i=3"])
def test_census_check_names_the_identity_that_breaks(ctx, monkeypatch, kernel, move):
    c = ctx(3, 5)
    b, i = c.element([0, 1, 1, 0, 0]), 2
    theta = c.theta()
    target, power = {"b*theta^(1+p^i)": (b * theta ** (1 + 3**i), i), "b at i=3": (b, 3)}[move]
    rank = rank_mod(forms.gram(c, b, i), 3)
    degenerate = forms.is_degenerate_by_norm(c, b, i)
    decomposition._check_census_identities(c, b.vector(), i, rank, degenerate)
    real = getattr(decomposition, kernel)

    def broken(c, x, j):
        value = real(c, x, j)
        if j == power and tuple(int(v) for v in getattr(x, "coeffs", x)) == target.coeffs:
            return 0 * value if kernel == "gram_entries" else not value
        return value

    monkeypatch.setattr(decomposition, kernel, broken)
    with pytest.raises(InternalCheckError, match=re.escape(f"{move} differs")):
        decomposition._check_census_identities(c, b.vector(), i, rank, degenerate)


def test_census_fails_when_the_mirrored_power_disagrees(ctx, monkeypatch):
    # the census itself never ranks i > n/2; only the cross-check asks
    real = decomposition.gram_entries
    monkeypatch.setattr(decomposition, "gram_entries",
                        lambda c, x, j: 0 * real(c, x, j) if j > c.n // 2 else real(c, x, j))
    with pytest.raises(InternalCheckError, match="census identity fails"):
        decomposition.oracle_survey(ctx(3, 5))


def test_sampled_census_fails_when_the_mirrored_power_disagrees(ctx, monkeypatch):
    # the sampled twin of the test above: the census ranks no i > n/2
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)
    real = decomposition.gram_entries
    monkeypatch.setattr(decomposition, "gram_entries",
                        lambda c, x, j: 0 * real(c, x, j) if j > c.n // 2 else real(c, x, j))
    with pytest.raises(InternalCheckError, match="census identity fails"):
        decomposition.oracle_survey(ctx(5, 4), sample_cap=150)
