"""The exhaustive oracle census by orbits.

The census ranks one representative per orbit of L^x under sigma and
GF(p)^x, for i <= n/2 only.  Here it is played against: the report bytes
of the census that ranked every element for every i, frozen by SHA-256; a
reference census that shares no code with skewrank.fields, forms or
linalg; orbits found by brute force with Python sets; the three identities
it rests on, as hypothesis properties of the scalar path; and the
np.indices enumeration order.  The in-walk cross-checks must catch each
identity broken on its own.
"""

import hashlib
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
from skewrank.cli import main
from skewrank.errors import InternalCheckError
from skewrank.galois import order_of
from skewrank.linalg import rank_mod

from conftest import _ctx, block_lengths, elements

# SHA-256 of `oracle --p P --n N` on stdout, from the census that ranked
# every nonzero element for every i in 1..n-1
ELEMENTWISE_CENSUS_SHA256 = {
    (3, 5): "542b863bff0d9c56cf8eddbd6452022bc67c137815d04f6205f79dd09b39c475",
    (5, 6): "2e2a8cbc72aa73068d9c3e1c1f7f034fc992a45c92249803e013be74d496740e",
    (3, 8): "e27beca9cb2b86f8f1608f69072bf59187fb294fdfd2c1b5b6f9a2941a77a6a0",
    (7, 4): "95e68b8bbbe6f6b471c1f3e50f09b48e9b0b0120b4e4ba04eb76427972105856",
    (3, 10): "71455a159a11159da19569f624ad164937eb83ffe8f45aa86f962a174b7676cb",
}


@pytest.mark.parametrize("p,n", sorted(ELEMENTWISE_CENSUS_SHA256))
def test_census_bytes_match_the_elementwise_census(capsys, p, n):
    assert main(["oracle", "--p", str(p), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ELEMENTWISE_CENSUS_SHA256[p, n]


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
# orbits and weights
# ---------------------------------------------------------------------------

def census_blocks(c):
    """(indices, orbit sizes) of every representative the census walks."""
    reps, sizes = zip(*decomposition._orbit_blocks(c))
    return (np.concatenate(reps) @ c.p ** np.arange(c.n)).tolist(), np.concatenate(sizes).tolist()


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3)])
@pytest.mark.parametrize("stack_bytes", [None, 1])
def test_representatives_are_the_least_of_their_orbits(ctx, monkeypatch, p, n, stack_bytes):
    c = ctx(p, n)
    if stack_bytes:
        monkeypatch.setattr(linalg, "STACK_BYTES", stack_bytes)  # one row per block
    orbits = {}
    for b in elements(c):
        orbit = set()
        image = b
        for _ in range(n):
            orbit |= {(c.scalar(s) * image).index() for s in range(1, p)}
            image = c.frobenius_power(image, 1)
        orbits[min(orbit)] = len(orbit)
    indices, sizes = census_blocks(c)
    assert indices == sorted(orbits)
    assert sizes == [orbits[v] for v in indices]
    assert sum(sizes) == p**n - 1


def test_orbit_sizes_must_cover_the_unit_group(ctx, monkeypatch):
    real = decomposition._orbit_representatives

    def one_short(c, rows, inverse):
        reps, sizes = real(c, rows, inverse)
        return reps, sizes - (reps[:, 0] == 1) * (reps[:, 1:] == 0).all(axis=1)  # the orbit of 1

    monkeypatch.setattr(decomposition, "_orbit_representatives", one_short)
    with pytest.raises(InternalCheckError, match="orbit sizes add up to 241, not 242"):
        decomposition.oracle_survey(ctx(3, 5))


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4)])
@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_census_enumerates_in_the_np_indices_order(ctx, monkeypatch, p, n, rows_per_block):
    if rows_per_block:
        monkeypatch.setattr(linalg, "STACK_BYTES", 8 * n * n * rows_per_block)
    walked = []
    real = decomposition._counting_rows
    monkeypatch.setattr(decomposition, "_counting_rows",
                        lambda *args: walked.append(real(*args)) or walked[-1])
    report = decomposition.oracle_survey(ctx(p, n))
    grid = np.indices((p,) * n).reshape(n, -1).T[:, ::-1][1:]
    # only a row whose most significant nonzero digit is 1 can be the least of its orbit
    leading_one = [row[np.flatnonzero(row)[-1]] == 1 for row in grid]
    assert np.array_equal(np.concatenate(walked), grid[leading_one])
    assert len(grid[leading_one]) == (p**n - 1) // (p - 1)
    assert max(map(len, walked)) == min(linalg.block_rows(n), p ** (n - 1))
    assert report.checked == len(grid)


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


# ---------------------------------------------------------------------------
# the in-walk cross-checks
# ---------------------------------------------------------------------------

def test_every_rank_block_checks_the_identities(ctx, monkeypatch):
    c = ctx(3, 5)
    checked = []
    real = decomposition._check_orbit_identities
    monkeypatch.setattr(decomposition, "_check_orbit_identities",
                        lambda c, vec, i, *rest: checked.append((tuple(vec), i)) or real(c, vec, i, *rest))
    decomposition.oracle_survey(c)
    # one block of 25 representatives, i = 1, 2; its last representative,
    # unlike the first (b = 1), is moved by sigma
    assert [i for _, i in checked] == [1, 2]
    b = c.element(checked[0][0])
    assert c.frobenius_power(b, 1) != b
    checked.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)
    decomposition.oracle_survey(c)
    assert len(checked) == 50


def test_sampled_census_does_not_rely_on_the_identities(ctx, monkeypatch):
    checked = block_lengths(monkeypatch, decomposition, "_check_orbit_identities", 1)
    monkeypatch.setattr(decomposition, "FULL_FIELD_CEILING", 100)
    report = decomposition.oracle_survey(ctx(5, 4), sample_cap=150)
    assert report.mode == "sampled" and report.checked == 150 and not checked


@pytest.mark.parametrize("kernel", ["gram_entries", "is_degenerate_by_norm"])
@pytest.mark.parametrize("move", ["2b", "sigma(b)", "b at i=3"])
def test_orbit_check_names_the_identity_that_breaks(ctx, monkeypatch, kernel, move):
    c = ctx(3, 5)
    b, i = c.element([0, 1, 1, 0, 0]), 2
    target, power = {"2b": (c.scalar(2) * b, i), "sigma(b)": (c.frobenius_power(b, 1), i),
                     "b at i=3": (b, 3)}[move]
    rank = rank_mod(forms.gram(c, b, i), 3)
    degenerate = forms.is_degenerate_by_norm(c, b, i)
    decomposition._check_orbit_identities(c, b.vector(), i, rank, degenerate)
    real = getattr(decomposition, kernel)

    def broken(c, x, j):
        value = real(c, x, j)
        if j == power and tuple(int(v) for v in getattr(x, "coeffs", x)) == target.coeffs:
            return 0 * value if kernel == "gram_entries" else not value
        return value

    monkeypatch.setattr(decomposition, kernel, broken)
    with pytest.raises(InternalCheckError, match=re.escape(f"{move} differs")):
        decomposition._check_orbit_identities(c, b.vector(), i, rank, degenerate)


def test_census_fails_when_the_mirrored_power_disagrees(ctx, monkeypatch):
    # the census itself never ranks i > n/2; only the cross-check asks
    real = decomposition.gram_entries
    monkeypatch.setattr(decomposition, "gram_entries",
                        lambda c, x, j: 0 * real(c, x, j) if j > c.n // 2 else real(c, x, j))
    with pytest.raises(InternalCheckError, match="orbit identity fails"):
        decomposition.oracle_survey(ctx(3, 5))
