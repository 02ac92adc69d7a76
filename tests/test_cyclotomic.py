"""Exact rational arithmetic in the fifth cyclotomic field and the
ternary-form certificates."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from skewrank import cyclotomic as cy
from skewrank import linalg
from skewrank.decomposition import EXHAUSTIVE_CEILING
from skewrank.errors import InternalCheckError, InvalidArgument, NotSquareFree
from skewrank.stream import Stream

from conftest import block_lengths, rescale_to

ETA_C = cmath.exp(2j * cmath.pi / 5)


def embed(u, root=ETA_C):
    return sum(float(c) * root**k for k, c in enumerate(u.coords))


def test_eta_is_a_primitive_fifth_root():
    e = cy.ETA
    fifth = e * e * e * e * e
    assert fifth == cy.ONE
    assert not (cy.ONE + e + e * e + e * e * e + e * e * e * e)


def test_product_expansion_below_degree_four():
    lhs = (cy.ONE + cy.ETA) * (cy.ONE + cy.ETA)
    assert lhs == cy.CycloElement.of(1, 2, 1, 0)


def test_multiplication_agrees_with_complex_embedding():
    rng = random.Random(55)
    for _ in range(50):
        u = cy.CycloElement.of(*(rng.randint(-9, 9) for _ in range(4)))
        v = cy.CycloElement.of(*(rng.randint(-9, 9) for _ in range(4)))
        exact = embed(u * v)
        approx = embed(u) * embed(v)
        assert abs(exact - approx) < 1e-8


def test_sigma_moves_eta_to_its_cube():
    assert cy.cyclo_sigma(cy.ETA) == cy.CycloElement.of(0, 0, 0, 1)
    eta2 = cy.ETA * cy.ETA
    assert cy.cyclo_sigma(eta2) == cy.ETA  # eta^6 = eta
    rng = random.Random(19)
    for _ in range(20):
        u = cy.CycloElement.of(*(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                                 for _ in range(4)))
        assert cy.cyclo_sigma(u, 4) == u
        assert cy.cyclo_sigma(cy.cyclo_sigma(u, 1), 3) == u


def test_sigma_is_a_field_automorphism():
    rng = random.Random(2)
    for _ in range(20):
        u = cy.CycloElement.of(*(rng.randint(-9, 9) for _ in range(4)))
        v = cy.CycloElement.of(*(rng.randint(-9, 9) for _ in range(4)))
        assert cy.cyclo_sigma(u * v) == cy.cyclo_sigma(u) * cy.cyclo_sigma(v)
        assert cy.cyclo_sigma(u + v) == cy.cyclo_sigma(u) + cy.cyclo_sigma(v)


def test_degeneracy_coefficient_fixed_values():
    assert cy.degeneracy_coefficient(1, 0, 0, 0) == 0
    assert cy.degeneracy_coefficient(0, 1, 1, 0) == -1


def test_degeneracy_coefficient_matches_norm_extraction():
    rng = random.Random(77)
    for _ in range(300):
        tup = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(4))
        b = cy.CycloElement(tup)
        _, y, z, w = cy.norm_to_quadratic_subfield(b).coords
        assert y == 0 and z == w  # x + z * (eta^2 + eta^3), in the quadratic subfield
        assert cy.degeneracy_coefficient(*tup) == z
        assert cy.isotropy_form(*tup) == -cy.degeneracy_coefficient(*tup)


def test_norm_lands_in_the_quadratic_subfield():
    rng = random.Random(31)
    for _ in range(50):
        b = cy.CycloElement.of(*(rng.randint(-30, 30) for _ in range(4)))
        norm = cy.norm_to_quadratic_subfield(b)
        assert cy.cyclo_sigma(norm, 2) == norm
        _, y, z, w = norm.coords
        assert y == 0 and z == w  # in the basis {1, eta^2 + eta^3} of that subfield


def test_gram_rational_rank_trichotomy():
    assert cy.gram_rational(cy.ZERO)[1] == 0
    assert cy.gram_rational(cy.ONE)[1] == 2
    assert cy.gram_rational(cy.ETA + cy.ETA * cy.ETA)[1] == 4
    rng = random.Random(13)
    for _ in range(60):
        tup = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        b = cy.CycloElement(tup)
        _, r = cy.gram_rational(b)
        assert r in (0, 2, 4)
        assert (r == 4) == (cy.degeneracy_coefficient(*tup) != 0)
        assert (r == 0) == (not b)


def test_gram_rational_matches_complex_embedding():
    # sum over the four embeddings reproduces each trace entry numerically
    rng = random.Random(41)
    roots = [cmath.exp(2j * cmath.pi * k / 5) for k in (1, 2, 3, 4)]

    def entry_numeric(b, r, s):
        total = 0
        basis_exp = [0, 1, 2, 3]
        for root in roots:
            sigma_root = root**3
            bb = sum(float(c) * root**k for k, c in enumerate(b.coords))
            x = root ** basis_exp[r]
            sy = sigma_root ** basis_exp[s]
            sx = sigma_root ** basis_exp[r]
            y = root ** basis_exp[s]
            total += bb * (x * sy - sx * y)
        return total

    for _ in range(10):
        b = cy.CycloElement.of(*(rng.randint(-5, 5) for _ in range(4)))
        entries, _ = cy.gram_rational(b)
        for r in range(4):
            for s in range(4):
                approx = entry_numeric(b, r, s)
                assert abs(float(entries[r][s]) - approx.real) < 1e-6
                assert abs(approx.imag) < 1e-6


def test_ternary_form_validation():
    with pytest.raises(NotSquareFree):
        cy.TernaryForm(4, 1, -1)
    with pytest.raises(NotSquareFree):
        cy.TernaryForm(2, 2, 1)  # abc = 4
    with pytest.raises(NotSquareFree):
        cy.TernaryForm(0, 1, 1)
    cy.TernaryForm(1, 1, -6)


def test_ternary_form_beyond_the_bound_is_refused_naming_it():
    for form in ((3, 5, -(10**200 + 7)), (1, 1, -1000001), (1000001, 1, -1)):
        with pytest.raises(InvalidArgument, match="at most 1000000"):
            cy.TernaryForm(*form)
        with pytest.raises(InvalidArgument, match="at most 1000000"):
            cy.legendre_certificate(form)
    with pytest.raises(NotSquareFree, match="not square-free"):
        cy.legendre_certificate((6, 10, -1))  # square-free coefficients, but gcd(6, 10) = 2
    # the largest prime below the bound is accepted; it is 3 mod 4, so -1 is no square mod it
    assert cy.legendre_certificate((1, 1, -999983)) == {
        "mixed_signs": True, "residue_mod_a": True, "residue_mod_b": True, "residue_mod_c": False,
    }
    assert cy.isotropic_witness(1, 1, -999983) is None


def test_legendre_fixed_verdicts():
    assert cy.legendre_solvable((1, 1, -2)) is True
    assert cy.legendre_solvable((1, 1, -6)) is False
    assert cy.legendre_solvable((1, 1, 1)) is False
    conds = cy.legendre_certificate((1, 1, -6))
    assert conds["mixed_signs"] and conds["residue_mod_a"] and conds["residue_mod_b"]
    assert not conds["residue_mod_c"]  # -1 is not a square mod 6


def test_is_square_mod_brute_force_agreement():
    for m in range(1, 40):
        import sympy

        if any(e > 1 for e in sympy.factorint(m).values()):
            continue
        squares = {(x * x) % m for x in range(m)}
        for v in range(-10, 11):
            assert cy.is_square_mod(v, m) == (v % m in squares), (v, m)


def test_isotropic_witness_examples():
    assert cy.isotropic_witness(1, 1, -2) == (1, 1, 1)
    assert cy.isotropic_witness(1, 1, -6) is None
    sol = cy.isotropic_witness(1, -1, 1)
    assert sol is not None


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the box bound was checked")


def test_isotropic_witness_refuses_a_box_above_the_bound_before_allocating(monkeypatch):
    # at FORM_BOUND the box has about 10^18 points; the old search allocated
    # a sqrt|ac| x sqrt|ab| grid of 10^12 cells
    monkeypatch.setattr(cy, "np", _NoNumpy())
    # (7, 11, -999983) is a valid TernaryForm whose box has 3317 * 2646 * 9 points
    for coeffs in ((10**6, 999_999, -999_997), (1, 1, -(2**23 + 5)), (1, -1, 0), (7, 11, -999983)):
        with pytest.raises(InvalidArgument):
            cy.isotropic_witness(*coeffs)


def test_isotropic_witness_just_inside_the_bound():
    # (1, 1, -c): a box of (isqrt(c) + 1)^2 * 2 points, searched in full when unsolvable
    c = 7_999_999  # 3 mod 4 and square-free: X^2 + Y^2 = c Z^2 has no nonzero solution
    bx = math.isqrt(c)
    assert 2 * (bx + 1) ** 2 <= cy.WITNESS_BOX
    assert cy.isotropic_witness(1, 1, -c) is None
    assert cy.isotropic_witness(1, 1, -(c + 1)) == (400, 2800, 1)


def grid_witness(a, b, c):
    """The search isotropic_witness replaced: a full (y, z) grid per x."""
    bx, by, bz = math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b))
    grid = b * np.arange(by + 1)[:, None] ** 2 + c * np.arange(bz + 1)[None, :] ** 2
    for x in range(bx + 1):
        for y, z in np.argwhere(grid == -a * x * x):
            if x or y or z:
                return (x, int(y), int(z))
    return None


def test_isotropic_witness_matches_the_grid_search():
    for a, b, c in itertools.product([v for v in range(-8, 9) if v], repeat=3):
        assert cy.isotropic_witness(a, b, c) == grid_witness(a, b, c), (a, b, c)


def test_legendre_cross_oracle_small_sweep():
    import sympy

    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        prod = a * b * c
        if prod == 0 or any(e > 1 for e in sympy.factorint(abs(prod)).values()):
            continue
        witness = cy.isotropic_witness(a, b, c)
        solvable = cy.legendre_solvable((a, b, c))
        assert solvable == (witness is not None), (a, b, c, witness)


def test_diagonalize_identity_and_zero():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    d = cy.diagonalize_ternary(ident)
    assert d.diagonal == (1, 1, 1)
    assert d.transform == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    z = cy.diagonalize_ternary([[0] * 3] * 3)
    assert z.diagonal == (0, 0, 0)


def test_diagonalize_certified_form():
    d = cy.diagonalize_ternary(cy.PARAMETRIZED_FORM)
    assert d.diagonal == (1, 1, Fraction(-3, 2))
    assert d.squarefree_form == (1, 1, -6)
    assert cy._congruence_holds(cy.PARAMETRIZED_FORM, d)


def test_diagonalize_random_symmetric_matrices():
    rng = random.Random(3)
    for _ in range(40):
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        q = [
            [vals[0], vals[1], vals[2]],
            [vals[1], vals[3], vals[4]],
            [vals[2], vals[4], vals[5]],
        ]
        d = cy.diagonalize_ternary(q)
        assert cy._congruence_holds(q, d)
    with pytest.raises(ValueError):
        cy.diagonalize_ternary([[0, 1, 0], [2, 0, 0], [0, 0, 1]])


def test_squarefree_rescale():
    assert cy.squarefree_rescale(Fraction(-3, 2)) == -6
    assert cy.squarefree_rescale(Fraction(4, 9)) == 1
    assert cy.squarefree_rescale(Fraction(8, 3)) == 6
    assert cy.squarefree_rescale(Fraction(0)) == 0


def test_anisotropy_transfer_between_form_and_rescale():
    # the rescaled diagonal and the original have the same (an)isotropy
    rng = random.Random(29)
    import sympy

    for _ in range(30):
        diag = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) for _ in range(3)]
        prod = diag[0] * diag[1] * diag[2]
        if any(e > 1 for e in sympy.factorint(abs(prod)).values()):
            continue
        q = [[diag[0], 0, 0], [0, diag[1], 0], [0, 0, diag[2]]]
        d = cy.diagonalize_ternary(q)
        assert cy.legendre_solvable(tuple(d.squarefree_form)) == cy.legendre_solvable(tuple(diag))


def test_subspace_element_coordinates():
    b = cy.subspace_element(1, 0, 0)
    assert b == cy.ETA + cy.ETA * cy.ETA
    b = cy.subspace_element(0, 1, 0)
    assert b.coords == (-1, 0, 0, 1)


def test_verify_section6_small_grid():
    report = cy.verify_section6(grid=3, samples=60, seed=1)
    assert report.passed
    assert report.anisotropic
    assert report.grid["checked"] == 7**3 - 1
    assert report.grid["rank4"] == report.grid["checked"]
    assert report.squarefree_form == (1, 1, -6)


def test_verify_section6_fails_on_an_isotropic_form(monkeypatch):
    rescale_to(monkeypatch, (1, 1, -2))  # X^2 + Y^2 - 2Z^2 vanishes at (1, 1, 1)
    report = cy.verify_section6(grid=2, samples=10, seed=0)
    assert report.squarefree_form == (1, 1, -2)
    assert not report.anisotropic
    assert report.failed == ["anisotropic"]


def test_anisotropy_is_cross_checked_by_the_witness_search(monkeypatch):
    real = cy.isotropic_witness
    for form in (None, (1, 1, -2)):
        with monkeypatch.context() as m:
            # the certified form and an isotropic one keep their verdicts ...
            if form is not None:
                rescale_to(m, form)
            assert cy.verify_section6(grid=1, samples=5).anisotropic == (form is None)
            # ... and a search that contradicts the residue conditions is caught on both
            m.setattr(cy, "isotropic_witness", lambda *abc: (1, 0, 0) if real(*abc) is None else None)
            with pytest.raises(InternalCheckError, match="witness search disagree"):
                cy.verify_section6(grid=1, samples=5)


def test_verify_section6_searches_for_a_witness_once_on_the_derived_form(monkeypatch):
    calls = []
    real = cy.isotropic_witness

    def spy(*abc):
        calls.append(abc)
        return real(*abc)

    monkeypatch.setattr(cy, "isotropic_witness", spy)
    assert cy.verify_section6(grid=1, samples=5).passed
    assert calls == [(1, 1, -6)]  # a box of 3 * 3 * 2 points
    # the search is never skipped: a form whose box is beyond the bound is an error
    rescale_to(monkeypatch, (7, 11, -999983))
    with pytest.raises(InvalidArgument, match="more than"):
        cy.verify_section6(grid=1, samples=5)


def test_section6_report_is_deterministic():
    a = cy.verify_section6(grid=2, samples=30, seed=5).to_json_dict()
    b = cy.verify_section6(grid=2, samples=30, seed=5).to_json_dict()
    assert a == b


def test_verify_section6_rejects_empty_grid_and_samples():
    # either would pass having checked nothing
    with pytest.raises(InvalidArgument, match="grid must be >= 1"):
        cy.verify_section6(grid=0, samples=10)
    with pytest.raises(InvalidArgument, match="samples must be >= 1"):
        cy.verify_section6(grid=1, samples=0)


def test_verify_section6_rejects_oversized_grid_and_samples():
    # the grid ceiling is the largest whose nonzero points fit the exhaustive ceiling
    g = cy.GRID_CEILING
    assert (2 * g + 1) ** 3 - 1 <= EXHAUSTIVE_CEILING < (2 * g + 3) ** 3 - 1
    with pytest.raises(InvalidArgument, match=f"grid must be <= {g}, got {g + 1}"):
        cy.verify_section6(grid=g + 1, samples=10)
    with pytest.raises(InvalidArgument, match="samples must be <= 1048576"):
        cy.verify_section6(grid=1, samples=EXHAUSTIVE_CEILING + 1)


# --- integer kernels against the Fraction path -------------------------------

SMALL_NUMERATORS = st.integers(-99, 99)
# products overflow int64 silently from ~2**30 on; rows themselves from 2**63 on
LARGE_NUMERATORS = st.one_of(st.integers(-(2**40), 2**40), st.integers(-(2**70), 2**70))
DENOMINATORS = st.integers(1, 20)
# shrinking 2**70-sized counterexamples makes a failing run take minutes
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def rational_rows(width, numerators):
    row = st.lists(st.tuples(numerators, DENOMINATORS), min_size=width, max_size=width)
    return st.lists(row, min_size=1, max_size=12)


def split(rows):
    pairs = np.array(rows, dtype=object)
    return pairs[..., 0], pairs[..., 1]


def fractions_of(row):
    return tuple(Fraction(int(n), int(d)) for n, d in row)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(rational_rows(3, st.one_of(SMALL_NUMERATORS, LARGE_NUMERATORS)))
def test_subspace_pfaffian_rank_matches_gram_rational(rows):
    nums, dens = split(rows)
    scaled, scale = cy._clear_denominators(nums, dens)
    grams = cy.combined_gram_stack(scaled, cy.subspace_basis_grams())
    pfaffians = cy.pfaffian_stack(grams)
    if max(abs(int(n)) for n in nums.flat) > 2**40:
        assert grams.dtype == object
    for row, d, gram, pf in zip(rows, scale, grams, pfaffians):
        entries, rank = cy.gram_rational(cy.subspace_element(*fractions_of(row)))
        assert (np.array(entries, dtype=object) * d == gram).all()
        assert (pf != 0) == (rank == 4)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(rational_rows(4, st.one_of(st.integers(-3, 3), SMALL_NUMERATORS, LARGE_NUMERATORS)))
@example([[(1, 1), (0, 1), (0, 1), (0, 1)], [(1, 1)] * 4, [(0, 1)] * 4])  # 1 and -eta^4: rank 2; 0
def test_pfaffian_rank_matches_gram_rational_on_all_of_q_eta(rows):
    # the whole field has degenerate elements (rank 2 and 0), unlike the subspace
    nums, dens = split(rows)
    scaled, scale = cy._clear_denominators(nums, dens)
    basis = np.array([cy.gram_rational(e)[0] for e in cy._BASIS], dtype=object).astype(np.int64)
    pfaffians = cy.pfaffian_stack(cy.combined_gram_stack(scaled, basis))
    for row, d, pf in zip(rows, scale, pfaffians):
        entries, rank = cy.gram_rational(cy.CycloElement(fractions_of(row)))
        assert pf == cy._pfaffian4(entries) * d * d
        assert (pf != 0) == (rank == 4)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(rational_rows(4, st.one_of(SMALL_NUMERATORS, LARGE_NUMERATORS)))
def test_norm_stack_matches_norm_to_quadratic_subfield(rows):
    nums, dens = split(rows)
    scaled, scale = cy._clear_denominators(nums, dens)
    norms = cy.norm_to_quadratic_subfield_stack(scaled)
    coeffs = cy._quadratic_rows(scaled, cy._DEGENERACY_UPPER)
    for row, d, norm, coeff in zip(rows, scale, norms, coeffs):
        tup = fractions_of(row)
        reference = cy.norm_to_quadratic_subfield(cy.CycloElement(tup))
        assert [c * d * d for c in reference.coords] == list(norm)
        assert cy.degeneracy_coefficient(*tup) * d * d == coeff


def test_cleared_entries_stay_below_the_kernel_bound():
    # n/d times the lcm D of its row's four denominators is at most |n| * D
    lo, hi = cy.DENOMINATORS
    largest_lcm = max(math.lcm(*row) for row in itertools.combinations_with_replacement(range(lo, hi + 1), 4))
    worst = max(max(map(abs, cy.NUMERATORS)) * largest_lcm, cy.GRID_CEILING)
    assert (largest_lcm, worst) == (83980, 8314020)
    assert worst < cy.ENTRY_BOUND
    # the Pfaffian sums three products of two Gram entries
    column_sum = int(np.abs(cy.subspace_basis_grams()).sum(axis=0).max())
    assert column_sum == 15
    assert 3 * (column_sum * cy.ENTRY_BOUND) ** 2 < 2**63


def test_int64_clearing_matches_the_python_integer_loop():
    # the drawn ranges, with the largest lcm of four denominators in every sign pattern
    draws = np.random.Generator(np.random.PCG64(11)).integers(
        (cy.NUMERATORS[0], cy.DENOMINATORS[0]), (cy.NUMERATORS[1] + 1, cy.DENOMINATORS[1] + 1), size=(300, 4, 2)
    )
    edge = [[(sign * cy.NUMERATORS[1], d) for sign, d in zip(signs, (13, 17, 19, 20))]
            for signs in itertools.product((-1, 1), repeat=4)]
    pairs = np.concatenate([draws, np.array(edge, dtype=np.int64)])
    rows, scale = cy._clear_denominators(pairs[..., 0], pairs[..., 1])
    want_scale = [math.lcm(*row) for row in pairs[..., 1].tolist()]
    want_rows = [[s * n // d for n, d in row] for s, row in zip(want_scale, pairs.tolist())]
    assert rows.dtype == scale.dtype == np.int64
    assert (rows.tolist(), scale.tolist()) == (want_rows, want_scale)


# the Section-6 kernels, each on rows of the width it takes
SECTION6_KERNELS = {
    "combined_gram_stack": (3, lambda rows: cy.combined_gram_stack(rows, cy.subspace_basis_grams())),
    "pfaffian_stack": (3, lambda rows: cy.pfaffian_stack(cy.combined_gram_stack(rows, cy.subspace_basis_grams()))),
    "subspace_coordinates": (3, lambda rows: rows @ cy._SUBSPACE_COORDS),
    "degeneracy_on_the_subspace": (
        3, lambda rows: cy._quadratic_rows(rows @ cy._SUBSPACE_COORDS, cy._DEGENERACY_UPPER)
    ),
    "parametrized_form": (3, lambda rows: cy._quadratic_rows(rows, cy._PARAMETRIZED_UPPER)),
    "norm_to_quadratic_subfield_stack": (4, cy.norm_to_quadratic_subfield_stack),
    "degeneracy_coefficient": (4, lambda rows: cy._quadratic_rows(rows, cy._DEGENERACY_UPPER)),
}


@pytest.mark.parametrize("name", SECTION6_KERNELS)
def test_int64_kernels_match_object_rows_at_the_headroom_edge(name):
    width, kernel = SECTION6_KERNELS[name]
    edge = cy.ENTRY_BOUND - 1
    signs = np.array(list(itertools.product((-1, 1), repeat=width)), dtype=np.int64)
    inside = np.random.Generator(np.random.PCG64(7)).integers(-edge, edge + 1, size=(200, width))
    rows = np.concatenate([edge * signs, inside])
    got = kernel(rows)
    want = kernel(rows.astype(object))
    assert got.dtype == np.int64 and want.dtype == object
    assert got.tolist() == want.tolist()


# numerators that no int64 holds, and ones whose products overflow it
HUGE_ROWS = [
    [(2**70 + 1, 3), (-(2**69), 7), (5, 1), (2**40 - 1, 20)],
    [(-(2**70), 19), (2**41, 17), (-(2**40), 13), (1, 2)],
    [(3, 4), (0, 1), (2**66, 9), (-7, 11)],
]


def test_kernels_stay_exact_on_object_rows():
    nums, dens = split(HUGE_ROWS)
    scaled, scale = cy._clear_denominators(nums, dens)
    assert scaled.dtype == object
    fractions = [fractions_of(row) for row in HUGE_ROWS]
    assert scaled.tolist() == [[f * d for f in row] for row, d in zip(fractions, scale)]
    basis = np.array([cy.gram_rational(e)[0] for e in cy._BASIS], dtype=object).astype(np.int64)
    pfaffians = cy.pfaffian_stack(cy.combined_gram_stack(scaled, basis))
    norms = cy.norm_to_quadratic_subfield_stack(scaled)
    coeffs = cy._quadratic_rows(scaled, cy._DEGENERACY_UPPER)
    for row, d, pf, norm, coeff in zip(fractions, scale, pfaffians, norms, coeffs):
        b = cy.CycloElement(row)
        assert pf == cy._pfaffian4(cy.gram_rational(b)[0]) * d * d
        assert list(norm) == [c * d * d for c in cy.norm_to_quadratic_subfield(b).coords]
        assert coeff == cy.degeneracy_coefficient(*row) * d * d
    assert cy._coefficient_block(scaled, fractions[0], scale[0]) == (0, True)
    sub_nums, sub_dens = nums[:, :3], dens[:, :3]
    sub_rows, sub_scale = cy._clear_denominators(sub_nums, sub_dens)
    spot = fractions_of(HUGE_ROWS[0][:3])
    assert cy._subspace_block(sub_rows, cy.subspace_basis_grams(), spot, sub_scale[0]) == (3, True)


def test_the_fraction_path_gets_python_integers(monkeypatch):
    calls = []
    for name in ("_coefficient_block", "_subspace_block"):
        original = getattr(cy, name)

        def spy(rows, *args, original=original):
            calls.append((rows.dtype, args[-2], args[-1]))
            return original(rows, *args)

        monkeypatch.setattr(cy, name, spy)
    cy.verify_section6(grid=2, samples=40, seed=3)
    assert len(calls) == 3  # the coefficient draws, the grid and the subspace draws
    for dtype, spot, scale in calls:
        assert dtype == np.int64 and type(scale) is int
        for c in spot:
            assert type(c) is int or (type(c) is Fraction and type(c.numerator) is type(c.denominator) is int)


def test_grid_rows_cover_the_nonzero_grid_in_counting_order():
    rows = np.concatenate(list(cy._grid_rows(2, 7)))
    expected = [c for c in itertools.product(range(-2, 3), repeat=3) if any(c)]
    assert [tuple(r) for r in rows.tolist()] == expected



def scalar_draws(rng, low, high, count, width):
    """A (count, width) block of draws from [low, high), one scalar call each."""
    draws = [int(rng.integers(low, high)) for _ in range(count * width)]
    return np.array(draws, dtype=np.int64).reshape(count, width)


def scalar_random_blocks(rng, samples, size, width, nonzero):
    """_random_blocks by scalar draws: per block every numerator, then every denominator."""
    for start in range(0, samples, size):
        count = min(size, samples - start)
        nums = scalar_draws(rng, -99, 100, count, width)
        dens = scalar_draws(rng, 1, 21, count, width)
        if nonzero:
            keep = nums.any(axis=1)
            nums, dens = nums[keep], dens[keep]
        if len(nums):
            rows, scale = cy._clear_denominators(nums, dens)
            yield rows, tuple(Fraction(int(n), int(d)) for n, d in zip(nums[0], dens[0])), scale[0]


@pytest.mark.parametrize("seed", [0, 1, 5, 9])
def test_random_blocks_match_the_scalar_draw_loop(seed):
    # one stream feeds every call in turn, as in verify_section6; each
    # call spans several blocks, the last one short.  The scalar loop
    # draws from numpy's generator, the reference of skewrank.stream
    new, old = Stream(seed), np.random.Generator(np.random.PCG64(seed))
    for samples, size, width, nonzero in ((23, 7, 4, False), (23, 7, 3, True), (300, 128, 3, True)):
        got = list(cy._random_blocks(new, samples, size, width, nonzero))
        want = list(scalar_random_blocks(old, samples, size, width, nonzero))
        assert len(got) == len(want) == -(-samples // size)
        for (rows, spot, scale), (ref_rows, ref_spot, ref_scale) in zip(got, want):
            assert np.array_equal(rows, ref_rows) and (spot, scale) == (ref_spot, ref_scale)
    assert new.integers(0, 2**32, size=1)[0] == old.integers(2**32)  # both stop at the same word

def test_section6_report_is_independent_of_block_size(monkeypatch):
    grams = block_lengths(monkeypatch, cy, "combined_gram_stack", 0)
    norms = block_lengths(monkeypatch, cy, "norm_to_quadratic_subfield_stack", 0)
    default = cy.verify_section6(grid=2, samples=30, seed=5).to_json_dict()
    assert (max(grams), max(norms)) == (5**3 - 1, 30)  # the grid, then the draws, in one block each
    grams.clear()
    norms.clear()
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)  # one row per block
    assert cy.verify_section6(grid=2, samples=30, seed=5).to_json_dict() == default
    assert set(grams) == set(norms) == {1}


@pytest.mark.parametrize("kernel,tampered", [
    ("pfaffian_stack", lambda grams: np.zeros(len(grams), dtype=np.int64)),
    ("combined_gram_stack", lambda rows, basis: 2 * np.tensordot(rows, basis, axes=1)),
    ("norm_to_quadratic_subfield_stack", lambda rows: 0 * rows),
])
def test_spot_check_catches_a_tampered_kernel(monkeypatch, kernel, tampered):
    monkeypatch.setattr(cy, kernel, tampered)
    with pytest.raises(InternalCheckError):
        cy.verify_section6(grid=1, samples=5, seed=0)
