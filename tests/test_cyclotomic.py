"""Exact rational arithmetic in the fifth cyclotomic field and the
ternary-form certificates."""

import cmath
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewrank import cyclotomic as cy
from skewrank.errors import InternalCheckError, InvalidArgument, NotSquareFree

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
        norm = cy.norm_to_quadratic_subfield(b)
        first, second = cy.quadratic_subfield_coordinates(norm)
        assert cy.degeneracy_coefficient(*tup) == second
        assert cy.isotropy_form(*tup) == -cy.degeneracy_coefficient(*tup)


def test_norm_lands_in_the_quadratic_subfield():
    rng = random.Random(31)
    for _ in range(50):
        b = cy.CycloElement.of(*(rng.randint(-30, 30) for _ in range(4)))
        norm = cy.norm_to_quadratic_subfield(b)
        assert cy.cyclo_sigma(norm, 2) == norm
        cy.quadratic_subfield_coordinates(norm)  # must not raise


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
    assert report.grid_checked == 7**3 - 1
    assert report.grid_rank4 == report.grid_checked
    assert report.squarefree_form == (1, 1, -6)


def test_verify_section6_tampered_form_fails():
    report = cy.verify_section6(grid=2, samples=10, seed=0, form_override=(1, 1, -2))
    assert not report.anisotropic
    assert not report.passed


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


# --- integer kernels against the Fraction path -------------------------------

SMALL_NUMERATORS = st.integers(-99, 99)
# products overflow int64 silently from ~2**30 on; rows themselves from 2**63 on
LARGE_NUMERATORS = st.one_of(st.integers(-(2**40), 2**40), st.integers(-(2**70), 2**70))
DENOMINATORS = st.integers(1, 20)


def rational_rows(width, numerators):
    row = st.lists(st.tuples(numerators, DENOMINATORS), min_size=width, max_size=width)
    return st.lists(row, min_size=1, max_size=12)


def split(rows):
    pairs = np.array(rows, dtype=object)
    return pairs[..., 0], pairs[..., 1]


def fractions_of(row):
    return tuple(Fraction(int(n), int(d)) for n, d in row)


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=40, deadline=None)
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


def test_grid_rows_cover_the_nonzero_grid_in_counting_order():
    rows = np.concatenate(list(cy._grid_rows(2, 7)))
    expected = [c for c in itertools.product(range(-2, 3), repeat=3) if any(c)]
    assert [tuple(r) for r in rows.tolist()] == expected


def test_section6_report_is_independent_of_block_size(monkeypatch):
    default = cy.verify_section6(grid=2, samples=30, seed=5).to_json_dict()
    monkeypatch.setattr(cy, "STACK_BYTES", 1)  # one row per block
    assert cy.verify_section6(grid=2, samples=30, seed=5).to_json_dict() == default


@pytest.mark.parametrize("kernel,tampered", [
    ("pfaffian_stack", lambda grams: np.zeros(len(grams), dtype=np.int64)),
    ("combined_gram_stack", lambda rows, basis: 2 * np.tensordot(rows, basis, axes=1)),
    ("norm_to_quadratic_subfield_stack", lambda rows: 0 * rows),
])
def test_spot_check_catches_a_tampered_kernel(monkeypatch, kernel, tampered):
    monkeypatch.setattr(cy, kernel, tampered)
    with pytest.raises(InternalCheckError):
        cy.verify_section6(grid=1, samples=5, seed=0)
