"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
checks execute.  Every check is exact; there are no tolerances anywhere.
"""

import itertools
from fractions import Fraction

import sympy

from skewrank import cyclotomic as cy
from skewrank import decomposition as dec
from skewrank import forms, galois
from skewrank.linalg import rank_mod
from conftest import _ctx


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_direct_sum_census():
    ok = True
    details = []
    for p, n in [(3, 4), (3, 6), (7, 4), (5, 6)]:
        rep = dec.verify_direct_sum(_ctx(p, n))
        dims = [c.dimension for c in rep.components]
        expected = [n] * ((n - 1) // 2) + [n // 2]
        good = (
            rep.direct_sum_ok
            and dims == expected
            and sum(dims) == n * (n - 1) // 2
            and rep.passed
        )
        ok = ok and good
        details.append(f"({p},{n}) dims={dims}")
    report(1, ok, "direct sum: " + "; ".join(details))


def test_criterion_02_odd_degree_constant_ranks():
    ok = True
    details = []
    for p, n in [(5, 5), (3, 5)]:
        survey = dec.oracle_survey(_ctx(p, n))
        good = survey.mode == "exhaustive" and survey.checked == p**n - 1
        for i in range(1, n):
            o = galois.order_of(_ctx(p, n), i)
            good = good and survey.histograms[i] == {n - n // o: p**n - 1}
        ok = ok and good
        details.append(f"({p},{n}) checked={survey.checked}")
    report(2, ok, "odd-degree constant rank n - n/ord: " + "; ".join(details))


def test_criterion_03_rank_dichotomy_exhaustive():
    ok = True
    details = []
    for p, n in [(3, 4), (3, 6)]:
        survey = dec.oracle_survey(_ctx(p, n))
        good = survey.mode == "exhaustive"
        for i in range(1, n):
            o = galois.order_of(_ctx(p, n), i)
            if o % 2:
                continue
            support = set(survey.histograms[i])
            allowed = {n, n - 2 * n // o}
            good = good and support == allowed  # subset and both attained
        ok = ok and good
        details.append(f"({p},{n})")
    report(3, ok, "even-order rank dichotomy attained exhaustively: " + "; ".join(details))


def test_criterion_04_norm_predicate_equivalence():
    ok = True
    details = []
    for p, n in [(3, 4), (3, 6), (7, 4)]:
        survey = dec.oracle_survey(_ctx(p, n))
        good = survey.predicate_disagreements == 0 and survey.predicate_checked > 0
        ok = ok and good
        details.append(f"({p},{n}) checked={survey.predicate_checked}")
    report(4, ok, "norm predicate == (rank < n): " + "; ".join(details))


def test_criterion_05_theorem_A_instances():
    ok = True
    details = []
    for p, n in [(3, 6), (7, 6), (3, 10)]:
        rep = dec.verify_theorem_A(_ctx(p, n))
        by_label = {c.label: c for c in rep.components}
        k = n // 2
        good = (
            rep.passed
            and rep.direct_sum_ok
            and by_label["U"].rank_spectrum == {n: p**k - 1}
            and by_label["V"].rank_spectrum == {n - 2: p**k - 1}
            and by_label["U"].mode == "exhaustive"
        )
        ok = ok and good
        details.append(f"({p},{n}) U:{n} V:{n - 2} on {p**k - 1} each")
    report(5, ok, "U = jV non-degenerate, V rank n-2: " + "; ".join(details))


def test_criterion_06_theorem_C_branch_one():
    ok = True
    details = []
    for p, n in [(3, 4), (7, 12)]:
        rep = dec.verify_theorem_C(_ctx(p, n))
        by_label = {c.label: c for c in rep.components}
        good = rep.theorem == "TC1" and rep.passed and rep.direct_sum_ok
        alpha, k = galois.two_adic_shape(n)
        for idx in range(1, alpha):
            comp = by_label[f"E{idx}"]
            good = good and comp.dimension == n >> idx and set(comp.rank_spectrum) == {n}
        for lab in ("V1", "V2"):
            comp = by_label[lab]
            good = good and comp.dimension == k and set(comp.rank_spectrum) == {n - 2}
        ok = ok and good
        details.append(f"({p},{n})={rep.theorem}")
    report(6, ok, "eigenspace decomposition, branch 1: " + "; ".join(details))


def test_criterion_07_theorem_C_branch_two_at_3_16():
    rep = dec.verify_theorem_C(_ctx(3, 16))
    by_label = {c.label: c for c in rep.components}
    expectations = {
        "E1": (8, 16, 6560),
        "E2": (4, 16, 80),
        "E3": (2, 14, 8),
        "V1": (1, 14, 2),
        "V2": (1, 14, 2),
    }
    ok = rep.theorem == "TC2" and rep.passed and rep.direct_sum_ok
    for lab, (dim, rk, count) in expectations.items():
        comp = by_label[lab]
        ok = ok and comp.dimension == dim and comp.rank_spectrum == {rk: count}
    # coverage is at least the stated sampling requirement
    ok = ok and by_label["E1"].checked >= min(10_000, 3**8 - 1)
    report(7, ok, "TC2 at (3,16): E1/E2 rank 16, E3/V rank 14, "
                  f"E1 coverage {by_label['E1'].checked}")


def test_criterion_08_remark_C_at_11_16():
    rep = dec.remark_C_check(_ctx(11, 16), 3)
    degenerate = next(c for c in rep.components if c.expected_rank == 14)
    nondegenerate = next(c for c in rep.components if c.expected_rank == 16)
    ok = (
        rep.passed
        and rep.direct_sum_ok
        and degenerate.checked == 40
        and degenerate.rank_spectrum == {14: 40}
        and nondegenerate.checked == 80
        and nondegenerate.rank_spectrum == {16: 80}
    )
    report(8, ok, "(11,16,i=3): 40 of 120 odd slots degenerate, exactly the multiples of 3")


def test_criterion_09_witness_identity_on_e2_at_3_8():
    c = _ctx(3, 8)
    e2 = galois.eigenspace(c, 2, -1)
    checked = 0
    ok = len(e2) == 2
    sign = c.scalar(-1 if (8 // 4) % 2 else 1)
    for coeffs in itertools.product(range(3), repeat=2):
        if not any(coeffs):
            continue
        b = c.element(e2[0]) * c.scalar(coeffs[0]) + c.element(e2[1]) * c.scalar(coeffs[1])
        wit = forms.degeneracy_witness(c, b, 2)
        # independent left side: norm as an explicit product of conjugates
        lhs = c.one()
        for j in range(4):
            lhs = lhs * c.frobenius_power(b, 2 * j)
        ok = ok and lhs == sign * wit.w ** 4
        if wit.is_degenerate:
            ok = ok and c.frobenius_power(wit.eta, 1) * wit.eta == c.scalar(-1)
        ok = ok and wit.is_degenerate == (rank_mod(forms.gram(c, b, 1), 3) < 8)
        checked += 1
    ok = ok and checked == 8
    report(9, ok, f"witness identity on all {checked} nonzero elements of E2 at (3,8)")


def test_criterion_10_section6_certificate_chain():
    rep = cy.verify_section6(grid=10, samples=1000, seed=0)
    conds = rep.legendre
    ok = (
        rep.passed
        and rep.coefficient_identity["checked"] == 1000
        and rep.coefficient_identity["failures"] == 0
        and rep.sign_convention_ok
        and rep.parametrization_ok
        and rep.congruence_ok
        and rep.diagonal == (1, 1, Fraction(-3, 2))
        and rep.squarefree_form == (1, 1, -6)
        and conds["residue_mod_c"] is False  # -1 not a square mod 6
        and rep.anisotropic
        and rep.grid["checked"] == 9260
        and rep.grid["rank4"] == 9260
    )
    report(10, ok, "coefficient identity x1000, PtQP = D, (1,1,-6) anisotropic, "
                   f"grid {rep.grid['rank4']}/{rep.grid['checked']} rank 4")


def test_criterion_11_legendre_cross_oracle_sweep():
    false_with_witness = 0
    true_without_witness_small = 0
    true_without_witness_large = 0
    checked = 0
    for a, b, c in itertools.product(
        [x for x in range(-12, 13) if x != 0], repeat=3
    ):
        prod = abs(a * b * c)
        if any(e > 1 for e in sympy.factorint(prod).values()):
            continue
        checked += 1
        solvable = cy.legendre_solvable((a, b, c))
        witness = cy.isotropic_witness(a, b, c)
        if not solvable and witness is not None:
            false_with_witness += 1
        if solvable and witness is None:
            if prod <= 200:
                true_without_witness_small += 1
            else:
                true_without_witness_large += 1
    ok = false_with_witness == 0 and true_without_witness_small == 0
    if true_without_witness_large:
        print(f"[criterion 11] note: {true_without_witness_large} solvable forms above "
              "|abc| = 200 lacked a witness inside the height bound (reported, not fatal)")
    report(11, ok, f"cross-oracle on {checked} square-free triples: "
                   f"{false_with_witness} contradictions, "
                   f"{true_without_witness_small} missing witnesses at |abc| <= 200")
