"""Component assembly and the theorem verifiers at small instances."""

import subprocess
import sys

import numpy as np
import pytest

from skewrank import decomposition as dec
from skewrank import forms, galois
from skewrank.errors import HypothesisViolation, WrongShape

from conftest import BIG_P, child_env, elements, first_generator, power_basis


def test_build_component_dimensions(ctx):
    c = ctx(3, 4)
    assert len(dec.build_component(c, 1)) == 4
    assert len(dec.build_component(c, 2)) == 2
    assert galois.order_of(c, 2) == 2  # the involution component
    c6 = ctx(3, 6)
    assert galois.order_of(c6, 2) == 3  # odd order
    assert galois.order_of(c6, 1) == 6  # even order
    with pytest.raises(ValueError):
        dec.build_component(c, 0)


def test_build_component_grams_are_independent(ctx):
    c = ctx(3, 6)
    rows = dec.build_component(c, 1)
    assert rows.shape == (6, 15)
    assert dec.rank_mod(rows, 3) == len(rows)


@pytest.mark.parametrize("p,n", [(3, 12), (BIG_P, 8)])
def test_certificate_rank_is_the_scalar_rank(ctx, p, n):
    mat = np.vstack([dec.build_component(ctx(p, n), i) for i in dec.component_representatives(n)])
    assert mat.shape == (n * (n - 1) // 2,) * 2
    duplicated = mat.copy()
    duplicated[-1] = duplicated[0]
    for m in (mat, duplicated, np.vstack([mat, mat[:1]])):
        assert dec.rank_mod_batch(m[None], p)[0] == dec.rank_mod(m, p)
    assert dec.rank_mod(mat, p) == len(mat) and dec._is_basis(mat, p)
    assert dec.rank_mod(duplicated, p) == len(mat) - 1 and not dec._is_basis(duplicated, p)
    assert not dec._is_basis(np.vstack([mat, mat[:1]]), p)  # not square


def greedy_component(c, i):
    """The per-row selection build_component replaced: keep each
    power-basis Gram whose upper triangle raises the rank of those kept."""
    upper = np.triu_indices(c.n, k=1)
    kept = []
    for b in power_basis(c):
        row = forms.gram(c, b, i)[upper]
        if dec.rank_mod(np.array(kept + [row]), c.p) == len(kept) + 1:
            kept.append(row)
    return np.array(kept)


@pytest.mark.parametrize("p,n", [(3, 4), (3, 6), (5, 6), (3, 8), (7, 4)])
def test_build_component_matches_the_greedy_selection(ctx, p, n):
    c = ctx(p, n)
    for i in range(1, n):
        rows = dec.build_component(c, i)
        assert len(rows) == (n // 2 if galois.order_of(c, i) == 2 else n)
        assert np.array_equal(rows, greedy_component(c, i))


def test_component_representatives():
    assert dec.component_representatives(4) == [1, 2]
    assert dec.component_representatives(5) == [1, 2]
    assert dec.component_representatives(6) == [1, 2, 3]
    assert dec.component_representatives(2) == [1]


@pytest.mark.parametrize("p,n,dims", [(3, 4, [4, 2]), (3, 6, [6, 6, 3]), (3, 5, [5, 5])])
def test_direct_sum_dimension_census(ctx, p, n, dims):
    report = dec.verify_direct_sum(ctx(p, n))
    assert report.direct_sum_ok
    assert [c.dimension for c in report.components] == dims
    assert sum(dims) == n * (n - 1) // 2
    assert report.passed
    assert report.theorem == ("T1" if n % 2 else "T2")


def test_direct_sum_spectra_at_3_4(ctx):
    report = dec.verify_direct_sum(ctx(3, 4))
    by_label = {c.label: c for c in report.components}
    assert by_label["A^1"].rank_spectrum == {2: 20, 4: 60}
    assert by_label["B^1"].rank_spectrum == {0: 8, 4: 72}


def test_find_nondegenerate_b(ctx):
    c = ctx(3, 4)
    b = dec.find_nondegenerate_b(c, 1)
    assert dec.rank_mod(forms.gram(c, b, 1), 3) == 4
    assert not b.in_prime_field()
    assert dec.find_nondegenerate_b(c, 1) == b  # idempotent
    with pytest.raises(WrongShape):
        dec.find_nondegenerate_b(ctx(3, 6), 2)  # odd order
    inv = dec.find_nondegenerate_b(c, 2)  # involution path
    assert dec.rank_mod(forms.gram(c, inv, 2), 3) == 4


@pytest.mark.parametrize("p,n", [(3, 4), (3, 6), (5, 4), (7, 6), (3, 8), (3, 10)])
def test_find_nondegenerate_b_is_the_first_full_rank_element(ctx, p, n):
    # the scan against a rank oracle, in counting order from index 1
    c = ctx(p, n)
    for i in range(1, n):
        if galois.order_of(c, i) % 2:
            continue
        first = next(b for b in elements(c) if dec.rank_mod(forms.gram(c, b, i), p) == n)
        assert first.index() >= p  # the nonzero scalars are degenerate
        assert dec.find_nondegenerate_b(c, i) == first


@pytest.mark.parametrize("p,n,i_index", [(11, 16, 3), (5, 16, 2), (19, 16, 3)])
def test_slice_generator_has_order_exactly_csize(ctx, p, n, i_index):
    import sympy

    c = ctx(p, n)
    csize = 2 * (p ** (n >> i_index) - 1)
    u = dec.slice_generator(c, csize)
    assert u ** csize == c.one()
    assert all(u ** (csize // r) != c.one() for r in sympy.factorint(csize))


def test_theorem_a_shapes_at_3_6(ctx):
    report = dec.verify_theorem_A(ctx(3, 6))
    assert report.passed and report.direct_sum_ok
    by_label = {c.label: c for c in report.components}
    assert by_label["U"].dimension == 3 and by_label["U"].rank_spectrum == {6: 26}
    assert by_label["V"].dimension == 3 and by_label["V"].rank_spectrum == {4: 26}


def test_theorem_a_v_equals_fixed_field(ctx):
    # cross-theorem consistency: V is exactly the fixed field of sigma^k
    for (p, n) in [(3, 6), (3, 10)]:
        c = ctx(p, n)
        u_space, v_space = dec.theorem_A_subspaces(c)
        fixed = galois.fixed_field_basis(c, n // 2)
        assert [b.coeffs for b in v_space.basis] == [b.coeffs for b in fixed.basis]
        j = dec.find_nondegenerate_b(c, 1)
        assert [b.coeffs for b in u_space.basis] == [(j * v).coeffs for v in fixed.basis]


def test_theorem_a_hypothesis_gates(ctx):
    with pytest.raises(WrongShape):
        dec.verify_theorem_A(ctx(3, 4))
    with pytest.raises(WrongShape):
        dec.verify_theorem_A(ctx(3, 5))
    with pytest.raises(HypothesisViolation):
        dec.verify_theorem_A(ctx(3, 2))


def test_theorem_c_at_3_4(ctx):
    report = dec.verify_theorem_C(ctx(3, 4))
    assert report.theorem == "TC1"
    assert report.passed and report.direct_sum_ok
    by_label = {c.label: c for c in report.components}
    assert by_label["E1"].rank_spectrum == {4: 8}
    assert by_label["V1"].rank_spectrum == {2: 2}
    assert by_label["V2"].rank_spectrum == {2: 2}


def test_theorem_c_hypothesis_gates(ctx):
    with pytest.raises(HypothesisViolation, match="square"):
        dec.verify_theorem_C(ctx(5, 4))
    with pytest.raises(WrongShape):
        dec.verify_theorem_C(ctx(3, 6))  # alpha = 1
    with pytest.raises(HypothesisViolation, match="slice"):
        dec.verify_theorem_C(ctx(11, 16))  # l = 3 with alpha > a+1


def test_remark_c_hypothesis_gates(ctx):
    with pytest.raises(HypothesisViolation):
        dec.remark_C_check(ctx(3, 16), 3)  # l = 1
    with pytest.raises(HypothesisViolation):
        dec.remark_C_check(ctx(11, 4), 1)  # alpha too small
    with pytest.raises(HypothesisViolation):
        dec.remark_C_check(ctx(11, 16), 1)  # i below the window


def scalar_remark_c(c, i_index):
    """The element-by-element walk remark_C_check replaced: the rank
    spectra of odd exponents s keyed by l | s, and the membership and
    pattern flags."""
    p, n = c.p, c.n
    _, l = galois.two_adic_shape(p + 1)
    t = n >> i_index
    csize = 2 * (p**t - 1)
    u = first_generator(c) ** ((p**n - 1) // csize)
    spectra = {True: {}, False: {}}
    membership_ok = pattern_ok = True
    x = c.one()
    for s in range(csize):
        if s:
            x = x * u
        if (c.frobenius_power(x, t) == -x) != (s % 2 == 1):
            membership_ok = False
        if s % 2 == 0:
            continue
        expect = s % l == 0
        degenerate = forms.is_degenerate_by_norm(c, x, 1)
        r = dec.rank_mod(forms.gram(c, x, 1), p)
        if degenerate != expect or (r < n) != degenerate:
            pattern_ok = False
        spectra[expect][r] = spectra[expect].get(r, 0) + 1
    return spectra, membership_ok, pattern_ok


@pytest.mark.parametrize("p,n,i_index", [(11, 16, 3), (5, 16, 2), (19, 16, 3)])
def test_remark_c_matches_the_scalar_walk(ctx, p, n, i_index):
    report = dec.remark_C_check(ctx(p, n), i_index)
    spectra, membership_ok, pattern_ok = scalar_remark_c(ctx(p, n), i_index)
    assert membership_ok and pattern_ok
    assert report.passed and report.direct_sum_ok
    divisible, other = report.components
    assert divisible.rank_spectrum == spectra[True] == {n - 2: divisible.checked}
    assert other.rank_spectrum == spectra[False] == {n: other.checked}


def test_corollary_odd_order(ctx):
    # corollary: constant rank n - n/ord on the whole component of odd order
    c = ctx(3, 6)
    by_label = {comp.label: comp for comp in dec.verify_direct_sum(c).components}
    assert by_label["A^2"].passed
    assert by_label["A^2"].rank_spectrum == {4: 728}
    # sigma^4 = sigma^-2 has the same odd order 3
    a4 = dec.rank_spectrum_check(c, 4, np.eye(6, dtype=np.int64), "A^4", allowed={4})
    assert a4.passed and a4.rank_spectrum == {4: 728} and a4.expected_rank == 4
    assert galois.order_of(c, 3) == 2  # sigma^3 is the involution, not an odd-order component


def test_oracle_survey_at_3_4(ctx):
    report = dec.oracle_survey(ctx(3, 4))
    assert report.mode == "exhaustive"
    assert report.passed
    assert report.histograms[1] == {2: 20, 4: 60}
    assert report.histograms[2] == {0: 8, 4: 72}
    assert report.histograms[3] == {2: 20, 4: 60}
    # frozen regression constant, cross-checked against the b**20 = 1 census
    assert report.degenerate_counts[1] == 20
    assert report.predicate_disagreements == 0


def test_oracle_degenerate_set_is_the_small_power_torsion(ctx):
    # independent census: rank < n at i=1 exactly for b with b^((p-1)(p^2+1)) = 1
    c = ctx(3, 4)
    e = (3 - 1) * (3**2 + 1)
    one = c.one()
    torsion = sum(1 for b in elements(c) if b**e == one)
    assert torsion == 20


def test_sampled_mode_is_reproducible(ctx):
    c = ctx(3, 4)
    a = dec.rank_spectrum_check(c, 1, np.eye(4, dtype=np.int64), "L",
                                allowed={2, 4}, sample_cap=50)
    b = dec.rank_spectrum_check(c, 1, np.eye(4, dtype=np.int64), "L",
                                allowed={2, 4}, sample_cap=50)
    assert a.mode == "sampled" and a.rank_spectrum == b.rank_spectrum
    assert a.expected_rank is None


def test_spectrum_pass_rule(ctx):
    # support inside the allowed set; an exhaustive run must attain all of it
    c = ctx(3, 4)
    full = np.eye(4, dtype=np.int64)
    exact = dec.rank_spectrum_check(c, 1, full, "L", allowed={2, 4})
    assert exact.mode == "exhaustive" and exact.passed
    assert exact.rank_spectrum == {2: 20, 4: 60}
    assert not dec.rank_spectrum_check(c, 1, full, "L", allowed={0, 2, 4}).passed
    assert not dec.rank_spectrum_check(c, 1, full, "L", allowed={4}).passed
    assert dec._spectrum_ok({4: 5}, {2, 4}, "sampled")
    assert not dec._spectrum_ok({4: 5}, {2, 4}, "exhaustive")
    assert not dec._spectrum_ok({}, {4}, "exhaustive")
    assert not dec._spectrum_ok({}, {4}, "sampled")


@pytest.mark.parametrize("verify, p, n", [
    (dec.verify_direct_sum, 3, 6), (dec.verify_theorem_A, 3, 6), (dec.verify_theorem_C, 3, 8),
])
def test_a_zero_sample_cap_does_not_pass_vacuously(ctx, verify, p, n):
    report = verify(ctx(p, n), sample_cap=0)
    assert not report.passed and report.direct_sum_ok
    for comp in report.components:
        assert (comp.mode, comp.checked, comp.rank_spectrum, comp.passed) == ("sampled", 0, {}, False)


def test_a_zero_sample_cap_census_does_not_pass_vacuously(ctx, monkeypatch):
    monkeypatch.setattr(dec, "FULL_FIELD_CEILING", 100)
    report = dec.oracle_survey(ctx(5, 4), sample_cap=0)
    assert (report.mode, report.checked, report.passed) == ("sampled", 0, False)
    assert report.failed == ["support_ok"] and all(h == {} for h in report.histograms.values())


NEGATIVE_CAP = """
import resource
resource.setrlimit(resource.RLIMIT_DATA, (2**30, 2**30))
from skewrank.decomposition import verify_theorem_C
from skewrank.fields import ExtensionContext
try:
    verify_theorem_C(ExtensionContext(3, 8), sample_cap=-5)
except ValueError as error:
    assert str(error) == "negative dimensions are not allowed", error
else:
    raise SystemExit("a negative sample cap gave a report")
"""


def test_a_negative_sample_cap_raises_at_once():
    # a cap of -5 once drew empty (-5, 1) row blocks in an endless loop
    # that grew past 5 GiB; the data limit and the timeout turn a relapse
    # into a failure, not a hang
    proc = subprocess.run([sys.executable, "-c", NEGATIVE_CAP], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_report_json_shape(ctx):
    report = dec.verify_theorem_C(ctx(3, 4))
    doc = report.to_json_dict()
    assert set(doc) == {"theorem", "instance", "components", "direct_sum_ok", "seed", "rng", "pass"}
    assert doc["instance"] == {"p": 3, "n": 4, "a": 2, "l": 1, "alpha": 2, "k": 1}
    for comp in doc["components"]:
        assert set(comp) == {"label", "dimension", "expected_rank", "checked",
                             "mode", "rank_spectrum", "pass"}
