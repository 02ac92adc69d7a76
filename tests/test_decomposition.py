"""Component assembly and the theorem verifiers at small instances."""

import math
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from skewrank import decomposition as dec
from skewrank import forms, galois
from skewrank.arith import factorize
from skewrank.errors import HypothesisViolation, InternalCheckError, NotInEigenspace, WrongShape
from skewrank.fields import ExtensionContext

from conftest import BIG_P, block_lengths, child_env, elements, first_generator, power_basis


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


@pytest.mark.parametrize("p,n", [(3, 8), (3, 16), (11, 16), (43, 16), (5, 16), (19, 16)])
def test_coset_step_reaches_every_coset(ctx, monkeypatch, p, n):
    # every (t, i) that a verifier or the census walks by cosets at (p, n):
    # x lies in GF(p^t)^x, and its image modulo the m-th powers has order
    # m, so x^0 .. x^(m - 1) lie in the m distinct cosets
    import sympy

    c, walked = ctx(p, n), set()
    real = dec._coset_step
    monkeypatch.setattr(dec, "_coset_step", lambda c, t, i: walked.add((t, i)) or real(c, t, i))
    monkeypatch.setattr(dec, "_sampled_blocks", lambda *args: iter(()))  # only the coset walks count
    verifiers = [dec.verify_direct_sum, dec.verify_theorem_A, dec.verify_theorem_C, dec.oracle_survey]
    for verify in verifiers + [lambda c, i=i: dec.remark_C_check(c, i) for i in dec.remark_C_indices(p, n)]:
        try:
            verify(c)
        except (HypothesisViolation, WrongShape):
            pass
    assert walked
    for t, i in sorted(walked):
        x, m = real(c, t, i)
        assert m == math.gcd(1 + p**i, p**t - 1)
        assert x ** (p**t - 1) == c.one()
        assert all(x ** ((p**t - 1) // r) != c.one() for r in sympy.factorint(m)), (t, i)


@pytest.mark.parametrize("p,n,i_index", [(11, 16, 3), (19, 16, 3), (5, 8, 2), (13, 8, 2), (43, 16, 3)])
def test_remark_c_power_criterion_is_divisibility_of_the_exponent(ctx, p, n, i_index):
    # remark_C_check decides l | s for b = u^s by b^(2(p^t - 1)/l) = 1, for
    # u a generator of C = {b : b^(2(p^t - 1)) = 1}, found here by sympy
    import sympy

    c, t = ctx(p, n), n >> i_index
    _, l = galois.two_adic_shape(p + 1)
    csize = 2 * (p**t - 1)
    u = next(u for u in (g ** ((c.order - 1) // csize) for g in elements(c))
             if all(u ** (csize // r) != c.one() for r in sympy.factorint(csize)))
    b, square = u, u * u
    for s in range(1, csize, 2):
        assert (b ** (csize // l) == c.one()) == (s % l == 0), s
        b = b * square


def test_theorem_a_shapes_at_3_6(ctx):
    report = dec.verify_theorem_A(ctx(3, 6))
    assert report.passed and report.direct_sum_ok
    by_label = {c.label: c for c in report.components}
    assert by_label["U"].dimension == 3 and by_label["U"].rank_spectrum == {6: 26}
    assert by_label["V"].dimension == 3 and by_label["V"].rank_spectrum == {4: 26}


def test_theorem_a_v_equals_fixed_field(ctx):
    # cross-theorem consistency: V = 1*GF(p^k) is exactly the fixed field of
    # sigma^k, and U = j*GF(p^k) for the first non-degenerate j
    for (p, n) in [(3, 6), (3, 10)]:
        c = ctx(p, n)
        j = dec.find_nondegenerate_b(c, 1)
        assert dec.theorem_A_subspaces(c) == [("U", j, n // 2, n), ("V", c.one(), n // 2, n - 2)]
        fixed = galois.fixed_field_basis(c, n // 2)
        assert np.array_equal(dec._span_rows(c, c.one(), n // 2), fixed)
        assert np.array_equal(dec._span_rows(c, j, n // 2), [(j * c.element(v)).coeffs for v in fixed])


def test_theorem_a_hypothesis_gates(ctx):
    with pytest.raises(WrongShape):
        dec.verify_theorem_A(ctx(3, 4))
    with pytest.raises(WrongShape):
        dec.verify_theorem_A(ctx(3, 5))
    with pytest.raises(HypothesisViolation):
        dec.verify_theorem_A(ctx(3, 2))


def test_theorem_c_checks_that_b0_is_an_eigenvector(ctx, monkeypatch):
    # a +1 row handed out for a -1 piece has the right dimension, so only
    # the exact check sigma^t(b0) = lam*b0 stands between it and the walk
    real = dec.eigenspace
    monkeypatch.setattr(dec, "eigenspace", lambda c, t, lam: real(c, t, 1))
    with pytest.raises(InternalCheckError, match=re.escape("V2: sigma^1(b0) != -1*b0")):
        dec.verify_theorem_C(ctx(3, 8))


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


def test_remark_c_indices_follow_the_two_adic_rule():
    # the rule the CLI used to spell out: a+1 .. alpha-1 when l > 1 and alpha > a+1,
    # with a+1 the default index; each failing hypothesis keeps its own message
    primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
    for p in primes:
        for n in range(2, 65):
            alpha, _ = galois.two_adic_shape(n)
            a, l = galois.two_adic_shape(p + 1)
            applies = l > 1 and alpha > a + 1
            assert dec.remark_C_indices(p, n) == (range(a + 1, alpha) if applies else range(0)), (p, n)
            if applies:
                assert dec.remark_C_slice(p, n, None, 10**100) == (a + 1, n >> (a + 1)), (p, n)
                i_index, message = alpha, f"i_index must be in [{a + 1}, {alpha - 1}], got {alpha}"
            elif l == 1:
                i_index, message = None, f"p + 1 = 2^{a} has odd part 1; eigenspaces keep constant rank"
            else:
                i_index, message = None, f"alpha={alpha} <= a+1={a + 1}; eigenspaces keep constant rank"
            with pytest.raises(HypothesisViolation) as exc:
                dec.remark_C_slice(p, n, i_index, 10**100)
            assert str(exc.value) == message, (p, n)


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


@pytest.mark.parametrize("p,n,i_index", [(11, 16, 3), (5, 16, 2), (19, 16, 3), (5, 8, 2), (13, 8, 2),
                                         (11, 32, 4)])
def test_remark_c_matches_the_scalar_walk(ctx, monkeypatch, p, n, i_index):
    grams = block_lengths(monkeypatch, dec, "rank_mod_batch", 0)
    report = dec.remark_C_check(ctx(p, n), i_index)
    spectra, membership_ok, pattern_ok = scalar_remark_c(ctx(p, n), i_index)
    assert membership_ok and pattern_ok
    assert report.passed and report.direct_sum_ok
    divisible, other = report.components
    assert divisible.rank_spectrum == spectra[True] == {n - 2: divisible.checked}
    assert other.rank_spectrum == spectra[False] == {n: other.checked}
    # one Gram per coset of the (1 + p)-th powers, against one per odd
    # exponent: 12 against 120 at (11, 16, 3)
    assert sum(grams) == p + 1 and divisible.checked + other.checked == p ** (n >> i_index) - 1


def test_remark_c_checks_that_u_lies_in_its_eigenspace(ctx, monkeypatch):
    # a +1 row handed out for E_3 has the right dimension, so b0 is fixed by
    # sigma^t and the walk b0*GF(p^t) leaves E_3.  The witness of the first
    # row refuses b0; with it stubbed out, the report's own exact check
    # sigma^t(b0) = -b0 fails under direct_sum_ok
    real = dec.eigenspace
    monkeypatch.setattr(dec, "eigenspace", lambda c, t, lam: real(c, t, 1))
    with pytest.raises(NotInEigenspace):
        dec.remark_C_check(ctx(11, 16), 3)
    monkeypatch.setattr(dec, "degeneracy_witness", lambda c, b, i: types.SimpleNamespace(
        is_degenerate=forms.is_degenerate_by_norm(c, b, 1)))
    report = dec.remark_C_check(ctx(11, 16), 3)
    assert report.direct_sum_ok is False and not report.passed


@pytest.mark.parametrize("verify, p, n, scanned", [
    (dec.verify_theorem_A, 3, 10, [2]),
    (dec.verify_theorem_C, 3, 16, [2, 4]),
])
def test_slice_generator_scans_once_per_coset_index(monkeypatch, verify, p, n, scanned):
    # TA (3, 10) asks for m = 2 for both V and U, TC (3, 16) for m = 2 (V1,
    # V2) and m = 4 (E1, E2, E3); each scan factors its m once, and two
    # fresh contexts of one field share the scans
    calls = []
    monkeypatch.setattr(dec, "factorize", lambda m: calls.append(m) or factorize(m))
    dec._generator_index.cache_clear()
    for _ in range(2):
        assert verify(ExtensionContext(p, n)).passed
    assert calls == scanned


def test_corollary_odd_order(ctx):
    # corollary: constant rank n - n/ord on the whole component of odd order
    c = ctx(3, 6)
    by_label = {comp.label: comp for comp in dec.verify_direct_sum(c).components}
    assert by_label["A^2"].passed
    assert by_label["A^2"].rank_spectrum == {4: 728}
    # sigma^4 = sigma^-2 has the same odd order 3
    a4 = dec.rank_spectrum_check(c, 4, c.one(), 6, "A^4", allowed={4})
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
    a = dec.rank_spectrum_check(c, 1, c.one(), 4, "L", allowed={2, 4}, sample_cap=50)
    b = dec.rank_spectrum_check(c, 1, c.one(), 4, "L", allowed={2, 4}, sample_cap=50)
    assert a.mode == "sampled" and a.rank_spectrum == b.rank_spectrum
    assert a.expected_rank is None


def test_spectrum_pass_rule(ctx):
    # support inside the allowed set; an exhaustive run must attain all of it
    c = ctx(3, 4)
    one = c.one()
    exact = dec.rank_spectrum_check(c, 1, one, 4, "L", allowed={2, 4})
    assert exact.mode == "exhaustive" and exact.passed
    assert exact.rank_spectrum == {2: 20, 4: 60}
    assert not dec.rank_spectrum_check(c, 1, one, 4, "L", allowed={0, 2, 4}).passed
    assert not dec.rank_spectrum_check(c, 1, one, 4, "L", allowed={4}).passed
    assert dec._spectrum_ok({4: 5}, {2, 4}, "sampled")
    assert not dec._spectrum_ok({4: 5}, {2, 4}, "exhaustive")
    assert not dec._spectrum_ok({}, {4}, "exhaustive")
    assert not dec._spectrum_ok({}, {4}, "sampled")


@pytest.mark.parametrize("b0, t, why", [
    ("theta", 0, "t = 0"), ("theta", 3, "t = 3"), ("theta", 8, "t = 8"), ("zero", 2, "b0 = <0 in GF(3^4)>"),
])
@pytest.mark.parametrize("sample_cap", [1, 10_000])
def test_a_spectrum_needs_a_nonzero_b0_and_a_divisor_t(ctx, monkeypatch, b0, t, why, sample_cap):
    # b0*GF(p^t) is a space of L only for t | n, and has p^t - 1 nonzero
    # elements only for b0 != 0; neither walk starts on anything else
    c = ctx(3, 4)
    for walk in ("_coset_walk", "_sampled_blocks"):
        monkeypatch.setattr(dec, walk, lambda *args: pytest.fail("walked"))
    with pytest.raises(ValueError, match=re.escape(why)):
        dec.rank_spectrum_check(c, 1, getattr(c, b0)(), t, "S", {2, 4}, sample_cap=sample_cap)


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



def test_census_names_the_predicates_only_when_it_checks_some(ctx, monkeypatch):
    # at n = 2 the one power is the involution, which the norm criterion
    # does not cover: the census stands on its support alone
    report = dec.oracle_survey(ctx(3, 2))
    assert (report.checked, report.predicate_checked, report.passed) == (8, 0, True)
    assert list(report.conditions) == ["support_ok"]
    assert list(dec.oracle_survey(ctx(3, 4)).conditions) == ["support_ok", "predicates agree"]
    monkeypatch.setattr(dec, "FULL_FIELD_CEILING", 100)
    assert list(dec.oracle_survey(ctx(5, 4), sample_cap=0).conditions) == ["support_ok"]

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
