"""Miller-Rabin and trial division against sympy as an independent oracle."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewrank.arith import MILLER_RABIN_BOUND, factorize, is_prime


def test_is_prime_matches_sympy_below_10_5():
    assert [m for m in range(-5, 10**5) if is_prime(m)] == list(sympy.primerange(2, 10**5))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_is_prime_matches_sympy_below_2_31(m):
    assert is_prime(m) == sympy.isprime(m)


def test_base_7_rejects_the_strong_pseudoprime_to_bases_2_3_5():
    m = 25326001  # = 2251 * 11251, a strong pseudoprime to bases 2, 3 and 5
    assert not sympy.isprime(m)
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5):
        x = pow(a, d, m)
        assert x in (1, m - 1) or m - 1 in (pow(x, 2**r, m) for r in range(1, s))
    assert not is_prime(m)


def test_is_prime_around_its_bounds():
    assert is_prime(2**31 - 1) and is_prime(2**31 + 11)
    assert not is_prime(2**31 + 1)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(MILLER_RABIN_BOUND)  # the least strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(10**200)  # even: decided before the bound


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_matches_sympy(m):
    assert factorize(m) == sympy.factorint(m)


def test_factorize_rejects_nonpositive():
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)
