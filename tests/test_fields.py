"""Field tower arithmetic: oracles first, then invariants."""

import random
import re
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewrank import fields
from skewrank.errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidDegree,
    InvalidModulus,
    InvalidPrime,
    InvalidSubfield,
)
from skewrank.fields import ExtensionContext, find_irreducible

from conftest import BIG_MODULI, BIG_P, element_order, first_generator


def brute_first_irreducible(p, n):
    """Independent oracle: scan candidates low-degree-first, testing
    irreducibility by trial division against all monic factors."""
    import itertools

    def poly_mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
        return out

    monics = {
        d: [list(t) + [1] for t in itertools.product(range(p), repeat=d)]
        for d in range(1, n // 2 + 1)
    }

    def reducible(f):
        for d in range(1, n // 2 + 1):
            for g in monics[d]:
                # trial divide f by g
                rem = list(f)
                while len(rem) >= len(g) and any(rem):
                    while rem and rem[-1] == 0:
                        rem.pop()
                    if len(rem) < len(g):
                        break
                    shift = len(rem) - len(g)
                    coef = rem[-1]
                    for k, c in enumerate(g):
                        rem[shift + k] = (rem[shift + k] - coef * c) % p
                if not any(rem):
                    return True
        return False

    for lower in itertools.product(range(p), repeat=n):
        f = list(lower) + [1]
        if not reducible(f):
            return tuple(f)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 2), (5, 3)])
def test_find_irreducible_matches_brute_force(p, n):
    assert find_irreducible(p, n) == brute_first_irreducible(p, n)


def test_find_irreducible_frozen_small_case():
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1


def test_find_irreducible_rejects_bad_input():
    with pytest.raises(InvalidDegree):
        find_irreducible(2, 1)
    with pytest.raises(InvalidDegree):
        find_irreducible(3, 1)
    with pytest.raises(InvalidPrime):
        find_irreducible(4, 2)


def test_context_rejects_reducible_modulus():
    with pytest.raises(InvalidModulus):
        ExtensionContext(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)
    with pytest.raises(InvalidPrime):
        ExtensionContext(2, 3)
    with pytest.raises(InvalidPrime):
        ExtensionContext(9, 2)
    # the bound comes before the primality test, which is exact only below 3.2e9
    for p in (2**31 + 11, 10**30 + 57):
        with pytest.raises(InvalidPrime, match=r"2\*\*31"):
            ExtensionContext(p, 2)


def test_theta_square_reduces(ctx):
    c = ctx(3, 2)
    assert c.modulus == (1, 0, 1)
    t = c.theta()
    assert t * t == c.scalar(-1) == c.scalar(2)


def test_field_axioms_sampled(ctx):
    c = ctx(7, 4)
    rng = random.Random(7)
    for _ in range(50):
        a = c.from_index(rng.randrange(c.order))
        b = c.from_index(rng.randrange(c.order))
        d = c.from_index(rng.randrange(c.order))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + d) == a * b + a * d
        assert (a - b) + b == a


def test_inverse_and_unit_group_order(ctx):
    c = ctx(3, 2)
    one = c.one()
    for b in c.elements():
        assert b * b.inverse() == one
        assert b ** (c.order - 1) == one
    with pytest.raises(DivisionByZero):
        c.zero().inverse()


def test_inverse_agrees_with_power_path(ctx):
    c = ctx(5, 4)
    rng = random.Random(11)
    for _ in range(40):
        b = c.from_index(rng.randrange(1, c.order))
        assert b.inverse() == b ** (c.order - 2)


def test_context_mismatch_raises(ctx):
    a = ctx(3, 2).one()
    b = ctx(3, 4).one()
    with pytest.raises(ContextMismatch):
        a + b


def test_frobenius_fixes_prime_field_and_has_order_n(ctx):
    c = ctx(3, 4)
    for v in range(3):
        s = c.scalar(v)
        assert c.frobenius_power(s, 1) == s
    rng = random.Random(3)
    for _ in range(20):
        b = c.from_index(rng.randrange(c.order))
        assert c.frobenius_power(b, c.n) == b


def test_frobenius_agrees_with_pow_on_random_elements(ctx):
    for (p, n) in [(3, 4), (5, 3)]:
        c = ctx(p, n)
        rng = random.Random(100 * p + n)
        for _ in range(100):
            b = c.from_index(rng.randrange(c.order))
            assert c.frobenius_power(b, 1) == b**p
            i = rng.randrange(2 * n)
            assert c.frobenius_power(b, i) == b ** (p**i)


def test_frobenius_is_linear(ctx):
    c = ctx(3, 4)
    rng = random.Random(5)
    for _ in range(30):
        a = c.from_index(rng.randrange(c.order))
        b = c.from_index(rng.randrange(c.order))
        s = c.scalar(rng.randrange(3))
        assert c.frobenius_power(a + b, 1) == c.frobenius_power(a, 1) + c.frobenius_power(b, 1)
        assert c.frobenius_power(s * a, 1) == s * c.frobenius_power(a, 1)


def test_trace_basics(ctx):
    c = ctx(3, 2)
    assert c.trace(c.one()) == c.scalar(c.n % c.p)
    assert c.trace(c.theta()) == c.zero()  # theta + theta^3 = 0 under x^2+1
    c4 = ctx(3, 4)
    assert c4.trace(c4.one()) == c4.scalar(4 % 3)


def test_trace_is_galois_invariant_and_matches_sum_oracle(ctx):
    c = ctx(3, 4)
    for b in list(c.elements())[:40]:
        tr = c.trace(b)
        assert c.frobenius_power(tr, 1) == tr
        # independent path: explicit sum of pow images
        total = c.zero()
        for j in range(c.n):
            total = total + b ** (c.p**j)
        assert tr == total


def test_trace_to_subfield_is_fixed_by_subgroup(ctx):
    c = ctx(3, 4)
    rng = random.Random(17)
    for _ in range(20):
        b = c.from_index(rng.randrange(c.order))
        t2 = c.trace(b, 2)
        assert c.frobenius_power(t2, 2) == t2
    with pytest.raises(InvalidSubfield):
        c.trace(c.one(), 3)


def test_norm_basics(ctx):
    c = ctx(3, 2)
    assert c.norm(c.one()) == c.one()
    assert c.norm(c.theta()) == c.one()  # theta * theta^3 = -theta^2 = 1
    assert c.norm(c.zero()) == c.zero()


def test_norm_matches_classical_exponent_formula(ctx):
    for (p, n) in [(3, 4), (5, 3), (7, 2)]:
        c = ctx(p, n)
        e = (c.order - 1) // (p - 1)
        rng = random.Random(n * p)
        for _ in range(40):
            b = c.from_index(rng.randrange(1, c.order))
            assert c.norm(b) == b**e


def test_norm_transitivity_through_intermediate_field(ctx):
    # full norm == (norm to GF(p^2)) then norm of that inside the subfield
    c = ctx(3, 4)
    for b in c.elements():
        mid = c.norm(b, 2)
        assert c.frobenius_power(mid, 2) == mid
        inner = mid * c.frobenius_power(mid, 1)
        assert c.norm(b, 1) == inner


def test_norm_is_galois_invariant(ctx):
    c = ctx(3, 4)
    rng = random.Random(23)
    for _ in range(20):
        b = c.from_index(rng.randrange(c.order))
        nm = c.norm(b)
        assert c.frobenius_power(nm, 1) == nm


def test_multiplicative_generator_small_fields(ctx):
    gf3 = ExtensionContext(3, 1, modulus=(0, 1))
    assert first_generator(gf3) == gf3.scalar(2)
    c = ctx(3, 2)
    g = first_generator(c)
    assert g == c.one() + c.theta()
    assert element_order(c, g) == 8
    # enumerate all orders: nothing before g generates
    orders = {b.index(): element_order(c, b) for b in c.elements()}
    first = min(v for v, o in orders.items() if o == 8)
    assert g.index() == first


def test_generator_half_power_is_minus_one(ctx):
    for (p, n) in [(3, 2), (3, 4), (5, 3), (7, 2)]:
        c = ctx(p, n)
        g = first_generator(c)
        assert g ** ((c.order - 1) // 2) == c.scalar(-1)


def test_generator_is_deterministic(ctx):
    c1 = ExtensionContext(5, 3)
    c2 = ExtensionContext(5, 3)
    assert first_generator(c1).coeffs == first_generator(c2).coeffs


def test_hilbert_90_image_size(ctx):
    # the image of b -> sigma(b)/b has (p^n - 1)/(p - 1) elements
    for (p, n) in [(3, 4), (5, 2), (3, 6)]:
        c = ctx(p, n)
        image = {(c.frobenius_power(b, 1) / b).coeffs for b in c.elements()}
        assert len(image) == (c.order - 1) // (p - 1)


def test_element_index_roundtrip(ctx):
    c = ctx(5, 3)
    for v in [0, 1, 7, 124]:
        assert c.from_index(v).index() == v
    assert sum(1 for _ in c.elements()) == c.order - 1


def test_element_repr_and_hash(ctx):
    c = ctx(3, 2)
    assert hash(c.one()) == hash(c.scalar(1))
    seen = {b for b in c.elements(include_zero=True)}
    assert len(seen) == c.order


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=7))))
def test_gcd_root_filter_matches_brute_force(case):
    # the root filter is the unit test of x^p - x on a supplied modulus
    p, lower = case
    f = tuple(lower) + (1,)  # monic, constant term first
    brute = any(sum(c * pow(r, k, p) for k, c in enumerate(f)) % p == 0 for r in range(p))
    try:
        ExtensionContext(p, len(lower), modulus=f)
        error = ""
    except InvalidModulus as exc:
        error = str(exc)
        assert str(f) in error
    if len(lower) == 1:
        assert error == ""  # degree 1 is irreducible
    else:
        assert ("has a root" in error) == brute


def sympy_irreducible(f, p):
    return sympy.Poly(list(reversed(f)), sympy.Symbol("x"), modulus=p).is_irreducible


def builds(p, f):
    try:
        ExtensionContext(p, len(f) - 1, modulus=f)
        return True
    except InvalidModulus:
        return False


@pytest.mark.parametrize("p,degrees", [(3, (2, 3, 4, 5)), (5, (2, 3))])
def test_modulus_test_matches_sympy_on_every_monic(p, degrees):
    import itertools

    for n in degrees:
        for lower in itertools.product(range(p), repeat=n):
            f = lower + (1,)
            assert builds(p, f) == sympy_irreducible(f, p), f


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1000003, 2**31 - 1]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=2, max_size=4))))
def test_modulus_test_matches_sympy_at_large_p(case):
    p, lower = case
    f = tuple(lower) + (1,)
    assert builds(p, f) == sympy_irreducible(f, p)


@pytest.mark.parametrize("f,why", [
    ((1, 0, 2, 0, 1), "x^(3^4) != x"),  # (x^2 + 1)^2: fails F^n = I
    ((1, 2, 1, 0, 0, 1), "x^(3^5) != x"),  # (x^2 + 1)(x^3 + 2x + 1): fails only F^n = I
    ((2, 1, 0, 1, 1), "factor with x^(3^2) - x"),  # (x^2 + 1)(x^2 + x + 2): fails only the gcd step
])
def test_each_branch_of_the_modulus_test_rejects(f, why):
    with pytest.raises(InvalidModulus, match=re.escape(why)):
        ExtensionContext(3, len(f) - 1, modulus=f)


def per_context_search(p, n):
    """The search as it was: a whole ExtensionContext per candidate, in the
    odometer order of the lexicographic search, kept as the reference."""
    lower = [1] + [0] * (n - 1)
    while True:
        cand = tuple(lower) + (1,)
        try:
            ExtensionContext(p, n, modulus=cand)
            return cand
        except InvalidModulus:
            pass
        i = n - 1
        while lower[i] == p - 1:
            lower[i] = 0
            i -= 1
        lower[i] += 1


SEARCH_CASES = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(2, 13)] + [
    (3, 64), (1000003, 4), (BIG_P, 2), (BIG_P, 3), (BIG_P, 4),
]


@pytest.mark.parametrize("p,n", SEARCH_CASES)
def test_find_irreducible_matches_the_per_context_search(p, n, monkeypatch):
    expected = per_context_search(p, n)
    built = []
    init = ExtensionContext.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExtensionContext, "__init__", counting_init)
    fields._lex_irreducible.cache_clear()
    assert find_irreducible(p, n) == expected
    assert built == []  # the search tests rings, not contexts
    fields._lex_irreducible.cache_clear()
    c = ExtensionContext(p, n)
    assert c.modulus == expected and len(built) == 1
    # the tables the search handed over are those of the whole test on that modulus
    explicit = ExtensionContext(p, n, modulus=expected)
    assert np.array_equal(c._reduce_matrix, explicit._reduce_matrix)
    assert np.array_equal(c.sigma_power_matrix(1), explicit.sigma_power_matrix(1))


def test_find_irreducible_at_the_largest_accepted_prime():
    p = 2**31 - 1
    f = find_irreducible(p, 4)
    x = sympy.Symbol("x")
    assert sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible



@lru_cache(maxsize=None)
def big_cubic():
    return ExtensionContext(BIG_P, 3, modulus=BIG_MODULI[3])


@pytest.mark.parametrize("p", [3, 7, 1000003, BIG_P])
def test_inverse_in_the_prime_field(p):
    c = ExtensionContext(p, 1)
    for v in (1, 2, p - 1):
        assert c.scalar(v).inverse() == c.scalar(pow(v, -1, p))
    with pytest.raises(DivisionByZero):
        c.zero().inverse()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, BIG_P - 1), min_size=3, max_size=3).filter(any))
def test_inverse_at_the_largest_prime(coeffs):
    c = big_cubic()
    b = c.element(coeffs)
    inv = b.inverse()
    assert b * inv == c.one()
    assert inv == b ** (c.order - 2)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 4), (BIG_P, 3)])
def test_negative_powers_invert(ctx, p, n):
    c = big_cubic() if p == BIG_P else ctx(p, n)
    rng = random.Random(5)
    for _ in range(10):
        b = c.element([rng.randrange(p) for _ in range(n)])
        if not b:
            continue
        for e in (1, 2, 7):
            negative = c._wrap(c._vpow(b.vector(), -e))
            assert negative * b**e == c.one()
            assert negative == (b**e).inverse()
    with pytest.raises(DivisionByZero):
        c._vpow(c.zero().vector(), -1)


@lru_cache(maxsize=None)
def axiom_field(p, n):
    return ExtensionContext(p, n, modulus=BIG_MODULI[n] if p == BIG_P else None)


@st.composite
def field_elements(draw):
    """(context, a, b, e, nonzero d) in GF(3^5), GF(1000003^2) or
    GF((2^31 - 1)^3); the last takes contract_mod's limb passes in the
    scalar product."""
    c = axiom_field(*draw(st.sampled_from([(3, 5), (1000003, 2), (BIG_P, 3)])))
    row = st.lists(st.integers(0, c.p - 1), min_size=c.n, max_size=c.n)
    a, b, e = (c.element(draw(row)) for _ in range(3))
    return c, a, b, e, c.element(draw(row.filter(any)))


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_field_axioms(fields_and_elements):
    c, a, b, e, d = fields_and_elements
    assert (a + b) + e == a + (b + e) and a + b == b + a
    assert (a * b) * e == a * (b * e) and a * b == b * a
    assert a * (b + e) == a * b + a * e
    assert d * d.inverse() == c.one()
