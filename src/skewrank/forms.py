"""Alternating forms tr(b(x*sigma^i(y) - sigma^i(x)*y)) and their ranks.

The Gram matrix of such a form in the power basis is Q*S_i - (Q*S_i)^T,
S_i the matrix of sigma^i and Q[r][c] = tr(b*theta^(r+c)) the symmetric
"trace of a triple product" matrix, which is Hankel.  Both paths read
the context's trace table T[k][t] = tr(theta^(k+t)) and compute Q
differently: a stack of rows takes h[t] = tr(b*theta^t) as one product
with T and gathers h into Hankel form; the scalar reference takes
Q = M_b^T * T (M_b the multiply-by-b matrix), with no gather.  Degeneracy
is decided two independent ways (rank, and the norm-quotient criterion)
which the test suite plays against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalCheckError,
    InvolutionNotSupported,
    NotInEigenspace,
    ZeroElement,
)
from .fields import ExtensionContext, FieldElement
from .galois import order_of, two_adic_shape
# rank_mod ranks gram()'s output; perfbench/selftest.py checks this binding
from .linalg import matmul_mod, rank_mod  # noqa: F401


@dataclass
class DegeneracyWitness:
    """Partial norm product w of b and its twist ratio eta = sigma(w)/w."""

    w: FieldElement
    eta: FieldElement
    eta_order: int | None  # the order of eta when it divides 2^i_index, else None
    is_degenerate: bool


def gram_entries(ctx: ExtensionContext, bvec: np.ndarray, i: int) -> np.ndarray:
    """Gram matrix of the coefficient vector bvec: Q = M_b^T * T on the
    square part of the trace table, then Q*S_i minus its transpose."""
    p, n = ctx.p, ctx.n
    q = matmul_mod(ctx._mul_matrix(bvec).T, ctx._trace_table[:, :n], p)
    g = matmul_mod(q, ctx.sigma_power_matrix(i), p)
    return (g - g.T) % p


def gram_stack(ctx: ExtensionContext, vecs: np.ndarray, i: int) -> np.ndarray:
    """Gram matrices of a (B, n) stack of coefficient rows, as (B, n, n):
    h = rows * trace table, (B, 2n-1), gathered into the Hankel stack
    Q[:, r, c] = h[:, r+c], then Q*S_i minus its transpose."""
    p, n = ctx.p, ctx.n
    h = matmul_mod(vecs, ctx._trace_table, p)
    g = matmul_mod(h[:, np.arange(n)[:, None] + np.arange(n)], ctx.sigma_power_matrix(i), p)
    return (g - g.transpose(0, 2, 1)) % p


def gram(ctx: ExtensionContext, b: FieldElement, i: int) -> np.ndarray:
    """Alternating n x n Gram matrix over GF(p) of the skew-form attached
    to (b, sigma^i) in the power basis; rank it with rank_mod."""
    if not 1 <= i < ctx.n:
        raise ValueError(f"automorphism power must be in [1, {ctx.n}), got {i}")
    ctx._own(b)
    return gram_entries(ctx, b.vector(), i)


def is_degenerate_by_norm(ctx: ExtensionContext, b: FieldElement, i: int) -> bool:
    """Norm criterion: the form of (b, sigma^i) is degenerate iff the
    norm of sigma^i(b)/b down to the fixed field of sigma^(2i) is 1.

    The equivalent second form -- the norm of b down to that subfield is
    itself sigma^i-invariant -- is computed as well and both answers are
    required to agree.
    """
    ctx._own(b)
    if not b:
        raise ZeroElement("the norm criterion needs b != 0")
    n = ctx.n
    im = i % n
    o = order_of(ctx, im) if im else 1
    if o <= 2:
        raise InvolutionNotSupported(f"sigma^{i} has order {o}; the criterion needs order > 2")
    sub = math.gcd(n, 2 * im)
    quotient = ctx.frobenius_power(b, im) / b
    form1 = ctx.norm(quotient, sub) == ctx.one()
    full_norm = ctx.norm(b, sub)
    form2 = ctx.frobenius_power(full_norm, im) == full_norm
    if form1 != form2:
        raise InternalCheckError(
            f"norm-quotient and norm-invariance answers disagree for b={b}, i={i}"
        )
    if im == 1:
        # the invariant norm lies in the prime field exactly when degenerate
        if full_norm.in_prime_field() != form2:
            raise InternalCheckError(f"prime-field membership disagrees for b={b}")
    return form1


def norm_predicates(ctx: ExtensionContext, vecs: np.ndarray, powers) -> dict[int, np.ndarray]:
    """is_degenerate_by_norm for every row of a (B, n) stack of nonzero
    elements and every power i in `powers`, with the same cross-checks;
    returns {i: boolean array over the rows}.

    The criterion depends on i only through sub = gcd(n, 2i): the norm N
    down to GF(p^sub) multiplies the n/sub conjugates sigma^(sub*j).  The
    powers are grouped by sub.  Per group the conjugates
    c_k = sigma^(d*k)(b), d = gcd(sub, every i of the group), are built
    once, and N(b) once, as the product of the coset k = 0 mod sub/d.
    With i/d = r + (sub/d)*q, N(sigma^i(b)) is the product of coset r
    rotated by q places: its suffix from place q times its prefix before
    q, one product per i.  The norm is multiplicative, so the quotient
    criterion is decided without division as N(sigma^i(b)) = N(b); the
    invariance criterion sigma^i(N(b)) = N(b) must agree with it.
    """
    p, n = ctx.p, ctx.n
    if not (vecs % p != 0).any(axis=1).all():
        raise ZeroElement("the norm criterion needs b != 0")
    groups: dict[int, list[int]] = {}
    for i in powers:
        im = i % n
        o = order_of(ctx, im) if im else 1
        if o <= 2:
            raise InvolutionNotSupported(f"sigma^{i} has order {o}; the criterion needs order > 2")
        groups.setdefault(math.gcd(n, 2 * im), []).append(i)
    predicates = {}
    for sub, group in groups.items():
        d = math.gcd(sub, *(i % n for i in group))
        s, m = sub // d, n // sub
        conjugates = [vecs]
        for _ in range(n // d - 1):
            conjugates.append(ctx.frobenius_stack(conjugates[-1], d))
        rotations: dict[int, set[int]] = {0: set()}  # coset r -> places q; coset 0 gives N(b)
        for i in group:
            q, r = divmod(i % n // d, s)
            rotations.setdefault(r, set()).add(q)
        matches = {}  # (q, r) -> rows where N(sigma^i(b)) = N(b)
        for r, places in sorted(rotations.items()):
            coset = conjugates[r::s]
            prefix = [coset[0]]  # prefix[k] = coset[0] * ... * coset[k]
            for factor in coset[1 : m if r == 0 else max(places)]:
                prefix.append(ctx.mul_stack(prefix[-1], factor))
            if r == 0:
                full_norm = prefix[m - 1]
            suffix = {m - 1: coset[m - 1]}  # suffix[k] = coset[k] * ... * coset[m-1]
            for k in range(m - 2, min(places, default=m) - 1, -1):
                suffix[k] = ctx.mul_stack(coset[k], suffix[k + 1])
            for q in places:
                rotated = ctx.mul_stack(suffix[q], prefix[q - 1]) if q else suffix[0]
                matches[q, r] = (rotated == full_norm).all(axis=1)
        for i in group:
            im = i % n
            form1 = matches[divmod(im // d, s)]
            form2 = (ctx.frobenius_stack(full_norm, im) == full_norm).all(axis=1)
            bad = form1 != form2
            if im == 1:
                # the invariant norm lies in the prime field exactly when degenerate
                bad |= (full_norm[:, 1:] != 0).any(axis=1) == form2
            if bad.any():
                b = ctx.element(vecs[bad.argmax()])
                raise InternalCheckError(f"stacked norm criteria disagree for b={b}, i={i}")
            predicates[i] = form1
    return predicates


def degeneracy_witness(ctx: ExtensionContext, b: FieldElement, i_index: int) -> DegeneracyWitness:
    """Witness data for b in the -1 eigenspace of sigma^(n/2^i_index).

    Computes w = b * sigma^2(b) * ... * sigma^(n/2^i - 2)(b) and
    eta = sigma(w)/w, certifies the identity
    norm(b -> quadratic subfield) = (-1)^(n/4) * w^(2^i), and reports
    degeneracy as eta^(2^i) = 1.  Repeated squaring then also gives
    eta_order, the least 2^j with eta^(2^j) = 1, or None when
    eta^(2^i) != 1.  Degenerate witnesses must additionally satisfy
    sigma(eta) * eta = -1.
    """
    ctx._own(b)
    n = ctx.n
    alpha, _ = two_adic_shape(n)
    if alpha < 2 or not 1 <= i_index <= alpha - 1:
        raise ValueError(
            f"need n = 2^alpha * k with alpha >= 2 and 1 <= i_index <= alpha-1; "
            f"got n={n}, i_index={i_index}"
        )
    if not b:
        raise ZeroElement("witness needs b != 0")
    t = n >> i_index
    if ctx.frobenius_power(b, t) != -b:
        raise NotInEigenspace(f"sigma^{t}(b) != -b for b={b}")
    w = b
    cur = b
    for _ in range(1, t // 2):
        cur = ctx.frobenius_power(cur, 2)
        w = w * cur
    eta = ctx.frobenius_power(w, 1) / w
    eta_order = None
    power = eta  # eta^(2^j)
    for j in range(i_index + 1):
        if power == ctx.one():
            eta_order = 2**j
            break
        power = power * power
    sign = -1 if (n // 4) % 2 else 1
    if ctx.norm(b, 2) != ctx.scalar(sign) * w ** (2**i_index):
        raise InternalCheckError(f"norm/witness identity failed for b={b}, i={i_index}")
    is_degenerate = eta_order is not None
    if is_degenerate and ctx.frobenius_power(eta, 1) * eta != ctx.scalar(-1):
        raise InternalCheckError(f"degenerate witness without sigma(eta)*eta = -1 for b={b}")
    return DegeneracyWitness(w=w, eta=eta, eta_order=eta_order, is_degenerate=is_degenerate)
