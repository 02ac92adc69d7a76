"""The cyclic automorphism group acting on L as a K-linear map.

Powers of the Frobenius generator become n x n matrices over GF(p);
their +1/-1 eigenspaces and fixed fields are the building blocks of
the constant-rank decomposition.  A basis is returned as its (dim, n)
int64 rows of power-basis coefficients, the RREF kernel basis, so
identical inputs give identical bases.  Every piece a verifier walks
is then named by (b0, t), the space b0*GF(p^t) (decomposition).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ExtensionContext
from .linalg import nullspace_mod


def order_of(ctx: ExtensionContext, i: int) -> int:
    """Multiplicative order of sigma^i in the Galois group."""
    if not 0 <= i < ctx.n:
        raise ValueError(f"automorphism index must be in [0, {ctx.n}), got {i}")
    if i == 0:
        return 1
    return ctx.n // math.gcd(ctx.n, i)


def eigenspace(ctx: ExtensionContext, t: int, lam: int) -> np.ndarray:
    """Basis rows of {b in L : sigma^t(b) = lam * b} for lam in {+1, -1}.

    The rows are the deterministic RREF kernel basis of sigma^t - lam*I,
    free columns in increasing order; there may be none.
    """
    if lam not in (1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {lam}")
    if not 1 <= t <= ctx.n:
        raise ValueError(f"automorphism power must be in [1, {ctx.n}], got {t}")
    mat = (ctx.sigma_power_matrix(t) - lam * np.eye(ctx.n, dtype=np.int64)) % ctx.p
    return nullspace_mod(mat, ctx.p)


def fixed_field_basis(ctx: ExtensionContext, i: int) -> np.ndarray:
    """Basis rows of the fixed field of sigma^i; there are gcd(n, i)."""
    return eigenspace(ctx, i, 1)


def two_adic_shape(n: int) -> tuple[int, int]:
    """Write n = 2**alpha * k with k odd, n >= 1; returns (alpha, k)."""
    if n < 1:
        raise ValueError(f"two-adic shape needs n >= 1, got {n}")
    alpha = 0
    k = n
    while k % 2 == 0:
        alpha += 1
        k //= 2
    return alpha, k
