"""The cyclic automorphism group acting on L as a K-linear map.

Powers of the Frobenius generator become n x n matrices over GF(p);
their +1/-1 eigenspaces and fixed fields are the building blocks of
the constant-rank decomposition.  Eigenspace bases come from the RREF
kernel construction, so identical inputs give identical bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ExtensionContext, FieldElement
from .linalg import nullspace_mod


@dataclass
class SubspaceSpec:
    """A labeled K-subspace of L with an optional expected constant rank."""

    label: str
    basis: list[FieldElement]
    expected_rank: int | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        """Rows are the coefficient vectors of the basis elements."""
        return np.array([b.coeffs for b in self.basis], dtype=np.int64)


def order_of(ctx: ExtensionContext, i: int) -> int:
    """Multiplicative order of sigma^i in the Galois group."""
    if not 0 <= i < ctx.n:
        raise ValueError(f"automorphism index must be in [0, {ctx.n}), got {i}")
    if i == 0:
        return 1
    return ctx.n // math.gcd(ctx.n, i)


def eigenspace(
    ctx: ExtensionContext,
    t: int,
    lam: int,
    label: str = "Custom",
) -> SubspaceSpec:
    """Basis of {b in L : sigma^t(b) = lam * b} for lam in {+1, -1}.

    The basis is the deterministic RREF kernel basis of sigma^t - lam*I,
    free columns in increasing order; it may be empty.
    """
    if lam not in (1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {lam}")
    if not 1 <= t <= ctx.n:
        raise ValueError(f"automorphism power must be in [1, {ctx.n}], got {t}")
    mat = (ctx.sigma_power_matrix(t) - lam * np.eye(ctx.n, dtype=np.int64)) % ctx.p
    basis = [ctx.element(row) for row in nullspace_mod(mat, ctx.p)]
    return SubspaceSpec(label=label, basis=basis)


def fixed_field_basis(ctx: ExtensionContext, i: int) -> SubspaceSpec:
    """Basis of the fixed field of sigma^i; its dimension is gcd(n, i)."""
    return eigenspace(ctx, i, 1, label=f"L_{i}")


def two_adic_shape(n: int) -> tuple[int, int]:
    """Write n = 2**alpha * k with k odd; returns (alpha, k)."""
    alpha = 0
    k = n
    while k % 2 == 0:
        alpha += 1
        k //= 2
    return alpha, k
