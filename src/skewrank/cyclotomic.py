"""Exact-rational skew-form analysis over the fifth cyclotomic field.

Elements of Q(eta) (eta a primitive fifth root of unity) are stored in
the basis {1, eta, eta^2, eta^3} with Fraction coordinates, the
generating automorphism being eta -> eta^3.  The headline artifact is a
certified 3-dimensional subspace all of whose nonzero elements give
rank-4 forms: anisotropy of an associated integer ternary quadratic
form, decided by sign and quadratic-residue conditions, upgrades a
finite grid check into a statement about every rational combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import factorize
from .decomposition import EXHAUSTIVE_CEILING
from .errors import InternalCheckError, InvalidArgument, NotSquareFree
from .linalg import block_rows, rref
from .report import Report
from .stream import RNG_NAME, Stream

_MINPOLY_FOLD = (-1, -1, -1, -1)  # eta^4 = -1 - eta - eta^2 - eta^3


@dataclass(frozen=True)
class CycloElement:
    """x + y*eta + z*eta^2 + w*eta^3 with exact rational coordinates."""

    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(x=0, y=0, z=0, w=0) -> "CycloElement":
        return CycloElement((Fraction(x), Fraction(y), Fraction(z), Fraction(w)))

    def __add__(self, other: "CycloElement") -> "CycloElement":
        return CycloElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        return CycloElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CycloElement":
        return CycloElement(tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(tuple(a * other for a in self.coords))
        out = [Fraction(0)] * 7
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    out[i + j] += a * b
        # eta^5 = 1, eta^4 = -(1 + eta + eta^2 + eta^3)
        folded = list(out[:4])
        folded[0] += out[5]
        folded[1] += out[6]
        if out[4]:
            for t in range(4):
                folded[t] += _MINPOLY_FOLD[t] * out[4]
        return CycloElement(tuple(folded))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.coords)

    def rational_trace(self) -> Fraction:
        """Sum over the four automorphism images, as a rational number."""
        x, y, z, w = self.coords
        return 4 * x - y - z - w

    def __repr__(self):
        names = ("", "*e", "*e^2", "*e^3")
        terms = [f"{c}{n}" for c, n in zip(self.coords, names) if c]
        return "Cyclo(" + (" + ".join(terms) if terms else "0") + ")"


ZERO = CycloElement.of()
ONE = CycloElement.of(1)
ETA = CycloElement.of(0, 1)

_BASIS = (ONE, ETA, CycloElement.of(0, 0, 1), CycloElement.of(0, 0, 0, 1))

# eta -> eta^3 on the basis: 1, eta^3, eta^6 = eta, eta^9 = eta^4
_SIGMA_IMAGES = (
    ONE,
    CycloElement.of(0, 0, 0, 1),
    ETA,
    CycloElement.of(-1, -1, -1, -1),
)


def cyclo_sigma(u: CycloElement, power: int = 1) -> CycloElement:
    """Apply the generating automorphism eta -> eta^3 `power` times."""
    if power < 0:
        raise ValueError(f"automorphism power must be >= 0, got {power}")
    for _ in range(power % 4):
        acc = ZERO
        for c, image in zip(u.coords, _SIGMA_IMAGES):
            if c:
                acc = acc + image * c
        u = acc
    return u


def norm_to_quadratic_subfield(b: CycloElement) -> CycloElement:
    """b * sigma^2(b), the norm down to the subfield fixed by sigma^2."""
    return b * cyclo_sigma(b, 2)


def degeneracy_coefficient(x, y, z, w) -> Fraction:
    """-xy + xz + xw - yz + yw - zw: the second coordinate of the
    quadratic-subfield norm of x + y*eta + z*eta^2 + w*eta^3.  The form
    of b is degenerate exactly when this vanishes."""
    x, y, z, w = Fraction(x), Fraction(y), Fraction(z), Fraction(w)
    return -x * y + x * z + x * w - y * z + y * w - z * w


def isotropy_form(x, y, z, w) -> Fraction:
    """xy - xz - xw + yz - yw + zw; the exact negative of
    degeneracy_coefficient, with the same zero set.  Written out on its
    own so the sign convention check compares two polynomials."""
    x, y, z, w = Fraction(x), Fraction(y), Fraction(z), Fraction(w)
    return x * y - x * z - x * w + y * z - y * w + z * w


@lru_cache(maxsize=None)
def _basis_twists() -> tuple[tuple[CycloElement, ...], ...]:
    """br * sigma(bs) - sigma(br) * bs for every pair of basis elements
    (r, s), which does not depend on b; built on first use."""
    return tuple(tuple(br * cyclo_sigma(bs) - cyclo_sigma(br) * bs for bs in _BASIS) for br in _BASIS)


def gram_rational(b: CycloElement) -> tuple[tuple[tuple[Fraction, ...], ...], int]:
    """Gram matrix of the skew-form of b in the basis {1, eta, eta^2,
    eta^3}, with its exact rank.  Rank 4 iff the degeneracy coefficient
    of b is nonzero; otherwise rank is 0 (b = 0) or 2."""
    entries = [[(b * twist).rational_trace() for twist in row] for row in _basis_twists()]
    _, pivots = rref(np.array(entries, dtype=object), lambda x: 1 / Fraction(x), lambda m: m)
    return tuple(tuple(row) for row in entries), len(pivots)


# ---------------------------------------------------------------------------
# ternary quadratic forms
# ---------------------------------------------------------------------------

FORM_BOUND = 10**6  # on |a|, |b|, |c|: trial division then stops below 10^3


@dataclass(frozen=True)
class TernaryForm:
    """Diagonal integer form a*X^2 + b*Y^2 + c*Z^2, abc square-free.

    Each coefficient must lie in [-FORM_BOUND, FORM_BOUND].  abc is
    square-free exactly when each coefficient is square-free and they
    are pairwise coprime, which trial division decides with at most
    sqrt(FORM_BOUND)/2 + 1 divisors per coefficient.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.triple()
        if max(abs(a), abs(b), abs(c)) > FORM_BOUND:
            raise InvalidArgument(f"form coefficients must have absolute value at most {FORM_BOUND}")
        if 0 in (a, b, c):
            raise NotSquareFree("coefficients must be nonzero")
        squarefree = all(e == 1 for x in (a, b, c) for e in factorize(abs(x)).values())
        if not (squarefree and math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1):
            raise NotSquareFree(f"{a}*{b}*{c} = {a * b * c} is not square-free")

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def is_square_mod(v: int, m: int) -> bool:
    """Does x^2 = v (mod m) have a solution?  m must be square-free >= 1.

    Factors m by trial division: at most sqrt(m)/2 + 1 divisors.
    """
    if m == 1:
        return True
    for q in factorize(m):
        r = v % q
        if q == 2 or r == 0:
            continue
        if pow(r, (q - 1) // 2, q) != 1:
            return False
    return True


def legendre_solvable(form: TernaryForm | tuple[int, int, int]) -> bool:
    """Solvability of a*X^2 + b*Y^2 + c*Z^2 = 0 in nonzero integers:
    mixed signs, and -bc, -ac, -ab squares mod |a|, |b|, |c|."""
    return all(legendre_certificate(form).values())


def legendre_certificate(form: TernaryForm | tuple[int, int, int]) -> dict[str, bool]:
    """The individual sign / residue conditions behind legendre_solvable."""
    if not isinstance(form, TernaryForm):
        form = TernaryForm(*form)
    a, b, c = form.triple()
    return {
        "mixed_signs": not (a > 0 and b > 0 and c > 0) and not (a < 0 and b < 0 and c < 0),
        "residue_mod_a": is_square_mod(-b * c, abs(a)),
        "residue_mod_b": is_square_mod(-a * c, abs(b)),
        "residue_mod_c": is_square_mod(-a * b, abs(c)),
    }


WITNESS_BOX = 2**24  # points of the box isotropic_witness may search


def isotropic_witness(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """First nonzero solution (x, y, z), in lexicographic order, of
    a*X^2 + b*Y^2 + c*Z^2 = 0 with 0 <= x <= sqrt|bc|, 0 <= y <= sqrt|ac|,
    0 <= z <= sqrt|ab|, or None.  For square-free pairwise-coprime
    coefficients a solvable form always has a solution in that box
    (Holzer's bound), so None certifies unsolvability.

    The box has about |abc| points; a zero coefficient, or a box of more
    than WITNESS_BOX points, raises InvalidArgument before anything is
    allocated.  Each side of a box within the bound is at most about
    sqrt(WITNESS_BOX), since each bound is at most the product of the
    other two.  The search takes one x at a time and every y at once,
    and finds z among the squares up to sqrt|ab| by bisection.
    """
    if 0 in (a, b, c):
        raise InvalidArgument("coefficients must be nonzero")
    bx, by, bz = math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b))
    if (bx + 1) * (by + 1) * (bz + 1) > WITNESS_BOX:
        raise InvalidArgument(
            f"the search box of ({a}, {b}, {c}) has {(bx + 1) * (by + 1) * (bz + 1)} points, "
            f"more than {WITNESS_BOX}"
        )
    ys = np.arange(by + 1, dtype=np.int64)
    squares = np.arange(bz + 1, dtype=np.int64) ** 2
    for x in range(bx + 1):
        z2, remainder = np.divmod(-a * x * x - b * ys * ys, c)  # c * z^2 must equal the rest
        z = np.minimum(np.searchsorted(squares, z2), bz)
        hit = (remainder == 0) & (squares[z] == z2)
        hit[0] &= x > 0  # the zero vector
        if hit.any():
            y = int(hit.argmax())
            return (x, y, int(z[y]))
    return None


# ---------------------------------------------------------------------------
# diagonalization by congruence
# ---------------------------------------------------------------------------

@dataclass
class Diagonalization:
    """P^T Q P = D with P invertible rational; squarefree_form rescales
    each diagonal entry by a rational square into a square-free integer."""

    diagonal: tuple[Fraction, ...]
    transform: tuple[tuple[Fraction, ...], ...]
    squarefree_form: tuple[int, ...]


def squarefree_rescale(d: Fraction) -> int:
    """Square-free integer representing d modulo nonzero rational squares.

    Factors |numerator * denominator| by trial division: at most
    sqrt(|numerator * denominator|)/2 + 1 divisors.
    """
    if d == 0:
        return 0
    v = d.numerator * d.denominator  # d * den^2
    sign = -1 if v < 0 else 1
    out = 1
    for q, e in factorize(abs(v)).items():
        if e % 2:
            out *= q
    return sign * out


def diagonalize_ternary(q) -> Diagonalization:
    """Congruence-diagonalize a symmetric rational matrix by iterated
    completion of squares.  Pivot choice is deterministic: the first
    nonzero diagonal entry, else the first nonzero off-diagonal pair
    (symmetrized by a column addition)."""
    m = [[Fraction(q[i][j]) for j in range(len(q))] for i in range(len(q))]
    size = len(m)
    for i in range(size):
        for j in range(i + 1, size):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix must be symmetric")
    pmat = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]

    def col_op(dst: int, src: int, factor: Fraction) -> None:
        # column dst += factor * column src, applied congruently
        for r in range(size):
            m[r][dst] += factor * m[r][src]
        for r in range(size):
            m[dst][r] += factor * m[src][r]
        for r in range(size):
            pmat[r][dst] += factor * pmat[r][src]

    def col_swap(i: int, j: int) -> None:
        for r in range(size):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(size):
            pmat[r][i], pmat[r][j] = pmat[r][j], pmat[r][i]

    for k in range(size):
        if m[k][k] == 0:
            pivot = next((j for j in range(k + 1, size) if m[j][j] != 0), None)
            if pivot is not None:
                col_swap(k, pivot)
            else:
                pair = next(
                    ((i, j) for i in range(k, size) for j in range(i + 1, size) if m[i][j] != 0),
                    None,
                )
                if pair is None:
                    continue  # remaining block is zero
                i, j = pair
                col_op(i, j, Fraction(1))  # makes m[i][i] = 2*m[i][j] != 0
                if i != k:
                    col_swap(k, i)
        for j in range(k + 1, size):
            if m[k][j] != 0:
                col_op(j, k, -m[k][j] / m[k][k])
    diagonal = tuple(m[i][i] for i in range(size))
    return Diagonalization(
        diagonal=diagonal,
        transform=tuple(tuple(row) for row in pmat),
        squarefree_form=tuple(squarefree_rescale(d) for d in diagonal),
    )


# ---------------------------------------------------------------------------
# the certified 3-dimensional subspace
# ---------------------------------------------------------------------------

SUBSPACE_BASIS = (
    CycloElement.of(0, 1, 1, 0),   # eta + eta^2
    CycloElement.of(-1, 0, 0, 1),  # -1 + eta^3
    CycloElement.of(1, 1, 0, 0),   # 1 + eta
)

# Gram matrix of the isotropy form restricted to SUBSPACE_BASIS:
# c1^2 + c2^2 + c3^2 + c1*c3 - 3*c2*c3.
PARAMETRIZED_FORM = (
    (Fraction(1), Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(1), Fraction(-3, 2)),
    (Fraction(1, 2), Fraction(-3, 2), Fraction(1)),
)


def subspace_element(c1, c2, c3) -> CycloElement:
    b = ZERO
    for c, vec in zip((c1, c2, c3), SUBSPACE_BASIS):
        b = b + vec * Fraction(c)
    return b


def parametrized_value(c1, c2, c3) -> Fraction:
    """The quadratic form PARAMETRIZED_FORM at (c1, c2, c3)."""
    vec = (Fraction(c1), Fraction(c2), Fraction(c3))
    return sum(vec[i] * PARAMETRIZED_FORM[i][j] * vec[j] for i in range(3) for j in range(3))


def _pfaffian4(g) -> Fraction:
    return g[0][1] * g[2][3] - g[0][2] * g[1][3] + g[0][3] * g[1][2]


# ---------------------------------------------------------------------------
# integer kernels over blocks of rows
# ---------------------------------------------------------------------------
#
# A block of rational rows is first scaled row by row by a common
# denominator D.  That changes neither whether a Pfaffian vanishes nor
# whether a homogeneous degree-2 identity holds (both sides scale by D^2).
# Every kernel computes in the dtype of its rows.  The program's rows are
# int64 with entries below ENTRY_BOUND: grid coefficients are at most
# GRID_CEILING, and a cleared fraction n/d at most 99 * 83980 < 2^23, 83980
# being the largest lcm of four denominators in [1, 20].  The largest kernel
# value is the Pfaffian, 3 * (15 * 2^23)^2 < 2^55.5, 15 being the largest
# column sum of |subspace_basis_grams()|.  Object rows (tests only) stay exact.

NUMERATORS = (-99, 99)  # closed ranges of the random fractions n/d
DENOMINATORS = (1, 20)
ENTRY_BOUND = 2**23

def _integer_matrix(rows) -> np.ndarray:
    return np.array([[int(c) for c in row] for row in rows], dtype=np.int64)


_SUBSPACE_COORDS = _integer_matrix(v.coords for v in SUBSPACE_BASIS)
# row k holds the coordinates of sigma(eta^k); rows act on the right
_SIGMA_MATRIX = _integer_matrix(u.coords for u in _SIGMA_IMAGES)
_SIGMA2_MATRIX = _SIGMA_MATRIX @ _SIGMA_MATRIX
# folds the degree <= 6 coefficients of a product by eta^4 and eta^5 = 1, eta^6 = eta
_FOLD = np.vstack([np.eye(4, dtype=np.int64), _MINPOLY_FOLD, np.eye(2, 4, dtype=np.int64)])
# x^T U x with U upper triangular: the degeneracy coefficient, and PARAMETRIZED_FORM
_DEGENERACY_UPPER = np.array(
    [[0, -1, 1, 1], [0, 0, -1, 1], [0, 0, 0, -1], [0, 0, 0, 0]], dtype=np.int64
)
_PARAMETRIZED_UPPER = _integer_matrix(
    [(2 if j > i else int(j == i)) * PARAMETRIZED_FORM[i][j] for j in range(3)] for i in range(3)
)


def _quadratic_rows(rows: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """x^T upper x for every row x."""
    return ((rows @ upper) * rows).sum(axis=1)


def _clear_denominators(nums: np.ndarray, dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer rows D * nums / dens, D the lcm of the row's denominators, and each D."""
    scale = np.lcm.reduce(dens, axis=1)
    return nums * (scale[:, None] // dens), scale


def subspace_basis_grams() -> np.ndarray:
    """The (3, 4, 4) integer Grams of SUBSPACE_BASIS, by gram_rational."""
    grams = np.array([gram_rational(v)[0] for v in SUBSPACE_BASIS], dtype=object)
    if any(e.denominator != 1 for e in grams.flat):
        raise InternalCheckError("the Grams of SUBSPACE_BASIS are not integral")
    return grams.astype(np.int64)


def combined_gram_stack(rows: np.ndarray, basis_grams: np.ndarray) -> np.ndarray:
    """(B, 4, 4) Grams of the integer combinations, one per row of a
    (B, k) block, of the k elements whose Grams are basis_grams.  The
    Gram is linear in b, so this is one contraction with the basis Grams."""
    return np.tensordot(rows, basis_grams, axes=1)


def pfaffian_stack(grams: np.ndarray) -> np.ndarray:
    """Pfaffians of a (B, 4, 4) stack of alternating matrices.  A 4x4
    alternating matrix has rank 4 exactly when its Pfaffian is nonzero."""
    return _pfaffian4(grams.transpose(1, 2, 0))


def norm_to_quadratic_subfield_stack(rows: np.ndarray) -> np.ndarray:
    """b * sigma^2(b) in Z[eta] for every integer coordinate row b."""
    conj = rows @ _SIGMA2_MATRIX
    conv = np.zeros((len(rows), 7), dtype=rows.dtype)
    for k in range(4):
        conv[:, k : k + 4] += rows[:, k, None] * conj
    return conv @ _FOLD


def _grid_rows(bound: int, size: int):
    """Nonzero points of [-bound, bound]^3, c3 fastest, in blocks of at most size rows."""
    side = 2 * bound + 1
    total = side**3
    for start in range(0, total, size):
        flat = np.arange(start, min(start + size, total), dtype=np.int64)
        rows = np.stack([flat // side**2, flat // side % side, flat % side], axis=1) - bound
        rows = rows[rows.any(axis=1)]
        if len(rows):
            yield rows


def _coefficient_block(rows: np.ndarray, spot: tuple, spot_scale: int) -> tuple[int, bool]:
    """Coefficient-identity failures over a block of integer rows b, and
    the sign convention at the block's first row.  That row is `spot`
    scaled by `spot_scale`; the Fraction path recomputes it and any
    disagreement raises InternalCheckError."""
    norms = norm_to_quadratic_subfield_stack(rows)
    outside = (norms[:, 1] != 0) | (norms[:, 2] != norms[:, 3])
    if outside.any():
        raise InternalCheckError(
            f"b * sigma^2(b) is outside the quadratic subfield for scaled b = {rows[outside.argmax()]}"
        )
    coeffs = _quadratic_rows(rows, _DEGENERACY_UPPER)
    reference = norm_to_quadratic_subfield(CycloElement(spot))
    square = spot_scale**2
    if (
        [c * square for c in reference.coords] != norms[0].tolist()
        or degeneracy_coefficient(*spot) * square != int(coeffs[0])
    ):
        raise InternalCheckError(f"integer norm kernel disagrees with the Fraction path at b = {spot}")
    sign_ok = isotropy_form(*spot) == -degeneracy_coefficient(*spot)
    return int((norms[:, 2] != coeffs).sum()), sign_ok


def _subspace_block(
    rows: np.ndarray, basis_grams: np.ndarray, spot: tuple, spot_scale: int
) -> tuple[int, bool]:
    """Rank-4 count and whether the parametrization identity holds over a
    block of integer coefficient rows.  The first row is `spot` scaled by
    `spot_scale`; the Fraction path recomputes it and any disagreement
    raises InternalCheckError."""
    grams = combined_gram_stack(rows, basis_grams)
    pfaffians = pfaffian_stack(grams)
    coords = rows @ _SUBSPACE_COORDS
    holds = _quadratic_rows(coords, _DEGENERACY_UPPER) == -_quadratic_rows(rows, _PARAMETRIZED_UPPER)
    b = subspace_element(*spot)
    entries, rank = gram_rational(b)
    square = spot_scale**2
    if (
        [[e * spot_scale for e in row] for row in entries] != grams[0].tolist()
        or _pfaffian4(entries) * square != int(pfaffians[0])
        or (rank == 4) != (pfaffians[0] != 0)
        or (degeneracy_coefficient(*b.coords) == -parametrized_value(*spot)) != holds[0]
    ):
        raise InternalCheckError(f"integer Gram kernels disagree with the Fraction path at c = {spot}")
    return int((pfaffians != 0).sum()), bool(holds.all())


def _random_blocks(rng: Stream, samples: int, size: int, width: int, nonzero: bool):
    """`samples` random rows of `width` fractions n/d, n in NUMERATORS and
    d in DENOMINATORS, in blocks of at most `size` rows; each block draws
    all its numerators, then all its denominators.  Yields each block
    scaled to int64, with its first row as fractions and that row's
    scale, both in Python integers; `nonzero` drops zero rows."""
    for start in range(0, samples, size):
        count = min(size, samples - start)
        nums = rng.integers(NUMERATORS[0], NUMERATORS[1] + 1, size=(count, width))
        dens = rng.integers(DENOMINATORS[0], DENOMINATORS[1] + 1, size=(count, width))
        if nonzero:
            keep = nums.any(axis=1)
            nums, dens = nums[keep], dens[keep]
        if len(nums):
            rows, scale = _clear_denominators(nums, dens)
            yield rows, tuple(map(Fraction, nums[0].tolist(), dens[0].tolist())), int(scale[0])


GRID_CEILING = 50  # the largest g with (2g + 1)^3 - 1 <= EXHAUSTIVE_CEILING grid points


def check_section6_size(grid: int, samples: int) -> None:
    """Raise InvalidArgument unless 1 <= grid <= GRID_CEILING and
    1 <= samples <= EXHAUSTIVE_CEILING: an empty check would pass having
    checked nothing, and each bound keeps its walk to at most 2^20 rows."""
    for name, value, ceiling in (("grid", grid, GRID_CEILING), ("samples", samples, EXHAUSTIVE_CEILING)):
        if value < 1:
            raise InvalidArgument(f"{name} must be >= 1, got {value}")
        if value > ceiling:
            raise InvalidArgument(f"{name} must be <= {ceiling}, got {value}")


def verify_section6(grid: int = 10, samples: int = 1000, seed: int = 0) -> Report:
    """Run the whole certificate chain.

    1. The closed-form degeneracy coefficient equals the coordinate
       extracted from b * sigma^2(b), on `samples` random rational
       tuples (exact equality), and is the exact negative of the
       isotropy form (checked on the first tuple of every block).
    2. Restricted to the certified basis, the coefficient equals the
       negative of the quadratic form encoded by PARAMETRIZED_FORM.
    3. That form diagonalizes by an exact congruence to <1, 1, -3/2>,
       square-free rescale (1, 1, -6), which the residue conditions
       show has no nontrivial rational zero: every nonzero rational
       combination of the basis therefore has a rank-4 form.  The
       search of isotropic_witness must agree, finding no zero in its
       box of 3 * 3 * 2 points; a disagreement raises InternalCheckError.
    4. An integer grid with coefficients in [-grid, grid] plus random
       rational combinations confirm rank 4 pointwise.  The zero
       combinations drawn are dropped; if every one is zero, the random
       check fails, having checked nothing.

    Steps 1 and 4 run on int64 arrays, in blocks of rows sized by
    linalg.block_rows.  In every block the first row is recomputed by
    the Fraction path (gram_rational, norm_to_quadratic_subfield and
    degeneracy_coefficient); a disagreement raises InternalCheckError.
    """
    check_section6_size(grid, samples)
    rng = Stream(seed)
    size = block_rows(4)

    coefficient_failures = 0
    sign_ok = True
    for rows, spot, scale in _random_blocks(rng, samples, size, 4, nonzero=False):
        failures, spot_sign_ok = _coefficient_block(rows, spot, scale)
        coefficient_failures += failures
        sign_ok = sign_ok and spot_sign_ok

    diag = diagonalize_ternary(PARAMETRIZED_FORM)
    congruence_ok = _congruence_holds(PARAMETRIZED_FORM, diag)
    form = TernaryForm(*diag.squarefree_form)
    legendre = legendre_certificate(form)
    anisotropic = not all(legendre.values())
    witness = isotropic_witness(*form.triple())  # Holzer's bound: none in the box exactly when anisotropic
    if (witness is None) != anisotropic:
        raise InternalCheckError(
            f"the residue conditions and the witness search disagree on {form.triple()}: "
            f"anisotropic={anisotropic}, witness={witness}"
        )

    # grid + random sampling; Gram is linear in b, so combine basis Grams
    basis_grams = subspace_basis_grams()
    parametrization_ok = True
    grid_checked = 0
    grid_rank4 = 0
    for rows in _grid_rows(grid, size):
        rank4, holds = _subspace_block(rows, basis_grams, tuple(int(c) for c in rows[0]), 1)
        grid_checked += len(rows)
        grid_rank4 += rank4
        parametrization_ok = parametrization_ok and holds
    random_checked = 0
    random_rank4 = 0
    for rows, spot, scale in _random_blocks(rng, samples, size, 3, nonzero=True):
        rank4, holds = _subspace_block(rows, basis_grams, spot, scale)
        random_checked += len(rows)
        random_rank4 += rank4
        parametrization_ok = parametrization_ok and holds
    return Report(
        conditions={
            "coefficient_identity": coefficient_failures == 0,
            "sign_convention_ok": sign_ok,
            "parametrization_ok": parametrization_ok,
            "congruence_ok": congruence_ok,
            "anisotropic": anisotropic,
            "grid": grid_rank4 == grid_checked,
            "random": 0 < random_checked == random_rank4,
        },
        theorem="Section6",
        coefficient_identity={"checked": samples, "failures": coefficient_failures},
        sign_convention_ok=sign_ok,
        parametrization_ok=parametrization_ok,
        diagonal=diag.diagonal,
        squarefree_form=form.triple(),
        congruence_ok=congruence_ok,
        legendre=legendre,
        anisotropic=anisotropic,
        grid={"bound": grid, "checked": grid_checked, "rank4": grid_rank4},
        random={"checked": random_checked, "rank4": random_rank4},
        seed=seed,
        rng=RNG_NAME,
    )


def _congruence_holds(q, diag: Diagonalization) -> bool:
    size = len(q)
    p = diag.transform
    lhs = [[sum(p[r][i] * Fraction(q[r][s]) * p[s][j] for r in range(size) for s in range(size))
            for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            expect = diag.diagonal[i] if i == j else Fraction(0)
            if lhs[i][j] != expect:
                return False
    return True
