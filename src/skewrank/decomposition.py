"""Constant-rank components of the space of skew-forms and their verifiers.

Each verifier returns a TheoremReport: per-subspace rank spectra plus a
direct-sum certificate, with every enumeration either exhaustive or
drawn from a single seeded 64-bit generator so reports are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation, InternalCheckError, WrongShape
from .fields import ExtensionContext, FieldElement
from .forms import (
    GramMatrix,
    gram,
    gram_entries,
    gram_stack,
    is_degenerate_by_norm,
    is_degenerate_by_norm_stack,
)
from .galois import SubspaceSpec, eigenspace, fixed_field_basis, order_of, two_adic_shape
from .linalg import STACK_BYTES, rank_mod, rank_mod_batch

EXHAUSTIVE_CEILING = 2**20  # never enumerate a subspace larger than this
FULL_FIELD_CEILING = 2**24  # cap for whole-field oracle enumeration
RNG_NAME = "PCG64"


@dataclass
class ComponentCheck:
    """Observed rank spectrum of one subspace of forms."""

    label: str
    dimension: int
    expected_rank: int | None
    checked: int
    mode: str  # "exhaustive" | "sampled"
    rank_spectrum: dict[int, int]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "dimension": self.dimension,
            "expected_rank": self.expected_rank,
            "checked": self.checked,
            "mode": self.mode,
            "rank_spectrum": {str(r): c for r, c in sorted(self.rank_spectrum.items())},
            "pass": self.passed,
        }


@dataclass
class TheoremReport:
    """Result of one theorem verifier at a concrete (p, n) instance."""

    theorem_id: str
    p: int
    n: int
    components: list[ComponentCheck] = field(default_factory=list)
    direct_sum_ok: bool | None = None
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components) and self.direct_sum_ok is not False

    def instance_dict(self) -> dict:
        alpha, k = two_adic_shape(self.n)
        a, l = two_adic_shape(self.p + 1)
        return {"p": self.p, "n": self.n, "a": a, "l": l, "alpha": alpha, "k": k}

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "instance": self.instance_dict(),
            "components": [c.to_json_dict() for c in self.components],
            "direct_sum_ok": self.direct_sum_ok,
            "seed": self.seed,
            "rng": RNG_NAME,
            "pass": self.passed,
        }


@dataclass
class ComponentReport:
    """Image of b -> gram(b, i) on the power basis of L."""

    i: int
    dimension: int
    basis_grams: list[GramMatrix]
    order: int
    classification: str  # "involution" | "odd_order" | "even_order"


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

def _coefficient_rows_exhaustive(p: int, dim: int) -> np.ndarray:
    """All nonzero coefficient tuples of GF(p)^dim, counting order."""
    grid = np.indices((p,) * dim).reshape(dim, -1).T[:, ::-1]
    return grid[1:]  # drop the zero row


def _coefficient_rows_sampled(p: int, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    rows = rng.integers(0, p, size=(count, dim), dtype=np.int64)
    # resample any all-zero draws
    while True:
        zero = ~rows.any(axis=1)
        if not zero.any():
            return rows
        rows[zero] = rng.integers(0, p, size=(int(zero.sum()), dim), dtype=np.int64)


def _blocks(vectors: np.ndarray, n: int):
    """Consecutive row blocks sized so one (B, n, n) stack of int64 fits STACK_BYTES."""
    size = max(1, STACK_BYTES // (8 * n * n))
    for start in range(0, len(vectors), size):
        yield vectors[start : start + size]


def _block_ranks(ctx: ExtensionContext, block: np.ndarray, i: int) -> np.ndarray:
    """Gram ranks of a block of coefficient rows by the stacked kernels.

    The block's first row is recomputed by the scalar path; a different
    Gram or rank raises InternalCheckError.
    """
    grams = gram_stack(ctx, block, i)
    ranks = rank_mod_batch(grams, ctx.p)
    scalar = gram_entries(ctx, block[0], i)
    if not np.array_equal(scalar, grams[0]) or rank_mod(scalar, ctx.p) != ranks[0]:
        raise InternalCheckError(
            f"stacked Gram rank disagrees with the scalar path for b={ctx.element(block[0])}, i={i}"
        )
    return ranks


def _tally(histogram: dict[int, int], ranks: np.ndarray) -> None:
    for r, count in enumerate(np.bincount(ranks).tolist()):
        if count:
            histogram[r] = histogram.get(r, 0) + count


def rank_spectrum_check(
    ctx: ExtensionContext,
    i: int,
    basis_matrix: np.ndarray,
    label: str,
    expected_rank: int | None,
    allowed_ranks: set[int] | None = None,
    sample_cap: int = 10_000,
    rng: np.random.Generator | None = None,
    require_attained: bool = True,
) -> ComponentCheck:
    """Rank histogram of gram(b, i) over the span of basis_matrix rows.

    Exhaustive when the subspace has at most sample_cap nonzero
    elements (hard ceiling 2**20), otherwise sample_cap seeded samples.
    With an expected_rank, passing means every checked element hits it
    exactly; with allowed_ranks, the support must stay inside the set
    and (for exhaustive runs) attain all of it.
    """
    dim = basis_matrix.shape[0]
    size = ctx.p**dim - 1
    if size <= min(sample_cap, EXHAUSTIVE_CEILING):
        rows = _coefficient_rows_exhaustive(ctx.p, dim)
        mode = "exhaustive"
    else:
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        rows = _coefficient_rows_sampled(ctx.p, dim, sample_cap, rng)
        mode = "sampled"
    vectors = (rows.astype(ctx._dtype) @ basis_matrix) % ctx.p
    spectrum: dict[int, int] = {}
    for block in _blocks(vectors, ctx.n):
        _tally(spectrum, _block_ranks(ctx, block, i))
    if expected_rank is not None:
        ok = set(spectrum) == {expected_rank}
    elif allowed_ranks is not None:
        ok = set(spectrum) <= allowed_ranks
        if require_attained and mode == "exhaustive":
            ok = ok and set(spectrum) == allowed_ranks
    else:
        ok = True
    return ComponentCheck(
        label=label,
        dimension=dim,
        expected_rank=expected_rank,
        checked=len(vectors),
        mode=mode,
        rank_spectrum=spectrum,
        passed=ok,
    )


def _spec_check(
    ctx: ExtensionContext,
    i: int,
    spec: SubspaceSpec,
    sample_cap: int,
    rng: np.random.Generator,
) -> ComponentCheck:
    return rank_spectrum_check(
        ctx,
        i,
        spec.basis_matrix(),
        label=spec.label,
        expected_rank=spec.expected_rank,
        sample_cap=sample_cap,
        rng=rng,
    )


# ---------------------------------------------------------------------------
# components of the full space of skew-forms
# ---------------------------------------------------------------------------

def build_component(ctx: ExtensionContext, i: int) -> ComponentReport:
    """Image of the power basis under b -> gram(b, i).

    Non-involutions give n independent images (the map is injective);
    the involution's image has dimension exactly n/2 and the returned
    basis is the greedy maximal independent subset in basis order.
    Violations of either fact raise InternalCheckError.
    """
    if not 1 <= i < ctx.n:
        raise ValueError(f"component index must be in [1, {ctx.n}), got {i}")
    n, p = ctx.n, ctx.p
    o = order_of(ctx, i)
    if o == 2:
        classification = "involution"
    elif o % 2 == 1:
        classification = "odd_order"
    else:
        classification = "even_order"
    grams = [gram(ctx, b, i) for b in ctx.power_basis()]
    vectors = np.array([g.upper_vector() for g in grams], dtype=ctx._dtype)
    if classification == "involution":
        kept: list[GramMatrix] = []
        kept_rows: list[np.ndarray] = []
        for g, row in zip(grams, vectors):
            cand = np.array(kept_rows + [row], dtype=ctx._dtype)
            if rank_mod(cand, p) == len(kept_rows) + 1:
                kept.append(g)
                kept_rows.append(row)
        if len(kept) != n // 2:
            raise InternalCheckError(
                f"involution component has dimension {len(kept)} != n/2 = {n // 2}"
            )
        return ComponentReport(i=i, dimension=len(kept), basis_grams=kept,
                               order=o, classification=classification)
    if rank_mod(vectors, p) != n:
        raise InternalCheckError(f"component {i} images are dependent for a non-involution")
    return ComponentReport(i=i, dimension=n, basis_grams=grams,
                           order=o, classification=classification)


def component_representatives(n: int) -> list[int]:
    """One automorphism power per component: 1..floor((n-1)/2), plus n/2."""
    reps = list(range(1, (n - 1) // 2 + 1))
    if n % 2 == 0:
        reps.append(n // 2)
    return reps


def _allowed_ranks(n: int, o: int) -> tuple[int | None, set[int] | None]:
    """(expected constant rank, allowed dichotomy support) for order o."""
    if o % 2 == 1:
        return n - n // o, None
    return None, {n, n - 2 * n // o}


def verify_direct_sum(
    ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000
) -> TheoremReport:
    """Full decomposition of the space of skew-forms on L.

    Certifies component dimensions (n/2 for the involution, n
    otherwise), the independence of all flattened Gram bases (total
    n(n-1)/2), and per-component rank spectra: constant n - n/ord for
    odd order, support inside {n - 2n/ord, n} for even order.
    """
    n, p = ctx.n, ctx.p
    rng = np.random.Generator(np.random.PCG64(seed))
    reps = component_representatives(n)
    stacked: list[np.ndarray] = []
    components: list[ComponentCheck] = []
    full = np.eye(n, dtype=ctx._dtype)  # all of L, in the power basis
    for i in reps:
        comp = build_component(ctx, i)
        stacked.extend(g.upper_vector() for g in comp.basis_grams)
        expected_dim = n // 2 if comp.classification == "involution" else n
        if comp.dimension != expected_dim:
            raise InternalCheckError(f"component {i} has dimension {comp.dimension}")
        if comp.classification == "involution":
            expected, allowed = None, {0, n}
        else:
            expected, allowed = _allowed_ranks(n, comp.order)
        check = rank_spectrum_check(
            ctx, i, full,
            label=f"A^{i}" if comp.classification != "involution" else "B^1",
            expected_rank=expected,
            allowed_ranks=allowed,
            sample_cap=sample_cap,
            rng=rng,
        )
        check.dimension = comp.dimension  # of the form space, not the parameter space
        components.append(check)
    total = n * (n - 1) // 2
    mat = np.array(stacked, dtype=ctx._dtype)
    direct_sum_ok = len(stacked) == total and rank_mod(mat, p) == total
    return TheoremReport(
        theorem_id="T1" if n % 2 else "T2",
        p=p, n=n,
        components=components,
        direct_sum_ok=direct_sum_ok,
        seed=seed,
    )


def find_nondegenerate_b(ctx: ExtensionContext, i: int) -> FieldElement:
    """First power of the multiplicative generator giving a rank-n form.

    Deterministic and cached per context; existence is guaranteed for
    even-order sigma^i.
    """
    if order_of(ctx, i) % 2 != 0:
        raise WrongShape(f"sigma^{i} has odd order; every form has the same deficient rank")
    cached = ctx._nondegenerate_cache.get(i)
    if cached is not None:
        return cached
    g = ctx.multiplicative_generator()
    o = order_of(ctx, i)
    x = g
    for _ in range(ctx.order - 1):
        if o == 2:
            degenerate = rank_mod(gram_entries(ctx, x.vector(), i), ctx.p) < ctx.n
        else:
            degenerate = is_degenerate_by_norm(ctx, x, i)
        if not degenerate:
            ctx._nondegenerate_cache[i] = x
            return x
        x = x * g
    raise InternalCheckError(f"no non-degenerate element found for i={i}")  # unreachable


def theorem_A_subspaces(ctx: ExtensionContext) -> tuple[SubspaceSpec, SubspaceSpec]:
    """(U, V) for n = 2k, k odd > 1: V is the fixed field of sigma^k and
    U = jV for the first non-degenerate j."""
    n = ctx.n
    if n % 2 != 0 or (n // 2) % 2 == 0:
        raise WrongShape("n/2 must be odd")
    if n // 2 == 1:
        raise HypothesisViolation(
            "k = 1 leaves only the involution component; no rank-(n-2) part exists"
        )
    v_space = fixed_field_basis(ctx, n // 2)
    v_space.label, v_space.expected_rank, v_space.provenance = "V", n - 2, "TA"
    j = find_nondegenerate_b(ctx, 1)
    u_space = SubspaceSpec(
        label="U",
        basis=[j * v for v in v_space.basis],
        expected_rank=n,
        provenance="TA",
    )
    return u_space, v_space


def verify_theorem_A(
    ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000
) -> TheoremReport:
    """Split of the i=1 component for n = 2k, k odd and > 1.

    V is the fixed field of sigma^k (all nonzero forms rank n-2) and
    U = jV for the first non-degenerate j (all nonzero forms rank n);
    together they span L.
    """
    n = ctx.n
    rng = np.random.Generator(np.random.PCG64(seed))
    u_space, v_space = theorem_A_subspaces(ctx)
    combined = np.vstack([u_space.basis_matrix(), v_space.basis_matrix()])
    direct_sum_ok = combined.shape[0] == n and rank_mod(combined, ctx.p) == n
    components = [
        _spec_check(ctx, 1, u_space, sample_cap, rng),
        _spec_check(ctx, 1, v_space, sample_cap, rng),
    ]
    return TheoremReport(
        theorem_id="TA", p=ctx.p, n=n,
        components=components, direct_sum_ok=direct_sum_ok, seed=seed,
    )


def eigen_decomposition_subspaces(ctx: ExtensionContext) -> list[SubspaceSpec]:
    """V1, V2 and the -1 eigenspaces E_1..E_{alpha-1} for n = 2^alpha * k."""
    n = ctx.n
    alpha, k = two_adic_shape(n)
    if alpha < 2:
        raise WrongShape("n must be divisible by 4")
    spaces = [
        eigenspace(ctx, k, 1, label="V1"),
        eigenspace(ctx, k, -1, label="V2"),
    ]
    for idx in range(1, alpha):
        spaces.append(eigenspace(ctx, n >> idx, -1, label=f"E{idx}"))
    return spaces


def verify_theorem_C(
    ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000
) -> TheoremReport:
    """Eigenspace decomposition of the i=1 component over GF(p), p = 3 mod 4.

    With p + 1 = 2^a * l (l odd) and n = 2^alpha * k (k odd, alpha >= 2):
    V1, V2 always carry constant rank n-2; each E_idx carries constant
    rank n, except that when alpha > a+1 and l = 1 the spaces E_idx
    with idx > a carry constant rank n-2.  Also certifies that the
    pieces span L.
    """
    p, n = ctx.p, ctx.n
    if p % 4 != 3:
        raise HypothesisViolation(f"-1 is a square in GF({p})")
    alpha, k = two_adic_shape(n)
    if alpha < 2:
        raise WrongShape("n must be divisible by 4")
    a, l = two_adic_shape(p + 1)
    if alpha > a + 1 and l != 1:
        raise HypothesisViolation(
            f"alpha={alpha} > a+1={a + 1} with l={l} > 1: constant rank fails; "
            "use the cyclic-slice check instead"
        )
    theorem_id = "TC1" if alpha <= a + 1 else "TC2"
    rng = np.random.Generator(np.random.PCG64(seed))
    spaces = eigen_decomposition_subspaces(ctx)
    for spec in spaces:
        if spec.label in ("V1", "V2"):
            spec.expected_rank = n - 2
            expected_dim = k
        else:
            idx = int(spec.label[1:])
            spec.expected_rank = n if (theorem_id == "TC1" or idx <= a) else n - 2
            expected_dim = n >> idx
        spec.provenance = theorem_id
        if spec.dimension != expected_dim:
            raise InternalCheckError(f"{spec.label} has dimension {spec.dimension} != {expected_dim}")
    combined = np.vstack([s.basis_matrix() for s in spaces])
    direct_sum_ok = combined.shape[0] == n and rank_mod(combined, p) == n
    components = [_spec_check(ctx, 1, s, sample_cap, rng) for s in spaces]
    return TheoremReport(
        theorem_id=theorem_id, p=p, n=n,
        components=components, direct_sum_ok=direct_sum_ok, seed=seed,
    )


def remark_C_check(ctx: ExtensionContext, i_index: int, seed: int = 0) -> TheoremReport:
    """Degeneracy pattern on the cyclic slice through E_{i_index} when
    constant rank fails (alpha > a+1 and l > 1).

    C = {b : b^(2(q^t - 1)) = 1} with t = n/2^i_index is cyclic with a
    deterministic generator u; u^s lies in E_{i_index} exactly for odd
    s, and the form of u^s is degenerate exactly when l divides s.
    Both the norm predicate and the actual rank are checked.
    """
    p, n = ctx.p, ctx.n
    alpha, _ = two_adic_shape(n)
    a, l = two_adic_shape(p + 1)
    if l == 1:
        raise HypothesisViolation(f"p + 1 = 2^{a} has odd part 1; eigenspaces keep constant rank")
    if alpha <= a + 1:
        raise HypothesisViolation(f"alpha={alpha} <= a+1={a + 1}; eigenspaces keep constant rank")
    if not a + 1 <= i_index <= alpha - 1:
        raise HypothesisViolation(f"i_index must be in [{a + 1}, {alpha - 1}], got {i_index}")
    t = n >> i_index
    csize = 2 * (p**t - 1)
    if (p**n - 1) % csize != 0:
        raise InternalCheckError("cyclic slice size does not divide the unit group order")
    g = ctx.multiplicative_generator()
    u = g ** ((p**n - 1) // csize)
    if ctx.element_order(u) != csize:
        raise InternalCheckError("slice generator has the wrong order")
    sigma_t = ctx.sigma_power_matrix(t)
    spectra: dict[bool, dict[int, int]] = {True: {}, False: {}}
    counts = {True: 0, False: 0}
    membership_ok = True
    pattern_ok = True
    x = ctx.one()
    for s in range(csize):
        if s:
            x = x * u
        in_eigenspace = ctx.frobenius_power(x, t) == -x
        if in_eigenspace != (s % 2 == 1):
            membership_ok = False
        if s % 2 == 0:
            continue
        expect_degenerate = s % l == 0
        degenerate = is_degenerate_by_norm(ctx, x, 1)
        r = rank_mod(gram_entries(ctx, x.vector(), 1), p)
        if degenerate != expect_degenerate or (r < n) != degenerate:
            pattern_ok = False
        counts[expect_degenerate] += 1
        spectra[expect_degenerate][r] = spectra[expect_degenerate].get(r, 0) + 1
    components = [
        ComponentCheck(
            label=f"E{i_index} slice: odd exponents divisible by {l}",
            dimension=0,
            expected_rank=n - 2,
            checked=counts[True],
            mode="exhaustive",
            rank_spectrum=spectra[True],
            passed=pattern_ok and set(spectra[True]) == {n - 2},
        ),
        ComponentCheck(
            label=f"E{i_index} slice: odd exponents not divisible by {l}",
            dimension=0,
            expected_rank=n,
            checked=counts[False],
            mode="exhaustive",
            rank_spectrum=spectra[False],
            passed=pattern_ok and set(spectra[False]) == {n},
        ),
    ]
    return TheoremReport(
        theorem_id="RemarkC", p=p, n=n,
        components=components,
        direct_sum_ok=membership_ok,
        seed=seed,
    )


def verify_corollary_odd_order(
    ctx: ExtensionContext, i: int, seed: int = 0, sample_cap: int = 10_000
) -> TheoremReport:
    """Constant rank n - n/ord on the whole component when ord(sigma^i) is odd."""
    o = order_of(ctx, i)
    if o % 2 == 0 or o == 1:
        raise WrongShape(f"sigma^{i} has order {o}; need odd order > 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = ctx.n
    check = rank_spectrum_check(
        ctx, i, np.eye(n, dtype=ctx._dtype),
        label=f"A^{i}",
        expected_rank=n - n // o,
        sample_cap=sample_cap,
        rng=rng,
    )
    return TheoremReport(
        theorem_id="T1" if n % 2 else "T2",
        p=ctx.p, n=n,
        components=[check],
        direct_sum_ok=None,
        seed=seed,
    )


@dataclass
class OracleReport:
    """Whole-field rank census: histogram per automorphism power, the
    dichotomy support check, and the predicate/rank cross-validation."""

    p: int
    n: int
    mode: str
    checked: int
    histograms: dict[int, dict[int, int]]
    support_ok: bool
    degenerate_counts: dict[int, int]
    predicate_checked: int
    predicate_disagreements: int
    seed: int
    warning: str | None = None

    @property
    def passed(self) -> bool:
        return self.support_ok and self.predicate_disagreements == 0

    def to_json_dict(self) -> dict:
        out = {
            "theorem": "oracle",
            "instance": {"p": self.p, "n": self.n},
            "mode": self.mode,
            "checked": self.checked,
            "histograms": {
                str(i): {str(r): c for r, c in sorted(h.items())}
                for i, h in sorted(self.histograms.items())
            },
            "support_ok": self.support_ok,
            "degenerate_counts": {str(i): c for i, c in sorted(self.degenerate_counts.items())},
            "predicate_checked": self.predicate_checked,
            "predicate_disagreements": self.predicate_disagreements,
            "seed": self.seed,
            "rng": RNG_NAME,
            "pass": self.passed,
        }
        if self.warning is not None:
            out["warning"] = self.warning
        return out


def oracle_survey(
    ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000
) -> OracleReport:
    """Enumerate b over the unit group and tabulate rank(gram(b, i)) for
    every i in 1..n-1, asserting the predicted supports and cross-
    validating the norm predicate against the rank wherever it applies.
    """
    p, n = ctx.p, ctx.n
    warning = None
    if ctx.order <= FULL_FIELD_CEILING:
        rows = _coefficient_rows_exhaustive(p, n)
        mode = "exhaustive"
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = _coefficient_rows_sampled(p, n, sample_cap, rng)
        mode = "sampled"
        warning = f"field size {ctx.order} exceeds {FULL_FIELD_CEILING}; sampled {sample_cap}"
    histograms: dict[int, dict[int, int]] = {i: {} for i in range(1, n)}
    degenerate_counts = {i: 0 for i in range(1, n)}
    predicate_checked = 0
    predicate_disagreements = 0
    predicate_powers = {i for i in range(1, n) if order_of(ctx, i) > 2}
    for block in _blocks(rows.astype(ctx._dtype, copy=False), n):
        # one inverse per element, shared by every i
        inverses = ctx.inverse_stack(block) if predicate_powers else None
        for i in range(1, n):
            ranks = _block_ranks(ctx, block, i)
            _tally(histograms[i], ranks)
            degenerate = ranks < n
            degenerate_counts[i] += int(degenerate.sum())
            if i not in predicate_powers:
                continue
            predicate = is_degenerate_by_norm_stack(ctx, block, i, inverses)
            if is_degenerate_by_norm(ctx, ctx.element(block[0]), i) != predicate[0]:
                raise InternalCheckError(
                    f"stacked norm predicate disagrees with the scalar path for "
                    f"b={ctx.element(block[0])}, i={i}"
                )
            predicate_checked += len(block)
            predicate_disagreements += int((predicate != degenerate).sum())
    support_ok = True
    for i in range(1, n):
        o = order_of(ctx, i)
        expected, allowed = _allowed_ranks(n, o)
        support = set(histograms[i])
        if expected is not None:
            if support != {expected}:
                support_ok = False
        else:
            if not support <= allowed:
                support_ok = False
            if mode == "exhaustive" and support != allowed:
                support_ok = False
    return OracleReport(
        p=p, n=n, mode=mode, checked=len(rows),
        histograms=histograms,
        support_ok=support_ok,
        degenerate_counts=degenerate_counts,
        predicate_checked=predicate_checked,
        predicate_disagreements=predicate_disagreements,
        seed=seed,
        warning=warning,
    )
