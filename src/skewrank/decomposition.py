"""Constant-rank components of the space of skew-forms and their verifiers.

Each verifier returns a Report: the theorem verifiers give per-subspace
rank spectra (component Reports) plus a direct-sum certificate, the
oracle a whole-field rank census.  Every enumeration is either
exhaustive or drawn from one seeded PCG64 stream (skewrank.stream), so
reports are reproducible byte for byte.  Each GF(p) walk (by cosets or
sampled, of a subspace, of L or of the RemarkC eigenspace) is a source of
row blocks for one driver, _ranked_blocks, which ranks and spot-checks
them; a walk keeps only its tallies and its own checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import linalg
from .arith import factorize
from .errors import HypothesisViolation, InternalCheckError, WrongShape
from .fields import ExtensionContext, FieldElement, _QuotientRing
from .forms import degeneracy_witness, gram_entries, gram_stack, is_degenerate_by_norm, norm_predicates
from .galois import eigenspace, fixed_field_basis, order_of, two_adic_shape
from .linalg import block_rows, matmul_mod, rank_mod, rank_mod_batch, rref_mod
from .report import Report
from .stream import RNG_NAME, Stream

EXHAUSTIVE_CEILING = 2**20  # never enumerate a subspace larger than this
FULL_FIELD_CEILING = 2**24  # cap for whole-field oracle enumeration
_Space = tuple[str, FieldElement, int, int]  # (label, b0, t, rank): b0*GF(p^t) of constant rank


def _theorem_report(
    theorem: str, ctx: ExtensionContext, components: list[Report], direct_sum_ok: bool, seed: int
) -> Report:
    """Component rank spectra at (p, n) plus a direct-sum certificate;
    passes when every component does and the certificate holds."""
    alpha, k = two_adic_shape(ctx.n)
    a, l = two_adic_shape(ctx.p + 1)
    return Report(
        conditions={"components": components, "direct_sum_ok": direct_sum_ok},
        theorem=theorem,
        instance={"p": ctx.p, "n": ctx.n, "a": a, "l": l, "alpha": alpha, "k": k},
        components=components,
        direct_sum_ok=direct_sum_ok,
        seed=seed,
        rng=RNG_NAME,
    )


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

def _sampled_blocks(p: int, dim: int, n: int, count: int, rng: Stream):
    """Blocks of at most block_rows(n) coefficient rows of GF(p)^dim: `count`
    draws from `rng` with any all-zero draw redrawn.

    Rows are drawn in chunks of whole blocks, at most STACK_BYTES of
    values, and each chunk's nonzero rows are yielded, so a chunk gives at
    most one short block; drawing goes on until `count` nonzero rows are
    kept.  A draw gives the same values split over calls or not, so the
    rows, as a multiset, and `rng` after the last block are those of one
    call drawing all rows, then rounds redrawing the rows still zero.
    `rng` advances only as blocks are taken: take every block before
    drawing from it again.
    """
    size = block_rows(n)
    chunk = max(size, linalg.STACK_BYTES // (8 * dim) // size * size)
    left = count
    while left:
        rows = rng.integers(0, p, size=(min(chunk, left), dim))
        rows = rows[rows.any(axis=1)]
        left -= len(rows)
        for offset in range(0, len(rows), size):
            yield rows[offset : offset + size]


def slice_generator(ctx: ExtensionContext, csize: int) -> FieldElement:
    """The first x in counting order from index p whose image
    u = x^((q-1)/csize) generates C, the cyclic subgroup of order csize
    of L^x: u^(csize/r) != 1 for every prime r | csize.  Then for every
    m | csize, x^((q-1)/m) has order m, so x^0 .. x^(m-1) lie in the m
    distinct cosets of the m-th powers.  _coset_walk asks for the coset
    index m of every exhaustive spectrum (rank_spectrum_check) and census
    power (oracle_survey), remark_C_check for its slice of order 2(p^t - 1).

    The scan is cached on (p, n, modulus, csize) and keeps only the index
    of x, trying each x on a bare ring of the modulus, so it runs once
    per field and csize in a process and keeps no context alive.  It
    starts at theta, though a scalar serves whenever csize | p - 1.
    csize is factored by trial division, at most sqrt(csize)/2 + 1
    divisors.  Trip count: x -> u maps L^x onto C with fibres of one
    size, so a share phi(csize)/csize of the units serve and at most
    (q - 1)(1 - phi(csize)/csize) + 1 elements are tried.
    """
    return ctx.from_index(_generator_index(ctx.p, ctx.n, ctx.modulus, csize))


@lru_cache(maxsize=None)
def _generator_index(p: int, n: int, modulus: tuple[int, ...], csize: int) -> int:
    q = p**n
    if (q - 1) % csize != 0:
        raise InternalCheckError(f"{csize} does not divide the unit group order {q - 1}")
    primes = list(factorize(csize))
    ring, one = _QuotientRing(p, n, modulus), np.eye(n, dtype=np.int64)[0]
    for v in range(p, q):
        u = ring._vpow(np.array([v // p**k % p for k in range(n)]), (q - 1) // csize)
        if not any(np.array_equal(ring._vpow(u, csize // r), one) for r in primes):
            return v
    raise InternalCheckError(f"no generator of the subgroup of order {csize}")  # unreachable


def _power_blocks(ctx: ExtensionContext, g: FieldElement, count: int, start: FieldElement):
    """Blocks of at most block_rows(n) rows start*g^0 .. start*g^(count - 1),
    in order, each with its exponents.  The rows g^0 .. g^(B-1) are built
    once, doubled by one stacked product per step; the block of exponents
    s0 .. s0+B-1 is then that table times start*g^s0."""
    size = min(block_rows(ctx.n), count)
    table = ctx.one().vector()[None, :]
    step = g.vector()[None, :]
    while len(table) < size:
        table = np.vstack([table, ctx.mul_stack(table, np.broadcast_to(step, table.shape))])
        step = ctx.mul_stack(step, step)
    table, shift = table[:size], g**size
    for s0 in range(0, count, size):
        rows = table[: count - s0]
        block = ctx.mul_stack(rows, np.broadcast_to(start.vector(), rows.shape))
        yield block, np.arange(s0, s0 + len(block))
        start = start * shift


def _coset_walk(ctx: ExtensionContext, b0: FieldElement, t: int, i: int, predicate_powers=()):
    """(walk, weight): the exhaustive walk of S = b0*GF(p^t) at sigma^i.

    The form of b at (cx, cy) is the form of b*c*sigma^i(c) = b*c^(1+p^i)
    at (x, y), so the rank at i is constant on b0 times each coset of the
    (1+p^i)-th powers in GF(p^t)^x.  That group is cyclic of order
    p^t - 1, so there are m = gcd(1+p^i, p^t - 1) cosets, and x^0 .. x^(m-1)
    lie in distinct ones for x = g^((q-1)/(p^t-1)), g from slice_generator
    for m.  The walk is _ranked_blocks over the rows b0*x^0 .. b0*x^(m-1)
    at i, each of which stands for weight = (p^t - 1)/m elements.
    """
    units = ctx.p**t - 1
    m = math.gcd(1 + ctx.p**i, units)
    x = slice_generator(ctx, m) ** ((ctx.order - 1) // units)
    return _ranked_blocks(ctx, _power_blocks(ctx, x, m, b0), [i], predicate_powers), units // m


def _ranked_blocks(ctx: ExtensionContext, blocks, powers, predicate_powers=()):
    """The driver under every GF(p) walk.  For each (rows, tag) block of
    nonzero elements, yields (rows, tag, ranks, predicates): {i: Gram
    ranks} for i in `powers` by gram_stack and rank_mod_batch, and {i:
    norm predicate} for i in `predicate_powers` by norm_predicates; the
    tag (exponents or None) is passed through.  The block's
    first row is recomputed by the scalar path (gram_entries, rank_mod,
    is_degenerate_by_norm); a difference raises InternalCheckError.
    """
    p = ctx.p
    for rows, tag in blocks:
        first, ranks = ctx.element(rows[0]), {}
        predicates = norm_predicates(ctx, rows, predicate_powers)
        for i, predicate in predicates.items():
            if is_degenerate_by_norm(ctx, first, i) != predicate[0]:
                raise InternalCheckError(
                    f"stacked norm predicate disagrees with the scalar path for b={first}, i={i}"
                )
        for i in powers:
            grams = gram_stack(ctx, rows, i)
            ranks[i] = rank_mod_batch(grams, p)
            scalar = gram_entries(ctx, rows[0], i)
            if not np.array_equal(scalar, grams[0]) or rank_mod(scalar, p) != ranks[i][0]:
                raise InternalCheckError(
                    f"stacked Gram rank disagrees with the scalar path for b={first}, i={i}"
                )
        yield rows, tag, ranks, predicates


def _tally(histogram: dict[int, int], ranks: np.ndarray, weight: int = 1) -> None:
    """Add each rank to the histogram `weight` times, in Python ints, so
    that no count overflows."""
    for r, count in enumerate(np.bincount(ranks).tolist()):
        if count:
            histogram[r] = histogram.get(r, 0) + count * weight


def _is_basis(mat: np.ndarray, p: int) -> bool:
    """Whether the rows of mat are a basis of GF(p)^columns: mat is
    square and of full rank, by the batched elimination (about 11 s on
    the 2016 x 2016 certificate at n = 64, where rank_mod takes 100 s)."""
    return mat.shape[0] == mat.shape[1] and bool(rank_mod_batch(mat[None], p)[0] == mat.shape[1])


def _spectrum_ok(spectrum: dict[int, int], allowed: set[int], mode: str) -> bool:
    """The pass rule of every rank spectrum: it is not empty, its support
    lies inside `allowed`, and an exhaustive run attains all of `allowed`."""
    return bool(spectrum) and set(spectrum) <= allowed and (mode != "exhaustive" or set(spectrum) == allowed)


def _span_rows(ctx: ExtensionContext, b0: FieldElement, t: int) -> np.ndarray:
    """Basis rows of S = b0*GF(p^t): b0 times each row of fixed_field_basis(ctx, t)."""
    field = fixed_field_basis(ctx, t)
    return ctx.mul_stack(field, np.broadcast_to(b0.vector(), field.shape))


def rank_spectrum_check(
    ctx: ExtensionContext,
    i: int,
    b0: FieldElement,
    t: int,
    label: str,
    allowed: set[int],
    sample_cap: int = 10_000,
    rng: Stream | None = None,
) -> Report:
    """Rank histogram of gram(b, i) over S = b0*GF(p^t), b0 != 0, t | n.

    Every space a verifier walks is of this form, and names it by (b0, t).
    Exhaustive when S has at most sample_cap nonzero elements (hard
    ceiling 2**20): one element per coset (_coset_walk), with the census
    identities checked on the last row of each block.  Otherwise
    sample_cap draws from `rng`, by default the stream of seed 0, of
    nonzero coefficient rows over _span_rows(ctx, b0, t).  Passing is
    _spectrum_ok against the `allowed` ranks; the report's expected_rank
    is the rank when `allowed` has one element.  A t that is not a
    divisor of n, or b0 = 0, raises ValueError before any walk.
    """
    p, n = ctx.p, ctx.n
    if t < 1 or n % t or not b0:
        raise ValueError(f"{label} must be b0*GF({p}^t) with b0 != 0 and t | {n}, got b0 = {b0}, t = {t}")
    mode = "exhaustive" if p**t - 1 <= min(sample_cap, EXHAUSTIVE_CEILING) else "sampled"
    if mode == "sampled":
        basis, rows = _span_rows(ctx, b0, t), _sampled_blocks(p, t, n, sample_cap, rng or Stream(0))
        walk, weight = _ranked_blocks(ctx, ((matmul_mod(block, basis, p), None) for block in rows), [i]), 1
    else:
        walk, weight = _coset_walk(ctx, b0, t, i)
    spectrum: dict[int, int] = {}
    for rows, _, ranks, _ in walk:
        if mode == "exhaustive":  # the walk stands on the coset congruence
            _check_census_identities(ctx, rows[-1], i, int(ranks[i][-1]), None)
        _tally(spectrum, ranks[i], weight)
    return Report(
        conditions={"spectrum": _spectrum_ok(spectrum, allowed, mode)},
        label=label,
        dimension=t,
        expected_rank=min(allowed) if len(allowed) == 1 else None,
        checked=p**t - 1 if mode == "exhaustive" else sample_cap,
        mode=mode,
        rank_spectrum=spectrum,
    )


# ---------------------------------------------------------------------------
# components of the full space of skew-forms
# ---------------------------------------------------------------------------

def build_component(ctx: ExtensionContext, i: int) -> np.ndarray:
    """Basis of the image of the power basis under b -> gram(b, i), one
    row of strictly upper triangular Gram entries (row-major) per element.

    Non-involutions give n independent images (the map is injective);
    the involution's image has dimension exactly n/2 and the returned
    basis is the greedy maximal independent subset in basis order, read
    off as the pivot columns of one RREF.  Violations of either fact
    raise InternalCheckError.
    """
    if not 1 <= i < ctx.n:
        raise ValueError(f"component index must be in [1, {ctx.n}), got {i}")
    n, p = ctx.n, ctx.p
    upper = np.triu_indices(n, k=1)
    vectors = gram_stack(ctx, np.eye(n, dtype=np.int64), i)[:, upper[0], upper[1]]
    _, pivots = rref_mod(vectors.T, p)
    expected = n // 2 if order_of(ctx, i) == 2 else n
    if len(pivots) != expected:
        raise InternalCheckError(f"component {i} has dimension {len(pivots)} != {expected}")
    return vectors[pivots]


def component_representatives(n: int) -> list[int]:
    """One automorphism power per component: 1..floor((n-1)/2), plus n/2."""
    reps = list(range(1, (n - 1) // 2 + 1))
    if n % 2 == 0:
        reps.append(n // 2)
    return reps


def _allowed_ranks(n: int, o: int) -> set[int]:
    """Ranks allowed for order o: the constant rank n - n/o when o is
    odd, the dichotomy support {n, n - 2n/o} when o is even."""
    if o % 2 == 1:
        return {n - n // o}
    return {n, n - 2 * n // o}


def verify_direct_sum(ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000) -> Report:
    """Full decomposition of the space of skew-forms on L.

    Certifies component dimensions (n/2 for the involution, n
    otherwise), the independence of all flattened Gram bases (total
    n(n-1)/2), and per-component rank spectra: constant n - n/ord for
    odd order, support inside {n - 2n/ord, n} for even order.
    """
    n, p = ctx.n, ctx.p
    rng = Stream(seed)
    stacked: list[np.ndarray] = []
    components: list[Report] = []
    for i in component_representatives(n):
        rows = build_component(ctx, i)  # checks the dimension: n/2 or n
        stacked.append(rows)
        o = order_of(ctx, i)
        label = "B^1" if o == 2 else f"A^{i}"
        check = rank_spectrum_check(ctx, i, ctx.one(), n, label, _allowed_ranks(n, o), sample_cap, rng)
        check.dimension = len(rows)  # of the form space, not the parameter space
        components.append(check)
    direct_sum_ok = _is_basis(np.vstack(stacked), p)  # of all n(n-1)/2 skew-forms
    return _theorem_report("T1" if n % 2 else "T2", ctx, components, direct_sum_ok, seed)


def find_nondegenerate_b(ctx: ExtensionContext, i: int) -> FieldElement:
    """First element in counting order from index p (theta) whose form
    for sigma^i has rank n; deterministic.

    The p - 1 nonzero scalars are skipped: for b in GF(p) the element
    x = 1 lies in the radical, since tr(b(sigma^i y - y)) = 0.  Trip
    count: for the involution the degenerate elements are exactly the
    fixed field GF(p^(n/2)) of sigma^i, which theta, a generator of L,
    is not in, so theta is accepted at once.  For any other even order
    the norm criterion makes the degenerate units a subgroup of index
    p^gcd(n, i) + 1 >= p + 1, so at most (q - 1)/(p + 1) + 1 elements
    are tried.
    """
    o = order_of(ctx, i)
    if o % 2 != 0:
        raise WrongShape(f"sigma^{i} has odd order; every form has the same deficient rank")
    for v in range(ctx.p, ctx.order):
        x = ctx.from_index(v)
        if o == 2:
            degenerate = rank_mod(gram_entries(ctx, x.vector(), i), ctx.p) < ctx.n
        else:
            degenerate = is_degenerate_by_norm(ctx, x, i)
        if not degenerate:
            return x
    raise InternalCheckError(f"no non-degenerate element found for i={i}")  # unreachable


def theorem_A_subspaces(ctx: ExtensionContext) -> list[_Space]:
    """[(label, b0, t, rank)] of U and V for n = 2k, k odd > 1, each
    space b0*GF(p^k): V = 1*GF(p^k) is the fixed field of sigma^k, of
    constant rank n - 2, and U = jV, for the first non-degenerate j, of
    constant rank n."""
    n = ctx.n
    if n % 2 != 0 or (n // 2) % 2 == 0:
        raise WrongShape("n/2 must be odd")
    if n // 2 == 1:
        raise HypothesisViolation(
            "k = 1 leaves only the involution component; no rank-(n-2) part exists"
        )
    return [("U", find_nondegenerate_b(ctx, 1), n // 2, n), ("V", ctx.one(), n // 2, n - 2)]


def _split_report(
    ctx: ExtensionContext, theorem: str, spaces: list[_Space], seed: int, sample_cap: int
) -> Report:
    """Certificate of a split of the i=1 component into spaces b0*GF(p^t):
    every space keeps its constant rank, and together their _span_rows
    span L."""
    rng = Stream(seed)
    components = [
        rank_spectrum_check(ctx, 1, b0, t, label, {rank}, sample_cap, rng) for label, b0, t, rank in spaces
    ]
    direct_sum_ok = _is_basis(np.vstack([_span_rows(ctx, b0, t) for _, b0, t, _ in spaces]), ctx.p)
    return _theorem_report(theorem, ctx, components, direct_sum_ok, seed)


def verify_theorem_A(ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000) -> Report:
    """Split of the i=1 component for n = 2k, k odd and > 1.

    V is the fixed field of sigma^k (all nonzero forms rank n-2) and
    U = jV for the first non-degenerate j (all nonzero forms rank n,
    for any non-degenerate j);
    together they span L.
    """
    return _split_report(ctx, "TA", theorem_A_subspaces(ctx), seed, sample_cap)


def verify_theorem_C(ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000) -> Report:
    """Eigenspace decomposition of the i=1 component over GF(p), p = 3 mod 4.

    With p + 1 = 2^a * l (l odd) and n = 2^alpha * k (k odd, alpha >= 2):
    V1, V2 always carry constant rank n-2; each E_idx carries constant
    rank n, except that when alpha > a+1 and l = 1 the spaces E_idx
    with idx > a carry constant rank n-2.  Also certifies that the
    pieces span L.

    Each piece, the eigenspace of sigma^t for lam = +1 or -1, is walked
    as b0*GF(p^t), b0 its first basis row: for any b in it, b/b0 is fixed
    by sigma^t.  So the eigenspace must have dimension t and
    sigma^t(b0) = lam*b0 must hold exactly; else InternalCheckError.
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
    theorem = "TC1" if alpha <= a + 1 else "TC2"
    # (label, t, eigenvalue of sigma^t, constant rank); each space has dimension t
    pieces = [("V1", k, 1, n - 2), ("V2", k, -1, n - 2)] + [
        (f"E{idx}", n >> idx, -1, n if theorem == "TC1" or idx <= a else n - 2)
        for idx in range(1, alpha)
    ]
    spaces = []
    for label, t, lam, rank in pieces:
        rows = eigenspace(ctx, t, lam)
        if len(rows) != t:
            raise InternalCheckError(f"{label} has dimension {len(rows)} != {t}")
        b0 = ctx.element(rows[0])
        if ctx.frobenius_power(b0, t) != ctx.scalar(lam) * b0:
            raise InternalCheckError(f"{label}: sigma^{t}(b0) != {lam}*b0 for b0 = {b0}")
        spaces.append((label, b0, t, rank))
    return _split_report(ctx, theorem, spaces, seed, sample_cap)


def remark_C_indices(p: int, n: int) -> range:
    """The eigenspace indices that Remark C covers at (p, n), smallest
    first.  With p + 1 = 2^a * l and n = 2^alpha * k (l, k odd) these are
    a+1 .. alpha-1 when l > 1; there are none when l = 1 or alpha <= a+1,
    where every eigenspace keeps constant rank."""
    alpha, _ = two_adic_shape(n)
    a, l = two_adic_shape(p + 1)
    return range(a + 1, alpha) if l > 1 else range(0)


def remark_C_slice(p: int, n: int, i_index: int | None, sample_cap: int) -> tuple[int, int]:
    """(i_index, t): the eigenspace index, the first of remark_C_indices
    when i_index is None, and t = n/2^i_index, the exponent of the slice
    that remark_C_check walks at (p, n), once its hypotheses and the
    sample cap hold; else raises HypothesisViolation.  Needs no context,
    so a caller can reject an instance before paying for the modulus
    search.
    """
    indices = remark_C_indices(p, n)
    if not indices:  # name the hypothesis that fails
        alpha, _ = two_adic_shape(n)
        a, l = two_adic_shape(p + 1)
        if l == 1:
            raise HypothesisViolation(f"p + 1 = 2^{a} has odd part 1; eigenspaces keep constant rank")
        raise HypothesisViolation(f"alpha={alpha} <= a+1={a + 1}; eigenspaces keep constant rank")
    if i_index is None:
        i_index = indices[0]
    elif i_index not in indices:
        raise HypothesisViolation(f"i_index must be in [{indices[0]}, {indices[-1]}], got {i_index}")
    t = n >> i_index
    if p**t - 1 > sample_cap:
        raise HypothesisViolation(
            f"the E{i_index} slice has {p**t - 1} odd exponents, more than the sample cap {sample_cap}"
        )
    return i_index, t


def remark_C_check(
    ctx: ExtensionContext, i_index: int, seed: int = 0, sample_cap: int = 10_000
) -> Report:
    """Degeneracy pattern on E_{i_index}, where constant rank fails.

    C = {b : b^(2(p^t - 1)) = 1}, t = n/2^i_index, is cyclic with a
    deterministic generator u.  One exact check, sigma^t(u) = -u, puts
    u^s in E_{i_index} exactly for odd s; u^2 generates GF(p^t)^x, so
    E_{i_index} = u*GF(p^t) holds the odd powers u*(u^2)^j, s = 1 + 2j.
    The form of u^s is degenerate exactly when l | s.  Rank and l | s
    (l | p + 1) are constant on the cosets of the (1+p)-th powers
    (_coset_walk), so the walk ranks and decides the norm predicate of
    the m = gcd(1 + p, p^t - 1) = p + 1 rows u*(u^2)^j, j < m, each
    standing for (p^t - 1)/m elements.  forms.degeneracy_witness decides
    each block's first row again (InternalCheckError if it differs), and
    _check_census_identities checks its last.  A slice with more than
    sample_cap odd exponents raises HypothesisViolation (remark_C_slice).
    """
    p, n = ctx.p, ctx.n
    _, t = remark_C_slice(p, n, i_index, sample_cap)
    _, l = two_adic_shape(p + 1)
    units, m = p**t - 1, math.gcd(1 + p, p**t - 1)
    u = slice_generator(ctx, 2 * units) ** ((ctx.order - 1) // (2 * units))
    membership_ok, pattern_ok = ctx.frobenius_power(u, t) == -u, True
    blocks = ((rows, 1 + 2 * j) for rows, j in _power_blocks(ctx, u * u, m, u))
    spectra: dict[bool, dict[int, int]] = {True: {}, False: {}}
    for rows, s, rank_of, predicate_of in _ranked_blocks(ctx, blocks, [1], [1]):
        ranks, degenerate, expect = rank_of[1], predicate_of[1], s % l == 0
        first = ctx.element(rows[0])  # a third decision: Remark C's eta^(2^i_index) = 1
        if degeneracy_witness(ctx, first, i_index).is_degenerate != degenerate[0]:
            raise InternalCheckError(f"degeneracy witness and norm predicate disagree for b={first}")
        _check_census_identities(ctx, rows[-1], 1, int(ranks[-1]), bool(degenerate[-1]))
        pattern_ok &= np.array_equal(degenerate, expect) and np.array_equal(ranks < n, degenerate)
        _tally(spectra[True], ranks[expect], units // m)
        _tally(spectra[False], ranks[~expect], units // m)
    components = [
        Report(
            conditions={
                "pattern": pattern_ok,
                "spectrum": _spectrum_ok(spectra[divisible], {rank}, "exhaustive"),
            },
            label=f"E{i_index} slice: odd exponents {qualifier}divisible by {l}",
            dimension=0,
            expected_rank=rank,
            checked=sum(spectra[divisible].values()),
            mode="exhaustive",
            rank_spectrum=spectra[divisible],
        )
        for divisible, rank, qualifier in ((True, n - 2, ""), (False, n, "not "))
    ]
    return _theorem_report("RemarkC", ctx, components, membership_ok, seed)


def _check_census_identities(
    ctx: ExtensionContext, vec: np.ndarray, i: int, rank: int, predicate: bool | None
) -> None:
    """The identities every coset walk and the sampled census rest on, for
    one element b by the scalar path: b*c*sigma^i(c) with c = theta at i, and b at
    n - i, have the rank that the stacked kernel gave b at i, and where
    the norm predicate applies (`predicate` is not None) the same
    predicate.  A difference raises InternalCheckError."""
    p, n = ctx.p, ctx.n
    b, c = ctx.element(vec), ctx.theta()
    moves = {
        "b*theta^(1+p^i)": ((b * c * ctx.frobenius_power(c, i)).vector(), i),
        f"b at i={n - i}": (vec, n - i),
    }
    for name, (moved, j) in moves.items():
        same = rank_mod(gram_entries(ctx, moved, j), p) == rank
        if predicate is not None:
            same &= is_degenerate_by_norm(ctx, ctx.element(moved), j) == predicate
        if not same:
            raise InternalCheckError(f"census identity fails for b={b}, i={i}: {name} differs")


def census_is_exhaustive(ctx: ExtensionContext) -> bool:
    """Whether oracle_survey walks all of L^x, p^n - 1 <= FULL_FIELD_CEILING
    units, rather than sampling it."""
    return ctx.order - 1 <= FULL_FIELD_CEILING


def oracle_survey(ctx: ExtensionContext, seed: int = 0, sample_cap: int = 10_000) -> Report:
    """Tabulate rank(gram(b, i)) over the unit group for every i in
    1..n-1, asserting the predicted supports and cross-validating the
    norm predicate against the rank wherever it applies.

    Both modes rank only i <= n/2 and copy i to n - i: the form of
    (b, sigma^(n-i)) is minus the form of (sigma^i(b), sigma^i), which is
    congruent to the form of (b, sigma^i), so every element has the same
    rank and the same degeneracy at n - i as at i.  An exhaustive census
    (p^n - 1 <= FULL_FIELD_CEILING) ranks one element per coset of the
    (1+p^i)-th powers at each i, m_i = gcd(1+p^i, q-1) of them, each
    counted (q-1)/m_i times: _coset_walk of all of L (b0 = 1, t = n).
    A sampled census ranks every drawn element, unweighted.  In either
    mode the last row of every block is checked against both identities
    by the scalar path (_check_census_identities).  `checked` counts
    elements either way.  The predicates are a condition only when some
    element was checked at some power of order > 2, so they never pass
    vacuously.
    """
    p, n, q = ctx.p, ctx.n, ctx.order
    powers = range(1, n // 2 + 1)
    predicate_powers = [i for i in powers if order_of(ctx, i) > 2]
    if census_is_exhaustive(ctx):
        mode, checked = "exhaustive", q - 1
        walks = [_coset_walk(ctx, ctx.one(), n, i, [i] if i in predicate_powers else []) for i in powers]
    else:
        mode, checked, rows = "sampled", sample_cap, _sampled_blocks(p, n, n, sample_cap, Stream(seed))
        walks = [(_ranked_blocks(ctx, ((block, None) for block in rows), powers, predicate_powers), 1)]
    histograms: dict[int, dict[int, int]] = {i: {} for i in range(1, n)}
    disagreements = {i: 0 for i in predicate_powers}
    for walk, weight in walks:
        for block, _, rank_of, predicates in walk:
            for i, ranks in rank_of.items():
                predicate = predicates.get(i)
                last = None if predicate is None else bool(predicate[-1])
                _check_census_identities(ctx, block[-1], i, int(ranks[-1]), last)
                _tally(histograms[i], ranks, weight)
                if predicate is not None:
                    disagreements[i] += int((predicate != (ranks < n)).sum()) * weight
    for i in range(powers.stop, n):  # the mirror: only i <= n/2 was ranked
        histograms[i] = dict(histograms[n - i])
        if n - i in disagreements:
            disagreements[i] = disagreements[n - i]
    support_ok = all(_spectrum_ok(histograms[i], _allowed_ranks(n, order_of(ctx, i)), mode)
                     for i in range(1, n))
    predicate_checked, predicate_disagreements = checked * len(disagreements), sum(disagreements.values())
    conditions = {"support_ok": support_ok}
    if predicate_checked:  # at n = 2, or with nothing drawn, the predicates check nothing
        conditions["predicates agree"] = predicate_disagreements == 0
    report = Report(
        conditions=conditions,
        theorem="oracle",
        instance={"p": p, "n": n},
        mode=mode,
        checked=checked,
        histograms=histograms,
        support_ok=support_ok,
        degenerate_counts={i: sum(k for r, k in histograms[i].items() if r < n) for i in range(1, n)},
        predicate_checked=predicate_checked,
        predicate_disagreements=predicate_disagreements,
        seed=seed,
        rng=RNG_NAME,
    )
    if mode == "sampled":
        report.warning = f"field size {ctx.order} exceeds {FULL_FIELD_CEILING}; sampled {sample_cap}"
    return report
