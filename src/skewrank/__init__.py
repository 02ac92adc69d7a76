"""Exact constant-rank analysis of alternating forms over field extensions."""

__version__ = "0.1.0"

from .decomposition import (
    build_component,
    find_nondegenerate_b,
    oracle_survey,
    remark_C_check,
    theorem_A_subspaces,
    verify_direct_sum,
    verify_theorem_A,
    verify_theorem_C,
)
from .errors import SkewrankError
from .fields import ExtensionContext, FieldElement, find_irreducible
from .forms import (
    DegeneracyWitness,
    degeneracy_witness,
    gram,
    is_degenerate_by_norm,
)
from .galois import eigenspace, fixed_field_basis, order_of
from .report import Report

# Section 6 over Q(eta_5) needs fractions and decimal, which no GF(p) run
# uses: its names load with skewrank.cyclotomic on first access (PEP 562)
_CYCLOTOMIC = frozenset({
    "CycloElement",
    "TernaryForm",
    "degeneracy_coefficient",
    "diagonalize_ternary",
    "gram_rational",
    "isotropic_witness",
    "legendre_solvable",
    "verify_section6",
})


def __getattr__(name: str):
    if name in _CYCLOTOMIC:
        from . import cyclotomic

        return getattr(cyclotomic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CycloElement",
    "DegeneracyWitness",
    "ExtensionContext",
    "FieldElement",
    "Report",
    "SkewrankError",
    "TernaryForm",
    "build_component",
    "degeneracy_coefficient",
    "degeneracy_witness",
    "diagonalize_ternary",
    "eigenspace",
    "find_irreducible",
    "find_nondegenerate_b",
    "fixed_field_basis",
    "gram",
    "gram_rational",
    "is_degenerate_by_norm",
    "isotropic_witness",
    "legendre_solvable",
    "oracle_survey",
    "order_of",
    "remark_C_check",
    "theorem_A_subspaces",
    "verify_direct_sum",
    "verify_section6",
    "verify_theorem_A",
    "verify_theorem_C",
]
