"""Exact Hilbert series, Laurent coefficients and Gorenstein diagnosis for
invariant rings of circle weight actions."""

from .exact import (
    LaurentExpansion,
    Polynomial,
    RationalFunction,
    degree,
    laurent_at_one,
    series_at_zero,
)
from .gorenstein import (
    GorensteinReport,
    a_invariant,
    a_invariant_closed_form,
    analyze,
    integer_obstruction,
    k1_sufficient,
    stanley_test,
)
from .hilbert import (
    hilbert_degenerate,
    hilbert_generic,
    hilbert_series,
    oracle_coefficients,
)
from .hironaka import HironakaData, gamma_cm, hilb_from_hironaka
from .laurent import GammaVector, gamma0, gamma1, gamma2, gamma3, gammas, gammas_from_series
from .schur import (
    partial_schur,
    partial_schur_det,
    partial_schur_expansion,
    partial_schur_values,
)
from .weights import WeightVector, canonical_key, remove, validate

__all__ = [
    "GammaVector",
    "GorensteinReport",
    "HironakaData",
    "LaurentExpansion",
    "Polynomial",
    "RationalFunction",
    "WeightVector",
    "a_invariant",
    "a_invariant_closed_form",
    "analyze",
    "canonical_key",
    "degree",
    "gamma0",
    "gamma1",
    "gamma2",
    "gamma3",
    "gamma_cm",
    "gammas",
    "gammas_from_series",
    "hilb_from_hironaka",
    "hilbert_degenerate",
    "hilbert_generic",
    "hilbert_series",
    "integer_obstruction",
    "k1_sufficient",
    "laurent_at_one",
    "oracle_coefficients",
    "partial_schur",
    "partial_schur_det",
    "partial_schur_expansion",
    "partial_schur_values",
    "remove",
    "series_at_zero",
    "stanley_test",
    "validate",
]

__version__ = "0.1.0"
