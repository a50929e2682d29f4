"""Exact Hilbert series, Laurent coefficients and Gorenstein diagnosis for
invariant rings of circle weight actions."""

from .exact import LaurentExpansion, Polynomial, RationalFunction
from .gorenstein import (
    GorensteinReport,
    a_invariant_closed_form,
    analyze,
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
from .laurent import GammaVector, gamma0, gamma1, gamma2, gamma3, gammas
from .schur import (
    partial_schur,
    partial_schur_det,
    partial_schur_expansion,
    partial_schur_values,
)
from .weights import WeightVector, canonical_key, validate

__all__ = [
    "GammaVector",
    "GorensteinReport",
    "HironakaData",
    "LaurentExpansion",
    "Polynomial",
    "RationalFunction",
    "WeightVector",
    "a_invariant_closed_form",
    "analyze",
    "canonical_key",
    "gamma0",
    "gamma1",
    "gamma2",
    "gamma3",
    "gamma_cm",
    "gammas",
    "hilb_from_hironaka",
    "hilbert_degenerate",
    "hilbert_generic",
    "hilbert_series",
    "k1_sufficient",
    "oracle_coefficients",
    "partial_schur",
    "partial_schur_det",
    "partial_schur_expansion",
    "partial_schur_values",
    "stanley_test",
    "validate",
]

__version__ = "0.1.0"
