"""Binary linear complementary-dual codes: exact GF(2) linear algebra,
parametric families with symbolic verification, Griesmer bounds,
isomorph-free classification, and heuristic witness search."""

from .bounds import DTableEntry, closed_form_bound, griesmer_dmax, known_lcd_d
from .canonical import canonical_counts, canonical_key
from .classify import (classify, classify_by_columns,
                       extend_by_inverse_shortening, lcd_census,
                       levels_by_columns)
from .code import LinearCode, TypeMultiplicity, WeightEnumerator, make_code
from .families import (AffineForm, AffineVec, FamilyVerdict, build_generator,
                       family_a_vector, family_code, symbolic_gram_det,
                       symbolic_weight_enumerator)
from .formats import CodeDB
from .gf2 import BitMatrix
from .search import SearchBudget, search_lcd

__version__ = "0.1.0"

__all__ = [
    "AffineForm", "AffineVec", "BitMatrix", "CodeDB", "DTableEntry",
    "FamilyVerdict", "LinearCode", "SearchBudget",
    "TypeMultiplicity", "WeightEnumerator", "build_generator",
    "canonical_counts", "canonical_key", "classify", "classify_by_columns",
    "closed_form_bound", "extend_by_inverse_shortening",
    "family_a_vector", "family_code", "griesmer_dmax", "known_lcd_d",
    "lcd_census", "levels_by_columns", "make_code", "search_lcd",
    "symbolic_gram_det", "symbolic_weight_enumerator",
]
