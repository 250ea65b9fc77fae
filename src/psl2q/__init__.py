"""Exact-arithmetic toolkit for the extremal structure of intersecting
families in PSL(2,q): finite fields and their characters, the character
table of PGL(2,q), Legendre and Soto-Andrade sums, finite-field
hypergeometric functions, the derangement matrix rank certificate, and
exhaustive maximum-clique enumeration at small q.
"""

from .chartable import CharTable, IrreducibleChar, build_table
from .charsums import CharacterSums
from .cyclotomic import CycNum, cyclotomic_polynomial
from .derangement import DerangementModel
from .ekr import (
    FamilyClassification,
    IntersectionGraph,
    classify_family,
    max_intersecting_families,
    stabilizer_coset,
)
from .fields import FieldCtx, MultCharB, MultCharFq, factor_prime_power, field_ctx_for_q
from .groups import PGL2, ClassLabel
from .intrank import bareiss_rank

__all__ = [
    "CharTable",
    "CharacterSums",
    "ClassLabel",
    "CycNum",
    "DerangementModel",
    "FamilyClassification",
    "FieldCtx",
    "IntersectionGraph",
    "IrreducibleChar",
    "MultCharB",
    "MultCharFq",
    "PGL2",
    "bareiss_rank",
    "build_table",
    "classify_family",
    "cyclotomic_polynomial",
    "factor_prime_power",
    "field_ctx_for_q",
    "max_intersecting_families",
    "stabilizer_coset",
]

__version__ = "0.1.0"
