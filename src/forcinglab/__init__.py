"""forcinglab: a desk-scale forcing laboratory over finite partial orders."""

from .boolalg import (BoolAlgebra, HomReport, certify_complete_hom,
                      check_complete_hom, ro_algebra)
from .config import Caps, CapExceeded, DEFAULT_CAPS
from .formula import parse_formula, substitute, to_text
from .generic import Filter, GenericSet, dense_subsets, enumerate_generics, forces
from .hfset import HFSet
from .names import (Name, NameUniverse, check_name, evaluate, name_universe,
                    truth_value)
from .poset import (Poset, complement_cut, is_dense_below, is_separative,
                    regularize, separative_quotient, validate_poset)

__version__ = "0.1.0"

__all__ = [
    "BoolAlgebra", "Caps", "CapExceeded", "DEFAULT_CAPS", "Filter",
    "GenericSet", "HFSet", "HomReport", "Name", "NameUniverse", "Poset",
    "certify_complete_hom", "check_complete_hom", "check_name",
    "complement_cut", "dense_subsets",
    "enumerate_generics", "evaluate", "forces", "is_dense_below",
    "is_separative", "name_universe", "parse_formula", "regularize",
    "ro_algebra", "separative_quotient", "substitute", "to_text",
    "truth_value", "validate_poset",
]
