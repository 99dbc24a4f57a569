"""Decide equality of arrows in free symmetric monoidal closed categories
with biproducts, and in their compact closed and dagger variants, by
evaluating terms into matrices of oriented 1-dimensional cobordisms.
"""

from .biproduct import (
    Decomposition, Valuation, decompose, improper_subformula, is_proper,
    oplus_free, valuation,
)
from .cob import (
    ZERO, Boundary, CobMatrix, Cobordism, MultiCob, cardinality, cobordism,
    dagger_cob, dual_cob, flip, glue, identity_cob,
    identity_matrix, mat_add, mat_compose, mat_dagger, mat_dsum, mat_hom,
    mat_tensor, matrix_to_json, matrix_to_text, multicob, singleton,
    tensor_cob, zero_matrix,
)
from .decide import (
    SuiteReport, Verdict, axiom_suite, card_matrix, decide_equal,
)
from .interp import (
    TermMatrix, entry_oracle, interpret_arrow, interpret_object,
    normalize_syntactic, term_matrix_to_json, term_matrix_to_text,
)
from .syntax import (
    Alpha, AlphaInv, Arrow, Compose, Dagger, Dual, Eps, EpsC, Eta, EtaC,
    Gen, Hom, HomMap, Id, Inj1, Inj2, Lambda, LambdaInv, LangError, Mode,
    ModeViolation, Obj, Oplus, OplusMap, ParseError, Plus, Proj1, Proj2,
    Sigma, Tensor, TensorMap, TypeMismatch, Unit, Whisker, Zero, ZeroMap,
    check_mode, dual_map, expand_derived, infer_type, parse_arrow,
    parse_object, render_arrow, render_object, render_text,
)

__version__ = "0.1.0"
