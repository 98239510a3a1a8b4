"""Size-change termination and unravelling of cyclic proofs into induction."""

from .annotate import Annotation, Reset, init_annotation, render_annotation, step
from .core import (
    GEQ,
    GT,
    Call,
    CallSystem,
    CyclicSystem,
    DerivNode,
    Judgment,
    RegularDerivation,
    RuleScheme,
    SizeChangeGraph,
    VarRef,
    compose,
    induced_call_graph,
    induced_proof_system,
    minimize,
    path_relation,
    validate_call_system,
    validate_derivation,
    validate_system,
)
from .formats import FormatError
from .logic import Deriv, LogicError, Sequent, check_proof, count_rule, proof_size, states_judgment
from .minilang import MiniLangError, parse_call_system
from .sct import ClosureElement, Lasso, SctVerdict, check_soundness, closure, decide_termination
# The ``translate`` function is not re-exported: it would shadow the
# ``cycind.translate`` module it lives in.
from .translate import TranslationError, extract_skeleton, prove_by_induction, rep_skeleton
from .unfold import (
    ResetRep,
    UnfoldCapError,
    UnsoundDerivationError,
    build_reset_rep,
    crossing_violations,
    induction_order_violations,
    respect_induction_order,
)

__all__ = [
    "Annotation",
    "Call",
    "CallSystem",
    "ClosureElement",
    "CyclicSystem",
    "Deriv",
    "DerivNode",
    "FormatError",
    "GEQ",
    "GT",
    "Judgment",
    "Lasso",
    "LogicError",
    "MiniLangError",
    "RegularDerivation",
    "Reset",
    "ResetRep",
    "RuleScheme",
    "SctVerdict",
    "Sequent",
    "SizeChangeGraph",
    "TranslationError",
    "UnfoldCapError",
    "UnsoundDerivationError",
    "VarRef",
    "build_reset_rep",
    "check_proof",
    "check_soundness",
    "closure",
    "compose",
    "count_rule",
    "crossing_violations",
    "decide_termination",
    "extract_skeleton",
    "induced_call_graph",
    "induced_proof_system",
    "induction_order_violations",
    "init_annotation",
    "minimize",
    "parse_call_system",
    "path_relation",
    "proof_size",
    "prove_by_induction",
    "render_annotation",
    "rep_skeleton",
    "respect_induction_order",
    "states_judgment",
    "step",
    "validate_call_system",
    "validate_derivation",
    "validate_system",
]

__version__ = "0.1.0"
