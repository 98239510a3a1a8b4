"""Size-change termination and unravelling of cyclic proofs into induction.

The names below are resolved on first use (PEP 562): ``import cycind`` loads
no submodule, and a name loads only the module it lives in.
"""

from importlib import import_module

# Every exported name, by the module it lives in.  The ``translate`` function
# is not re-exported: it would shadow the ``cycind.translate`` module.
_HOMES = {
    "annotate": "Annotation Reset init_annotation render_annotation step",
    "core": "GEQ GT Call CallSystem CyclicSystem DerivNode Judgment RegularDerivation RuleScheme"
            " SizeChangeGraph VarRef compose induced_call_graph induced_proof_system"
            " validate_call_system validate_derivation",
    "formats": "FormatError",
    "logic": "Deriv LogicError Sequent check_proof count_rule proof_size states_judgment",
    "minilang": "MiniLangError parse_call_system",
    "sct": "ClosureElement Lasso SctVerdict check_soundness closure decide_termination",
    "translate": "TranslationError prove_by_induction",
    "unfold": "ResetRep UnfoldCapError UnsoundDerivationError build_reset_rep crossing_violations"
              " induction_order_violations respect_induction_order",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
