"""Exact Mermin-operator toolkit for many-qutrit (and odd-d qudit) GHZ states.

Everything that can be exact is exact: amplitudes, operator weights, and
hidden-variable values are cyclotomic integers, so eigenvalue checks,
classical maxima, and tie counts are decided by integer arithmetic rather
than floating-point comparisons.

The public names are imported from their home modules on first use
(PEP 562), so ``import qudit_mermin`` alone loads none of them.
"""

import importlib

__version__ = "0.1.0"

# home module -> its public names, in the order of ``__all__``
_EXPORTS = {
    "cyclotomic": ("CycInt", "PhaseExponent", "root_of_unity"),
    "qudit_ops": (
        "LocalObservable",
        "SettingWord",
        "StateVector",
        "EigenstateError",
        "ghz_state",
        "apply_word",
        "word_position",
        "bloch_check",
        "eigenphase",
    ),
    "mermin": (
        "MerminOperator",
        "PositionCounts",
        "IdentityReport",
        "build_mermin",
        "verify_eigenvalue",
        "counts_by_position",
        "expand_identity",
    ),
    "hidden_variables": (
        "A_VALUE",
        "B_VALUE",
        "C_VALUE",
        "FactorTriple",
        "HVAssignment",
        "SearchResult",
        "PermutationClassReport",
        "WitnessRecord",
        "factor_value",
        "factor_table",
        "hv_value_direct",
        "hv_value_product",
        "hv_value_product_exact",
        "power_sum",
        "uniform_value",
        "exhaustive_search",
        "max_equals_uniform",
        "permutation_class_max",
        "ghz_contradiction_count",
        "contradiction_witness",
        "iter_contradiction_witnesses",
        "violation_ratio",
    ),
    "generalized": (
        "GeneralConfig",
        "UniformFactorSet",
        "ConjectureReport",
        "build_general_mermin",
        "verify_general_eigenvalue",
        "uniform_factors",
        "general_uniform_value",
        "expand_general_identity",
        "conjecture_search",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules an attribute read imports, as the package's import once bound them
_SUBMODULES = frozenset(("_enumeration", *_EXPORTS))

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    """A public name from its home module, or a submodule, imported on first read."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
