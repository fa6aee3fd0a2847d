"""The public contract: the exported names and the input-validation messages.

Dropping or renaming an exported name fails the snapshot at once; a change
that means to do so updates the snapshot and records it in CHANGES.md.
"""

import importlib

import numpy as np
import pytest

import qudit_mermin
from qudit_mermin import (
    FactorTriple,
    LocalObservable,
    MerminOperator,
    PhaseExponent,
    SettingWord,
    apply_word,
    contradiction_witness,
    counts_by_position,
    exhaustive_search,
    factor_value,
    ghz_state,
    hv_value_product_exact,
    permutation_class_max,
    power_sum,
    root_of_unity,
    uniform_factors,
    uniform_value,
)
from qudit_mermin._enumeration import ProductSpace, full_space_scores
from qudit_mermin.generalized import ratio_space
from qudit_mermin.qudit_ops import rotation_alphabet

PUBLIC_NAMES = [
    "A_VALUE", "B_VALUE", "C_VALUE", "ConjectureReport", "CycInt",
    "EigenstateError", "FactorTriple", "GeneralConfig", "HVAssignment",
    "IdentityReport", "LocalObservable", "MerminOperator",
    "PermutationClassReport", "PhaseExponent", "PositionCounts",
    "SearchResult", "SettingWord", "StateVector", "UniformFactorSet",
    "WitnessRecord", "__version__", "apply_word", "bloch_check",
    "build_general_mermin", "build_mermin", "conjecture_search",
    "contradiction_witness", "counts_by_position", "eigenphase",
    "exhaustive_search", "expand_general_identity", "expand_identity",
    "factor_table", "factor_value", "general_uniform_value",
    "ghz_contradiction_count", "ghz_state", "hv_value_direct",
    "hv_value_product", "hv_value_product_exact",
    "iter_contradiction_witnesses", "max_equals_uniform",
    "permutation_class_max", "power_sum", "root_of_unity",
    "uniform_factors", "uniform_value", "verify_eigenvalue",
    "verify_general_eigenvalue", "violation_ratio", "word_position",
]

MODULES = [
    "qudit_mermin",
    "qudit_mermin.cyclotomic",
    "qudit_mermin.qudit_ops",
    "qudit_mermin.mermin",
    "qudit_mermin.hidden_variables",
    "qudit_mermin.generalized",
    "qudit_mermin._enumeration",
]


def test_package_exports_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(qudit_mermin.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _letters(shape):
    return np.zeros(shape, dtype=np.int8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: power_sum(-1), "power sums are defined for n >= 0"),
        (lambda: uniform_value(0), "need at least one site"),
        (lambda: exhaustive_search(0), "need at least one site"),
        (lambda: permutation_class_max(1), "need at least two sites"),
        (lambda: contradiction_witness(SettingWord(5, (2, 2, 1))),
         "witnesses are defined for d=3"),
        (lambda: uniform_factors(4), "supported local dimensions are"),
        (lambda: ghz_state(0, 3, 0), "need at least one site"),
        (lambda: counts_by_position(3, 0), "need at least one site"),
        (lambda: apply_word(SettingWord(5, (0, 0)), ghz_state(0, 3, 2)),
         "dimension mismatch: word d=5, state d=3"),
        (lambda: rotation_alphabet(4), "local dimension must be odd and >= 3, got 4"),
        (lambda: LocalObservable.rotated_shift(3, 2),
         "rotation index 2 out of range for d=3"),
        (lambda: SettingWord.from_string("XY", d=5),
         "letter strings are defined for d=3 only"),
        (lambda: full_space_scores(ratio_space(3, 7)),
         "full score table is limited to 1e6 assignments"),
        (lambda: ProductSpace(9, 0, ratio_space(3, 1).counts), "need at least one site"),
        (lambda: ratio_space(3, 0), "need at least one site"),
        (lambda: ratio_space(3, -1), "need at least one site"),
        (lambda: MerminOperator(3, 2, 0, _letters((4, 3)), np.zeros(4)),
         r"letters must have shape \(terms, 2\), got \(4, 3\)"),
        (lambda: MerminOperator(3, 2, 0, _letters((4, 2)), np.zeros(3)),
         "need one weight exponent per word"),
        (lambda: hv_value_product_exact([1.5, 0], [0, 2.7]),
         "ratio exponents must be integers"),
        (lambda: PhaseExponent(1.5, 9), "root exponents must be integers"),
        (lambda: root_of_unity(1.5, 9), "root exponents must be integers"),
        (lambda: factor_value("A", 1.5, 0), "ratio exponents must be integers"),
        (lambda: FactorTriple.at(1.5, 0), "ratio exponents must be integers"),
    ],
    ids=[
        "power_sum", "uniform_value", "exhaustive_search", "permutation_class_max",
        "contradiction_witness", "uniform_factors", "ghz_state",
        "counts_by_position", "apply_word", "rotation_alphabet", "rotated_shift",
        "from_string", "full_space_scores", "product_space_sites",
        "ratio_space_zero_sites", "ratio_space_negative_sites", "operator_letters_shape",
        "operator_weights_shape", "hv_value_product_exact", "phase_exponent",
        "root_of_unity", "factor_value", "factor_triple_at",
    ],
)
def test_invalid_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
