"""The public contract: the exported names and the input-validation messages.

Dropping or renaming an exported name fails the snapshot at once; a change
that means to do so updates the snapshot and records it in CHANGES.md.
"""

import ast
import functools
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qudit_mermin
from qudit_mermin import (
    CycInt,
    EigenstateError,
    FactorTriple,
    GeneralConfig,
    HVAssignment,
    LocalObservable,
    MerminOperator,
    PhaseExponent,
    SettingWord,
    apply_word,
    build_mermin,
    conjecture_search,
    contradiction_witness,
    counts_by_position,
    exhaustive_search,
    expand_identity,
    factor_value,
    general_uniform_value,
    ghz_contradiction_count,
    ghz_state,
    hv_value_product,
    hv_value_product_exact,
    iter_contradiction_witnesses,
    permutation_class_max,
    power_sum,
    root_of_unity,
    uniform_factors,
    uniform_value,
    violation_ratio,
)
from qudit_mermin._enumeration import (
    ProductSpace,
    check_search_budget,
    decode_index,
    full_space_scores,
)
from qudit_mermin.cyclotomic import compare_real_coeffs, order_params
from qudit_mermin.generalized import general_uniform_sum, ratio_space
from qudit_mermin.hidden_variables import _witness_table
from qudit_mermin.mermin import (
    _position_eigenvalue,
    check_verify_budget,
    mixing_exponent,
    verify_eigenvalue,
)
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


# Run in a fresh process: ``import qudit_mermin`` loads no submodule, then
# each public name, read first, is the object of the module that defines it
# (functions and classes name it; the constants are hidden_variables').
LAZY_IMPORT_CODE = """
import importlib, sys
import qudit_mermin
loaded = sorted(k for k in sys.modules if k.startswith("qudit_mermin."))
assert loaded == [], loaded
for name in qudit_mermin.__all__[1:]:
    value = getattr(qudit_mermin, name)
    home = getattr(value, "__module__", None)
    if not (isinstance(home, str) and home.startswith("qudit_mermin.")):
        home = "qudit_mermin.hidden_variables"
    assert value is getattr(importlib.import_module(home), name), name
star = {}
exec("from qudit_mermin import *", star)
star.pop("__builtins__")
assert sorted(star) == sorted(qudit_mermin.__all__) and len(star) == 51
assert all(star[n] is getattr(qudit_mermin, n) for n in star)
assert set(dir(qudit_mermin)) >= set(qudit_mermin.__all__)
print("ok")
"""


def test_package_import_is_lazy_and_binds_every_export():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CODE],
        env=env, capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qudit_mermin.no_such_name
    assert importlib.import_module("qudit_mermin.mermin") is qudit_mermin.mermin


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
        (lambda: uniform_factors(4), "local dimension must be odd and >= 3, got 4$"),
        (lambda: general_uniform_value(5, 0), "need at least one site"),
        (lambda: general_uniform_value(17, 2),
         r"local dimension: 17\*\*5 exceeds the cap of 1048576$"),
        (lambda: general_uniform_sum(5, -1), "need at least one site"),
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
         r"full score table: 9\*\*7 exceeds the cap of 1000000"),
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
        (lambda: GeneralConfig(3.0, 2), "d and n_sites must be integers"),
        (lambda: general_uniform_value(5, 2.0), "d and n_sites must be integers"),
        (lambda: uniform_factors(5.0), "d and n_sites must be integers"),
        (lambda: GeneralConfig(9, 2), "invalid cyclotomic order 81"),
        (lambda: counts_by_position(9, 2), "invalid cyclotomic order 81"),
        (lambda: build_mermin(9, 2), "invalid cyclotomic order 81"),
        (lambda: MerminOperator(9, 1, 0, [[0]], [0]), "invalid cyclotomic order 81"),
        (lambda: MerminOperator.from_terms(9, 1, 0, ()), "invalid cyclotomic order 81"),
        (lambda: factor_value("D", 0, 0),
         r"unknown product letter 'D' \(expected 'A', 'B' or 'C'\)"),
        (lambda: hv_value_product_exact([], []), "need at least one site"),
        (lambda: hv_value_product([], []), "need at least one site"),
        (lambda: HVAssignment(()), "need at least one site"),
        (lambda: HVAssignment.from_ratios([]), "need at least one site"),
        (lambda: compare_real_coeffs(9, (1, 0, 0, 0, 0, 0), (1, 0, 0)),
         "expected 6 coefficients for order 9, got 6 and 3"),
        (lambda: ProductSpace(9, 1, ratio_space(3, 1).counts[..., :3]),
         r"counts must be non-negative of shape \(A, S, 9\)"),
        (lambda: ProductSpace(9, 1, -ratio_space(3, 1).counts),
         r"counts must be non-negative of shape \(A, S, 9\)"),
        (lambda: hv_value_product_exact([0, 1], [0]), "ratio vectors must have equal length"),
        (lambda: CycInt(9, (1, 0)), "expected 6 coefficients for order 9, got 2"),
        (lambda: PhaseExponent(1, 9) * PhaseExponent(1, 25),
         "mismatched cyclotomic orders 9 and 25"),
        # arguments are checked before a budget states its work from them
        (lambda: check_verify_budget(-3, 14), "local dimension must be odd and >= 3, got -3$"),
        (lambda: check_verify_budget(-3, 15), "local dimension must be odd and >= 3, got -3$"),
        (lambda: check_verify_budget(4, 3), "local dimension must be odd and >= 3, got 4$"),
        (lambda: expand_identity(20, 2), "local dimension must be odd and >= 3, got 2$"),
        (lambda: expand_identity(10**9, -3), "local dimension must be odd and >= 3, got -3$"),
        (lambda: check_search_budget(-9, 3, 9, 5),
         r"alphabet, slots and order must be at least 1, got \[-9, 3, 9\]$"),
    ],
    ids=[
        "power_sum", "uniform_value", "exhaustive_search", "permutation_class_max",
        "contradiction_witness", "uniform_factors", "general_uniform_value_zero_sites",
        "general_uniform_value_d17", "general_uniform_sum_negative_sites", "ghz_state",
        "counts_by_position", "apply_word", "rotation_alphabet", "rotated_shift",
        "from_string", "full_space_scores", "product_space_sites",
        "ratio_space_zero_sites", "ratio_space_negative_sites", "operator_letters_shape",
        "operator_weights_shape", "hv_value_product_exact", "phase_exponent",
        "root_of_unity", "factor_value", "factor_triple_at", "general_config_float_d",
        "general_uniform_value_float_sites", "uniform_factors_float_d",
        "general_config_d9", "counts_by_position_d9", "build_mermin_d9", "operator_d9", "from_terms_d9", "factor_value_letter",
        "hv_value_product_exact_no_sites", "hv_value_product_no_sites",
        "hv_assignment_no_sites", "hv_assignment_from_no_ratios",
        "compare_real_coeffs_lengths", "product_space_shape", "product_space_negative",
        "hv_value_product_exact_lengths", "cyc_int_coefficient_count",
        "phase_exponent_orders", "verify_budget_negative_d", "verify_budget_negative_d_over",
        "verify_budget_even_d", "identity_even_d", "identity_negative_d",
        "search_budget_negative_alphabet",
    ],
)
def test_invalid_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Warm tracemalloc peaks at each budget's last admitted argument, measured on
# Python 3.11.7 with numpy 2.4.6 (2.88, 6.00, 12.58, 0.16, 0.31 and 0.49 MiB;
# at the largest admitted d, 13, and the identity's last N at d = 11 and 13:
# 6.32, 2.92, 27.11 and 5.86 MiB, one warm run each in one process);
# each bound is 1.5 times its measurement.  The identity's word budget d**N is
# flat in d, but its memory grows with phi = d*(d - 1) coefficients per word.
@pytest.mark.parametrize(
    "call, measured_mib",
    [
        (lambda: expand_identity(9, 3), 2.88),
        (lambda: expand_identity(6, 5), 6.00),
        (lambda: expand_identity(5, 7), 12.58),
        (lambda: _witness_table(8), 0.16),
        (lambda: _position_eigenvalue(7, 8), 0.31),
        (lambda: permutation_class_max(8), 0.49),
        (lambda: _position_eigenvalue(13, 6), 6.32),
        (lambda: general_uniform_sum(13, 6), 2.92),
        (lambda: expand_identity(4, 11), 27.11),
        (lambda: expand_identity(3, 13), 5.86),
    ],
    ids=["identity_d3_n9", "identity_d5_n6", "identity_d7_n5", "witness_n8",
         "position_eigenvalue_d7_n8", "permutation_classes_n8",
         "position_eigenvalue_d13_n6", "uniform_sum_d13_n6", "identity_d11_n4",
         "identity_d13_n3"],
)
def test_peak_memory_at_the_last_admitted_argument(call, measured_mib):
    call()  # warm the caches
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * measured_mib * 2**20


# Every entry point that takes d states the local-dimension budget d**5 from
# the integer d before it builds anything of size d (a d-letter alphabet, a
# d**2 ring, a d**4 circulant), so a huge d is refused at once.
HUGE_DIMENSION_CALLS = {
    "GeneralConfig": lambda d: GeneralConfig(d, 2),
    "counts_by_position": lambda d: counts_by_position(d, 2),
    "expand_identity": lambda d: expand_identity(2, d),
    "verify_eigenvalue": lambda d: verify_eigenvalue(build_mermin(d, 2)),
    "check_verify_budget": lambda d: check_verify_budget(d, 2),
    "_position_eigenvalue": lambda d: _position_eigenvalue(d, 2),
    "from_terms": lambda d: MerminOperator.from_terms(d, 1, 0, ()),
    "ratio_space": lambda d: ratio_space(d, 1),
}


@pytest.mark.parametrize("d", [101, 10**9 + 7])
@pytest.mark.parametrize("name", sorted(HUGE_DIMENSION_CALLS))
def test_a_huge_dimension_is_refused_before_any_array(name, d):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            HUGE_DIMENSION_CALLS[name](d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"local dimension: {d}**5 exceeds the cap of 1048576"
    assert peak < 2**20


# One float per integer argument, each entry point at least once; 3.0 and
# 2.0 are refused like 0.5, never truncated.  The first field names the
# public callable that ``test_every_integer_entry_point_has_a_float_case``
# looks up; ``name.arg`` labels one more case of a callable named already.
FLOAT_CASES = [
    ("ProductSpace", lambda: ProductSpace(9, 2.0, ratio_space(3, 1).counts)),
    ("check_search_budget", lambda: check_search_budget(9, 3, 9, 2.0)),
    ("build_mermin", lambda: build_mermin(3.0, 3)),
    ("build_mermin", lambda: build_mermin(3, 3.0)),
    ("build_mermin", lambda: build_mermin(3, 3, 1.0)),
    ("check_verify_budget", lambda: check_verify_budget(3.0, 2)),
    ("check_verify_budget", lambda: check_verify_budget(3, 2.0)),
    ("_position_eigenvalue", lambda: _position_eigenvalue(3, 3.0)),
    ("_position_eigenvalue", lambda: _position_eigenvalue(3, 3, 1.0)),
    ("counts_by_position", lambda: counts_by_position(3.0, 3)),
    ("counts_by_position", lambda: counts_by_position(3, 3.0)),
    ("expand_identity", lambda: expand_identity(3.0)),
    ("expand_identity", lambda: expand_identity(2, 3.0)),
    ("mixing_exponent", lambda: mixing_exponent(3.0, 1, 1)),
    ("ghz_state", lambda: ghz_state(0, 3, 3.0)),
    ("ghz_state", lambda: ghz_state(0, 3.0, 3)),
    ("uniform_value", lambda: uniform_value(3.0)),
    ("power_sum", lambda: power_sum(3.0)),
    ("exhaustive_search", lambda: exhaustive_search(3.0)),
    ("exhaustive_search", lambda: exhaustive_search(3.0, mode="full")),
    ("permutation_class_max", lambda: permutation_class_max(3.0)),
    ("ghz_contradiction_count", lambda: ghz_contradiction_count(3.0)),
    ("iter_contradiction_witnesses", lambda: next(iter_contradiction_witnesses(3.0))),
    ("violation_ratio", lambda: violation_ratio(3.0)),
    ("HVAssignment.uniform", lambda: HVAssignment.uniform(3.0)),
    ("HVAssignment.from_ratio_index", lambda: HVAssignment.from_ratio_index(2.0, 0)),
    ("decode_index", lambda: decode_index(0, 9, 3.0)),
    ("decode_index", lambda: decode_index(3.0, 9, 3)),
    ("GeneralConfig", lambda: GeneralConfig(3, 2.0)),
    ("ratio_space", lambda: ratio_space(3.0, 2)),
    ("ratio_space", lambda: ratio_space(3, 2.0)),
    ("uniform_factors", lambda: uniform_factors(3.0)),
    ("general_uniform_sum", lambda: general_uniform_sum(3, 2.0)),
    ("general_uniform_value", lambda: general_uniform_value(3.0, 2)),
    ("conjecture_search", lambda: conjecture_search(3.0, 2)),
    ("conjecture_search", lambda: conjecture_search(3, 2.0)),
    ("rotation_alphabet", lambda: rotation_alphabet(3.0)),
    ("order_params", lambda: order_params(9.0)),
    ("SettingWord", lambda: SettingWord(3.0, (0, 1))),
    ("LocalObservable.rotated_shift", lambda: LocalObservable.rotated_shift(3.0, 0)),
    ("LocalObservable.rotated_shift.j", lambda: LocalObservable.rotated_shift(3, 1.0)),
    ("CycInt.__pow__", lambda: CycInt.one(9) ** 2.0),
    ("CycInt.times_root", lambda: CycInt.one(9).times_root(1.0)),
    ("CycInt.integer", lambda: CycInt.integer(2.0, 9)),
    ("CycInt", lambda: CycInt(9, (2.0, 0, 0, 0, 0, 0))),
    ("CycInt.from_coeffs", lambda: CycInt.from_coeffs(9, [2.0])),
    ("MerminOperator", lambda: MerminOperator(3.0, 1, 0, _letters((1, 1)), [0])),
    ("MerminOperator", lambda: MerminOperator(3, 1.0, 0, _letters((1, 1)), [0])),
    ("MerminOperator", lambda: MerminOperator(3, 1, 1.0, _letters((1, 1)), [0])),
    ("MerminOperator.from_terms", lambda: MerminOperator.from_terms(3, 2, 1.0, ())),
    ("MerminOperator.from_terms", lambda: MerminOperator.from_terms(3, 2.0, 0, ())),
]


@pytest.mark.parametrize(
    "call", [case[1] for case in FLOAT_CASES], ids=[case[0] for case in FLOAT_CASES]
)
def test_float_arguments_raise_value_error(call):
    with pytest.raises(ValueError, match=r"must be integers, got \d+\.0"):
        call()


def test_float_ghz_index_names_its_own_value():
    # the index itself is checked, not the exponent k * r of an amplitude (0.0 at r = 0)
    with pytest.raises(ValueError, match=r"GHZ indices must be integers, got 0\.5"):
        ghz_state(0.5, 3, 3)


def test_float_arrays_are_refused_not_truncated():
    # truncated, [[0.7]] would read as the letter X and [0.2] as the weight alpha**0
    with pytest.raises(ValueError, match="must be integers, got a float64 array"):
        MerminOperator(3, 1, 0, [[0.7]], [0])
    with pytest.raises(ValueError, match="must be integers, got a float64 array"):
        MerminOperator(3, 1, 0, [[0]], [0.2])
    with pytest.raises(ValueError, match="must be integers, got a float64 array"):
        ProductSpace(9, 1, ratio_space(3, 1).counts.astype(np.float64))


def test_numpy_value_exponents_are_read_as_python_ints():
    # 27**14 > 2**63: int64 digits would wrap the flat index
    numpy_values = HVAssignment(((np.int64(1), np.int8(0), np.uint8(0)),) * 14)
    assert numpy_values.full_index() == HVAssignment(((1, 0, 0),) * 14).full_index()
    assert numpy_values.full_index() == 37875803930138893572
    assert all(type(e) is int for triple in numpy_values.values for e in triple)


def test_numpy_integers_are_read_as_python_ints():
    n = np.int64(45)  # 3**44 wraps in int64
    assert violation_ratio(np.int64(50)) == violation_ratio(50)
    assert ghz_state(0, 3, n) == ghz_state(0, 3, 45)
    assert counts_by_position(3, n) == counts_by_position(3, 45)
    assert ghz_contradiction_count(n) == ghz_contradiction_count(45)
    assert power_sum(np.int64(60)) == power_sum(60)
    op = build_mermin(np.int64(3), np.int8(2), np.uint8(1))
    assert op == build_mermin(3, 2, 1)
    assert root_of_unity(1, 9) ** np.int64(2) == root_of_unity(2, 9)
    assert CycInt.one(9).times_root(np.int64(3)) == root_of_unity(3, 9)
    assert type(CycInt.integer(np.int64(2), 9).as_integer()) is int
    numpy_coeffs = CycInt(9, (np.int64(2),) + (np.uint8(1),) * 5)
    assert numpy_coeffs == CycInt(9, (2, 1, 1, 1, 1, 1))
    assert all(type(c) is int for c in numpy_coeffs.coeffs)
    assert LocalObservable.rotated_shift(3, np.int64(1)) == LocalObservable.rotated_shift(3, 1)
    cfg = GeneralConfig(np.int64(5), np.int32(2))
    for value in (op.d, op.n_sites, op.variant, cfg.d, cfg.n_sites):
        assert type(value) is int


# Result records hold what the library computed from checked arguments and
# check nothing themselves; ``LocalObservable`` is built by ``rotated_shift``
# and checked by ``bloch_check``.
RECORDS = {
    "ConjectureReport", "IdentityReport", "LocalObservable", "PermutationClassReport",
    "PositionCounts", "SearchResult", "StateVector", "UniformFactorSet",
}


def test_every_integer_entry_point_has_a_float_case():
    covered = {case[0] for case in FLOAT_CASES} | RECORDS
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if not callable(obj) or obj is EigenstateError:  # no signature to read
                continue
            params = set(inspect.signature(obj).parameters)
            if params & {"n_sites", "n", "d", "variant"} and attr not in covered:
                missing.append(f"{name}.{attr}")
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_MODULES = {
    info.name: importlib.import_module(f"qudit_mermin.{info.name}")
    for info in pkgutil.iter_modules(qudit_mermin.__path__)
}


def _doc_texts():
    """README.md and every docstring in the package source."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted((ROOT / "src" / "qudit_mermin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield f"{path.name}:{getattr(node, 'name', '')}", ast.get_docstring(node) or ""


def _resolves(dotted):
    """Whether a dotted name is a package module, or an attribute path from one.

    A name with no module prefix may start at any module or at any class
    defined in the package.
    """
    parts = dotted.removeprefix("qudit_mermin.").split(".")
    if parts[0] in PACKAGE_MODULES:
        starts = [PACKAGE_MODULES[parts[0]]]
    else:
        classes = {
            obj
            for module in PACKAGE_MODULES.values()
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__.startswith("qudit_mermin")
        }
        starts = [
            getattr(space, parts[0])
            for space in [*PACKAGE_MODULES.values(), *classes]
            if hasattr(space, parts[0])
        ]
    for obj in starts:
        try:
            functools.reduce(getattr, parts[1:], obj)
        except AttributeError:
            continue
        return True
    return False


# Imports their module never reads, with the reason
UNREAD_IMPORTS = {"generalized.py: run_search": "perfbench/test_run.py wraps it there by name"}


def test_every_import_is_read_or_exported():
    # an import that its module never reads is a leftover of a deleted path
    unused = []
    for path in sorted((ROOT / "src" / "qudit_mermin").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        module = PACKAGE_MODULES.get(path.stem, qudit_mermin)  # __init__.py: the package
        exported = set(getattr(module, "__all__", ()))
        unused += [f"{path.name}: {name}" for name in sorted(imported - read - exported)]
    assert unused == sorted(UNREAD_IMPORTS)


# ``_enumeration`` exports no other module of the package reads, with the reason
UNREAD_EXPORTS = {"full_space_scores": "traced by name by perfbench; tests' oracle"}


def test_every_enumeration_export_is_read_elsewhere():
    # an export that only the tests read belongs in the tests
    read = set()
    for path in sorted((ROOT / "src" / "qudit_mermin").glob("*.py")):
        if path.stem == "_enumeration":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    unread = set(PACKAGE_MODULES["_enumeration"].__all__) - read
    assert unread == set(UNREAD_EXPORTS)


def test_private_names_in_the_docs_resolve():
    # a doc that names a private helper must name one that exists
    missing = []
    for where, text in _doc_texts():
        for _, span in re.findall(r"(`+)([^`]+)\1", text):
            for dotted in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span):
                private = any(re.match(r"_(?!_)", part) for part in dotted.split("."))
                if private and not _resolves(dotted):
                    missing.append(f"{where}: {dotted}")
    assert missing == []
