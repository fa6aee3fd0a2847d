"""Odd-dimension generalization: d=3 consistency, d=5 values, d=7 spot checks.

The d=5 factor magnitudes are recomputed here from plain cosine sums as an
independent float oracle before the exact route is trusted.
"""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from qudit_mermin import _enumeration, generalized, mermin
from qudit_mermin.cyclotomic import CycInt, _root_coeffs, root_of_unity
from qudit_mermin._enumeration import exact_letters_sum
from qudit_mermin.generalized import (
    GeneralConfig,
    _factor_rows,
    _product_sum,
    build_general_mermin,
    conjecture_search,
    expand_general_identity,
    general_uniform_sum,
    general_uniform_value,
    mixing_exponent,
    ratio_space,
    uniform_factors,
    verify_general_eigenvalue,
)
from qudit_mermin.hidden_variables import (
    A_VALUE,
    B_VALUE,
    C_VALUE,
    exhaustive_search,
    factor_value,
    uniform_value,
)
from qudit_mermin.mermin import build_mermin


def cosine_factor(d, p):
    """Float oracle: F_p = sum_j exp(2*pi*i*j*(d*p + d - 1)/d**2)."""
    m = d * d
    half = (d - 1) // 2
    return sum(
        cmath.exp(2j * math.pi * j * (d * p + d - 1) / m)
        for j in range(-half, half + 1)
    )


def test_d3_reproduces_qutrit_operator():
    for n in (1, 2, 3, 4):
        general = build_general_mermin(GeneralConfig(3, n))
        qutrit = build_mermin(3, n, 0)
        assert general.terms == qutrit.terms
    assert verify_general_eigenvalue(GeneralConfig(3, 4)) == 27


def test_d5_term_counts():
    cfg2 = GeneralConfig(5, 2)
    op2 = build_general_mermin(cfg2)
    assert op2.term_count == 5
    # enumeration oracle: at N=2 only position 0 is reachable mod 25
    positions = {
        (j1 + j2) % 25
        for j1, j2 in itertools.product(range(-2, 3), repeat=2)
        if (j1 + j2) % 5 == 0
    }
    assert positions == {0}
    assert all(word.position == 0 for word, _ in op2.terms)
    assert build_general_mermin(GeneralConfig(5, 3)).term_count == 25


def test_general_eigenvalues():
    assert verify_general_eigenvalue(GeneralConfig(5, 2)) == 5
    assert verify_general_eigenvalue(GeneralConfig(5, 3)) == 25
    assert verify_general_eigenvalue(GeneralConfig(7, 2)) == 7


def test_term_count_law():
    for d, n in ((3, 5), (5, 4), (7, 3)):
        assert build_general_mermin(GeneralConfig(d, n)).term_count == d ** (n - 1)


def test_identity_survival_at_d5():
    report = expand_general_identity(GeneralConfig(5, 2))
    assert report.matches, report.mismatches[:3]
    assert report.n_surviving == 5
    assert report.n_vanishing == 20


def test_mixing_reproduces_qutrit_coefficients():
    # at d=3 the mixing exponents are those of the three-product identity
    assert [mixing_exponent(3, p, 1) for p in range(3)] == [2, 5, 8]
    assert [mixing_exponent(3, p, -1) for p in range(3)] == [7, 4, 1]


def test_uniform_factors_d3_are_abc():
    mags = uniform_factors(3).magnitudes()
    for got, want in zip(mags, sorted((A_VALUE, B_VALUE, C_VALUE), reverse=True)):
        assert abs(got - want) < 1e-9


def test_uniform_factors_d5_against_cosine_oracle():
    factors = uniform_factors(5)
    oracle = sorted((abs(cosine_factor(5, p)) for p in range(5)), reverse=True)
    for got, want in zip(factors.magnitudes(), oracle):
        assert abs(got - want) < 1e-9
    assert abs(factors.largest - 4.6898) < 1e-3
    # Parseval: the squared magnitudes sum to d**2
    for d in (3, 5, 7):
        total = sum(m * m for m in uniform_factors(d).magnitudes())
        assert abs(total - d * d) < 1e-6


def test_general_uniform_value_d5():
    # float oracle for (1/5) |sum_p F_p**N|
    for n in (1, 2, 3):
        oracle = abs(sum(cosine_factor(5, p) ** n for p in range(5))) / 5
        assert abs(general_uniform_value(5, n) - oracle) < 1e-9
    assert abs(general_uniform_value(5, 2) - 5.0) < 1e-9


def test_conjecture_search_d3_regression():
    report = conjecture_search(3, 3)
    assert abs(report.max_magnitude - 6.0) < 1e-9
    assert report.uniform_is_max
    assert report.gap == 0.0
    assert report.num_maximizers == 27
    assert report.assignments_scanned == 9**3
    # the qutrit factors are the d = 3 rows of the one table, letter 3R + S
    for (p, letter), r, s in itertools.product(enumerate("BCA"), range(3), range(3)):
        assert factor_value(letter, r, s) == per_root_factor(3, p, {1: r, -1: s})
    # so at d = 3 the scan is the qutrit ratio search, letter for letter
    for n in range(1, 10):
        report = conjecture_search(3, n)
        ratio = exhaustive_search(n)
        assert report.max_sq_coeffs == ratio.max_sq_coeffs
        assert report.num_maximizers == ratio.num_maximizers
        assert report.argmax_index == ratio.argmax_index


def test_conjecture_search_d5_single_site():
    report = conjecture_search(5, 1)
    # a single site always evaluates to magnitude 1 (every assignment ties)
    assert abs(report.max_magnitude - 1.0) < 1e-9
    assert report.uniform_is_max
    assert report.num_maximizers == 625
    assert report.assignments_scanned == 625


def test_config_validation_and_caps(monkeypatch):
    with pytest.raises(ValueError):
        GeneralConfig(4, 2)
    with pytest.raises(ValueError):
        GeneralConfig(9, 2)
    with pytest.raises(ValueError):
        GeneralConfig(5, 0)
    with pytest.raises(ValueError):
        verify_general_eigenvalue(GeneralConfig(5, 10))
    with pytest.raises(ValueError):
        conjecture_search(7, 2)

    def never(*args):
        raise AssertionError("an over-budget space reached its build")

    # d = 7 is refused at N = 1 by the budget, before its root-count table
    # is built or range-checked
    monkeypatch.setattr(generalized, "_ratio_counts", never)
    monkeypatch.setattr(_enumeration, "_check_range", never)
    with pytest.raises(ValueError):
        conjecture_search(7, 1)
    assert GeneralConfig(5, 2).settings == 5


def per_root_factor(d, p, ratio_exps=None):
    """Reference: add the d roots of the factor one CycInt at a time."""
    m = d * d
    half = (d - 1) // 2
    total = CycInt.zero(m)
    for j in range(-half, half + 1):
        t = ratio_exps[j] if ratio_exps is not None and j != 0 else 0
        total = total + root_of_unity(mixing_exponent(d, p, j) + d * t, m)
    return total


def letter_ratios(d):
    """Ratio exponents by rotation letter j of each ratio letter, in letter order.

    Letter a's d - 1 base-d digits, most significant first, sit on the
    letters j = 1, 2, ..., d - 1 taken mod d (j = d - 1 is j = -1).
    """
    letters = [c if c <= d // 2 else c - d for c in range(1, d)]
    digits = itertools.product(range(d), repeat=d - 1)
    return [dict(zip(letters, tup)) for tup in digits]


def test_factors_match_per_root_sums():
    for d in (3, 5, 7):
        row = _factor_rows(d, np.zeros((1, d), dtype=np.int64))[0]
        for p in range(d):
            assert row[p] == per_root_factor(d, p)
    for d in (3, 5):
        for ratio_exps, row in zip(letter_ratios(d), ratio_space(d, 1).factors, strict=True):
            for p in range(d):
                assert row[p] == per_root_factor(d, p, ratio_exps)


def test_conjecture_space_rows_match_per_root_sums():
    for d in (3, 5):
        rows = ratio_space(d, 1).factors
        assert len(rows) == d ** (d - 1)
        for ratio_exps, row in zip(letter_ratios(d), rows):
            assert row == tuple(per_root_factor(d, p, ratio_exps) for p in range(d))


def test_argmax_ratio_exponents_are_the_digits_of_the_argmax_letters(monkeypatch):
    # letter 389 = 3*125 + 0*25 + 2*5 + 4 carries exponents 3, 0, 2, 4 on
    # the letters j = 1, 2, 3 (= -2) and 4 (= -1)
    ratio_exps = {1: 3, 2: 0, -2: 2, -1: 4}
    assert ratio_space(5, 1).factors[389] == tuple(
        per_root_factor(5, p, ratio_exps) for p in range(5)
    )
    # the all-ones point is a maximizer, so force an arg-max elsewhere
    raw = _enumeration.run_search(ratio_space(5, 1))
    fake = dataclasses.replace(raw, argmax_index=389 * 625 + 17)
    monkeypatch.setattr(generalized, "run_search", lambda space: fake)
    report = conjecture_search(5, 2)
    assert report.argmax_index == 389 * 625 + 17
    assert report.argmax_ratio_exponents == ((3, 0, 2, 4), (0, 0, 3, 2))


def test_d7_uniform_values_build_only_the_all_zero_row(monkeypatch):
    shapes = []

    def recording(d, ratios):
        shapes.append(np.shape(ratios))
        return build(d, ratios)

    build = generalized._factor_exponents
    monkeypatch.setattr(generalized, "_factor_exponents", recording)
    uniform_factors(7)
    general_uniform_value(7, 5)
    # one all-zero row for the factors, one per site for the N = 5 product
    assert shapes == [(1, 7), (5, 7)]


def test_mixing_exponent_lives_in_mermin():
    assert generalized.mixing_exponent is mermin.mixing_exponent
    assert "mixing_exponent" in generalized.__all__


def test_verify_budget_first_over_cap_n_per_dimension():
    for d, last in ((3, 14), (5, 9), (7, 8)):
        with pytest.raises(ValueError):
            verify_general_eigenvalue(GeneralConfig(d, last + 1))
    assert verify_general_eigenvalue(GeneralConfig(5, 8)) == 5**7


def letter_rows(d, letters):
    """(N, d) ratio rows of ratio letters: column 0 is 0, then the base-d digits."""
    letters = np.asarray(letters, dtype=np.int64).reshape(-1, 1)
    return letters // d ** np.arange(d - 1, -1, -1) % d


@pytest.mark.parametrize("d, n_max", [(3, 10), (5, 3), (7, 2)])
def test_histogram_product_equals_the_ring_loop(d, n_max):
    # oracle: per-root factors multiplied one CycInt at a time (exact_letters_sum)
    rng = np.random.default_rng(1400 + d)
    letter = [c if c <= d // 2 else c - d for c in range(d)]  # column -> j
    # no sites: d empty products
    assert _product_sum(d, np.zeros((0, d), dtype=np.int64)) == CycInt.integer(d, d * d)
    for n_sites in range(1, n_max + 1):
        for _ in range(12):
            rows = letter_rows(d, rng.integers(0, d ** (d - 1), size=n_sites))
            factors = [
                tuple(
                    per_root_factor(d, p, {letter[c]: t for c, t in enumerate(row)})
                    for p in range(d)
                )
                for row in rows.tolist()
            ]
            assert _product_sum(d, rows) == exact_letters_sum(
                d * d, factors, range(n_sites)
            ), (d, rows)


def test_root_coefficient_columns_hold_at_most_two_units():
    # the range proof of _product_sum: column j of the reduction table is
    # +1 at alpha**j and -1 at alpha**(phi + j mod d), and zero elsewhere
    for d in (3, 5, 7):
        table = _root_coeffs(d * d)
        phi = d * (d - 1)
        expected = np.zeros_like(table)
        expected[np.arange(phi), np.arange(phi)] = 1
        expected[phi + np.arange(phi) % d, np.arange(phi)] = -1
        assert np.array_equal(table, expected)


@pytest.mark.parametrize("n_sites", [38, 39, 40, 60])
def test_histogram_product_is_exact_past_the_int64_switch(n_sites):
    # 3**(N+1) < 2**63 up to N = 38; N = 39 and 40 take Python integers, and
    # at N = 60 the histogram counts themselves pass 2**63
    rng = np.random.default_rng(n_sites)
    factors = ratio_space(3, 1).factors
    uniform = [0] * n_sites
    mixed = uniform[: n_sites // 2] + rng.integers(0, 9, size=n_sites - n_sites // 2).tolist()
    for letters in (uniform, mixed):
        assert _product_sum(3, letter_rows(3, letters)) == exact_letters_sum(
            9, factors, letters
        )
    total = _product_sum(3, letter_rows(3, uniform))
    assert total == CycInt.integer(3 * uniform_value(n_sites), 9)


def test_uniform_sum_equals_the_power_loop():
    # oracle: sum_p F_p**N by repeated CycInt squaring
    for d in (3, 5, 7):
        row = _factor_rows(d, np.zeros((1, d), dtype=np.int64))[0]
        for n_sites in range(1, 10):
            expected = sum((f**n_sites for f in row), CycInt.zero(d * d))
            assert general_uniform_sum(d, n_sites) == expected, (d, n_sites)


def test_cold_ratio_search_builds_no_factor_rows(monkeypatch):
    built = []
    post_init = CycInt.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    generalized._ratio_counts.cache_clear()
    monkeypatch.setattr(CycInt, "__post_init__", counting)
    raw = _enumeration.run_search(ratio_space(5, 2))
    assert raw.assignments_scanned == 625**2
    # one value per distinct band value and its square, not one per factor
    assert len(built) <= 10
