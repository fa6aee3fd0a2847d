"""Odd-dimension generalization: d=3 consistency, d=5 values, d=7 spot checks.

The d=5 factor magnitudes are recomputed here from plain cosine sums as an
independent float oracle before the exact route is trusted.
"""

import cmath
import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_mermin import _enumeration, generalized, mermin
from qudit_mermin.cyclotomic import (
    CycInt,
    _root_coeffs,
    compare_real_coeffs,
    root_counts,
    root_of_unity,
)
from qudit_mermin._enumeration import _class_values
from qudit_mermin.generalized import (
    GeneralConfig,
    _diagonal_groups,
    _diagonal_search,
    _diagonal_tally,
    _factor_exponents,
    _letter_forms,
    _parseval_search,
    _ratio_counts,
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
    _ratio_ranking,
    exhaustive_search,
    factor_value,
    uniform_value,
)
from qudit_mermin.mermin import build_mermin

from oracles import exact_letters_sum


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

    def never(*args):
        raise AssertionError("a ratio letter table was built")

    # d >= 5 is answered at N <= 2 and refused at N = 3 by the site budget,
    # in either case before any root-count table is built or range-checked
    monkeypatch.setattr(generalized, "_ratio_counts", never)
    monkeypatch.setattr(_enumeration, "_check_range", never)
    for d in (5, 7, 11, 13):
        assert conjecture_search(d, 2).uniform_is_max
        with pytest.raises(ValueError, match=r"^conjecture sites: 3 exceeds the cap of 2$"):
            conjecture_search(d, 3)
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
    for d in (3, 5, 7, 11, 13):
        entries = uniform_factors(d).entries
        assert sorted(entry.product_index for entry in entries) == list(range(d))
        for entry in entries:
            assert entry.value == per_root_factor(d, entry.product_index)
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
    raw = _parseval_search(5, 2, general_sq(5, 2))
    fake = dataclasses.replace(raw, argmax_index=389 * 625 + 17)
    monkeypatch.setattr(generalized, "_parseval_search", lambda *args: fake)
    report = conjecture_search(5, 2)
    assert report.argmax_index == 389 * 625 + 17
    assert report.argmax_ratio_exponents == ((3, 0, 2, 4), (0, 0, 3, 2))


def test_d7_uniform_values_build_only_the_all_zero_row(monkeypatch):
    shapes = []

    def recording(d, ratios):
        shapes.append(np.shape(ratios))
        return build(d, ratios)

    build = generalized._factor_exponents
    generalized._uniform_counts.cache_clear()
    monkeypatch.setattr(generalized, "_factor_exponents", recording)
    uniform_factors(7)
    general_uniform_value(7, 5)
    # one all-zero row, shared by the factors and the N = 5 uniform sum
    assert shapes == [(1, 7)]


def test_mixing_exponent_lives_in_mermin():
    assert generalized.mixing_exponent is mermin.mixing_exponent
    assert "mixing_exponent" in generalized.__all__


def test_ratio_space_states_its_factor_table_from_d(monkeypatch):
    # d**(d-1) letters x d slots x d**2 root counts = d**(d+2), stated from d,
    # so an admitted d past 5 is refused at once and no d**(d-1) is formed;
    # a d past 13 is refused before, by the local-dimension budget d**5
    def never(*args):
        raise AssertionError("an over-budget space reached its build")

    monkeypatch.setattr(generalized, "_ratio_counts", never)
    for d in (7, 11, 13):
        with pytest.raises(ValueError) as refused:
            ratio_space(d, 1)
        assert str(refused.value) == f"ratio factor table: {d}**{d + 2} exceeds the cap of 1000000"
    for d in (17, 101, 1501, 10**6 + 1):
        with pytest.raises(ValueError) as refused:
            ratio_space(d, 1)
        assert str(refused.value) == f"local dimension: {d}**5 exceeds the cap of 1048576"
    for d in (0, -3, 10**6):  # even or below 3: refused before any power of d is taken
        with pytest.raises(ValueError, match=f"local dimension must be odd and >= 3, got {d}"):
            ratio_space(d, 1)
    monkeypatch.undo()
    assert ratio_space(5, 2).alphabet == 5**4  # 5**7 = 78,125 root counts


def test_verify_budget_first_over_cap_n_per_dimension():
    for d, last in ((3, 14), (5, 9), (7, 8)):
        with pytest.raises(ValueError):
            verify_general_eigenvalue(GeneralConfig(d, last + 1))
    assert verify_general_eigenvalue(GeneralConfig(5, 8)) == 5**7


def letter_rows(d, letters):
    """(N, d) ratio rows of ratio letters: column 0 is 0, then the base-d digits."""
    letters = np.asarray(letters, dtype=np.int64).reshape(-1, 1)
    return letters // d ** np.arange(d - 1, -1, -1) % d


def rows_sum(d, rows):
    """sum_p prod_i F_p(rows[i]) by ``_class_values``: letters 0..N-1 of the rows' own counts."""
    counts = root_counts(d * d, _factor_exponents(d, rows))
    values = _class_values(counts, np.arange(len(rows))[None])
    return CycInt(d * d, tuple(values[0].tolist()))


@pytest.mark.parametrize("d, n_max", [(3, 10), (5, 3), (7, 2)])
def test_histogram_product_equals_the_ring_loop(d, n_max):
    # oracle: per-root factors multiplied one CycInt at a time (exact_letters_sum)
    rng = np.random.default_rng(1400 + d)
    letter = [c if c <= d // 2 else c - d for c in range(d)]  # column -> j
    # no sites: d empty products
    assert rows_sum(d, np.zeros((0, d), dtype=np.int64)) == CycInt.integer(d, d * d)
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
            assert rows_sum(d, rows) == exact_letters_sum(
                d * d, factors, range(n_sites)
            ), (d, rows)


def test_root_coefficient_columns_hold_at_most_two_units():
    # the range proof of _site_product: column j of the reduction table is
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
        assert rows_sum(3, letter_rows(3, letters)) == exact_letters_sum(
            9, factors, letters
        )
    total = rows_sum(3, letter_rows(3, uniform))
    assert total == CycInt.integer(3 * uniform_value(n_sites), 9)


def test_admitted_dimensions_and_the_one_site_sum():
    # one site: sum_p F_p = sum_j alpha**(j*(d-1)) sum_p omega**(j*p) = d
    admitted = []
    for d in range(-1, 20):
        try:
            GeneralConfig(d, 1)
        except ValueError:
            continue
        admitted.append(d)
        assert general_uniform_sum(d, 1) == CycInt.integer(d, d * d)
    assert admitted == [3, 5, 7, 11, 13]


def test_class_values_switch_to_python_integers():
    # 3 * 3**40 >= 2**63, so the one block of N = 40 letters leaves int64
    values = _class_values(_ratio_counts(3), np.zeros((1, 40), dtype=np.intp))
    assert values.dtype == object
    assert 3 * uniform_value(40) == 13777102262077146
    assert values.tolist() == [[3 * uniform_value(40), 0, 0, 0, 0, 0]]


def test_uniform_sum_equals_the_power_loop():
    # oracle: sum_p F_p**N by repeated CycInt squaring
    for d, sizes in ((3, range(1, 10)), (5, range(1, 10)), (7, [*range(1, 10), 200]),
                     (11, range(1, 4)), (13, range(1, 4))):
        row = [per_root_factor(d, p) for p in range(d)]
        for n_sites in sizes:
            expected = sum((f**n_sites for f in row), CycInt.zero(d * d))
            assert general_uniform_sum(d, n_sites) == expected, (d, n_sites)
    # past the int64 switch of the mass, 3 * 3**40 >= 2**63
    assert general_uniform_sum(3, 40) == CycInt.integer(13777102262077146, 9)
    assert 3 * uniform_value(40) == 13777102262077146


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


# ---- the d >= 5 conjecture at N <= 2 in closed form ------------------------------


def general_sq(d, n_sites):
    """Exact |d*v|**2 at the all-ones point, as ``conjecture_search`` forms it."""
    value = general_uniform_sum(d, n_sites)
    return (value * value.conjugate()).coeffs


@pytest.mark.parametrize("d, n_sites", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_closed_form_equals_the_class_ranking(d, n_sites):
    raw = _enumeration.run_search(ratio_space(d, n_sites))
    assert _parseval_search(d, n_sites, general_sq(d, n_sites)) == raw
    report = conjecture_search(d, n_sites)
    assert (report.max_sq_coeffs, report.num_maximizers) == (
        raw.best_sq_coeffs, raw.num_maximizers
    )
    assert (report.argmax_index, report.assignments_scanned) == (
        raw.argmax_index, raw.assignments_scanned
    )
    assert report.max_magnitude == math.sqrt(raw.best_sq_value) / d
    assert report.uniform_is_max and report.uniform_sq_coeffs == raw.best_sq_coeffs


def test_closed_form_checks_its_premise_on_the_all_ones_value(monkeypatch):
    # a wrong all-ones value must stop the report, not pass as the maximum
    with pytest.raises(ArithmeticError, match=r"does not square to 5\*\*4"):
        _parseval_search(5, 2, general_sq(5, 1))
    off = general_uniform_sum(7, 2) + CycInt.integer(1, 49)
    monkeypatch.setattr(generalized, "general_uniform_sum", lambda d, n: off)
    with pytest.raises(ArithmeticError, match=r"does not square to 7\*\*4"):
        conjecture_search(7, 2)


def sampled_d7_letters():
    """400 seeded d = 7 letters and their (400, 7, 49) root counts, without the 323 MB table."""
    d = 7
    letters = np.random.default_rng(7).integers(0, d ** (d - 1), size=400)
    return letters, root_counts(d * d, _factor_exponents(d, letter_rows(d, letters)))


def factor_rows(counts):
    """(A, d, m) root counts as ``CycInt`` rows, F_p(a) at [a][p]."""
    m = counts.shape[-1]
    return [[CycInt(m, tuple(f)) for f in row] for row in (counts @ _root_coeffs(m)).tolist()]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_every_factor_row_obeys_parseval_and_sums_to_d(d):
    # the row is the length-d Fourier transform of unimodular g_j with g_0 = 1
    counts = _ratio_counts(d) if d < 7 else sampled_d7_letters()[1]
    square, total = CycInt.integer(d * d, d * d), CycInt.integer(d, d * d)
    for row in factor_rows(counts):
        assert sum((f * f.conjugate() for f in row), CycInt.zero(d * d)) == square
        assert sum(row, CycInt.zero(d * d)) == total


def partner(d, letters):
    """Letter b with t_j(b) = -t_{-j}(a): the digit of column c becomes -t at column -c mod d."""
    rows = letter_rows(d, letters)
    return (-rows[:, (-np.arange(d)) % d] % d) @ d ** np.arange(d - 1, -1, -1)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_each_letter_and_its_partner_attain_d_squared(d):
    if d < 7:
        letters, counts = np.arange(d ** (d - 1)), _ratio_counts(d)
    else:
        letters, counts = sampled_d7_letters()
    partners = partner(d, letters)
    assert np.array_equal(partner(d, partners), letters)  # an involution
    assert partner(d, [0]).tolist() == [0]
    mates = root_counts(d * d, _factor_exponents(d, letter_rows(d, partners)))
    square = CycInt.integer(d * d, d * d)
    for row, mate in zip(factor_rows(counts), factor_rows(mates), strict=True):
        value = sum((f * g for f, g in zip(row, mate)), CycInt.zero(d * d))
        assert value == square


# ---- the d = 3 ratio search from its proven bound -------------------------------


def test_every_qutrit_letter_is_a_root_times_a_shifted_all_ones_row():
    rows = ratio_space(3, 1).factors
    ones = rows[0]
    assert [f.to_complex() for f in ones] == pytest.approx([B_VALUE, -C_VALUE, A_VALUE])
    forms = _letter_forms(_ratio_counts(3)).tolist()
    assert [a for a, *_ in forms] == list(range(9))
    for a, s, c, k in forms:
        for p in range(3):
            assert rows[a][p] == root_of_unity(c + 3 * p * k, 9) * ones[(p + s) % 3], (a, p)
    assert [sorted(a for a, s, *_ in forms if s == g) for g in range(3)] == [
        [0, 2, 3], [4, 5, 8], [1, 6, 7]
    ]
    assert sorted(a for a, _, c, k in forms if c == k == 0) == [0, 5, 7]
    groups = _diagonal_groups()
    assert [[forms[a][3] for a in row] for row in groups] == [[0, 1, 2]] * 3
    assert [sorted(row) for row in groups] == [[0, 2, 3], [4, 5, 8], [1, 6, 7]]


def test_a_corrupted_count_table_fails_the_row_fact(monkeypatch):
    counts = np.array(_ratio_counts(3))
    counts[4, 1] = np.roll(counts[4, 1], 1)  # one slot of letter 4 turned by alpha
    with pytest.raises(ArithmeticError, match="not a root times"):
        _letter_forms(counts)
    # letter 2 a copy of letter 0: every letter has a form, but group 0 lacks k = 1
    counts = np.array(_ratio_counts(3))
    counts[2] = counts[0]
    assert len(_letter_forms(counts)) == 9
    monkeypatch.setattr(generalized, "_ratio_counts", lambda d: counts)
    generalized._qutrit_forms.cache_clear()
    _diagonal_groups.cache_clear()
    with pytest.raises(ArithmeticError, match="one letter of every k"):
        _diagonal_groups()


def test_the_bound_premises_hold_at_50_digits():
    with mpmath.workdps(50):
        a, b, c = (abs(1 + 2 * mpmath.cos(2 * mpmath.pi * j / 9)) for j in (1, 2, 4))
        assert c < b < a
        magnitudes = (b, c, a)  # |F_q(0)|
        # N = 2: U/L over the three shift vectors s_1 != s_2
        total = a**2 + b**2 + c**2
        assert mpmath.almosteq(total, 9, 1e-45)
        ratios = [
            sum(magnitudes[(p + s1) % 3] * magnitudes[(p + s2) % 3] for p in range(3)) / total
            for s1, s2 in itertools.combinations(range(3), 2)
        ]
        assert len(ratios) == 3 and max(ratios) < 1
        assert mpmath.nstr(max(ratios), 4) == "0.7581"
        # N >= 3: r + r**(N-1) < 1 - q**N, first at N = 3
        r, q = b / a, c / a
        left, right = r + r**2, 1 - q**3
        assert left < right
        assert (mpmath.nstr(left, 4), mpmath.nstr(right, 4)) == ("0.8152", "0.9581")
        # the bound on U: the largest of sum_p r**(N - n_p) over admitted (n_p) is the vertex
        for n in range(3, 9):
            vertex = r + r ** (n - 1) + r**n
            for counts in itertools.product(range(n), repeat=3):
                if sum(counts) == n:
                    assert sum(r ** (n - k) for k in counts) <= vertex * (1 + 1e-40)


def test_the_bound_holds_for_every_shift_vector_up_to_eight_sites():
    # U of every shift vector that is not constant stays below L = |p_N|
    with mpmath.workdps(30):
        magnitudes = [abs(1 + 2 * mpmath.cos(2 * mpmath.pi * j / 9)) for j in (2, 4, 1)]
        for n in range(2, 9):
            total = abs(sum(m**n * (-1 if i == 1 else 1) ** n for i, m in enumerate(magnitudes)))
            for shifts in itertools.combinations_with_replacement(range(3), n):
                if len(set(shifts)) > 1:
                    bound = sum(
                        mpmath.fprod(magnitudes[(p + s) % 3] for s in shifts) for p in range(3)
                    )
                    assert bound < total, shifts


@pytest.mark.parametrize("n", range(1, 16))
def test_diagonal_search_equals_the_class_ranking(n):
    assert _diagonal_search(n) == _ratio_ranking(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_tally_counts_and_orders_every_winner_set(n):
    forms = _letter_forms(_ratio_counts(3))
    shift, k = forms[:, 1].tolist(), forms[:, 3].tolist()
    for size in (1, 2, 3):
        for winners in itertools.combinations(range(3), size):
            hits = [
                index
                for index, letters in enumerate(itertools.product(range(9), repeat=n))
                if len({shift[a] for a in letters}) == 1
                and sum(k[a] for a in letters) % 3 in winners
            ]
            assert _diagonal_tally(n, winners) == (len(hits), hits[0]), winners


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.lists(st.integers(0, 8), min_size=n, max_size=n)))
def test_no_sampled_class_beats_the_diagonal_maximum(letters):
    n = len(letters)
    best = _diagonal_search(n).best_sq_coeffs
    row = _class_values(_ratio_counts(3), np.array([sorted(letters)]))[0]
    value = CycInt(9, tuple(row.tolist()))
    order = compare_real_coeffs(9, (value * value.conjugate()).coeffs, best)
    assert order <= 0
    if order == 0:  # a maximizer is diagonal: all its letters share one shift group
        assert any(set(letters) <= set(group) for group in _diagonal_groups())
