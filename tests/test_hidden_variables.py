"""Classical values: factor table, closed forms, and exhaustive searches.

Independent oracles: the factor constants are recomputed from cosines, the
integer recurrence is validated against direct float powers, the small
searches are cross-checked by a plain double loop over all assignments,
the full-mode maximizer count is reproduced by a from-scratch integer
evaluation written in this file, and the full-mode class walk is
checked against the per-term scanner full mode once ran, kept here as the
reference.  The per-term ``hv_value_direct`` loop and the per-word witness
build (``contradiction_witness``) are the references for their
exponent-array replacements.
"""

import dataclasses
import functools
import gc
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from qudit_mermin import _enumeration, hidden_variables, qudit_ops
from qudit_mermin._enumeration import (
    _class_letters,
    _class_tally,
    _class_values,
    _level_ends,
    _multiset_scores,
    _multiset_values,
    decode_index,
    full_space_scores,
    run_search,
)
from qudit_mermin.cli import cli
from qudit_mermin.cyclotomic import CycInt, PhaseExponent, _alpha_powers, root_of_unity
from qudit_mermin.generalized import ratio_space
from qudit_mermin.hidden_variables import (
    A_VALUE,
    B_VALUE,
    C_VALUE,
    FactorTriple,
    HVAssignment,
    SearchResult,
    WitnessRecord,
    _check_site_symmetry,
    _class_scores,
    _encode_terms,
    _term_table,
    contradiction_witness,
    exhaustive_search,
    factor_table,
    factor_value,
    ghz_contradiction_count,
    hv_value_direct,
    hv_value_product,
    hv_value_product_exact,
    iter_contradiction_witnesses,
    max_equals_uniform,
    permutation_class_max,
    power_sum,
    uniform_value,
    violation_ratio,
)
from qudit_mermin.mermin import MerminOperator, PositionCounts, build_mermin
from qudit_mermin.qudit_ops import EigenstateError, SettingWord

from oracles import (
    FULL_DIGIT,
    RATIO_DIGIT,
    exact_letters_sum,
    triple_class_scores,
    triple_full_search,
    triple_ratio_ranks,
)

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


def test_constants_from_cosines():
    assert abs(A_VALUE - (1 + 2 * math.cos(2 * math.pi / 9))) < 1e-15
    assert abs(B_VALUE - (1 + 2 * math.cos(4 * math.pi / 9))) < 1e-15
    assert abs(C_VALUE + (1 + 2 * math.cos(8 * math.pi / 9))) < 1e-15
    assert abs(A_VALUE - 2.532) < 1e-3
    assert abs(B_VALUE - 1.347) < 1e-3
    assert abs(C_VALUE - 0.879) < 1e-3
    assert A_VALUE > B_VALUE > C_VALUE > 0
    # roots of x**3 - 3x**2 + 3: elementary symmetric functions 3, 0, -3
    roots = (A_VALUE, B_VALUE, -C_VALUE)
    assert abs(sum(roots) - 3) < 1e-12
    e2 = sum(a * b for a, b in itertools.combinations(roots, 2))
    assert abs(e2) < 1e-12
    assert abs(roots[0] * roots[1] * roots[2] + 3) < 1e-12


def test_c_factor_is_real_negative():
    z = factor_value("C", 0, 0).to_complex()
    assert abs(z.imag) < 1e-12 and z.real < 0


# The nine factor-table rows: (R, S) -> ((letter, phase), ...) in A, B, C order.
FACTOR_TABLE_REFERENCE = {
    (0, 0): (("A", 0.0), ("B", 0.0), ("C", 180.0)),
    (1, 0): (("A", 40.0), ("B", -80.0), ("C", -20.0)),
    (0, 2): (("A", -40.0), ("B", 80.0), ("C", 20.0)),
    (1, 2): (("B", 0.0), ("C", 180.0), ("A", 0.0)),
    (2, 1): (("C", 180.0), ("A", 0.0), ("B", 0.0)),
    (2, 0): (("C", 20.0), ("A", -40.0), ("B", 80.0)),
    (0, 1): (("C", -20.0), ("A", 40.0), ("B", -80.0)),
    (1, 1): (("B", 80.0), ("C", 20.0), ("A", -40.0)),
    (2, 2): (("B", -80.0), ("C", -20.0), ("A", 40.0)),
}


def test_factor_table_matches_reference():
    rows = {(row.r_exp, row.s_exp): row for row in factor_table()}
    assert len(rows) == 9
    magnitudes = {"A": A_VALUE, "B": B_VALUE, "C": C_VALUE}
    for key, expected in FACTOR_TABLE_REFERENCE.items():
        row = rows[key]
        for entry, (letter, phase) in zip(row.entries, expected):
            assert entry.letter == letter
            assert abs(entry.phase_deg - phase) < 1e-9
            assert abs(entry.magnitude - magnitudes[letter]) < 1e-9


def test_factor_triples_are_the_table_rows():
    # FactorTriple.at builds one row, factor_table all nine in one call
    for row in factor_table():
        triple = FactorTriple.at(row.r_exp, row.s_exp)
        assert triple == row.triple == FactorTriple.at(row.r_exp + 3, row.s_exp - 3)
        assert triple.a_value == factor_value("A", row.r_exp, row.s_exp)
        assert triple.b_value == factor_value("B", row.r_exp, row.s_exp)
        assert triple.c_value == factor_value("C", row.r_exp, row.s_exp)
    with pytest.raises(ValueError, match="ratio exponents must be integers"):
        FactorTriple.at(0.5, 0)


def test_factor_multiset_conserved():
    for row in factor_table():
        letters = sorted(entry.letter for entry in row.entries)
        assert letters == ["A", "B", "C"]


def test_factor_table_entries_are_exact_root_multiples():
    # A, B, C as exact positive reals: the R = S = 1 factors, with -C negated
    constants = {letter: factor_value(letter, 0, 0) for letter in "AB"}
    constants["C"] = -factor_value("C", 0, 0)
    for row in factor_table():
        values = (row.triple.a_value, row.triple.b_value, row.triple.c_value)
        for entry, value in zip(row.entries, values):
            matches = [
                (s, e)
                for s in (1, -1)
                for e in range(9)
                if value == constants[entry.letter] * s * root_of_unity(e, 9)
            ]
            assert len(matches) == 1
            s, e = matches[0]
            assert (40 * e + (180 if s < 0 else 0) - entry.phase_deg) % 360 == 0
            assert -180 < entry.phase_deg <= 180
            assert entry.magnitude == abs(value.to_complex())
    assert len(hidden_variables._factor_phases()) == 54  # all 2 * 9 * 3 distinct
    # one unit off: no sign and root of unity times A, B or C gives it
    with pytest.raises(ArithmeticError):
        hidden_variables._classify(constants["A"] + 1)
    bad = constants["B"].times_root(1) + 1
    tampered = mock.patch.object(
        hidden_variables, "_factor_rows", lambda d, ratios: [(bad,) * 3 for _ in ratios]
    )
    with tampered, pytest.raises(ArithmeticError):
        factor_table()


def test_power_sum_recurrence_against_float_powers():
    for n in range(21):
        direct = A_VALUE**n + B_VALUE**n + (-C_VALUE) ** n
        assert abs(power_sum(n) - direct) < 1e-9 * max(1.0, abs(direct))


def test_power_sum_keeps_the_list_recurrence():
    p = [3, 3, 9]
    while len(p) <= 300:
        p.append(3 * p[-1] - 3 * p[-3])
    assert [power_sum(n) for n in range(301)] == p
    u = uniform_value(1000)
    assert len(str(u)) == 404 and u % 10**12 == 944483504782


def test_uniform_values():
    assert [uniform_value(n) for n in range(3, 8)] == [6, 15, 36, 90, 225]
    assert uniform_value(1) == 1
    assert uniform_value(2) == 3
    assert uniform_value(10) == power_sum(10) // 3
    # float route of the closed form agrees with the integer route
    for n in range(1, 21):
        sign = 1 if n % 2 == 0 else -1
        float_route = (A_VALUE**n + B_VALUE**n + sign * C_VALUE**n) / 3
        assert abs(uniform_value(n) - float_route) < 1e-6


def test_hv_value_direct_examples():
    op3 = build_mermin(3, 3, 0)
    assert hv_value_direct(HVAssignment.uniform(3), op3) == CycInt.integer(6, 9)
    op2 = build_mermin(3, 2, 0)
    assert hv_value_direct(HVAssignment.uniform(2), op2) == CycInt.integer(3, 9)
    op1 = build_mermin(3, 1, 0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        values = tuple(int(v) for v in rng.integers(0, 3, size=3))
        value = hv_value_direct(HVAssignment((values,)), op1)
        assert abs(value.magnitude() - 1.0) < 1e-12


# rotation index -> column of the (X, Y, V) value triple
_COLUMN = {0: 0, 1: 1, -1: 2}


def reference_hv_value_direct(assignment, op):
    """The per-term loop ``hv_value_direct`` replaced: weight * omega**e per term."""
    total = CycInt.zero(9)
    for word, weight in op.terms:
        e = sum(assignment.values[i][_COLUMN[j]] for i, j in enumerate(word.letters))
        total = total + weight.times_root(3 * e)
    return total


def direct_counting_times_root(assignment, op):
    """``hv_value_direct`` and the number of ``CycInt.times_root`` calls it made."""
    with mock.patch.object(
        CycInt, "times_root", autospec=True, side_effect=CycInt.times_root
    ) as spy:
        value = hv_value_direct(assignment, op)
    return value, spy.call_count


@functools.cache
def mermin_operator(n_sites, variant):
    op = build_mermin(3, n_sites, variant)
    op.terms  # materialize once for the reference loop
    return op


def value_rows(n_sites):
    triple = st.tuples(*[st.integers(0, 2)] * 3)
    return st.lists(triple, min_size=n_sites, max_size=n_sites).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(value_rows), st.integers(0, 2))
# the group boundaries of ``value_codes``: one whole group of four sites,
# one site past it, two whole groups
@example(((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 1, 2)), 1)
@example(((2, 1, 0), (0, 0, 1), (1, 2, 2), (2, 2, 0), (0, 1, 1)), 2)
@example(((1, 0, 2), (2, 2, 1), (0, 1, 0), (1, 2, 2),
          (2, 0, 0), (0, 2, 1), (1, 1, 0), (2, 1, 2)), 0)
def test_hv_value_direct_matches_the_per_term_loop(values, variant):
    op = mermin_operator(len(values), variant)
    assignment = HVAssignment(values)
    value, calls = direct_counting_times_root(assignment, op)
    assert value == reference_hv_value_direct(assignment, op)
    assert calls <= 3


def test_hv_value_direct_past_the_reference_loop_is_the_product_form():
    # N = 9..12, too slow for the per-term loop: 3v is omega**(sum of x) times
    # the factor product P of the ratios, so |3v|**2 = |P|**2 exactly
    rng = np.random.default_rng(41)
    for n_sites in range(9, 13):
        op = build_mermin(3, n_sites, 0)
        for _ in range(3):
            values = rng.integers(0, 3, size=(n_sites, 3))
            assignment = HVAssignment(tuple(map(tuple, values.tolist())))
            v3 = hv_value_direct(assignment, op) * 3
            ratios = assignment.ratios
            p = hv_value_product_exact([r for r, _ in ratios], [s for _, s in ratios])
            assert v3 * v3.conjugate() == p * p.conjugate()
            assert v3 == p.times_root(3 * int(values[:, 0].sum()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hv_value_direct_on_arbitrary_root_weights(data):
    # from_terms operators: any alpha**e weight, repeated words, any order
    n_sites = data.draw(st.integers(1, 5))
    word = st.tuples(*[st.sampled_from((-1, 0, 1))] * n_sites)
    pairs = data.draw(st.lists(st.tuples(word, st.integers(0, 8)), max_size=40))
    pairs += pairs[:1]
    terms = [(SettingWord(3, w), root_of_unity(e, 9)) for w, e in pairs]
    op = MerminOperator.from_terms(3, n_sites, data.draw(st.integers(0, 2)), terms)
    assignment = HVAssignment(data.draw(value_rows(n_sites)))
    value, calls = direct_counting_times_root(assignment, op)
    assert value == reference_hv_value_direct(assignment, op)
    assert calls <= 3


def expected_value_codes(op):
    """81*q + sum_k c_(4q+k) * 3**k for each group q of four sites and each term."""
    groups = -(-op.n_sites // 4)
    codes = np.zeros((groups, op.term_count), dtype=np.int64)
    for t, row in enumerate(op.letters.tolist()):
        for i, j in enumerate(row):
            codes[i // 4, t] += _COLUMN[j] * 3 ** (i % 4)
    return codes + 81 * np.arange(groups)[:, None]


def test_value_codes_are_a_read_only_cache_on_the_operator():
    op = build_mermin(3, 5, 1)
    codes = op.value_codes
    assert codes is op.value_codes  # computed once per operator
    assert codes.shape == (2, op.term_count) and codes.dtype.itemsize == 1
    assert np.array_equal(codes, expected_value_codes(op))
    with pytest.raises(ValueError):
        codes[0, 0] = 0
    # the cache takes no part in equality or hashing
    fresh = build_mermin(3, 5, 1)
    assert op == fresh and hash(op) == hash(fresh)
    assert "value_codes" in vars(op) and "value_codes" not in vars(fresh)
    assert op != build_mermin(3, 5, 2)


def test_value_codes_are_freed_with_their_operator():
    op = build_mermin(3, 5, 0)
    hv_value_direct(HVAssignment.uniform(5), op)
    codes = weakref.ref(op.value_codes)
    owner = weakref.ref(op)
    del op
    gc.collect()
    assert codes() is None and owner() is None


def test_value_codes_of_from_terms_operators():
    rng = np.random.default_rng(14)
    for n_sites in (1, 3, 6, 13):
        for n_terms in (0, 1, 7, 50):
            words = rng.integers(-1, 2, size=(n_terms, n_sites))
            terms = [
                (SettingWord(3, tuple(w)), root_of_unity(int(e), 9))
                for w, e in zip(words.tolist(), rng.integers(0, 9, size=n_terms))
            ]
            op = MerminOperator.from_terms(3, n_sites, 0, terms)
            assert op.value_codes.shape == (-(-n_sites // 4), n_terms)
            assert np.array_equal(op.value_codes, expected_value_codes(op))
            assert op.value_codes.nbytes <= n_sites * n_terms
            assignment = HVAssignment(
                tuple(map(tuple, rng.integers(0, 3, size=(n_sites, 3)).tolist()))
            )
            assert hv_value_direct(assignment, op) == reference_hv_value_direct(
                assignment, op
            )
    assert op.value_codes.dtype == np.uint16  # 4 groups: codes up to 4 * 81 - 1


@pytest.mark.parametrize("n_sites", [1, 4, 5, 8, 12])
def test_value_codes_are_no_larger_than_one_byte_per_site_and_term(n_sites):
    # the uint8 (N, T) column index the codes replaced held N * T bytes
    op = build_mermin(3, n_sites, 0)
    assert op.value_codes.nbytes <= n_sites * op.term_count


def test_hv_value_product_exact_makes_no_ring_multiplies():
    rng = np.random.default_rng(9)
    for n_sites in (1, 8, 40):
        letters = rng.integers(0, 9, size=n_sites).tolist()
        expected = exact_letters_sum(9, ratio_space(3, 1).factors, letters)
        with mock.patch.object(
            CycInt, "__mul__", autospec=True, side_effect=CycInt.__mul__
        ) as spy:
            value = hv_value_product_exact(
                [a // 3 for a in letters], [a % 3 for a in letters]
            )
        assert spy.call_count == 0
        assert value == expected


def test_hv_value_direct_rejects_other_d_and_site_counts():
    with pytest.raises(ValueError, match="d=3"):
        hv_value_direct(HVAssignment.uniform(2), build_mermin(5, 2, 0))
    with pytest.raises(ValueError, match="site counts"):
        hv_value_direct(HVAssignment.uniform(3), build_mermin(3, 4, 0))


def test_hv_value_product_refuses_non_integer_exponents():
    # truncating would give the value at ([1, 0], [0, 2])
    for r_exps, s_exps in (([1.5, 0], [0, 2.7]), (["1", 0], [0, 2])):
        for evaluate in (hv_value_product_exact, hv_value_product):
            with pytest.raises(ValueError, match="ratio exponents must be integers"):
                evaluate(r_exps, s_exps)
    # numpy integers are integers
    assert hv_value_product_exact(np.array([1, 0]), np.array([0, 2])) == (
        hv_value_product_exact([1, 0], [0, 2])
    )


def test_hv_value_product_examples():
    assert abs(hv_value_product([0, 0, 0], [0, 0, 0]) - 6.0) < 1e-9
    assert abs(hv_value_product([0] * 4, [0] * 4) - 15.0) < 1e-9
    assert abs(hv_value_product([0, 0], [0, 0]) - 3.0) < 1e-9
    direct = (A_VALUE**2 + B_VALUE**2 + C_VALUE**2) / 3
    assert abs(direct - 3.0) < 1e-12


def test_ratio_reduction_exact_on_random_full_assignments():
    rng = np.random.default_rng(23)
    for n in (3, 4):
        op = build_mermin(3, n, 0)
        for _ in range(150):
            values = tuple(
                tuple(int(v) for v in rng.integers(0, 3, size=3)) for _ in range(n)
            )
            assignment = HVAssignment(values)
            direct = hv_value_direct(assignment, op)
            ratios = assignment.ratios
            exact3v = hv_value_product_exact(
                [r for r, _ in ratios], [s for _, s in ratios]
            )
            # |3 v_direct|**2 == |3 v_ratio|**2 exactly (equal up to a phase)
            lhs = (direct * 3) * (direct * 3).conjugate()
            rhs = exact3v * exact3v.conjugate()
            assert lhs == rhs


def brute_force_ratio_max(n_sites):
    """Plain double loop over all 9**N ratio assignments (float magnitudes)."""
    best = -1.0
    count = 0
    for ratios in itertools.product(range(3), repeat=2 * n_sites):
        r = ratios[0::2]
        s = ratios[1::2]
        value = hv_value_product(r, s)
        if value > best + 1e-9:
            best, count = value, 1
        elif value > best - 1e-9:
            count += 1
    return best, count


def test_search_n1_and_n2():
    r1 = exhaustive_search(1)
    assert abs(r1.max_magnitude - 1.0) < 1e-12
    assert r1.num_maximizers == 9 and r1.assignments_scanned == 9
    assert r1.argmax_index == 0
    r2 = exhaustive_search(2)
    assert abs(r2.max_magnitude - 3.0) < 1e-12
    assert r2.num_maximizers == 9
    assert max_equals_uniform(r2)


def test_search_n3_against_brute_force():
    result = exhaustive_search(3)
    best, count = brute_force_ratio_max(3)
    assert abs(result.max_magnitude - best) < 1e-9
    assert result.num_maximizers == count == 27
    assert result.argmax_index == 0
    assert result.argmax.ratios == ((0, 0), (0, 0), (0, 0))
    assert max_equals_uniform(result)
    assert result.assignments_scanned == 729


def test_search_n4_maximizers():
    result = exhaustive_search(4)
    assert max_equals_uniform(result)
    assert result.num_maximizers == 81


def test_ratio_search_n10_beyond_the_old_cap():
    # C(18, 8) = 43758 classes stand for the 9**10 assignments
    result = exhaustive_search(10)
    assert max_equals_uniform(result)
    assert result.argmax_index == 0
    assert result.assignments_scanned == 9**10


def brute_force_full(n_sites):
    """From-scratch integer evaluation over all 27**N value assignments."""
    terms = []
    for word, weight in build_mermin(3, n_sites, 0).terms:
        exp = weight.as_root_exponent()
        cols = [{0: 0, 1: 1, -1: 2}[j] for j in word.letters]
        terms.append((exp // 3, cols))
    best = -1
    count = 0
    argmin = None
    for flat, values in enumerate(
        itertools.product(itertools.product(range(3), repeat=3), repeat=n_sites)
    ):
        tallies = [0, 0, 0]
        for w_exp, cols in terms:
            e = (w_exp + sum(values[i][c] for i, c in enumerate(cols))) % 3
            tallies[e] += 1
        n0, n1, n2 = tallies
        sq = ((n0 - n1) ** 2 + (n1 - n2) ** 2 + (n2 - n0) ** 2) // 2
        if sq > best:
            best, count, argmin = sq, 1, flat
        elif sq == best:
            count += 1
    return best, count, argmin


def test_encode_terms_matches_per_term_encoding():
    for n_sites in range(1, 6):
        weights, letters = _encode_terms(n_sites)
        terms = build_mermin(3, n_sites, 0).terms
        assert weights.dtype == np.int16 and letters.dtype == np.int8
        assert weights.tolist() == [wt.as_root_exponent() // 3 for _, wt in terms]
        assert letters.tolist() == [
            [{0: 0, 1: 1, -1: 2}[j] for j in word.letters] for word, _ in terms
        ]


def test_encode_terms_refuses_a_weight_that_is_not_a_power_of_omega(monkeypatch):
    # alpha is a root of unity, so the operator accepts it, but not a power of omega
    terms = [(SettingWord(3, (j,)), root_of_unity(j, 9)) for j in (0, 1)]
    op = MerminOperator.from_terms(3, 1, 0, terms)
    monkeypatch.setattr(hidden_variables, "build_mermin", lambda d, n, variant: op)
    with pytest.raises(ArithmeticError, match="not a power of omega"):
        _encode_terms(1)


def reference_chunk_scores(n_sites, weights, letters, c_lo, c_hi):
    """Per-term scores of the flat indices [c_lo, c_hi) and their ratio indices.

    This is the termwise scan full mode ran before the site contraction:
    one pass per term over the chunk, tallying the omega exponents.
    """
    idx = np.arange(c_lo, c_hi, dtype=np.int64)
    columns = []
    ridx = np.zeros(idx.shape, dtype=np.int64)
    for i in range(n_sites):
        digit = (idx // 27 ** (n_sites - 1 - i)) % 27
        e_x = digit // 9
        e_y = (digit // 3) % 3
        e_v = digit % 3
        columns.append(np.stack([e_x, e_y, e_v]).astype(np.int16))
        ridx = ridx * 9 + 3 * ((e_y - e_x) % 3) + ((e_v - e_x) % 3)
    n_counts = [np.zeros(idx.shape, dtype=np.int64) for _ in range(3)]
    for t in range(len(weights)):
        acc = np.full(idx.shape, weights[t], dtype=np.int16)
        for i in range(n_sites):
            acc += columns[i][letters[t, i]]
        acc %= 3
        for j in range(3):
            n_counts[j] += acc == j
    n0, n1, n2 = n_counts
    score = ((n0 - n1) ** 2 + (n1 - n2) ** 2 + (n2 - n0) ** 2) // 2
    return idx, ridx, score


def reference_scan(n_sites, weights, letters, ratio_mag, lo, hi):
    """(best, ties, lexicographic arg-min, scanned, deviation) over [lo, hi)."""
    chunk = 3**11
    best = -1
    count = 0
    lexmin = -1
    max_dev = 0.0
    for c_lo in range(lo, hi, chunk):
        c_hi = min(c_lo + chunk, hi)
        idx, ridx, score = reference_chunk_scores(
            n_sites, weights, letters, c_lo, c_hi
        )
        dev = np.abs(np.sqrt(score.astype(np.float64)) - ratio_mag[ridx])
        max_dev = max(max_dev, float(dev.max()))
        cmax = int(score.max())
        if cmax > best:
            best = cmax
            count = 0
            lexmin = -1
        if cmax == best:
            mask = score == best
            count += int(mask.sum())
            first = int(idx[mask].min())
            lexmin = first if lexmin < 0 else min(lexmin, first)
    return best, count, lexmin, hi - lo, max_dev


def class_flat_indices(n_sites):
    """Flat index of each class's sorted arrangement, in the class walk's order.

    The walk lays out the classes of the 9 letters 3y + v, sorted, by last
    letter, then by their prefix in the same order: the colexicographic
    order of the sorted tuples.  Site i holds the triple (0, y, v) of the
    class's i-th letter, whose full-index digit is the letter itself.
    """
    classes = itertools.combinations_with_replacement(range(9), n_sites)
    classes = sorted(classes, key=lambda c: c[::-1])
    return np.ravel_multi_index(np.array(classes).T, (27,) * n_sites)


def gauge_digits(n_sites):
    """(27**N, N) digits 3y + v of each flat index's triples shifted to x = 0."""
    digits = np.indices((27,) * n_sites).reshape(n_sites, -1)
    x, y, v = digits // 9, digits // 3 % 3, digits % 3
    return (3 * ((y - x) % 3) + (v - x) % 3).T


def contracted_scores(weights, letters):
    """``_class_scores`` and the per-term scores at each class's sorted flat index."""
    n_sites = letters.shape[1]
    _, _, reference = reference_chunk_scores(
        n_sites, weights, letters, 0, 27**n_sites
    )
    return _class_scores(_term_table(weights, letters)), reference[class_flat_indices(n_sites)]


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_contraction_scores_every_assignment_like_the_per_term_scan(n_sites):
    # each of the 27**N assignments scores as its x = 0 gauge class
    weights, letters = _encode_terms(n_sites)
    _, _, reference = reference_chunk_scores(n_sites, weights, letters, 0, 27**n_sites)
    scores = _class_scores(_term_table(weights, letters))
    assert scores.dtype == np.uint16
    assert len(scores) == math.comb(n_sites + 8, n_sites)
    assert np.array_equal(scores[level_ranks(gauge_digits(n_sites))], reference)


def full_result(n_sites, best, count, lexmin, scanned, max_dev):
    """The full-mode ``SearchResult`` a reference scan's tallies stand for."""
    return SearchResult(
        mode="full",
        n_sites=n_sites,
        max_magnitude=math.sqrt(best),
        max_sq_coeffs=CycInt.integer(best, 9).coeffs,
        argmax=HVAssignment.from_full_index(n_sites, lexmin),
        argmax_index=lexmin,
        argmax_factor_labels=None,
        num_maximizers=count,
        assignments_scanned=scanned,
        details={"max_sq_int": best, "ratio_agreement_max_abs_dev": max_dev},
    )


def assert_same_full_result(result, reference):
    assert result == reference
    # the deviation is the same float, bit for bit
    dev, ref_dev = (
        r.details["ratio_agreement_max_abs_dev"] for r in (result, reference)
    )
    assert dev.hex() == ref_dev.hex()


def test_full_search_n4_equals_the_per_term_scan():
    n_sites = 4
    weights, letters = _encode_terms(n_sites)
    ratio_mag = np.sqrt(full_space_scores(ratio_space(3, n_sites))) / 3.0
    reference = full_result(
        n_sites, *reference_scan(n_sites, weights, letters, ratio_mag, 0, 27**n_sites)
    )
    assert_same_full_result(exhaustive_search(n_sites, mode="full"), reference)


def float_checked_site(f):
    """One site of the int64 contraction the int16 one replaced."""
    _, rows, assigned, prefixes = f.shape
    f = f.reshape(2, 3, rows // 3, assigned, prefixes)
    a, b = f[0], f[1]
    rot = np.stack([f, np.stack([-b, a - b]), np.stack([b - a, -a])], axis=-2)
    x, y, v = rot.swapaxes(0, 1)
    out = x[..., :, None, None, :] + y[..., None, :, None, :] + v[..., None, None, :, :]
    return out.reshape(2, rows // 3, 27 * assigned, prefixes)


def float_checked_full_scan(n_sites, ratio_sq):
    """The full scan with int64 pairs and scores and a float deviation per entry.

    This is the loop full mode ran before the exact integer check: every
    one of the 27**N scores is compared in float with the ratio magnitude
    ``sqrt(ratio_sq) / 3`` at its ratio index.
    """
    weights, letters = _encode_terms(n_sites)
    ratio_mag = np.sqrt(ratio_sq) / 3.0
    x, y, v = np.indices((3, 3, 3)).reshape(3, -1)
    ratio_digit = 3 * ((y - x) % 3) + (v - x) % 3

    def ratio_indices(k):
        r = np.zeros(1, dtype=np.int64)
        for _ in range(k):
            r = (9 * r[:, None] + ratio_digit).ravel()
        return r

    streamed = min(n_sites, 2)
    f = np.zeros((2, 3**n_sites, 1, 1), dtype=np.int64)
    flat = np.ravel_multi_index(tuple(letters.T), (3,) * n_sites)
    pairs = np.array([[1, 0], [0, 1], [-1, -1]], dtype=np.int64)
    np.add.at(f[:, :, 0, 0], (slice(None), flat), pairs[weights % 3].T)
    for _ in range(n_sites - streamed):
        f = float_checked_site(f)
    f = f.reshape(2, 3**streamed, 1, -1)
    prefix_ratio = ratio_indices(n_sites - streamed) * 9**streamed
    tail_ratio = ratio_indices(streamed)
    step = max(1, 3**11 // 27**streamed)
    best = lexmin = -1
    count = scanned = 0
    max_dev = 0.0
    for first in range(0, f.shape[3], step):
        g = f[..., first : first + step]
        for _ in range(streamed):
            g = float_checked_site(g)
        a, b = g[0, 0], g[1, 0]
        score = a * a - a * b + b * b
        ridx = tail_ratio[:, None] + prefix_ratio[first : first + score.shape[1]]
        dev = np.abs(np.sqrt(score.astype(np.float64)) - ratio_mag[ridx])
        max_dev = max(max_dev, float(dev.max()))
        scanned += score.size
        cmax = int(score.max())
        if cmax > best:
            best, count, lexmin = cmax, 0, -1
        if cmax == best:
            hits = score == best
            count += int(np.count_nonzero(hits))
            if lexmin < 0:
                i, j = np.argwhere(hits.T)[0]
                lexmin = int((first + i) * len(score) + j)
    return full_result(n_sites, best, count, lexmin, scanned, max_dev)


def test_full_search_n5_equals_the_float_checked_int64_scan():
    n_sites = 5
    reference = float_checked_full_scan(
        n_sites, full_space_scores(ratio_space(3, n_sites))
    )
    result = exhaustive_search(n_sites, mode="full")
    assert_same_full_result(result, reference)
    assert result.details["ratio_agreement_max_abs_dev"] == 7.105427357601002e-15


def ratio_multiset_of(index, n_sites):
    """The sorted ratio letters of the multiset of ratio index ``index``."""
    return np.sort(decode_index(index, 9, n_sites))


def level_ranks(rows):
    """Rank of each multiset (a row of letters) in ``_level_ends`` order.

    That order is colex: a sorted tuple a_1 <= ... <= a_N follows, for each
    site i, the C(a_i + i - 1, i) tuples that agree with it after site i
    and have a smaller letter there.
    """
    rows = np.sort(np.asarray(rows), axis=-1)
    n_sites = rows.shape[-1]
    comb = [[math.comb(a + i, i + 1) for i in range(n_sites)] for a in range(rows.max() + 1)]
    return np.array(comb)[rows, np.arange(n_sites)].sum(axis=-1)


def shifted_ratio_scores(n_sites, index, shift):
    """``_multiset_scores`` with ``shift(score)`` in place of one multiset's score."""

    def scores(values, order):
        out = _multiset_scores(values, order)
        row = level_ranks(ratio_multiset_of(index, n_sites))
        out[row] = shift(out[row])
        return out

    return scores


def shifted_full_table(n_sites, index, shift):
    """``full_space_scores`` with every index of one ratio multiset shifted."""
    out = full_space_scores(ratio_space(3, n_sites))
    digits = np.sort(np.indices((9,) * n_sites).reshape(n_sites, -1), axis=0).T
    same = (digits == ratio_multiset_of(index, n_sites)).all(axis=1)
    out[same] = shift(out[same])
    return out


# (ratio index, shift of its multiset's score |3v|**2, whether the check
# still agrees); at N = 3 index 0 is a maximizer (|v|**2 = 36) and index 100
# has |v|**2 = 9
RATIO_SHIFTS = {
    "one-unit-at-max": (0, lambda s: s + 9, False),
    "one-unit": (100, lambda s: s + 9, False),
    "relative-1e-12-at-max": (0, lambda s: s * (1 + 1e-12), True),
    "relative-1e-12": (100, lambda s: s * (1 + 1e-12), True),
    # 8.5 rounds to 8: every entry of the multiset mismatches, and sqrt(8)
    # is farther from sqrt(8.5) than the true sqrt(9) is, so a deviation
    # taken from the rounded reference would overstate the all-entry maximum
    "half-unit-down": (100, lambda s: s - 4.5, False),
    # 36 + 2**16 wraps to the true 36 in uint16: every entry matches, so
    # only a deviation read from the compared reference shows the shift
    "wraps-to-the-true-score-at-max": (0, lambda s: s + 9 * 2**16, False),
}


@pytest.mark.parametrize("case", RATIO_SHIFTS)
def test_exact_cross_check_catches_a_ratio_disagreement(monkeypatch, case):
    index, shift, agrees = RATIO_SHIFTS[case]
    n_sites = 3
    reference = float_checked_full_scan(
        n_sites, shifted_full_table(n_sites, index, shift)
    )
    monkeypatch.setattr(
        hidden_variables, "_multiset_scores", shifted_ratio_scores(n_sites, index, shift)
    )
    result = exhaustive_search(n_sites, mode="full")
    assert_same_full_result(result, reference)
    dev = result.details["ratio_agreement_max_abs_dev"]
    assert (dev <= 1e-9) == agrees
    assert dev > 1e-13  # the shifted score shows in the deviation
    cli_result = CliRunner().invoke(cli, ["search", "--n", "3", "--mode", "full"])
    assert cli_result.exit_code == (0 if agrees else 1)


def _refuse_the_table(space):
    raise AssertionError("full mode built the 9**N ratio table")


def test_full_search_never_builds_the_ratio_table(monkeypatch):
    expected = [exhaustive_search(n_sites, mode="full") for n_sites in range(1, 7)]
    monkeypatch.setattr(_enumeration, "full_space_scores", _refuse_the_table)
    monkeypatch.setattr(hidden_variables, "full_space_scores", _refuse_the_table, raising=False)
    for n_sites, reference in zip(range(1, 7), expected):
        assert_same_full_result(exhaustive_search(n_sites, mode="full"), reference)


def _refuse_the_evaluator(counts, letters):
    raise AssertionError("full mode called the per-row exact evaluator")


def test_full_search_never_calls_the_per_row_evaluator(monkeypatch):
    expected = [exhaustive_search(n_sites, mode="full") for n_sites in range(1, 7)]
    monkeypatch.setattr(_enumeration, "_class_values", _refuse_the_evaluator)
    monkeypatch.setattr(hidden_variables, "_class_values", _refuse_the_evaluator)
    for n_sites, reference in zip(range(1, 7), expected):
        assert_same_full_result(exhaustive_search(n_sites, mode="full"), reference)


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_multiset_scores_equal_the_table_at_the_sorted_indices(n_sites):
    space = ratio_space(3, n_sites)
    letters = np.array(list(itertools.combinations_with_replacement(range(9), n_sites)))
    ranks = level_ranks(letters)
    assert np.array_equal(np.sort(ranks), np.arange(len(letters)))
    flat = np.ravel_multi_index(letters.T, (9,) * n_sites)
    table = full_space_scores(space)[flat]
    scores = _multiset_scores(_multiset_values(space), 9)[ranks]
    assert np.array_equal(scores.view(np.int64), table.view(np.int64))
    # the float step of the per-row evaluator full mode once called
    values = _class_values(space.counts, letters).astype(np.float64)
    vals = values @ np.array(_alpha_powers(9)[:6])
    reference = vals.real * vals.real + vals.imag * vals.imag
    assert np.array_equal(scores.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_each_class_key_picks_its_ratio_multiset(n_sites):
    # a gauge class's letters 3y + v are its ratio digits (see the next
    # test), and its rank is the rank of that ratio multiset
    classes = np.arange(math.comb(n_sites + 8, 8))
    letters = _class_letters(_level_ends(9, n_sites + 1), classes)
    assert np.array_equal(level_ranks(letters), classes)


def test_the_walk_takes_the_triples_in_ratio_digit_order():
    # gauge letter w is the triple (0, w // 3, w % 3): full and ratio digit w
    for w in range(9):
        assignment = HVAssignment(((0, w // 3, w % 3),))
        assert assignment.full_index() == assignment.ratio_index() == w
    # every digit with x = 0 precedes every digit with x > 0
    x = np.arange(27) // 9
    assert (np.flatnonzero(x == 0) < np.flatnonzero(x > 0).min()).all()
    # the oracle's 27-letter walk takes the triples in ratio-digit order
    assert sorted(FULL_DIGIT.tolist()) == list(range(27))
    x, y, v = np.unravel_index(FULL_DIGIT, (3, 3, 3))
    assert np.array_equal(RATIO_DIGIT, 3 * ((y - x) % 3) + (v - x) % 3)
    assert (np.diff(RATIO_DIGIT) >= 0).all()


@pytest.mark.parametrize("n_sites", range(1, 6))
def test_full_search_equals_the_27_letter_walk(n_sites):
    assert_same_full_result(exhaustive_search(n_sites, mode="full"), triple_full_search(n_sites))


def test_the_exact_agreement_check_catches_one_corrupt_score(monkeypatch):
    n_sites = 4
    scores = _class_scores(_term_table(*_encode_terms(n_sites)))
    k = len(scores) // 3  # not a maximizer: the maximum and tie count cannot show it
    assert scores[k] < scores.max()

    def corrupt(table):
        out = _class_scores(table).copy()
        out[k] += 1
        return out

    monkeypatch.setattr(hidden_variables, "_class_scores", corrupt)
    with pytest.raises(ArithmeticError, match="ratio multiset"):
        exhaustive_search(n_sites, mode="full")
    hidden_variables._check_ratio_agreement(scores, _multiset_values(ratio_space(3, n_sites)))
    # |3(1 + alpha)|**2 = 9 * (2 + alpha - alpha**2 - alpha**5): the rational
    # part is 9 * 2, so only the irrational part can show the mismatch
    with pytest.raises(ArithmeticError, match="ratio multiset"):
        hidden_variables._check_ratio_agreement(
            np.array([2], dtype=np.uint16), np.array([[3, 3, 0, 0, 0, 0]])
        )


def test_the_agreement_check_refuses_values_past_its_float_range():
    # every product and partial sum is at most 36 * w**2, exact in float64
    # below 2**53: the largest w it admits is checked, and the next refused
    w = math.isqrt((2**53 - 1) // 36)
    score = np.zeros(1, dtype=np.uint16)
    with pytest.raises(ArithmeticError, match="ratio multiset"):
        hidden_variables._check_ratio_agreement(score, np.array([[0, 0, 0, -w, 0, 0]]))
    with pytest.raises(OverflowError):
        hidden_variables._check_ratio_agreement(score, np.array([[0, 0, 0, -w - 1, 0, 0]]))


def test_full_search_reads_the_least_maximizer_in_base_27(monkeypatch):
    # omega**(x1 + x2) + omega**(y1 + x2 + 1) + omega**(x1 + y2 + 1) reaches
    # |3|**2 only where y_i = x_i - 1 at both sites, so the least maximizer
    # is (0, 2, 0) twice: digits 6 and 6, index 6 * 27 + 6
    weights = np.array([0, 1, 1], dtype=np.int16)
    letters = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int8)
    monkeypatch.setattr(hidden_variables, "_encode_terms", lambda n: (weights, letters))
    # not the Mermin operator's terms, so its scores are not the ratio reduction's
    monkeypatch.setattr(hidden_variables, "_check_ratio_agreement", lambda *args: None)
    ratio_mag = np.sqrt(full_space_scores(ratio_space(3, 2))) / 3.0
    reference = full_result(2, *reference_scan(2, weights, letters, ratio_mag, 0, 27**2))
    result = exhaustive_search(2, mode="full")
    assert_same_full_result(result, reference)
    assert (result.argmax_index, result.num_maximizers) == (6 * 27 + 6, 81)


def test_full_search_n6_peak_memory():
    # a warm _full_search(6) measured a tracemalloc peak of 1.93 MiB (Python
    # 3.11.7, numpy 2.4.6), 1.3 MiB of it the agreement check's gathered
    # circulant rows; the 27-letter walk it replaced peaked at 16.9 MiB
    hidden_variables._full_search(6)  # warm the layout and ratio-table caches
    tracemalloc.start()
    try:
        hidden_variables._full_search(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@st.composite
def term_tables(draw):
    """Random letter rows and weight exponents, some words repeated."""
    n_sites = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2), min_size=n_sites, max_size=n_sites)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=4))
    letters = np.array(rows + repeats, dtype=np.int8)
    weights = np.array(
        draw(st.lists(st.integers(0, 2), min_size=len(letters), max_size=len(letters))),
        dtype=np.int16,
    )
    return weights, letters


@settings(max_examples=120, deadline=None)
@given(term_tables())
def test_contraction_matches_per_term_evaluation_on_random_terms(table):
    # the tables need not be site-symmetric: the walk scores each class's
    # sorted arrangement itself, and the gauge holds for any table, so every
    # assignment whose gauge image is a sorted arrangement scores as it
    weights, letters = table
    n_sites = letters.shape[1]
    table = _term_table(weights, letters)
    scores = _class_scores(table)
    _, _, every = reference_chunk_scores(n_sites, weights, letters, 0, 27**n_sites)
    digits = gauge_digits(n_sites)
    sorted_image = (np.diff(digits, axis=1) >= 0).all(axis=1)
    assert np.array_equal(scores[level_ranks(digits[sorted_image])], every[sorted_image])
    # the 27-letter walk scores each triple class like its gauge class
    assert np.array_equal(triple_class_scores(table), scores[triple_ratio_ranks(n_sites)])


def test_contraction_refuses_term_counts_beyond_int64():
    # 2**31 terms could push a score past 2**63; the rows are zero-width,
    # so the refusal allocates nothing
    letters = np.empty((2**31, 0), dtype=np.int8)
    with pytest.raises(OverflowError):
        _term_table(np.zeros(1, dtype=np.int16), letters)


def test_contraction_refuses_2_to_the_8_terms_before_allocating():
    # 2**8 terms could score (2**8)**2 = 2**16, past the uint16 range
    letters = np.empty((2**8, 0), dtype=np.int8)
    weights = np.zeros(1, dtype=np.int16)
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(OverflowError, match="uint16 score range"):
            _term_table(weights, letters)


def test_contraction_refuses_term_counts_beyond_int16_before_allocating():
    # 2**15 terms are past the uint8 root-count range as well
    letters = np.empty((2**15, 0), dtype=np.int8)
    weights = np.zeros(1, dtype=np.int16)
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(OverflowError, match="int16"):
            _term_table(weights, letters)


@st.composite
def one_site_tables_near_the_int16_limit(draw):
    """2**8 - k terms on one site: a short (letter, weight) cycle repeated."""
    n_terms = 2**8 - draw(st.integers(1, 64))
    cell = st.tuples(st.integers(0, 2), st.integers(0, 2))
    pattern = np.array(draw(st.lists(cell, min_size=1, max_size=5)), dtype=np.int16)
    rows = np.resize(pattern, (n_terms, 2))
    letters = rows[:, :1].astype(np.int8)
    return rows[:, 1], letters


# every term alike: one entry reaches 2**8 - 1 and its score 255**2 = 65025,
# which reads as -511 in int16
_ALIKE_TERMS = (
    np.zeros(2**8 - 1, dtype=np.int16),
    np.zeros((2**8 - 1, 1), dtype=np.int8),
)


@settings(max_examples=6, deadline=None)
@given(one_site_tables_near_the_int16_limit())
@example(_ALIKE_TERMS)
def test_contraction_is_exact_near_the_int16_limit(table):
    scores, reference = contracted_scores(*table)
    assert np.array_equal(scores, reference)
    if table is _ALIKE_TERMS:
        assert scores.max() == (2**8 - 1) ** 2


def test_full_search_refuses_terms_that_are_not_site_symmetric(monkeypatch):
    weights, letters = _encode_terms(3)
    # a term whose letters differ has images under permuting sites other than itself
    t = next(i for i, row in enumerate(letters.tolist()) if len(set(row)) > 1)
    weights = weights.copy()
    weights[t] = (weights[t] + 1) % 3
    monkeypatch.setattr(hidden_variables, "_encode_terms", lambda n: (weights, letters))

    def score(*args):
        raise AssertionError("a score was formed")

    monkeypatch.setattr(hidden_variables, "_class_scores", score)
    with pytest.raises(ArithmeticError, match="permuting sites"):
        exhaustive_search(3, "full")


def test_site_symmetry_needs_both_generators():
    weights = np.zeros(3, dtype=np.int16)
    for n_sites in range(1, 6):
        _check_site_symmetry(_term_table(*_encode_terms(n_sites)))
    # invariant under the cyclic shift, not under the swap of sites 1 and 2
    cyclic = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int8)
    # invariant under the swap, not under the cyclic shift
    swapped = np.array([[0, 0, 1], [0, 0, 1], [0, 0, 1]], dtype=np.int8)
    for letters in (cyclic, swapped):
        with pytest.raises(ArithmeticError):
            _check_site_symmetry(_term_table(weights, letters))
    symmetric = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.int8)
    _check_site_symmetry(_term_table(weights, symmetric))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_class_multinomials_cover_every_full_assignment(n_sites):
    classes = np.array(list(itertools.combinations_with_replacement(range(27), n_sites)))
    assert _class_tally(classes, 27) == (27**n_sites, 0)


def test_full_search_n3_against_independent_evaluation():
    result = exhaustive_search(3, mode="full")
    best, count, argmin = brute_force_full(3)
    assert best == 36 and result.max_magnitude == 6.0
    assert result.num_maximizers == count == 729
    assert result.argmax_index == argmin == 0
    assert result.argmax.values == ((0, 0, 0),) * 3
    assert result.assignments_scanned == 27**3
    assert result.details["max_sq_int"] == 36
    assert result.details["ratio_agreement_max_abs_dev"] <= 1e-9
    assert max_equals_uniform(result)


def test_full_search_n6_reaches_the_uniform_value():
    result = exhaustive_search(6, mode="full")
    best = uniform_value(6) ** 2
    assert result.details["max_sq_int"] == best == 8100
    assert result.num_maximizers == 3**12
    assert result.argmax_index == 0
    assert result.assignments_scanned == 27**6
    assert result.details["ratio_agreement_max_abs_dev"] <= 1e-9
    # the ratio search's |3v|**2 at its maximum is 9 times the full |v|**2
    assert 9 * best == run_search(ratio_space(3, 6)).best_sq_coeffs[0] == 72900


def test_full_search_worker_determinism():
    # one process scans every chunk, so repeated full searches agree exactly
    results = [exhaustive_search(3, mode="full") for _ in range(2)]
    assert results[0] == results[1]


def test_search_caps_and_bad_mode():
    with pytest.raises(ValueError):
        exhaustive_search(16, mode="ratio")
    with pytest.raises(ValueError):
        exhaustive_search(7, mode="full")
    with pytest.raises(ValueError):
        exhaustive_search(3, mode="annealed")


def test_permutation_class_budget_refuses_before_any_pattern(monkeypatch):
    class Evaluated(Exception):
        pass

    def evaluate(*args):
        raise Evaluated

    monkeypatch.setattr(hidden_variables, "_class_values", evaluate)
    with pytest.raises(ValueError, match=r"shift multisets: C\(11, 2\) exceeds the cap of 45"):
        permutation_class_max(9)
    # N = 8 is within the cap and reaches the evaluation
    with pytest.raises(Evaluated):
        permutation_class_max(8)


def permutation_class_loop(n_sites):
    """The per-pattern scan ``permutation_class_max`` replaced: all 3**N patterns."""
    slot_mags = {
        sigma: tuple(f.magnitude() for f in ratio_space(3, 1).factors[3 * r + s])
        for sigma, (r, s) in {0: (0, 0), 1: (1, 2), 2: (2, 1)}.items()
    }
    best_bound, best_bound_pattern = -1.0, ()
    best_attained, best_attained_pattern = -1.0, ()
    for pattern in itertools.product(range(3), repeat=n_sites):
        if not 0 < sum(1 for sigma in pattern if sigma) < n_sites:
            continue
        bound = 0.0
        for p in range(3):
            prod = 1.0
            for sigma in pattern:
                prod *= slot_mags[sigma][p]
            bound += prod
        bound /= 3.0
        r = [(0, 1, 2)[sigma] for sigma in pattern]
        s = [(0, 2, 1)[sigma] for sigma in pattern]
        attained = hv_value_product(r, s)
        if bound > best_bound:
            best_bound, best_bound_pattern = bound, pattern
        if attained > best_attained:
            best_attained, best_attained_pattern = attained, pattern
    return hidden_variables.PermutationClassReport(
        n_sites=n_sites,
        bound=best_bound,
        bound_pattern=best_bound_pattern,
        attained=best_attained,
        attained_pattern=best_attained_pattern,
        full_shift_value=hv_value_product((1,) * n_sites, (2,) * n_sites),
    )


@pytest.mark.parametrize("n_sites", range(2, 9))
def test_permutation_classes_equal_the_per_pattern_loop(n_sites):
    report = permutation_class_max(n_sites)
    oracle = permutation_class_loop(n_sites)
    # field for field, floats to the last bit
    assert report == oracle
    assert report.bound.hex() == oracle.bound.hex()


def test_permutation_classes_evaluate_each_multiset_once(monkeypatch):
    calls = []

    def counting(space, letters):
        calls.append(letters.tolist())
        return evaluate(space, letters)

    evaluate = hidden_variables._class_values
    monkeypatch.setattr(hidden_variables, "_class_values", counting)
    permutation_class_max(8)
    assert len(calls) == 1
    rows = calls[0]
    # C(N+2, 2) multisets less the one that shifts no site and the N + 1
    # that shift every site, plus the full shift
    assert len(rows) == math.comb(10, 2) - 1 - 9 + 1
    assert rows[-1] == [1] * 8
    assert all(row == sorted(row) for row in rows)
    assert len({tuple(row) for row in rows}) == len(rows)


def test_permutation_class_report():
    report = permutation_class_max(3)
    expected_bound = (
        A_VALUE**2 * B_VALUE + B_VALUE**2 * C_VALUE + C_VALUE**2 * A_VALUE
    ) / 3
    assert abs(report.bound - expected_bound) < 1e-12
    assert abs(report.bound - 4.06) < 0.01
    assert report.bound < 6.0
    # the attained values sit strictly below the aligned bound: 3 exactly
    assert abs(report.attained - 3.0) < 1e-9
    assert report.attained <= report.bound
    # shifting every site identically reproduces the maximum
    assert abs(report.full_shift_value - 6.0) < 1e-9


def test_permutation_class_attained_values_only_three_or_zero():
    for pattern in itertools.product(range(3), repeat=3):
        shifted = sum(1 for p in pattern if p)
        if not 0 < shifted < 3:
            continue
        ratios = [{0: (0, 0), 1: (1, 2), 2: (2, 1)}[p] for p in pattern]
        value = hv_value_product([r for r, _ in ratios], [s for _, s in ratios])
        assert min(abs(value - 3.0), abs(value)) < 1e-9


def test_ghz_contradiction_counts():
    assert [ghz_contradiction_count(n) for n in (3, 4, 5, 6, 7)] == [
        2,
        8,
        30,
        102,
        336,
    ]
    assert ghz_contradiction_count(2) == 0
    assert ghz_contradiction_count(1) == 0


def test_identity_checks_raise_on_tampered_counts(monkeypatch):
    counts = list(hidden_variables.counts_by_position(3, 4).counts)  # 4 at 3 and 6

    def tampered(three, six):
        counts[3], counts[6] = three, six
        return lambda d, n: PositionCounts(d, n, tuple(counts))

    # 3 + 5 words pass the (2/3)(M_Q - M_C) check but break the 3 <-> 6 symmetry
    monkeypatch.setattr(hidden_variables, "counts_by_position", tampered(3, 5))
    with pytest.raises(ArithmeticError):
        ghz_contradiction_count(4)
    monkeypatch.setattr(hidden_variables, "counts_by_position", tampered(5, 5))
    with pytest.raises(ArithmeticError):
        ghz_contradiction_count(4)
    monkeypatch.setattr(hidden_variables, "power_sum", lambda n: 10)
    with pytest.raises(ArithmeticError):
        uniform_value(3)
    alpha = PhaseExponent(1, 9)  # not a power of omega
    monkeypatch.setattr(hidden_variables, "eigenphase", lambda word, c: alpha)
    with pytest.raises(ArithmeticError):
        contradiction_witness(SettingWord.from_string("YYY"))


def test_contradiction_witnesses():
    yyy = contradiction_witness(SettingWord.from_string("YYY"))
    assert yyy.position == 3
    assert yyy.quantum_omega_exponent == 1
    assert yyy.hv_value == 1
    assert yyy.contradicts
    assert abs(yyy.quantum_value - OMEGA) < 1e-12
    vvv = contradiction_witness(SettingWord.from_string("VVV"))
    assert vvv.position == 6
    assert vvv.quantum_omega_exponent == 2
    assert vvv.contradicts
    with pytest.raises(ValueError):
        contradiction_witness(SettingWord.from_string("XYV"))


def test_witness_enumeration_matches_count():
    for n in (3, 4, 5):
        witnesses = list(iter_contradiction_witnesses(n))
        assert len(witnesses) == ghz_contradiction_count(n)
        assert all(w.contradicts for w in witnesses)


def test_witness_arrays_equal_the_per_word_build():
    for n in range(1, 8):
        words = [
            SettingWord(3, letters)
            for letters in itertools.product((-1, 0, 1), repeat=n)
        ]
        expected = [contradiction_witness(w) for w in words if w.position in (3, 6)]
        got = list(iter_contradiction_witnesses(n))
        assert len(got) == len(expected) == ghz_contradiction_count(n)
        for a, b in zip(got, expected):
            for f in dataclasses.fields(WitnessRecord):
                assert getattr(a, f.name) == getattr(b, f.name), (n, b.word, f.name)
            # the floats are bit-identical, not just equal
            assert a.quantum_value.real.hex() == b.quantum_value.real.hex()
            assert a.quantum_value.imag.hex() == b.quantum_value.imag.hex()
    with pytest.raises(ValueError, match="need at least one site"):
        list(iter_contradiction_witnesses(0))


def test_witness_arrays_check_the_eigenphases(monkeypatch):
    table = qudit_ops._phase_array(3)

    def tampered(letter, phases):
        rows = table.copy()
        rows[letter + 1] = phases
        return lambda d: rows

    # Y acting with one phase on every digit: YYYYV's labels disagree
    monkeypatch.setattr(qudit_ops, "_phase_array", tampered(1, (1, 1, 1)))
    with pytest.raises(EigenstateError, match="proportional"):
        list(iter_contradiction_witnesses(5))
    # X picking up alpha: XYYY has the eigenphase alpha**4, not a power of omega
    monkeypatch.setattr(qudit_ops, "_phase_array", tampered(0, (1, 1, 1)))
    with pytest.raises(EigenstateError, match="power of omega"):
        list(iter_contradiction_witnesses(4))


def test_violation_ratios():
    assert abs(violation_ratio(3) - 1.5) < 1e-12
    assert abs(violation_ratio(5) - 2.25) < 1e-12
    assert abs(violation_ratio(7) - 3.24) < 0.005
    assert violation_ratio(2) == 1.0
    growth = violation_ratio(20) / violation_ratio(19)
    # converges to 3/A like (B/A)**N; at N = 19 the residue is ~3e-6
    assert abs(growth - 3.0 / A_VALUE) < 1e-5
    assert abs(growth - 1.1848) < 1e-3


def test_contradiction_fraction_converges_slowly():
    # The fraction N_GHZ / M_Q approaches 2/3 like (A/3)**N: at N = 12 it
    # is still about 0.087 away, and first comes within 0.01 at N = 25.
    value12 = ghz_contradiction_count(12) / 3**11
    assert ghz_contradiction_count(12) == 102654
    assert abs(value12 - 2 / 3) > 0.05
    fractions = [
        ghz_contradiction_count(n) / 3 ** (n - 1) for n in range(3, 27)
    ]
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    assert abs(fractions[-2] - 2 / 3) < 0.01  # N = 25


def test_assignment_refuses_non_integer_exponents():
    op = build_mermin(3, 1, 0)
    for bad in (1.5, 1.0, np.float64(1.5), np.float32(1.0), "1", None):
        with pytest.raises(ValueError, match="bad value exponents"):
            HVAssignment(((0, bad, 0),))
    for bad in ((0, 3, 0), (0, -1, 0), (0, 1), (0, np.int64(3), 0)):
        with pytest.raises(ValueError, match="bad value exponents"):
            HVAssignment((bad,))
    numpy_ints = HVAssignment(((np.int64(0), np.int8(1), np.uint8(2)),))
    plain = HVAssignment(((0, 1, 2),))
    assert numpy_ints == plain
    assert numpy_ints.full_index() == plain.full_index() == 5
    assert hv_value_direct(numpy_ints, op) == hv_value_direct(plain, op)


def test_assignment_encodings_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        values = tuple(
            tuple(int(v) for v in rng.integers(0, 3, size=3)) for _ in range(n)
        )
        assignment = HVAssignment(values)
        assert HVAssignment.from_full_index(n, assignment.full_index()) == assignment
        lifted = HVAssignment.from_ratios(assignment.ratios)
        assert HVAssignment.from_ratio_index(n, assignment.ratio_index()) == lifted


@pytest.mark.parametrize("n_sites", [1, 2])
def test_assignment_indices_outside_the_space_raise(n_sites):
    for build, size in (
        (HVAssignment.from_ratio_index, 9**n_sites),
        (HVAssignment.from_full_index, 27**n_sites),
    ):
        for index in (0, size - 1):
            assert build(n_sites, index).n_sites == n_sites
        for index in (-1, size):
            with pytest.raises(ValueError, match="outside"):
                build(n_sites, index)
