"""Classical values: factor table, closed forms, and exhaustive searches.

Independent oracles: the factor constants are recomputed from cosines, the
integer recurrence is validated against direct float powers, the small
searches are cross-checked by a plain double loop over all assignments,
the full-mode maximizer count is reproduced by a from-scratch integer
evaluation written in this file, and the full-mode site contraction is
checked against the per-term scanner it replaced, kept here as the
reference.  The per-term ``hv_value_direct`` loop and the per-word witness
build (``contradiction_witness``) are the references for their
exponent-array replacements.
"""

import dataclasses
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_mermin import hidden_variables
from qudit_mermin._enumeration import full_space_scores
from qudit_mermin.cyclotomic import CycInt, PhaseExponent, root_of_unity
from qudit_mermin.generalized import ratio_space
from qudit_mermin.hidden_variables import (
    A_VALUE,
    B_VALUE,
    C_VALUE,
    HVAssignment,
    SearchResult,
    WitnessRecord,
    _contract_scores,
    _encode_terms,
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


def test_factor_multiset_conserved():
    for row in factor_table():
        letters = sorted(entry.letter for entry in row.entries)
        assert letters == ["A", "B", "C"]


def test_power_sum_recurrence_against_float_powers():
    for n in range(21):
        direct = A_VALUE**n + B_VALUE**n + (-C_VALUE) ** n
        assert abs(power_sum(n) - direct) < 1e-9 * max(1.0, abs(direct))


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
@given(st.data())
def test_hv_value_direct_matches_the_per_term_loop(data):
    n_sites = data.draw(st.integers(1, 8))
    op = mermin_operator(n_sites, data.draw(st.integers(0, 2)))
    assignment = HVAssignment(data.draw(value_rows(n_sites)))
    value, calls = direct_counting_times_root(assignment, op)
    assert value == reference_hv_value_direct(assignment, op)
    assert calls <= 3


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


def test_hv_value_direct_rejects_other_d_and_site_counts():
    with pytest.raises(ValueError, match="d=3"):
        hv_value_direct(HVAssignment.uniform(2), build_mermin(5, 2, 0))
    with pytest.raises(ValueError, match="site counts"):
        hv_value_direct(HVAssignment.uniform(3), build_mermin(3, 4, 0))


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


def test_search_worker_determinism():
    results = [exhaustive_search(4, workers=w) for w in (1, 2, 5)]
    assert results[0] == results[1] == results[2]
    assert max_equals_uniform(results[0])
    assert results[0].num_maximizers == 81


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


def contracted_scores(weights, letters, streamed, block=3**11):
    """Every score from ``_contract_scores``, in flat index order."""
    blocks = []
    expected_first = 0
    with mock.patch.multiple(
        hidden_variables, _STREAMED_SITES=streamed, _BLOCK=block
    ):
        contraction = list(_contract_scores(weights, letters))
    for first, score in contraction:
        assert first == expected_first
        expected_first += score.shape[1]
        blocks.append(score.T.ravel())
    return np.concatenate(blocks)


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_contraction_scores_every_assignment_like_the_per_term_scan(n_sites):
    weights, letters = _encode_terms(n_sites)
    _, _, reference = reference_chunk_scores(
        n_sites, weights, letters, 0, 27**n_sites
    )
    for streamed in range(n_sites + 1):
        scores = contracted_scores(weights, letters, streamed)
        assert scores.dtype == np.int64
        assert np.array_equal(scores, reference)


def test_full_search_n4_equals_the_per_term_scan():
    n_sites = 4
    weights, letters = _encode_terms(n_sites)
    ratio_mag = np.sqrt(full_space_scores(ratio_space(3, n_sites))) / 3.0
    best, count, lexmin, scanned, max_dev = reference_scan(
        n_sites, weights, letters, ratio_mag, 0, 27**n_sites
    )
    reference = SearchResult(
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
    result = exhaustive_search(n_sites, mode="full")
    assert result == reference
    # the deviation is the same float, bit for bit
    assert result.details["ratio_agreement_max_abs_dev"].hex() == max_dev.hex()


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
    streamed = draw(st.integers(0, n_sites))
    block = draw(st.sampled_from([1, 27, 3**11]))
    return weights, letters, streamed, block


@settings(max_examples=120, deadline=None)
@given(term_tables())
def test_contraction_matches_per_term_evaluation_on_random_terms(table):
    weights, letters, streamed, block = table
    n_sites = letters.shape[1]
    _, _, reference = reference_chunk_scores(
        n_sites, weights, letters, 0, 27**n_sites
    )
    scores = contracted_scores(weights, letters, streamed, block)
    assert np.array_equal(scores, reference)


def test_contraction_refuses_term_counts_beyond_int64():
    # 2**31 terms could push a score past 2**63; the rows are zero-width,
    # so the refusal allocates nothing
    letters = np.empty((2**31, 0), dtype=np.int8)
    with pytest.raises(OverflowError):
        next(_contract_scores(np.zeros(1, dtype=np.int16), letters))


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


def test_full_search_worker_determinism():
    results = [exhaustive_search(3, mode="full", workers=w) for w in (1, 3)]
    assert results[0] == results[1]


def test_search_caps_and_bad_mode():
    with pytest.raises(ValueError):
        exhaustive_search(16, mode="ratio")
    with pytest.raises(ValueError):
        exhaustive_search(6, mode="full")
    with pytest.raises(ValueError):
        exhaustive_search(3, mode="annealed")


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
    assert list(iter_contradiction_witnesses(0)) == []


def test_witness_arrays_check_the_eigenphases(monkeypatch):
    table = hidden_variables._phase_array(3)

    def tampered(letter, phases):
        rows = table.copy()
        rows[letter + 1] = phases
        return lambda d: rows

    # Y acting with one phase on every digit: YYYYV's labels disagree
    monkeypatch.setattr(hidden_variables, "_phase_array", tampered(1, (1, 1, 1)))
    with pytest.raises(EigenstateError, match="proportional"):
        list(iter_contradiction_witnesses(5))
    # X picking up alpha: XYYY has the eigenphase alpha**4, not a power of omega
    monkeypatch.setattr(hidden_variables, "_phase_array", tampered(0, (1, 1, 1)))
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
