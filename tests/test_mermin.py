"""Operator construction, exact eigenvalues, and term combinatorics.

Independent oracles are used throughout: brute-force enumeration of all
3**N words for the position counts and the term list, dense float matrices
(built by kron products from the matrix definitions) for small-N
eigenvalue checks, and a per-term ``apply_word`` loop over exact
``StateVector``s as the reference for the exponent-histogram kernel.
"""

import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_mermin import mermin, qudit_ops
from qudit_mermin.cyclotomic import CycInt, root_of_unity
from qudit_mermin.hidden_variables import (
    _witness_table,
    contradiction_witness,
    uniform_value,
)
from qudit_mermin.mermin import (
    VERIFY_TERM_CAP,
    IdentityReport,
    PositionCounts,
    MerminOperator,
    _position_eigenvalue,
    build_mermin,
    check_verify_budget,
    counts_by_position,
    expand_identity,
    verify_eigenvalue,
)
from qudit_mermin.qudit_ops import (
    EigenstateError,
    SettingWord,
    _all_words,
    apply_word,
    ghz_state,
)

from test_qudit_ops import dense_ghz, dense_word


def brute_force_counts(d, n_sites):
    """Enumeration oracle: tally circle positions over every word."""
    half = (d - 1) // 2
    alphabet = range(-half, half + 1)
    tally = Counter(
        sum(letters) % (d * d)
        for letters in itertools.product(alphabet, repeat=n_sites)
    )
    return tuple(tally.get(k, 0) for k in range(d * d))


def seed_terms(d, n_sites, variant):
    """Enumeration oracle: filter all d**N words by position, in product order."""
    m = d * d
    half = (d - 1) // 2
    terms = []
    for letters in itertools.product(range(-half, half + 1), repeat=n_sites):
        k = sum(letters) % m
        if (k - variant) % d == 0:
            terms.append((SettingWord(d, letters), root_of_unity(variant - k, m)))
    return tuple(terms)


def reference_eigenvalue(op):
    """Per-term oracle: apply every word to the GHZ state with StateVectors."""
    m = op.d * op.d
    psi = ghz_state(op.variant, op.d, op.n_sites)
    totals = {label: CycInt.zero(m) for label in psi.amplitudes}
    for word, weight in op.terms:
        for label, amp in apply_word(word, psi).amplitudes.items():
            if label not in totals:
                raise EigenstateError("a term left the GHZ support")
            totals[label] = totals[label] + weight * amp
    ratios = {totals[label] * amp.conjugate() for label, amp in psi.amplitudes.items()}
    if len(ratios) != 1:
        raise EigenstateError("not proportional to the GHZ state")
    (lam,) = ratios
    if not lam.is_integer():
        raise EigenstateError(f"eigenvalue {lam} is not a rational integer")
    return lam.as_integer()


def small_cases():
    yield from ((3, n, c) for n in range(1, 8) for c in range(3))
    yield from ((5, n, c) for n in range(1, 4) for c in range(5))
    yield from ((7, n, c) for n in range(1, 3) for c in range(7))


def test_build_n3_term_structure():
    op = build_mermin(3, 3, 0)
    assert op.term_count == 9
    by_word = {str(word): weight for word, weight in op.terms}
    assert len(by_word) == 9
    # seven words at k=0 with weight one: XXX and the permutations of XYV
    weight_one = {w for w, wt in by_word.items() if wt.is_one()}
    assert weight_one == {"XXX", "XYV", "XVY", "YXV", "YVX", "VXY", "VYX"}
    assert by_word["YYY"] == root_of_unity(6, 9)  # omega**2 at k=3
    assert by_word["VVV"] == root_of_unity(3, 9)  # omega at k=6


def test_build_small_n():
    op2 = build_mermin(3, 2, 0)
    assert {str(w) for w, _ in op2.terms} == {"XX", "YV", "VY"}
    assert all(wt.is_one() for _, wt in op2.terms)
    op1 = build_mermin(3, 1, 0)
    assert [str(w) for w, _ in op1.terms] == ["X"]


def test_variants_partition_all_words():
    for n in range(1, 6):
        seen = set()
        for c in range(3):
            op = build_mermin(3, n, c)
            assert op.term_count == 3 ** (n - 1)
            words = {w.letters for w, _ in op.terms}
            assert not words & seen
            seen |= words
        assert len(seen) == 3**n


def test_eigenvalues_exact_small_n():
    for n in range(1, 7):
        for c in range(3):
            assert verify_eigenvalue(build_mermin(3, n, c)) == 3 ** (n - 1)


def test_eigenvalue_examples():
    assert verify_eigenvalue(build_mermin(3, 3, 0)) == 9
    assert verify_eigenvalue(build_mermin(3, 5, 0)) == 81
    assert verify_eigenvalue(build_mermin(3, 4, 1)) == 27


def test_per_term_eigenphase():
    psi = ghz_state(0, 3, 4)
    for word, weight in build_mermin(3, 4, 0).terms:
        assert apply_word(word, psi).scaled(weight) == psi


def test_dense_matrix_oracle_n3():
    op = build_mermin(3, 3, 0)
    dense = np.zeros((27, 27), dtype=complex)
    for word, weight in op.terms:
        dense += weight.to_complex() * dense_word(word)
    psi = dense_ghz(0, 3, 3)
    assert np.allclose(dense @ psi, 9 * psi, atol=1e-9)


def test_dense_matrix_oracle_variants_n2():
    for c in range(3):
        op = build_mermin(3, 2, c)
        dense = np.zeros((9, 9), dtype=complex)
        for word, weight in op.terms:
            dense += weight.to_complex() * dense_word(word)
        psi = dense_ghz(c, 3, 2)
        assert np.allclose(dense @ psi, 3 * psi, atol=1e-9)


def test_counts_against_enumeration():
    for n in range(1, 8):
        assert counts_by_position(3, n).counts == brute_force_counts(3, n)
    for n in (1, 2, 3):
        assert counts_by_position(5, n).counts == brute_force_counts(5, n)


@pytest.mark.parametrize("d, n_max", [(3, 9), (5, 5), (7, 4)])
def test_counts_equal_the_word_array_tally(d, n_max):
    for n in range(1, n_max + 1):
        positions = _all_words(d, n).sum(axis=1, dtype=np.int64) % (d * d)
        tally = np.bincount(positions, minlength=d * d)
        assert counts_by_position(d, n) == PositionCounts(d, n, tuple(tally.tolist()))


def test_counts_at_a_thousand_sites():
    counts = counts_by_position(3, 1000)
    assert counts.total == 3**1000
    assert counts.counts[3] == counts.counts[6]


def residue_loop_counts(d, n_sites):
    """Residue-loop oracle: one pure-Python convolution over the d**2 positions per site."""
    m = d * d
    alphabet = range(-(d // 2), d // 2 + 1)
    counts = [1] + [0] * (m - 1)
    for _ in range(n_sites):
        counts = [sum(counts[(k - j) % m] for j in alphabet) for k in range(m)]
    return tuple(counts)


@pytest.mark.parametrize(
    "d, n", [(3, 39), (3, 40), (5, 27), (5, 28), (7, 22), (7, 23), (3, 1000)]
)
def test_counts_on_both_sides_of_the_int64_bound(d, n):
    # d**N < 2**63 at the first N of each pair (int64), not at the second (Python ints)
    assert (d**n < 2**63) == (n in (39, 27, 22))
    assert counts_by_position(d, n).counts == residue_loop_counts(d, n)


@pytest.mark.parametrize("d, n_max", [(3, 70), (5, 45), (7, 35)])
def test_counts_match_the_residue_loop_at_every_n(d, n_max):
    # every bit pattern of N up to past the int64 switch of the squares and the chain
    for n in range(1, n_max + 1):
        assert counts_by_position(d, n).counts == residue_loop_counts(d, n), n


def test_counts_check_their_total(monkeypatch):
    # a wrong alphabet (four letters) cannot total 3**N words
    monkeypatch.setattr(mermin, "rotation_alphabet", lambda d: (-1, 0, 1, 2))
    with pytest.raises(ArithmeticError):
        counts_by_position(3, 2)


def test_counts_examples():
    counts3 = counts_by_position(3, 3).counts
    assert (counts3[0], counts3[3], counts3[6]) == (7, 1, 1)
    counts4 = counts_by_position(3, 4).counts
    assert (counts4[0], counts4[3], counts4[6]) == (19, 4, 4)
    counts1 = counts_by_position(3, 1).counts
    assert counts1 == (1, 1, 0, 0, 0, 0, 0, 0, 1)


def test_counts_symmetry_and_totals():
    for n in range(1, 13):
        pc = counts_by_position(3, n)
        assert pc.total == 3**n
        assert pc.counts[3] == pc.counts[6]


def test_counts_difference_equals_uniform_value():
    for n in range(1, 13):
        counts = counts_by_position(3, n).counts
        assert counts[0] - counts[3] == uniform_value(n)


def test_expand_identity_matches_build():
    for n in range(1, 7):
        report = expand_identity(n)
        assert report.matches, report.mismatches[:3]
        assert report.n_words == 3**n
        assert report.n_surviving == 3 ** (n - 1)
        assert report.n_vanishing == 3**n - 3 ** (n - 1)


def test_expand_identity_n1_survivors():
    # only X survives at a single site; Y and V cancel
    report = expand_identity(1)
    assert report.n_surviving == 1 and report.n_vanishing == 2


def test_expand_identity_cap():
    with pytest.raises(ValueError):
        expand_identity(10)


def per_word_identity(op, n_sites, d):
    """Per-word oracle: expand every word with CycInt arithmetic, compare to ``op``."""
    m = d * d
    alphabet = range(-(d // 2), d // 2 + 1)
    mixer = {(p, j): (j * (d * p + d - 1)) % m for p in range(d) for j in alphabet}
    reference = {word.letters: weight for word, weight in op.terms}
    mismatches = []
    n_surviving = n_vanishing = n_words = 0
    for letters in itertools.product(alphabet, repeat=n_sites):
        n_words += 1
        raw = [0] * m
        for p in range(d):
            raw[sum(mixer[p, j] for j in letters) % m] += 1
        coeff = CycInt.from_coeffs(m, raw)
        expected = reference.get(letters)
        if expected is None:
            if coeff.is_zero():
                n_vanishing += 1
            else:
                mismatches.append(f"{SettingWord(d, letters)}: expected 0, got {coeff}")
        elif coeff == expected * d:
            n_surviving += 1
        else:
            mismatches.append(
                f"{SettingWord(d, letters)}: expected {expected * d}, got {coeff}"
            )
    return IdentityReport(
        d, n_sites, n_words, n_surviving, n_vanishing, not mismatches, tuple(mismatches)
    )


@pytest.mark.parametrize("d, n_max", [(3, 7), (5, 3), (7, 2)])
def test_expand_identity_equals_the_per_word_loop(d, n_max):
    for n in range(1, n_max + 1):
        assert expand_identity(n, d) == per_word_identity(build_mermin(d, n, 0), n, d)
    # N = 0 has no operator, in the loop and in the array expansion alike
    with pytest.raises(ValueError):
        build_mermin(d, 0, 0)
    with pytest.raises(ValueError):
        expand_identity(0, d)


def test_expand_identity_reports_tampered_operators(monkeypatch):
    op = build_mermin(3, 4, 0)
    weights = op.weight_exponents.copy()
    weights[5] += 1
    wrong_weight = MerminOperator(3, 4, 0, op.letters, weights)
    dropped = MerminOperator(
        3, 4, 0, np.delete(op.letters, 7, axis=0), np.delete(op.weight_exponents, 7)
    )
    # the same operator listed backwards: the expansion may not assume build order
    reversed_op = MerminOperator(3, 4, 0, op.letters[::-1], op.weight_exponents[::-1])
    reports = []
    for tampered in (wrong_weight, dropped, reversed_op):
        monkeypatch.setattr(mermin, "build_mermin", lambda d, n, variant=0: tampered)
        report = expand_identity(4)
        assert report == per_word_identity(tampered, 4, 3)
        reports.append(report)
    weight_report, dropped_report, reversed_report = reports
    assert (weight_report.n_surviving, weight_report.n_vanishing) == (26, 54)
    assert len(weight_report.mismatches) == 1
    assert (dropped_report.n_surviving, dropped_report.n_vanishing) == (26, 54)
    assert dropped_report.mismatches[0].split(": ")[1].startswith("expected 0, got")
    assert reversed_report.matches and reversed_report.n_surviving == 27


def test_bad_build_arguments():
    with pytest.raises(ValueError):
        build_mermin(3, 0, 0)
    with pytest.raises(ValueError):
        build_mermin(3, 3, 3)
    # the first N over the 3**13-term budget is refused before anything is built
    for d, over in ((3, 15), (5, 10), (7, 9)):
        with pytest.raises(ValueError):
            build_mermin(d, over)


def test_tampered_weight_raises_eigenstate_error():
    op = build_mermin(3, 3, 0)
    tampered = []
    for word, weight in op.terms:
        if str(word) == "YYY":
            tampered.append((word, root_of_unity(1, 9)))
        else:
            tampered.append((word, weight))
    bad = MerminOperator.from_terms(3, 3, 0, tuple(tampered))
    with pytest.raises(EigenstateError):
        verify_eigenvalue(bad)


def test_terms_match_product_order_build():
    for n in range(1, 7):
        for c in range(3):
            assert build_mermin(3, n, c).terms == seed_terms(3, n, c)
    for n in range(1, 4):
        for c in range(5):
            assert build_mermin(5, n, c).terms == seed_terms(5, n, c)


def test_kernel_matches_per_term_reference():
    for d, n, c in small_cases():
        op = build_mermin(d, n, c)
        assert verify_eigenvalue(op) == reference_eigenvalue(op) == d ** (n - 1)


def test_eigenvalue_equals_position_count_route():
    for d, n_max in ((3, 12), (5, 6), (7, 5)):
        for n in range(1, n_max + 1):
            counts = counts_by_position(d, n).counts
            for c in range(d):
                expected = sum(counts[k] for k in range(c, d * d, d))
                assert verify_eigenvalue(build_mermin(d, n, c)) == expected


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_root_weights_agree_with_reference(data):
    d = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 4 if d == 3 else 2))
    c = data.draw(st.integers(0, d - 1))
    m = d * d
    terms = build_mermin(d, n, c).terms
    # an empty dict and a zero global shift leave the operator intact
    shifts = data.draw(
        st.dictionaries(st.integers(0, len(terms) - 1), st.integers(1, m - 1), max_size=3)
    )
    global_shift = data.draw(st.sampled_from([0, 1, d]))
    tampered = tuple(
        (word, weight.times_root(shifts.get(t, 0) + global_shift))
        for t, (word, weight) in enumerate(terms)
    )
    op = MerminOperator.from_terms(d, n, c, tampered)
    try:
        expected = reference_eigenvalue(op)
    except EigenstateError:
        with pytest.raises(EigenstateError):
            verify_eigenvalue(op)
    else:
        assert verify_eigenvalue(op) == expected


def test_from_terms_round_trip_and_validation():
    op = build_mermin(3, 4, 2)
    again = MerminOperator.from_terms(3, 4, 2, op.terms)
    assert again == op and hash(again) == hash(op)
    assert again.letters.dtype == np.int8 and again.weight_exponents.dtype == np.int64
    word, weight = op.terms[0]
    with pytest.raises(ValueError):  # 1 + alpha is not a root of unity
        MerminOperator.from_terms(3, 4, 2, [(word, weight + root_of_unity(1, 9))])
    with pytest.raises(ValueError):  # rotation index 2 does not exist for d = 3
        MerminOperator.from_terms(3, 2, 0, [(SettingWord(5, (2, -2)), weight)])
    with pytest.raises(ValueError):
        MerminOperator.from_terms(3, 3, 2, [(word, weight)])
    with pytest.raises(ValueError):
        MerminOperator.from_terms(3, 4, 3, [(word, weight)])


def test_operator_arrays_are_read_only():
    op = build_mermin(3, 3, 0)
    assert op.letters.shape == (9, 3) and op.term_count == 9
    for array in (op.letters, op.weight_exponents):
        with pytest.raises(ValueError):
            array[0] = 1
    assert op != build_mermin(3, 3, 1)
    with pytest.raises(ValueError):
        MerminOperator(3, 3, 0, np.full((1, 3), 2, dtype=np.int8), [0])
    shifted = MerminOperator(3, 3, 0, op.letters, op.weight_exponents + 9)
    assert shifted == op


def test_verify_budget_first_over_cap_n():
    assert VERIFY_TERM_CAP == 3**13
    for d, last in ((3, 14), (5, 9), (7, 8)):
        check_verify_budget(d, last)
        with pytest.raises(ValueError):
            check_verify_budget(d, last + 1)


def test_off_position_word_is_not_proportional():
    # XY sits at position 1, so it maps the variant-0 GHZ state off itself
    op = MerminOperator.from_terms(
        3, 2, 0, [(SettingWord.from_string("XY"), root_of_unity(0, 9))]
    )
    with pytest.raises(EigenstateError, match="proportional"):
        reference_eigenvalue(op)
    with pytest.raises(EigenstateError, match="proportional"):
        verify_eigenvalue(op)


@pytest.mark.parametrize("d, n_max", [(3, 10), (5, 6), (7, 5)])
def test_position_eigenvalue_equals_the_term_path(d, n_max):
    for n in range(1, n_max + 1):
        for c in range(d):
            op = build_mermin(d, n, c)
            assert _position_eigenvalue(d, n, c) == (verify_eigenvalue(op), op.term_count)


def test_position_eigenvalue_at_the_term_budget():
    # the last admitted N per d, where every count is at most d**N < 7 * 3**13 < 2**63
    for d, last in ((3, 14), (5, 9), (7, 8)):
        for c in range(d):
            assert _position_eigenvalue(d, last, c) == (d ** (last - 1), d ** (last - 1))


def test_position_eigenvalue_refuses_what_build_mermin_refuses():
    for d, n, c in ((3, 0, 0), (3, 3, 3), (3, 3, -1), (3, 15, 0), (5, 10, 0), (7, 9, 0)):
        with pytest.raises(ValueError) as built:
            build_mermin(d, n, c)
        with pytest.raises(ValueError, match=re.escape(str(built.value))):
            _position_eigenvalue(d, n, c)


def shift_x_on_digit_0(table):
    """Letter X (row (d-1)/2) on digit 0 only: the label-0 sum leaves the others."""
    table = table.copy()
    table[len(table) // 2, 0] += 1
    return table


def shift_every_entry(table):
    """Each word gains alpha**N at every label: the sums agree but are not integers."""
    return table + 1


@pytest.mark.parametrize(
    "shift, message, witness_message",
    [
        pytest.param(shift_x_on_digit_0, "proportional", "proportional",
                     id="shift_x_on_digit_0-proportional"),
        pytest.param(shift_every_entry, "rational integer", "power of omega",
                     id="shift_every_entry-rational integer"),
    ],
)
def test_tampered_phase_table_raises_eigenstate_error(
    monkeypatch, shift, message, witness_message
):
    real = qudit_ops._phase_array
    monkeypatch.setattr(qudit_ops, "_phase_array", lambda d: shift(real(d)))
    for d, n, c in ((3, 2, 0), (3, 4, 1), (5, 2, 0)):
        with pytest.raises(EigenstateError, match=message):
            _position_eigenvalue(d, n, c)
        # the term path reads the same tampered action and refuses it the same way
        with pytest.raises(EigenstateError, match=message):
            verify_eigenvalue(build_mermin(d, n, c))
    # so do one word and the witness scan; at N = 4 the shift of every entry
    # moves each witness phase by alpha**4, off the powers of omega
    with pytest.raises(EigenstateError, match=witness_message):
        _witness_table(4)
    word = SettingWord.from_string("XYYY")  # a witness at point 3
    with pytest.raises((EigenstateError, ArithmeticError), match=witness_message):
        contradiction_witness(word)  # through ``eigenphase``


def test_an_operator_with_no_terms_has_eigenvalue_zero():
    for d in (3, 5, 7):
        assert verify_eigenvalue(MerminOperator.from_terms(d, 2, 0, [])) == 0
