"""State and observable tests, cross-checked against dense float matrices.

The dense oracles below are built straight from the definitions (Z as a
diagonal phase matrix, the rotated shifts as matrix conjugations), fully
independent of the phase-table code they check.
"""

import itertools

import numpy as np
import pytest

from qudit_mermin import qudit_ops
from qudit_mermin.cyclotomic import CycInt, root_of_unity
from qudit_mermin.qudit_ops import (
    EigenstateError,
    _all_words,
    _ghz_phase,
    _phase_array,
    LocalObservable,
    SettingWord,
    StateVector,
    apply_word,
    bloch_check,
    eigenphase,
    ghz_state,
    rotation_alphabet,
    word_position,
)


def dense_observable(d, j):
    """W_j = Z**(j/d) X Z**(-j/d), built by explicit matrix products."""
    m = d * d
    z_frac = np.diag([np.exp(2j * np.pi * j * n / m) for n in range(d)])
    x = np.zeros((d, d), dtype=complex)
    for n in range(d):
        x[(n + 1) % d, n] = 1.0
    return z_frac @ x @ np.conj(z_frac)


def dense_word(word):
    mat = np.eye(1)
    # site 1 is the least significant digit, so it is the rightmost kron factor
    for j in reversed(word.letters):
        mat = np.kron(mat, dense_observable(word.d, j))
    return mat


def dense_ghz(k, d, n_sites):
    alpha = np.exp(2j * np.pi / (d * d))
    vec = np.zeros(d**n_sites, dtype=complex)
    rep = (d**n_sites - 1) // (d - 1)
    for r in range(d):
        vec[r * rep] = alpha ** (k * r)
    return vec


def test_phase_tables_match_dense_matrices():
    for d in (3, 5):
        for j in rotation_alphabet(d):
            obs = LocalObservable.rotated_shift(d, j)
            assert np.allclose(obs.matrix(), dense_observable(d, j), atol=1e-12)


def test_qutrit_phase_tables():
    assert LocalObservable.rotated_shift(3, 0).phase_table == (0, 0, 0)
    assert LocalObservable.rotated_shift(3, 1).phase_table == (1, 1, (-2) % 9)
    # V is the exponent-negated table of Y
    y_table = LocalObservable.rotated_shift(3, 1).phase_table
    v_table = LocalObservable.rotated_shift(3, -1).phase_table
    assert v_table == tuple((-e) % 9 for e in y_table)


def test_apply_matches_dense_random_words():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        letters = tuple(int(v) for v in rng.integers(-1, 2, size=n))
        word = SettingWord(3, letters)
        amps = {}
        for label in rng.choice(3**n, size=min(4, 3**n), replace=False):
            amps[int(label)] = root_of_unity(int(rng.integers(0, 9)), 9)
        state = StateVector(3, n, amps)
        result = apply_word(word, state)
        assert np.allclose(
            result.to_dense(), dense_word(word) @ state.to_dense(), atol=1e-9
        )


def test_apply_examples():
    # YYY on |000>: three phase exponents of 1 give alpha**3 = omega
    yyy = SettingWord.from_string("YYY")
    start = StateVector(3, 3, {0: CycInt.one(9)})
    result = apply_word(yyy, start)
    assert result.amplitudes == {13: root_of_unity(3, 9)}  # |111> = 1+3+9

    # XX on |12>: pure shift, no phase
    xx = SettingWord.from_string("XX")
    start = StateVector(3, 2, {1 + 2 * 3: CycInt.one(9)})
    result = apply_word(xx, start)
    assert result.amplitudes == {2 + 0 * 3: CycInt.one(9)}

    # YYY is an exact omega-eigenoperator of the k=0 GHZ state
    psi = ghz_state(0, 3, 3)
    assert apply_word(yyy, psi) == psi.scaled(root_of_unity(3, 9))


def test_ghz_states():
    psi = ghz_state(0, 3, 3)
    assert sorted(psi.amplitudes) == [0, 13, 26]
    assert all(a.is_one() for a in psi.amplitudes.values())
    psi32 = ghz_state(3, 3, 2)
    assert psi32.amplitude(0).is_one()
    assert psi32.amplitude(4) == root_of_unity(3, 9)
    assert psi32.amplitude(8) == root_of_unity(6, 9)
    assert ghz_state(9, 3, 3) == ghz_state(0, 3, 3)


def test_word_positions():
    assert word_position(SettingWord.from_string("XYV")) == 0
    assert word_position(SettingWord.from_string("YYY")) == 3
    assert word_position(SettingWord.from_string("VVVV")) == 5
    rng = np.random.default_rng(3)
    for _ in range(50):
        letters = tuple(int(v) for v in rng.integers(-1, 2, size=6))
        assert SettingWord(3, letters).position == sum(letters) % 9


def test_bloch_check_true_for_all_settings():
    for d in (3, 5):
        for j in rotation_alphabet(d):
            assert bloch_check(LocalObservable.rotated_shift(d, j))


def test_bloch_check_rejects_corrupted_table():
    good = LocalObservable.rotated_shift(3, 1)
    corrupted = LocalObservable(3, 1, (good.phase_table[0], 2, good.phase_table[2]))
    assert not bloch_check(corrupted)


def test_eigenphase_law_all_words_n3():
    for letters in itertools.product((-1, 0, 1), repeat=3):
        word = SettingWord(3, letters)
        k = word.position
        if k % 3 == 0:
            assert eigenphase(word, 0).exponent == k
        else:
            with pytest.raises(ValueError):
                eigenphase(word, 0)


def test_eigenphase_shifted_variants():
    for letters in itertools.product((-1, 0, 1), repeat=2):
        word = SettingWord(3, letters)
        k = word.position
        c = k % 3
        assert eigenphase(word, c).exponent == (k - c) % 9


def test_letter_rotation_moves_position_by_n():
    # rotating every letter one step is defined on words without Y
    for letters in itertools.product((-1, 0), repeat=4):
        word = SettingWord(3, letters)
        rotated = SettingWord(3, tuple(j + 1 for j in letters))
        assert rotated.position == (word.position + 4) % 9


def test_word_ninth_power_is_scalar_on_ghz():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        letters = tuple(int(v) for v in rng.integers(-1, 2, size=n))
        word = SettingWord(3, letters)
        state = ghz_state(int(rng.integers(0, 9)), 3, n)
        current = state
        for _ in range(9):
            current = apply_word(word, current)
        gamma = None
        for label, amp in state.amplitudes.items():
            ratio = current.amplitude(label) * amp.conjugate()
            if gamma is None:
                gamma = ratio
            else:
                assert gamma == ratio


def test_dimension_mismatch_errors():
    word = SettingWord.from_string("XX")
    with pytest.raises(ValueError):
        apply_word(word, ghz_state(0, 3, 3))
    with pytest.raises(ValueError):
        SettingWord(3, (0, 2))
    with pytest.raises(ValueError):
        SettingWord.from_string("XQZ")


def test_word_strings():
    assert str(SettingWord.from_string("XYV")) == "XYV"
    assert str(SettingWord(5, (0, -2, 1))) == "[0,-2,1]"


def test_eigenstate_error_distinct_from_value_error():
    assert issubclass(EigenstateError, RuntimeError)
    assert not issubclass(EigenstateError, ValueError)


def test_word_array_follows_product_order():
    for d, n_max in ((3, 6), (5, 4), (7, 3)):
        alphabet = rotation_alphabet(d)
        for n in range(n_max + 1):
            words = _all_words(d, n)
            assert words.dtype == np.int8 and words.shape == (d**n, n)
            assert [tuple(w) for w in words.tolist()] == list(
                itertools.product(alphabet, repeat=n)
            )


def test_phase_array_rows_are_the_phase_tables():
    for d in (3, 5, 7):
        table = _phase_array(d)
        assert table.dtype == np.int64 and not table.flags.writeable
        for j in rotation_alphabet(d):
            expected = LocalObservable.rotated_shift(d, j).phase_table
            assert tuple(table[j + (d - 1) // 2].tolist()) == expected


def test_ghz_phase_row_r_is_the_reading_at_label_r():
    rng = np.random.default_rng(33)
    for d in (3, 5, 7):
        m, half = d * d, (d - 1) // 2
        table = _phase_array(d).tolist()
        for n in range(5):
            letters = rng.integers(-half, half + 1, size=(6, n), dtype=np.int8)
            for k in range(m):
                readings = _ghz_phase(d, letters, k)
                assert readings.dtype == np.int64 and readings.shape == (d, 6)
                for r, row in enumerate(readings.tolist()):
                    # a word maps label r to r + 1 and picks up column r of each letter
                    expected = [
                        (sum(table[j + half][r] for j in word) + k * r - k * ((r + 1) % d)) % m
                        for word in letters.tolist()
                    ]
                    assert row == expected, (d, n, k, r)


def reference_eigenphase(word, ghz_index):
    """The eigenphase read off ``apply_word`` on the sparse GHZ state."""
    psi = ghz_state(ghz_index, word.d, word.n_sites)
    result = apply_word(word, psi)
    assert set(result.amplitudes) == set(psi.amplitudes)
    ratios = {result.amplitude(label) * amp.conjugate()
              for label, amp in psi.amplitudes.items()}
    if len(ratios) != 1:
        raise EigenstateError("not proportional")
    (lam,) = ratios
    return lam.as_root_exponent()


def test_eigenphase_matches_the_state_vector_action():
    for d, n_max in ((3, 4), (5, 3), (7, 2)):
        m = d * d
        for n in range(1, n_max + 1):
            for letters in itertools.product(rotation_alphabet(d), repeat=n):
                word = SettingWord(d, letters)
                for k in range(m):
                    if (word.position - k) % d:
                        with pytest.raises(ValueError):
                            eigenphase(word, k)
                        continue
                    phase = eigenphase(word, k)
                    assert phase.order == m
                    assert phase.exponent == reference_eigenphase(word, k), (word, k)
                    assert phase.exponent == (word.position - k) % m


def test_eigenphase_requires_the_labels_to_agree(monkeypatch):
    rows = _phase_array(3).copy()
    rows[2] = (1, 1, 1)  # Y acting with one phase on every digit
    monkeypatch.setattr(qudit_ops, "_phase_array", lambda d: rows)
    with pytest.raises(EigenstateError, match="proportional"):
        eigenphase(SettingWord.from_string("YV"), 0)


def test_eigenphase_refuses_off_position_and_empty_words():
    with pytest.raises(ValueError, match="not an eigenoperator"):
        eigenphase(SettingWord.from_string("Y"), 0)
    with pytest.raises(ValueError, match="at least one site"):
        eigenphase(SettingWord(3, ()), 0)
    with pytest.raises(ValueError, match="at least one site"):
        eigenphase(SettingWord(5, ()), 5)
