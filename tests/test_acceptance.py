"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9 is split into its two clauses (9a, 9b).  The 9b clause
checks that N_GHZ/M_Q approaches 2/3: the exact fraction 102654/177147 at
N = 12 (also counted by brute force), its exact gap (2/3)(M_C/M_Q), strict
growth for N = 3..26, and the first N within 0.01 of 2/3, which is N = 25.
Reading 9b as "within 0.01 already at N = 12" cannot hold: with the paper's
Table 1 values the gap closes like (2.532/3)**N and is still 0.0872 at N = 12.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from click.testing import CliRunner

from qudit_mermin.cli import cli
from qudit_mermin.cyclotomic import CycInt
from qudit_mermin.generalized import (
    GeneralConfig,
    conjecture_search,
    uniform_factors,
    verify_general_eigenvalue,
)
from qudit_mermin.hidden_variables import (
    exhaustive_search,
    factor_table,
    factor_value,
    ghz_contradiction_count,
    max_equals_uniform,
    permutation_class_max,
    uniform_value,
    violation_ratio,
)
from qudit_mermin.mermin import build_mermin, expand_identity, verify_eigenvalue


@contextmanager
def criterion(number: str, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_table_rows():
    with criterion("1", "quantum/classical/contradiction table for N = 3..7"):
        started = time.perf_counter()
        expected = {
            3: (9, 6, 1.5, 2),
            4: (27, 15, 1.8, 8),
            5: (81, 36, 2.25, 30),
            6: (243, 90, 2.70, 102),
            7: (729, 225, 3.24, 336),
        }
        for n, (m_q, m_c, ratio, n_ghz) in expected.items():
            assert 3 ** (n - 1) == m_q
            assert uniform_value(n) == m_c
            assert abs(violation_ratio(n) - ratio) <= 0.005
            assert ghz_contradiction_count(n) == n_ghz
        assert time.perf_counter() - started < 1.0


def test_criterion_02_exact_eigenvalues():
    with criterion("2", "eigenvalue 3**(N-1) exact for N in [1,8], all variants"):
        for n in range(1, 8):
            for c in range(3):
                assert verify_eigenvalue(build_mermin(3, n, c)) == 3 ** (n - 1)
        started = time.perf_counter()
        for c in range(3):
            assert verify_eigenvalue(build_mermin(3, 8, c)) == 3**7
        assert time.perf_counter() - started < 10.0


def test_criterion_03_identity_expansion():
    with criterion("3", "product-form expansion matches term-for-term, N = 3..6"):
        for n in range(3, 7):
            report = expand_identity(n)
            assert report.matches, report.mismatches[:3]
            assert report.n_surviving == 3 ** (n - 1)


def test_criterion_04_factor_constants():
    with criterion("4", "uniform factor magnitudes 2.532 / 1.347 / 0.879"):
        mags = sorted(
            (factor_value(letter, 0, 0).magnitude() for letter in "ABC"),
            reverse=True,
        )
        for got, want in zip(mags, (2.532, 1.347, 0.879)):
            assert abs(got - want) <= 1e-3
        z = factor_value("C", 0, 0).to_complex()
        assert abs(z.imag) < 1e-12 and z.real < 0


def test_criterion_05_ratio_search_matches_uniform():
    with criterion("5", "ratio search max equals the all-ones value for N = 3..7"):
        started = time.perf_counter()
        single = {}
        for n in range(3, 8):
            result = exhaustive_search(n, mode="ratio")
            assert max_equals_uniform(result)
            # the all-ones assignment is the lexicographically smallest maximizer
            assert result.argmax_index == 0
            single[n] = result
        elapsed_single = time.perf_counter() - started
        assert elapsed_single < 300.0
        started = time.perf_counter()
        again = exhaustive_search(7, mode="ratio")
        elapsed_again = time.perf_counter() - started
        assert elapsed_again < 60.0
        assert again == single[7]
        print(
            f"  (search timings: {elapsed_single:.1f}s for N=3..7, "
            f"{elapsed_again:.1f}s for a second N=7 run)"
        )


def test_criterion_06_full_mode_ratio_reduction():
    with criterion("6", "full-mode magnitudes match ratio reductions at N = 3, 4"):
        for n in (3, 4):
            full = exhaustive_search(n, mode="full")
            assert full.details["ratio_agreement_max_abs_dev"] <= 1e-9
            ratio = exhaustive_search(n, mode="ratio")
            lifted = CycInt.integer(9 * full.details["max_sq_int"], 9)
            assert ratio.max_sq_coeffs == lifted.coeffs


def test_criterion_07_factor_table_rows():
    with criterion("7", "all nine factor rows with phases 0/20/40/80/180 degrees"):
        reference = {
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
        rows = {(row.r_exp, row.s_exp): row for row in factor_table()}
        assert len(rows) == 9
        for key, expected in reference.items():
            for entry, (letter, phase) in zip(rows[key].entries, expected):
                assert entry.letter == letter
                assert abs(entry.phase_deg - phase) <= 1e-9


def test_criterion_08_permutation_class_bound():
    with criterion("8", "pure-permutation proper-subset class tops out near 4.06"):
        report = permutation_class_max(3)
        assert abs(report.bound - 4.06) <= 0.01
        assert report.bound < 6.0
        assert report.attained <= report.bound


def test_criterion_09a_ratio_growth_rate():
    with criterion("9a", "violation ratio grows by ~1.1848 per site at N = 19"):
        growth = violation_ratio(20) / violation_ratio(19)
        assert 1.1838 <= growth <= 1.1858


def test_criterion_09b_contradiction_fraction_at_n12():
    with criterion(
        "9b",
        "N_GHZ/M_Q = 102654/177147 at N = 12, rising to 2/3; "
        "first within 0.01 at N = 25",
    ):
        limit, tolerance = Fraction(2, 3), Fraction("0.01")
        fractions = {
            n: Fraction(ghz_contradiction_count(n), 3 ** (n - 1))
            for n in range(3, 27)
        }

        # Brute force, independent of counts_by_position: a word sits at circle
        # point (sum of its letters) mod 9, and contradictions sit at 3 and 6.
        sums = np.zeros(1, dtype=np.int64)
        for _ in range(12):
            sums = (sums[:, None] + np.array([-1, 0, 1])).ravel()
        assert int(np.count_nonzero(np.isin(sums % 9, (3, 6)))) == 102654
        assert fractions[12] == Fraction(102654, 177147)

        # M_C from the factor magnitudes in floating point: A, B and -C are
        # the roots of x**3 - 3x**2 + 3.
        roots = np.roots([1, -3, 0, 3])
        m_c = uniform_value(12)
        assert round(float(np.sum(roots**12).real) / 3) == m_c == 23166
        assert limit - fractions[12] == limit * Fraction(m_c, 3**11)

        values = list(fractions.values())
        assert all(a < b < limit for a, b in zip(values, values[1:]))
        for n in (24, 25):
            print(f"  (N = {n}: gap to 2/3 is {float(limit - fractions[n]):.6f})")
        assert limit - fractions[24] > tolerance
        assert limit - fractions[25] <= tolerance


def test_criterion_10_dimension_five():
    with criterion("10", "d=5 eigenvalues, 4.6898 factor, and conjecture scan"):
        assert verify_general_eigenvalue(GeneralConfig(5, 2)) == 5
        assert verify_general_eigenvalue(GeneralConfig(5, 3)) == 25
        assert abs(uniform_factors(5).largest - 4.6898) <= 1e-3
        started = time.perf_counter()
        report = conjecture_search(5, 2)
        assert time.perf_counter() - started < 60.0
        assert report.assignments_scanned == 5**8
        assert report.max_magnitude >= report.uniform_magnitude - 1e-9
        verdict = (
            "attains" if report.uniform_is_max else
            f"misses by {report.gap:.6g}"
        )
        print(
            f"  (recorded verdict: the all-ones point {verdict} the scanned "
            f"maximum {report.max_magnitude:.6g})"
        )


def test_criterion_11_search_output_worker_invariance():
    with criterion("11", "search JSON is byte-identical for 1, 2, and 8 workers"):
        runner = CliRunner()
        outputs = []
        for workers in ("1", "2", "8"):
            result = runner.invoke(
                cli,
                ["search", "--n", "3", "--workers", workers, "--format", "json"],
            )
            assert result.exit_code == 0
            outputs.append(result.stdout.encode("utf-8"))
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0].decode())
        assert payload["results"]["max_magnitude"] == 6.0
