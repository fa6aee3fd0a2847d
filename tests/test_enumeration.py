"""Site-permutation class engine against brute force over every flat index.

The oracle evaluates each assignment on its own with pure-Python ``CycInt``
arithmetic (``exact_sum``) and orders squared magnitudes with
``compare_real_coeffs``; it shares no code with the class enumeration,
the int64 tables or the float ranking band.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_mermin._enumeration import (
    ProductSpace,
    _mult_matrix,
    _tables,
    exact_sum,
    full_space_scores,
    run_search,
)
from qudit_mermin.cyclotomic import CycInt, compare_real_coeffs, root_of_unity
from qudit_mermin.generalized import _conjecture_space
from qudit_mermin.hidden_variables import _ratio_space


def brute_force(space):
    """(best |sum|**2 coeffs, tie count, smallest maximizing flat index)."""
    best, count, argmin = None, 0, None
    for flat in range(space.size):
        value = exact_sum(space, flat)
        sq = (value * value.conjugate()).coeffs
        rel = 1 if best is None else compare_real_coeffs(space.order, sq, best)
        if rel > 0:
            best, count, argmin = sq, 1, flat
        elif rel == 0:
            count += 1
    return best, count, argmin


def assert_matches_brute_force(space):
    raw = run_search(space)
    best, count, argmin = brute_force(space)
    assert raw.best_sq_coeffs == best
    assert raw.num_maximizers == count
    assert raw.argmax_index == argmin
    assert raw.assignments_scanned == space.alphabet**space.n_sites


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_ratio_space_matches_brute_force(n_sites):
    assert_matches_brute_force(_ratio_space(n_sites))


@pytest.mark.parametrize("d, n_sites", [(3, 3), (5, 1)])
def test_conjecture_space_matches_brute_force(d, n_sites):
    assert_matches_brute_force(_conjecture_space(d, n_sites))


def _factor(terms):
    total = CycInt.zero(9)
    for sign, exponent in terms:
        root = root_of_unity(exponent, 9)
        total = total + root if sign > 0 else total - root
    return total


_factors = st.lists(
    st.tuples(st.sampled_from((1, -1)), st.integers(0, 8)), max_size=3
).map(_factor)


@st.composite
def product_spaces(draw):
    alphabet = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 3))
    n_sites = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(_factors, min_size=slots, max_size=slots).map(tuple),
            min_size=alphabet,
            max_size=alphabet,
        )
    )
    return ProductSpace(order=9, n_sites=n_sites, factors=tuple(rows))


@settings(max_examples=150, deadline=None)
@given(product_spaces())
def test_random_spaces_match_brute_force(space):
    # zero factors and repeated letters give tie patterns (many classes at
    # one maximum, all-zero spaces) that the physics spaces never produce
    assert_matches_brute_force(space)


@pytest.mark.parametrize(
    "space",
    [_ratio_space(1), _conjecture_space(3, 2), _conjecture_space(5, 1)],
    ids=["ratio", "conjecture-d3", "conjecture-d5"],
)
def test_tables_match_per_factor_matrices(space):
    mats, _ = _tables(space)
    phi = len(space.factors[0][0].coeffs)
    reference = np.array(
        [[_mult_matrix(f, phi) for f in row] for row in space.factors]
    )
    assert mats.dtype == np.int64
    assert np.array_equal(mats, reference)


def test_products_past_int64_raise_overflow():
    def integer(n):
        return (CycInt.integer(n, 9),)

    # 2**40 * 2**40 wraps to 0 in an int64 matmul; the guard refuses that
    # product before it is computed
    space = ProductSpace(order=9, n_sites=2, factors=(integer(1), integer(2**40)))
    with pytest.raises(OverflowError):
        run_search(space)
    with pytest.raises(OverflowError):
        full_space_scores(space)
    # well inside the range, the largest product is found at its true index
    space = ProductSpace(order=9, n_sites=2, factors=(integer(1), integer(2**20)))
    raw = run_search(space)
    assert (raw.best_sq_coeffs[0], raw.argmax_index, raw.num_maximizers) == (2**80, 3, 1)
    assert np.argmax(full_space_scores(space)) == 3


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_full_space_scores_match_exact_sums(n_sites):
    space = _ratio_space(n_sites)
    scores = full_space_scores(space)
    assert scores.shape == (space.size,)
    for flat in range(space.size):
        value = exact_sum(space, flat)
        sq = (value * value.conjugate()).to_complex()
        assert math.isclose(scores[flat], sq.real, rel_tol=1e-12, abs_tol=1e-9)
