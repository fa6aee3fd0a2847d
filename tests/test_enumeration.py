"""Site-permutation class engine against brute force and the int64 engines.

The brute-force oracle evaluates each assignment on its own with
pure-Python ``CycInt`` arithmetic (``oracles.exact_sum``) and orders squared
magnitudes with ``compare_real_coeffs``; it shares no code with the class
enumeration or the float ranking band.  ``int64_class_search`` is the
earlier engine, kept here as a second oracle: it carries every class
product as exact int64 coefficients (one multiplication matrix per factor)
and resolves a 1e-6 relative band around the float maximum exactly.
``breadth_first_scores`` is the earlier full score table, kept as the
oracle of ``full_space_scores``: it multiplies canonical coefficients of
every index, site by site, by the phi x phi matrices of ``_mult_matrices``.
"""

import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qudit_mermin import _enumeration
from qudit_mermin._enumeration import (
    _CLASS_BLOCK,
    CLASS_CAP,
    ProductSpace,
    _band,
    _check_multisets,
    _check_range,
    _class_letters,
    _class_tally,
    _class_values,
    _letter_groups,
    _level_ends,
    _multiset_values,
    _scored_blocks,
    check_search_budget,
    decode_index,
    encode_index,
    full_space_scores,
    run_search,
)
from qudit_mermin.cyclotomic import (
    CycInt,
    _alpha_powers,
    _circulant_index,
    _root_coeffs,
    compare_real_coeffs,
    mp_real_value,
    order_params,
    root_of_unity,
)
from qudit_mermin.generalized import ratio_space

from oracles import class_tally, exact_letters_sum, exact_sum, letter_band

_BAND_REL = 1e-6


def space_of(n_sites, rows):
    """Order-9 ``ProductSpace`` of ``CycInt`` factor rows, through root counts.

    A coefficient c > 0 of alpha**j is c counts at j; c < 0 is |c| counts
    at each j + 3k, k = 1, 2, since sum_k alpha**(j + 3k) = 0.  Each
    residue class mod 3 keeps only its excess over its smallest entry,
    which is the representative of least mass.
    """
    coeffs = np.array([[f.coeffs for f in row] for row in rows], dtype=np.int64)
    shape = coeffs.shape[:-1]
    full = np.zeros(shape + (9,), dtype=np.int64)
    full[..., :6] = coeffs
    classes = full.reshape(shape + (3, 3))  # [k, r]: exponent 3k + r
    counts = (classes - classes.min(axis=-2, keepdims=True)).reshape(shape + (9,))
    space = ProductSpace(9, n_sites, counts)
    assert space.factors == tuple(map(tuple, rows))
    return space


def _mult_matrix(factor, phi):
    """Multiplication-by-``factor`` matrix, one ``times_root`` per column."""
    cols = [factor.times_root(j).coeffs for j in range(phi)]
    return np.array(cols, dtype=np.int64).T


def _tables(space):
    """Exact multiplication matrices ``mats[a, s]`` and the float powers of alpha."""
    _, phi = order_params(space.order)
    k = np.arange(phi)
    # column j of shifts[k] holds alpha**(k + j), folded mod m (2*phi - 2 >= m)
    shifts = _root_coeffs(space.order)[np.add.outer(k, k) % space.order]
    shifts = shifts.transpose(0, 2, 1)
    coeffs = np.array(
        [[f.coeffs for f in row] for row in space.factors], dtype=np.int64
    )
    mats = np.einsum("ask,kij->asij", coeffs, shifts)
    return mats, np.array(_alpha_powers(space.order)[:phi], dtype=np.complex128)


def _extend(mat, p, l1=1):
    """Multiply each (K, slots, phi) slot product by one letter's factors."""
    out = np.matmul(p.transpose(1, 0, 2), mat.transpose(0, 2, 1)).transpose(1, 0, 2)
    if out.size:
        peak = int(np.abs(out).max())
        if peak >= 2**52 or peak * l1 >= 2**63:
            raise OverflowError("product coefficients exceeded the exact int64 range")
    return out


def _mult_matrices(counts):
    """(..., phi, phi) exact matrices of multiplication by each factor.

    Row i is the canonical alpha**i * F: the factor's counts gathered
    cyclically (row i of ``_circulant_index``) and folded by ``_root_coeffs``.
    """
    m = counts.shape[-1]
    _, phi = order_params(m)
    return counts[..., _circulant_index(m)[:phi]] @ _root_coeffs(m)


def breadth_first_scores(space):
    """Float |sum of products|**2 for every index, built site by site."""
    a_size, slots, m = space.counts.shape
    _, phi = order_params(m)
    # (slots, phi, A * phi): letter a's matrices side by side, per slot
    mats = _mult_matrices(space.counts).transpose(1, 2, 0, 3).reshape(slots, phi, -1)
    p = np.tile(_root_coeffs(space.order)[0], (1, slots, 1))
    # breadth-first: each step appends one site as the least significant digit
    for _ in range(space.n_sites):
        p = np.matmul(p.transpose(1, 0, 2), mats).reshape(slots, -1, a_size, phi)
        p = p.transpose(1, 2, 0, 3).reshape(-1, slots, phi)
    vals = p.sum(axis=1).astype(np.float64) @ np.array(_alpha_powers(space.order)[:phi])
    return vals.real * vals.real + vals.imag * vals.imag


def _float_scores(v, powers):
    vals = v.astype(np.float64) @ powers
    return vals.real * vals.real + vals.imag * vals.imag


def _oracle_letters(ends, last, parent):
    """Sorted letters of the final-level class ``parent`` extended by ``last``."""
    letters = [last]
    for t in range(len(ends) - 1, 0, -1):
        c = int(np.searchsorted(ends[t], parent, side="right"))
        parent -= int(ends[t][c] - ends[t - 1][c])
        letters.append(c)
    return letters[::-1]


def int64_class_search(space):
    """(best |sum|**2 coeffs, tie count, smallest maximizing flat index)."""
    mats, powers = _tables(space)
    l1 = max(int(np.abs(mat).sum(axis=-1).max()) for mat in mats)
    a_size, n_sites = space.alphabet, space.n_sites
    # classes of length t sit in blocks by last letter b; block b extends
    # the first ends[t-1][b] classes of length t-1
    ends = [np.ones(a_size, dtype=np.int64)]
    p = np.tile(_root_coeffs(space.order)[0], (1, space.slots, 1))
    for _ in range(n_sites - 1):
        p = np.concatenate(
            [_extend(mats[b], p[: ends[-1][b]], l1) for b in range(a_size)]
        )
        ends.append(np.cumsum(ends[-1]))
    best, blocks = -np.inf, []
    for b in range(a_size):
        v = _extend(mats[b], p[: ends[-1][b]]).sum(axis=1)
        scores = _float_scores(v, powers)
        best = max(best, float(scores.max()))
        keep = np.nonzero(scores >= best - _BAND_REL * max(1.0, best))[0]
        blocks.append((b, keep, v[keep]))
    floor = best - _BAND_REL * max(1.0, best)
    groups = {}
    for b, parents, rows in blocks:
        keep = _float_scores(rows, powers) >= floor
        for row, parent in zip(rows[keep], parents[keep].tolist()):
            letter_row = _oracle_letters(ends, b, parent)
            value = CycInt(space.order, tuple(row.tolist()))
            sq = (value * value.conjugate()).coeffs
            count = math.factorial(n_sites) // math.prod(
                math.factorial(m) for m in Counter(letter_row).values()
            )
            flat = 0
            for a in letter_row:
                flat = flat * a_size + a
            entry = groups.setdefault(sq, [0, flat])
            entry[0] += count
            entry[1] = min(entry[1], flat)
    best_sq = None
    for sq in groups:
        if best_sq is None or compare_real_coeffs(space.order, sq, best_sq) > 0:
            best_sq = sq
    return (best_sq, *groups[best_sq])


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
    assert_matches_brute_force(ratio_space(3, n_sites))


@pytest.mark.parametrize("d, n_sites", [(3, 3), (5, 1)])
def test_conjecture_space_matches_brute_force(d, n_sites):
    assert_matches_brute_force(ratio_space(d, n_sites))


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
    return space_of(n_sites, rows)


@settings(max_examples=150, deadline=None)
@given(product_spaces())
def test_random_spaces_match_brute_force(space):
    # zero factors and repeated letters give tie patterns (many classes at
    # one maximum, all-zero spaces) that the physics spaces never produce
    assert_matches_brute_force(space)


@pytest.mark.parametrize(
    "space",
    [ratio_space(3, 1), ratio_space(3, 2), ratio_space(5, 1)],
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
    # the gathered and folded matrices of ``breadth_first_scores`` act on rows
    gathered = _mult_matrices(space.counts)
    assert gathered.dtype == np.int64
    assert np.array_equal(gathered.swapaxes(-1, -2), reference)


@pytest.mark.parametrize(
    "d, n_sites", [(3, n) for n in range(1, 11)] + [(5, 1), (5, 2)]
)
def test_run_search_matches_int64_engine(d, n_sites):
    space = ratio_space(d, n_sites)
    raw = run_search(space)
    assert (raw.best_sq_coeffs, raw.num_maximizers, raw.argmax_index) == (
        int64_class_search(space)
    )


def _eisenstein(x, y):
    """x + y*omega in Z[alpha_9], omega = alpha**3; |x + y*omega|**2 = x*x - x*y + y*y."""
    return CycInt(9, (x, 0, 0, y, 0, 0))


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(2**18, 2**20),
    n_sites=st.integers(1, 2),
    order=st.permutations(range(4)),
    slots=st.integers(1, 2),
)
def test_near_ties_inside_the_old_band_resolve_exactly(a, n_sites, order, slots):
    # |a + 2a*omega|**2 = 3a**2 and |(a+1) + 2a*omega|**2 = 3a**2 + 1: near
    # 2**40 they differ by about 1e-12 relative, far inside a 1e-6 band;
    # alpha * the second letter ties it exactly, and 1 stays far below
    near, above = _eisenstein(a, 2 * a), _eisenstein(a + 1, 2 * a)
    assert 0 < (3 * a * a + 1) / (3 * a * a) - 1 < _BAND_REL
    letters = [near, above, above.times_root(1), CycInt.one(9)]
    pad = (CycInt.zero(9),) * (slots - 1)
    factors = tuple((letters[k],) + pad for k in order)
    space = space_of(n_sites, factors)
    raw = run_search(space)
    best, count, argmin = brute_force(space)
    assert (raw.best_sq_coeffs, raw.num_maximizers, raw.argmax_index) == (
        best,
        count,
        argmin,
    )
    assert raw.best_sq_coeffs[0] == (3 * a * a + 1) ** n_sites
    assert raw.num_maximizers == 2**n_sites


def _cancelling(q):
    """round(q * c) - q * (alpha + alpha**8), c = 2cos(2 pi/9): |F| <= 1/2 at L1 ~ 4q."""
    twice_cos = 2 * math.cos(2 * math.pi / 9)
    return CycInt.integer(round(q * twice_cos), 9) - q * (
        root_of_unity(1, 9) + root_of_unity(8, 9)
    )


_scaled_factors = st.one_of(
    st.tuples(_factors, st.integers(-(2**12), 2**12)).map(lambda pair: pair[0] * pair[1]),
    st.integers(2**8, 2**12).map(_cancelling),
)


@st.composite
def scaled_spaces(draw):
    """Product spaces with factors up to 2**12 times a small root sum, or
    nearly cancelling ones whose float values carry large relative errors."""
    alphabet = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(_scaled_factors, min_size=slots, max_size=slots).map(tuple),
            min_size=alphabet,
            max_size=alphabet,
        )
    )
    return space_of(draw(st.integers(1, 4)), rows)


# Group entry limits: the module's own, one letter per product, and small
# ones that split the strategies' spaces into several groups
_GROUP_LIMITS = st.sampled_from([_enumeration._GROUP_ENTRIES, 1, 16, 64])


def group_limits(entries):
    """Patch the ranking's group limit for the duration of a ``with`` block."""
    return mock.patch.object(_enumeration, "_GROUP_ENTRIES", entries)


def scored_classes(space):
    """Yield (letters, lower, upper) for every class of ``_scored_blocks``.

    Each group row is one last letter b; its entries past the ends[-1][b]
    prefixes that block b extends must be -inf in both bounds, and every
    class must come exactly once.
    """
    ends = _level_ends(space.alphabet, space.n_sites + 1)
    seen = 0
    for b0, lower, upper in _scored_blocks(space):
        assert lower.shape == upper.shape and lower.shape[1] == ends[-2][b0 + len(lower) - 1]
        for b, lo, hi in zip(range(b0, b0 + len(lower)), lower, upper):
            n = ends[-2][b]
            assert np.all(lo[n:] == -np.inf) and np.all(hi[n:] == -np.inf)
            assert np.all(lo[:n] <= hi[:n])
            seen += n
            ranks = ends[-1][b] - n + np.arange(n)
            yield _class_letters(ends, ranks), lo[:n], hi[:n]
    assert seen == math.comb(space.n_sites + space.alphabet - 1, space.n_sites)


@settings(max_examples=100, deadline=None)
@given(st.one_of(product_spaces(), scaled_spaces()), _GROUP_LIMITS)
def test_score_bounds_hold_for_every_class(space, entries):
    _check_range(space)
    with group_limits(entries):
        for letters, lower, upper in scored_classes(space):
            for row, lo, hi in zip(letters.tolist(), lower.tolist(), upper.tolist()):
                value = exact_letters_sum(space.order, space.factors, row)
                sq = (value * value.conjugate()).coeffs
                exact = mp_real_value(space.order, sq, 60)
                with mpmath.workdps(60):
                    assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)


@pytest.mark.parametrize("d, n_sites", [(5, 1), (3, 6)])
def test_score_bounds_hold_on_ratio_spaces(d, n_sites):
    # the strategies above draw order 9 only, so d = 5 is the one check of
    # the m = 25 constants; d = 3, N = 6 has 3,003 classes over 3 slots
    space = ratio_space(d, n_sites)
    factors = space.factors  # derived on every read, so read once
    for letters, lower, upper in scored_classes(space):
        for row, lo, hi in zip(letters.tolist(), lower.tolist(), upper.tolist()):
            value = exact_letters_sum(space.order, factors, row)
            exact = mp_real_value(space.order, (value * value.conjugate()).coeffs, 60)
            with mpmath.workdps(60):
                assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)


# Classes in ``_band`` on each admitted ratio space; every one of them is a
# maximizer.
BAND_CLASSES = {
    (3, n): count
    for n, count in enumerate((9, 6, 12, 15, 21, 30, 36, 45, 57, 66, 78, 93, 105, 120, 138), 1)
} | {(5, 1): 625, (5, 2): 325}
# Classes that ``run_search`` evaluates exactly there, one per orbit of the
# slot shift: the band over d.
EXACT_EVALUATIONS = {
    (3, n): count
    for n, count in enumerate((3, 2, 4, 5, 7, 10, 12, 15, 19, 22, 26, 31, 35, 40, 46), 1)
} | {(5, 1): 125, (5, 2): 65}


def unshifted(space):
    """The same counts with no slot shift: one exact evaluation per band class."""
    return ProductSpace(space.order, space.n_sites, space.counts)


@pytest.mark.parametrize("d, n_sites", sorted(BAND_CLASSES))
def test_band_holds_only_maximizers_on_ratio_spaces(monkeypatch, d, n_sites):
    # one band width for every class must add no exact work on the physics spaces
    evaluated = []

    def recording(counts, letters):
        values = evaluate(counts, letters)
        evaluated.append(values.tolist())
        return values

    evaluate = _enumeration._class_values
    monkeypatch.setattr(_enumeration, "_class_values", recording)
    space = ratio_space(d, n_sites)
    raw = run_search(space)
    assert len(_band(space)) == BAND_CLASSES[d, n_sites]
    # one value per orbit gives the result of one value per class, field for field
    assert run_search(unshifted(space)) == raw
    orbit_rows, band_rows = evaluated
    assert len(orbit_rows) == EXACT_EVALUATIONS[d, n_sites]
    assert len(band_rows) == BAND_CLASSES[d, n_sites]
    values = [CycInt(space.order, tuple(row)) for row in orbit_rows + band_rows]
    assert {(v * v.conjugate()).coeffs for v in values} == {raw.best_sq_coeffs}


@pytest.mark.parametrize("d, n_sites", sorted(BAND_CLASSES))
def test_grouped_band_equals_the_letter_loop(d, n_sites):
    space = ratio_space(d, n_sites)
    ranks = _band(space)
    expected = letter_band(space)
    assert ranks.dtype == expected.dtype
    assert np.array_equal(ranks, expected)


@settings(max_examples=100, deadline=None)
@given(st.one_of(product_spaces(), scaled_spaces()), _GROUP_LIMITS)
def test_grouped_band_gives_the_letter_loop_result(space, entries):
    with mock.patch.object(_enumeration, "_band", letter_band):
        expected = run_search(space)
    with group_limits(entries):
        assert run_search(space) == expected


@pytest.mark.parametrize(
    "alphabet, n_sites",
    [(d ** (d - 1), n) for d, n in sorted(BAND_CLASSES)] + [(9, 16), (64, 3), (2401, 2)],
)
def test_letter_groups_follow_the_rule(alphabet, n_sites):
    sizes = _level_ends(alphabet, n_sites)[-1].tolist()
    groups = _letter_groups(sizes)
    assert [b0 for b0, _ in groups] == [0] + [b1 for _, b1 in groups[:-1]]
    assert groups[-1][1] == len(sizes)

    def fits(b0, b1):
        return (b1 - b0) * sizes[b1 - 1] <= _enumeration._GROUP_ENTRIES

    for b0, b1 in groups:
        assert b1 == b0 + 1 or fits(b0, b1)
        assert b1 == len(sizes) or not fits(b0, b1 + 1)
    if alphabet == 625:  # d = 5: a few dozen products instead of 625
        assert len(groups) <= 40


def test_ranking_peak_memory_stays_in_groups():
    # the whole 625 x 625 complex rectangle of d = 5, N = 2 alone is 6.25 MB
    space = ratio_space(5, 2)
    run_search(space)
    tracemalloc.start()
    try:
        run_search(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("d, n_sites", [(3, 4), (5, 2)])
def test_class_values_equal_the_ring_loop_across_blocks(d, n_sites):
    # more classes than one block, and a last block that is not full
    space = ratio_space(d, n_sites)
    k = 2 * _CLASS_BLOCK + 3
    letters = np.sort(
        np.random.default_rng(1900 + d).integers(0, space.alphabet, size=(k, n_sites)), axis=1
    )
    values = _class_values(space.counts, letters)
    assert values.shape == (k, order_params(space.order)[1]) and values.dtype == np.int64
    factors = space.factors
    for row, value in zip(letters.tolist(), values.tolist()):
        assert tuple(value) == exact_letters_sum(space.order, factors, row).coeffs


@st.composite
def shifted_spaces(draw):
    """Spaces closed under the slot roll, with their shift.

    k random letters and their slots - 1 further rolls by one slot, in a
    random letter order; the shift maps each letter to its next roll.
    """
    slots = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    factors = st.one_of(_factors, _scaled_factors)
    row = st.lists(factors, min_size=slots, max_size=slots)
    bases = draw(st.lists(row, min_size=k, max_size=k))
    # letter order[i * slots + r] is base i rolled r times
    order = draw(st.permutations(range(k * slots)))
    rows, shift = [None] * (k * slots), [None] * (k * slots)
    for i, base in enumerate(bases):
        for r in range(slots):
            rows[order[i * slots + r]] = tuple(base[-r:] + base[:-r])
            shift[order[i * slots + r]] = order[i * slots + (r + 1) % slots]
    space = space_of(draw(st.integers(1, 4)), rows)
    return ProductSpace(space.order, space.n_sites, space.counts, shift)


@settings(max_examples=100, deadline=None)
@given(shifted_spaces())
def test_orbit_evaluation_equals_every_class_on_shifted_spaces(space):
    assert np.array_equal(space.counts[space.shift], np.roll(space.counts, 1, axis=1))
    assert run_search(space) == run_search(unshifted(space))


def test_shift_must_be_the_slot_roll():
    ratio = ratio_space(3, 1)
    counts, shift = ratio.counts, ratio.shift
    space = ProductSpace(9, 2, counts, shift.tolist())
    assert space.shift.dtype == np.intp and not space.shift.flags.writeable
    bad = [
        shift[:-1],  # one letter short
        shift[:, None],  # not one letter per row
        np.where(shift == 0, 9, shift),  # past the alphabet
        np.where(shift == 0, -9, shift),  # negative, which numpy would wrap
        shift[shift],  # a permutation, the roll by two slots
        np.arange(9),  # the identity
        shift.astype(np.float64),
    ]
    for wrong in bad:
        with pytest.raises(ValueError):
            ProductSpace(9, 2, counts, wrong)
    # maps that pass one of the two slot comparisons: on one slot the first
    # compares nothing, and letter 0 as slots (x, y, x) passes the second
    for table, wrong in [(counts[:, :1], shift), (counts[:1, [0, 1, 0]], [0])]:
        with pytest.raises(ValueError):
            ProductSpace(9, 2, table, wrong)


def test_products_past_int64_raise_overflow():
    def integer(n):
        return (CycInt.integer(n, 9),)

    # 2**40 * 2**40 wraps to 0 in an int64 matmul; the guard refuses that
    # product before it is computed
    space = space_of(2, (integer(1), integer(2**40)))
    with pytest.raises(OverflowError):
        run_search(space)
    with pytest.raises(OverflowError):
        full_space_scores(space)
    # well inside the range, the largest product is found at its true index
    space = space_of(2, (integer(1), integer(2**20)))
    raw = run_search(space)
    assert (raw.best_sq_coeffs[0], raw.argmax_index, raw.num_maximizers) == (2**80, 3, 1)
    assert np.argmax(full_space_scores(space)) == 3


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_full_space_scores_match_exact_sums(n_sites):
    space = ratio_space(3, n_sites)
    scores = full_space_scores(space)
    assert scores.shape == (space.size,)
    for flat in range(space.size):
        value = exact_sum(space, flat)
        sq = (value * value.conjugate()).to_complex()
        assert math.isclose(scores[flat], sq.real, rel_tol=1e-12, abs_tol=1e-9)


def assert_matches_breadth_first(space):
    scores = full_space_scores(space)
    reference = breadth_first_scores(space)
    assert scores.dtype == reference.dtype == np.float64
    assert np.array_equal(scores.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize(
    "d, n_sites", [(3, n) for n in range(1, 6)] + [(5, 1)]
)
def test_full_space_scores_match_breadth_first_bit_for_bit(d, n_sites):
    assert_matches_breadth_first(ratio_space(d, n_sites))


@settings(max_examples=100, deadline=None)
@given(st.one_of(product_spaces(), scaled_spaces()))
def test_random_full_tables_match_breadth_first_bit_for_bit(space):
    assert_matches_breadth_first(space)



def level_order_letters(alphabet, n_sites):
    """(K, N) sorted letters of every multiset, in the layout of ``_level_ends``."""
    ends = _level_ends(alphabet, n_sites + 1)
    return _class_letters(ends, np.arange(ends[-1][-1]))


def assert_walk_matches_the_evaluator(space):
    letters = level_order_letters(space.alphabet, space.n_sites)
    values = _multiset_values(space)
    assert values.dtype == np.int64
    assert np.array_equal(values, _class_values(space.counts, letters))


@pytest.mark.parametrize(
    "d, n_sites", [(3, n) for n in range(1, 8)] + [(5, 1), (5, 2)]
)
def test_multiset_walk_equals_the_exact_evaluator(d, n_sites):
    assert_walk_matches_the_evaluator(ratio_space(d, n_sites))


@settings(max_examples=100, deadline=None)
@given(st.one_of(product_spaces(), scaled_spaces()))
def test_random_multiset_walks_equal_the_exact_evaluator(space):
    assert_walk_matches_the_evaluator(space)


@pytest.mark.parametrize("mass, float_tier", [(math.isqrt(2**52 - 1), True), (2**27 + 1, False)])
def test_multiset_walk_is_exact_on_both_sides_of_the_float_bound(mass, float_tier):
    # N = 2 on one slot, so W = mass**2, and class (0, 0) reaches W.  Below
    # 2W < 2**53, W is the largest odd square the bound admits (bit length
    # 52); above it, the squares are odd past 2**53, which float64 cannot
    # hold, so only the int64 walk can give them
    counts = np.zeros((2, 1, 9), dtype=np.int64)
    counts[0, 0, 0] = mass
    counts[1, 0, [0, 6, 7]] = [mass - 8, 3, 5]  # alpha**6 and alpha**7 fold to two terms
    space = ProductSpace(9, 2, counts)
    bound = _check_range(space)
    assert bound == mass**2 and bound % 2 == 1
    assert (2 * bound < 2**53) is float_tier
    assert bound.bit_length() == (52 if float_tier else 55)
    values = _multiset_values(space)
    assert values.dtype == np.int64 and values[0, 0] == bound
    assert np.array_equal(values, _class_values(counts, level_order_letters(2, 2)))


@st.composite
def sorted_rows(draw):
    """(K, N) rows sorted along N, N up to 30 (30! > 2**63), many repeated letters."""
    alphabet = draw(st.integers(1, 27))
    n_sites = draw(st.integers(1, 30))
    n_rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).integers(0, alphabet, size=(n_rows, n_sites))
    return np.sort(rows, axis=1), alphabet


@settings(max_examples=200, deadline=None)
@given(sorted_rows())
@example((np.stack([np.arange(21), np.zeros(21, dtype=int)]), 21))  # 21! > 2**63
def test_class_tally_equals_the_counter_loop(rows_alphabet):
    rows, alphabet = rows_alphabet
    assert _class_tally(rows, alphabet) == class_tally(rows, alphabet)


@pytest.mark.parametrize("alphabet, n_sites", [(2, 1), (9, 3), (27, 2)])
def test_flat_index_is_the_lexicographic_order(alphabet, n_sites):
    words = itertools.product(range(alphabet), repeat=n_sites)
    for index, word in enumerate(words):
        assert decode_index(index, alphabet, n_sites) == word
        assert encode_index(word, alphabet) == index


def test_multiset_budget_refuses_exactly_where_the_binomial_passes_the_cap():
    sizes = [(a, n) for a in range(1, 31) for n in range(1, 41)]
    sizes += [(9, 15), (9, 16), (625, 2), (625, 3), (500_001, 1), (500_000, 1), (2, 499_999)]
    for alphabet, n_sites in sizes:
        over = math.comb(n_sites + alphabet - 1, n_sites) > CLASS_CAP
        try:
            _check_multisets(alphabet, n_sites)
        except ValueError as error:
            work = f"C({n_sites + alphabet - 1}, {n_sites})"
            assert str(error) == f"letter multisets: {work} exceeds the cap of {CLASS_CAP}"
            assert over, (alphabet, n_sites)
        else:
            assert not over, (alphabet, n_sites)


def test_multiset_budget_stops_its_product_past_the_cap(monkeypatch):
    # C(10**9 + 99999, 10**9) has about 1.1 million digits; the budget must not form it
    def comb(n, k):
        raise AssertionError(f"C({n}, {k}) formed in full")

    monkeypatch.setattr(math, "comb", comb)
    message = f"letter multisets: C({10**9 + 99_999}, {10**9}) exceeds the cap of {CLASS_CAP}"
    with pytest.raises(ValueError) as error:
        check_search_budget(10**5, 1, 1, 10**9)
    assert str(error.value) == message
