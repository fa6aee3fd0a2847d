"""Exact exhaustive maximization over per-site factor alphabets.

An assignment is a length-N tuple (a_1, ..., a_N) of letters from an
alphabet of size A; its value is

    score(a) = | sum_slots  prod_sites  F[a_i, slot] |**2,

where F[a, slot] = sum_e h[a, slot, e] * alpha**e, e < m, is stored as its
root counts h >= 0.  The product over sites commutes, so the score depends
only on the multiset of letters: ``run_search`` evaluates each of the
C(N+A-1, N) classes (non-decreasing letter tuples) once instead of all
A**N assignments.

The search ranks in floats and decides exactly.  Class products are
complex128 rows, built level by level with each prefix extended only by
letters not below its last letter.  The last level is scored one last
letter at a time, one mat-vec of the prefixes it extends by its factors,
and every score carries one proven rounding bound, set by the mass bound
W = slots * M**N of ``_check_range`` (``_scored_blocks``), which refuses a
space with 2W >= 2**63 before any score is formed.  The band of classes
that may reach the maximum is kept letter by letter (``_band``), and only
the band is resolved exactly, by the package's exact evaluator of given
letter rows (``_class_values``: one batched ``_site_product`` per block,
folded once), then one squared magnitude per distinct value, ordered with
``compare_real_coeffs``.  No command calls ``run_search``: the qutrit
ratio space needs no search (``generalized._diagonal_search`` proves its
maximizers and takes the result from three exact values), the d >= 5
conjecture at N <= 2 has a closed form (``generalized._parseval_search``),
and ``run_search`` stays the oracle of both.

A space scored whole (``full_space_scores``, and full search's ratio
side) is walked once on exact root counts instead (``_multiset_values``):
every multiset's value, each prefix product formed once, in the same level
layout, letter by letter with one circulant gather per letter, under the
same ``_check_range`` guard.  Its mass bound W also picks the walk's dtype:
float64 BLAS, every intermediate an exact integer while 2W < 2**53, else
int64; the values come back as the same int64 integers either way.  A
sorted multiset's position in that layout is the sum of one block offset
per letter, read from ``_level_ends``, so a caller ranks an assignment
from its sorted digits or carries a class's rank as its sites are
assigned.

A class with letter multiplicities m_a stands for N!/prod(m_a!)
assignments, so the tie count is the sum of these multinomials over the
maximizing classes, taken once per distinct multiplicity partition.  The
lexicographically smallest arrangement of a class is its sorted tuple, so
the arg-max is the smallest sorted arrangement among the maximizing
classes.  The reported maximum, tie count and lexicographic arg-min are
exact.

Assignment indices are base-A integers with site 1 as the most significant
digit, so the flat index order is the lexicographic order of assignments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache, partial

import numpy as np

from .cyclotomic import (
    CycInt,
    _UNIT_ROUNDOFF,
    _alpha_powers,
    _check_budget,
    _circulant_index,
    _integer,
    _read_only,
    _root_coeffs,
    _site_count,
    _site_product,
    compare_real_coeffs,
)

__all__ = [
    "ProductSpace",
    "run_search",
    "full_space_scores",
    "resolve_workers",
]

# One search may evaluate CLASS_CAP letter multisets (the d = 5 ratio space up
# to N = 2, the qutrit one up to N = 15) from a ratio factor table of at most
# FACTOR_CAP int64 root counts, A x slots x m (8 MB; d = 5 needs 78,125 and
# d = 7 40.3 million).
CLASS_CAP = 500_000
FACTOR_CAP = 10**6
# Classes per exact block: 2**5 x (N - 1) x slots x m**2 int64 circulants (0.8 MB
# at d = 5, N = 2).  2**5 to 2**10 time alike; 2**10 adds 8 MB to a d = 5 search.
_CLASS_BLOCK = 2**5


@dataclass(frozen=True, eq=False)
class ProductSpace:
    """Search-space description: per-letter slot factors over one ring."""

    order: int
    n_sites: int
    counts: np.ndarray  # read-only (alphabet, slots, order) int64, all >= 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sites", _site_count(self.n_sites))
        counts = np.asarray(self.counts)
        if counts.ndim != 3 or counts.shape[-1] != self.order or (counts < 0).any():
            raise ValueError(f"counts must be non-negative of shape (A, S, {self.order})")
        object.__setattr__(self, "counts", _read_only(counts, np.int64))

    @property
    def alphabet(self) -> int:
        return self.counts.shape[0]

    @property
    def slots(self) -> int:
        return self.counts.shape[1]

    @property
    def factors(self) -> tuple[tuple[CycInt, ...], ...]:
        """The factors as ``CycInt`` rows, derived on every read (for oracles)."""
        rows = (self.counts @ _root_coeffs(self.order)).tolist()
        return tuple(tuple(CycInt(self.order, tuple(c)) for c in row) for row in rows)

    @property
    def size(self) -> int:
        return self.alphabet**self.n_sites


@dataclass(frozen=True)
class RawSearchResult:
    best_sq_coeffs: tuple[int, ...]  # canonical coeffs of |sum of products|**2
    best_sq_value: float
    num_maximizers: int
    argmax_index: int
    assignments_scanned: int


def resolve_workers(workers: int | None = None) -> int:
    """Check a ``--workers`` value (None or at least 1); return the effective count, 1.

    Every search and scan runs in one process, so the value never changes the work.
    """
    if workers is not None and workers < 1:
        raise ValueError("worker count must be at least 1")
    return 1


def check_search_budget(alphabet: int, slots: int, order: int, n_sites: int) -> None:
    """Check N and sizes >= 1, then refuse an over-budget space; call it before building factors."""
    n_sites = _site_count(n_sites)
    dims = [_integer(size, "table sizes") for size in (alphabet, slots, order)]
    if min(dims) < 1:
        raise ValueError(f"alphabet, slots and order must be at least 1, got {dims}")
    work = " x ".join(map(str, dims))
    _check_budget("ratio factor table", FACTOR_CAP, math.prod(dims), work=work)
    _check_multisets(dims[0], n_sites)


def _check_multisets(alphabet: int, n_sites: int) -> None:
    """Refuse more than CLASS_CAP "letter multisets" C(N+A-1, N) of N letters from A >= 1.

    With n = N + A - 1, C(n, N) = C(n, A - 1) and C(n, i) grows with i up to
    n/2, so the product C(n, i) = C(n, i - 1) * (n - i + 1) / i over
    i <= min(N, A - 1) stops once it passes the cap, after at most
    cap.bit_length() steps (C(n, i) >= 2**i there), without forming C(n, N).
    """
    n, classes = n_sites + alphabet - 1, 1
    for i in range(1, min(n_sites, alphabet - 1) + 1):
        classes = classes * (n - i + 1) // i
        if classes > CLASS_CAP:
            break
    _check_budget("letter multisets", CLASS_CAP, classes, work=f"C({n}, {n_sites})")


def _check_range(space: ProductSpace) -> int:
    """The ranking's mass bound W = slots * M**N; raise OverflowError if 2W >= 2**63.

    M is the largest mass (sum of counts) of a factor, so by the range rule
    of ``_site_product`` every class value v has |v| <= W, and so do its
    canonical coefficients.  The guard (a factor 2 to spare) keeps those
    coefficients in int64 and every float of the ranking finite.
    """
    counts = space.counts  # int64 row sums are exact while every count < 2**63 // m
    wide = counts.max() >= 2**63 // space.order
    mass = int((counts.astype(object) if wide else counts).sum(axis=-1).max())
    bound = space.slots * mass**space.n_sites
    if 2 * bound >= 2**63:
        raise OverflowError("product coefficients may exceed the exact int64 range")
    return bound


@lru_cache(maxsize=8)  # a full search and a ratio search read 2 layouts each
def _level_ends(alphabet: int, n_sites: int) -> tuple[np.ndarray, ...]:
    """``ends[t][b]``: the number of t-letter classes with last letter at most b.

    Classes of length t are stored in blocks by last letter b; block b
    extends, by b, the first ends[t-1][b] classes of length t-1, which are
    exactly those whose last letter is at most b (ends[0]: the empty class).
    Every producer of ranks and the decoder read this layout, so it is
    cached, as read-only arrays.
    """
    ends = [np.ones(alphabet, dtype=np.int64)]
    for _ in range(n_sites - 1):
        ends.append(np.cumsum(ends[-1]))
    return tuple(_read_only(e, np.int64) for e in ends)


def _float_prefixes(
    space: ProductSpace, ends: tuple[np.ndarray, ...]
) -> tuple[float, np.ndarray, np.ndarray]:
    """The ranking's inputs: the score bound, the factors and the prefixes.

    Returns (B, F^, P^): B as proven in ``_scored_blocks``, the (A, S)
    complex factors, and the float products of every (N-1)-letter prefix in
    the layout ``ends`` of ``_level_ends`` (N = 1: the one empty prefix, all
    ones).
    """
    m, slots, n_sites = space.order, space.slots, space.n_sites
    u = _UNIT_ROUNDOFF
    mass_bound = float(_check_range(space))
    k = math.expm1(
        n_sites * math.log1p((3 * m + 51) * u)
        + (n_sites - 1) * math.log1p(4 * u)
        + math.log1p(4 * (slots + 2) * u)
    )
    bound = 2.0 * mass_bound**2 * (k * (2.0 + k) + 3.0 * u * (1.0 + k) ** 2)
    fhat = space.counts @ np.array(_alpha_powers(m))
    # prefixes of one letter are the factors themselves; N = 1 has the empty one
    p = fhat if n_sites > 1 else np.ones((1, slots))
    for t in range(2, n_sites):
        p = np.concatenate([p[:n] * fhat[b] for b, n in enumerate(ends[t - 1].tolist())])
    return bound, fhat, p


def _scored_blocks(space: ProductSpace):
    """Yield (b, lower, upper) for the N-letter classes ending in letter b, for every b.

    ``lower`` and ``upper`` hold one entry per prefix that block b extends,
    the first ends[-1][b] in the order of ``_level_ends``: entry j is the
    class that extends prefix j by letter b, scored by one mat-vec of those
    prefixes by b's factors.  That class has exact score s = |v|**2,
    v = sum_s prod_i F[a_i, s], within [lower, upper]: the float score s^
    minus and plus one proven bound B for every class, set by the mass
    bound W of ``_check_range``.

    Proof of the bound.  Write u = 2**-53 and M for the largest factor
    mass.  (1) A factor F = sum_e h_e alpha**e of mass mu <= M is stored as
    F^ = fl(sum_e h_e alpha^_e), each of the m stored powers within 46u of
    alpha**e (real and imaginary parts within 32u, as in
    ``compare_real_coeffs``); converting h_e and the complex dot product of
    m terms, in any order and with or without FMA, add at most
    3 * (m + 1) * u * mu, so |F^ - F| <= e * mu with e = (3*m + 51) * u.
    (2) Telescoping over the N factors of a slot, with |F| <= M and
    |F^| <= (1 + e) * M, |prod F^ - prod F| <= ((1 + e)**N - 1) * M**N.
    (3) The float prefix of N - 1 factors rounds N - 2 complex products,
    each with relative error at most 4u.  The last level's matmul entry
    (r, j) is the complex dot product of prefix j with factor b over the
    slots; in any summation order and with or without FMA it adds at most
    4 * (slots + 2) * u times sum_s |p^_s| |F^_bs|; so with
    k = (1 + e)**N * (1 + 4u)**(N-1) * (1 + 4 * (slots + 2) * u) - 1 the
    float sum v^ is within k * W of v, |v| <= W and |v^| <= (1 + k) * W.
    (4) s^ = fl(Re**2 + Im**2) is within 3u |v^|**2 of |v^|**2, and
    ||v^|**2 - s| <= k * W * (|v^| + |v|), so
    |s^ - s| <= W**2 * (k * (2 + k) + 3u * (1 + k)**2).  The bound B used
    is twice this one, which covers the roundings that compute it and
    those of s^ - B and s^ + B in the band test.
    """
    levels = _level_ends(space.alphabet, space.n_sites)
    bound, fhat, p = _float_prefixes(space, levels)
    for b, n in enumerate(levels[-1].tolist()):  # block b extends the first n prefixes
        v = p[:n] @ fhat[b]
        scores = v.real * v.real + v.imag * v.imag
        yield b, scores - bound, scores + bound


def _class_letters(ends: tuple[np.ndarray, ...], ranks: np.ndarray) -> np.ndarray:
    """(K, N) sorted letters of the classes at ``ranks``, ends = ``_level_ends(A, N + 1)``."""
    letters = []
    for t in range(len(ends) - 1, 0, -1):
        # the class at ``ranks`` of length t sits in the block of its last letter c
        c = np.searchsorted(ends[t], ranks, side="right")
        ranks = ranks - (ends[t][c] - ends[t - 1][c])
        letters.append(c)
    return np.stack(letters[::-1], axis=1)


def _class_values(counts: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """(K, phi) canonical coefficients of sum_s prod_i F[letters[k, i], s].

    The exact evaluator of given rows, over (A, S, m) root counts: one batched
    ``_site_product`` per block of ``_CLASS_BLOCK`` classes, summed over the
    slots and folded, in the dtype it picked (int64 or Python integers).
    """
    fold = _root_coeffs(counts.shape[-1])
    blocks = [
        _site_product(counts[letters[start : start + _CLASS_BLOCK]]).sum(axis=-2) @ fold
        for start in range(0, len(letters), _CLASS_BLOCK)
    ]
    return np.concatenate(blocks)


def _class_tally(letters: np.ndarray, alphabet: int) -> tuple[int, int]:
    """Assignments the (K >= 1, N) sorted classes stand for, and the least flat index.

    A class with letter multiplicities m_a stands for N!/prod(m_a!)
    assignments.  prod(m_a!) is the product of each letter's position in its
    run of equal letters (1, 2, ..., m_a), so the sorted positions key the
    multiplicity partition; the multinomials are summed as Python integers
    once per distinct partition, exact for every N.  The lexicographically
    smallest arrangement of a class is its sorted tuple, so the least index
    is that of the lexicographically first row.
    """
    sites = np.arange(letters.shape[1])
    starts = np.ones(letters.shape, dtype=bool)
    starts[:, 1:] = letters[:, 1:] != letters[:, :-1]
    run_start = np.maximum.accumulate(np.where(starts, sites, 0), axis=1)
    keys = np.sort(sites - run_start + 1, axis=1)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, at, repeats = np.unique(rows, return_index=True, return_counts=True)
    n_fact = math.factorial(letters.shape[1])
    count = sum(
        r * (n_fact // math.prod(key)) for key, r in zip(keys[at].tolist(), repeats.tolist())
    )
    first = np.lexsort(letters.T[::-1])[0]
    return count, encode_index(letters[first].tolist(), alphabet)


def _band(space: ProductSpace) -> np.ndarray:
    """Ranks of the classes whose score interval reaches the floor, ascending.

    The floor is the largest lower bound of ``_scored_blocks``, so the band
    holds every maximizer.  Each letter keeps the classes whose upper bound
    reaches the floor so far, which only grows, and one last pass re-filters
    with the final floor.  A class's rank is its block's first rank plus its
    prefix's rank, so the ranks ascend.
    """
    ends = _level_ends(space.alphabet, space.n_sites + 1)
    first = ends[-1] - ends[-2]  # block b's first rank
    floor = -np.inf
    band = []
    for b, lower, upper in _scored_blocks(space):
        floor = max(floor, float(lower.max()))
        kept = np.flatnonzero(upper >= floor)
        band.append((first[b] + kept, upper[kept]))
    ranks, upper = (np.concatenate(column) for column in zip(*band))
    return ranks[upper >= floor]


def run_search(space: ProductSpace) -> RawSearchResult:
    """Exact maximum over all A**N assignments, one exact value per class of the band."""
    order, a_size = space.order, space.alphabet
    letters = _class_letters(_level_ends(a_size, space.n_sites + 1), _band(space))
    values = [tuple(row) for row in _class_values(space.counts, letters).tolist()]
    exact = {value: CycInt(order, value) for value in set(values)}
    squares = {value: (v * v.conjugate()).coeffs for value, v in exact.items()}
    best_sq = max(squares.values(), key=cmp_to_key(partial(compare_real_coeffs, order)))
    count, argmin = _class_tally(letters[[squares[v] == best_sq for v in values]], a_size)
    return RawSearchResult(
        best_sq_coeffs=best_sq,
        best_sq_value=_real_float(order, best_sq),
        num_maximizers=count,
        argmax_index=argmin,
        assignments_scanned=space.size,
    )


def _real_float(order: int, coeffs) -> float:
    """The float of a real value given by canonical coeffs: sum_j c_j * cos(2*pi*j/m)."""
    powers = _alpha_powers(order)
    return float(sum(c * powers[j].real for j, c in enumerate(coeffs) if c))


def _multiset_values(space: ProductSpace) -> np.ndarray:
    """(K, phi) int64 canonical values of all K = C(N+A-1, N) letter multisets.

    The classes are walked in the layout of ``_level_ends``, letter by
    letter, into preallocated (K_t, S, m) level arrays; level 1 holds the
    letters themselves.  Letter b's (S, m, m) circulant (``_circulant_index``)
    is gathered once, and at every level t >= 2 block b is the first
    ends[t-1][b] classes of level t - 1 times that circulant, one matmul.
    Those classes end in letters up to b, so they are all formed by then,
    and each prefix product is formed once and shared by every class that
    extends it.  The last level takes one matmul per block, of its prefixes'
    S * m counts by the circulant folded by ``_root_coeffs``, which sums the
    slots and folds at once.

    Range.  ``_check_range`` runs before any product and returns the mass
    bound W = S * M**N.  Counts are non-negative, so every product and
    partial sum of a level's matmul is at most its final entry, a count of a
    t-letter product, at most M**t.  Entry (s, e, j) of the folded circulant
    folds row e of a slot of mass mu_s <= M by entries 0 or +-1, so each of
    its partial sums is at most mu_s in magnitude, and each partial sum of
    the last matmul is at most sum_s mu_s * M**(N-1) <= W.  2W < 2**63 keeps
    all of them in int64, and 2W < 2**53 makes each an integer that float64
    holds exactly, in any summation order and with or without FMA: the walk
    then runs on float64 BLAS, and its values cast back to the same int64.
    """
    dtype = np.float64 if 2 * _check_range(space) < 2**53 else np.int64
    counts, m, slots = space.counts, space.order, space.slots
    index = _circulant_index(m)
    *inner, last = (e.tolist() for e in _level_ends(space.alphabet, space.n_sites))
    # levels[t]: (K_t, S, m) counts of the t-letter classes; level 0, the empty
    # class, is read at N = 1 only
    levels = [np.zeros((1, slots, m), dtype), counts.astype(dtype)][: len(inner) + 1]
    levels[0][..., 0] = 1
    levels += [np.empty((sum(sizes), slots, m), dtype) for sizes in inner[1:]]
    fold = _root_coeffs(m).astype(dtype)
    values = np.empty((sum(last), fold.shape[1]), np.int64)
    # block b of a level extends sizes[b] classes and starts after the blocks before it
    starts = [list(itertools.accumulate(sizes, initial=0)) for sizes in (*inner, last)]
    for b in range(space.alphabet):
        circulant = counts[b].astype(dtype)[:, index]
        for t in range(1, len(inner)):
            start, k = starts[t][b], inner[t][b]
            out = levels[t + 1][start : start + k].transpose(1, 0, 2)
            np.matmul(levels[t][:k].transpose(1, 0, 2), circulant, out=out)
        start, k = starts[-1][b], last[b]
        folded = (circulant @ fold).reshape(slots * m, -1)
        values[start : start + k] = levels[-1][:k].reshape(k, -1) @ folded
    return values


def _multiset_scores(values: np.ndarray, order: int) -> np.ndarray:
    """Float |v|**2 of (K, phi) exact canonical values over order m, as of ``_multiset_values``."""
    values = values.astype(np.float64)
    vals = values @ np.array(_alpha_powers(order)[: values.shape[1]])
    return vals.real * vals.real + vals.imag * vals.imag


def full_space_scores(space: ProductSpace) -> np.ndarray:
    """Float |sum of products|**2 for every index, at most 10**6 of them (small spaces only).

    ``_multiset_scores`` gathered at each index's class.  An index's sorted
    digits d_1 <= ... <= d_N rank its class in the layout of
    ``_level_ends``: with ends = ``_level_ends(A, N + 1)``, the class of
    length t sits at the offset ends[t][d_t] - ends[t-1][d_t] of block d_t
    plus the rank of its prefix, so the rank is the sum of the N block
    offsets.
    """
    _check_budget("full score table", 10**6, space.alphabet, space.n_sites)
    a_size, n_sites = space.alphabet, space.n_sites
    digits = np.indices((a_size,) * n_sites, dtype=np.min_scalar_type(a_size - 1))
    digits = np.sort(digits.reshape(n_sites, -1), axis=0)
    ends = _level_ends(a_size, n_sites + 1)
    rank = np.zeros(space.size, dtype=np.intp)
    for lower, upper, column in zip(ends, ends[1:], digits):
        rank += (upper - lower)[column]
    return _multiset_scores(_multiset_values(space), space.order)[rank]


def decode_index(index: int, alphabet: int, n_sites: int) -> tuple[int, ...]:
    """Digits of a flat assignment index in [0, alphabet**n_sites), site 1 first."""
    index, n_sites = _integer(index, "assignment indices"), _site_count(n_sites)
    if not 0 <= index < alphabet**n_sites:
        raise ValueError(f"index {index} is outside [0, {alphabet}**{n_sites})")
    digits = []
    for _ in range(n_sites):
        index, digit = divmod(index, alphabet)
        digits.append(digit)
    return tuple(reversed(digits))


def encode_index(digits, base: int) -> int:
    """Flat index of base-``base`` digits, site 1 first; ``decode_index`` inverts it."""
    index = 0
    for digit in digits:
        index = index * base + digit
    return index
