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
letters not below its last letter, and a real row of magnitude bounds rides
alongside.  The last level is scored one block per last letter with one
mat-vec, and every score carries a proven rounding bound
(``_scored_blocks``).  Only the band of classes that may reach the maximum
is resolved exactly, by the multiset evaluator that ``full_space_scores``
shares (``_class_values``: one batched ``_site_product`` of the counts per
block, folded once), then one squared magnitude per distinct value, ordered
with ``compare_real_coeffs``.  One guard (``_check_range``), checked before
any work, keeps every int64 value exact and every float finite.

A class with letter multiplicities m_a stands for N!/prod(m_a!)
assignments, so the tie count is the sum of these multinomials over the
maximizing classes.  The lexicographically smallest arrangement of a class
is its sorted tuple, so the arg-max is the smallest sorted arrangement
among the maximizing classes.  The reported maximum, tie count and
lexicographic arg-min are exact.

Assignment indices are base-A integers with site 1 as the most significant
digit, so the flat index order is the lexicographic order of assignments.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key, partial

import numpy as np

from .cyclotomic import (
    CycInt,
    _UNIT_ROUNDOFF,
    _alpha_powers,
    _read_only,
    _root_coeffs,
    _site_product,
    compare_real_coeffs,
)

__all__ = [
    "ProductSpace",
    "RawSearchResult",
    "run_search",
    "full_space_scores",
    "exact_sum",
    "exact_letters_sum",
    "resolve_workers",
    "check_search_budget",
]

# One search may evaluate CLASS_CAP letter multisets (the qutrit ratio space
# up to N = 15) from a factor table of at most FACTOR_CAP int64 root counts,
# A x slots x m (8 MB; d = 5 needs 78,125 and d = 7 40.3 million).
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
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        counts = _read_only(self.counts, np.int64)
        if counts.ndim != 3 or counts.shape[-1] != self.order or (counts < 0).any():
            raise ValueError(f"counts must be non-negative of shape (A, S, {self.order})")
        object.__setattr__(self, "counts", counts)

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
    """Raise ValueError for an over-budget space; call it before building factors."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    entries = alphabet * slots * order
    if entries > FACTOR_CAP:
        raise ValueError(
            f"factor table of {alphabet} x {slots} x {order} = {entries} "
            f"root counts exceeds the cap of {FACTOR_CAP}"
        )
    if math.comb(n_sites + alphabet - 1, n_sites) > CLASS_CAP:
        raise ValueError(
            f"the C({n_sites}+{alphabet - 1}, {n_sites}) multisets of {n_sites} "
            f"letters from {alphabet} exceed the cap of {CLASS_CAP}"
        )


def _check_range(space: ProductSpace) -> None:
    """The one range guard: raise OverflowError before any product is formed.

    Let M be the largest mass (sum of counts) of a factor.  By the range
    rule of ``_site_product``, each entry and partial sum of a block's
    chain, of its sum over the slots and of the fold is at most
    slots * M**N.  So 2 * slots * M**N < 2**63 (a factor 2 to spare) keeps
    the chain in int64 and exact, and every float of the ranking finite.
    """
    counts = space.counts  # int64 row sums are exact while every count < 2**63 // m
    wide = counts.max() >= 2**63 // space.order
    mass = int((counts.astype(object) if wide else counts).sum(axis=-1).max())
    if 2 * space.slots * mass**space.n_sites >= 2**63:
        raise OverflowError("product coefficients may exceed the exact int64 range")


def _level_ends(alphabet: int, n_sites: int) -> list[np.ndarray]:
    """``ends[t][b]``: the number of t-letter classes with last letter at most b.

    Classes of length t are stored in blocks by last letter b; block b
    extends, by b, the first ends[t-1][b] classes of length t-1, which are
    exactly those whose last letter is at most b (ends[0]: the empty class).
    """
    ends = [np.ones(alphabet, dtype=np.int64)]
    for _ in range(n_sites - 1):
        ends.append(np.cumsum(ends[-1]))
    return ends


def _scored_blocks(space: ProductSpace):
    """Yield (b, lower, upper) for the N-letter classes ending in letter b.

    The class that extends prefix k (in the order of ``_level_ends``) by b
    has exact score s = |v|**2, v = sum_s prod_i F[a_i, s], within
    [lower[k], upper[k]]: the float score s^ minus and plus a proven bound.

    Proof of the bound.  Write u = 2**-53 and M_F for a factor's mass, the
    sum of its counts h_e >= 0.  (1) Factors: F^ = fl(sum_e h_e alpha^_e),
    with each of the m stored powers within 46u of alpha**e (real and
    imaginary parts within 32u, as in ``compare_real_coeffs``); converting
    h_e and the complex dot product of m terms, in any order and with or
    without FMA, add at most 3 * (m + 1) * u * M_F, so |F^ - F| <= e_F / 2
    with e_F = 2 * (3*m + 51) * u * M_F, the bound the code uses.  A factor
    with no counts has F^ = 0 exactly.
    (2) Put M = |F^| + e_F (M = 0 for a factor with no counts), which
    bounds both |F| and |F^|, and rho = max e_F / M <= 1 over the others.
    Telescoping, |prod F - prod F^| <= sum_k e_k prod_{i != k} M_i
    <= N * rho * prod M.  (3) A complex product rounds with relative error
    at most mu = 4u, so the float prefix of N - 1 factors is within
    ((1+mu)**(N-2) - 1) * prod |F^| of the exact product of the F^, and the
    last-level mat-vec over the slots, a complex dot product, adds at most
    nu = 4 * (slots + 2) * u times sum_s |p^_s| |F^_bs|.  So with
    G = sum_s prod_i M(a_i, s) and k0 = (1+nu) * (1+mu)**(N-1) - 1, the
    float sum v^ is within delta = (k0 + N * rho) * G of v, and
    |v^| <= (1 + k0) * G.  (4) s^ = fl(Re^2 + Im^2) is within 3u |v^|**2
    of |v^|**2, and ||v^|**2 - s| <= delta * (2|v^| + delta), so with
    kappa = k0 + N * rho,
    |s^ - s| <= (1 + k0)**2 * G**2 * (kappa * (2 + kappa) + 3u).
    Each quantity here is computed with at most 4N + 2 * slots + 20
    roundings of nonnegative numbers, and the bound used is twice this one,
    which covers those roundings and the rounding of s^ - bound and
    s^ + bound in the band test.
    """
    m, counts = space.order, space.counts
    slots, n_sites = space.slots, space.n_sites
    u = _UNIT_ROUNDOFF
    fhat = counts @ np.array(_alpha_powers(m))
    err = (2 * (3 * m + 51) * u) * counts.sum(axis=-1)
    nonzero = counts.any(axis=-1)
    mags = np.where(nonzero, np.abs(fhat) + err, 0.0)
    k0 = math.expm1((n_sites - 1) * math.log1p(4 * u) + math.log1p(4 * (slots + 2) * u))
    kappa = k0 + n_sites * float((err / np.where(nonzero, mags, 1.0)).max())
    scale = 2.0 * (1.0 + k0) ** 2 * (kappa * (2.0 + kappa) + 3.0 * u)
    ends = _level_ends(space.alphabet, n_sites)
    # prefixes of one letter are the factors themselves; N = 1 has the empty one
    p, g = (fhat, mags) if n_sites > 1 else (np.ones((1, slots)), np.ones((1, slots)))
    for t in range(2, n_sites):
        p = np.concatenate([p[:n] * fhat[b] for b, n in enumerate(ends[t - 1].tolist())])
        g = np.concatenate([g[:n] * mags[b] for b, n in enumerate(ends[t - 1].tolist())])
    for b, n in enumerate(ends[-1].tolist()):
        v = p[:n] @ fhat[b]
        scores = v.real * v.real + v.imag * v.imag
        bounds = g[:n] @ mags[b]
        bounds *= scale * bounds
        yield b, scores - bounds, scores + bounds


def _class_letters(ends: list[np.ndarray], last: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """(K, N) sorted letters of the classes that extend ``parents`` by ``last``."""
    letters = [last]
    for t in range(len(ends) - 1, 0, -1):
        # class ``parent`` of length t sits in the block of its last letter c
        c = np.searchsorted(ends[t], parents, side="right")
        parents = parents - (ends[t][c] - ends[t - 1][c])
        letters.append(c)
    return np.stack(letters[::-1], axis=1)


def _class_values(space: ProductSpace, letters: np.ndarray) -> np.ndarray:
    """(K, phi) canonical coefficients of sum_s prod_i F[letters[k, i], s].

    One batched ``_site_product`` per block of ``_CLASS_BLOCK`` classes,
    summed over the slots and folded once.
    """
    fold = _root_coeffs(space.order)
    values = np.empty((len(letters), fold.shape[1]), dtype=np.int64)
    for start in range(0, len(letters), _CLASS_BLOCK):
        products = _site_product(space.counts[letters[start : start + _CLASS_BLOCK]])
        values[start : start + len(products)] = products.sum(axis=-2) @ fold
    return values


def run_search(space: ProductSpace) -> RawSearchResult:
    """Exact maximum over all A**N assignments, one evaluation per class."""
    _check_range(space)
    order, a_size, n_sites = space.order, space.alphabet, space.n_sites
    # A class is kept while its upper bound reaches the floor, the largest
    # lower bound seen so far; the floor only grows, so the kept set holds
    # every maximizer, and one last pass re-filters with the final floor.
    floor = -np.inf
    band = []
    for b, lower, upper in _scored_blocks(space):
        floor = max(floor, float(lower.max()))
        keep = np.nonzero(upper >= floor)[0]
        band.append((b, keep, upper[keep]))
    last, parents, upper = zip(*band)
    last = np.repeat(last, [len(k) for k in parents])
    parents, upper = np.concatenate(parents), np.concatenate(upper)
    final = upper >= floor
    letters = _class_letters(
        _level_ends(a_size, n_sites), last[final], parents[final]
    )
    values = _class_values(space, letters)
    distinct, which = np.unique(values, axis=0, return_inverse=True)
    exact = [CycInt(order, tuple(row)) for row in distinct.tolist()]
    squares = [(value * value.conjugate()).coeffs for value in exact]
    best_sq = max(squares, key=cmp_to_key(partial(compare_real_coeffs, order)))
    n_fact = math.factorial(n_sites)
    count, argmin = 0, None
    for row, k in zip(letters.tolist(), which.ravel().tolist()):
        if squares[k] != best_sq:
            continue
        count += n_fact // math.prod(math.factorial(c) for c in Counter(row).values())
        flat = 0
        for a in row:
            flat = flat * a_size + a
        argmin = flat if argmin is None else min(argmin, flat)
    powers_list = _alpha_powers(order)
    best_value = sum(c * powers_list[j].real for j, c in enumerate(best_sq) if c)
    return RawSearchResult(
        best_sq_coeffs=best_sq,
        best_sq_value=float(best_value),
        num_maximizers=count,
        argmax_index=argmin,
        assignments_scanned=space.size,
    )


def full_space_scores(space: ProductSpace) -> np.ndarray:
    """Float |sum of products|**2 for every index (small spaces only).

    Each index is scored through its letter multiset: the exact value at
    the sorted index of each multiset (``_class_values``), converted to
    float and gathered back to every index that sorts to it.
    """
    if space.size > 1_000_000:
        raise ValueError("full score table is limited to 1e6 assignments")
    _check_range(space)
    shape = (space.alphabet,) * space.n_sites
    digits = np.indices(shape).reshape(space.n_sites, -1)
    sorted_at = np.ravel_multi_index(np.sort(digits, axis=0), shape)
    reps = np.flatnonzero(sorted_at == np.arange(space.size))  # the sorted indices
    values = _class_values(space, digits[:, reps].T).astype(np.float64)
    vals = values @ np.array(_alpha_powers(space.order)[: values.shape[1]])
    which = np.searchsorted(reps, sorted_at)
    return (vals.real * vals.real + vals.imag * vals.imag)[which]


def exact_sum(space: ProductSpace, index: int) -> CycInt:
    """Pure-Python evaluation of the slot-product sum at one flat index."""
    digits = decode_index(index, space.alphabet, space.n_sites)
    sites = ProductSpace(space.order, space.n_sites, space.counts[list(digits)])
    return exact_letters_sum(space.order, sites.factors, range(space.n_sites))


def exact_letters_sum(order: int, factors, letters) -> CycInt:
    """sum_s prod_i factors[letters[i]][s], one ``CycInt`` product per site."""
    total = CycInt.zero(order)
    for s in range(len(factors[0])):
        prod = CycInt.one(order)
        for a in letters:
            prod = prod * factors[a][s]
        total = total + prod
    return total


def decode_index(index: int, alphabet: int, n_sites: int) -> tuple[int, ...]:
    """Digits of a flat assignment index in [0, alphabet**n_sites), site 1 first."""
    if not 0 <= index < alphabet**n_sites:
        raise ValueError(f"index {index} is outside [0, {alphabet}**{n_sites})")
    digits = []
    for _ in range(n_sites):
        index, digit = divmod(index, alphabet)
        digits.append(digit)
    return tuple(reversed(digits))
