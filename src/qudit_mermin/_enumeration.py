"""Exact exhaustive maximization over per-site factor alphabets.

An assignment is a length-N tuple (a_1, ..., a_N) of letters from an
alphabet of size A; its value is

    score(a) = | sum_slots  prod_sites  F[a_i, slot] |**2,

where every F[a, slot] is a cyclotomic integer.  The product over sites
commutes, so the score depends only on the multiset of letters:
``run_search`` evaluates each of the C(N+A-1, N) classes (non-decreasing
letter tuples) once instead of all A**N assignments.  Class products are
built level by level, each prefix extended only by letters not below its
last letter, and carried as exact int64 coefficient vectors
(multiplication by a fixed factor is a linear map on coefficients).  A
float shadow ranks the classes, and every near-tie is settled with exact
coefficient arithmetic.

A class with letter multiplicities m_a stands for N!/prod(m_a!)
assignments, so the tie count is the sum of these multinomials over the
maximizing classes.  The lexicographically smallest arrangement of a class
is its sorted tuple, so the arg-max is the smallest sorted arrangement
among the maximizing classes.  The reported maximum, tie count and
lexicographic arg-min are exact and do not depend on any worker count.

Assignment indices are base-A integers with site 1 as the most significant
digit, so the flat index order is the lexicographic order of assignments.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cyclotomic import (
    CycInt,
    _alpha_powers,
    _root_coeffs,
    compare_real_coeffs,
    order_params,
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

_BAND_REL = 1e-6
_COEFF_LIMIT = 2**52

# One search may evaluate CLASS_CAP letter multisets (the qutrit ratio space
# up to N = 15) after building a (A, slots, phi, phi) multiplication table of
# TABLE_CAP int64 entries (80 MB; d = 5 needs 1.25e6 and d = 7 1.45e9).
CLASS_CAP = 500_000
TABLE_CAP = 10**7

WORKERS_ENV_VAR = "QUDIT_MERMIN_WORKERS"


@dataclass(frozen=True)
class ProductSpace:
    """Search-space description: per-letter slot factors over one ring."""

    order: int
    n_sites: int
    factors: tuple[tuple[CycInt, ...], ...]  # (alphabet, slots)

    @property
    def alphabet(self) -> int:
        return len(self.factors)

    @property
    def slots(self) -> int:
        return len(self.factors[0])

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
    """Worker count: explicit value, else env override, else CPU count."""
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValueError("worker count must be at least 1")
        return workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def check_search_budget(alphabet: int, slots: int, order: int, n_sites: int) -> None:
    """Raise ValueError for an over-budget space; call it before building factors."""
    _, phi = order_params(order)
    entries = alphabet * slots * phi * phi
    if entries > TABLE_CAP:
        raise ValueError(
            f"multiplication table of {alphabet} x {slots} x {phi}**2 = {entries} "
            f"int64 entries exceeds the cap of {TABLE_CAP}"
        )
    if math.comb(n_sites + alphabet - 1, n_sites) > CLASS_CAP:
        raise ValueError(
            f"the C({n_sites}+{alphabet - 1}, {n_sites}) multisets of {n_sites} "
            f"letters from {alphabet} exceed the cap of {CLASS_CAP}"
        )


def _mult_matrix(factor: CycInt, phi: int) -> np.ndarray:
    """Multiplication-by-``factor`` matrix, one ``times_root`` per column.

    Reference for the vectorized ``_tables``.
    """
    cols = [factor.times_root(j).coeffs for j in range(phi)]
    return np.array(cols, dtype=np.int64).T


def _shift_matrices(m: int) -> np.ndarray:
    """``shifts[k]``: the matrix of multiplication by alpha**k, k < phi(m)."""
    _, phi = order_params(m)
    k = np.arange(phi)
    # column j of shifts[k] holds alpha**(k + j), folded mod m (2*phi - 2 >= m)
    return _root_coeffs(m)[np.add.outer(k, k) % m].transpose(0, 2, 1)


def _tables(space: ProductSpace):
    """Exact multiplication matrices ``mats[a, s]`` and the float powers of alpha."""
    coeffs = np.array(
        [[f.coeffs for f in row] for row in space.factors], dtype=np.int64
    )
    mats = np.einsum("ask,kij->asij", coeffs, _shift_matrices(space.order))
    powers = np.array(_alpha_powers(space.order), dtype=np.complex128)
    return mats, powers


def _unit_products(space: ProductSpace) -> np.ndarray:
    """The empty product (1 = alpha**0 in every slot), shaped (1, slots, phi)."""
    return np.tile(_root_coeffs(space.order)[0], (1, space.slots, 1))


def _checked(p: np.ndarray, l1: int = 1) -> np.ndarray:
    """Raise OverflowError unless max|p| < 2**52 and max|p| * l1 < 2**63.

    With ``l1`` the largest L1 norm of a row of the letter matrices, the
    second bound covers every partial sum of the next matmul of ``p``.
    """
    if p.size:
        peak = int(np.abs(p).max())
        if peak >= _COEFF_LIMIT or peak * l1 >= 2**63:
            raise OverflowError("product coefficients exceeded the exact int64 range")
    return p


def _extend(mat: np.ndarray, p: np.ndarray, l1: int = 1) -> np.ndarray:
    """Multiply each (K, slots, phi) slot product by one letter's factors."""
    out = np.matmul(p.transpose(1, 0, 2), mat.transpose(0, 2, 1))
    return _checked(out.transpose(1, 0, 2), l1)


def _scores(v: np.ndarray, powers: np.ndarray) -> np.ndarray:
    vals = v.astype(np.float64) @ powers
    return vals.real * vals.real + vals.imag * vals.imag


def _class_letters(ends: list[np.ndarray], last: int, parent: int) -> list[int]:
    """Sorted letters of the final-level class ``parent`` extended by ``last``."""
    letters = [last]
    for t in range(len(ends) - 1, 0, -1):
        # class ``parent`` of length t sits in the block of its last letter c
        c = int(np.searchsorted(ends[t], parent, side="right"))
        parent -= int(ends[t][c] - ends[t - 1][c])
        letters.append(c)
    letters.reverse()
    return letters


def run_search(space: ProductSpace) -> RawSearchResult:
    """Exact maximum over all A**N assignments, one evaluation per class."""
    mats, powers = _tables(space)
    l1 = max(int(np.abs(mat).sum(axis=-1).max()) for mat in mats)
    a_size, n_sites = space.alphabet, space.n_sites
    # Classes of length t are stored in blocks by last letter b; block b
    # extends, by b, the first ends[t-1][b] classes of length t-1, which are
    # exactly those whose last letter is at most b (ends[0]: the empty class).
    ends = [np.ones(a_size, dtype=np.int64)]
    p = _unit_products(space)
    for _ in range(n_sites - 1):
        p = np.concatenate(
            [_extend(mats[b], p[: ends[-1][b]], l1) for b in range(a_size)]
        )
        ends.append(np.cumsum(ends[-1]))
    # The last level is streamed one block at a time; only the float band
    # around the running maximum is kept.
    best = -np.inf
    blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
    for b in range(a_size):
        v = _extend(mats[b], p[: ends[-1][b]]).sum(axis=1)
        scores = _scores(v, powers)
        best = max(best, float(scores.max()))
        keep = np.nonzero(scores >= best - _BAND_REL * max(1.0, best))[0]
        if keep.size:
            blocks.append((b, keep, v[keep]))
    floor = best - _BAND_REL * max(1.0, best)
    # Exact resolution of the candidate band.
    n_fact = math.factorial(n_sites)
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, parents, rows in blocks:
        keep = _scores(rows, powers) >= floor
        for parent, row in zip(parents[keep].tolist(), rows[keep]):
            value = CycInt(space.order, tuple(row.tolist()))
            sq = (value * value.conjugate()).coeffs
            letters = _class_letters(ends, b, parent)
            count = n_fact // math.prod(
                math.factorial(m) for m in Counter(letters).values()
            )
            flat = 0
            for a in letters:
                flat = flat * a_size + a
            entry = groups.get(sq)
            if entry is None:
                groups[sq] = [count, flat]
            else:
                entry[0] += count
                entry[1] = min(entry[1], flat)
    best_sq = None
    for sq in groups:
        if best_sq is None or compare_real_coeffs(space.order, sq, best_sq) > 0:
            best_sq = sq
    count, argmin = groups[best_sq]
    powers_list = _alpha_powers(space.order)
    best_value = sum(
        c * powers_list[j].real for j, c in enumerate(best_sq) if c
    )
    return RawSearchResult(
        best_sq_coeffs=best_sq,
        best_sq_value=float(best_value),
        num_maximizers=count,
        argmax_index=argmin,
        assignments_scanned=space.size,
    )


def full_space_scores(space: ProductSpace) -> np.ndarray:
    """Float |sum of products|**2 for every index (small spaces only)."""
    if space.size > 1_000_000:
        raise ValueError("full score table is limited to 1e6 assignments")
    mats, powers = _tables(space)
    l1 = max(int(np.abs(mat).sum(axis=-1).max()) for mat in mats)
    p = _unit_products(space)
    # breadth-first: each step appends one site as the least significant digit
    for _ in range(space.n_sites):
        p = _checked(np.einsum("asij,ksj->kasi", mats, p).reshape(-1, *p.shape[1:]), l1)
    return _scores(p.sum(axis=1), powers)


def exact_sum(space: ProductSpace, index: int) -> CycInt:
    """Pure-Python evaluation of the slot-product sum at one flat index."""
    digits = decode_index(index, space.alphabet, space.n_sites)
    return exact_letters_sum(space.order, space.factors, digits)


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
    """Digits of a flat assignment index, site 1 first."""
    digits = []
    rem = index
    for _ in range(n_sites):
        digits.append(rem % alphabet)
        rem //= alphabet
    digits.reverse()
    return tuple(digits)
