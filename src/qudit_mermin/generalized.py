"""Odd local dimension d: the d-setting operator and its classical factors.

The qutrit construction carries over verbatim to d settings on d-level
systems: words at circle positions k == 0 (mod d) with weights
alpha**(-k) sum to an operator with exact eigenvalue d**(N-1) on the GHZ
state.  The product-form identity generalizes with discrete-Fourier mixing
coefficients alpha**(j*(d*p + d - 1)) for product p and rotation index j;
this is the unique d-point combination that reproduces the qutrit identity
at d = 3, and its term-survival rule is verified symbolically rather than
assumed.

A hidden-variable assignment enters the value only through the per-site
ratio exponents t_j (the value of letter j over that of letter 0), and the
per-site factor of product p is

    F_p = sum_j alpha**mixing_exponent(d, p, j) * omega**t_j.

This module keeps the one table of these factors, as root counts built
once per d (``_ratio_counts``); the search engine reads them through
``_enumeration._class_values``, and the qutrit point values through one
``cyclotomic._site_product`` chain; the qutrit factor table of
``hidden_variables`` names its factors by the forms of ``_qutrit_forms``,
and the uniform values read only the all-ones row (``_uniform_counts``).
Letter a of the ratio alphabet has d - 1 base-d digits, most significant
first, which are t_j on the rotation letters j = 1, 2, ..., d - 1 taken
mod d; at d = 3 that is a = 3R + S, the qutrit ratio index of
``hidden_variables``.  Letter 0 is the all-ones point, whose factors are
the d uniform factor magnitudes: A, B, C for d = 3, and for d = 5 the
largest is about 4.6898.

Whether the all-ones point is the classical optimum is decided by proofs,
not scans (``conjecture_search``).  At d = 3 every letter is a root of
unity times the all-ones row shifted by one of three slot shifts, and a
proven bound leaves only the classes of one shift as candidates, so
``_diagonal_search`` answers the d = 3 search from three exact values at
every N.  At d >= 5 every factor row is a discrete Fourier transform of
unimodular terms, which settles N <= 2 in closed form; N >= 3 is refused.
``ratio_space`` builds the letter table for the tests' oracle
``_enumeration.run_search`` and for full search's ratio side at d = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache, partial

import numpy as np

from ._enumeration import (
    FACTOR_CAP,
    ProductSpace,
    RawSearchResult,
    _check_multisets,
    _real_float,
    decode_index,
    encode_index,
    run_search,  # no path reads it: bound for perfbench/test_run.py, which wraps it here
)
from .cyclotomic import (
    CycInt,
    _check_budget,
    _circulant_index,
    _integer,
    _local_dimension,
    _read_only,
    _root_coeffs,
    _site_count,
    _site_power,
    compare_real_coeffs,
    root_counts,
)
from .mermin import (
    IdentityReport,
    MerminOperator,
    _position_eigenvalue,
    build_mermin,
    expand_identity,
    mixing_exponent,
)
from .qudit_ops import rotation_alphabet

__all__ = [
    "GeneralConfig",
    "UniformFactorSet",
    "FactorSetEntry",
    "ConjectureReport",
    "build_general_mermin",
    "verify_general_eigenvalue",
    "mixing_exponent",
    "ratio_space",
    "uniform_factors",
    "general_uniform_sum",
    "general_uniform_value",
    "expand_general_identity",
    "conjecture_search",
]


@dataclass(frozen=True)
class GeneralConfig:
    """Dimension and particle count; the number of settings equals d.

    d is admitted by ``cyclotomic._local_dimension``, the rule of every
    entry point that takes d: odd, d**5 <= 2**20 (d <= 13) and prime.
    """

    d: int
    n_sites: int

    def __post_init__(self) -> None:
        d, n_sites = _integer(self.d, "d and n_sites"), _integer(self.n_sites, "d and n_sites")
        object.__setattr__(self, "d", _local_dimension(d))
        object.__setattr__(self, "n_sites", _site_count(n_sites))

    @property
    def settings(self) -> int:
        return self.d


def build_general_mermin(cfg: GeneralConfig) -> MerminOperator:
    return build_mermin(cfg.d, cfg.n_sites, 0)


def verify_general_eigenvalue(cfg: GeneralConfig) -> int:
    """Exact eigenvalue of the variant-0 operator, from ``_position_eigenvalue``."""
    return _position_eigenvalue(cfg.d, cfg.n_sites)[0]


def expand_general_identity(cfg: GeneralConfig) -> IdentityReport:
    """Symbolic term-survival check of the generalized identity."""
    return expand_identity(cfg.n_sites, cfg.d)


@dataclass(frozen=True)
class FactorSetEntry:
    product_index: int
    magnitude: float
    value: CycInt


@dataclass(frozen=True)
class UniformFactorSet:
    """The d per-site factor magnitudes at the all-ones point, descending."""

    d: int
    entries: tuple[FactorSetEntry, ...]

    @property
    def largest(self) -> float:
        return self.entries[0].magnitude

    def magnitudes(self) -> tuple[float, ...]:
        return tuple(entry.magnitude for entry in self.entries)


def _factor_exponents(d: int, ratios) -> np.ndarray:
    """(K, d, d) root exponents: F_p of row k is the sum of alpha**e[k, p, :].

    ``ratios[k, c]`` is the ratio exponent on the rotation letter j == c
    (mod d); column 0, letter j = 0, is the reference and should be 0.
    The exponents are not reduced mod d**2.
    """
    mix, columns = _mixing_table(d)
    return mix + d * np.asarray(ratios)[:, None, columns]


@lru_cache(maxsize=None)
def _mixing_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (product p, letter j) mixing exponents and the columns j mod d."""
    j = np.array(rotation_alphabet(d))
    mix = mixing_exponent(d, np.arange(d)[:, None], j)
    return _read_only(mix, np.int64), _read_only(j % d, np.intp)


@lru_cache(maxsize=None)
def _uniform_counts(d: int) -> np.ndarray:
    """Read-only (d, m) root counts of letter 0 alone, the all-ones point, once per d."""
    zero = np.zeros((1, d), dtype=np.int64)
    return _read_only(root_counts(d * d, _factor_exponents(d, zero))[0], np.int64)


@lru_cache(maxsize=None)
def _ratio_counts(d: int) -> np.ndarray:
    """Read-only (A, d, m) root counts of every ratio letter a < A = d**(d-1).

    Written with d base-d digits, a is a ratio row with column 0 zero.
    """
    ratios = np.arange(d ** (d - 1))[:, None] // d ** np.arange(d - 1, -1, -1) % d
    return _read_only(root_counts(d * d, _factor_exponents(d, ratios)), np.int64)


def _letter_forms(counts: np.ndarray) -> np.ndarray:
    """(A, 4) rows (a, s, c, k): F_p(a) = alpha**(c + d*p*k) * F_{p+s}(0) for every p.

    Found exactly on (A, d, m) root counts: row c + d*p*k of the circulant
    of F_{p+s}(0) (``_circulant_index``) must equal F_p(a) count for count.
    ArithmeticError unless every letter has exactly one such form.
    """
    n_letters, d, m = counts.shape
    s, c, k, p = np.ix_(np.arange(d), np.arange(m), np.arange(d), np.arange(d))
    forms = counts[0][:, _circulant_index(m)][(p + s) % d, (c + d * p * k) % m]
    hits = np.argwhere((forms == counts[:, None, None, None]).all(axis=(-2, -1)))
    if not np.array_equal(hits[:, 0], np.arange(n_letters)):
        raise ArithmeticError("a ratio letter is not a root times a shifted all-ones row")
    return hits


@lru_cache(maxsize=None)
def _qutrit_forms() -> np.ndarray:
    """Read-only (9, 4) ``_letter_forms`` of ``_ratio_counts(3)``, checked once per process.

    Each shift group, s = 0 {0, 2, 3}, 1 {4, 5, 8} and 2 {1, 6, 7}, must
    hold one letter of every k (else ArithmeticError).
    """
    forms = _letter_forms(_ratio_counts(3))
    _, s, _, k = forms.T
    if (np.bincount(3 * s + k, minlength=9) != 1).any():
        raise ArithmeticError("each shift group must hold one letter of every k")
    return _read_only(forms, np.intp)


@lru_cache(maxsize=None)
def _diagonal_groups() -> tuple[tuple[int, ...], ...]:
    """The qutrit letters by shift group s and k, ``groups[s][k]``, from ``_qutrit_forms``.

    A group holds 3**(N-1) assignments of each k-sum K = sum_i k_i (mod 3).
    """
    a, s, _, k = _qutrit_forms().T
    groups = np.empty((3, 3), dtype=np.intp)
    groups[s, k] = a
    return tuple(map(tuple, groups.tolist()))


def _diagonal_tally(n_sites: int, winners) -> tuple[int, int]:
    """Assignments of the diagonal classes whose k-sum lies in ``winners``, and the least index.

    A group and a k-sum K hold 3**(N-1) assignments, so the count is
    len(winners) * 3**N.  The least one of group s and K puts the group's
    least letter l at sites 1..N-1 and at site N the letter whose k makes
    the sum K; the least index is the least of these over groups and K.
    """
    groups = _diagonal_groups()
    least = min(
        (low,) * (n_sites - 1) + (row[(K - (n_sites - 1) * row.index(low)) % 3],)
        for row in groups
        for low in [min(row)]
        for K in winners
    )
    return len(winners) * 3**n_sites, encode_index(least, 9)


# |v|**2 has canonical coefficients of magnitude at most its mass 9**(N+1),
# summing to at most twice that (``_diagonal_search``); the cap keeps every float
# formed from them finite, so N <= 321.
_SQUARE_MASS_CAP = 2**1022


def _diagonal_search(n_sites: int) -> RawSearchResult:
    """``run_search(ratio_space(3, N))``, field for field, from a proof and three exact values.

    Row fact (``_qutrit_forms``, checked exactly once per process, before
    the first result is returned): every
    qutrit ratio letter a has F_p(a) = alpha**(c + 3*p*k) * F_{p+s}(0) for
    p = 0, 1, 2, with F_q(0) = B, -C, A.  A class is diagonal when all its
    letters share one s; its value is then
    alpha**(C - 3*s*K) * X_K with X_K = sum_q alpha**(3*q*K) * F_q(0)**N,
    C = sum_i c_i and K = sum_i k_i (mod 3), so |v| = |X_K|.  K = 0 at
    letter 0 gives L = |X_0| = A**N + B**N + (-C)**N, the all-ones value.

    Bound.  Every class has |v| <= U = sum_p prod_i |F_p(a_i)|, and every
    class that is not diagonal has U < L, so the maximizers are the diagonal
    classes of the K whose |X_K|**2 is largest.  N = 1 has no other class.
    At N = 2 a class of two shifts s_1 != s_2 (three such shift vectors)
    has U = AB + BC + CA and L = A**2 + B**2 + C**2 = 9, so U/L = 0.7581.
    For N >= 3 let n_p count the sites whose factor at slot p is the A one;
    sum_p n_p = N and, the shifts not all equal, every n_p <= N - 1.  With
    r = B/A and q = C/A < r, U/A**N <= sum_p r**(N - n_p), a convex function
    of (n_p) whose largest value on that polytope is at a vertex, a
    permutation of (N - 1, 1, 0): U/A**N <= r + r**(N-1) + r**N.  And
    L/A**N >= 1 + r**N - q**N, so U < L whenever r + r**(N-1) < 1 - q**N:
    0.8152 < 0.9581 at N = 3, and the left side falls and the right rises
    with N.

    Exact values.  H = ``_site_power`` of letter 0's counts holds F_q(0)**N
    in slot q; X_K is sum_q H_q rolled by 3*q*K, folded, for K = 0, 1, 2,
    and the largest |X_K|**2 is picked by ``compare_real_coeffs``.
    ``_diagonal_tally`` counts and orders the winners' assignments.

    Budget.  |v|**2 (the payload's ``max_sq_coeffs``) is a sum of
    9**(N+1) roots of unity, and folding a root to canonical coefficients
    puts +-1 on at most two of them, so each coefficient is at most
    9**(N+1) in magnitude and they sum to at most 2 * 9**(N+1).
    9**(N+1) <= ``_SQUARE_MASS_CAP`` = 2**1022 is checked first, so the
    float of the maximum and each partial sum of it stay below
    2**1023 * (1 + 8u) < 2**1024 (u = 2**-53), and the float shadow of
    ``compare_real_coeffs`` is finite or not used.
    """
    n_sites = _site_count(n_sites)
    _check_budget("ratio square mass", _SQUARE_MASS_CAP, 9, n_sites + 1)
    h = _site_power(_ratio_counts(3)[0], n_sites)  # slot q: F_q(0)**N
    twist = 3 * np.outer(np.arange(3), np.arange(3)) % 9  # [K, q]: 3*q*K mod 9
    rolled = h[:, _circulant_index(9)][np.arange(3), twist]  # [K, q]: alpha**(3qK) H_q
    values = [CycInt(9, tuple(row)) for row in (rolled.sum(axis=1) @ _root_coeffs(9)).tolist()]
    squares = [(v * v.conjugate()).coeffs for v in values]
    best = max(squares, key=cmp_to_key(partial(compare_real_coeffs, 9)))
    count, argmin = _diagonal_tally(n_sites, [K for K, sq in enumerate(squares) if sq == best])
    return RawSearchResult(best, _real_float(9, best), count, argmin, 9**n_sites)


def ratio_space(d: int, n_sites: int) -> ProductSpace:
    """The d**(d-1) ratio letters on N sites, budget-checked first."""
    d, n_sites = _local_dimension(d), _site_count(n_sites)
    _check_budget("ratio factor table", FACTOR_CAP, d, d + 2)  # d**(d-1) x d x d**2 counts
    _check_multisets(d ** (d - 1), n_sites)
    return ProductSpace(d * d, n_sites, _ratio_counts(d))


def uniform_factors(d: int) -> UniformFactorSet:
    d = GeneralConfig(d, 1).d
    values = (_uniform_counts(d) @ _root_coeffs(d * d)).tolist()
    entries = [
        FactorSetEntry(p, value.magnitude(), value)
        for p, value in enumerate(CycInt(d * d, tuple(row)) for row in values)
    ]
    entries.sort(key=lambda e: (-e.magnitude, e.product_index))
    return UniformFactorSet(d, tuple(entries))


def general_uniform_sum(d: int, n_sites: int) -> CycInt:
    """Exact d*v at the all-ones point, sum_p F_p**N: ``_site_power`` of the all-zero row."""
    cfg = GeneralConfig(d, n_sites)
    m = cfg.d * cfg.d
    coeffs = _site_power(_uniform_counts(cfg.d), cfg.n_sites).sum(axis=0) @ _root_coeffs(m)
    return CycInt(m, tuple(coeffs.tolist()))


def general_uniform_value(d: int, n_sites: int) -> float:
    """|v| at the all-ones point for dimension d."""
    return general_uniform_sum(d, n_sites).magnitude() / d


@dataclass(frozen=True)
class ConjectureReport:
    """The classical maximum over the ratio assignments for general d, and the all-ones verdict.

    ``uniform_is_max`` records whether the all-ones point attains the
    maximum (decided exactly); ``conjecture_search`` proves the maximum,
    and ``assignments_scanned`` counts the assignments it covers, though
    none is scanned.
    """

    d: int
    n_sites: int
    max_magnitude: float
    uniform_magnitude: float
    uniform_is_max: bool
    gap: float
    argmax_index: int
    argmax_ratio_exponents: tuple[tuple[int, ...], ...]
    num_maximizers: int
    assignments_scanned: int
    max_sq_coeffs: tuple[int, ...]  # canonical coeffs of |d*v|**2, the maximum
    uniform_sq_coeffs: tuple[int, ...]  # and at the all-ones point


# ``_parseval_search`` holds at N <= 2; no proof is written past it.
_CONJECTURE_SITE_CAP = 2


def _parseval_search(d: int, n_sites: int, uniform_sq: tuple[int, ...]) -> RawSearchResult:
    """``run_search(ratio_space(d, N))`` at N <= 2, field for field, in closed form at every d.

    Letter a's factor of product p is
    F_p(a) = sum_j alpha**(j*(d*p + d - 1)) * omega**t_j
    = sum_j g_j * omega**(j*p), with g_j = alpha**(j*(d-1)) * omega**t_j,
    since omega = alpha**d.  Every |g_j| = 1, and g_0 = 1 because t_0 = 0.
    The d rotation letters j are the d residues mod d, so the row
    (F_p(a))_p is the length-d discrete Fourier transform of g, and for
    every letter
        sum_p |F_p(a)|**2 = d * sum_j |g_j|**2 = d**2  (Parseval),
        sum_p F_p(a) = d * g_0 = d.

    N = 1: d*v = sum_p F_p(a) = d at each of the d**(d-1) letters, so all
    of them tie at |d*v|**2 = d**2.

    N = 2: by Cauchy-Schwarz and Parseval, |sum_p F_p(a) F_p(b)| <= d**2,
    with equality iff F_p(b) = lam * conj(F_p(a)) at every p, |lam| = 1.
    conj(F_p(a)) = sum_j conj(g_{-j}) * omega**(j*p), so by the inverse
    transform equality holds iff g_j(b) = lam * conj(g_{-j}(a)) at every j;
    j = 0 forces lam = 1, and then t_j(b) = -t_{-j}(a) (mod d).  So each
    letter a has exactly one partner b, the maximum |d*v|**2 = d**4 is
    attained by the d**(d-1) ordered pairs (a, b), and letter 0 is its own
    partner.

    Either way the maximum is d**(2N), attained by d**(d-1) assignments, of
    which the all-ones point, index 0, is the least.  ``uniform_sq``, the
    all-ones |d*v|**2 that the caller forms exactly, must be d**(2N) (else
    ArithmeticError): the one runtime check of the premise.  Nothing is
    scanned; the d**((d-1)*N) assignments are those the result covers.
    """
    best = CycInt.integer(d ** (2 * n_sites), d * d).coeffs
    if uniform_sq != best:
        raise ArithmeticError(f"the all-ones value does not square to {d}**{2 * n_sites}")
    scanned = d ** ((d - 1) * n_sites)
    return RawSearchResult(best, _real_float(d * d, best), d ** (d - 1), 0, scanned)


def conjecture_search(d: int = 5, n_sites: int = 2) -> ConjectureReport:
    """The exact maximum over every per-site ratio tuple, against the all-ones point.

    Nothing is scanned.  At d = 3 ``_diagonal_search`` proves which classes
    reach the maximum and takes it from three exact values (N <= 321).  At
    d >= 5 ``_parseval_search`` gives it in closed form at N <= 2, and
    N >= 3 is refused by the budget "conjecture sites" (ValueError) before
    anything is built.  The arg-max index and each site's ratio exponents
    follow the letter order of ``ratio_space``.
    """
    cfg = GeneralConfig(d, n_sites)
    d, n_sites = cfg.d, cfg.n_sites
    if d == 3:
        raw = _diagonal_search(n_sites)
    else:
        _check_budget("conjecture sites", _CONJECTURE_SITE_CAP, n_sites, work=str(n_sites))
    uniform_sum = general_uniform_sum(d, n_sites)
    uniform_sq = (uniform_sum * uniform_sum.conjugate()).coeffs
    if d > 3:
        raw = _parseval_search(d, n_sites, uniform_sq)
    uniform_is_max = uniform_sq == raw.best_sq_coeffs
    max_magnitude = math.sqrt(raw.best_sq_value) / d
    uniform_magnitude = uniform_sum.magnitude() / d
    letters = decode_index(raw.argmax_index, d ** (d - 1), n_sites)
    site_tuples = tuple(decode_index(a, d, d - 1) for a in letters)
    return ConjectureReport(
        d=d,
        n_sites=n_sites,
        max_magnitude=max_magnitude,
        uniform_magnitude=uniform_magnitude,
        uniform_is_max=uniform_is_max,
        gap=0.0 if uniform_is_max else max_magnitude - uniform_magnitude,
        argmax_index=raw.argmax_index,
        argmax_ratio_exponents=site_tuples,
        num_maximizers=raw.num_maximizers,
        assignments_scanned=raw.assignments_scanned,
        max_sq_coeffs=raw.best_sq_coeffs,
        uniform_sq_coeffs=uniform_sq,
    )
