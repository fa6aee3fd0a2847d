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
``cyclotomic._site_product`` chain.  Letter a of the
ratio alphabet has d - 1 base-d digits, most significant first, which are
t_j on the rotation letters j = 1, 2, ..., d - 1 taken mod d; at d = 3
that is a = 3R + S, the qutrit ratio index of ``hidden_variables``.
Letter 0 is the all-ones point, whose factors are the d uniform factor
magnitudes: A, B, C for d = 3, and for d = 5 the largest is about 4.6898.
Whether the all-ones point is the true classical optimum for d > 3 is
probed by exhaustive search over ``ratio_space`` and reported, never
asserted.

The table is closed under a slot shift, S below (``_ratio_shift``; not the
qutrit ratio S above): lowering digit t_c by c (mod d) turns the mixing
exponent j*(d*p + d - 1) of product p into that of p + 1, since omega**j =
alpha**(j*d), so F_{p+1}(S a) = F_p(a) root count for root count. Applying
S at every site permutes the d products cyclically and leaves the value
sum_p prod_i F_p unchanged; S fixes no letter and S**d is the identity, so
``ratio_space`` hands S to the search engine, which evaluates one exact
value per S-orbit of its near-tie band (an orbit holds at most d classes)
instead of one per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._enumeration import (
    FACTOR_CAP,
    ProductSpace,
    _check_multisets,
    decode_index,
    run_search,
)
from .cyclotomic import (
    CycInt,
    _check_budget,
    _integer,
    _read_only,
    _root_coeffs,
    _site_count,
    _site_power,
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

SUPPORTED_DIMENSIONS = (3, 5, 7)


@dataclass(frozen=True)
class GeneralConfig:
    """Dimension and particle count; the number of settings equals d."""

    d: int
    n_sites: int

    def __post_init__(self) -> None:
        d, n_sites = _integer(self.d, "d and n_sites"), _integer(self.n_sites, "d and n_sites")
        if d not in SUPPORTED_DIMENSIONS:
            raise ValueError(
                f"supported local dimensions are {SUPPORTED_DIMENSIONS}, got {self.d}"
            )
        object.__setattr__(self, "d", d)
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


def _factor_rows(d: int, ratios) -> tuple[tuple[CycInt, ...], ...]:
    """The d factors F_p of each row of a (K, d) ratio array, as ``CycInt`` rows."""
    counts = root_counts(d * d, _factor_exponents(d, ratios))
    return ProductSpace(order=d * d, n_sites=1, counts=counts).factors


def _ratio_digits(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, d) ratio rows of the letters a < A = d**(d-1), and the digit weights.

    Written with d base-d digits, a is a ratio row with column 0 zero.
    """
    weights = d ** np.arange(d - 1, -1, -1)
    return np.arange(d ** (d - 1))[:, None] // weights % d, weights


@lru_cache(maxsize=None)
def _ratio_counts(d: int) -> np.ndarray:
    """Read-only (A, d, m) root counts of every ratio letter a < A = d**(d-1)."""
    ratios, _ = _ratio_digits(d)
    return _read_only(root_counts(d * d, _factor_exponents(d, ratios)), np.int64)


def _ratio_shift(d: int) -> np.ndarray:
    """Read-only slot shift S of the ratio letters: F_{p+1}(S a) = F_p(a) term by term.

    S lowers digit t_c by c (mod d).  The mixing exponent of product p + 1
    exceeds that of p by j*d on letter j, so
    F_{p+1}(S a) = sum_j alpha**(j*(d*p + d - 1)) * omega**(j + t'_j) with
    t'_j = t_j - j (mod d): each term is the matching term of F_p(a), so the
    root counts agree, and p = d - 1 wraps to 0 because
    j*(d*d + d - 1) = j*(d - 1) (mod d**2).  Hence
    ``_ratio_counts(d)[S] == np.roll(_ratio_counts(d), 1, axis=1)``.  S**d
    lowers t_c by d*c, the identity, and S fixes no letter, since t_1
    always moves.
    """
    ratios, weights = _ratio_digits(d)
    return _read_only((ratios - np.arange(d)) % d @ weights, np.intp)


@lru_cache(maxsize=None)
def _ratio_letters(d: int) -> ProductSpace:
    """The ratio letters on one site, their slot shift checked once per d."""
    return ProductSpace(d * d, 1, _ratio_counts(d), _ratio_shift(d))


def ratio_space(d: int, n_sites: int) -> ProductSpace:
    """The d**(d-1) ratio letters on N sites with their slot shift, budget-checked first."""
    d, n_sites = _integer(d, "local dimensions"), _site_count(n_sites)
    if d < 3:
        raise ValueError(f"local dimension must be odd and >= 3, got {d}")
    _check_budget("ratio factor table", FACTOR_CAP, d, d + 2)  # d**(d-1) x d x d**2 counts
    _check_multisets(d ** (d - 1), n_sites)
    return _ratio_letters(d).on_sites(n_sites)


def uniform_factors(d: int) -> UniformFactorSet:
    d = GeneralConfig(d, 1).d
    entries = [
        FactorSetEntry(p, value.magnitude(), value)
        for p, value in enumerate(_factor_rows(d, np.zeros((1, d), dtype=int))[0])
    ]
    entries.sort(key=lambda e: (-e.magnitude, e.product_index))
    return UniformFactorSet(d, tuple(entries))


def general_uniform_sum(d: int, n_sites: int) -> CycInt:
    """Exact d*v at the all-ones point, sum_p F_p**N: ``_site_power`` of the all-zero row."""
    cfg = GeneralConfig(d, n_sites)
    m = cfg.d * cfg.d
    counts = root_counts(m, _factor_exponents(cfg.d, np.zeros((1, cfg.d), dtype=np.int64)))
    coeffs = _site_power(counts[0], cfg.n_sites).sum(axis=0) @ _root_coeffs(m)
    return CycInt(m, tuple(coeffs.tolist()))


def general_uniform_value(d: int, n_sites: int) -> float:
    """|v| at the all-ones point for dimension d."""
    return general_uniform_sum(d, n_sites).magnitude() / d


@dataclass(frozen=True)
class ConjectureReport:
    """Exhaustive ratio-space scan for general d, with the all-ones verdict.

    ``uniform_is_max`` records whether the all-ones point attains the
    scanned maximum (decided exactly); no particular outcome is promised.
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
    max_sq_coeffs: tuple[int, ...]  # canonical coeffs of |d*v|**2, scan maximum
    uniform_sq_coeffs: tuple[int, ...]  # and at the all-ones point


def conjecture_search(d: int = 5, n_sites: int = 2) -> ConjectureReport:
    """Scan every per-site ratio tuple and compare against the all-ones point.

    The scan evaluates each multiset of per-site tuples once.  A
    space over the search budget raises ValueError before its d**(d-1)
    letters' root counts are built.  The arg-max index and each site's ratio
    exponents follow the letter order of ``ratio_space``.
    """
    cfg = GeneralConfig(d, n_sites)
    raw = run_search(ratio_space(cfg.d, cfg.n_sites))
    uniform_sum = general_uniform_sum(cfg.d, cfg.n_sites)
    uniform_sq = (uniform_sum * uniform_sum.conjugate()).coeffs
    uniform_is_max = uniform_sq == raw.best_sq_coeffs
    max_magnitude = math.sqrt(raw.best_sq_value) / cfg.d
    uniform_magnitude = uniform_sum.magnitude() / cfg.d
    letters = decode_index(raw.argmax_index, cfg.d ** (cfg.d - 1), cfg.n_sites)
    site_tuples = tuple(decode_index(a, cfg.d, cfg.d - 1) for a in letters)
    return ConjectureReport(
        d=cfg.d,
        n_sites=cfg.n_sites,
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
