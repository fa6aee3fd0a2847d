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
once per d (``_ratio_counts``); point values (``_product_sum``) and the
search engine read the same counts.  Letter a of the ratio alphabet has
d - 1 base-d digits, most significant first, which are t_j on the
rotation letters j = 1, 2, ..., d - 1 taken mod d; at d = 3 that is
a = 3R + S, the qutrit ratio index of ``hidden_variables``.  Letter 0
is the all-ones point, whose factors are the d uniform factor magnitudes:
A, B, C for d = 3, and for d = 5 the largest is about 4.6898.  Whether the
all-ones point is the true classical optimum for d > 3 is probed by
exhaustive search over ``ratio_space`` and reported, never asserted.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._enumeration import (
    ProductSpace,
    check_search_budget,
    decode_index,
    run_search,
)
from .cyclotomic import CycInt, _read_only, _root_coeffs, _site_product, root_counts
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
        try:
            d, n_sites = operator.index(self.d), operator.index(self.n_sites)
        except TypeError:
            raise ValueError(
                f"d and n_sites must be integers, got {self.d!r}, {self.n_sites!r}"
            ) from None
        if d not in SUPPORTED_DIMENSIONS:
            raise ValueError(
                f"supported local dimensions are {SUPPORTED_DIMENSIONS}, got {self.d}"
            )
        if n_sites < 1:
            raise ValueError("need at least one site")

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


def _product_sum(d: int, ratios) -> CycInt:
    """Exact sum over p of prod_i F_p(ratios[i]) for an (N, d) ratio array.

    Works on root counts, with no ring multiply: h[i, p, e] counts the
    letters j whose term of F_p at site i is alpha**e.  ``_site_product``
    multiplies each slot's counts over the sites; the d slots are then
    added and ``_root_coeffs(m)`` folds the one count vector to canonical
    coefficients, in Python integers when the chain's range rule
    (d**(N+1) >= 2**63 here) made the counts ``object``.
    """
    m = d * d
    product = _site_product(root_counts(m, _factor_exponents(d, ratios)))
    return CycInt(m, tuple((product.sum(axis=0) @ _root_coeffs(m)).tolist()))


@lru_cache(maxsize=None)
def _ratio_counts(d: int) -> np.ndarray:
    """Read-only (A, d, m) root counts of every ratio letter a < A = d**(d-1).

    Written with d base-d digits, a is a ratio row with column 0 zero.
    """
    letters = np.arange(d ** (d - 1))[:, None]
    ratios = letters // d ** np.arange(d - 1, -1, -1) % d
    return _read_only(root_counts(d * d, _factor_exponents(d, ratios)), np.int64)


def ratio_space(d: int, n_sites: int) -> ProductSpace:
    """The d**(d-1) ratio letters on N sites, budget-checked before it is built."""
    check_search_budget(d ** (d - 1), d, d * d, n_sites)
    return ProductSpace(order=d * d, n_sites=n_sites, counts=_ratio_counts(d))


def uniform_factors(d: int) -> UniformFactorSet:
    GeneralConfig(d, 1)
    entries = [
        FactorSetEntry(p, value.magnitude(), value)
        for p, value in enumerate(_factor_rows(d, np.zeros((1, d), dtype=int))[0])
    ]
    entries.sort(key=lambda e: (-e.magnitude, e.product_index))
    return UniformFactorSet(d, tuple(entries))


def general_uniform_sum(d: int, n_sites: int) -> CycInt:
    """Exact d*v at the all-ones point: sum_p F_p**N, from ``_product_sum``."""
    GeneralConfig(d, n_sites)
    return _product_sum(d, np.zeros((n_sites, d), dtype=np.int64))


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
    letters = decode_index(raw.argmax_index, d ** (d - 1), cfg.n_sites)
    site_tuples = tuple(decode_index(a, d, d - 1) for a in letters)
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
