"""Odd local dimension d: the d-setting operator and its classical factors.

The qutrit construction carries over verbatim to d settings on d-level
systems: words at circle positions k == 0 (mod d) with weights
alpha**(-k) sum to an operator with exact eigenvalue d**(N-1) on the GHZ
state.  The product-form identity generalizes with discrete-Fourier mixing
coefficients alpha**(j*(d*p + d - 1)) for product p and rotation index j;
this is the unique d-point combination that reproduces the qutrit identity
at d = 3, and its term-survival rule is verified symbolically rather than
assumed.

The per-site sums at the all-ones hidden-variable point,

    F_p = sum_j alpha**(j*(d*p + d - 1)),

are the d uniform factor magnitudes; for d = 3 they are A, B, C, and for
d = 5 the largest is about 4.6898.  Whether the all-ones point is the true
classical optimum for d > 3 is probed by exhaustive search and reported,
never asserted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._enumeration import (
    ProductSpace,
    check_search_budget,
    decode_index,
    resolve_workers,
    run_search,
)
from .cyclotomic import CycInt, root_sum, root_sums
from .mermin import (
    IdentityReport,
    MerminOperator,
    build_mermin,
    expand_identity,
    verify_eigenvalue,
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
        if self.d not in SUPPORTED_DIMENSIONS:
            raise ValueError(
                f"supported local dimensions are {SUPPORTED_DIMENSIONS}, got {self.d}"
            )
        if self.n_sites < 1:
            raise ValueError("need at least one site")

    @property
    def settings(self) -> int:
        return self.d


def build_general_mermin(cfg: GeneralConfig) -> MerminOperator:
    return build_mermin(cfg.d, cfg.n_sites, 0)


def verify_general_eigenvalue(cfg: GeneralConfig) -> int:
    return verify_eigenvalue(build_general_mermin(cfg))


def mixing_exponent(d: int, p: int, j: int) -> int:
    """Exponent of the coefficient on W_j in product p of the identity."""
    return (j * (d * p + d - 1)) % (d * d)


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


def _general_factor(d: int, p: int, ratio_exps=None) -> CycInt:
    """Per-site factor of product p: sum_j alpha**(mix) * (j-th ratio)."""
    exponents = [
        mixing_exponent(d, p, j)
        + (d * ratio_exps[j] if ratio_exps is not None and j != 0 else 0)
        for j in rotation_alphabet(d)
    ]
    return root_sum(d * d, exponents)


def uniform_factors(d: int) -> UniformFactorSet:
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(
            f"supported local dimensions are {SUPPORTED_DIMENSIONS}, got {d}"
        )
    values = [_general_factor(d, p) for p in range(d)]
    entries = [
        FactorSetEntry(p, value.magnitude(), value) for p, value in enumerate(values)
    ]
    entries.sort(key=lambda e: (-e.magnitude, e.product_index))
    return UniformFactorSet(d, tuple(entries))


def general_uniform_sum(d: int, n_sites: int) -> CycInt:
    """Exact d*v at the all-ones point: sum_p F_p**N."""
    total = CycInt.zero(d * d)
    for p in range(d):
        total = total + _general_factor(d, p) ** n_sites
    return total


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


def _ratio_tuples(d: int) -> tuple[tuple[int, ...], ...]:
    """All per-site ratio exponent tuples, ordered so all-zero comes first.

    Order within a tuple follows the rotation alphabet with j = 0 skipped;
    the first listed ratio is the most significant digit of the site index.
    """
    return tuple(itertools.product(range(d), repeat=d - 1))


def _conjecture_space(d: int, n_sites: int) -> ProductSpace:
    """Every ``_general_factor(d, p, ratios)``, from one ``root_sums``."""
    # ratio exponent of each letter j per tuple, 0 for j = 0 (the middle letter)
    ratios = np.insert(np.array(_ratio_tuples(d)), (d - 1) // 2, 0, axis=1)
    mix = mixing_exponent(d, np.arange(d)[:, None], np.array(rotation_alphabet(d)))
    coeffs = root_sums(d * d, mix + d * ratios[:, None, :])
    factors = tuple(tuple(CycInt(d * d, tuple(c)) for c in r.tolist()) for r in coeffs)
    return ProductSpace(order=d * d, n_sites=n_sites, factors=factors)


def conjecture_search(
    d: int = 5, n_sites: int = 2, workers: int | None = None
) -> ConjectureReport:
    """Scan every per-site ratio tuple and compare against the all-ones point.

    The scan evaluates each multiset of per-site tuples once, in one
    process; ``workers`` is validated but does not change the work.  A
    space over the search budget raises ValueError before its d**(d-1)
    factor rows are built.
    """
    cfg = GeneralConfig(d, n_sites)
    resolve_workers(workers)
    check_search_budget(d ** (d - 1), d, d * d, n_sites)
    raw = run_search(_conjecture_space(cfg.d, cfg.n_sites))
    uniform_sum = general_uniform_sum(cfg.d, cfg.n_sites)
    uniform_sq = (uniform_sum * uniform_sum.conjugate()).coeffs
    uniform_is_max = uniform_sq == raw.best_sq_coeffs
    max_magnitude = math.sqrt(raw.best_sq_value) / cfg.d
    uniform_magnitude = uniform_sum.magnitude() / cfg.d
    tuples = _ratio_tuples(cfg.d)
    site_tuples = tuple(
        tuples[digit]
        for digit in decode_index(raw.argmax_index, len(tuples), cfg.n_sites)
    )
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
