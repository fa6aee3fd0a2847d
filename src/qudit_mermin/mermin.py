"""Mermin operators: construction, exact eigenvalues, term combinatorics.

The operator for variant c is the weighted sum of all d**(N-1) setting
words whose circle position k satisfies k == c (mod d); the word at
position k carries weight alpha**(c - k) = omega**(-(k-c)/d), so every
term acts on the matching GHZ state with eigenvalue +1 and the total
eigenvalue is the term count d**(N-1).

Operators are stored as exponent arrays, never as dense matrices or term
lists: one row of rotation indices per word and one weight exponent mod
d**2 per row.  Every weight and every GHZ phase is a root of unity, so the
eigenvalue check of an explicit operator (``verify_eigenvalue``) and the
identity expansion add integer exponents in numpy and turn the sums of
roots into cyclotomic integers through ``root_counts``.

The position-rule operator itself needs no word array: a term's exponent
at a GHZ label is a sum over its sites, so ``_position_eigenvalue`` carries
one histogram of (letter-sum residue mod d, exponent mod d**2) per label
through the N sites and reads the eigenvalue off the variant's residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclotomic import (
    CycInt,
    _check_budget,
    _integer,
    _local_dimension,
    _read_only,
    _root_coeffs,
    _site_count,
    _site_power,
    root_counts,
    root_of_unity,
    root_sums,
)
from .qudit_ops import (
    EigenstateError,
    SettingWord,
    _all_words,
    _ghz_phase,
    rotation_alphabet,
)

__all__ = [
    "MerminOperator",
    "PositionCounts",
    "IdentityReport",
    "VERIFY_TERM_CAP",
    "build_mermin",
    "check_verify_budget",
    "verify_eigenvalue",
    "counts_by_position",
    "expand_identity",
    "mixing_exponent",
]

# "operator terms" d**(N-1) of ``check_verify_budget``: N <= 14, 9 and 8 at d = 3, 5 and 7,
# and N <= 6 at d = 11 and 13.  ``_position_eigenvalue`` builds no terms but keeps
# it, so ``verify`` and ``general`` agree.
VERIFY_TERM_CAP = 3**13

# Sites per group of ``MerminOperator.value_codes``: 3**4 = 81 codes a group.
_VALUE_GROUP_SITES = 4


@dataclass(frozen=True, eq=False)
class MerminOperator:
    """Weighted word list for one variant, stored as exponent arrays.

    ``letters[t]`` holds the rotation indices of word t (one int8 per site)
    and ``weight_exponents[t]`` the exponent e of its weight alpha**e, mod
    d**2; both arrays are read-only.  ``build_mermin`` lists the d**(N-1)
    words in lexicographic order of their letters.  ``terms`` materializes
    the same operator as (SettingWord, CycInt) pairs on first use.
    """

    d: int
    n_sites: int
    variant: int
    letters: np.ndarray
    weight_exponents: np.ndarray

    def __post_init__(self) -> None:
        d, n_sites, variant = _operator_args(self.d, self.n_sites, self.variant)
        half = (d - 1) // 2
        letters, exponents = np.asarray(self.letters), np.asarray(self.weight_exponents)
        if letters.ndim != 2 or letters.shape[1] != n_sites:
            raise ValueError(f"letters must have shape (terms, {n_sites}), got {letters.shape}")
        if exponents.shape != letters.shape[:1]:
            raise ValueError("need one weight exponent per word")
        if letters.size and (letters.min() < -half or letters.max() > half):
            raise ValueError(f"a rotation index is out of range for d={d}")
        letters = _read_only(letters, np.int8)
        exponents = _read_only(exponents % (d * d), np.int64)
        for name, value in zip(("d", "n_sites", "variant", "letters", "weight_exponents"),
                               (d, n_sites, variant, letters, exponents)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_terms(cls, d: int, n_sites: int, variant: int, terms) -> MerminOperator:
        """Build from (SettingWord, CycInt) pairs whose weights are roots of unity."""
        d, n_sites, variant = _operator_args(d, n_sites, variant)
        m = d * d
        letters = []
        exponents = []
        for word, weight in terms:
            if len(word.letters) != n_sites:
                raise ValueError(f"word {word} does not have {n_sites} sites")
            exponent = weight.as_root_exponent() if weight.order == m else None
            if exponent is None:
                raise ValueError(f"weight {weight} of {word} is not a root of unity")
            letters.append(SettingWord(d, tuple(word.letters)).letters)
            exponents.append(exponent)
        return cls(d, n_sites, variant, np.array(letters, dtype=np.int8).reshape(-1, n_sites),
                   np.array(exponents, dtype=np.int64))

    @property
    def term_count(self) -> int:
        return len(self.letters)

    @cached_property
    def terms(self) -> tuple[tuple[SettingWord, CycInt], ...]:
        m = self.d * self.d
        return tuple(
            (SettingWord(self.d, tuple(row)), root_of_unity(e, m))
            for row, e in zip(self.letters.tolist(), self.weight_exponents.tolist())
        )

    @cached_property
    def value_codes(self) -> np.ndarray:
        """Read-only (G, T) codes of the d = 3 value columns, sites in groups of g.

        Column c = j % 3 of site i is the value of its letter j at d = 3
        (X, Y, V for j = 0, 1, -1).  Sites 0..N-1 fall into G = ceil(N/g)
        groups of g = ``_VALUE_GROUP_SITES``, and term t's code in group q is
        3**g * q + sum_k c_(g*q + k) * 3**k over the group's sites (a site
        past N, in the last group, reads digit 0).  So one ``take`` of the
        codes from a flat (G, 3**g) table of per-group values reads every
        group's share of every term.

        Ranges.  A code is below 3**g * G, so it is stored in the narrowest
        unsigned type that holds 3**g * G - 1: uint8 while G <= 3 (N <= 12),
        uint16 while G <= 809 (N <= 3236).  A term then takes G <= N bytes,
        or 2G <= N bytes from N = 13, so through N = 3236 the cache is no
        larger than one byte per (site, term).
        """
        g = _VALUE_GROUP_SITES
        groups = -(-self.n_sites // g)
        dtype = np.min_scalar_type(3**g * groups - 1)
        codes = np.repeat(3**g * np.arange(groups, dtype=dtype)[:, None], self.term_count, axis=1)
        for i, column in enumerate(self.letters.T % 3):
            codes[i // g] += column.astype(dtype) * 3 ** (i % g)
        return _read_only(codes, dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MerminOperator):
            return NotImplemented
        return (
            (self.d, self.n_sites, self.variant)
            == (other.d, other.n_sites, other.variant)
            and np.array_equal(self.letters, other.letters)
            and np.array_equal(self.weight_exponents, other.weight_exponents)
        )

    def __hash__(self) -> int:
        return hash(
            (self.d, self.n_sites, self.variant,
             self.letters.tobytes(), self.weight_exponents.tobytes())
        )


@dataclass(frozen=True)
class PositionCounts:
    """Number of setting words at each circle position k in [0, d**2)."""

    d: int
    n_sites: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class IdentityReport:
    """Term-for-term comparison of the product-form expansion."""

    d: int
    n_sites: int
    n_words: int
    n_surviving: int
    n_vanishing: int
    matches: bool
    mismatches: tuple[str, ...]


def build_mermin(d: int, n_sites: int, variant: int = 0) -> MerminOperator:
    """Collect the d**(N-1) words at positions k == variant (mod d).

    The same position rule is applied at every N for every variant; the
    shifted variants follow the c = 0 pattern by rotational covariance.
    The first N-1 letters run over every prefix in lexicographic order and
    the last letter is the unique one that puts the word on the variant's
    residue class, which keeps the lexicographic order of all d**N words.
    Raises ValueError before allocating anything when the term count is
    over ``VERIFY_TERM_CAP``.
    """
    d, n_sites, variant = _verify_args(d, n_sites, variant)
    m = d * d
    half = (d - 1) // 2
    letters = np.empty((d ** (n_sites - 1), n_sites), dtype=np.int8)
    letters[:, :-1] = _all_words(d, n_sites - 1)
    prefix_sum = letters[:, :-1].sum(axis=1, dtype=np.int64)
    letters[:, -1] = (variant - prefix_sum + half) % d - half
    k = (prefix_sum + letters[:, -1]) % m
    return MerminOperator(d, n_sites, variant, letters, (variant - k) % m)


def _operator_args(d: int, n_sites: int, variant: int) -> tuple[int, int, int]:
    """d, N and variant as Python ints, checked d first by ``_local_dimension``."""
    d = _local_dimension(d)
    n_sites, variant = _site_count(n_sites), _integer(variant, "variants")
    if not 0 <= variant < d:
        raise ValueError(f"variant must lie in [0, {d}), got {variant}")
    return d, n_sites, variant


def check_verify_budget(d: int, n_sites: int) -> None:
    """Check d and N as ``_operator_args`` does; refuse d**(N-1) terms over VERIFY_TERM_CAP."""
    _verify_args(d, n_sites, 0)


def _verify_args(d: int, n_sites: int, variant: int) -> tuple[int, int, int]:
    """``_operator_args``, then the budget of ``check_verify_budget``, once per call.

    ``build_mermin``, ``verify_eigenvalue`` and ``_position_eigenvalue``
    start with it; ``verify_eigenvalue`` because it also takes operators
    built by ``MerminOperator.from_terms``.
    """
    d, n_sites, variant = _operator_args(d, n_sites, variant)
    _check_budget("operator terms", VERIFY_TERM_CAP, d, n_sites - 1)
    return d, n_sites, variant


def verify_eigenvalue(op: MerminOperator) -> int:
    """Apply the operator to its GHZ state exactly and return the eigenvalue.

    Term t reads alpha**(weight_t + e_t) at GHZ label r, e_t from row r of
    ``qudit_ops._ghz_phase``.  Blocks of 2**14 terms add their root counts
    per label, so no array holds every term at every label, and
    ``_label_eigenvalue`` checks the sums: EigenstateError if the result is
    not an integer multiple of the state (a construction bug), as distinct
    from the ValueError raised on malformed or over-cap input.
    """
    d, m = op.d, op.d * op.d
    _verify_args(d, op.n_sites, op.variant)
    counts = np.zeros((d, m), dtype=np.int64)
    for start in range(0, len(op.letters), 2**14):
        phases = _ghz_phase(d, op.letters[start : start + 2**14], op.variant)
        phases += op.weight_exponents[start : start + 2**14]
        counts += root_counts(m, phases)
    return _label_eigenvalue(op.variant, counts)


def _label_eigenvalue(variant: int, counts: np.ndarray) -> int:
    """Eigenvalue of the (d, m) root counts of an operator's terms, row r at GHZ label r.

    The d rows folded by ``_root_coeffs`` must agree and be a rational
    integer, else EigenstateError; both eigenvalue paths end here.
    """
    m = counts.shape[1]
    sums = counts @ _root_coeffs(m)
    if (sums != sums[0]).any():
        raise EigenstateError(
            f"variant {variant} operator is not proportional to its GHZ state"
        )
    lam = CycInt(m, tuple(sums[0].tolist()))
    if not lam.is_integer():
        raise EigenstateError(f"eigenvalue {lam} is not a rational integer")
    return lam.as_integer()


def _position_eigenvalue(d: int, n_sites: int, variant: int = 0) -> tuple[int, int]:
    """Eigenvalue and term count of ``build_mermin(d, n_sites, variant)``, with no words.

    At GHZ label r the word w at position k == variant (mod d) reads
    alpha**(variant - k + e_r(w)), and both k = sum_i w_i and the GHZ phase
    e_r(w) = c_r + sum_i col_r[w_i] are sums over the sites.  So one grid
    h[r, s, e] counts the words of letter sum s (mod d) and exponent e (mod
    d**2), starting from alpha**(variant + c_r) at s = 0: each site moves
    the counts of letter j by j in s and by col_r[j] - j in e, in one
    gather over the d letters.  Row s = variant holds the operator's terms
    (their total is the term count returned) and goes to ``_label_eigenvalue``.
    ``_ghz_phase`` gives c_r on the zero-site word and c_r + col_r[j] on the
    d one-site words, at every label in one call each.

    Range: a label's grid counts d**N words in all, ``check_verify_budget``
    admits d**(N-1) <= 3**13 and ``_local_dimension`` admits d <= 13, so every
    count and every folded coefficient is at most d**N <= 13 * 3**13 < 2**63,
    exact in int64.
    """
    d, n_sites, variant = _verify_args(d, n_sites, variant)
    m = d * d
    letters = np.array(rotation_alphabet(d))
    labels = np.arange(d)
    constant = _ghz_phase(d, np.empty((1, 0), dtype=np.int8), variant)
    step = _ghz_phase(d, letters[:, None], variant) - constant - letters  # col_r[j] - j
    # source[r, j, s * m + e]: the flat cell (r, s - j, e - col_r[j] + j) that
    # letter j moves onto (r, s, e)
    residues = (np.arange(d)[:, None] - letters[:, None, None]) % d  # (j, s, 1)
    exponents = (np.arange(m) - step[..., None, None]) % m  # (r, j, 1, e)
    source = ((labels[:, None, None, None] * d + residues) * m + exponents).reshape(d, d, d * m)
    grid = np.zeros((d, d, m), dtype=np.int64)
    grid[labels, 0, (variant + constant[:, 0]) % m] = 1
    for _ in range(n_sites):
        grid = grid.take(source).sum(axis=1)
    terms = grid.reshape(d, d, m)[:, variant]
    return _label_eigenvalue(variant, terms), int(terms[0].sum())


def counts_by_position(d: int, n_sites: int) -> PositionCounts:
    """Number of words at each circle position: (sum_j x**j)**N mod x**(d**2) - 1.

    Appending a site shifts every count by each letter j of the rotation
    alphabet, so the counts are the N-th power of the alphabet's root
    counts, by the square-and-multiply of ``_site_power``.  Exact for every
    N; each product is in int64 while its d**k words are below 2**63.
    """
    d, n_sites = _local_dimension(d), _site_count(n_sites)
    counts = _site_power(root_counts(d * d, [rotation_alphabet(d)]), n_sites)
    result = PositionCounts(d, n_sites, tuple(counts[0].tolist()))
    if result.total != d**n_sites:
        raise ArithmeticError(f"{result.total} words counted, not {d}**{n_sites}")
    return result


def mixing_exponent(d: int, p, j):
    """Exponent of the coefficient alpha**(j*(d*p + d - 1)) on W_j in product p.

    Reduced mod d**2; ``p`` and ``j`` may be broadcasting integer arrays.
    """
    d = _integer(d, "local dimensions")
    return (j * (d * p + d - 1)) % (d * d)


def expand_identity(n_sites: int, d: int = 3) -> IdentityReport:
    """Symbolically expand the product-form sum and compare term for term.

    Expands sum_p tensor_i (sum_j alpha**mixing_exponent(d, p, j) W_j) over
    all d**N <= 20000 words at once (product p gives a word the coefficient
    alpha**mixing_exponent(d, p, s), s its letter sum).  Words in the
    variant-0 operator must come out with d times their weight; every other
    word must come out exactly zero.  d and N are checked before the budget.
    """
    d, n_sites, _ = _operator_args(d, n_sites, 0)
    _check_budget("identity words", 20000, d, n_sites)
    op = build_mermin(d, n_sites, 0)
    m = d * d
    words = _all_words(d, n_sites)
    # a word's coefficient depends only on its letter sum mod m: one row per residue
    residues = root_sums(m, mixing_exponent(d, np.arange(d), np.arange(m)[:, None]))
    coeffs = residues[words.sum(axis=1, dtype=np.int64) % m]
    # the operator's words, scattered to their flat index in ``words``
    flat = np.ravel_multi_index(tuple(op.letters.T + (d - 1) // 2), (d,) * n_sites)
    expected = np.zeros_like(coeffs)
    expected[flat] = d * root_sums(m, op.weight_exponents[:, None])
    wrong = (coeffs != expected).any(axis=1)
    listed = expected.any(axis=1)  # d times a root of unity is never 0
    mismatches = tuple(
        f"{SettingWord(d, tuple(words[w].tolist()))}: "
        f"expected {CycInt(m, tuple(expected[w].tolist()))}, "
        f"got {CycInt(m, tuple(coeffs[w].tolist()))}"
        for w in np.flatnonzero(wrong).tolist()
    )
    return IdentityReport(
        d=d,
        n_sites=n_sites,
        n_words=len(words),
        n_surviving=int(np.count_nonzero(listed & ~wrong)),
        n_vanishing=int(np.count_nonzero(~listed & ~wrong)),
        matches=not mismatches,
        mismatches=mismatches,
    )
