"""Mermin operators: construction, exact eigenvalues, term combinatorics.

The operator for variant c is the weighted sum of all d**(N-1) setting
words whose circle position k satisfies k == c (mod d); the word at
position k carries weight alpha**(c - k) = omega**(-(k-c)/d), so every
term acts on the matching GHZ state with eigenvalue +1 and the total
eigenvalue is the term count d**(N-1).

Operators are stored as exponent arrays, never as dense matrices or term
lists: one row of rotation indices per word and one weight exponent mod
d**2 per row.  Every weight and every GHZ phase is a root of unity, so the
eigenvalue check and the identity expansion add integer exponents in numpy
and turn the sums of roots into cyclotomic integers with ``root_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclotomic import CycInt, _read_only, root_of_unity, root_sum, root_sums
from .qudit_ops import (
    EigenstateError,
    SettingWord,
    _all_words,
    _phase_array,
    ghz_state,
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

# Terms one operator may hold, checked when it is built and when it is
# verified: d**(N-1) <= 3**13 admits N <= 14, 9 and 8 for d = 3, 5 and 7.
VERIFY_TERM_CAP = 3**13


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
        half = len(rotation_alphabet(self.d)) // 2
        letters = _read_only(self.letters, np.int8)
        exponents = _read_only(
            np.asarray(self.weight_exponents, dtype=np.int64) % (self.d * self.d),
            np.int64,
        )
        if letters.ndim != 2 or letters.shape[1] != self.n_sites:
            raise ValueError(
                f"letters must have shape (terms, {self.n_sites}), got {letters.shape}"
            )
        if letters.size and int(np.abs(letters).max()) > half:
            raise ValueError(f"a rotation index is out of range for d={self.d}")
        if exponents.shape != letters.shape[:1]:
            raise ValueError("need one weight exponent per word")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "weight_exponents", exponents)

    @classmethod
    def from_terms(cls, d: int, n_sites: int, variant: int, terms) -> MerminOperator:
        """Build from (SettingWord, CycInt) pairs whose weights are roots of unity."""
        m = d * d
        if not 0 <= variant < d:
            raise ValueError(f"variant must lie in [0, {d}), got {variant}")
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
        shape = (len(letters), n_sites)
        return cls(d, n_sites, variant, np.array(letters, dtype=np.int8).reshape(shape),
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
    if n_sites < 1:
        raise ValueError("need at least one site")
    if not 0 <= variant < d:
        raise ValueError(f"variant must lie in [0, {d}), got {variant}")
    check_verify_budget(d, n_sites)
    m = d * d
    half = (d - 1) // 2
    letters = np.empty((d ** (n_sites - 1), n_sites), dtype=np.int8)
    letters[:, :-1] = _all_words(d, n_sites - 1)
    prefix_sum = letters[:, :-1].sum(axis=1, dtype=np.int64)
    letters[:, -1] = (variant - prefix_sum + half) % d - half
    k = (prefix_sum + letters[:, -1]) % m
    return MerminOperator(d, n_sites, variant, letters, (variant - k) % m)


def check_verify_budget(d: int, n_sites: int) -> None:
    """Raise ValueError when an operator of d**(N-1) terms exceeds VERIFY_TERM_CAP.

    ``build_mermin`` and ``verify_eigenvalue`` both call it, the latter
    because it also takes operators built by ``MerminOperator.from_terms``.
    """
    # clamped: d**k is over the cap for every k past its bit length
    if d ** min(n_sites - 1, VERIFY_TERM_CAP.bit_length()) > VERIFY_TERM_CAP:
        raise ValueError(
            f"an operator of {d}**{n_sites - 1} terms exceeds the cap of "
            f"{VERIFY_TERM_CAP} terms"
        )


def verify_eigenvalue(op: MerminOperator) -> int:
    """Apply the operator to its GHZ state exactly and return the eigenvalue.

    Each GHZ label r (every digit r) maps to the label with every digit
    r + 1, picking up alpha**(weight + sum_i table_i[r]) per term; those
    exponents are summed as integer arrays and reduced by one ``root_sum``
    per label.  Raises EigenstateError if the result is not an integer
    multiple of the state (which would indicate a construction bug), as
    distinct from the ValueError raised on malformed or over-cap input.
    """
    d, n = op.d, op.n_sites
    check_verify_budget(d, n)
    m = d * d
    half = (d - 1) // 2
    psi = ghz_state(op.variant, d, n)
    table = _phase_array(d)  # table[j + half, digit]
    powers = [d**i for i in range(n)]
    totals = {label: CycInt.zero(m) for label in psi.amplitudes}
    for label, amp in psi.amplitudes.items():
        digits = [(label // p) % d for p in powers]
        phases = op.weight_exponents.copy()
        for i, digit in enumerate(digits):
            phases += table[:, digit][op.letters[:, i] + half]
        mapped = sum(((digit + 1) % d) * p for digit, p in zip(digits, powers))
        if mapped not in totals:
            raise EigenstateError("a term left the GHZ support")
        totals[mapped] = totals[mapped] + root_sum(m, phases) * amp
    lam: CycInt | None = None
    for label, amp in psi.amplitudes.items():
        ratio = totals[label] * amp.conjugate()
        if lam is None:
            lam = ratio
        elif lam != ratio:
            raise EigenstateError(
                f"variant {op.variant} operator is not proportional to its GHZ state"
            )
    assert lam is not None
    if not lam.is_integer():
        raise EigenstateError(f"eigenvalue {lam} is not a rational integer")
    return lam.as_integer()


def counts_by_position(d: int, n_sites: int) -> PositionCounts:
    """Number of words at each circle position, one residue convolution per site.

    Appending a site shifts every count by each letter j of the rotation
    alphabet (mod d**2), so N sites take N convolutions over the d**2
    positions, exact in Python integers.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    m = d * d
    alphabet = rotation_alphabet(d)
    counts = [1] + [0] * (m - 1)
    for _ in range(n_sites):
        counts = [sum(counts[(k - j) % m] for j in alphabet) for k in range(m)]
    result = PositionCounts(d, n_sites, tuple(counts))
    if result.total != d**n_sites:
        raise ArithmeticError(f"{result.total} words counted, not {d}**{n_sites}")
    return result


def mixing_exponent(d: int, p, j):
    """Exponent of the coefficient alpha**(j*(d*p + d - 1)) on W_j in product p.

    Reduced mod d**2; ``p`` and ``j`` may be broadcasting integer arrays.
    """
    return (j * (d * p + d - 1)) % (d * d)


def expand_identity(n_sites: int, d: int = 3) -> IdentityReport:
    """Symbolically expand the product-form sum and compare term for term.

    Expands sum_p tensor_i (sum_j alpha**mixing_exponent(d, p, j) W_j) over
    all d**N <= 20000 words at once (product p gives a word the coefficient
    alpha**mixing_exponent(d, p, s), s its letter sum).  Words in the
    variant-0 operator must come out with d times their weight; every other
    word must come out exactly zero.
    """
    if d ** min(n_sites, 15) > 20000:  # clamped: d**15 > 20000
        raise ValueError(
            f"symbolic expansion covers {d}**{n_sites} words; "
            "reduce N (the cap is d**N <= 20000)"
        )
    op = build_mermin(d, n_sites, 0)
    m = d * d
    words = _all_words(d, n_sites)
    letter_sums = words.sum(axis=1, dtype=np.int64)[:, None]
    coeffs = root_sums(m, mixing_exponent(d, np.arange(d), letter_sums))
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
