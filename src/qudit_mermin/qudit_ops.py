"""Qudit shift observables, tensor-product setting words, and GHZ states.

The local observables are rotated copies of the cyclic shift X.  Each one is
a monomial map: a table of phase exponents attached to n -> n+1 (mod d).  A
length-N word of such observables therefore acts on a basis label by shifting
every digit and multiplying the amplitude by a single root of unity, so
states with few nonzero amplitudes (GHZ states have d of them) transform
exactly and cheaply, with no dense matrices involved.

For qutrits the three settings are X (no rotation), Y (rotation index +1)
and V (rotation index -1); a word's circle position is the sum of its
rotation indices mod d**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import CycInt, PhaseExponent, _integer, _read_only, _site_count, root_of_unity

__all__ = [
    "LocalObservable",
    "SettingWord",
    "StateVector",
    "EigenstateError",
    "ghz_state",
    "apply_word",
    "word_position",
    "bloch_check",
    "eigenphase",
    "rotation_alphabet",
]

ROTATION_LETTERS = {0: "X", 1: "Y", -1: "V"}
LETTER_ROTATIONS = {"X": 0, "Y": 1, "V": -1}


class EigenstateError(RuntimeError):
    """An operator application did not return a multiple of the target state."""


def rotation_alphabet(d: int) -> tuple[int, ...]:
    """Rotation indices of the d local settings: -(d-1)/2 ... +(d-1)/2."""
    d = _integer(d, "local dimensions")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"local dimension must be odd and >= 3, got {d}")
    half = (d - 1) // 2
    return tuple(range(-half, half + 1))


@dataclass(frozen=True)
class LocalObservable:
    """A rotated shift observable W_j = Z**(j/d) X Z**(-j/d).

    ``phase_table[n]`` is the exponent (mod d**2) of the amplitude attached
    to the basis map n -> n+1 (mod d).
    """

    d: int
    j: int
    phase_table: tuple[int, ...]

    @classmethod
    def rotated_shift(cls, d: int, j: int) -> LocalObservable:
        j = _integer(j, "rotation indices")
        if j not in rotation_alphabet(d):
            raise ValueError(f"rotation index {j} out of range for d={d}")
        m = d * d
        table = tuple((j * (1 - d * (n == d - 1))) % m for n in range(d))
        return cls(d, j, table)

    def matrix(self) -> np.ndarray:
        """Dense complex matrix (for demos and float cross-checks)."""
        m = self.d * self.d
        out = np.zeros((self.d, self.d), dtype=complex)
        for n in range(self.d):
            out[(n + 1) % self.d, n] = np.exp(2j * np.pi * self.phase_table[n] / m)
        return out

    def __str__(self) -> str:
        if self.d == 3 and self.j in ROTATION_LETTERS:
            return ROTATION_LETTERS[self.j]
        return f"W[{self.j}]"


@lru_cache(maxsize=None)
def _phase_array(d: int) -> np.ndarray:
    """Read-only (d, d) int64 array; row j + (d-1)/2 is the phase table of W_j."""
    alphabet = rotation_alphabet(d)
    rows = [LocalObservable.rotated_shift(d, j).phase_table for j in alphabet]
    return _read_only(rows, np.int64)


def _all_words(d: int, n_sites: int) -> np.ndarray:
    """The d**N words in ``itertools.product(rotation_alphabet(d), repeat=N)`` order.

    A (d**N, N) int8 array, filled column by column with no int64 temporary.
    """
    alphabet = np.array(rotation_alphabet(d), dtype=np.int8)[:, None]
    words = np.empty((d**n_sites, n_sites), dtype=np.int8)
    for i in range(n_sites):
        words.reshape(d**i, d, -1, n_sites)[..., i] = alphabet
    return words


def bloch_check(obs: LocalObservable) -> bool:
    """Exact rotational-covariance check for a shift observable.

    Verifies, column by column with exact phases, that conjugating by Z
    multiplies the observable by omega (Z W Z^-1 == omega W), that the d-th
    power of the observable is the identity, and that the phase table is the
    one obtained by conjugating X with Z**(j/d).  Returns False on any
    violation.
    """
    d = obs.d
    m = d * d
    if len(obs.phase_table) != d:
        return False
    # The defining rotation: start from X (all-zero table) and conjugate by
    # Z**(1/d) (or its inverse) |j| times.
    expected = [0] * d
    step = 1 if obs.j >= 0 else -1
    for _ in range(abs(obs.j)):
        expected = [
            (expected[n] + step * (((n + 1) % d) - n)) % m for n in range(d)
        ]
    if tuple(expected) != tuple(e % m for e in obs.phase_table):
        return False
    # Z W Z^-1 == omega W on every basis column.
    for n in range(d):
        left = root_of_unity(obs.phase_table[n] + d * (((n + 1) % d) - n), m)
        right = root_of_unity(obs.phase_table[n] + d, m)
        if left != right:
            return False
    # W**d == identity: the phase accumulated around the full cycle is 1.
    total = sum(obs.phase_table) % m
    return root_of_unity(total, m).is_one()


@dataclass(frozen=True)
class SettingWord:
    """A length-N tensor word of rotated shifts, stored by rotation index.

    ``letters[i]`` acts on site i+1; site 1 corresponds to the least
    significant digit of a basis label.
    """

    d: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        alphabet = rotation_alphabet(self.d)
        for j in self.letters:
            if j not in alphabet:
                raise ValueError(f"rotation index {j} out of range for d={self.d}")

    @classmethod
    def from_string(cls, s: str, d: int = 3) -> SettingWord:
        if d != 3:
            raise ValueError("letter strings are defined for d=3 only")
        try:
            letters = tuple(LETTER_ROTATIONS[ch] for ch in s)
        except KeyError as exc:
            raise ValueError(f"unknown setting letter {exc.args[0]!r}") from exc
        return cls(3, letters)

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    @property
    def position(self) -> int:
        """Circle position: net rotation (sum of indices) mod d**2."""
        return sum(self.letters) % (self.d * self.d)

    def observables(self) -> tuple[LocalObservable, ...]:
        return tuple(LocalObservable.rotated_shift(self.d, j) for j in self.letters)

    def __str__(self) -> str:
        if self.d == 3:
            return "".join(ROTATION_LETTERS[j] for j in self.letters)
        return "[" + ",".join(str(j) for j in self.letters) + "]"


def word_position(word: SettingWord) -> int:
    return word.position


class StateVector:
    """Sparse N-qudit state with exact cyclotomic amplitudes (unnormalized).

    Basis labels are integers in base d, little-endian: site 1 is the least
    significant digit.
    """

    __slots__ = ("d", "n_sites", "amplitudes")

    def __init__(self, d: int, n_sites: int, amplitudes: dict[int, CycInt]):
        self.d = d
        self.n_sites = n_sites
        self.amplitudes = {k: v for k, v in amplitudes.items() if not v.is_zero()}

    def amplitude(self, label: int) -> CycInt:
        amp = self.amplitudes.get(label)
        return amp if amp is not None else CycInt.zero(self.d * self.d)

    def items(self):
        return sorted(self.amplitudes.items())

    def scaled(self, factor: CycInt) -> StateVector:
        return StateVector(
            self.d, self.n_sites, {k: factor * v for k, v in self.amplitudes.items()}
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.d**self.n_sites, dtype=complex)
        for label, amp in self.amplitudes.items():
            out[label] = amp.to_complex()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (
            self.d == other.d
            and self.n_sites == other.n_sites
            and self.amplitudes == other.amplitudes
        )

    def __repr__(self) -> str:
        terms = ", ".join(f"{label}: {amp}" for label, amp in self.items())
        return f"StateVector(d={self.d}, n={self.n_sites}, {{{terms}}})"


def ghz_state(k: int, d: int, n_sites: int) -> StateVector:
    """GHZ state with amplitude alpha**(k*r) on |r r ... r>, r = 0..d-1.

    The 1/sqrt(d) normalization is deliberately omitted; all eigenvalue
    relations are homogeneous, so exact integer amplitudes suffice.
    """
    k, d = _integer(k, "GHZ indices"), _integer(d, "local dimensions")
    n_sites = _site_count(n_sites)
    m = d * d
    rep = (d**n_sites - 1) // (d - 1)  # label whose digits are all 1
    return StateVector(
        d, n_sites, {r * rep: root_of_unity(k * r, m) for r in range(d)}
    )


def apply_word(word: SettingWord, state: StateVector) -> StateVector:
    """Apply a setting word to a state: shift every digit, multiply phases."""
    if word.d != state.d:
        raise ValueError(f"dimension mismatch: word d={word.d}, state d={state.d}")
    if word.n_sites != state.n_sites:
        raise ValueError(
            f"length mismatch: word has {word.n_sites} sites, state {state.n_sites}"
        )
    d = word.d
    tables = _phase_array(d)[np.add(word.letters, (d - 1) // 2, dtype=int)].tolist()
    powers = [d**i for i in range(word.n_sites)]
    out: dict[int, CycInt] = {}
    for label, amp in state.amplitudes.items():
        phase = 0
        new_label = 0
        rem = label
        for i in range(word.n_sites):
            n_i = rem % d
            rem //= d
            phase += tables[i][n_i]
            new_label += ((n_i + 1) % d) * powers[i]
        # the label map is a bijection, so no accumulation is needed
        out[new_label] = amp.times_root(phase)
    return StateVector(d, word.n_sites, out)


def _ghz_phase(d: int, letters: np.ndarray, k: int) -> np.ndarray:
    """Alpha-exponents (mod d**2) of K words' eigenvalues read at every GHZ label.

    ``letters`` is a (K, N) array of rotation indices.  A word maps the GHZ
    label r (every digit r) to the label r + 1 (mod d), picking up alpha**e
    with e the sum over sites of the phase-table column r; on the GHZ state
    of index k, amplitude alpha**(k*r) on label r, it is an eigenoperator
    with eigenvalue alpha**(e + k*r - k*((r + 1) % d)) if that exponent is
    the same at every label.  Returns the (d, K) int64 exponents, row r read
    at label r; callers compare the rows.  This is the one place that reads
    how a word acts on a GHZ label.
    """
    m, half = d * d, (d - 1) // 2
    columns = _phase_array(d).T  # columns[r, j + half]: letter j on digit r
    offsets = [[(k * r - k * ((r + 1) % d)) % m] for r in range(d)]
    phase = np.repeat(np.array(offsets, dtype=np.int64), len(letters), axis=1)
    for site in letters.T + half:
        phase += np.take(columns, site, axis=1)
    return np.remainder(phase, m, out=phase)


def eigenphase(word: SettingWord, ghz_index: int = 0) -> PhaseExponent:
    """Exact eigenphase of a word on the GHZ state it stabilizes.

    Only words whose circle position is congruent to the GHZ index mod d are
    eigenoperators of that state; any other word, or a word with no sites,
    raises ValueError.  The d label readings of ``_ghz_phase`` must agree.
    """
    d, ghz_index = word.d, _integer(ghz_index, "GHZ indices")
    if (word.position - ghz_index) % d != 0:
        raise ValueError(
            f"word {word} at position {word.position} is not an eigenoperator "
            f"of the GHZ state with index {ghz_index} (need position == index mod {d})"
        )
    _site_count(word.n_sites)
    readings = _ghz_phase(d, np.array([word.letters], dtype=np.int64), ghz_index)
    if (readings != readings[0]).any():
        raise EigenstateError(
            f"word {word} is not proportional to the GHZ state with index {ghz_index}"
        )
    return PhaseExponent(int(readings[0, 0]), d * d)
