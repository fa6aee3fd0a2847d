"""Classical (local hidden variable) values of the qutrit Mermin operator.

Every local observable is assigned a definite cube root of unity; only the
two per-site ratios R = v(Y)/v(X) and S = v(V)/v(X) affect the magnitude
of the operator value, which factorizes into three products of per-site
sums.  At R = S = 1 those sums are the three real constants

    A = 1 + 2*cos(2*pi/9) ~ 2.532
    B = 1 + 2*cos(4*pi/9) ~ 1.347
   -C = 1 + 2*cos(8*pi/9) ~ -0.879,

the roots of x**3 - 3*x**2 + 3, and the classical maximum for N sites is
(A**N + B**N +- C**N)/3, an exact integer computed here by the recurrence
p_N = 3*p_{N-1} - 3*p_{N-3} on the power sums.

The per-site factors are the d = 3 rows of ``generalized``'s ratio factor
table: ratio letter 3R + S holds the B, C and A factors (products p = 0,
1, 2) at R, S.  The exhaustive searches are exact: ratio mode covers all
9**N ratio assignments by evaluating each of the C(N+8, 8) multisets of
per-site letters of ``generalized.ratio_space(3, N)`` once (the factor
products commute across sites); full mode assigns
the sites of the operator's own terms one at a time, exactly over Z[omega],
and cross-checks the magnitude of each of the 27**N value assignments
against its ratio reduction.  Both run in one process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._enumeration import (
    decode_index,
    exact_letters_sum,
    full_space_scores,
    resolve_workers,
    run_search,
)
from .cyclotomic import CycInt, PhaseExponent, root_of_unity, root_sum
from .generalized import _ratio_factors, ratio_space
from .mermin import MerminOperator, build_mermin, counts_by_position
from .qudit_ops import (
    EigenstateError,
    SettingWord,
    _all_words,
    _phase_array,
    eigenphase,
)

__all__ = [
    "A_VALUE",
    "B_VALUE",
    "C_VALUE",
    "FactorTriple",
    "FactorTableRow",
    "FactorEntry",
    "HVAssignment",
    "SearchResult",
    "PermutationClassReport",
    "WitnessRecord",
    "factor_value",
    "factor_table",
    "hv_value_direct",
    "hv_value_product",
    "hv_value_product_exact",
    "power_sum",
    "uniform_value",
    "exhaustive_search",
    "permutation_class_max",
    "ghz_contradiction_count",
    "contradiction_witness",
    "iter_contradiction_witnesses",
    "violation_ratio",
]

A_VALUE = 1.0 + 2.0 * math.cos(2.0 * math.pi / 9.0)
B_VALUE = 1.0 + 2.0 * math.cos(4.0 * math.pi / 9.0)
C_VALUE = -(1.0 + 2.0 * math.cos(8.0 * math.pi / 9.0))

SYMBOLS = ("1", "w", "w^2")

# Product index p -> factor letter: the three products of the identity
# expansion are the B, C, A products in that order.
_LETTER_SLOT = {"B": 0, "C": 1, "A": 2}

# Rotation index of a qutrit letter -> column in the (X, Y, V) value triple.
_J_TO_COLUMN = {0: 0, 1: 1, -1: 2}

# Full mode covers 27**N value assignments; this allows N <= 5.
FULL_SEARCH_CAP = 10**8


def factor_value(letter: str, r_exp: int, s_exp: int) -> CycInt:
    """Exact per-site factor 1 + (.)R + (.)S for the given product letter."""
    return _ratio_factors(3)[3 * (r_exp % 3) + s_exp % 3][_LETTER_SLOT[letter]]


@dataclass(frozen=True)
class FactorTriple:
    """The three per-site sums at one ratio choice (exact values)."""

    a_value: CycInt
    b_value: CycInt
    c_value: CycInt

    @classmethod
    def at(cls, r_exp: int, s_exp: int) -> FactorTriple:
        return cls(
            a_value=factor_value("A", r_exp, s_exp),
            b_value=factor_value("B", r_exp, s_exp),
            c_value=factor_value("C", r_exp, s_exp),
        )

    def magnitudes(self) -> tuple[float, float, float]:
        return (
            self.a_value.magnitude(),
            self.b_value.magnitude(),
            self.c_value.magnitude(),
        )


@dataclass(frozen=True)
class FactorEntry:
    letter: str
    phase_deg: float
    magnitude: float
    text: str


@dataclass(frozen=True)
class FactorTableRow:
    r_exp: int
    s_exp: int
    triple: FactorTriple
    entries: tuple[FactorEntry, FactorEntry, FactorEntry]  # A, B, C columns


def _classify(value: CycInt) -> FactorEntry:
    z = value.to_complex()
    mag = abs(z)
    for letter, ref in (("A", A_VALUE), ("B", B_VALUE), ("C", C_VALUE)):
        if abs(mag - ref) < 1e-9:
            break
    else:
        raise ArithmeticError(f"factor magnitude {mag} matches none of A, B, C")
    phase = math.degrees(math.atan2(z.imag, z.real))
    # every factor is a real constant times a root of unity, so the true
    # phase is a multiple of 20 degrees; snap away the float noise
    snapped = 20.0 * round(phase / 20.0)
    if abs(phase - snapped) >= 1e-9:
        raise ArithmeticError(f"factor phase {phase} is off the 20-degree grid")
    phase = 180.0 if snapped == -180.0 else snapped
    if phase == 0.0:
        text = letter
    elif phase == 180.0:
        text = f"-{letter}"
    else:
        text = f"{letter}({phase:+.0f})"
    return FactorEntry(letter=letter, phase_deg=phase, magnitude=mag, text=text)


def factor_table() -> tuple[FactorTableRow, ...]:
    """All nine ratio choices with their classified A, B, C factors."""
    rows = []
    for r_exp in range(3):
        for s_exp in range(3):
            triple = FactorTriple.at(r_exp, s_exp)
            entries = (
                _classify(triple.a_value),
                _classify(triple.b_value),
                _classify(triple.c_value),
            )
            rows.append(FactorTableRow(r_exp, s_exp, triple, entries))
    return tuple(rows)


@dataclass(frozen=True)
class HVAssignment:
    """Hidden-variable assignment for N qutrit sites.

    ``values[i] = (x, y, v)`` gives v(X_i) = omega**x and so on; ratio form
    R_i = omega**((y - x) % 3), S_i = omega**((v - x) % 3).  Assignments
    built from ratios are lifted with v(X_i) = 1.
    """

    values: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for triple in self.values:
            if len(triple) != 3 or any(not 0 <= e < 3 for e in triple):
                raise ValueError(f"bad value exponents {triple}")

    @classmethod
    def uniform(cls, n_sites: int) -> HVAssignment:
        return cls(((0, 0, 0),) * n_sites)

    @classmethod
    def from_ratios(cls, pairs) -> HVAssignment:
        return cls(tuple((0, r % 3, s % 3) for r, s in pairs))

    @classmethod
    def from_ratio_index(cls, n_sites: int, index: int) -> HVAssignment:
        digits = decode_index(index, 9, n_sites)
        return cls.from_ratios((digit // 3, digit % 3) for digit in digits)

    @classmethod
    def from_full_index(cls, n_sites: int, index: int) -> HVAssignment:
        digits = decode_index(index, 27, n_sites)
        return cls(tuple((d // 9, (d // 3) % 3, d % 3) for d in digits))

    @property
    def n_sites(self) -> int:
        return len(self.values)

    @property
    def ratios(self) -> tuple[tuple[int, int], ...]:
        return tuple(((y - x) % 3, (v - x) % 3) for x, y, v in self.values)

    def ratio_index(self) -> int:
        index = 0
        for r, s in self.ratios:
            index = index * 9 + 3 * r + s
        return index

    def full_index(self) -> int:
        index = 0
        for x, y, v in self.values:
            index = index * 27 + 9 * x + 3 * y + v
        return index

    def ratio_symbols(self) -> tuple[tuple[str, str], ...]:
        return tuple((SYMBOLS[r], SYMBOLS[s]) for r, s in self.ratios)

    def value_symbols(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(
            (SYMBOLS[x], SYMBOLS[y], SYMBOLS[v]) for x, y, v in self.values
        )


def hv_value_direct(assignment: HVAssignment, op: MerminOperator) -> CycInt:
    """Exact classical operator value: sum of weight * product of values.

    Term t predicts the value product omega**e_t with e_t = sum_i
    values[i][col], col the value column of its letter at site i
    (``letters % 3``, as in ``_J_TO_COLUMN``).  The terms are grouped by
    e_t mod 3 and each group's weights are summed by one ``root_sum``, so
    the value is W_0 + omega*W_1 + omega**2*W_2 for any root-of-unity
    weights, with no per-term ring arithmetic.
    """
    if op.d != 3:
        raise ValueError("direct hidden-variable evaluation is defined for d=3")
    if assignment.n_sites != op.n_sites:
        raise ValueError("assignment and operator have different site counts")
    values = np.array(assignment.values, dtype=np.int64).reshape(op.n_sites, 3)
    e = values[np.arange(op.n_sites), op.letters % 3].sum(axis=1) % 3
    total = CycInt.zero(9)
    for k in range(3):
        total = total + root_sum(9, op.weight_exponents[e == k]).times_root(3 * k)
    return total


def hv_value_product_exact(r_exps, s_exps) -> CycInt:
    """Exact 3*v from the per-site factor products (sum over B, C, A)."""
    r_exps = tuple(r_exps)
    s_exps = tuple(s_exps)
    if len(r_exps) != len(s_exps):
        raise ValueError("ratio vectors must have equal length")
    letters = [3 * (r % 3) + s % 3 for r, s in zip(r_exps, s_exps)]
    return exact_letters_sum(9, _ratio_factors(3), letters)


def hv_value_product(r_exps, s_exps) -> float:
    """|v| from the factor products: exact intermediate, float magnitude."""
    return hv_value_product_exact(r_exps, s_exps).magnitude() / 3.0


def power_sum(n: int) -> int:
    """p_n = A**n + B**n + (-C)**n exactly, via p = 3*p' - 3*p'''."""
    if n < 0:
        raise ValueError("power sums are defined for n >= 0")
    p = [3, 3, 9]
    while len(p) <= n:
        p.append(3 * p[-1] - 3 * p[-3])
    return p[n]


def uniform_value(n_sites: int) -> int:
    """Classical value at the all-ones point: (A**N + B**N +- C**N)/3."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    q, r = divmod(power_sum(n_sites), 3)
    if r:
        raise ArithmeticError(f"power sum p_{n_sites} is not divisible by 3")
    return q


@dataclass(frozen=True, eq=True)
class SearchResult:
    """Outcome of an exhaustive scan, exact and partition-invariant."""

    mode: str
    n_sites: int
    max_magnitude: float
    max_sq_coeffs: tuple[int, ...]
    argmax: HVAssignment
    argmax_index: int
    argmax_factor_labels: dict[str, tuple[str, ...]] | None
    num_maximizers: int
    assignments_scanned: int
    details: dict = field(default_factory=dict)


def _argmax_labels(assignment: HVAssignment) -> dict[str, tuple[str, ...]]:
    labels: dict[str, tuple[str, ...]] = {}
    for letter in ("A", "B", "C"):
        labels[letter] = tuple(
            _classify(factor_value(letter, r, s)).letter
            for r, s in assignment.ratios
        )
    return labels


def max_equals_uniform(result: SearchResult) -> bool:
    """Exact check that the search maximum equals the all-ones value."""
    u = uniform_value(result.n_sites)
    if result.mode == "ratio":
        target = CycInt.integer((3 * u) ** 2, 9)
    else:
        target = CycInt.integer(u * u, 9)
    return result.max_sq_coeffs == target.coeffs


def exhaustive_search(
    n_sites: int, mode: str = "ratio", workers: int | None = None
) -> SearchResult:
    """Cover every assignment and return the exact classical maximum.

    Ratio mode covers the 9**N ratio assignments through the factor-product
    form, one evaluation per multiset of per-site ratios, and its C(N+8, 8)
    multisets are bounded by the budget of ``generalized.ratio_space``.  Full
    mode contracts the operator terms site by site into the exact value of
    each of the 27**N <= ``FULL_SEARCH_CAP`` value assignments and checks
    every magnitude against the ratio reduction.  An over-budget N raises
    ValueError before anything is built.  Both run in one process
    (``workers`` is validated only).  Ties are counted exactly and the
    arg-max reported is the lexicographically smallest maximizer (encoding
    R1,S1,...,RN,SN for ratio mode and X1,Y1,V1,... for full mode, with
    1 < w < w^2).
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    resolve_workers(workers)
    if mode == "ratio":
        raw = run_search(ratio_space(3, n_sites))
        assignment = HVAssignment.from_ratio_index(n_sites, raw.argmax_index)
        return SearchResult(
            mode="ratio",
            n_sites=n_sites,
            max_magnitude=math.sqrt(raw.best_sq_value) / 3.0,
            max_sq_coeffs=raw.best_sq_coeffs,
            argmax=assignment,
            argmax_index=raw.argmax_index,
            argmax_factor_labels=_argmax_labels(assignment),
            num_maximizers=raw.num_maximizers,
            assignments_scanned=raw.assignments_scanned,
            details={},
        )
    if mode == "full":
        return _full_search(n_sites)
    raise ValueError(f"unknown search mode {mode!r} (expected 'ratio' or 'full')")


def _encode_terms(n_sites: int):
    """Variant-0 terms as omega exponents of the weights and value columns."""
    op = build_mermin(3, n_sites, 0)
    if (op.weight_exponents % 3).any():
        raise ArithmeticError("a variant-0 weight is not a power of omega")
    weights = (op.weight_exponents // 3).astype(np.int16)
    letters = (op.letters % 3).astype(np.int8)  # j -> j % 3, as in _J_TO_COLUMN
    return weights, letters


# Z[omega] values are int64 pairs (a, b) meaning a + b*omega; row e is omega**e.
_OMEGA_PAIRS = np.array([[1, 0], [0, 1], [-1, -1]], dtype=np.int64)
# Full-index digit 9x + 3y + v of one site -> its ratio digit 3r + s.
_X, _Y, _V = np.indices((3, 3, 3)).reshape(3, -1)
_RATIO_DIGIT = 3 * ((_Y - _X) % 3) + (_V - _X) % 3
# The last _STREAMED_SITES sites are streamed in blocks of at most _BLOCK
# assignments; materializing them too would hold 27**N pairs at once.
_STREAMED_SITES = 2
_BLOCK = 3**11


def _site(f: np.ndarray) -> np.ndarray:
    """Assign the values (x, y, v) of the next site.

    ``f[:, c*R + r, j, p]`` (pair axis first) sums the terms whose letter
    there is column c, with r the letters of the later sites, j the values
    of the sites assigned so far and p a block of prefixes.  Returns
    out[:, r, 27j + 9x + 3y + v, p] = sum_c omega**(x, y, v)[c] f[:, c*R + r, j, p].
    """
    _, rows, assigned, prefixes = f.shape
    f = f.reshape(2, 3, rows // 3, assigned, prefixes)
    a, b = f[0], f[1]
    # rot[:, c, ..., e, :] = omega**e f[:, c]; omega*(a + b*omega) = -b + (a-b)*omega
    rot = np.stack([f, np.stack([-b, a - b]), np.stack([b - a, -a])], axis=-2)
    x, y, v = rot.swapaxes(0, 1)  # the rotated X, Y and V columns
    out = x[..., :, None, None, :] + y[..., None, :, None, :] + v[..., None, None, :, :]
    return out.reshape(2, rows // 3, 27 * assigned, prefixes)


def _contract_scores(weights: np.ndarray, letters: np.ndarray):
    """Exact |value|**2 of every value assignment, in lexicographic blocks.

    Term t contributes omega**(weights[t] + sum_i value_i[letters[t, i]]).
    The terms are scattered into a table over letter columns and the sites
    are assigned one at a time; the first N - s sites are materialized and
    the last s = min(N, _STREAMED_SITES) are streamed in blocks.  Yields
    ``(first, scores)`` where ``scores[j, i]`` belongs to the assignment
    with flat index (first + i) * 27**s + j.
    """
    n_terms, n_sites = letters.shape
    streamed = min(n_sites, _STREAMED_SITES)
    # Entries are sums of at most n_terms roots of unity, so |a|, |b| <= n_terms
    # and the partial sums of a*a - a*b + b*b stay within 3 * n_terms**2.
    if 3 * n_terms**2 >= 2**63:
        raise OverflowError("term count exceeds the exact int64 score range")
    f = np.zeros((2, 3**n_sites, 1, 1), dtype=np.int64)
    flat = np.ravel_multi_index(tuple(letters.T), (3,) * n_sites)
    np.add.at(f[:, :, 0, 0], (slice(None), flat), _OMEGA_PAIRS[weights % 3].T)
    for _ in range(n_sites - streamed):
        f = _site(f)
    # the materialized assignments become the prefix axis of the stream
    f = f.reshape(2, 3**streamed, 1, -1)
    step = max(1, _BLOCK // 27**streamed)
    for first in range(0, f.shape[3], step):
        g = f[..., first : first + step]
        for _ in range(streamed):
            g = _site(g)
        a, b = g[0, 0], g[1, 0]
        yield first, a * a - a * b + b * b


def _ratio_indices(n_sites: int) -> np.ndarray:
    """Ratio index of each of the 27**N full indices."""
    r = np.zeros(1, dtype=np.int64)
    for _ in range(n_sites):
        r = (9 * r[:, None] + _RATIO_DIGIT).ravel()
    return r


def _full_search(n_sites: int) -> SearchResult:
    # clamped: 27**k is over the cap for every k past its bit length
    if 27 ** min(n_sites, FULL_SEARCH_CAP.bit_length()) > FULL_SEARCH_CAP:
        raise ValueError(
            f"full search space 27**{n_sites} exceeds the cap of {FULL_SEARCH_CAP}"
        )
    weights, letters = _encode_terms(n_sites)
    ratio_mag = np.sqrt(full_space_scores(ratio_space(3, n_sites))) / 3.0
    streamed = min(n_sites, _STREAMED_SITES)
    prefix_ratio = _ratio_indices(n_sites - streamed) * 9**streamed
    tail_ratio = _ratio_indices(streamed)
    best = lexmin = -1
    count = scanned = 0
    max_dev = 0.0
    for first, score in _contract_scores(weights, letters):
        ridx = tail_ratio[:, None] + prefix_ratio[first : first + score.shape[1]]
        dev = np.abs(np.sqrt(score.astype(np.float64)) - ratio_mag[ridx])
        max_dev = max(max_dev, float(dev.max()))
        scanned += score.size
        cmax = int(score.max())
        if cmax > best:
            best, count, lexmin = cmax, 0, -1
        if cmax == best:
            hits = score == best
            count += int(np.count_nonzero(hits))
            if lexmin < 0:  # blocks arrive in increasing index order
                i, j = np.argwhere(hits.T)[0]
                lexmin = int((first + i) * len(score) + j)
    return SearchResult(
        mode="full",
        n_sites=n_sites,
        max_magnitude=math.sqrt(best),
        max_sq_coeffs=CycInt.integer(best, 9).coeffs,
        argmax=HVAssignment.from_full_index(n_sites, lexmin),
        argmax_index=lexmin,
        argmax_factor_labels=None,
        num_maximizers=count,
        assignments_scanned=scanned,
        details={"max_sq_int": best, "ratio_agreement_max_abs_dev": max_dev},
    )


@dataclass(frozen=True)
class PermutationClassReport:
    """Aligned bounds and attained values for pure-permutation assignments.

    Sites in a nonempty proper subset use the ratio rows (w, w^2) or
    (w^2, w), which cyclically permute the per-site factors; the remaining
    sites stay at (1, 1).  ``bound`` is the largest value such an
    assignment could reach if its three products were phase-aligned (the
    triangle-inequality ceiling, (A**2*B + B**2*C + C**2*A)/3 for N = 3);
    ``attained`` is the largest magnitude actually reached, which is
    strictly smaller.  Shifting every site identically is not a proper
    subset; that value is reported separately and reproduces the maximum.
    """

    n_sites: int
    bound: float
    bound_pattern: tuple[int, ...]
    attained: float
    attained_pattern: tuple[int, ...]
    full_shift_value: float


_SHIFT_RATIOS = {0: (0, 0), 1: (1, 2), 2: (2, 1)}


def permutation_class_max(n_sites: int = 3) -> PermutationClassReport:
    if n_sites < 2:
        raise ValueError("need at least two sites for a proper nonempty subset")
    slot_mags = {
        sigma: tuple(f.magnitude() for f in _ratio_factors(3)[3 * r + s])
        for sigma, (r, s) in _SHIFT_RATIOS.items()
    }
    best_bound = -1.0
    best_bound_pattern: tuple[int, ...] = ()
    best_attained = -1.0
    best_attained_pattern: tuple[int, ...] = ()
    for pattern in itertools.product(range(3), repeat=n_sites):
        n_shifted = sum(1 for sigma in pattern if sigma)
        if not 0 < n_shifted < n_sites:
            continue
        bound = 0.0
        for p in range(3):
            prod = 1.0
            for sigma in pattern:
                prod *= slot_mags[sigma][p]
            bound += prod
        bound /= 3.0
        ratios = [_SHIFT_RATIOS[sigma] for sigma in pattern]
        attained = hv_value_product(
            [r for r, _ in ratios], [s for _, s in ratios]
        )
        if bound > best_bound:
            best_bound = bound
            best_bound_pattern = pattern
        if attained > best_attained:
            best_attained = attained
            best_attained_pattern = pattern
    full_shift = hv_value_product((1,) * n_sites, (2,) * n_sites)
    return PermutationClassReport(
        n_sites=n_sites,
        bound=best_bound,
        bound_pattern=best_bound_pattern,
        attained=best_attained,
        attained_pattern=best_attained_pattern,
        full_shift_value=full_shift,
    )


def ghz_contradiction_count(n_sites: int) -> int:
    """Words at circle points 3 and 6; equals (2/3)(M_Q - M_C) exactly."""
    counts = counts_by_position(3, n_sites).counts
    if counts[3] != counts[6]:
        raise ArithmeticError("points 3 and 6 hold different word counts")
    n_ghz = counts[3] + counts[6]
    m_q = 3 ** (n_sites - 1)
    m_c = uniform_value(n_sites)
    if 3 * n_ghz != 2 * (m_q - m_c):
        raise ArithmeticError(f"{n_ghz} GHZ words are not (2/3)(M_Q - M_C)")
    return n_ghz


@dataclass(frozen=True)
class WitnessRecord:
    """One GHZ contradiction: quantum eigenphase vs uniform prediction."""

    word: SettingWord
    position: int
    quantum_omega_exponent: int
    quantum_value: complex
    hv_value: int
    contradicts: bool


def contradiction_witness(word: SettingWord) -> WitnessRecord:
    """Compute both sides of the contradiction for a word at point 3 or 6."""
    if word.d != 3:
        raise ValueError("witnesses are defined for d=3")
    k = word.position
    if k not in (3, 6):
        raise ValueError(
            f"word {word} sits at position {k}; witnesses exist at points 3 and 6"
        )
    phase = eigenphase(word, 0)
    if phase.exponent % 3:
        raise ArithmeticError(f"eigenphase of {word} is not a power of omega")
    omega_exp = phase.exponent // 3
    # Uniform prediction: the product of the assigned values, all omega**0.
    uniform = HVAssignment.uniform(word.n_sites)
    hv_exp = sum(
        uniform.values[i][_J_TO_COLUMN[j]] for i, j in enumerate(word.letters)
    ) % 3
    contradicts = not (phase.cyc() == root_of_unity(3 * hv_exp, 9))
    return WitnessRecord(
        word=word,
        position=k,
        quantum_omega_exponent=omega_exp,
        quantum_value=phase.to_complex(),
        hv_value=1,
        contradicts=contradicts,
    )


def iter_contradiction_witnesses(n_sites: int):
    """All witnesses at points 3 and 6, in lexicographic word order.

    The 3**N <= 3**8 words come from ``_all_words`` (N > 8 raises ValueError
    on first use).  A kept word's eigenphase on the GHZ state of index 0 is
    alpha**e, e the sum of its letters' ``_phase_array`` entries on any GHZ
    label (every digit r); the three labels must agree and e must be a
    multiple of 3, else EigenstateError, as in ``eigenphase``.  The records
    equal those of ``contradiction_witness``.
    """
    if not 0 <= n_sites <= 8:
        raise ValueError(f"witness scans need 0 <= N <= 8 (3**8 words), got {n_sites}")
    letters = _all_words(3, n_sites)
    positions = letters.sum(axis=1, dtype=np.int64) % 9
    kept = (positions == 3) | (positions == 6)
    letters, positions = letters[kept], positions[kept]
    table = _phase_array(3)  # table[j + 1, r]: letter j acting on digit r
    phases = np.zeros((len(letters), 3), dtype=np.int64)  # (words, label r)
    for column in letters.T:  # site by site
        phases += table[column + 1]
    phases %= 9
    if (phases != phases[:, :1]).any():
        raise EigenstateError("a word is not proportional to the GHZ state")
    if (phases[:, 0] % 3).any():
        raise EigenstateError("a witness eigenphase is not a power of omega")
    quantum = [PhaseExponent(e, 9).to_complex() for e in range(9)]
    # the uniform assignment predicts 1 for every word
    for row, k, e in zip(letters.tolist(), positions.tolist(), phases[:, 0].tolist()):
        yield WitnessRecord(
            word=SettingWord(3, tuple(row)),
            position=k,
            quantum_omega_exponent=e // 3,
            quantum_value=quantum[e],
            hv_value=1,
            contradicts=e != 0,
        )


def violation_ratio(n_sites: int) -> float:
    """Quantum over classical value, 3**(N-1) / uniform_value(N)."""
    return 3 ** (n_sites - 1) / uniform_value(n_sites)
