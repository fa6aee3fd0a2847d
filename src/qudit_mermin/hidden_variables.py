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
the sites of the operator's own terms one at a time, exactly over Z[omega]
(int16 pairs, uint16 scores, in ranges proven from the term count), and
checks the integer |v|**2 of each of the 27**N value assignments for
equality with its ratio reduction's score, rounded to an integer.

The value at one assignment is computed two independent ways, neither with
a ring multiply: ``hv_value_direct`` tallies the operator's terms by weight
and predicted value exponent in one ``bincount``, and
``hv_value_product_exact`` convolves the exponent histograms of the
per-site factors (``generalized._product_sum``); |3v|**2 = |P|**2 links them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._enumeration import (
    ProductSpace,
    _check_range,
    _class_values,
    decode_index,
    full_space_scores,
    run_search,
)
from .cyclotomic import CycInt, PhaseExponent, _root_coeffs
from .generalized import _factor_rows, _product_sum, ratio_space
from .mermin import MerminOperator, build_mermin, counts_by_position
from .qudit_ops import (
    EigenstateError,
    SettingWord,
    _all_words,
    _ghz_phase,
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

# Full mode covers 27**N value assignments; this allows N <= 6.
FULL_SEARCH_CAP = 27**6

# permutation_class_max evaluates the C(N+2, 2) multisets of N shifts;
# this allows N <= 8.
PERMUTATION_CLASS_CAP = math.comb(8 + 2, 2)


def _ratio_row(r_exp: int, s_exp: int) -> tuple[int, int, int]:
    """The ratio row (0, R, S) of integer exponents; floats raise ValueError."""
    try:
        return (0, operator.index(r_exp) % 3, operator.index(s_exp) % 3)
    except TypeError:
        raise ValueError(
            f"ratio exponents must be integers, got {r_exp}, {s_exp}"
        ) from None


def factor_value(letter: str, r_exp: int, s_exp: int) -> CycInt:
    """Exact per-site factor 1 + (.)R + (.)S for the given product letter."""
    return _factor_rows(3, [_ratio_row(r_exp, s_exp)])[0][_LETTER_SLOT[letter]]


@dataclass(frozen=True)
class FactorTriple:
    """The three per-site sums at one ratio choice (exact values)."""

    a_value: CycInt
    b_value: CycInt
    c_value: CycInt

    @classmethod
    def at(cls, r_exp: int, s_exp: int) -> FactorTriple:
        return _triple(_factor_rows(3, [_ratio_row(r_exp, s_exp)])[0])

    def magnitudes(self) -> tuple[float, float, float]:
        return (
            self.a_value.magnitude(),
            self.b_value.magnitude(),
            self.c_value.magnitude(),
        )


def _triple(row) -> FactorTriple:
    """The A, B, C factors of one ``_factor_rows`` row, whose slots hold B, C, A."""
    return FactorTriple(*(row[_LETTER_SLOT[letter]] for letter in "ABC"))


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


@lru_cache(maxsize=None)
def _factor_phases() -> dict[tuple[int, ...], tuple[str, float]]:
    """(letter, phase in degrees) of each exact factor s * alpha**e * L.

    L is one of the positive reals A, B, C (the R = S = 1 factors, with
    -C negated), s = +-1 and e < 9, so the phase is 40e degrees, plus 180
    when s = -1, taken into (-180, 180].  The 54 values are distinct.
    """
    table = {}
    uniform = _factor_rows(3, [(0, 0, 0)])[0]
    for letter, sign in (("A", 1), ("B", 1), ("C", -1)):
        base = uniform[_LETTER_SLOT[letter]] * sign
        for e in range(9):
            for s, turn in ((1, 0), (-1, 180)):
                phase = 180 - (180 - 40 * e - turn) % 360
                table[(base * s).times_root(e).coeffs] = (letter, float(phase))
    return table


def _classify(value: CycInt) -> FactorEntry:
    try:
        letter, phase = _factor_phases()[value.coeffs]
    except KeyError:
        raise ArithmeticError(
            f"factor {value} is not +-alpha**e times A, B or C"
        ) from None
    if phase == 0.0:
        text = letter
    elif phase == 180.0:
        text = f"-{letter}"
    else:
        text = f"{letter}({phase:+.0f})"
    return FactorEntry(
        letter=letter, phase_deg=phase, magnitude=abs(value.to_complex()), text=text
    )


def factor_table() -> tuple[FactorTableRow, ...]:
    """All nine ratio choices with their classified A, B, C factors."""
    pairs = [(r_exp, s_exp) for r_exp in range(3) for s_exp in range(3)]
    rows = []
    for (r_exp, s_exp), row in zip(pairs, _factor_rows(3, [(0, r, s) for r, s in pairs])):
        triple = _triple(row)
        entries = tuple(map(_classify, (triple.a_value, triple.b_value, triple.c_value)))
        rows.append(FactorTableRow(r_exp, s_exp, triple, entries))
    return tuple(rows)


@dataclass(frozen=True)
class HVAssignment:
    """Hidden-variable assignment for N qutrit sites.

    ``values[i] = (x, y, v)`` gives v(X_i) = omega**x and so on; ratio form
    R_i = omega**((y - x) % 3), S_i = omega**((v - x) % 3).  Assignments
    built from ratios are lifted with v(X_i) = 1.  Each exponent must be an
    integer (anything ``operator.index`` accepts, numpy integers included)
    in {0, 1, 2}; floats are refused rather than truncated.
    """

    values: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for triple in self.values:
            try:
                ok = len(triple) == 3 and all(0 <= operator.index(e) < 3 for e in triple)
            except TypeError:
                ok = False
            if not ok:
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
    values[i][col], col the value column of its letter at site i (read
    through the operator's cached ``value_columns``).  One ``bincount`` over
    the 27 bins 9*(e_t mod 3) + w_t (w_t the weight's alpha exponent) tallies
    the terms; row k of the tally, reduced by ``_root_coeffs(9)``, is the
    weight sum W_k of the terms with e_t = k (mod 3), so the value is
    W_0 + omega*W_1 + omega**2*W_2 for any root-of-unity weights, with no
    per-term ring arithmetic.
    """
    if op.d != 3:
        raise ValueError("direct hidden-variable evaluation is defined for d=3")
    if assignment.n_sites != op.n_sites:
        raise ValueError("assignment and operator have different site counts")
    values = np.array(assignment.values, dtype=np.int64).ravel()
    e = values.take(op.value_columns).sum(axis=0) % 3
    tally = np.bincount(9 * e + op.weight_exponents, minlength=27).reshape(3, 9)
    w0, w1, w2 = (CycInt(9, tuple(row)) for row in (tally @ _root_coeffs(9)).tolist())
    return w0 + w1.times_root(3) + w2.times_root(6)


def hv_value_product_exact(r_exps, s_exps) -> CycInt:
    """Exact 3*v from the per-site factor products (sum over B, C, A).

    ``generalized._product_sum`` on the (N, 3) integer ratio rows
    (0, R_i, S_i), floats refused: root counts multiplied site by site,
    exact for every N, with no ``CycInt`` multiply.
    """
    r_exps, s_exps = tuple(r_exps), tuple(s_exps)
    if len(r_exps) != len(s_exps):
        raise ValueError("ratio vectors must have equal length")
    ratios = [_ratio_row(r, s) for r, s in zip(r_exps, s_exps)]
    return _product_sum(3, np.array(ratios, dtype=np.int64).reshape(len(r_exps), 3))


def hv_value_product(r_exps, s_exps) -> float:
    """|v| from the factor products: exact intermediate, float magnitude."""
    return hv_value_product_exact(r_exps, s_exps).magnitude() / 3.0


def power_sum(n: int) -> int:
    """p_n = A**n + B**n + (-C)**n exactly, via p = 3*p' - 3*p'''."""
    if n < 0:
        raise ValueError("power sums are defined for n >= 0")
    a, b, c = 3, 3, 9  # p_i, p_(i+1), p_(i+2) from i = 0
    for _ in range(n):
        a, b, c = b, c, 3 * c - 3 * a
    return a


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
    """Outcome of an exhaustive scan, exact."""

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
    rows = _factor_rows(3, [(0, r, s) for r, s in assignment.ratios])
    return {
        letter: tuple(_classify(row[_LETTER_SLOT[letter]]).letter for row in rows)
        for letter in ("A", "B", "C")
    }


def max_equals_uniform(result: SearchResult) -> bool:
    """Exact check that the search maximum equals the all-ones value."""
    u = uniform_value(result.n_sites)
    if result.mode == "ratio":
        target = CycInt.integer((3 * u) ** 2, 9)
    else:
        target = CycInt.integer(u * u, 9)
    return result.max_sq_coeffs == target.coeffs


def exhaustive_search(n_sites: int, mode: str = "ratio") -> SearchResult:
    """Cover every assignment and return the exact classical maximum.

    Ratio mode covers the 9**N ratio assignments through the factor-product
    form, one evaluation per multiset of per-site ratios, and its C(N+8, 8)
    multisets are bounded by the budget of ``generalized.ratio_space``.  Full
    mode contracts the operator terms site by site into the exact value of
    each of the 27**N <= ``FULL_SEARCH_CAP`` = 27**6 value assignments, as
    a uint16 |value|**2 (exact for the 3**(N-1) <= 243 terms of every
    admitted N), and checks every score against the ratio reduction.  An
    over-budget N raises ValueError before anything is built.  Ties are
    counted exactly and the arg-max reported is the lexicographically
    smallest maximizer (encoding R1,S1,...,RN,SN for ratio mode and
    X1,Y1,V1,... for full mode, with 1 < w < w^2).
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
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
    letters = (op.letters % 3).astype(np.int8)  # j -> j % 3: X, Y, V for j = 0, 1, -1
    return weights, letters


# Z[omega] values are int16 pairs (a, b) meaning a + b*omega; row e is omega**e.
_OMEGA_PAIRS = np.array([[1, 0], [0, 1], [-1, -1]], dtype=np.int16)
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
    out = np.empty((2, rows // 3, assigned, 3, 3, 3, prefixes), dtype=f.dtype)
    np.add(x[..., :, None, None, :], y[..., None, :, None, :], out=out)
    out += v[..., None, None, :, :]
    return out.reshape(2, rows // 3, 27 * assigned, prefixes)


def _contract_scores(weights: np.ndarray, letters: np.ndarray):
    """Exact |value|**2 of every value assignment, in lexicographic blocks.

    Term t contributes omega**(weights[t] + sum_i value_i[letters[t, i]]).
    The terms are scattered into a table over letter columns and the sites
    are assigned one at a time; the first N - s sites are materialized and
    the last s = min(N, _STREAMED_SITES) are streamed in blocks.  Yields
    ``(first, scores)`` where ``scores[j, i]`` (uint16) belongs to the
    assignment with flat index (first + i) * 27**s + j.

    Ranges.  Every table entry, rotated column and partial column sum is a
    sum of at most n = n_terms roots of unity; with n_k of them equal to
    omega**k it is the pair (a, b) = (n_0 - n_2, n_1 - n_2), so |a|, |b| and
    |a - b| = |n_0 - n_1| are at most n, and so are the rotations -b, a - b,
    b - a and -a.  The pairs are therefore exact in int16 while n < 2**15.
    The score a*(a - b) + b*b is formed in place in int16, whose array
    arithmetic wraps mod 2**16, and read through a uint16 view: that is
    exact because the true score |value|**2 lies in [0, n**2], and n**2 <
    2**16 while n < 2**8.  The one guard n < 2**8 thus proves both ranges
    and is checked before anything is allocated.
    """
    n_terms, n_sites = letters.shape
    if n_terms >= 2**8:
        raise OverflowError(
            "term count exceeds the exact int16 pair and uint16 score range"
        )
    streamed = min(n_sites, _STREAMED_SITES)
    f = np.zeros((2, 3**n_sites, 1, 1), dtype=np.int16)
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
        # g is this block's own array (or a slice of f no later block reads)
        a, b = g[0, 0], g[1, 0]
        score = a - b
        score *= a
        b *= b
        score += b
        yield first, score.view(np.uint16)


def _ratio_indices(n_sites: int) -> np.ndarray:
    """Ratio index of each of the 27**N full indices."""
    r = np.zeros(1, dtype=np.int64)
    for _ in range(n_sites):
        r = (9 * r[:, None] + _RATIO_DIGIT).ravel()
    return r


def _full_search(n_sites: int) -> SearchResult:
    """Exact full scan, each score checked on integers against the ratio one.

    ``ref[r]`` is the ratio reduction's float |3v|**2 at ratio index r,
    divided by 9, rounded and taken mod 2**16 (uint16, like the scores);
    every full score must equal ``ref`` at its ratio index.  The reported
    ``ratio_agreement_max_abs_dev`` is the largest |sqrt(score) - ratio |v||
    over all 27**N assignments: a mismatched entry contributes its own
    deviation, and every matching entry of ratio index r has the score
    ``ref[r]``, so the matching ones contribute the deviation of ``ref[r]``,
    taken once per r that has at least one of its 3**N entries matching.
    So it is the all-entry float maximum bit for bit, found with float work
    only on mismatches and on the 9**N entries of ``ref``.  A mismatched
    score s <= n**2 (n the term count) is at least 1/2 from the ratio score
    q = |v|**2, so its deviation |s - q| / (sqrt(s) + sqrt(q)) is about
    1/(4n) or more, far above 1e-9; a ratio score of 2**16 or more matches
    only after the wrap, and its deviation, read from the same uint16
    ``ref``, shows the whole offset.
    """
    # clamped: 27**k is over the cap for every k past its bit length
    if 27 ** min(n_sites, FULL_SEARCH_CAP.bit_length()) > FULL_SEARCH_CAP:
        raise ValueError(
            f"full search space 27**{n_sites} exceeds the cap of {FULL_SEARCH_CAP}"
        )
    weights, letters = _encode_terms(n_sites)
    ratio_sq = full_space_scores(ratio_space(3, n_sites))
    ratio_mag = np.sqrt(ratio_sq) / 3.0
    # mod 2**16 like the scores: a reference that matches only by wrapping
    # shows its offset in the deviation, which is read from this same ref
    ref = np.rint(ratio_sq / 9.0).astype(np.int64).astype(np.uint16)
    streamed = min(n_sites, _STREAMED_SITES)
    prefix_ratio = _ratio_indices(n_sites - streamed)
    tail_ratio = _ratio_indices(streamed)
    # ref_by_tail[t, p] = ref[p * 9**streamed + t]
    ref_by_tail = ref.reshape(-1, 9**streamed).T.copy()
    misses = np.zeros(ref.size, dtype=np.int64)  # mismatched entries per r
    best = lexmin = -1
    count = scanned = 0
    max_dev = 0.0
    for first, score in _contract_scores(weights, letters):
        prefix = prefix_ratio[first : first + score.shape[1]]
        bad = score != ref_by_tail.take(prefix, axis=1).take(tail_ratio, axis=0)
        if bad.any():
            j, i = np.nonzero(bad)
            r = prefix[i] * 9**streamed + tail_ratio[j]
            dev = np.abs(np.sqrt(score[j, i].astype(np.float64)) - ratio_mag[r])
            max_dev = max(max_dev, float(dev.max()))
            misses += np.bincount(r, minlength=ref.size)
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
    matched = misses < 3**n_sites
    dev = np.abs(np.sqrt(ref[matched].astype(np.float64)) - ratio_mag[matched])
    max_dev = max(max_dev, float(dev.max(initial=0.0)))
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


def permutation_class_max(n_sites: int = 3) -> PermutationClassReport:
    """Best bound and attained value over the proper shift patterns.

    Shifts 0, 1, 2 are the ratio letters 0, 5, 7 of ``ratio_space(3, 1)``,
    the rows (1, 1), (w, w^2), (w^2, w).  Both values depend only on how
    many sites carry each shift (the per-site factors commute), so one
    ``_class_values`` call evaluates each proper multiset once, at its
    sorted pattern, and the all-shift-1 pattern of ``full_shift_value``.
    The sorted patterns come in the lexicographic order of
    ``combinations_with_replacement``, each its multiset's first, so the
    first maximum (``argmax``) is the first maximizing pattern of all
    3**N.  N is limited by ``PERMUTATION_CLASS_CAP`` on the C(N+2, 2)
    shift multisets (else ValueError).
    """
    if n_sites < 2:
        raise ValueError("need at least two sites for a proper nonempty subset")
    if math.comb(n_sites + 2, 2) > PERMUTATION_CLASS_CAP:
        raise ValueError(
            f"the C({n_sites}+2, 2) shift multisets exceed the cap of "
            f"{PERMUTATION_CLASS_CAP}"
        )
    space = ProductSpace(9, n_sites, ratio_space(3, 1).counts[[0, 5, 7]])
    _check_range(space)
    patterns = [
        p
        for p in itertools.combinations_with_replacement(range(3), n_sites)
        if p[0] == 0 and p[-1] != 0  # some sites shifted, not all
    ]
    letters = np.array(patterns + [(1,) * n_sites])
    mags = np.array([[f.magnitude() for f in row] for row in space.factors])
    bounds = mags[letters[:-1]].prod(axis=1).sum(axis=1) / 3.0
    attained = [
        CycInt(9, tuple(row)).magnitude() / 3.0
        for row in _class_values(space, letters).tolist()
    ]
    b, a = int(np.argmax(bounds)), int(np.argmax(attained[:-1]))
    return PermutationClassReport(
        n_sites=n_sites,
        bound=float(bounds[b]),
        bound_pattern=patterns[b],
        attained=attained[a],
        attained_pattern=patterns[a],
        full_shift_value=attained[-1],
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
    # the uniform assignment predicts 1 for every word
    return WitnessRecord(
        word=word,
        position=k,
        quantum_omega_exponent=phase.exponent // 3,
        quantum_value=phase.to_complex(),
        hv_value=1,
        contradicts=phase.exponent != 0,
    )


def iter_contradiction_witnesses(n_sites: int):
    """All witnesses at points 3 and 6, in lexicographic word order.

    The 3**N <= 3**8 words come from ``_all_words`` (N > 8 raises ValueError
    on first use).  A kept word's eigenphase on the GHZ state of index 0 is
    alpha**e, e read by ``qudit_ops._ghz_phase`` at each GHZ label; the
    three readings must agree and e must be a multiple of 3, else
    EigenstateError, as in ``eigenphase``.  The records equal those of
    ``contradiction_witness``.
    """
    if not 0 <= n_sites <= 8:
        raise ValueError(f"witness scans need 0 <= N <= 8 (3**8 words), got {n_sites}")
    letters = _all_words(3, n_sites)
    positions = letters.sum(axis=1, dtype=np.int64) % 9
    kept = (positions == 3) | (positions == 6)
    letters, positions = letters[kept], positions[kept]
    phases = _ghz_phase(3, letters, 0, 0)
    if any((_ghz_phase(3, letters, 0, r) != phases).any() for r in (1, 2)):
        raise EigenstateError("a word is not proportional to the GHZ state")
    if (phases % 3).any():
        raise EigenstateError("a witness eigenphase is not a power of omega")
    quantum = [PhaseExponent(e, 9).to_complex() for e in range(9)]
    # the uniform assignment predicts 1 for every word
    for row, k, e in zip(letters.tolist(), positions.tolist(), phases.tolist()):
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
