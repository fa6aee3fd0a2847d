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
1, 2) at R, S, folded once per process (``_qutrit_table``) and named by
their letters' checked forms, not by their coefficients.  The exhaustive
searches are exact: ratio mode covers all 9**N ratio assignments with no
scan, since every letter is a root of unity times the all-ones row shifted
by one of three slots, and a proven bound leaves only the classes of one
shift: their values are three exact numbers
(``generalized._diagonal_search``).  Full mode first checks that the
operator's own terms are invariant under permuting sites, so a value
assignment's score depends only on the multiset of its per-site value
triples; adding c to one site's triple multiplies the value by omega**c,
so each assignment scores like its gauge, every triple shifted to x = 0.
It assigns the sites of the terms one at a time, exactly, on omega root
counts (uint8 counts, uint16 scores, in ranges proven from the term
count), over the C(N+8, 8) sorted multisets of gauge triples that stand
for the 27**N assignments.  A gauge class's rank is that of its multiset
of per-site ratios, evaluated once each in one prefix-sharing walk, so
each score is checked exactly against the ratio reduction, and the
largest float deviation from it is reported.

The value at one assignment is computed two independent ways, neither with
a ring multiply: ``hv_value_direct`` tallies the operator's terms by weight
and predicted value exponent in one ``bincount``, reading each term's value
exponent from the operator's cached codes over groups of four sites
(``MerminOperator.value_codes``), and ``hv_value_product_exact`` multiplies
the root counts of the per-site factors in one ``cyclotomic._site_product``
chain over the ratio letters; |3v|**2 = |P|**2 links them.

The GHZ contradictions are found as arrays: ``_witness_table`` keeps the
words at circle points 3 and 6 and reads their eigenphases with the GHZ
phase kernel, checked as ``eigenphase`` checks them;
``iter_contradiction_witnesses`` yields one ``WitnessRecord`` per row and
the ``witness`` command reads the arrays directly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._enumeration import (
    RawSearchResult,
    _class_letters,
    _class_tally,
    _class_values,
    _level_ends,
    _multiset_scores,
    _multiset_values,
    decode_index,
    encode_index,
    run_search,
)
from .cyclotomic import (
    CycInt,
    PhaseExponent,
    _check_budget,
    _integer,
    _read_only,
    _root_coeffs,
    _site_count,
    _site_product,
)
from .generalized import _diagonal_search, _qutrit_forms, _ratio_counts, ratio_space
from .mermin import _VALUE_GROUP_SITES, MerminOperator, build_mermin, counts_by_position
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
_SLOT_LETTERS = "BCA"
_LETTER_SLOT = {letter: p for p, letter in enumerate(_SLOT_LETTERS)}

# Full mode covers 27**N value assignments; this allows N <= 6.
FULL_SEARCH_CAP = 27**6

# permutation_class_max evaluates the C(N+2, 2) multisets of N shifts: N <= 8.
PERMUTATION_CLASS_CAP = math.comb(8 + 2, 2)


def _ratio_letter(r_exp: int, s_exp: int) -> int:
    """The ratio letter 3R + S of integer exponents taken mod 3; floats raise ValueError."""
    return 3 * (_integer(r_exp, "ratio exponents") % 3) + _integer(s_exp, "ratio exponents") % 3


def factor_value(letter: str, r_exp: int, s_exp: int) -> CycInt:
    """Exact per-site factor 1 + (.)R + (.)S for the product letter A, B or C."""
    if letter not in _LETTER_SLOT:
        raise ValueError(f"unknown product letter {letter!r} (expected 'A', 'B' or 'C')")
    return getattr(FactorTriple.at(r_exp, s_exp), f"{letter.lower()}_value")


@dataclass(frozen=True)
class FactorTriple:
    """The three per-site sums at one ratio choice (exact values)."""

    a_value: CycInt
    b_value: CycInt
    c_value: CycInt

    @classmethod
    def at(cls, r_exp: int, s_exp: int) -> FactorTriple:
        return _qutrit_table()[_ratio_letter(r_exp, s_exp)].triple

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


@lru_cache(maxsize=None)
def _qutrit_table() -> tuple[FactorTableRow, ...]:
    """The rows of ``factor_table``, ratio letter a = 3R + S in row a, built once.

    The values fold ``_ratio_counts(3)`` by ``_root_coeffs(9)``.  Letter a's
    form (a, s, c, k), checked in ``generalized._qutrit_forms``, says
    F_p(a) = alpha**(c + 3*p*k) * F_{p+s}(0) with F_q(0) = B, -C, A, so slot
    p holds letter ``_SLOT_LETTERS[(p + s) % 3]`` at 40*(c + 3*p*k) degrees,
    plus 180 for -C, taken into (-180, 180].
    """
    values = (_ratio_counts(3) @ _root_coeffs(9)).tolist()
    rows = []
    for (a, s, c, k), slots in zip(_qutrit_forms().tolist(), values):
        factors, entries = [], []
        for p in map(_LETTER_SLOT.get, "ABC"):
            value, letter = CycInt(9, tuple(slots[p])), _SLOT_LETTERS[(p + s) % 3]
            phase = float(180 - (180 - 40 * (c + 3 * p * k) - 180 * (letter == "C")) % 360)
            text = {0.0: letter, 180.0: f"-{letter}"}.get(phase, f"{letter}({phase:+.0f})")
            factors.append(value)
            entries.append(FactorEntry(letter, phase, abs(value.to_complex()), text))
        rows.append(FactorTableRow(a // 3, a % 3, FactorTriple(*factors), tuple(entries)))
    return tuple(rows)


def factor_table() -> tuple[FactorTableRow, ...]:
    """All nine ratio choices with their A, B, C factors, named by their checked forms."""
    return _qutrit_table()


@dataclass(frozen=True)
class HVAssignment:
    """Hidden-variable assignment for N qutrit sites.

    ``values[i] = (x, y, v)`` gives v(X_i) = omega**x and so on; ratio form
    R_i = omega**((y - x) % 3), S_i = omega**((v - x) % 3).  Assignments
    built from ratios are lifted with v(X_i) = 1.  Each exponent must be an
    integer (anything ``operator.index`` accepts, numpy integers included)
    in {0, 1, 2}, stored as a Python int; floats are refused, not truncated.
    It needs at least one site (else ValueError), as every entry point that
    takes N does.
    """

    values: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        values = []
        for triple in self.values:
            try:
                exponents = tuple(map(operator.index, triple))
            except TypeError:
                exponents = ()
            if len(exponents) != 3 or not all(0 <= e < 3 for e in exponents):
                raise ValueError(f"bad value exponents {triple}")
            values.append(exponents)
        _site_count(len(values))
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def uniform(cls, n_sites: int) -> HVAssignment:
        return cls(((0, 0, 0),) * _site_count(n_sites))

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
        return encode_index((3 * r + s for r, s in self.ratios), 9)

    def full_index(self) -> int:
        return encode_index((9 * x + 3 * y + v for x, y, v in self.values), 27)

    def ratio_symbols(self) -> tuple[tuple[str, str], ...]:
        return tuple((SYMBOLS[r], SYMBOLS[s]) for r, s in self.ratios)

    def value_symbols(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(
            (SYMBOLS[x], SYMBOLS[y], SYMBOLS[v]) for x, y, v in self.values
        )


@lru_cache(maxsize=None)
def _group_sums() -> np.ndarray:
    """Read-only (3g, 3**g) uint8 matrix: 9 at row 3k + c of each code whose digit k is c.

    A group's g value triples, flattened, times it give 9 times the value
    exponent sum of every column pattern (code) of the group.
    """
    g = _VALUE_GROUP_SITES
    digits = np.arange(3**g) // 3 ** np.arange(g)[:, None] % 3  # (g, 3**g)
    hits = digits[:, None, :] == np.arange(3)[:, None]
    return _read_only(9 * hits.reshape(3 * g, -1), np.uint8)


def hv_value_direct(assignment: HVAssignment, op: MerminOperator) -> CycInt:
    """Exact classical operator value: sum of weight * product of values.

    Term t predicts the value product omega**e_t with e_t = sum_i
    values[i][col], col the value column of its letter at site i.  The
    operator caches one code per group of g sites and term
    (``value_codes``), so a call reads no per-site index: it builds the
    (G, 3**g) table of 9 times each group's value sum per code (one small
    matmul by ``_group_sums``), gathers it at the codes and sums the G
    groups to 9*e_t, then adds w_t, the weight's alpha exponent.  One
    ``bincount`` of 9*e_t + w_t, its rows of 9 summed by e_t mod 3 and
    reduced by ``_root_coeffs(9)``, gives the weight sums W_k of the terms
    with e_t = k (mod 3), so the value is W_0 + omega*W_1 + omega**2*W_2
    for any root-of-unity weights, with no per-term ring arithmetic.

    Ranges.  Value exponents are at most 2, so a table entry is at most
    9 * 2g = 72 (uint8, the matmul's partial sums included); 9*e_t + w_t is
    at most 18N + 8 and is summed in the narrowest unsigned type that holds
    it (``np.min_scalar_type``), so it lies below 27 * ceil((2N + 1) / 3),
    the tally's length.  The codes are below 3**g * G, the width
    ``value_codes`` stores.
    """
    if op.d != 3:
        raise ValueError("direct hidden-variable evaluation is defined for d=3")
    if assignment.n_sites != op.n_sites:
        raise ValueError("assignment and operator have different site counts")
    n_sites, codes = op.n_sites, op.value_codes
    # the exponents as bytes; the sites past N in the last group read 0
    flat = bytes(itertools.chain.from_iterable(assignment.values))
    flat = flat.ljust(3 * _VALUE_GROUP_SITES * len(codes), b"\0")
    table = np.frombuffer(flat, np.uint8).reshape(len(codes), -1) @ _group_sums()
    key = table.ravel().take(codes).sum(axis=0, dtype=np.min_scalar_type(18 * n_sites + 8))
    np.add(key, op.weight_exponents, out=key, casting="unsafe")
    tally = np.bincount(key, minlength=27 * ((2 * n_sites + 3) // 3))
    rows = (tally.reshape(-1, 3, 9).sum(axis=0) @ _root_coeffs(9)).tolist()
    # canonical rows of Python ints, as ``CycInt._trusted`` takes them
    w0, w1, w2 = (CycInt._trusted(9, tuple(row)) for row in rows)
    return w0 + w1.times_root(3) + w2.times_root(6)


def hv_value_product_exact(r_exps, s_exps) -> CycInt:
    """Exact 3*v from the per-site factor products (sum over B, C, A).

    ``cyclotomic._site_product`` of the root counts of the ratio letters
    3*R_i + S_i (floats refused) in ``generalized._ratio_counts(3)``: one
    chain of circulant products over the sites, in int64 or Python integers
    by its range rule, then the slot sum folded once by ``_root_coeffs(9)``.
    Exact for every N >= 1, with no ``CycInt`` multiply.
    """
    r_exps, s_exps = tuple(r_exps), tuple(s_exps)
    if len(r_exps) != len(s_exps):
        raise ValueError("ratio vectors must have equal length")
    _site_count(len(r_exps))
    letters = list(map(_ratio_letter, r_exps, s_exps))
    slots = _site_product(_ratio_counts(3)[letters])
    return CycInt(9, tuple((slots.sum(axis=0) @ _root_coeffs(9)).tolist()))


def hv_value_product(r_exps, s_exps) -> float:
    """|v| from the factor products: exact intermediate, float magnitude."""
    return hv_value_product_exact(r_exps, s_exps).magnitude() / 3.0


def power_sum(n: int) -> int:
    """p_n = A**n + B**n + (-C)**n exactly, via p = 3*p' - 3*p'''."""
    n = _integer(n, "power sum indices")
    if n < 0:
        raise ValueError("power sums are defined for n >= 0")
    a, b, c = 3, 3, 9  # p_i, p_(i+1), p_(i+2) from i = 0
    for _ in range(n):
        a, b, c = b, c, 3 * c - 3 * a
    return a


def uniform_value(n_sites: int) -> int:
    """Classical value at the all-ones point: (A**N + B**N +- C**N)/3."""
    n_sites = _site_count(n_sites)
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
    """Each column's factor letter at every site, read from the cached ``_qutrit_table``."""
    rows = [_qutrit_table()[3 * r + s] for r, s in assignment.ratios]
    return {
        column: tuple(row.entries[i].letter for row in rows) for i, column in enumerate("ABC")
    }


def max_equals_uniform(result: SearchResult) -> bool:
    """Exact check that the search maximum equals the all-ones value."""
    u = uniform_value(result.n_sites)
    if result.mode == "ratio":
        target = CycInt.integer((3 * u) ** 2, 9)
    else:
        target = CycInt.integer(u * u, 9)
    return result.max_sq_coeffs == target.coeffs


def _ratio_ranking(n_sites: int) -> RawSearchResult:
    """Ratio mode by ranking every letter multiset (``run_search``), N <= 15: the oracle."""
    return run_search(ratio_space(3, n_sites))


def exhaustive_search(n_sites: int, mode: str = "ratio") -> SearchResult:
    """Cover every assignment and return the exact classical maximum.

    Ratio mode covers the 9**N ratio assignments through the factor-product
    form without scanning them: ``generalized._diagonal_search`` proves that
    only classes of one shift group can reach the maximum, and takes it from
    three exact values (N <= 321, under its float budget).  The class
    ranking it replaced, ``_ratio_ranking``, stays as its oracle.  Full mode
    covers the 27**N <= ``FULL_SEARCH_CAP`` = 27**6 value assignments of
    ``_full_search``: it checks that the operator terms are invariant under
    permuting sites (else ArithmeticError), and, since shifting one site's
    triple by c multiplies the value by omega**c, contracts their omega root
    counts site by site into the exact value of each of the C(N+8, 8)
    multisets of per-site triples with x = 0, one per 3**N assignments, as a
    uint16 |value|**2 (exact for the 3**(N-1) <= 243 terms of every admitted
    N).  Each class shares its rank with its multiset of per-site ratios,
    whose exact values come from one walk that shares prefix products: every
    score must equal the ratio reduction's exactly (else ArithmeticError),
    and the largest float deviation from it is reported.  An over-budget
    N raises ValueError before anything is built.  Ties are counted exactly
    and the arg-max reported is the lexicographically smallest maximizer
    (encoding R1,S1,...,RN,SN for ratio mode and X1,Y1,V1,... for full
    mode, with 1 < w < w^2).
    """
    n_sites = _site_count(n_sites)
    if mode == "ratio":
        raw = _diagonal_search(n_sites)
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


# _SHIFT[c, e] = (e - c) % 3: times omega**c, root count e - c becomes count e
_SHIFT = (np.arange(3) - np.arange(3)[:, None]) % 3


def _term_table(weights: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The terms' omega root counts, one ``bincount`` into a (3,) * (N + 1) uint8 table.

    Axis 0 is the weight's omega exponent, axis i site i's value column.  The
    guard n < 2**8 of ``_class_scores``' ranges runs before any allocation.
    """
    n_terms, n_sites = letters.shape
    if n_terms >= 2**8:
        raise OverflowError(
            "term count exceeds the exact uint8 root-count and uint16 score range"
        )
    shape = (3,) * (n_sites + 1)
    key = np.ravel_multi_index((weights % 3, *letters.T), shape)
    return np.bincount(key, minlength=3 ** (n_sites + 1)).astype(np.uint8).reshape(shape)


def _check_site_symmetry(table: np.ndarray) -> None:
    """Raise ArithmeticError unless permuting sites maps the terms onto themselves.

    The swap of sites 1 and 2 and the cyclic shift generate every
    permutation, so the ``_term_table`` is compared exactly with its
    transpose under each of the two.
    """
    sites = list(range(1, table.ndim))
    for order in (sites[1:2] + sites[:1] + sites[2:], sites[1:] + sites[:1]):
        if not np.array_equal(table.transpose(0, *order), table):
            raise ArithmeticError("the terms are not invariant under permuting sites")


def _class_scores(table: np.ndarray) -> np.ndarray:
    """Exact |value|**2 of each multiset of gauge-fixed value triples (0, y, v).

    Term t contributes omega**(weights[t] + sum_i value_i[letters[t, i]]).
    The sites of the ``_term_table`` are assigned one at a time over the
    sorted classes of the 9 letters w = 3y + v, each the triple (0, y, v),
    in the layout of ``_enumeration._level_ends(9, N)``: at level t, block w
    extends the first ends[t-1][w] classes of level t - 1 by letter w at
    site t.  Multiplying by omega**y reindexes the root axis (``_SHIFT``),
    so no ring arithmetic is done.  Returns one uint16 score per class, in
    that layout; it belongs to the arrangement that gives site i the class's
    i-th letter.  Adding c to a site's triple multiplies every term by
    omega**c, for any table, so every assignment scores as the class of its
    triples shifted to x = 0.

    Ranges.  Every count is a number of terms, at most n = n_terms, so the
    counts are exact in uint8 while n < 2**8.  With n_k the count of
    omega**k, the value is a + b*omega with a = n_0 - n_2 and b = n_1 - n_2,
    so |a|, |b| and |a - b| = |n_0 - n_1| are at most n and exact in int16.
    The score a*(a - b) + b*b is formed in place in int16, whose array
    arithmetic wraps mod 2**16, and read through a uint16 view: that is
    exact because the true score |value|**2 lies in [0, n**2], and n**2 <
    2**16 while n < 2**8.  The one guard n < 2**8 thus proves both ranges;
    ``_term_table`` checks it.
    """
    f = table.reshape(3, -1, 1)  # (root, letter columns, class)
    for sizes in _level_ends(9, table.ndim - 1):
        # rot[y, e, c]: the counts times omega**y, c the next site's letter
        rot = f.reshape(3, 3, -1, f.shape[-1])[_SHIFT]
        f = np.concatenate(
            [
                rot[0, :, 0, :, :k] + rot[w // 3, :, 1, :, :k] + rot[w % 3, :, 2, :, :k]
                for w, k in enumerate(sizes.tolist())
            ],
            axis=-1,
        )
    a, b = f[:2, 0] - f[2, 0].astype(np.int16)
    score = a - b
    score *= a
    b *= b
    score += b
    return score.view(np.uint16)


def _check_ratio_agreement(scores: np.ndarray, values: np.ndarray) -> None:
    """Raise ArithmeticError unless 9 * scores[k] == |P_k|**2 exactly for every k.

    ``values`` are the canonical coefficients of P = 3v of every multiset
    of per-site ratios (``_enumeration._multiset_values``), whose rank is
    that of the class of ``_class_scores`` with the same letters 3R + S.
    P * conj(P) = sum_ij P_i P_j alpha**(i - j) is formed as the phi**2
    products P_i P_j of every P, in one matmul by a fixed fold matrix whose
    row (i, j) is the canonical alpha**((i - j) mod 9) (``_root_coeffs``),
    with entries 0 or +-1.

    Range.  With w the largest |coefficient| of any P, every product
    P_i P_j and every partial sum of the fold is at most phi**2 * w**2 =
    36 * w**2 in magnitude, so the check runs in float64, where each of them
    is an exact integer while 36 * w**2 < 2**53, in any summation order and
    with or without FMA; an OverflowError refuses larger values.  The mass
    bound W = 3**(N+1) of the ratio space bounds w, so every N <= 14 passes,
    with 36 * W**2 about 1.7 * 10**8 at the full-search cap N = 6.
    """
    phi = values.shape[1]
    peak = int(np.abs(values).max())
    if phi * phi * peak * peak >= 2**53:
        raise OverflowError("ratio values exceed the exact float64 range of the check")
    fold = _root_coeffs(9)[(np.arange(phi)[:, None] - np.arange(phi)) % 9]
    p = np.ascontiguousarray(values.T, dtype=np.float64)  # (phi, K): classes innermost
    products = (p[:, None] * p).reshape(phi * phi, -1)
    square = fold.reshape(phi * phi, -1).T.astype(np.float64) @ products  # (phi, K)
    if not (np.array_equal(square[0], 9.0 * scores) and not square[1:].any()):
        raise ArithmeticError("a class score disagrees with its ratio multiset's |3v|**2")


def _full_search(n_sites: int) -> SearchResult:
    """Exact full scan over the multisets of gauge-fixed per-site value triples.

    ``cyclotomic._check_budget`` first refuses more than ``FULL_SEARCH_CAP``
    "full search" assignments 27**N.  One ``_term_table`` of the terms is
    checked to be invariant under permuting sites and walked by
    ``_class_scores``, so every assignment has the score of its gauge class
    (each site's triple shifted to x = 0, a map 3**N to one), and each of
    the C(N+8, 8) classes is scored once.  A class's letter 3y + v is both its
    full-index digit and its ratio digit, so its rank is its ratio
    multiset's, and ``_check_ratio_agreement`` checks each score exactly
    against ``_enumeration._multiset_values``.  The tie count is 3**N times
    ``_enumeration._class_tally``'s count over the maximizing classes
    (decoded by ``_class_letters``).  A digit below 9 precedes every digit
    with x > 0 and a maximizer's gauge image is a maximizer, so the least
    maximizing index is the tally's arg-min, read in base 27.
    ``ratio_agreement_max_abs_dev`` is |sqrt(score) - ratio |v|| maximized
    over the classes, |v| from ``_enumeration._multiset_scores`` at the same
    rank: the all-assignment maximum of the float comparison, bit for bit.
    """
    _check_budget("full search", FULL_SEARCH_CAP, 27, n_sites)
    table = _term_table(*_encode_terms(n_sites))
    _check_site_symmetry(table)
    scores = _class_scores(table)
    values = _multiset_values(ratio_space(3, n_sites))
    _check_ratio_agreement(scores, values)
    dev = np.sqrt(_multiset_scores(values, 9)) / 3.0
    dev -= np.sqrt(scores, dtype=np.float64)
    max_dev = float(np.abs(dev, out=dev).max())
    best = int(scores.max())
    hits = np.flatnonzero(scores == best)
    count, lexmin = _class_tally(_class_letters(_level_ends(9, n_sites + 1), hits), 27)
    return SearchResult(
        mode="full",
        n_sites=n_sites,
        max_magnitude=math.sqrt(best),
        max_sq_coeffs=CycInt.integer(best, 9).coeffs,
        argmax=HVAssignment.from_full_index(n_sites, lexmin),
        argmax_index=lexmin,
        argmax_factor_labels=None,
        num_maximizers=3**n_sites * count,
        assignments_scanned=27**n_sites,
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

    Shifts 0, 1, 2 are the ratio letters 0, 5, 7 of ``_qutrit_table``, the
    rows (1, 1), (w, w^2), (w^2, w).  Both values depend only on how many
    sites carry each shift (the per-site factors commute), so one
    ``_class_values`` call on their root counts evaluates each proper
    multiset once, at its sorted pattern, and the all-shift-1 pattern of
    ``full_shift_value``.
    The sorted patterns come in the lexicographic order of
    ``combinations_with_replacement``, each its multiset's first, so the
    first maximum (``argmax``) is the first maximizing pattern of all
    3**N.  N is limited by ``PERMUTATION_CLASS_CAP`` on the C(N+2, 2)
    shift multisets (else ValueError).
    """
    n_sites = _integer(n_sites, "site counts")
    if n_sites < 2:
        raise ValueError("need at least two sites for a proper nonempty subset")
    top = n_sites + 2
    _check_budget("shift multisets", PERMUTATION_CLASS_CAP, math.comb(top, 2), work=f"C({top}, 2)")
    shifts = [0, 5, 7]
    patterns = [
        p
        for p in itertools.combinations_with_replacement(range(3), n_sites)
        if p[0] == 0 and p[-1] != 0  # some sites shifted, not all
    ]
    letters = np.array(patterns + [(1,) * n_sites])
    # the rows' magnitudes in slot order, the B, C, A columns
    mags = np.array([[_qutrit_table()[a].entries[i].magnitude for i in (1, 2, 0)] for a in shifts])
    bounds = mags[letters[:-1]].prod(axis=1).sum(axis=1) / 3.0
    attained = [
        CycInt(9, tuple(row)).magnitude() / 3.0
        for row in _class_values(_ratio_counts(3)[shifts], letters).tolist()
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
    n_sites = _site_count(n_sites)
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


def _witness_table(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(letters, positions, phases) of the witnesses, in lexicographic word order.

    N < 1 and more than 3**8 "witness words" 3**N raise ValueError before
    ``_all_words``; ``letters`` is the (K, N) int8 array of the K words at
    circle points 3 and 6 and ``positions`` their points.  Their eigenphases on
    the GHZ state of index 0, alpha**e with e in ``phases`` (0, 3 or 6), come
    from one ``qudit_ops._ghz_phase`` call: its three label rows must agree and
    e must be a multiple of 3, else EigenstateError, as in ``eigenphase``.
    """
    n_sites = _site_count(n_sites)
    _check_budget("witness words", 3**8, 3, n_sites)
    letters = _all_words(3, n_sites)
    positions = letters.sum(axis=1, dtype=np.int64) % 9
    kept = (positions == 3) | (positions == 6)
    letters, positions = letters[kept], positions[kept]
    readings = _ghz_phase(3, letters, 0)
    if (readings != readings[0]).any():
        raise EigenstateError("a word is not proportional to the GHZ state")
    if (readings[0] % 3).any():
        raise EigenstateError("a witness eigenphase is not a power of omega")
    return letters, positions, readings[0]


def iter_contradiction_witnesses(n_sites: int):
    """All witnesses at points 3 and 6, in lexicographic word order.

    One record per row of ``_witness_table`` (N outside 1..8 raises
    ValueError on first use, a failed eigenphase check EigenstateError);
    the records equal those of ``contradiction_witness``.
    """
    letters, positions, phases = _witness_table(n_sites)
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
    n_sites = _site_count(n_sites)
    return 3 ** (n_sites - 1) / uniform_value(n_sites)
