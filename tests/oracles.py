"""Oracles shared by the test modules.

``exact_sum`` and ``exact_letters_sum`` multiply one ``CycInt`` at a time and
share no code with the batched evaluator ``_enumeration._class_values``;
``class_tally`` is the per-row loop that ``_enumeration._class_tally``
replaced, and ``letter_band`` the per-letter ranking loop that
``_enumeration._band`` replaced, on the same bound and float prefixes.
``clean_json`` is the JSON formula that ``cli._json_text`` replaced, and
``triple_full_search`` the full search over all 27 value triples per site
that the x = 0 gauge of ``hidden_variables._class_scores`` replaced.
"""

import json
import math
from collections import Counter

import numpy as np

from qudit_mermin._enumeration import (
    ProductSpace,
    _class_letters,
    _class_tally,
    _float_prefixes,
    _level_ends,
    _multiset_scores,
    _multiset_values,
    decode_index,
    encode_index,
)
from qudit_mermin.cyclotomic import CycInt
from qudit_mermin.generalized import ratio_space
from qudit_mermin.hidden_variables import (
    HVAssignment,
    SearchResult,
    _SHIFT,
    _check_site_symmetry,
    _encode_terms,
    _term_table,
)


def exact_sum(space: ProductSpace, index: int) -> CycInt:
    """Pure-Python evaluation of the slot-product sum at one flat index."""
    digits = decode_index(index, space.alphabet, space.n_sites)
    sites = ProductSpace(space.order, space.n_sites, space.counts[list(digits)])
    return exact_letters_sum(space.order, sites.factors, range(space.n_sites))


def exact_letters_sum(order: int, factors, letters) -> CycInt:
    """sum_s prod_i factors[letters[i]][s], one ``CycInt`` product per site."""
    total = CycInt.zero(order)
    for s in range(len(factors[0])):
        prod = CycInt.one(order)
        for a in letters:
            prod = prod * factors[a][s]
        total = total + prod
    return total


def class_tally(letters, alphabet: int) -> tuple[int, int]:
    """N!/prod(m_a!) summed over sorted rows, one ``Counter`` per row, and the least index."""
    rows = letters.tolist()
    n_fact = math.factorial(letters.shape[1])
    count = sum(n_fact // math.prod(map(math.factorial, Counter(row).values())) for row in rows)
    return count, min(encode_index(row, alphabet) for row in rows)


def letter_band(space: ProductSpace) -> np.ndarray:
    """Ranks of the ranking band, one mat-vec, max and nonzero per letter.

    The per-letter loop that ``_enumeration._band`` replaced: block b scores
    the first ends[-1][b] prefixes by letter b alone, on the same bound and
    float prefixes, and the band keeps the classes whose upper bound reaches
    the largest lower bound.  Block b's classes start at rank
    ends[N][b] - ends[N-1][b], with ends = ``_level_ends(A, N + 1)``.
    """
    ends = _level_ends(space.alphabet, space.n_sites + 1)
    bound, fhat, p = _float_prefixes(space, ends[:-1])
    floor = -np.inf
    band = []
    for b, n in enumerate(ends[-2].tolist()):
        v = p[:n] @ fhat[b]
        scores = v.real * v.real + v.imag * v.imag
        lower, upper = scores - bound, scores + bound
        floor = max(floor, float(lower.max()))
        keep = np.nonzero(upper >= floor)[0]
        band.append((keep + (ends[-1][b] - ends[-2][b]), upper[keep]))
    ranks, upper = (np.concatenate(column) for column in zip(*band))
    return ranks[upper >= floor]


def clean_json(obj) -> str:
    """Floats rounded to 6 significant digits, tuples made lists, then ``json.dumps(indent=2)``."""

    def clean(x):
        if isinstance(x, float):
            return float(f"{x:.6g}")
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        return x

    return json.dumps(clean(obj), indent=2)


# The 27-letter walk full mode ran before the per-site gauge.  Walk letter w
# is the ratio digit 3r + s and the value triple (x, y, v) of full-index
# digit 9x + 3y + v, with r = y - x and s = v - x (mod 3): the walk takes the
# 27 triples in ratio-digit order, so a class sorted in walk letters has its
# ratio digits sorted too.
RATIO_DIGIT, _X = np.divmod(np.arange(27), 3)
_Y = (_X + RATIO_DIGIT // 3) % 3
_V = (_X + RATIO_DIGIT % 3) % 3
FULL_DIGIT = 9 * _X + 3 * _Y + _V


def triple_class_scores(table: np.ndarray) -> np.ndarray:
    """uint16 |value|**2 of every sorted multiset of the 27 walk letters.

    The ``_term_table``'s sites are assigned one at a time in the layout of
    ``_level_ends(27, N)``; a class's score belongs to the arrangement that
    gives site i its i-th walk letter, the triple of ``FULL_DIGIT``.
    """
    f = table.reshape(3, -1, 1)
    for sizes in _level_ends(27, table.ndim - 1):
        rot = f.reshape(3, 3, -1, f.shape[-1])[_SHIFT]
        f = np.concatenate(
            [
                rot[x, :, 0, :, :k] + rot[y, :, 1, :, :k] + rot[v, :, 2, :, :k]
                for x, y, v, k in zip(_X, _Y, _V, sizes.tolist())
            ],
            axis=-1,
        )
    a, b = f[:2, 0] - f[2, 0].astype(np.int16)
    score = a - b
    score *= a
    b *= b
    score += b
    return score.view(np.uint16)


def triple_ratio_ranks(n_sites: int) -> np.ndarray:
    """Each 27-letter class's ratio multiset, as its rank in ``_level_ends(9, N)``.

    The sum over the sites t of the offset of block r_t at level t, with
    r_1 <= ... <= r_N the class's ratio digits, carried level by level.
    """
    ends = _level_ends(9, n_sites + 1)
    rank = np.zeros(1, dtype=np.intp)
    for t, sizes in enumerate(_level_ends(27, n_sites)):
        offsets = (ends[t + 1] - ends[t])[RATIO_DIGIT].tolist()
        rank = np.concatenate([rank[:k] + o for o, k in zip(offsets, sizes.tolist())])
    return rank


def triple_full_search(n_sites: int):
    """The full search over the C(N+26, 26) multisets of value triples.

    Ties are counted over every maximizing 27-letter class, its arrangement
    sorted in full-index digits giving its least flat index, and the
    deviation reads each class's ratio multiset at its ``triple_ratio_ranks``.
    """
    table = _term_table(*_encode_terms(n_sites))
    _check_site_symmetry(table)
    scores = triple_class_scores(table)
    space = ratio_space(3, n_sites)
    dev = (np.sqrt(_multiset_scores(_multiset_values(space), 9)) / 3.0)[
        triple_ratio_ranks(n_sites)
    ]
    dev -= np.sqrt(scores, dtype=np.float64)
    best = int(scores.max())
    walk = _class_letters(_level_ends(27, n_sites + 1), np.flatnonzero(scores == best))
    count, lexmin = _class_tally(np.sort(FULL_DIGIT[walk], axis=1), 27)
    return SearchResult(
        mode="full",
        n_sites=n_sites,
        max_magnitude=math.sqrt(best),
        max_sq_coeffs=CycInt.integer(best, 9).coeffs,
        argmax=HVAssignment.from_full_index(n_sites, lexmin),
        argmax_index=lexmin,
        argmax_factor_labels=None,
        num_maximizers=count,
        assignments_scanned=27**n_sites,
        details={"max_sq_int": best, "ratio_agreement_max_abs_dev": float(np.abs(dev).max())},
    )
