"""Oracles shared by the test modules.

``exact_sum`` and ``exact_letters_sum`` multiply one ``CycInt`` at a time and
share no code with the batched evaluator ``_enumeration._class_values``;
``class_tally`` is the per-row loop that ``_enumeration._class_tally``
replaced, and ``letter_band`` the per-letter ranking loop that
``_enumeration._band`` replaced, on the same bound and float prefixes.
``clean_json`` is the JSON formula that ``cli._json_text`` replaced.
"""

import json
import math
from collections import Counter

import numpy as np

from qudit_mermin._enumeration import (
    ProductSpace,
    _float_prefixes,
    _level_ends,
    decode_index,
    encode_index,
)
from qudit_mermin.cyclotomic import CycInt


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


def letter_band(space: ProductSpace) -> tuple[np.ndarray, np.ndarray]:
    """(last, parent) of the ranking band, one mat-vec, max and nonzero per letter.

    The per-letter loop that ``_enumeration._band`` replaced: block b scores
    the first ends[-1][b] prefixes by letter b alone, on the same bound and
    float prefixes, and the band keeps the classes whose upper bound reaches
    the largest lower bound.
    """
    ends = _level_ends(space.alphabet, space.n_sites)
    bound, fhat, p = _float_prefixes(space, ends)
    floor = -np.inf
    band = []
    for b, n in enumerate(ends[-1].tolist()):
        v = p[:n] @ fhat[b]
        scores = v.real * v.real + v.imag * v.imag
        lower, upper = scores - bound, scores + bound
        floor = max(floor, float(lower.max()))
        keep = np.nonzero(upper >= floor)[0]
        band.append((b, keep, upper[keep]))
    last, parents, upper = zip(*band)
    last = np.repeat(last, [len(k) for k in parents])
    parents, upper = np.concatenate(parents), np.concatenate(upper)
    final = upper >= floor
    return last[final], parents[final]


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
