"""Pure-Python ``CycInt`` oracles shared by the test modules.

They multiply one ring element at a time and share no code with the
batched evaluator ``_enumeration._class_values``; ``class_tally`` is the
per-row loop that ``_enumeration._class_tally`` replaced.
"""

import math
from collections import Counter

from qudit_mermin._enumeration import ProductSpace, decode_index, encode_index
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
