"""Exactness and ring-law tests for the cyclotomic integer arithmetic.

Float shadows used as oracles here are computed directly from the raw
polynomial coefficients with numpy, independent of the reduction code; the
ring operations are also checked against sympy's polynomial remainder
modulo the cyclotomic polynomial.
"""

import cmath
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qudit_mermin
from qudit_mermin import cyclotomic
from qudit_mermin.cyclotomic import (
    CycInt,
    PhaseExponent,
    compare_real_coeffs,
    order_params,
    root_of_unity,
    root_sums,
)

ALPHA9 = cmath.exp(2j * math.pi / 9)


def shadow(coeffs, m=9):
    """Independent float evaluation of sum_j coeffs[j] * alpha**j."""
    alpha = cmath.exp(2j * math.pi / m)
    return sum(c * alpha**j for j, c in enumerate(coeffs))


def test_identity_roots():
    assert root_of_unity(0, 9).is_one()
    assert root_of_unity(9, 9).is_one()
    assert root_of_unity(-9, 9).is_one()


def test_alpha6_reduces_against_cyclotomic_polynomial():
    # x**6 mod (x**6 + x**3 + 1) = -x**3 - 1
    reduced = root_of_unity(6, 9)
    assert reduced == CycInt.from_coeffs(9, [-1, 0, 0, -1, 0, 0])
    assert abs(ALPHA9**6 - shadow(reduced.coeffs)) < 1e-12


def test_product_of_inverse_roots():
    assert (root_of_unity(1, 9) * root_of_unity(8, 9)).is_one()
    for m in (9, 25):
        for j in range(m):
            assert (root_of_unity(j, m) * root_of_unity(m - j, m)).is_one()


def test_omega_sum_vanishes():
    omega = root_of_unity(3, 9)
    assert (CycInt.one(9) + (omega + omega * omega)).is_zero()


def test_squared_root_matches_root_of_double():
    a3 = root_of_unity(3, 9)
    assert a3 * a3 == root_of_unity(6, 9)


def test_invalid_orders_rejected():
    for bad in (0, 1, 4, 8, 10, 12, 27, 81, 100):
        with pytest.raises(ValueError):
            order_params(bad)
    assert order_params(9) == (3, 6)
    assert order_params(25) == (5, 20)
    assert order_params(49) == (7, 42)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        root_of_unity(1, 9) + root_of_unity(1, 25)
    with pytest.raises(ValueError):
        root_of_unity(1, 9) * root_of_unity(1, 25)


def test_reduction_idempotent_and_canonical_zero():
    raw = [3, -2, 0, 5, 0, 0, 1, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, -7]
    once = CycInt.from_coeffs(9, raw)
    again = CycInt.from_coeffs(9, once.coeffs)
    assert once == again
    # an exact multiple of the minimal polynomial reduces to all zeros
    phi9 = [1, 0, 0, 1, 0, 0, 1]
    assert CycInt.from_coeffs(9, phi9).is_zero()


def test_reduction_soundness_random_shadow():
    """is_zero agrees with the float shadow on random degree < 2m polys."""
    rng = np.random.default_rng(20240811)
    alpha_powers = np.exp(2j * np.pi * np.arange(18) / 9)
    coeffs = rng.integers(-10, 11, size=(10_000, 18))
    values = coeffs @ alpha_powers
    for row, value in zip(coeffs, values):
        element = CycInt.from_coeffs(9, row.tolist())
        assert element.is_zero() == (abs(value) < 1e-9)
    # exercise the zero branch: random multiples of the minimal polynomial
    phi9 = np.zeros(7, dtype=np.int64)
    phi9[[0, 3, 6]] = 1
    for _ in range(200):
        mult = rng.integers(-10, 11, size=12)
        prod = np.convolve(mult, phi9)
        element = CycInt.from_coeffs(9, prod.tolist())
        assert element.is_zero()
        assert abs(prod @ np.exp(2j * np.pi * np.arange(prod.size) / 9)) < 1e-9


def _random_elements(rng, count, m=9, span=6):
    _, phi = order_params(m)
    rows = rng.integers(-span, span + 1, size=(count, phi))
    return [CycInt(m, tuple(int(v) for v in row)) for row in rows]


def test_ring_axioms_random_with_shadow():
    rng = np.random.default_rng(7)
    triples = zip(
        _random_elements(rng, 300),
        _random_elements(rng, 300),
        _random_elements(rng, 300),
    )
    for a, b, c in triples:
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        lhs = shadow((a * b).coeffs)
        rhs = shadow(a.coeffs) * shadow(b.coeffs)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_conjugation_laws():
    rng = np.random.default_rng(11)
    for a, b in zip(_random_elements(rng, 200), _random_elements(rng, 200)):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        norm = a * a.conjugate()
        assert abs(a.magnitude() ** 2 - norm.to_complex().real) < 1e-9
        assert abs(norm.to_complex().imag) < 1e-9
    for j in range(9):
        assert root_of_unity(j, 9).conjugate() == root_of_unity(9 - j, 9)


def test_factor_constant_magnitudes():
    one = CycInt.one(9)
    a_factor = one + root_of_unity(8, 9) + root_of_unity(1, 9)
    b_factor = one + root_of_unity(2, 9) + root_of_unity(7, 9)
    c_factor = one + root_of_unity(5, 9) + root_of_unity(4, 9)
    assert abs(a_factor.magnitude() - 2.532) < 1e-3
    assert abs(b_factor.magnitude() - 1.347) < 1e-3
    z = c_factor.to_complex()
    assert abs(z.imag) < 1e-12
    assert z.real < 0
    assert abs(z.real - (-0.879)) < 1e-3


def test_integer_and_root_queries():
    six = CycInt.integer(6, 9)
    assert six.is_integer() and six.as_integer() == 6
    with pytest.raises(ValueError):
        (six + root_of_unity(1, 9)).as_integer()
    assert root_of_unity(7, 9).as_root_exponent() == 7
    assert (root_of_unity(1, 9) + root_of_unity(2, 9)).as_root_exponent() is None


def test_phase_exponent_normalization_and_product():
    p = PhaseExponent(11, 9)
    assert p.exponent == 2
    q = PhaseExponent(-2, 9)
    assert q.exponent == 7
    assert (p * q).exponent == 0
    assert p.cyc() == root_of_unity(2, 9)
    assert abs(p.to_complex() - ALPHA9**2) < 1e-12
    assert p.conjugate().exponent == 7


def test_pow_and_int_mixing():
    omega = root_of_unity(3, 9)
    assert omega**3 == CycInt.one(9)
    assert (2 * omega + 1) == omega + omega + 1
    assert (omega - 1) + 1 == omega
    with pytest.raises(ValueError):
        omega ** (-1)


def test_compare_real_coeffs_orders_values(monkeypatch):
    one = CycInt.integer(1, 9).coeffs
    two = CycInt.integer(2, 9).coeffs
    assert compare_real_coeffs(9, two, one) == 1
    assert compare_real_coeffs(9, one, two) == -1
    assert compare_real_coeffs(9, one, one) == 0
    # a genuinely close pair: 2*cos(2*pi/9) vs its 6-digit rational shadow
    close = CycInt.from_coeffs(9, [0, 1, 0, 0, 0, 0, 0, 0, 1]).coeffs
    assert compare_real_coeffs(9, close, CycInt.integer(1, 9).coeffs) == 1
    # x = 2*cos(80 deg) lies in (0, 1), so x**14 ~ 3.7e-7 is inside the float
    # noise band and only the high-precision fallback can order it against 0
    calls = []
    fallback = cyclotomic.mp_real_value
    monkeypatch.setattr(
        cyclotomic, "mp_real_value", lambda *a: calls.append(a) or fallback(*a)
    )
    tiny = ((root_of_unity(2, 9) + root_of_unity(7, 9)) ** 14).coeffs
    zero = CycInt.zero(9).coeffs
    assert compare_real_coeffs(9, tiny, zero) == 1
    assert compare_real_coeffs(9, zero, tiny) == -1
    assert len(calls) == 2


def test_package_import_leaves_mpmath_unloaded():
    # mpmath is imported only by the high-precision comparison fallback, and
    # click only by the command line
    src = str(Path(qudit_mermin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, qudit_mermin; print('mpmath' in sys.modules, 'click' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("k", [160, 200])
def test_compare_real_coeffs_past_the_float_shadow(k):
    # x = (2 cos 80 deg)**k is 3.3e-74 (k = 160) or 1.4e-92 (k = 200), while
    # its coefficients sum to ~1e44 or more: the float shadow is pure noise
    x = ((root_of_unity(2, 9) + root_of_unity(7, 9)) ** k).coeffs
    zero = CycInt.zero(9).coeffs
    one = CycInt.one(9).coeffs
    assert compare_real_coeffs(9, x, zero) == 1
    assert compare_real_coeffs(9, zero, x) == -1
    assert compare_real_coeffs(9, x, one) == -1
    assert compare_real_coeffs(9, one, x) == 1


def test_compare_real_coeffs_beyond_the_float_range():
    # coefficients past 2**1024 have no float shadow; the exact path orders them
    big = CycInt.integer(10**400, 9)
    assert compare_real_coeffs(9, (big + 1).coeffs, big.coeffs) == 1
    assert compare_real_coeffs(9, big.coeffs, (big + 1).coeffs) == -1


X = sympy.Symbol("x")
ORDERS = st.sampled_from([9, 25, 49])


@functools.cache
def cyclotomic_poly(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X)


def sympy_canonical(m, poly):
    """Coefficients of poly mod Phi_m(x), lowest degree first, phi of them."""
    rem = sympy.rem(poly, cyclotomic_poly(m))
    coeffs = [int(c) for c in reversed(rem.all_coeffs())]
    _, phi = order_params(m)
    return tuple(coeffs + [0] * (phi - len(coeffs)))


def sympy_poly(powers):
    """sum_e c_e x**e from {e: c_e}."""
    return sympy.Poly(sum((c * X**e for e, c in powers.items()), sympy.Integer(0)), X)


def element(m, draw, bound=10**6):
    _, phi = order_params(m)
    return draw(st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi))


@settings(max_examples=60, deadline=None)
@given(ORDERS, st.data())
def test_ring_operations_match_sympy(m, data):
    a = element(m, data.draw)
    b = element(m, data.draw)
    j = data.draw(st.integers(-3 * m, 3 * m))
    pa, pb = sympy_poly(dict(enumerate(a))), sympy_poly(dict(enumerate(b)))
    x, y = CycInt(m, tuple(a)), CycInt(m, tuple(b))
    assert (x * y).coeffs == sympy_canonical(m, pa * pb)
    assert x.times_root(j).coeffs == sympy_canonical(m, pa * sympy_poly({j % m: 1}))
    # conjugation sends alpha**e to alpha**(m - e)
    conjugate = sympy_poly({(-e) % m: c for e, c in enumerate(a) if c})
    assert x.conjugate().coeffs == sympy_canonical(m, conjugate)


@settings(max_examples=60, deadline=None)
@given(
    ORDERS, st.lists(st.integers(-10**4, 10**4), max_size=200), st.integers(1, 4)
)
def test_root_sum_matches_sympy(m, exponents, rows):
    def canonical(values):
        powers = {}
        for e in values:
            powers[e % m] = powers.get(e % m, 0) + 1
        return sympy_canonical(m, sympy_poly(powers))

    assert tuple(root_sums(m, [exponents])[0].tolist()) == canonical(exponents)
    # batched: the same exponents as ``rows`` rows of K terms, K = 0 included
    k = len(exponents) // rows
    batch = np.array(exponents[: rows * k], dtype=np.int64).reshape(rows, k)
    sums = root_sums(m, batch)
    assert sums.shape == (rows, order_params(m)[1]) and sums.dtype == np.int64
    expected = [canonical(row) for row in batch.tolist()]
    assert [tuple(row) for row in sums.tolist()] == expected
    assert not root_sums(m, np.empty((rows, 0), dtype=np.int64)).any()


@settings(max_examples=40, deadline=None)
@given(ORDERS, st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 12)),
       st.integers(0, 2**32 - 1))
def test_root_sums_rows_equal_root_sum(m, shape, seed):
    exponents = np.random.default_rng(seed).integers(-3 * m, 3 * m, size=shape)
    sums = root_sums(m, exponents)
    assert sums.shape == shape[:2] + (order_params(m)[1],)
    for index in np.ndindex(*shape[:2]):
        assert np.array_equal(sums[index], root_sums(m, exponents[index][None])[0])


def cyclic_product(m, rows):
    """Pure-Python product of count rows modulo x**m - 1, starting from x**0."""
    acc = [1] + [0] * (m - 1)
    for row in rows:
        out = [0] * m
        for e, a in enumerate(acc):
            for f, b in enumerate(row):
                out[(e + f) % m] += a * b
        acc = out
    return acc


@settings(max_examples=40, deadline=None)
@given(ORDERS, st.integers(0, 4), st.integers(1, 3), st.sampled_from([1, 2**40]),
       st.integers(0, 2**32 - 1))
@example(9, 2, 1, 2**40, 0)  # mass bound far above 2**63: Python integers
def test_site_product_matches_the_python_polynomial_product(m, n_sites, slots, scale, seed):
    counts = scale * np.random.default_rng(seed).integers(0, 4, size=(n_sites, slots, m))
    product = cyclotomic._site_product(counts)
    bound = slots * math.prod(int(site.sum(axis=-1).max()) for site in counts)
    assert product.shape == (slots, m)
    assert product.dtype == (np.int64 if bound < 2**63 else object)
    for s in range(slots):
        assert product[s].tolist() == cyclic_product(m, counts[:, s].tolist())


def test_site_product_switches_to_python_integers_at_its_bound():
    # one site of mass 2**63 - 1 stays int64; two slots of it reach the bound
    row = [2**62, 2**62 - 1] + [0] * 7
    assert cyclotomic._site_product([[row]]).dtype == np.int64
    product = cyclotomic._site_product([[row, row]])
    assert product.dtype == object and product.tolist() == [row, row]
    # the fold of a Python-integer slot sum stays exact
    total = product.sum(axis=0) @ cyclotomic._root_coeffs(9)
    assert tuple(total.tolist()) == CycInt.from_coeffs(9, [2**63, 2**63 - 2]).coeffs


@settings(max_examples=40, deadline=None)
@given(ORDERS, st.integers(1, 3), st.integers(0, 4), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@example(9, 2, 0, 2, 0)  # no sites: 1 in every slot of every element
@example(25, 3, 1, 2, 0)  # one site: the counts themselves
def test_site_product_batches_match_one_call_per_element(m, batch, n_sites, slots, seed):
    counts = np.random.default_rng(seed).integers(0, 4, size=(batch, 2, n_sites, slots, m))
    product = cyclotomic._site_product(counts)
    assert product.shape == (batch, 2, slots, m) and product.dtype == np.int64
    for index in np.ndindex(batch, 2):
        assert np.array_equal(product[index], cyclotomic._site_product(counts[index]))
        for s in range(slots):
            assert product[index][s].tolist() == cyclic_product(m, counts[index][:, s].tolist())


def test_site_product_batch_switches_to_python_integers_as_a_whole():
    # only element 1 crosses the bound: 2 * (9 * 2**41)**2 >= 2**63
    counts = np.random.default_rng(19).integers(1, 3, size=(3, 2, 2, 9))
    counts[1] *= 2**40
    assert cyclotomic._site_product(counts[0]).dtype == np.int64
    product = cyclotomic._site_product(counts)
    assert product.dtype == object
    for k, s in np.ndindex(3, 2):
        assert product[k, s].tolist() == cyclic_product(9, counts[k, :, s].tolist())


def test_root_exponents_accept_numpy_integers():
    assert PhaseExponent(np.int64(10), 9) == PhaseExponent(1, 9)
    assert root_of_unity(np.int8(3), 9) == root_of_unity(3, 9) == PhaseExponent(3, 9).cyc()


def sympy_real_sign(m, coeffs):
    """Sign of sum_j c_j cos(2*pi*j/m), decided by sympy."""
    terms = [c * sympy.cos(2 * sympy.pi * j / m) for j, c in enumerate(coeffs) if c]
    return int(sympy.sign(sympy.Add(*terms)))


@settings(max_examples=60, deadline=None)
@given(ORDERS, st.data())
def test_compare_real_coeffs_matches_sympy_sign(m, data):
    # real values y + conj(y): an independent pair, or a pair that differs by
    # t * (2*cos(2*pi*a/m))**k with a near m/4, which is tiny for large k
    y = CycInt(m, tuple(element(m, data.draw, bound=100)))
    x1 = y + y.conjugate()
    if data.draw(st.booleans()):
        z = CycInt(m, tuple(element(m, data.draw, bound=100)))
        x2 = z + z.conjugate()
    else:
        a = round(m / 4)
        small = root_of_unity(a, m) + root_of_unity(-a, m)  # |2cos(2*pi*a/m)| < 1
        x2 = x1 + small ** data.draw(st.integers(0, 40)) * data.draw(st.integers(-2, 2))
    expected = sympy_real_sign(m, [p - q for p, q in zip(x1.coeffs, x2.coeffs)])
    assert compare_real_coeffs(m, x1.coeffs, x2.coeffs) == expected
    assert compare_real_coeffs(m, x2.coeffs, x1.coeffs) == -expected
