"""Exact arithmetic over cyclotomic integers Z[alpha], alpha = exp(2*pi*i/m).

Supported orders are m = d**2 with d an odd prime.  Elements are integer
coordinate vectors over the power basis 1, alpha, ..., alpha**(phi(m)-1),
reduced modulo the m-th cyclotomic polynomial

    Phi_m(x) = 1 + x**d + x**(2*d) + ... + x**((d-1)*d),

which is the minimal polynomial of alpha, so equality and zero tests on the
canonical form are exact.  A float "shadow" (``to_complex``, ``magnitude``)
is provided for reporting and for cross-checks; it never feeds back into the
ring operations.

For qutrits m = 9: alpha = exp(2*pi*i/9) and omega = alpha**3 is the usual
cube root of unity, so all amplitudes, operator weights, and hidden-variable
values handled by this package live in a single ring.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CycInt",
    "PhaseExponent",
    "root_of_unity",
    "root_sums",
    "order_params",
    "compare_real_coeffs",
]


@lru_cache(maxsize=None, typed=True)  # typed: 9.0 is checked, not a hit on 9
def order_params(m: int) -> tuple[int, int]:
    """Validate an order m = d**2 (d an odd prime) and return (d, phi(m)).

    phi(d**2) = d*(d-1) is the length of the reduced coefficient vector.
    """
    m = _integer(m, "cyclotomic orders")
    if m <= 0:
        raise ValueError(f"invalid cyclotomic order {m}")
    d = math.isqrt(m)
    is_odd_prime = (
        d >= 3 and d % 2 == 1 and all(d % q for q in range(3, math.isqrt(d) + 1, 2))
    )
    if d * d != m or not is_odd_prime:
        raise ValueError(
            f"invalid cyclotomic order {m}: expected d**2 with d an odd prime"
        )
    return d, d * (d - 1)


def _reduce(m: int, raw) -> tuple[int, ...]:
    """Reduce power-basis coefficients (any length) to the canonical vector.

    Exponents are first folded mod m (alpha**m = 1); the top d exponents are
    then eliminated with alpha**(phi+t) = -sum_{j<d-1} alpha**(j*d+t), which
    is division by Phi_m.
    """
    d, phi = order_params(m)
    tmp = [0] * m
    for e, c in enumerate(raw):
        if c:
            tmp[e % m] += c
    for t in range(d):
        c = tmp[phi + t]
        if c:
            tmp[phi + t] = 0
            for j in range(d - 1):
                tmp[j * d + t] -= c
    return tuple(tmp[:phi])


@lru_cache(maxsize=None)
def _alpha_powers(m: int) -> tuple[complex, ...]:
    """alpha**j for every j < m, one ``cmath.exp`` each."""
    order_params(m)
    return tuple(cmath.exp(2j * math.pi * j / m) for j in range(m))


def _read_only(values, dtype) -> np.ndarray:
    """A read-only ``dtype`` copy or view of integer values; floats raise, never cast."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise ValueError(f"arrays must be integers, got a {values.dtype} array")
    view = values.astype(dtype, copy=False).view()
    view.flags.writeable = False
    return view


def _integer(value, what: str) -> int:
    """An integer argument as a Python int (numpy's too); a float, 3.0 included, raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {value!r}") from None


def _site_count(n_sites) -> int:
    """A site count N as a Python int (``_integer``); N < 1 raises ValueError."""
    n_sites = _integer(n_sites, "site counts")
    if n_sites < 1:
        raise ValueError("need at least one site")
    return n_sites


def _check_budget(what: str, cap: int, base: int, exponent: int = 1, work: str = "") -> None:
    """The one work-budget rule: ValueError when base**exponent units of ``what`` exceed cap.

    Engines state their work from checked arguments (base, exponent >= 0) before
    they allocate; ``work`` writes a product or binomial, so no over-cap number is
    spelled out.  For base >= 2 every exponent past ``cap.bit_length()`` is over.
    """
    if base ** min(exponent, cap.bit_length()) > cap:
        raise ValueError(f"{what}: {work or f'{base}**{exponent}'} exceeds the cap of {cap}")


@lru_cache(maxsize=None)
def _root_coeffs(m: int) -> np.ndarray:
    """Read-only (m, phi) int64 array whose row e is the canonical alpha**e."""
    order_params(m)
    return _read_only([_reduce(m, (0,) * e + (1,)) for e in range(m)], np.int64)


@lru_cache(maxsize=None)
def _root_table(m: int) -> dict[tuple[int, ...], int]:
    """Exponent e in [0, m) of each canonical alpha**e, keyed by its coeffs."""
    return {tuple(row): e for e, row in enumerate(_root_coeffs(m).tolist())}


@dataclass(frozen=True)
class CycInt:
    """A cyclotomic integer in canonical reduced form.

    ``coeffs[j]`` is the integer coefficient of alpha**j for j < phi(m).
    Instances are immutable; every operation returns a new value, so they
    are safe to share across threads and processes.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _, phi = order_params(self.order)
        if len(self.coeffs) != phi:
            raise ValueError(
                f"expected {phi} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )
        # ring operations make Python ints; others (numpy's, floats) are read once
        if any(type(c) is not int for c in self.coeffs):
            coeffs = tuple(_integer(c, "ring coefficients") for c in self.coeffs)
            object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, order: int, coeffs: tuple[int, ...]) -> CycInt:
        """A ring operation's result, built without ``__post_init__``'s checks.

        Only for a valid order and a canonical tuple of phi Python ints, as
        every ring operation on valid operands makes: sums, differences and
        products of Python ints are Python ints, and ``_reduce`` returns phi
        of them.  ``CycInt(...)`` and ``from_coeffs`` keep validating.
        """
        obj = object.__new__(cls)
        fields = obj.__dict__
        fields["order"] = order
        fields["coeffs"] = coeffs
        return obj

    # ---- constructors ---------------------------------------------------

    @classmethod
    def from_coeffs(cls, m: int, coeffs) -> CycInt:
        """Build from power-basis coefficients of any length (reducing)."""
        return cls(m, _reduce(m, tuple(coeffs)))

    @classmethod
    def zero(cls, m: int) -> CycInt:
        _, phi = order_params(m)
        return cls(m, (0,) * phi)

    @classmethod
    def one(cls, m: int) -> CycInt:
        return cls.integer(1, m)

    @classmethod
    def integer(cls, n: int, m: int) -> CycInt:
        _, phi = order_params(m)
        return cls(m, (_integer(n, "ring scalars"),) + (0,) * (phi - 1))

    # ---- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return CycInt.integer(other, self.order)
        if isinstance(other, CycInt):
            if other.order != self.order:
                raise ValueError(
                    f"mismatched cyclotomic orders {self.order} and {other.order}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt._trusted(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt._trusted(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> CycInt:
        return CycInt._trusted(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            other = operator.index(other)  # an exact int, bools and subclasses included
            return CycInt._trusted(self.order, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycInt._trusted(self.order, _reduce(self.order, prod))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> CycInt:
        k = _integer(k, "ring exponents")
        if k < 0:
            raise ValueError("negative powers are not defined in the ring")
        result = CycInt.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def times_root(self, j: int) -> CycInt:
        """Multiply by alpha**j: the coefficients shifted j places, then reduced.

        A coefficient shifted to alpha**(phi + t) folds to
        -sum_{k<d-1} alpha**(k*d + t), d - 1 terms, so this is not a signed
        permutation of the coefficients.
        """
        j = _integer(j, "root exponents")
        shifted = (0,) * (j % self.order) + self.coeffs
        return CycInt._trusted(self.order, _reduce(self.order, shifted))

    def conjugate(self) -> CycInt:
        """Complex conjugation: alpha**j -> alpha**(m-j)."""
        c = self.coeffs
        return CycInt._trusted(
            self.order, _reduce(self.order, c[:1] + (0,) * (self.order - len(c)) + c[:0:-1])
        )

    # ---- queries and the float shadow -------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def as_root_exponent(self) -> int | None:
        """Exponent e with self == alpha**e, or None if not a root of unity."""
        return _root_table(self.order).get(self.coeffs)

    def to_complex(self) -> complex:
        powers = _alpha_powers(self.order)
        return sum((c * powers[j] for j, c in enumerate(self.coeffs) if c), 0j)

    def magnitude(self) -> float:
        return abs(self.to_complex())

    def __abs__(self) -> float:
        return self.magnitude()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(f"{c}")
            else:
                mono = "a" if j == 1 else f"a^{j}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@dataclass(frozen=True)
class PhaseExponent:
    """A root of unity alpha**exponent, stored by its exponent mod m."""

    exponent: int
    order: int

    def __post_init__(self) -> None:
        order_params(self.order)
        object.__setattr__(self, "exponent", _integer(self.exponent, "root exponents") % self.order)

    def __mul__(self, other: PhaseExponent) -> PhaseExponent:
        if not isinstance(other, PhaseExponent):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(
                f"mismatched cyclotomic orders {self.order} and {other.order}"
            )
        return PhaseExponent(self.exponent + other.exponent, self.order)

    def conjugate(self) -> PhaseExponent:
        return PhaseExponent(-self.exponent, self.order)

    def cyc(self) -> CycInt:
        return root_of_unity(self.exponent, self.order)

    def to_complex(self) -> complex:
        return cmath.exp(2j * math.pi * self.exponent / self.order)


def root_of_unity(j: int, m: int) -> CycInt:
    """Canonical representative of alpha**j, alpha = exp(2*pi*i/m)."""
    return CycInt(m, tuple(_root_coeffs(m)[PhaseExponent(j, m).exponent].tolist()))


def root_counts(m: int, exponents) -> np.ndarray:
    """Counts h (..., m) of the roots alpha**e in each row of an (..., K) array.

    Every sum of roots of unity goes through here: one ``bincount`` of each
    row mod m.  h >= 0 has mass (row sum) K and represents the sum modulo
    x**m - 1; ``_root_coeffs(m)`` folds it to canonical coefficients.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    shape = exponents.shape[:-1]
    offsets = m * np.arange(math.prod(shape), dtype=np.int64).reshape(*shape, 1)
    tally = np.bincount((exponents % m + offsets).ravel(), minlength=m * offsets.size)
    return tally.reshape(*shape, m)


@lru_cache(maxsize=None)
def _circulant_index(m: int) -> np.ndarray:
    """Read-only (m, m) index (f - e) mod m: row e of h[..., index] counts alpha**e * h."""
    return _read_only((np.arange(m) - np.arange(m)[:, None]) % m, np.intp)


def _site_product(counts) -> np.ndarray:
    """Counts (..., S, m) of the products over the sites of (..., N, S, m) root counts.

    Slot s of each batch element holds prod_i h[..., i, s] modulo x**m - 1
    (N = 0 gives 1 in every slot).  The chain starts from the first site's
    counts and multiplies by one m x m circulant per further site, whose row
    e is alpha**e * h[..., i, s] (``_circulant_index``; all gathered at once).

    Range.  Counts are non-negative, so a product's counts have a mass (sum
    over e) equal to the product of the factor masses.  With M_i the largest
    row mass at site i over the whole batch, every entry and every partial
    sum of the chain is at most prod_i M_i, and of a sum over the S slots at
    most S * prod_i M_i.  Each column of ``_root_coeffs(m)`` has at most two
    entries, both +-1 (alpha**j itself and -alpha**(phi + j mod d)), so
    folding such a sum to canonical coefficients stays within its mass.  The
    counts are int64 when S * prod_i M_i < 2**63 and Python integers
    (``dtype=object``) otherwise.
    """
    counts = np.asarray(counts)
    *batch, n_sites, slots, m = counts.shape
    masses = counts.sum(axis=-1).max(axis=(*range(len(batch)), -1))  # (N,)
    if slots * math.prod(masses.tolist()) >= 2**63:
        counts = counts.astype(object)
    if not n_sites:
        return np.tile(np.eye(1, m, dtype=counts.dtype), (*batch, slots, 1))
    acc = counts[..., 0, :, None, :]
    circulants = counts[..., 1:, :, :][..., _circulant_index(m)]
    for site in range(n_sites - 1):
        acc = acc @ circulants[..., site, :, :, :]
    return acc[..., 0, :]


def _site_power(counts, n: int) -> np.ndarray:
    """Counts (S, m) of h**n in each slot of (S, m) root counts h, n >= 1.

    Square-and-multiply: ``_site_product`` squares h floor(log2(n)) times
    and multiplies the squares at the set bits of n in one chain.
    """
    squares = [counts]  # h**(2**k)
    while 2 ** len(squares) <= n:
        squares.append(_site_product(np.broadcast_to(squares[-1], (2, *squares[-1].shape))))
    return _site_product(np.stack([q for k, q in enumerate(squares) if n >> k & 1]))


def root_sums(m: int, exponents) -> np.ndarray:
    """Canonical int64 coeffs (..., phi) of the alpha**e sums over an (..., K) array."""
    return root_counts(m, exponents) @ _root_coeffs(m)


def mp_real_value(m: int, coeffs, dps: int):
    """Real part of sum_j coeffs[j] * alpha**j, to ``dps`` decimal digits."""
    import mpmath  # only the rare near-tie comparison needs it

    order_params(m)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for j, c in enumerate(coeffs):
            if c:
                total += c * mpmath.cos(2 * mpmath.pi * j / m)
        return total


# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53
# Coefficient mass below which every float in the shadow stays finite.
_FLOAT_MASS_LIMIT = 2**1000


def compare_real_coeffs(m: int, c1, c2) -> int:
    """Total order on two real cyclotomic values given by canonical coeffs.

    Returns -1, 0, or +1; coefficient vectors of a length other than phi(m)
    raise ValueError.  Equality is decided exactly on the canonical form.  A
    strict inequality is decided by the float shadow only when the float gap
    exceeds both the noise band 1e-6*(1 + |f1| + |f2|) and a proven bound on
    the shadow's rounding error; otherwise the difference is evaluated with
    mpmath at a precision that cannot get its sign wrong.

    Shadow error.  Write S_i = sum_j |c_i[j]| and u = 2**-53.  Each stored
    cos(2*pi*j/m) is within 32u of the true value: its argument carries at
    most three roundings, < 3u * 2*pi < 19u (cos is 1-Lipschitz), and a
    platform cos accurate to one ulp, as glibc's is, adds at most 2u.
    Converting c_j to a double and multiplying add 2u relative, and summing
    the phi products adds at most (phi - 1)u relative to the sum of their
    magnitudes.  So each shadow is within (phi + 34) * u * S_i of its
    value, and computing the bound with a factor of 2 to spare makes any
    |gap| above it carry the true sign.

    Exact fallback.  x = value1 - value2 is a nonzero real element of
    Z[alpha] with coefficients d_j, S = sum_j |d_j|.  Its norm, the product
    of its phi Galois conjugates, is a nonzero rational integer, so it is
    at least 1 in magnitude; every conjugate sends alpha**j to a root of
    unity and is therefore at most S in magnitude.  Hence |x| >= S**(1-phi).
    At D significant digits the cosines are within 20 * 10**-D (three
    argument roundings and one in cos, as above) and the products and the
    phi additions add (phi + 2) * 10**-D relative, so the sum errs by less
    than (phi + 23) * S * 10**-D.  D = phi * digits(S) + 10, where
    10**digits(S) > S, keeps that below S**(1-phi) <= |x|, so the computed
    sign is the true one.
    """
    c1 = tuple(c1)
    c2 = tuple(c2)
    _, phi = order_params(m)
    if len(c1) != phi or len(c2) != phi:
        raise ValueError(
            f"expected {phi} coefficients for order {m}, got {len(c1)} and {len(c2)}"
        )
    if c1 == c2:
        return 0
    mass = sum(map(abs, c1)) + sum(map(abs, c2))
    if mass < _FLOAT_MASS_LIMIT:
        powers = _alpha_powers(m)

        def shadow(c):
            return sum(v * powers[j].real for j, v in enumerate(c) if v)

        f1, f2 = shadow(c1), shadow(c2)
        gap = f1 - f2
        noise = 2.0 * (phi + 34) * _UNIT_ROUNDOFF * mass
        if abs(gap) > max(1e-6 * (1.0 + abs(f1) + abs(f2)), noise):
            return 1 if gap > 0 else -1
    diff = tuple(a - b for a, b in zip(c1, c2))
    digits = phi * len(str(sum(map(abs, diff)))) + 10
    value = mp_real_value(m, diff, digits)
    if value > 0:
        return 1
    if value < 0:
        return -1
    # unreachable for real inputs, by the bound above
    raise ArithmeticError("comparison of distinct canonical forms came out zero")
