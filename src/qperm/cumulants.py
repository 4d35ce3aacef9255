"""Moment and cumulant functions over the non-crossing lattice.

With commuting scalars, the nested collapse of a non-crossing partition
is the plain product over its blocks of the block values, so every scalar
sum is a sum of block products: moments of a cumulant specification,
cumulants of a moment functional (Moebius inversion), free i.i.d. moments
over the partitions below a kernel, and the vanishing-mixed-cumulants
freeness test.  The recursive interval-extraction evaluator `nested_eval`
serves the matrix instantiation, where the order of the factors matters.

Scalars are exact rationals, summed in integers over one common denominator
(one Fraction per sum); the matrix instantiation (values and operand
coefficients in M_d(C)) is the only approximate layer, with tolerances
stated at the call sites.  Operands are opaque algebra elements:
interleaved algebra factors are absorbed into neighbouring operands, which
is the deliberate narrowing of the fully general operator-valued setting.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import BoundError, DimensionError, DomainError
from .partitions import (
    _all_nc,
    _mobius_below,
    _nc_below,
    _peel,
    enumerate_nc,
    is_noncrossing,
    kernel,
)
from .weingarten import rational_str


@dataclass
class MomentFunctional:
    """Finitely supported word -> scalar map: a distribution at moment level.

    No trace or symmetry property is assumed.  If `involution` maps each
    symbol to its adjoint symbol, `state_like_violations` checks
    value(reverse(star(w))) == conj(value(w)) on the stored support.
    """

    alphabet: tuple
    k_max: int
    moments: dict
    unit_value: object = Fraction(1)
    involution: dict = None

    def value(self, word):
        word = tuple(word)
        if len(word) > self.k_max:
            raise BoundError(f"word length {len(word)} exceeds k_max={self.k_max}")
        if not word:
            return self.unit_value
        try:
            return self.moments[word]
        except KeyError:
            raise DomainError(f"moment undefined for word {word}") from None

    def state_like_violations(self, tol=0):
        if self.involution is None:
            raise DomainError("no involution declared")
        bad = []
        for word, val in self.moments.items():
            star = tuple(self.involution[s] for s in reversed(word))
            if star in self.moments:
                other = self.moments[star]
                expected = other.conjugate() if hasattr(other, "conjugate") else other
                if abs(val - expected) > tol:
                    bad.append((word, val, expected))
        return bad

    def to_json_dict(self):
        return {
            "alphabet": [str(a) for a in self.alphabet],
            "k_max": self.k_max,
            "moments": {
                ",".join(str(s) for s in w): rational_str(v)
                for w, v in sorted(self.moments.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data):
        alphabet = tuple(data["alphabet"])
        moments = {
            tuple(key.split(",")): Fraction(v)
            for key, v in data["moments"].items()
        }
        return cls(alphabet=alphabet, k_max=int(data["k_max"]), moments=moments)


@dataclass
class CumulantSpec:
    """Free cumulants by (block size, letter word); unset words are zero.

    Values are scalars, or d x d arrays for the matrix instantiation (a
    matrix value V means the block contributes V times the ordered product
    of the coefficients accumulated on the block's legs).
    """

    alphabet: tuple
    k_max: int
    values: dict

    def value(self, word):
        word = tuple(word)
        if not 1 <= len(word) <= self.k_max:
            raise BoundError(f"block size {len(word)} outside 1..{self.k_max}")
        return self.values.get(word, Fraction(0))

    def matrix_dim(self):
        for v in self.values.values():
            if isinstance(v, np.ndarray):
                return v.shape[0]
        return None

    def to_json_dict(self):
        if self.matrix_dim() is not None:
            raise DomainError("matrix-valued specifications do not serialize to JSON")
        return {
            "alphabet": [str(a) for a in self.alphabet],
            "k_max": self.k_max,
            "cumulants": {
                ",".join(str(s) for s in w): rational_str(v)
                for w, v in sorted(self.values.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data):
        values = {
            tuple(key.split(",")): Fraction(v)
            for key, v in data["cumulants"].items()
        }
        return cls(alphabet=tuple(data["alphabet"]), k_max=int(data["k_max"]), values=values)


def nested_eval(pi, block_fn, operands, multiply=operator.mul, choose_interval=None):
    """Collapse interval blocks of a non-crossing partition recursively.

    Each round finds the blocks that are intervals of the remaining
    positions, picks one (the first, unless `choose_interval` selects
    another of the offered intervals), applies `block_fn` to the tuple of
    current operand values on that block, and multiplies the result onto
    the preceding remaining operand (onto the following one, from the
    left, if the block is initial).  The value of the last block is the
    result.  For balanced block functions the outcome does not depend on
    the removal order.
    """
    ops = list(operands)
    if len(ops) != pi.ground_size:
        raise DimensionError(
            f"{len(ops)} operands for ground size {pi.ground_size}"
        )
    values = dict(enumerate(ops, start=1))
    for step in _peel(pi, choose_interval):
        if step is None:
            raise DomainError(f"partition is not non-crossing: {pi}")
        block, before, after = step
        result = block_fn(tuple(values[x] for x in block))
        if before is not None:
            values[before] = multiply(values[before], result)
        elif after is not None:
            values[after] = multiply(result, values[after])
        else:
            return result


class _Leg:
    """A letter with the product of the algebra coefficients absorbed on
    its left and right."""

    __slots__ = ("coeff", "letter")

    def __init__(self, coeff, letter):
        self.coeff = coeff
        self.letter = letter


def _leg_evaluator(spec, d):
    """Nested evaluation of a letter word at a partition in M_d, as a function
    (pi, word) -> value: each block's value is `spec.value` of its letters,
    scaled by the ordered product of the d x d coefficients that earlier
    blocks left on its legs."""
    one = np.eye(d, dtype=complex)

    def scale(coeff, value):
        if isinstance(value, np.ndarray):
            return np.asarray(coeff) @ np.asarray(value, dtype=complex)
        return complex(value) * coeff

    def absorb(a, b):
        if isinstance(a, _Leg):
            return _Leg(a.coeff @ b, a.letter)
        return _Leg(a @ b.coeff, b.letter)

    def block_value(window):
        coeff = reduce(operator.matmul, (leg.coeff for leg in window))
        return scale(coeff, spec.value(tuple(leg.letter for leg in window)))

    def evaluate(pi, word):
        operands = [_Leg(one, s) for s in word]
        return nested_eval(pi, block_value, operands, multiply=absorb)

    return evaluate


def _block_products(value, word, partitions):
    """(products, den), products[i] / den = prod_{V in partitions[i]} value(word|V).

    Each distinct block is read once, all before any product, so a zero factor
    hides no word `value` cannot evaluate.  Rationals go over their common
    denominator L, products[i] = L^(k - |pi|) prod_V L value(word|V) with
    k = len(word) and den = L^k; floats and complex give the products, den None."""
    letters = ((None,) + word).__getitem__
    blocks = dict.fromkeys(b for pi in partitions for b in pi.blocks)
    values = {b: value(tuple(map(letters, b))) for b in blocks}
    if not all(isinstance(v, (int, Fraction)) for v in values.values()):
        products = [reduce(operator.mul, map(values.__getitem__, pi.blocks)) for pi in partitions]
        return products, None
    den = math.lcm(*(v.denominator for v in values.values()))
    values = {b: v.numerator * (den // v.denominator) for b, v in values.items()}
    scale = [den ** (len(word) - size) for size in range(len(word) + 1)]
    products = [
        scale[len(pi.blocks)] * math.prod(map(values.__getitem__, pi.blocks)) for pi in partitions
    ]
    return products, den ** len(word)


def _block_sum(value, word, terms):
    """sum over (pi, c) in terms of c * prod_{V in pi} value(word|V), by `_block_products`."""
    partitions, coeffs = zip(*terms)
    products, den = _block_products(value, word, partitions)
    total = sum(map(operator.mul, coeffs, products))
    return total if den is None else Fraction(total, den)


def _spec_sum(spec, word, admissible):
    """Sum over a set of NC partitions of the nested block values: plain
    block products for scalar values, summed in integers over one common
    denominator by `_block_sum`, and `nested_eval` in M_d for matrices."""
    word = tuple(word)
    if len(word) > spec.k_max:
        raise BoundError(f"degree {len(word)} exceeds k_max={spec.k_max}")
    d = spec.matrix_dim()
    if d is None:
        return _block_sum(spec.value, word, zip(admissible, itertools.repeat(1)))
    evaluate = _leg_evaluator(spec, d)
    return reduce(operator.add, (evaluate(pi, word) for pi in admissible))


def cumulants_to_moments(spec, word):
    """Moment of a word from its free cumulants: sum over all of NC(k)."""
    return _spec_sum(spec, word, enumerate_nc(len(tuple(word))))


def moment_nested(mf, pi, word):
    """Nested moment function: intervals collapse through the functional."""
    word = tuple(word)
    if len(word) != pi.ground_size:
        raise DimensionError(f"word length {len(word)} differs from ground size {pi.ground_size}")
    if not is_noncrossing(pi):
        raise DomainError(f"partition is not non-crossing: {pi}")
    return _block_sum(mf.value, word, ((pi, 1),))


def moments_to_cumulants(mf, pi, word):
    """Cumulant function at pi by Moebius inversion over NC(k); a pi that
    crosses raises DomainError."""
    word = tuple(word)
    if len(word) != pi.ground_size:
        raise DimensionError(f"word length {len(word)} differs from ground size {pi.ground_size}")
    nc = enumerate_nc(len(word))
    return _block_sum(mf.value, word, ((nc[a], mu) for a, mu in _mobius_below(pi)))


def free_iid_moment(spec, letters, labels):
    """Moment of a free, identically distributed family: the sum over
    NC(k) is restricted to partitions below the kernel of the labels."""
    letters = tuple(letters)
    labels = tuple(labels)
    if len(letters) != len(labels):
        raise DimensionError(f"{len(letters)} letters vs {len(labels)} labels")
    below = _nc_below(kernel(labels))
    nc = _all_nc(len(labels))
    return _spec_sum(spec, letters, [nc[a] for a in below])


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool
    violations: tuple  # of (pi, word, value)
    tolerance: object
    words_checked: int


def freeness_check(mf, family_labels, tolerance=0, max_degree=None):
    """Report mixed cumulants that fail to vanish.

    family_labels maps each alphabet symbol to its family; for every word
    and every non-crossing pi not below the kernel of the word's family
    labels, the cumulant must be at most `tolerance` in absolute value.
    The same rule holds for every value, rational or not: the default 0
    asks for exact vanishing, and a positive tolerance forgives small
    mixed cumulants of a rational functional too; a negative one raises DomainError.
    """
    if tolerance < 0:
        raise DomainError(f"tolerance must be >= 0, got {tolerance}")
    degree = mf.k_max if max_degree is None else min(max_degree, mf.k_max)
    violations = []
    for k in range(1, degree + 1):
        ncs = enumerate_nc(k)
        for word in itertools.product(mf.alphabet, repeat=k):
            below = set(_nc_below(kernel(tuple(family_labels[s] for s in word))))
            if len(below) == len(ncs):
                continue  # one family: no mixed cumulant, no moment to read
            products, den = _block_products(mf.value, word, ncs)
            for b, pi in enumerate(ncs):
                if b not in below:
                    total = sum(mu * products[a] for a, mu in _mobius_below(pi))
                    value = total if den is None else Fraction(total, den)
                    if abs(value) > tolerance:
                        violations.append((pi, word, value))
    return FreenessVerdict(
        free=not violations,
        violations=tuple(violations),
        tolerance=tolerance,
        words_checked=sum(len(mf.alphabet) ** k for k in range(1, degree + 1)),
    )


@dataclass(frozen=True)
class MatrixProbabilitySpace:
    """M_d (C) sitting inside M_d tensor M_m, with the trace-normalized
    block conditional expectation onto the d x d corner."""

    d: int
    m: int

    def embed(self, b):
        b = np.asarray(b, dtype=complex)
        if b.shape != (self.d, self.d):
            raise DimensionError(f"expected {(self.d, self.d)}, got {b.shape}")
        return np.kron(b, np.eye(self.m, dtype=complex))

    def expectation(self, a):
        a = np.asarray(a, dtype=complex)
        size = self.d * self.m
        if a.shape != (size, size):
            raise DimensionError(f"expected {(size, size)}, got {a.shape}")
        blocks = a.reshape(self.d, self.m, self.d, self.m)
        return np.trace(blocks, axis1=1, axis2=3) / self.m

    def identity(self):
        return np.eye(self.d * self.m, dtype=complex)
