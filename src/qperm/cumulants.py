"""Moment and cumulant functions over the non-crossing lattice.

The nested collapse of a non-crossing partition is a product of its block
values, so every sum is a sum of block products: moments of a cumulant
specification, cumulants of a moment functional (Moebius inversion), free
i.i.d. moments over the partitions below a kernel, and the
vanishing-mixed-cumulants freeness test.  Scalars commute, and their
blocks multiply in block order; d x d matrix values multiply in the order
of each block's last position, every block after the blocks nested inside
it, which is the order of the collapse.

Scalars are exact rationals, summed in integers over one common denominator
(one Fraction per sum); the matrix instantiation (cumulant values in
M_d(C)) is the only approximate layer, with tolerances stated at the call
sites.  Operands are opaque algebra elements: interleaved algebra factors
are absorbed into neighbouring operands, which is the deliberate narrowing
of the fully general operator-valued setting.  Moments stay scalar: matrix
moments are refused by the inversion and the freeness test.
"""

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .errors import BoundError, DimensionError, DomainError
from .partitions import (
    _all_nc,
    _mobius_below,
    _nc_below,
    _nc_positions,
    kernel,
)
from .weingarten import rational_str


def _from_json(data, words_key):
    """(alphabet, k_max, words) from a JSON object with the keys "alphabet",
    "k_max" and `words_key`, a map of comma-joined words to rationals;
    DomainError names a missing key or a value of the wrong kind."""
    if not isinstance(data, dict):
        raise DomainError("the JSON input is not an object")
    try:
        alphabet, k_max, raw = (data[key] for key in ("alphabet", "k_max", words_key))
    except KeyError as exc:
        raise DomainError(f"the JSON input has no {exc.args[0]!r} key") from None
    if not isinstance(raw, dict):
        raise DomainError(f"{words_key} {raw!r} is not a JSON object")
    if not isinstance(alphabet, list):
        raise DomainError(f"alphabet {alphabet!r} is not a JSON array")
    try:
        k_max = int(k_max)
    except (TypeError, ValueError):
        raise DomainError(f"k_max {k_max!r} is not an integer") from None
    words = {}
    for text, v in raw.items():
        try:
            words[tuple(text.split(","))] = Fraction(v)
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError(f"{words_key} of {text!r}: {v!r} is not a rational") from None
    return tuple(alphabet), k_max, words


def _to_json(alphabet, k_max, words_key, words):
    """The JSON object `_from_json` reads: `words`, a map of letter words to
    rationals, under `words_key` as comma-joined words to "p/q" strings."""
    return {
        "alphabet": [str(a) for a in alphabet],
        "k_max": k_max,
        words_key: {
            ",".join(str(s) for s in w): rational_str(v) for w, v in sorted(words.items())
        },
    }


@dataclass
class MomentFunctional:
    """Finitely supported word -> scalar map: a distribution at moment level.

    No trace or symmetry property is assumed.
    """

    alphabet: tuple
    k_max: int
    moments: dict

    def value(self, word):
        word = tuple(word)
        if len(word) > self.k_max:
            raise BoundError(f"word length {len(word)} exceeds k_max={self.k_max}")
        if not word:
            return Fraction(1)
        try:
            return self.moments[word]
        except KeyError:
            raise DomainError(f"moment undefined for word {word}") from None

    def to_json_dict(self):
        return _to_json(self.alphabet, self.k_max, "moments", self.moments)

    @classmethod
    def from_json_dict(cls, data):
        alphabet, k_max, moments = _from_json(data, "moments")
        return cls(alphabet=alphabet, k_max=k_max, moments=moments)


#: The value of every unset cumulant word.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class CumulantSpec:
    """Free cumulants by (block size, letter word); unset words are zero.

    Values are scalars, or d x d arrays for the matrix instantiation: a
    partition then contributes the product of its block values taken in the
    order of each block's last position (scalars as multiples of I_d), and a
    word that reads no matrix value gives its scalar moment times I_d.

    A spec is read-only: `values` is held as a read-only copy of the map it
    is given, so the matrix dimension is read once, when the spec is made.
    """

    alphabet: tuple
    k_max: int
    values: Mapping
    _dim: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = MappingProxyType(dict(self.values))
        object.__setattr__(self, "values", values)
        dim = next((v.shape[0] for v in values.values() if isinstance(v, np.ndarray)), None)
        object.__setattr__(self, "_dim", dim)

    def value(self, word):
        word = tuple(word)
        if not 1 <= len(word) <= self.k_max:
            raise BoundError(f"block size {len(word)} outside 1..{self.k_max}")
        return self.values.get(word, _ZERO)

    def matrix_dim(self):
        return self._dim

    def to_json_dict(self):
        if self.matrix_dim() is not None:
            raise DomainError("matrix-valued specifications do not serialize to JSON")
        return _to_json(self.alphabet, self.k_max, "cumulants", self.values)

    @classmethod
    def from_json_dict(cls, data):
        alphabet, k_max, values = _from_json(data, "cumulants")
        return cls(alphabet=alphabet, k_max=k_max, values=values)


@lru_cache(maxsize=None)
def _block_plan(k, positions):
    """(blocks, plan) for the partitions at `positions` in NC(k): the distinct
    blocks, as tuples of 0-based positions in order of first use, and for
    each partition the indices into `blocks` of its blocks, in canonical
    block order."""
    nc = _all_nc(k)
    index = {}
    plan = tuple(tuple(index.setdefault(b, len(index)) for b in nc[a].blocks) for a in positions)
    return tuple(tuple(x - 1 for x in b) for b in index), plan


def _block_products(value, word, positions):
    """(products, den), products[i] / den = prod_{V in pi_i} value(word|V)
    for pi_i the partition at positions[i] in NC(k), k = len(word).

    Each distinct block is read once, all before any product, so a zero factor
    hides no word `value` cannot evaluate.  Rationals go over their common
    denominator L, products[i] = L^(k - |pi_i|) prod_V L value(word|V) and
    den = L^k; floats and complex give the products, den None.
    If any value read is a d x d array, each product is the ordered matrix
    product of the block values (scalars as complex multiples of I_d), blocks
    taken by their last position: every block after the blocks nested inside
    it, siblings left to right, which is the order in which the nested
    collapse of a non-crossing partition multiplies them."""
    blocks, plan = _block_plan(len(word), positions)
    letters = word.__getitem__
    values = [value(tuple(map(letters, b))) for b in blocks]
    if all(isinstance(v, (int, Fraction)) for v in values):
        den = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
        scale = [den ** (len(word) - size) for size in range(len(word) + 1)]
        products = [scale[len(own)] * math.prod(map(values.__getitem__, own)) for own in plan]
        return products, den ** len(word)
    matrix = next((v for v in values if isinstance(v, np.ndarray)), None)
    if matrix is None:
        products = [reduce(operator.mul, map(values.__getitem__, own)) for own in plan]
        return products, None
    one = np.eye(len(matrix), dtype=complex)
    values = [v if isinstance(v, np.ndarray) else complex(v) for v in values]
    last = [b[-1] for b in blocks]
    products = [
        reduce(np.dot, map(values.__getitem__, sorted(own, key=last.__getitem__)), one)
        for own in plan
    ]
    return products, None


def _block_sum(value, word, positions, coeffs=None):
    """sum over i of coeffs[i] * prod_{V in pi_i} value(word|V), coefficients
    1 when `coeffs` is None, by `_block_products`."""
    products, den = _block_products(value, word, positions)
    total = sum(products) if coeffs is None else sum(map(operator.mul, coeffs, products))
    return total if den is None else Fraction(total, den)


def _spec_sum(spec, word, positions):
    """Sum over the partitions at `positions` in NC(k) of the nested block
    values, by `_block_sum`; a word of a matrix spec that reads no matrix
    value gives its scalar sum times I_d."""
    if len(word) > spec.k_max:
        raise BoundError(f"degree {len(word)} exceeds k_max={spec.k_max}")
    total = _block_sum(spec.value, word, positions)
    d = spec.matrix_dim()
    if d is None or isinstance(total, np.ndarray):
        return total
    return complex(total) * np.eye(d, dtype=complex)


def _scalar_moment(total, word):
    """`total`, a sum or block product of moments of `word`, refusing a d x d
    array: Moebius inversion over block products does not invert the matrix
    moment sum."""
    if isinstance(total, np.ndarray):
        raise DomainError(f"matrix-valued moments of {word}: cumulants need scalar moments")
    return total


def cumulants_to_moments(spec, word):
    """Moment of a word from its free cumulants: sum over all of NC(k)."""
    word = tuple(word)
    return _spec_sum(spec, word, _nc_positions(len(word)))


def moments_to_cumulants(mf, pi, word):
    """Cumulant function at pi by Moebius inversion over NC(k); a pi that
    crosses, or a matrix-valued moment, raises DomainError."""
    word = tuple(word)
    if len(word) != pi.ground_size:
        raise DimensionError(f"word length {len(word)} differs from ground size {pi.ground_size}")
    total = _block_sum(mf.value, word, *_mobius_below(pi))
    return _scalar_moment(total, word)


def free_iid_moment(spec, letters, labels):
    """Moment of a free, identically distributed family: the sum over
    NC(k) is restricted to partitions below the kernel of the labels."""
    letters = tuple(letters)
    labels = tuple(labels)
    if len(letters) != len(labels):
        raise DimensionError(f"{len(letters)} letters vs {len(labels)} labels")
    return _spec_sum(spec, letters, _nc_below(kernel(labels)))


def _degree(mf, max_degree):
    """max_degree, or mf.k_max for None: the longest word a verdict on mf
    reads.  One outside 1..mf.k_max raises BoundError, as a verdict that
    reads no word would say nothing."""
    degree = mf.k_max if max_degree is None else max_degree
    if not 1 <= degree <= mf.k_max:
        raise BoundError(f"max_degree {degree} outside 1..{mf.k_max}, the functional's k_max")
    return degree


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool
    violations: tuple  # of (pi, word, value)
    tolerance: object
    words_checked: int


def freeness_check(mf, family_labels, tolerance=0, max_degree=None):
    """Report mixed cumulants that fail to vanish.

    family_labels maps each alphabet symbol to its family; for every word
    of length 1..max_degree (default mf.k_max) and every non-crossing pi
    not below the kernel of the word's family labels, the cumulant must be
    at most `tolerance` in absolute value.
    The same rule holds for every value, rational or not: the default 0
    asks for exact vanishing, and a positive tolerance forgives small
    mixed cumulants of a rational functional too; a negative one raises DomainError,
    as do a matrix-valued moment, a letter with no family and a family for
    a letter outside the alphabet.  A degree outside 1..mf.k_max raises
    BoundError (`_degree`).
    """
    degree = _degree(mf, max_degree)
    if tolerance < 0:
        raise DomainError(f"tolerance must be >= 0, got {tolerance}")
    unlabeled = [s for s in mf.alphabet if s not in family_labels]
    if unlabeled:
        raise DomainError(f"no family for the letters {unlabeled}")
    extra = [s for s in family_labels if s not in mf.alphabet]
    if extra:
        raise DomainError(f"families for the letters {extra}, which are not in the alphabet")
    violations = []
    for k in range(1, degree + 1):
        positions = _nc_positions(k)
        ncs = _all_nc(k)
        for word in itertools.product(mf.alphabet, repeat=k):
            below = set(_nc_below(kernel(tuple(family_labels[s] for s in word))))
            if len(below) == len(ncs):
                continue  # one family: no mixed cumulant, no moment to read
            products, den = _block_products(mf.value, word, positions)
            _scalar_moment(products[0], word)
            for b, pi in enumerate(ncs):
                if b not in below:
                    own, mus = _mobius_below(pi)
                    total = sum(mu * products[a] for a, mu in zip(own, mus))
                    value = total if den is None else Fraction(total, den)
                    if abs(value) > tolerance:
                        violations.append((pi, word, value))
    return FreenessVerdict(
        free=not violations,
        violations=tuple(violations),
        tolerance=tolerance,
        words_checked=sum(len(mf.alphabet) ** k for k in range(1, degree + 1)),
    )
