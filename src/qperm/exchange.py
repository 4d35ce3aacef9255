"""Quantum and classical urn sequences, magic-unitary invariance testing,
and the finite de Finetti gap experiment.

The noncommutative urn x_j = sum_i lambda_i u_ij is realized purely at the
level of moments through the Haar integration formula; no Hilbert-space
operators are constructed.  Everything here is exact.  A `MagicUnitary`
holds its blocks u_ij as one int64 array of s u_ij over a common
denominator s: a permutation has d = 1 and s = 1, and the two-projection
unitary on the line through (3, 4) has d = 2 and s = 25.  Every coaction
sum, the invariance check's sum_i M(i) u_{i1 j1}...u_{ik jk} and the block
sum over the index words i with pi <= ker i, goes through one level-order
kernel (`_coaction_sums`): a batch of words of one length is summed in
integers with one stacked `@` per position, and compared with its target
scaled by s^k.  A cell whose integers could leave int64 is refused up front
with BoundError.

Classical exchangeability is decided exactly: a relabelling maps one word
onto another exactly when the two share a kernel, so invariance under every
permutation is constancy on the kernel classes (`permutation_deviation`).
Only the quantum half rests on finitely many concrete magic unitaries,
which is a necessary condition, not a decision procedure: the definition
quantifies over every magic unitary in every unital C*-algebra.
"""

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import mul

import numpy as np

from .cumulants import MomentFunctional, _degree, free_iid_moment
from .errors import BoundError, DimensionError, DomainError, InvariantViolation
from .partitions import (
    SetPartition,
    _check_k,
    _check_n,
    _integer,
    _mobius_column,
    _nc_below,
    _record_build,
    enumerate_nc,
    enumerate_partitions,
    kernel,
    leq,
)
from .weingarten import _weingarten_pair, dk_value

#: The most block products one pass of `_coaction_sums` holds at once.
_LEAVES = 1 << 10

#: The first integer int64 cannot hold.
_INT64_LIMIT = 1 << 63


class MagicUnitary:
    """n x n array of d x d projection blocks with magic row/column sums.

    `stack` is the int64 array of shape (n, n, d, d) holding s times the
    blocks, over the common denominator s = `scale`.  The constructor takes
    that array, or an (n, n) one for d = 1, and the scale: an array that is
    not square raises DimensionError, one that does not hold integers (floats
    among them) DomainError.
    """

    def __init__(self, stack, scale=1):
        try:
            stack = np.asarray(stack)
        except ValueError:
            raise DimensionError("blocks must be all scalars or all matrices of one shape") from None
        if stack.ndim == 2:
            stack = stack[:, :, None, None]
        if stack.ndim != 4 or not stack.size or stack.shape[0] != stack.shape[1] or (
            stack.shape[2] != stack.shape[3]
        ):
            raise DimensionError("blocks must form a square array of square blocks of one shape")
        if stack.dtype.kind != "i":
            raise DomainError(f"blocks must be integers over a common scale, got {stack.dtype}")
        self.scale = _integer("scale", scale)
        if self.scale < 1:
            raise DomainError(f"scale={scale} must be positive")
        self.stack = stack.astype(np.int64)
        self.n, self.d = stack.shape[1:3]
        self._nonzero = self.stack.any(axis=(2, 3))
        # bounds every entry of s u, and s itself, for `_coaction_sums`
        self._entry = max(self.scale, int(np.abs(self.stack).max()))
        self._permutation = None

    def permutation(self):
        """The permutation `permutation_magic_unitary` recorded, or None:
        nothing is read off the blocks."""
        return self._permutation

    def violations(self):
        """All failures of the magic relations, as human-readable strings.
        The blocks are compared exactly, in Python integers: su is a
        projection when (su)(su) = s(su) and su is symmetric."""
        u = self.stack.astype(object)
        s, idx = self.scale, range(self.n)
        out = []
        for i, j in itertools.product(idx, idx):
            b = u[i, j]
            if (b @ b != s * b).any() or (b.T != b).any():
                out.append(f"block ({i + 1},{j + 1}) is not a projection")
        for i, k in itertools.product(idx, idx):
            for l in range(k + 1, self.n):
                if (u[i, k] @ u[i, l]).any():
                    out.append(f"row {i + 1}: blocks {k + 1},{l + 1} not orthogonal")
                if (u[k, i] @ u[l, i]).any():
                    out.append(f"column {i + 1}: blocks {k + 1},{l + 1} not orthogonal")
        one = s * np.eye(self.d, dtype=object)
        for i in idx:
            if (u[i].sum(axis=0) != one).any():
                out.append(f"row {i + 1} does not sum to the identity")
            if (u[:, i].sum(axis=0) != one).any():
                out.append(f"column {i + 1} does not sum to the identity")
        return out


def permutation_magic_unitary(perm):
    """Magic unitary of a permutation: block (i,j) = [i == perm(j)]."""
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of 1..{n}: {perm}")
    unitary = MagicUnitary(np.eye(n, dtype=np.int64)[:, [x - 1 for x in perm]])
    unitary._permutation = perm
    return unitary


def line_projection(a, b):
    """Rank-one projection onto the line through (a, b) in Q^2, as a 2 x 2
    array of Fractions: [[a^2, ab], [ab, b^2]] / (a^2 + b^2)."""
    if not (isinstance(a, Rational) and isinstance(b, Rational)) or a == b == 0:
        raise DomainError(f"a line needs rationals (a, b) != (0, 0), got ({a}, {b})")
    a, b = Fraction(a), Fraction(b)
    norm = a * a + b * b
    aa, ab, bb = (x / norm for x in (a * a, a * b, b * b))
    return np.array([[aa, ab], [ab, bb]], dtype=object)


def two_projection_magic_unitary(p, q):
    """The 4 x 4 block pattern [[p,1-p,0,0],[1-p,p,0,0],[0,0,q,1-q],[0,0,1-q,q]].

    p and q are d x d arrays of rationals, checked exactly to be projections
    (DomainError otherwise, and for a float entry); the blocks share the lcm
    s of the entries' denominators, and an s of 2^63 or more raises
    BoundError.  Noncommutative whenever p and q do not commute; this is the
    smallest concrete witness separating quantum from classical
    exchangeability.
    """
    p, q = np.array(p, dtype=object), np.array(q, dtype=object)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError("p and q must be square matrices of equal size")
    entries = [*p.flat, *q.flat]
    if not all(isinstance(x, Rational) for x in entries):
        raise DomainError("p and q must have rational entries")
    s = math.lcm(*(x.denominator for x in entries))
    # s p and s q in Python integers: a (s a) = s (s a) is a a = a
    p, q = (
        np.array([x.numerator * (s // x.denominator) for x in a.flat], dtype=object).reshape(a.shape)
        for a in (p, q)
    )
    for name, a in (("p", p), ("q", q)):
        if (a @ a != s * a).any() or (a.T != a).any():
            raise DomainError(f"{name} is not a projection")
    if s >= _INT64_LIMIT:
        raise BoundError(f"common denominator {s} of p and q reaches 2^63, the int64 limit")
    one = s * np.eye(p.shape[0], dtype=np.int64)
    p, q = p.astype(np.int64), q.astype(np.int64)
    z = 0 * one
    blocks = [
        [p, one - p, z, z],
        [one - p, p, z, z],
        [z, z, q, one - q],
        [z, z, one - q, q],
    ]
    return MagicUnitary(blocks, s)


@dataclass(frozen=True)
class InvarianceReport:
    max_deviation: Fraction
    witness: tuple
    degree: int
    passed: bool


def _coaction_sums(unitary, pi, letters, values=None):
    """For each word j of `itertools.product(*letters)`, of length
    k = pi.ground_size, the sum over the index words i with pi <= ker i of
    values[i] * S_{i1 j1} ... S_{ik jk}, with S the integer blocks s u of
    `unitary`: s^k times the coaction sum, as an int64 array of the words'
    d x d sums in that order.  letters holds k label sequences of one length;
    values is a sequence of the integer scalars of the index words in
    `itertools.product` order, and None weighs each of them by 1.

    Level order: the leaves form a grid with one axis per block of pi, in
    the order of first positions, over the (letters at the block's
    positions, label) pairs whose blocks are all nonzero.  Level t
    multiplies every product of the positions before t by its block at t,
    one stacked `@` from the identity, and each word adds its leaves
    (`np.add.at`); integer sums are exact in any order.

    Each of the n^|pi| terms, and the target s^k values[j] a caller compares
    a sum with, is at most m^k d^(k-1) max(1, max|values|) in absolute value,
    with m = max(s, max|S|) (`unitary._entry`).  A cell whose n^|pi| + 1
    such terms could reach 2^63 is refused with BoundError before any
    product is formed: numpy integers wrap silently.
    """
    n, k, d = unitary.n, pi.ground_size, unitary.d
    top = max(1, max(map(abs, values), default=0)) if values is not None else 1
    bound = (n ** len(pi.blocks) + 1) * unitary._entry**k * d ** (k - 1) * top
    if bound >= _INT64_LIMIT:
        raise BoundError(
            f"coaction sums at k={k} could reach {bound}, beyond 2^63, the int64 limit"
        )
    letters = np.asarray(letters, dtype=np.intp) - 1
    m = letters.shape[1]
    shape = unitary.stack.shape[2:]
    sums = np.zeros((m,) * k + shape, dtype=np.int64)
    # by position, letter and label: is the block nonzero, and the block
    allowed = unitary._nonzero.T[letters]
    blocks = unitary.stack.transpose(1, 0, 2, 3)[letters]
    axes = len(pi.blocks)
    # by position: its block's axis, its block, and its letter index and
    # label along that axis
    steps, letter, label = [None] * k, [None] * k, [None] * k
    sizes = []
    for axis, b in enumerate(pi.blocks):
        # over the letters at b's positions and the labels: are all b's blocks nonzero
        mask = allowed[b[0] - 1].reshape(m, *(1,) * (len(b) - 1), n)
        for q, x in enumerate(b[1:], 1):
            mask = mask & allowed[x - 1].reshape(*(1,) * q, m, *(1,) * (len(b) - 1 - q), n)
        *choice, down = np.nonzero(mask)
        if not down.size:  # no index word has all its blocks nonzero
            return sums.reshape(-1, *shape)
        sizes.append(down.size)
        trail = (1,) * (axes - 1 - axis)
        for q, x in enumerate(b):
            steps[x - 1] = axis, blocks[x - 1, choice[q], down]
            letter[x - 1] = choice[q].reshape(-1, *trail)
            label[x - 1] = down.reshape(-1, *trail)
    # the first `lead` axes are taken one point at a time in C order, so that
    # one pass holds at most _LEAVES products
    lead = 0
    while math.prod(sizes[lead:]) > _LEAVES:
        lead += 1
    one = np.eye(d, dtype=np.int64)
    if values is not None:
        values = np.array(values, dtype=np.int64).reshape((n,) * k)
    for point in itertools.product(*map(range, sizes[:lead])):
        cut = [slice(x, x + 1) for x in point] + [slice(None)] * (axes - lead)
        prods, opened = one, 0
        for axis, factor in steps:
            factor = factor[cut[axis]]
            if axis == opened:
                prods = prods[..., None, :, :] @ factor
                opened += 1
            else:
                prods = prods @ factor.reshape(-1, *(1,) * (opened - 1 - axis), *shape)
        if values is not None:
            at = tuple(g[cut[axis]] for (axis, _), g in zip(steps, label))
            prods = values[at][..., None, None] * prods
        np.add.at(sums, tuple(g[cut[axis]] for (axis, _), g in zip(steps, letter)), prods)
    return sums.reshape(-1, *shape)


def invariance_check(mf, unitary, max_degree):
    """Worst deviation of the quantum-permutation invariance condition.

    For every word j of length 1..max_degree the coaction average
    sum_i mf(i) U_{i1 j1}...U_{ik jk} must equal mf(j) times the identity
    block.  The deviation is the largest entry of the difference, an exact
    Fraction, and the check passes at 0.  A unitary from
    `permutation_magic_unitary` relabels the word instead of summing;
    deviation 0 for every permutation unitary is classical exchangeability,
    passing a noncommutative unitary is the stronger quantum condition.
    Any other unitary sums every word of a length in one `_coaction_sums`
    call, in integers: the moments of that length times the lcm L of their
    denominators, each read once, give sums that are compared with s^k L
    times the moments.  The witness is the first word, in
    `itertools.product` order, with the worst deviation.  A max_degree
    outside 1..mf.k_max raises (`_degree`), a moment that is not rational
    DomainError, and a length whose integers could leave int64 BoundError.
    """
    degree = _degree(mf, max_degree)
    if tuple(mf.alphabet) != tuple(range(1, unitary.n + 1)):
        raise DimensionError(
            "moment functional must be indexed by the labels 1..n of the unitary"
        )
    worst, witness = Fraction(0), None
    perm = unitary.permutation()
    labels = range(1, unitary.n + 1)
    for k in range(1, degree + 1):
        words = list(itertools.product(labels, repeat=k))
        if perm is not None:
            # the coaction sum collapses to a relabeling of the word
            deviations = [
                abs(mf.value(tuple(perm[x - 1] for x in j_word)) - mf.value(j_word))
                for j_word in words
            ]
            dev = max(deviations)
            first = deviations.index(dev)
        else:
            moments = [mf.value(j_word) for j_word in words]
            if not all(isinstance(x, Rational) for x in moments):
                raise DomainError("invariance needs rational moments")
            den = math.lcm(*(x.denominator for x in moments))
            values = [x.numerator * (den // x.denominator) for x in moments]
            sums = _coaction_sums(unitary, SetPartition.singletons(k), [labels] * k, values)
            scale = unitary.scale**k
            targets = np.multiply.outer(
                scale * np.array(values, dtype=np.int64), np.eye(unitary.d, dtype=np.int64)
            )
            gaps = np.abs(sums - targets).max(axis=(1, 2))
            first = int(np.argmax(gaps))
            dev = Fraction(int(gaps[first]), scale * den)
        if dev > worst:
            worst, witness = dev, words[first]
    return InvarianceReport(max_deviation=worst, witness=witness, degree=degree, passed=worst == 0)


def permutation_deviation(mf, max_degree):
    """Worst `invariance_check` deviation over all n! permutation unitaries,
    in one pass over the words: a relabelling maps one word onto another
    exactly when the two share a kernel, so it is the largest spread
    max - min of mf.value over the words of one kernel class, for the
    lengths 1..max_degree.  0 is classical exchangeability.  A max_degree
    outside 1..mf.k_max raises (`_degree`)."""
    classes = {}
    for k in range(1, _degree(mf, max_degree) + 1):
        for word in itertools.product(mf.alphabet, repeat=k):
            classes.setdefault(kernel(word), []).append(mf.value(word))
    return max((max(v) - min(v) for v in classes.values()), default=Fraction(0))


def block_sum_identity(unitary, pi, j_word):
    """sum over index words i with pi <= ker i of the block product, in the
    integers of `stack`: s^k times the sum, as a d x d int64 array
    (`_coaction_sums` on a batch of one word).

    For pi in NC(k) an algebra identity forces the result to the identity
    when pi <= ker j and to zero otherwise, for every magic unitary (the
    fixed-point lemma behind free de Finetti).  For a crossing pi it holds
    for commuting blocks, as for every permutation unitary, but not in
    general: the two-projection unitary on the line through (3, 4) breaks it
    at pi = 1,3|2,4, j = (1, 3, 1, 3).
    """
    j_word = tuple(j_word)
    if len(j_word) != pi.ground_size:
        raise DimensionError(
            f"word length {len(j_word)} differs from ground size {pi.ground_size}"
        )
    if not all(1 <= x <= unitary.n for x in j_word):
        raise BoundError(f"labels out of range 1..{unitary.n}: {j_word}")
    return _coaction_sums(unitary, pi, [(x,) for x in j_word])[0]


def block_sum_matches_indicator(unitary, pi, j_word):
    """Whether `block_sum_identity` is s^k times the identity when
    pi <= ker j and zero otherwise."""
    got = block_sum_identity(unitary, pi, j_word)
    want = unitary.scale**pi.ground_size if leq(pi, kernel(j_word)) else 0
    return bool((got == want * np.eye(unitary.d, dtype=np.int64)).all())


@dataclass(frozen=True)
class UrnModel:
    """Urn weights for the noncommutative urn x_j = sum_i lambda_i u_ij."""

    n: int
    lam: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _check_n(self.n))
        if len(self.lam) != self.n:
            raise DimensionError(f"need {self.n} weights, got {len(self.lam)}")
        object.__setattr__(self, "lam", tuple(Fraction(x) for x in self.lam))
        # the key of the urn memo tables: hash the n weights once
        object.__setattr__(self, "_hash", hash((self.n, self.lam)))

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=None)
def _power_sums(model, m_max):
    """(D, (S_0, ..., S_m_max)) in integers: D is the lcm of the weights'
    denominators and S_m = sum_i (D lambda_i)^m, so that the power sum
    p_m = sum_i lambda_i^m is S_m / D^m."""
    denominator = math.lcm(*(x.denominator for x in model.lam))
    counts = Counter(x.numerator * (denominator // x.denominator) for x in model.lam).items()
    return denominator, tuple(sum(c * v**m for v, c in counts) for m in range(m_max + 1))


@lru_cache(maxsize=None)
def _injection_weight(model, tau):
    """m_lambda(tau): sum over injections of tau's blocks into {1..n} of the
    product of weights raised to block sizes.  Inclusion-exclusion over the
    partitions sigma of the b blocks gives it from the power sums
    p_m = sum_i lambda_i^m as sum_sigma mu(0, sigma) prod_{S in sigma} p_{|S|},
    with mu(0, sigma) = prod_S (-1)^{|S|-1} (|S|-1)! and |S| the number of
    positions in the blocks of S: Bell(b) terms, whatever the number of
    distinct weights.  The |S| of each term add up to k, so the sum runs over
    the integers S_|S| and is divided by D^k once."""
    denominator, sums = _power_sums(model, tau.ground_size)
    sizes = [len(b) for b in tau.blocks]
    total = 0
    for sigma in enumerate_partitions(len(sizes)):
        term = 1
        for s in sigma.blocks:
            term *= (-1) ** (len(s) - 1) * math.factorial(len(s) - 1)
            term *= sums[sum(sizes[i - 1] for i in s)]
        total += term
    return Fraction(total, denominator**tau.ground_size)


def _nc_weights(model, k):
    """(D^k, w) in integers, w(p) = prod_{V in p} S_{|V|} over NC(k) in canonical
    order: the weights of the index words i with p <= ker i sum to w(p) / D^k."""
    denominator, sums = _power_sums(model, k)
    weights = tuple(math.prod(sums[len(b)] for b in p.blocks) for p in enumerate_nc(k))
    return denominator**k, weights


@lru_cache(maxsize=None)
def _urn_vector(model, k):
    """(r, den) in integers, with the quantum urn moment at a word j of
    length k equal to sum_{q in NC(k), q <= ker j} r(q) / den, for n >= 4.

    Summing the Haar formula sum_{p <= ker i, q <= ker j} W(p, q) over the
    index words i with the weights of `_nc_weights`, and W_kn = A / D_W,
    gives r = w^T A and den = D^k D_W.  A is symmetric, so r(q) is the dot
    product of row q of A with w."""
    nums, den = _weingarten_pair(k, model.n)
    start = time.perf_counter()
    scale, weights = _nc_weights(model, k)
    vector = tuple(sum(map(mul, row, weights)) for row in nums)
    _record_build(__name__, "urn vector", start, k=k, n=model.n, N=len(vector))
    return vector, scale * den


@lru_cache(maxsize=None)
def _free_vector(model, k):
    """(f, den) in integers, with the free i.i.d. moment of the marginal at
    a word j of length k equal to sum_{q in NC(k), q <= ker j} f(q) / den.

    The marginal moments m_s = S_s / (D^s n) give m(p) = w(p) / (D^k n^{|p|}),
    and mu is multiplicative on NC intervals, so the free cumulant
    kappa_q = sum_{p <= q} mu(p, q) m(p) is f(q) / den with
    f(q) = sum_p mu(p, q) w(p) n^{k - |p|} and den = D^k n^k."""
    scale, weights = _nc_weights(model, k)
    columns = [_mobius_column(k, b) for b in range(len(weights))]
    start = time.perf_counter()
    coeffs = [w * model.n ** (k - p.block_count()) for p, w in zip(enumerate_nc(k), weights)]
    vector = tuple(sum(map(mul, coeffs, column)) for column in columns)
    _record_build(__name__, "free vector", start, k=k, n=model.n, N=len(vector))
    return vector, scale * model.n**k


def _word_kernel(model, j_word):
    """ker j of a word of the labels 1..n, of length 1..K_MAX."""
    if not all(1 <= x <= model.n for x in j_word):
        raise BoundError(f"labels out of range 1..{model.n}: {j_word}")
    _check_k(len(j_word))
    return kernel(j_word)


def _classical_moment(model, ker):
    """m_lambda(ker j) over the (n)_r injections of the r labels of j."""
    return _injection_weight(model, ker) / math.perm(model.n, ker.block_count())


def _urn_pair(model, ker, below=None):
    """(u, D) in integers with the quantum urn moment at a word of kernel ker
    equal to u / D.  below is `_nc_below(ker)`, looked up here when not
    given, after the urn vector has refused k > W_K_MAX; n <= 3 reads none."""
    if model.n <= 3:
        moment = _classical_moment(model, ker)
        return moment.numerator, moment.denominator
    vector, den = _urn_vector(model, ker.ground_size)
    if below is None:
        below = _nc_below(ker)
    return sum(vector[q] for q in below), den


def urn_moment_quantum(model, j_word):
    """Haar-state moment of the noncommutative urn at the word j.

    The Haar value of a generator word depends on the index word i only
    through ker i, and the weights of the index words with p <= ker i sum
    to a product of power sums of lambda.  So for n >= 4 the moment is a
    sum, over the q in NC(k) below ker j, of one integer vector per
    (model, k), divided by one integer (see `_urn_vector`).  For n <= 3
    the quantum permutation group is S_n and the moment is the classical
    one.  Words of length 0 or above K_MAX are refused at every n.
    """
    return Fraction(*_urn_pair(model, _word_kernel(model, tuple(j_word))))


def urn_moment_classical(model, j_word):
    """Moment of classical sampling without replacement.

    A uniform permutation of the weights, restricted to the r distinct
    labels of j, is a uniform injection, so the moment is m_lambda(ker j)
    over the (n)_r injections.  r is bounded by K_MAX; n is not.
    """
    j_word = tuple(j_word)
    if not all(1 <= x <= model.n for x in j_word):
        raise BoundError(f"labels out of range 1..{model.n}: {j_word}")
    if not j_word:
        return Fraction(1)
    return _classical_moment(model, kernel(j_word))


@dataclass(frozen=True)
class GapReport:
    n: int
    j_word: tuple
    urn_moment: Fraction
    free_moment: Fraction
    gap: Fraction
    bound: Fraction


@lru_cache(maxsize=None)
def _gap_bound(model, k):
    """(scale, bound) of the gap at words of length k: scale is
    max(1, max_i |lambda_i|)^k and bound is d_k(n)/n * scale, read through
    `dk_value` once per (model, k).  A refused k or a singular G_kn raises,
    and an exception is not cached."""
    scale = max(1, max(map(abs, model.lam))) ** k
    return scale, dk_value(k, [model.n]).max_value / model.n * scale


def definetti_gap(model, j_word):
    """Distance of the quantum urn from its marginal-matched free model.

    The free i.i.d. side has the free cumulants of the marginal
    m_s = (1/n) sum_i lambda_i^s.  Each side is a subset sum u or f over the
    q in NC(k) below ker j, of the urn vector (from W_kn = A / D; the
    classical urn for n <= 3) or of the Moebius vector `_free_vector`, over
    its integer D_u or D_f, so the gap is one integer difference,
    |u D_f - f D_u| / (D_u D_f).  It must stay below d_k(n)/n for weights in
    [-1, 1]; both sides are homogeneous of degree k in lambda, so the bound
    is d_k(n)/n * max(1, max_i |lambda_i|)^k.  The scale and the bound are
    read once per (model, k) (`_gap_bound`), before any vector, so words of
    length 0 or above W_K_MAX, and the cells with a singular G_kn (n <= 3),
    are refused before either side is built.  The kernel of j and the
    positions below it serve both sides.
    """
    j_word = tuple(j_word)
    k = len(j_word)
    scale, bound = _gap_bound(model, k)
    ker = _word_kernel(model, j_word)
    below = _nc_below(ker)
    urn, urn_den = _urn_pair(model, ker, below)
    vector, free_den = _free_vector(model, k)
    free = sum(vector[q] for q in below)
    gap = Fraction(abs(urn * free_den - free * urn_den), urn_den * free_den)
    if gap > bound:
        raise InvariantViolation(
            f"de Finetti gap {gap} exceeds d_k(n)/n * {scale} = {bound} "
            f"at n={model.n}, j={j_word}"
        )
    return GapReport(
        n=model.n,
        j_word=j_word,
        urn_moment=Fraction(urn, urn_den),
        free_moment=Fraction(free, free_den),
        gap=gap,
        bound=bound,
    )


def cesaro_variance(spec, n):
    """Squared 2-norm of the Cesaro mean (1/n) sum_i rho_i(c) for a centered
    free i.i.d. family of the letter "c"; equals phi(c*c)/n, with c* the
    letter "c*" when the alphabet has it and c otherwise.  The n^2 terms of
    the pair-moment double sum read the labels (i1, i2) only through their
    kernel: n of them are m(1, 1) and n(n - 1) are m(1, 2)."""
    n = _check_n(n)
    star = "c*" if "c*" in spec.alphabet else "c"
    if spec.value(("c",)) != 0 or spec.value((star,)) != 0:
        raise DomainError("cesaro_variance requires a centered letter (kappa_1 = 0)")
    same, distinct = (free_iid_moment(spec, (star, "c"), ij) for ij in ((1, 1), (1, 2)))
    return Fraction(n * same + n * (n - 1) * distinct, n**2)


def _label_functional(n, k_max, value):
    """MomentFunctional on the labels 1..n holding value(labels) at every
    label word of length 1..k_max.  value must depend on the labels only
    through their kernel: it is called once per kernel, at the first word
    of that kernel in `itertools.product` order."""
    by_kernel, moments = {}, {}
    for k in range(1, k_max + 1):
        for labels in itertools.product(range(1, n + 1), repeat=k):
            ker = kernel(labels)
            if ker not in by_kernel:
                by_kernel[ker] = value(labels)
            moments[labels] = by_kernel[ker]
    return MomentFunctional(alphabet=tuple(range(1, n + 1)), k_max=k_max, moments=moments)


def free_iid_functional(spec, n, k_max):
    """Joint moments of n free copies of the letter "c", indexed by labels."""
    return _label_functional(
        n, k_max, lambda labels: free_iid_moment(spec, ("c",) * len(labels), labels)
    )


def tensor_iid_functional(single_moments, n, k_max):
    """Joint moments of classically independent identically distributed
    commuting variables: the moment of a word is the product over labels of
    the marginal moment at that label's multiplicity."""

    def value(labels):
        multiplicities = map(labels.count, set(labels))
        return math.prod((single_moments[m] for m in multiplicities), start=Fraction(1))

    return _label_functional(n, k_max, value)


def bernoulli_moments(k_max):
    """Marginal moments of a symmetric +-1 coin: 1 at even order, 0 at odd."""
    return {p: Fraction(1 - p % 2) for p in range(1, k_max + 1)}
