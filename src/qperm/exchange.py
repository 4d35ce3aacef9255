"""Quantum and classical urn sequences, magic-unitary invariance testing,
and the finite de Finetti gap experiment.

The noncommutative urn x_j = sum_i lambda_i u_ij is realized purely at the
level of moments through the Haar integration formula; no Hilbert-space
operators are constructed.  Permutation magic unitaries and urn moments
are exact rationals; complex-projection magic unitaries carry a stated
absolute tolerance (default 1e-9).  `MagicUnitary` reads that arithmetic
off its blocks (`*` or `@`, exact comparison or a tolerance), and every
coaction sum, the invariance check's sum_i M(i) u_{i1 j1}...u_{ik jk} and
the block sum over the index words i with pi <= ker i, is one depth-first
walk over the nonzero blocks (`_coaction_sum`).

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
from numbers import Integral, Rational
from operator import matmul, mul

import numpy as np

from .cumulants import MomentFunctional, _degree, free_iid_moment
from .errors import BoundError, DimensionError, DomainError, InvariantViolation
from .partitions import (
    SetPartition,
    _check_k,
    _debug,
    _mobius_column,
    _nc_below,
    enumerate_nc,
    enumerate_partitions,
    kernel,
    leq,
)
from .weingarten import _weingarten_pair, dk_value

DEFAULT_TOL = 1e-9


class MagicUnitary:
    """n x n array of d x d projection blocks with magic row/column sums.

    The block arithmetic is read from the blocks: rational scalars make an
    exact instance (d = 1, `*`, exact comparison whatever the tolerance),
    square arrays of one shape a numeric one (complex, `@`, comparison within
    a tolerance, default 1e-9).  Mixed blocks raise DimensionError, scalars
    that are not rational DomainError.
    """

    def __init__(self, blocks):
        rows = [list(r) for r in blocks]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionError("blocks must form a square array")
        arrays = sum(isinstance(x, np.ndarray) for r in rows for x in r)
        if 0 < arrays < n * n:
            raise DimensionError("blocks must be all scalars or all matrices")
        self.exact = arrays == 0
        self._permutation = None
        if self.exact:
            if not all(isinstance(x, Rational) for r in rows for x in r):
                raise DomainError("scalar blocks must be rational")
            self.d = 1
            self.blocks = tuple(tuple(Fraction(x) for x in r) for r in rows)
            self.one, self.zero = Fraction(1), Fraction(0)
            self.mul, self.scalar = mul, Fraction
            self.adjoint = lambda a: a
        else:
            arrs = [[np.asarray(x, dtype=complex) for x in r] for r in rows]
            shape = arrs[0][0].shape
            if len(shape) != 2 or shape[0] != shape[1] or any(
                a.shape != shape for r in arrs for a in r
            ):
                raise DimensionError("blocks must be square matrices of one shape")
            self.d = shape[0]
            self.blocks = tuple(tuple(r) for r in arrs)
            self.one = np.eye(self.d, dtype=complex)
            self.zero = np.zeros((self.d, self.d), dtype=complex)
            self.mul, self.scalar = matmul, complex
            self.adjoint = lambda a: a.conj().T
        self.n = n
        # a structural zero is exactly 0, or a matrix with no entry above 1e-14
        floor = self.tolerance(1e-14)
        self._nonzero = tuple(
            tuple(self.distance(b, self.zero) > floor for b in row) for row in self.blocks
        )

    def distance(self, a, b):
        """|a - b| exactly, or the largest entry of |a - b| as a float."""
        if self.exact:
            return abs(a - b)
        return float(np.max(np.abs(a - b)))

    def tolerance(self, tol=DEFAULT_TOL):
        """The tolerance block comparisons use: 0 for exact instances,
        whatever tol says, and tol otherwise."""
        return 0 if self.exact else tol

    def block(self, i, j):
        return self.blocks[i - 1][j - 1]

    def block_is_zero(self, i, j):
        return not self._nonzero[i - 1][j - 1]

    def permutation(self):
        """The permutation `permutation_magic_unitary` recorded, or None:
        nothing is read off the blocks."""
        return self._permutation

    def violations(self, tol=DEFAULT_TOL):
        """All failures of the magic relations, as human-readable strings."""
        tol = self.tolerance(tol)
        close = lambda a, b: self.distance(a, b) <= tol
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                u = self.block(i, j)
                if not close(self.mul(u, u), u) or not close(self.adjoint(u), u):
                    out.append(f"block ({i},{j}) is not a projection")
        for i in range(1, self.n + 1):
            for k in range(1, self.n + 1):
                for l in range(k + 1, self.n + 1):
                    if not close(self.mul(self.block(i, k), self.block(i, l)), self.zero):
                        out.append(f"row {i}: blocks {k},{l} not orthogonal")
                    if not close(self.mul(self.block(k, i), self.block(l, i)), self.zero):
                        out.append(f"column {i}: blocks {k},{l} not orthogonal")
        for i in range(1, self.n + 1):
            row_sum = self.block(i, 1)
            col_sum = self.block(1, i)
            for k in range(2, self.n + 1):
                row_sum = row_sum + self.block(i, k)
                col_sum = col_sum + self.block(k, i)
            if not close(row_sum, self.one):
                out.append(f"row {i} does not sum to the identity")
            if not close(col_sum, self.one):
                out.append(f"column {i} does not sum to the identity")
        return out


def permutation_magic_unitary(perm):
    """Magic unitary of a permutation: block (i,j) = [i == perm(j)]."""
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of 1..{n}: {perm}")
    blocks = [
        [Fraction(1) if i == perm[j - 1] else Fraction(0) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    unitary = MagicUnitary(blocks)
    unitary._permutation = perm
    return unitary


def rotated_projection(theta):
    """Rank-one projection onto the line at angle theta in R^2."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def two_projection_magic_unitary(p, q):
    """The 4 x 4 block pattern [[p,1-p,0,0],[1-p,p,0,0],[0,0,q,1-q],[0,0,1-q,q]].

    Noncommutative whenever p and q do not commute; this is the smallest
    concrete witness separating quantum from classical exchangeability.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError("p and q must be square matrices of equal size")
    for name, a in (("p", p), ("q", q)):
        if np.max(np.abs(a @ a - a)) > DEFAULT_TOL or np.max(np.abs(a.conj().T - a)) > DEFAULT_TOL:
            raise DomainError(f"{name} is not a projection")
    one = np.eye(p.shape[0], dtype=complex)
    z = np.zeros_like(one)
    blocks = [
        [p, one - p, z, z],
        [one - p, p, z, z],
        [z, z, q, one - q],
        [z, z, one - q, q],
    ]
    return MagicUnitary(blocks)


@dataclass(frozen=True)
class InvarianceReport:
    max_deviation: object
    witness: tuple
    degree: int
    tolerance: object
    passed: bool


def _coaction_sum(unitary, j_word, pi, weight):
    """sum over the index words i with pi <= ker i of
    weight(i) * U_{i1 j1} ... U_{ik jk}, in the block arithmetic of `unitary`.

    Depth first over the nonzero blocks: the first position of a block of pi
    pushes the labels 1..n in order (popped last in, first out), and every
    other position repeats the label of the first position of its block.
    """
    opener = [0] * len(j_word)
    for b in pi.blocks:
        for x in b:
            opener[x - 1] = b[0] - 1
    labels = range(1, unitary.n + 1)
    total = unitary.zero
    stack = [((), unitary.one)]
    while stack:
        prefix, prod = stack.pop()
        t = len(prefix)
        if t == len(j_word):
            total = total + unitary.scalar(weight(prefix)) * prod
            continue
        for i in labels if opener[t] == t else (prefix[opener[t]],):
            if not unitary.block_is_zero(i, j_word[t]):
                blk = unitary.block(i, j_word[t])
                stack.append((prefix + (i,), unitary.mul(prod, blk)))
    return total


def invariance_check(mf, unitary, max_degree, tolerance=None):
    """Worst deviation of the quantum-permutation invariance condition.

    For every word j of length 1..max_degree the coaction average
    sum_i mf(i) U_{i1 j1}...U_{ik jk} must equal mf(j) times the identity
    block.  The comparison tolerance is `unitary.tolerance(tolerance)`
    (`tolerance` defaults to 1e-9): exact unitaries are checked at 0
    whatever `tolerance` says, and report tolerance 0; a negative
    `tolerance` raises DomainError.  A unitary from
    `permutation_magic_unitary` relabels the word instead of summing;
    deviation 0 for every permutation unitary is classical exchangeability,
    passing a noncommutative unitary is the stronger quantum condition.
    A max_degree outside 1..mf.k_max raises BoundError (`_degree`).
    """
    _degree(mf, max_degree)
    if tuple(mf.alphabet) != tuple(range(1, unitary.n + 1)):
        raise DimensionError(
            "moment functional must be indexed by the labels 1..n of the unitary"
        )
    if tolerance is not None and tolerance < 0:
        raise DomainError(f"tolerance must be >= 0, got {tolerance}")
    tol = unitary.tolerance(DEFAULT_TOL if tolerance is None else tolerance)
    # 0 in the type the distances have
    worst = unitary.distance(unitary.zero, unitary.zero)
    witness = None
    perm = unitary.permutation()
    for k in range(1, max_degree + 1):
        finest = SetPartition.singletons(k)
        for j_word in itertools.product(range(1, unitary.n + 1), repeat=k):
            if perm is not None:
                # the coaction sum collapses to a relabeling of the word
                dev = abs(mf.value(tuple(perm[x - 1] for x in j_word)) - mf.value(j_word))
            else:
                lhs = _coaction_sum(unitary, j_word, finest, mf.value)
                dev = unitary.distance(lhs, unitary.scalar(mf.value(j_word)) * unitary.one)
            if dev > worst:
                worst = dev
                witness = j_word
    return InvarianceReport(
        max_deviation=worst,
        witness=witness,
        degree=max_degree,
        tolerance=tol,
        passed=worst <= tol,
    )


def permutation_deviation(mf, max_degree):
    """Worst `invariance_check` deviation over all n! permutation unitaries,
    in one pass over the words: a relabelling maps one word onto another
    exactly when the two share a kernel, so it is the largest spread
    max - min of mf.value over the words of one kernel class, for the
    lengths 1..max_degree.  0 is classical exchangeability.  A max_degree
    outside 1..mf.k_max raises BoundError (`_degree`)."""
    classes = {}
    for k in range(1, _degree(mf, max_degree) + 1):
        for word in itertools.product(mf.alphabet, repeat=k):
            classes.setdefault(kernel(word), []).append(mf.value(word))
    return max((max(v) - min(v) for v in classes.values()), default=Fraction(0))


def block_sum_identity(unitary, pi, j_word):
    """sum over index words i with pi <= ker i of the block product.

    For pi in NC(k) an algebra identity forces the result to the identity
    when pi <= ker j and to zero otherwise, for every magic unitary (the
    fixed-point lemma behind free de Finetti).  For a crossing pi it holds
    for commuting blocks, as for every permutation unitary, but not in
    general: the two-projection unitary at theta = pi/5 breaks it at
    pi = 1,3|2,4, j = (1, 3, 1, 3).
    """
    j_word = tuple(j_word)
    if len(j_word) != pi.ground_size:
        raise DimensionError(
            f"word length {len(j_word)} differs from ground size {pi.ground_size}"
        )
    if not all(1 <= x <= unitary.n for x in j_word):
        raise BoundError(f"labels out of range 1..{unitary.n}: {j_word}")
    return _coaction_sum(unitary, j_word, pi, lambda i: 1)


def block_sum_matches_indicator(unitary, pi, j_word, tol=DEFAULT_TOL):
    got = block_sum_identity(unitary, pi, j_word)
    expected = unitary.one if leq(pi, kernel(j_word)) else unitary.zero
    return unitary.distance(got, expected) <= unitary.tolerance(tol)


@dataclass(frozen=True)
class UrnModel:
    """Urn weights for the noncommutative urn x_j = sum_i lambda_i u_ij."""

    n: int
    lam: tuple

    def __post_init__(self):
        if not isinstance(self.n, Integral):
            # a float n would build, then fail deep in a table build, and
            # share the memo entries of the equal int model
            raise DomainError(f"n={self.n!r} must be an integer")
        if self.n < 1:
            raise BoundError(f"n={self.n} must be >= 1")
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
    _debug(
        __name__, "urn vector k=%d n=%d N=%d seconds=%.4f",
        k, model.n, len(vector), time.perf_counter() - start,
    )
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
    _debug(
        __name__, "free vector k=%d n=%d N=%d seconds=%.4f",
        k, model.n, len(vector), time.perf_counter() - start,
    )
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
    if n < 1:
        raise BoundError(f"n={n} must be >= 1")
    star = "c*" if "c*" in spec.alphabet else "c"
    if spec.value(("c",)) != 0 or spec.value((star,)) != 0:
        raise DomainError("cesaro_variance requires a centered letter (kappa_1 = 0)")
    same, distinct = (free_iid_moment(spec, (star, "c"), ij) for ij in ((1, 1), (1, 2)))
    return Fraction(n * same + n * (n - 1) * distinct, n**2)


def _label_functional(n, k_max, value):
    """MomentFunctional on the labels 1..n holding value(labels) at every
    label word of length 1..k_max."""
    moments = {
        labels: value(labels)
        for k in range(1, k_max + 1)
        for labels in itertools.product(range(1, n + 1), repeat=k)
    }
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
