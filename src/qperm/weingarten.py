"""Exact Gram and Weingarten matrices for the quantum permutation group,
the Haar-state integration formula, and the asymptotic residual sweeps.

Everything in this module is exact.  The one table memoized per (k, n) is
the inverse of the Gram matrix G_kn, as one integer pair W_kn = A / D with
D > 0 and gcd(D, every entry of A) = 1.  The pair comes from p-adic lifting
(Dixon, Numer. Math. 40, 1982), in numpy: G_kn is gathered from the join
exponents, memoized per k, and G^{-1} mod a word prime p is lifted to
G^{-1} mod p^m in float64 matrix products that are exact.  D is the common
denominator that rational reconstruction finds for row 0 and the diagonal
of G^{-1} mod p^m.  Then D I is lifted with symmetric digits until the
residue R is exactly 0: D I = G A + p^m R holds exactly after every lift,
each lift checking that p divides R - G X, so R = 0 is G A = D I itself.
Only when R stays nonzero is the whole triangle reconstructed.  The cost
follows the size of A and D, about 30 bits at k = 6, and not that of
det G_kn, about 1,600 bits there.  Haar sums and d_k(n) add the integers of
A and divide by D once.  The Gram table and the `Fraction` table W_kn are
views, built on each call for the callers that need them.

`check_inverse` certifies G_kn A = D I on its own, with G_kn rebuilt as
B^T diag((n)_{|tau|}) B over P(k), B[tau][p] = [p <= tau]: it reads neither
the join exponents nor the Gram table, so it also certifies the table that
G_kn was gathered from.  The product is evaluated modulo word primes
p < 2^21 in float64; once the product of the primes exceeds
2 (N n^k max|A| + D), a bound on every entry of G A - D I, zero residues
prove the identity by the Chinese remainder theorem.  Tables are indexed by
NC(k) in the canonical enumeration order and are immutable once built.
"""

import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import BoundError, InvariantViolation, SingularGramError
from .partitions import (
    K_MAX,
    SetPartition,
    _all_nc,
    _block_masks,
    _check_k,
    _debug,
    _join_masks,
    _mobius_column,
    _nc_below,
    _nc_index,
    enumerate_nc,
    enumerate_partitions,
    kernel,
    leq,
)


def _check_kn(k, n):
    _check_k(k)
    if n < 1:
        raise BoundError(f"n={n} must be >= 1")


@dataclass(frozen=True)
class NCTable:
    """A square table indexed by NC(k) in canonical order: the Gram matrix
    G_kn(pi, sigma) = n^{|pi v sigma|} (join taken in P(k)), or its exact
    rational inverse, the Weingarten matrix W_kn."""

    k: int
    n: int
    index: tuple
    entries: tuple

    def entry(self, p, q):
        return self.entries[_nc_index(self.k, p)][_nc_index(self.k, q)]

    def to_json_dict(self):
        return {
            "k": self.k,
            "n": self.n,
            "index": [p.to_text() for p in self.index],
            "matrix": [[rational_str(x) for x in row] for row in self.entries],
        }


def rational_str(q):
    """Serialize a rational as "p/q" with q > 0 and gcd(p, q) = 1."""
    f = Fraction(q)
    return f"{f.numerator}/{f.denominator}"


@lru_cache(maxsize=None)
def _join_exponents(k):
    """|p v q| for every pair of NC(k) in canonical order, as a read-only
    integer array; n enters G_kn only as the base raised to these exponents.

    Blocks are k-bit masks, merged by the join of `partitions`.  The table
    is symmetric, so only its upper half is merged."""
    start = time.perf_counter()
    masks = [_block_masks(p) for p in enumerate_nc(k)]
    size = len(masks)
    table = [[0] * size for _ in range(size)]
    for a, own in enumerate(masks):
        for b in range(a, size):
            table[a][b] = table[b][a] = len(_join_masks(own, masks[b]))
    table = np.array(table, dtype=np.intp)
    table.flags.writeable = False
    _debug(__name__, "join exponents k=%d N=%d seconds=%.4f", k, size, time.perf_counter() - start)
    return table


def gram(k, n):
    """Exact Gram matrix of the NC(k) partition vectors at size n, built on
    each call from the join exponents, which are memoized per k."""
    _check_kn(k, n)
    power = [n**e for e in range(k + 1)]
    rows = tuple(tuple(power[e] for e in row) for row in _join_exponents(k).tolist())
    return NCTable(k=k, n=n, index=_all_nc(k), entries=rows)


@lru_cache(maxsize=None)
def _word_primes(count):
    """The `count` largest primes below 2^21, in descending order, found by
    trial division on first use."""
    primes = []
    candidate = (1 << 21) - 1
    while len(primes) < count:
        if all(candidate % d for d in range(3, math.isqrt(candidate) + 1, 2)):
            primes.append(candidate)
        candidate -= 2
    return tuple(primes)


#: Word primes for the p-adic inverse, the four largest below 2^21, tried in
#: turn until one does not divide det G_kn.  As each is below 2^21, for
#: N < 2048 rows (N = 429 at W_K_MAX) a product of two residue matrices has
#: entries below N p^2 < 2^53 and is exact in float64.
_PRIMES = _word_primes(4)

#: Blocks of at most this many rows are inverted mod p by Gauss-Jordan on
#: Python integers; larger ones are split in two (see `_inverse_mod`).
_BLOCK = 8


def _mod(x, p):
    """x mod p in [0, p) as float64, for an integer array of float64 below
    2^53, int64 or Python ints.  Fixed-width integers are reduced as
    x - (x // p) p: numpy divides int64 by a scalar several times faster
    than it takes a float64 remainder."""
    if x.dtype == object:
        return (x % p).astype(np.float64)
    x = x.astype(np.int64, copy=False)
    return (x - x // p * p).astype(np.float64)


def _gauss_jordan_mod(rows, p):
    """The inverse mod p of a small matrix of residues, as lists, or None
    when it is singular mod p."""
    size = len(rows)
    work = [row + [int(i == j) for j in range(size)] for i, row in enumerate(rows)]
    for c in range(size):
        r = next((r for r in range(c, size) if work[r][c]), None)
        if r is None:
            return None
        work[c], work[r] = work[r], work[c]
        # left of column c, row c is 0 and the other rows are not changed
        inv = pow(work[c][c], -1, p)
        pivot = [x * inv % p for x in work[c][c:]]
        for i, row in enumerate(work):
            f = row[c]
            if i == c:
                row[c:] = pivot
            elif f:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], pivot)]
    return [row[size:] for row in work]


def _inverse_mod(g, p):
    """G^{-1} mod p for a symmetric matrix g of float64 residues, or None when
    p divides det G or a leading minor of G where it is split.

    G = [[A, B], [B^T, D]] is inverted through the Schur complement
    S = D - B^T E, E = A^{-1} B: G^{-1} = [[A^{-1} + F E^T, -F], [-F^T, S^{-1}]]
    with F = E S^{-1}.  Each product sums fewer than N terms below p^2, so it
    is exact in float64 before it is reduced."""
    size = len(g)
    if size <= _BLOCK:
        inverse = _gauss_jordan_mod(g.astype(np.int64).tolist(), p)
        return None if inverse is None else np.array(inverse, dtype=np.float64)
    h = size // 2
    a_inv = _inverse_mod(g[:h, :h], p)
    if a_inv is None:
        return None
    e = _mod(a_inv @ g[:h, h:], p)
    s_inv = _inverse_mod(_mod(g[h:, h:] - g[h:, :h] @ e, p), p)
    if s_inv is None:
        return None
    f = _mod(e @ s_inv, p)
    out = np.empty_like(g)
    out[:h, :h] = _mod(a_inv + f @ e.T, p)
    out[:h, h:] = _mod(-f, p)
    out[h:, :h] = out[:h, h:].T
    out[h:, h:] = s_inv
    return out


def _denominator(y, modulus, bound, den_bound):
    """The denominator d of y mod modulus as a fraction a / d with
    |a| <= bound, or None if it exceeds den_bound: the extended Euclidean
    algorithm on (modulus, y), stopped at the first remainder <= bound."""
    r0, r1 = modulus, y % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    d = abs(t1) // math.gcd(r1, t1)
    return d if d <= den_bound else None


def _reconstruct(approx, modulus):
    """The common denominator D of approx mod modulus: D and every numerator
    D * approx mod modulus at most sqrt(modulus / 2) in absolute value, or
    None.  D starts as the denominator of the first entry and takes in that
    of the first entry still too large, until none is; within those bounds
    such a D and its numerators are unique."""
    bound = math.isqrt(modulus // 2)
    half = modulus // 2
    den = _denominator(approx[0], modulus, bound, bound)
    while den is not None:
        nums = [y - modulus if y > half else y for y in (den * x % modulus for x in approx)]
        wide = next((y for y in nums if abs(y) > bound), None)
        if wide is None:
            return den
        d = _denominator(wide, modulus, bound, bound // den)
        den = None if d is None else den * d
    return None


def _width(bound):
    """The integer width for entries below `bound` in absolute value: int64
    while the bound is at most 2^63, Python integers (object) beyond it."""
    return np.int64 if bound <= 1 << 63 else object


def _gram_times(limbs, x, dtype):
    """G x in exact integers of `dtype`, for a float64 integer matrix
    |x| < 2^20.  Each limb of G gives one float64 product below 2^53, cast to
    `dtype` and shifted in place; as limb(a, b) 2^shift <= G(a, b), every
    shifted product and every partial sum is at most N max G 2^20."""
    products = (((limb @ x).astype(np.int64).astype(dtype, copy=False), s) for s, limb in limbs)
    return reduce(operator.iadd, (np.left_shift(y, s, out=y) for y, s in products))


def _lift(inverse, limbs, residue, p):
    """One p-adic lift: the symmetric digit X = C (R mod p) mod p, in
    (-p/2, p/2], of C = G^{-1} mod p, and the exact residue (R - G X) / p,
    in the dtype of R.  Raises InvariantViolation unless p divides R - G X,
    so that R_0 = G (X_0 + p X_1 + ... + p^{m-1} X_{m-1}) + p^m R_m holds
    exactly after every lift."""
    digit = _mod(inverse @ _mod(residue, p), p)
    digit[digit > p // 2] -= p
    step = residue - _gram_times(limbs, digit, residue.dtype)
    quotient = step // p
    if (quotient * p != step).any():
        raise InvariantViolation(f"p={p} does not divide R - G X: the lift is not exact")
    return digit, quotient


def _add_digit(value, digit, modulus, p):
    """(value + modulus digit, modulus p) for a symmetric p-adic digit, in
    the width of modulus p, which bounds the new sum."""
    term = digit.astype(np.int64).astype(_width(modulus * p), copy=False)
    term *= modulus
    term += value
    return term, modulus * p


def _lift_to_zero(inverse, limbs, row_bound, den, p, max_lifts):
    """(A, lifts) with G A = den I exactly, or None if the residue is not 0
    after max_lifts lifts.

    den I is lifted from R = den I until R = 0; as den I = G A + p^m R holds
    exactly after every lift, R = 0 is the identity itself, and it is
    reached exactly when den G^{-1} is an integer matrix: the symmetric
    digits of A run out after about log_p(2 max|A|) lifts.  As |G X| is
    below row_bound p / 2, row_bound = N max G, |R| stays at most
    max(den, row_bound); `_width` reads the residue width off
    |R - G X| < den + row_bound 2^21, and that of A off p^m."""
    size = len(inverse)
    residue = np.eye(size, dtype=_width(den + (row_bound << 21))) * den
    value, modulus = np.zeros((size, size), dtype=np.int64), 1
    for lifts in range(1, max_lifts + 1):
        digit, residue = _lift(inverse, limbs, residue, p)
        value, modulus = _add_digit(value, digit, modulus, p)
        if not residue.any():
            return value.tolist(), lifts
    return None


def _padic_inverse(exponents, k, n):
    """(A, D) with G_kn^{-1} = A / D, D > 0 and gcd(D, every entry of A) = 1,
    for G_kn(a, b) = n^{exponents[a][b]}, gathered with numpy.

    With C = G^{-1} mod p, each lift takes the next symmetric p-adic digit
    of G^{-1} (`_lift`), from R = I, whose residues are below
    1 + N max G 2^21 (`_width` sets their width).  Only a sample, row 0 and
    the diagonal, sums its digits and is reconstructed after each lift; its
    common denominator D is lifted from D I until the residue is exactly 0
    (`_lift_to_zero`), which proves G A = D I.  A residue still nonzero one
    lift after as many as the sample took restarts the lift from I with the
    whole upper triangle (W is symmetric) as the sample, which past the
    Hadamard bound reconstructs adj / det itself.  Once N max G 2^21 passes
    2^53, G is split into limbs narrow enough for exact float64 products."""
    start = time.perf_counter()
    exponents = np.asarray(exponents)
    size = len(exponents)
    power = [n**e for e in range(int(exponents.max()) + 1)]
    top = power[-1]
    if size * top << 21 < 1 << 53:
        limbs = [(0, np.array(power, dtype=np.float64)[exponents])]
    else:
        width = 32 - size.bit_length()  # size * 2^width * 2^21 < 2^53
        mask = (1 << width) - 1
        limbs = [
            (shift, np.array([x >> shift & mask for x in power], dtype=np.float64)[exponents])
            for shift in range(0, top.bit_length(), width)
        ]
    diagonal = np.arange(1, size)
    sample = (
        np.concatenate([np.zeros(size, dtype=np.intp), diagonal]),
        np.concatenate([np.arange(size), diagonal]),
    )
    # p^m > 2^{20 m} > 2 H^2, H >= |det G|, |adj G| the Hadamard bound
    max_lifts = (size * (size * top * top).bit_length()) // 20 + 1
    for p in _PRIMES:
        inverse = _inverse_mod(np.array([x % p for x in power], dtype=np.float64)[exponents], p)
        if inverse is None:
            continue
        lifts = 0
        for wide in (False, True):
            where = np.triu_indices(size) if wide else sample
            residue = np.eye(size, dtype=_width(1 + (size * top << 21)))
            approx, modulus = np.zeros(len(where[0]), dtype=np.int64), 1
            for m in range(1, max_lifts + 1):
                digit, residue = _lift(inverse, limbs, residue, p)
                approx, modulus = _add_digit(approx, digit[where], modulus, p)
                den = _reconstruct(approx.tolist(), modulus)
                if den is None:
                    continue
                solved = _lift_to_zero(inverse, limbs, size * top, den, p, m + 1)
                if solved is None:
                    if wide:
                        continue
                    break
                nums, more = solved
                common = math.gcd(den, *itertools.chain.from_iterable(nums))
                if common > 1:
                    nums = [[x // common for x in row] for row in nums]
                    den //= common
                for a in range(size):  # A is symmetric: mirrored entries share one int
                    nums[a][:a] = [nums[b][a] for b in range(a)]
                _debug(
                    __name__, "inverse k=%d n=%d N=%d prime=%d lifts=%d den_bits=%d seconds=%.4f",
                    k, n, size, p, lifts + m + more, den.bit_length(), time.perf_counter() - start,
                )
                return tuple(map(tuple, nums)), den
            lifts += m
        raise InvariantViolation(
            f"k={k}, n={n}: no exact inverse after {max_lifts} lifts, past the Hadamard bound"
        )
    raise BoundError(f"k={k}, n={n}: every prime of {_PRIMES} divides det G_kn")


#: Largest k for which Weingarten tables are built.  N = Cat(k) rows: 429 at
#: k = 7, 1430 at k = 8.  There, over n = 4..12 (one cold process per n, one
#: BLAS thread, a shared 2-core host, two sweeps), the join exponents took
#: 1.6-2.2 s, the pair 2.3-4.6 s (D of 13-47 bits, peak RSS 271-304 MiB) and
#: `check_inverse` over P(8) 1.1-1.6 s (it holds): under 10 s a cell, but the
#: certificate takes peak RSS to 299-346 MiB, past the 300 MiB the cap needs.
W_K_MAX = 7


# G_kn is singular exactly for n = 1, k >= 2; n = 2, k >= 3; n = 3, k >= 5;
# never for n >= 4.  Di Francesco's meander determinant is
# det G_kn = n^{Cat(k)/2} prod_{m=1..k} U_m(sqrt n)^{a_{k,m}} with every
# a_{k,m} > 0, and the roots of U_m are 2 cos(pi j / (m + 1)): sqrt n = 1,
# sqrt 2, sqrt 3 is first a root at m = 2, 3, 5, and no root reaches 2.
_SINGULAR_FROM_K = {1: 2, 2: 3, 3: 5}


@lru_cache(maxsize=None)
def _weingarten_pair(k, n):
    """(A, D) in integers with W_kn = A / D in lowest terms, built once per
    (k, n).  A singular G_kn raises SingularGramError, and k > W_K_MAX raises
    BoundError, both before any modular work."""
    _check_kn(k, n)
    if k >= _SINGULAR_FROM_K.get(n, K_MAX + 1):
        raise SingularGramError(k, n)
    if k > W_K_MAX:
        raise BoundError(
            f"k={k}: Weingarten tables are built for k <= {W_K_MAX} only "
            "(the k=8 certificate's peak RSS passes 300 MiB at n=5..12)"
        )
    return _padic_inverse(_join_exponents(k), k, n)


def weingarten(k, n):
    """W_kn = G_kn^{-1} = A / D, exact; raises SingularGramError when G_kn
    is not invertible (possible for small n).  The `Fraction` table is built
    on each call from the pair, which is memoized per (k, n)."""
    nums, den = _weingarten_pair(k, n)
    entries = tuple(tuple(Fraction(x, den) for x in row) for row in nums)
    return NCTable(k=k, n=n, index=_all_nc(k), entries=entries)


@lru_cache(maxsize=None)
def _incidence(k):
    """(B, blocks) over P(k) in canonical order: B[tau][q] = [q <= tau] for q
    in NC(k), as a read-only float64 0/1 matrix, and |tau| for each row."""
    partitions = enumerate_partitions(k)
    # q <= tau iff the same-block pairs of q are pairs of tau: k^2 <= 64 bits
    below = np.array([q.pairs for q in _all_nc(k)], dtype=np.uint64)
    above = np.array([tau.pairs for tau in partitions], dtype=np.uint64)
    incidence = ((below & ~above[:, None]) == 0).astype(np.float64)
    incidence.flags.writeable = False
    return incidence, np.array([tau.block_count() for tau in partitions])


def check_inverse(k, n):
    """Certify G_kn A = D I for the pair W_kn = A / D, every entry in exact
    integers, without reading G_kn or the join exponents it was built from.

    Counting the maps from the blocks of rho to {1..n} by their kernel gives
    n^{|rho|} = sum over tau >= rho in P(k) of (n)_{|tau|}, and
    tau >= p v q iff tau >= p and tau >= q.  So G = B^T Delta B over P(k),
    with B[tau][p] = [p <= tau] and Delta = diag((n)_{|tau|}); rows tau with
    |tau| > n have (n)_{|tau|} = 0 and are skipped.  G A - D I is evaluated
    modulo word primes p < 2^21 in float64, where every product is exact:
    G mod p times A mod p sums N terms below p^2.  Every entry of G A - D I
    is at most N n^k max|A| + |D| in absolute value, so once the product of
    the primes exceeds twice that, zero residues prove the identity
    (Chinese remainder theorem), and one nonzero residue refutes it.  The
    clock of its debug record starts once the pair is read, so the record
    excludes an inverse that the call builds."""
    nums, den = _weingarten_pair(k, n)
    start = time.perf_counter()
    size = len(nums)
    incidence, blocks = _incidence(k)
    kept = blocks <= n
    incidence, blocks = incidence[kept], blocks[kept]
    widest = max(map(abs, itertools.chain.from_iterable(nums)))
    nums = np.array(nums, dtype=_width(widest + 1))
    bound = 2 * (size * n**k * widest + abs(den))
    # every word prime exceeds 2^20
    primes = _word_primes(-(-bound.bit_length() // 20))
    if math.prod(primes) <= bound:
        raise BoundError(f"k={k}, n={n}: the primes {primes} do not exceed the CRT bound {bound}")
    falling = [math.perm(n, b) for b in range(k + 1)]
    # the entries n^{|p v q|} <= n^k of B^T Delta B are sums of nonnegative
    # terms: one exact float64 product below 2^53, one per prime beyond
    exact = n**k < 1 << 53
    g = None
    for used, p in enumerate(primes, 1):
        if g is None or not exact:
            weights = np.array([f if exact else f % p for f in falling], dtype=np.float64)
            g = incidence.T @ (incidence * weights[blocks, None])
        product = _mod(_mod(g, p) @ _mod(nums, p), p)
        ok = np.array_equal(product, np.eye(size) * (den % p))
        if not ok:
            break
    _debug(
        __name__, "certificate k=%d n=%d N=%d rows=%d primes=%d seconds=%.4f",
        k, n, size, len(incidence), used, time.perf_counter() - start,
    )
    return ok


def _haar_average_over_sn(n, i, j):
    # Exhaustive Haar integral over S_n: at most 6 permutations for n <= 3.
    k = len(i)
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if all(i[t] == perm[j[t] - 1] for t in range(k)):
            total += 1
    return Fraction(total, math.factorial(n))


@lru_cache(maxsize=None)
def _haar_weingarten_by_kernels(n, ker_i, ker_j):
    # the double Weingarten sum depends on the words only through kernels;
    # it adds the integers of A and divides by D once
    nums, den = _weingarten_pair(ker_i.ground_size, n)
    cols = _nc_below(ker_j)
    return Fraction(sum(nums[a][b] for a in _nc_below(ker_i) for b in cols), den)


def haar_moment(n, i, j):
    """Haar-state value of the generator word u_{i1 j1} ... u_{ik jk}: the
    S_n average for n <= 3, where the quantum permutation algebra is
    commutative, and the Weingarten sum over the kernels of i and j for
    n >= 4."""
    i = tuple(i)
    j = tuple(j)
    if len(i) != len(j):
        raise BoundError(f"index words differ in length: {len(i)} vs {len(j)}")
    _check_kn(len(i), n)
    if not all(1 <= x <= n for x in i) or not all(1 <= x <= n for x in j):
        raise BoundError(f"index out of range 1..{n}: i={i}, j={j}")
    if n <= 3:
        return _haar_average_over_sn(n, i, j)
    return _haar_weingarten_by_kernels(n, kernel(i), kernel(j))


class AsymptoticsRow(NamedTuple):
    """One n of a sweep, in integers: W_kn(p, q) = num / den and the scaled
    value scaled_num / den, with den = D of W_kn.  `value` and `scaled`
    build their Fraction when read; the sweep itself compares integers."""

    n: int
    num: int
    scaled_num: int
    den: int

    @property
    def value(self):
        return Fraction(self.num, self.den)

    @property
    def scaled(self):
        return Fraction(self.scaled_num, self.den)


@dataclass(frozen=True)
class AsymptoticsReport:
    k: int
    p: SetPartition
    q: SetPartition
    relation: str  # "mobius_residual" for p <= q, "scaled_entry" otherwise
    rows: tuple
    max_abs: Fraction
    bounded: bool


def _no_growth(values):
    # Bounded over the sweep, operationally: the second half of the sweep
    # never exceeds the first half in absolute value.
    if len(values) < 2:
        return True
    half = len(values) // 2
    return max(abs(v) for v in values[half:]) <= max(abs(v) for v in values[:half])


def weingarten_asymptotics(k, n_range, p, q):
    """Sweep n and report the scaled Weingarten entry for a pair (p, q) of NC(k).

    For p <= q the scaled quantity is the residual
    n * (W_kn(p,q) * n^{|p|} - mu_k(p,q)); otherwise it is
    W_kn(p,q) * n^{|p|+|q|-|p v q|}.  Both stay bounded as n grows.  The
    entries are A / D from the integer pair of W_kn, and mu and |p v q| are
    read from the tables that d_k(n) reads; every (k, n) cell is refused
    (k > W_K_MAX, singular G_kn) before the join table is built.

    Each cell stays in integers: with x = A(p, q), the scaled value is
    s / D for s = n (x n^{|p|} - mu D), or s = x n^e.  Over the common
    denominator L of the sweep's D's, the value at n is the integer
    s (L / D), and `_no_growth` and max_abs compare those integers; max_abs
    is the one Fraction the sweep builds.  A row's Fractions are built when
    it is read (`AsymptoticsRow`).
    """
    ns = sorted(set(n_range))
    if not ns:
        raise BoundError("empty n range")
    a, b = _nc_index(k, p), _nc_index(k, q)
    cells = [(n, _weingarten_pair(k, n)) for n in ns]
    comparable = leq(p, q)
    relation = "mobius_residual" if comparable else "scaled_entry"
    mu = _mobius_column(k, b)[a]
    blocks = p.block_count()
    exponent = blocks + q.block_count() - int(_join_exponents(k)[a, b])
    rows = []
    for n, (nums, den) in cells:
        x = nums[a][b]
        scaled = n * (x * n**blocks - mu * den) if comparable else x * n**exponent
        rows.append(AsymptoticsRow(n, x, scaled, den))
    common = math.lcm(*(row.den for row in rows))
    scaled_values = [row.scaled_num * (common // row.den) for row in rows]
    return AsymptoticsReport(
        k=k,
        p=p,
        q=q,
        relation=relation,
        rows=tuple(rows),
        max_abs=Fraction(max(map(abs, scaled_values)), common),
        bounded=_no_growth(scaled_values),
    )


@dataclass(frozen=True)
class DkReport:
    k: int
    values: tuple  # of (n, Fraction) pairs
    max_value: Fraction


@lru_cache(maxsize=None)
def _dk(k, n):
    """d_k(n) from integers.  With W = A / D and D > 0,
    d_k(n) = n / D * sum |A(p, q) n^{|p|} - mu(p, q) D|, where mu(p, q) = 0
    unless p <= q.  A is symmetric, so row b of A pairs with the Moebius
    column of q = nc[b]."""
    nums, den = _weingarten_pair(k, n)
    scales = [n ** p.block_count() for p in _all_nc(k)]
    total = 0
    for b, row in enumerate(nums):
        total += sum(
            abs(x * scale - m * den)
            for x, scale, m in zip(row, scales, _mobius_column(k, b))
        )
    return Fraction(n * total, den)


def dk_value(k, n_range):
    """d_k(n) = n * sum over NC(k)^2 of |W_kn * n^{|p|} - mu_k(p, q)|.

    The maximum over the sweep is a lower bound for the universal constant
    sup_n d_k(n); the supremum itself is not computed.
    """
    ns = sorted(set(n_range))
    if not ns:
        raise BoundError("empty n range")
    values = tuple((n, _dk(k, n)) for n in ns)
    return DkReport(k=k, values=values, max_value=max(v for _, v in values))
