"""Exact Gram and Weingarten matrices for the quantum permutation group,
the Haar-state integration formula, and the asymptotic residual sweeps.

Everything in this module is exact.  The Gram matrix G_kn is built once per
(k, n), and so is its inverse, as one integer pair W_kn = A / D with D > 0 and
gcd(D, every entry of A) = 1.  The pair comes from p-adic lifting (Dixon,
Numer. Math. 40, 1982): G^{-1} mod a word prime p, lifted to G^{-1} mod p^m in
float64 matrix products that are exact, then rational reconstruction of one
common denominator.  Its cost follows the size of A and D, about 30 bits at
k = 6, and not that of det G_kn, about 1,600 bits there.  Haar sums and d_k(n)
add the integers of A and divide by D once; the `Fraction` table W_kn is made
only for callers that need the rationals.

A pair is returned only once G_kn A = D I holds in exact integers for the
G_kn it was lifted from.  `check_inverse` certifies the same identity with
G_kn applied through its factorisation B^T diag((n)_{|tau|}) B over P(k),
B[tau][p] = [p <= tau]: it reads neither the join exponents nor the Gram
table, so it also certifies the table that G_kn was built from.  Tables are
indexed by NC(k) in the canonical enumeration order and are immutable once
built.
"""

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

import numpy as np

from .errors import BoundError, InvariantViolation, SingularGramError
from .partitions import (
    K_MAX,
    SetPartition,
    _block_masks,
    _check_k,
    _join_masks,
    _mobius_row,
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

    def position(self, p):
        return _nc_index(self.k, p)

    def entry(self, p, q):
        return self.entries[self.position(p)][self.position(q)]

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
    """|p v q| for every pair of NC(k) in canonical order; n enters G_kn only
    as the base raised to these exponents.

    Blocks are k-bit masks, merged by the join of `partitions`.  The table
    is symmetric, so only its upper half is merged."""
    start = time.perf_counter()
    masks = [_block_masks(p) for p in enumerate_nc(k)]
    size = len(masks)
    table = [[0] * size for _ in range(size)]
    for a, own in enumerate(masks):
        for b in range(a, size):
            table[a][b] = table[b][a] = len(_join_masks(own, masks[b]))
    # imported here, so that `import qperm` does not pay for the logging package
    import logging

    logging.getLogger(__name__).debug(
        "join exponents k=%d N=%d seconds=%.4f", k, size, time.perf_counter() - start
    )
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def gram(k, n):
    """Exact Gram matrix of the NC(k) partition vectors at size n."""
    _check_kn(k, n)
    power = [n**e for e in range(k + 1)]
    rows = tuple(tuple(power[e] for e in row) for row in _join_exponents(k))
    return NCTable(k=k, n=n, index=tuple(enumerate_nc(k)), entries=rows)


#: Word primes for the p-adic inverse, tried in turn until one does not divide
#: det G_kn.  Each is below 2^21, so for N < 2048 rows (N = 429 at W_K_MAX) a
#: product of two residue matrices has entries below N p^2 < 2^53 and is
#: exact in float64.
_PRIMES = (2097143, 2097133, 2097131, 2097097)

#: Blocks of at most this many rows are inverted mod p by Gauss-Jordan on
#: Python integers; larger ones are split in two (see `_inverse_mod`).
_BLOCK = 8


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
    e = a_inv @ g[:h, h:] % p
    s_inv = _inverse_mod((g[h:, h:] - g[h:, :h] @ e) % p, p)
    if s_inv is None:
        return None
    f = e @ s_inv % p
    out = np.empty_like(g)
    out[:h, :h] = (a_inv + f @ e.T) % p
    out[:h, h:] = -f % p
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
    """(numerators, D) with numerators = D * approx mod modulus, all of them and
    D at most sqrt(modulus / 2) in absolute value, or None.  D starts as the
    denominator of the first entry and takes in that of the first entry still
    too large, until none is; within those bounds such a pair is unique."""
    bound = math.isqrt(modulus // 2)
    half = modulus // 2
    den = _denominator(approx[0], modulus, bound, bound)
    while den is not None:
        nums = [y - modulus if y > half else y for y in (den * x % modulus for x in approx)]
        wide = next((y for y in nums if abs(y) > bound), None)
        if wide is None:
            return nums, den
        d = _denominator(wide, modulus, bound, bound // den)
        den = None if d is None else den * d
    return None


def _gram_times(limbs, x, dtype):
    """G x in exact integers of `dtype`, float64 or Python ints, for a float64
    integer matrix |x| < 2^21.  Each limb of G gives one float64 product below
    2^53; float64 is only asked for where G is one limb and |G x| < 2^53."""
    if dtype is object:
        return sum((limb @ x).astype(np.int64).astype(object) << shift for shift, limb in limbs)
    ((_, g),) = limbs
    return g @ x


def _solves(limbs, dtype, row_bound, nums, den):
    """True iff G nums = den I in exact integers, where every row of G sums to
    at most row_bound.  nums is split into base 2^21 digits, the top one
    signed, and G applied to each digit; the products add up in float64 where
    |G nums| < 2^53 and G is one limb, and in Python integers otherwise."""
    width = int(np.abs(nums).max()).bit_length()
    if row_bound << width >= 1 << 53:
        dtype = object
    product = 0
    for t in range(width // 21 + 1):
        digit = nums >> 21 * t
        if t < width // 21:
            digit &= (1 << 21) - 1
        product = product + _gram_times(limbs, digit.astype(np.float64), dtype) * (1 << 21 * t)
    return np.array_equal(product, np.diag([den] * len(nums)))


def _padic_inverse(rows, k, n):
    """(A, D) with G_kn^{-1} = A / D, D > 0 and gcd(D, every entry of A) = 1.

    With C = G^{-1} mod p, each lift takes the next p-adic digit
    X = C (R mod p) mod p of G^{-1} and the exact residue R <- (R - G X) / p,
    from R = I; after m lifts the digits give G^{-1} mod p^m.  |R| stays
    below N max G, so |R - G X| < N max G p: while that is below 2^53 the
    lift runs in float64, and beyond it in Python integers, with G X summed
    from limbs of G narrow enough for exact float64 products.  Each lift
    checks that p divides R - G X.  After each lift the upper triangle (W
    is symmetric) is reconstructed, and the pair is returned once G A = D I
    holds exactly.  Past the Hadamard bound the reconstruction is adj / det
    itself, so the loop ends there at the latest."""
    start = time.perf_counter()
    size = len(rows)
    top = max(map(max, rows))
    if size * top << 21 < 1 << 53:
        dtype, limbs = np.float64, [(0, np.array(rows, dtype=np.float64))]
    else:
        dtype, big = object, np.array(rows, dtype=object)
        width = 32 - size.bit_length()  # size * 2^width * 2^21 < 2^53
        limbs = [
            (shift, ((big >> shift) & ((1 << width) - 1)).astype(np.float64))
            for shift in range(0, top.bit_length(), width)
        ]
    upper = np.nonzero(np.tri(size, dtype=bool).T)  # row by row, as np.triu_indices
    # p^m > 2^{20 m} > 2 H^2, H >= |det G|, |adj G| the Hadamard bound
    max_lifts = (size * (size * top * top).bit_length()) // 20 + 1
    for p in _PRIMES:
        residues = np.array([[x % p for x in row] for row in rows], dtype=np.float64)
        inverse = _inverse_mod(residues, p)
        if inverse is None:
            continue
        residue = np.eye(size, dtype=dtype)
        approx, modulus = [0] * len(upper[0]), 1
        for lifts in range(1, max_lifts + 1):
            digit = inverse @ (residue % p).astype(np.float64, copy=False) % p
            approx = [
                a + modulus * x for a, x in zip(approx, digit[upper].astype(np.int64).tolist())
            ]
            modulus *= p
            step = residue - _gram_times(limbs, digit, dtype)
            if (step % p).any():
                raise InvariantViolation(f"k={k}, n={n}: lift {lifts} is not divisible by p={p}")
            residue = step // p
            found = _reconstruct(approx, modulus)
            if found is None:
                continue
            nums, den = found
            common = math.gcd(den, *nums)
            full = np.empty((size, size), dtype=object)
            full[upper] = full[upper[::-1]] = [x // common for x in nums]
            den //= common
            if _solves(limbs, dtype, size * top, full, den):
                # imported here, so that `import qperm` does not pay for the logging package
                import logging

                logging.getLogger(__name__).debug(
                    "inverse k=%d n=%d N=%d prime=%d lifts=%d den_bits=%d seconds=%.4f",
                    k, n, size, p, lifts, den.bit_length(), time.perf_counter() - start,
                )
                return tuple(map(tuple, full.tolist())), den
        raise InvariantViolation(
            f"k={k}, n={n}: no exact inverse after {max_lifts} lifts, past the Hadamard bound"
        )
    raise BoundError(f"k={k}, n={n}: every prime of {_PRIMES} divides det G_kn")


#: Largest k for which Weingarten tables are built.  N = Cat(k) rows: 429 at
#: k = 7, and 1430 at k = 8, where the pair alone held about 600 MiB in a
#: single probe and `check_inverse` over the 4,140 partitions of P(8) has not
#: been measured.
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
            f"(the k={k} table and its certificate are not measured)"
        )
    return _padic_inverse(gram(k, n).entries, k, n)


@lru_cache(maxsize=None)
def weingarten(k, n):
    """W_kn = G_kn^{-1} = A / D, exact; raises SingularGramError when G_kn
    is not invertible (possible for small n)."""
    nums, den = _weingarten_pair(k, n)
    entries = tuple(tuple(Fraction(x, den) for x in row) for row in nums)
    return NCTable(k=k, n=n, index=gram(k, n).index, entries=entries)


def check_inverse(k, n):
    """Certify G_kn A = D I for the pair W_kn = A / D, every entry in exact
    integers, without reading G_kn or the join exponents it was built from.

    Counting the maps from the blocks of rho to {1..n} by their kernel gives
    n^{|rho|} = sum over tau >= rho in P(k) of (n)_{|tau|}, and
    tau >= p v q iff tau >= p and tau >= q.  So G = B^T Delta B over P(k),
    with B[tau][p] = [p <= tau] and Delta = diag((n)_{|tau|}), and row p of
    G A is the sum over tau >= p of s_tau = (n)_{|tau|} * sum_{q <= tau} A[q].
    Rows tau with |tau| > n have (n)_{|tau|} = 0 and are skipped."""
    start = time.perf_counter()
    nums, den = _weingarten_pair(k, n)
    size = len(nums)
    product = [[0] * size for _ in range(size)]
    used = 0
    for tau in enumerate_partitions(k):
        factor = math.perm(n, tau.block_count())
        if not factor:
            continue
        used += 1
        below = _nc_below(tau)
        s = [factor * x for x in map(sum, zip(*[nums[q] for q in below]))]
        for p in below:
            product[p] = list(map(add, product[p], s))
    ok = all(
        row == [den if j == i else 0 for j in range(size)] for i, row in enumerate(product)
    )
    # imported here, so that `import qperm` does not pay for the logging package
    import logging

    logging.getLogger(__name__).debug(
        "certificate k=%d n=%d N=%d rows=%d seconds=%.4f",
        k, n, size, used, time.perf_counter() - start,
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


@dataclass(frozen=True)
class AsymptoticsRow:
    n: int
    value: Fraction
    scaled: Fraction


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
    """
    ns = sorted(set(n_range))
    if not ns:
        raise BoundError("empty n range")
    a, b = _nc_index(k, p), _nc_index(k, q)
    cells = [(n, _weingarten_pair(k, n)) for n in ns]
    comparable = leq(p, q)
    relation = "mobius_residual" if comparable else "scaled_entry"
    mu = _mobius_row(k, a)[b]
    exponent = p.block_count() + q.block_count() - _join_exponents(k)[a][b]
    rows = []
    for n, (nums, den) in cells:
        w = Fraction(nums[a][b], den)
        if comparable:
            scaled = n * (w * n ** p.block_count() - mu)
        else:
            scaled = w * n**exponent
        rows.append(AsymptoticsRow(n=n, value=w, scaled=scaled))
    scaled_values = [r.scaled for r in rows]
    return AsymptoticsReport(
        k=k,
        p=p,
        q=q,
        relation=relation,
        rows=tuple(rows),
        max_abs=max(abs(v) for v in scaled_values),
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
    unless p <= q."""
    nums, den = _weingarten_pair(k, n)
    total = 0
    for a, (p, row) in enumerate(zip(gram(k, n).index, nums)):
        scale = n ** p.block_count()
        total += sum(abs(x * scale - m * den) for x, m in zip(row, _mobius_row(k, a)))
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
