"""Exact Gram and Weingarten matrices for the quantum permutation group,
the Haar-state integration formula, and the asymptotic residual sweeps.

Everything in this module is exact.  The Gram matrix G_kn, its integer
adjugate and det G_kn are each built once per (k, n); Haar sums and d_k(n)
add adjugate integers and divide by det once, and the `Fraction` table
W_kn is made only for callers that need the rationals.  The inverse is
certified by the integer identity G_kn adj = det I, with G_kn applied through
its factorisation A^T diag((n)_{|tau|}) A over P(k), A[tau][p] = [p <= tau]:
the certificate reads neither the join exponents nor the Gram table, so it
also certifies the table that G_kn and the elimination were built from.
Tables are indexed by NC(k) in the canonical enumeration order and are
immutable once built.
"""

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import BoundError, SingularGramError
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


def _bareiss_inverse(rows, k, n):
    """Adjugate and determinant of the Gram matrix G_kn, in integers.

    Fraction-free factorization L G = U with no pivoting, built row by row.
    Row i of the upper triangular U is row i of Bareiss elimination: U[i][j]
    is the minor of G on rows 0..i and columns 0..i-1, j, so the pivots
    U[i][i] are the leading minors p_i.  G is a Gram matrix, so they are
    positive up to the first zero, and a zero pivot means G is singular:
    there is no row swap.  Row i of the lower triangular L holds cofactors
    of the leading (i+1)-block, integers with L[i][i] = p_{i-1}.  As G is
    symmetric, U L^T = L G L^T is upper triangular and symmetric, so it is
    the diagonal D_i = p_{i-1} p_i: row i of L solves U l = D_i e_i over
    the rows of U above it, with exact divisions by the pivots, and row i
    of U is then (L G)[i].  With G^{-1} = U^{-1} L, back substitution in
    integers gives each adjugate column det * U^{-1} L e_c, only on and
    below the diagonal, as adj is symmetric.  Returns (adj as a tuple of
    rows, det).
    """
    start = time.perf_counter()
    size = len(rows)
    upper = []  # upper[i][t] = U[i][i + t]
    lower = []  # lower[i][c] = L[i][c] for c <= i
    prev = 1
    for i in range(size):
        l = [0] * i + [prev]
        for b in range(i - 1, -1, -1):
            u = upper[b]
            l[b] = -sum(map(mul, u[1 : i - b + 1], l[b + 1 :])) // u[0]
        terms = [(rows[c], x) for c, x in enumerate(l) if x]
        u = [sum(x * g[j] for g, x in terms) for j in range(i, size)]
        if u[0] == 0:
            raise SingularGramError(k, n)
        prev = u[0]
        upper.append(u)
        lower.append(l)
    det = prev
    # columns[c][i] = adj[i][c] for i >= c
    columns = [[0] * size for _ in range(size)]
    for c in range(size):
        x = columns[c]
        for i in range(size - 1, c - 1, -1):
            u = upper[i]
            x[i] = (lower[i][c] * det - sum(map(mul, u[1:], x[i + 1 :]))) // u[0]
    adj = tuple(
        tuple(columns[c][i] if c <= i else columns[i][c] for c in range(size))
        for i in range(size)
    )
    # imported here, so that `import qperm` does not pay for the logging package
    import logging

    logging.getLogger(__name__).debug(
        "elimination k=%d n=%d N=%d det_bits=%d seconds=%.4f",
        k, n, size, det.bit_length(), time.perf_counter() - start,
    )
    return adj, det


#: Largest k for which Weingarten tables are built.  The elimination costs
#: about N^3 long-integer operations on N = Cat(k) rows, and N goes from 429
#: at k = 7 to 1430 at k = 8: about 37 times the k = 7 work.
W_K_MAX = 7


# G_kn is singular exactly for n = 1, k >= 2; n = 2, k >= 3; n = 3, k >= 5;
# never for n >= 4.  Di Francesco's meander determinant is
# det G_kn = n^{Cat(k)/2} prod_{m=1..k} U_m(sqrt n)^{a_{k,m}} with every
# a_{k,m} > 0, and the roots of U_m are 2 cos(pi j / (m + 1)): sqrt n = 1,
# sqrt 2, sqrt 3 is first a root at m = 2, 3, 5, and no root reaches 2.
_SINGULAR_FROM_K = {1: 2, 2: 3, 3: 5}


@lru_cache(maxsize=None)
def _adjugate(k, n):
    """(adj G_kn, det G_kn) in integers, built once per (k, n).  A singular
    G_kn raises SingularGramError, and k > W_K_MAX raises BoundError, both
    before any elimination."""
    _check_kn(k, n)
    if k >= _SINGULAR_FROM_K.get(n, K_MAX + 1):
        raise SingularGramError(k, n)
    if k > W_K_MAX:
        raise BoundError(
            f"k={k}: Weingarten tables are built for k <= {W_K_MAX} only "
            f"(the k={k} elimination would run for minutes)"
        )
    return _bareiss_inverse(gram(k, n).entries, k, n)


@lru_cache(maxsize=None)
def weingarten(k, n):
    """W_kn = G_kn^{-1} = adj / det, exact; raises SingularGramError when
    G_kn is not invertible (possible for small n)."""
    adj, det = _adjugate(k, n)
    entries = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
    return NCTable(k=k, n=n, index=gram(k, n).index, entries=entries)


def check_inverse(k, n):
    """Certify G_kn * adj G_kn = det G_kn * I, every entry in exact integers,
    without reading G_kn or the join exponents it was built from.

    Counting the maps from the blocks of rho to {1..n} by their kernel gives
    n^{|rho|} = sum over tau >= rho in P(k) of (n)_{|tau|}, and
    tau >= p v q iff tau >= p and tau >= q.  So G = A^T D A over P(k), with
    A[tau][p] = [p <= tau] and D = diag((n)_{|tau|}), and row p of G adj is
    the sum over tau >= p of s_tau = (n)_{|tau|} * sum_{q <= tau} adj[q].
    Rows tau with |tau| > n have (n)_{|tau|} = 0 and are skipped."""
    start = time.perf_counter()
    adj, det = _adjugate(k, n)
    size = len(adj)
    product = [[0] * size for _ in range(size)]
    used = 0
    for tau in enumerate_partitions(k):
        factor = math.perm(n, tau.block_count())
        if not factor:
            continue
        used += 1
        below = _nc_below(tau)
        s = [factor * x for x in map(sum, zip(*[adj[q] for q in below]))]
        for p in below:
            product[p] = list(map(add, product[p], s))
    ok = all(
        row == [det if j == i else 0 for j in range(size)] for i, row in enumerate(product)
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
    # it adds adjugate integers and divides by det once
    adj, det = _adjugate(ker_i.ground_size, n)
    cols = _nc_below(ker_j)
    return Fraction(sum(adj[a][b] for a in _nc_below(ker_i) for b in cols), det)


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
    entries are adj / det from the integer adjugate, and mu and |p v q| are
    read from the tables that d_k(n) reads; every (k, n) cell is refused
    (k > W_K_MAX, singular G_kn) before the join table is built.
    """
    ns = sorted(set(n_range))
    if not ns:
        raise BoundError("empty n range")
    a, b = _nc_index(k, p), _nc_index(k, q)
    cells = [(n, _adjugate(k, n)) for n in ns]
    comparable = leq(p, q)
    relation = "mobius_residual" if comparable else "scaled_entry"
    mu = _mobius_row(k, a)[b]
    exponent = p.block_count() + q.block_count() - _join_exponents(k)[a][b]
    rows = []
    for n, (adj, det) in cells:
        w = Fraction(adj[a][b], det)
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
    """d_k(n) from integers.  det G_kn > 0 (an invertible Gram matrix is
    positive definite), so with W = adj / det, d_k(n) = n / det * sum |adj(p, q) n^{|p|} - mu(p, q) det|,
    where mu(p, q) = 0 unless p <= q."""
    adj, det = _adjugate(k, n)
    total = 0
    for a, (p, row) in enumerate(zip(gram(k, n).index, adj)):
        scale = n ** p.block_count()
        total += sum(abs(x * scale - m * det) for x, m in zip(row, _mobius_row(k, a)))
    return Fraction(n * total, det)


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
