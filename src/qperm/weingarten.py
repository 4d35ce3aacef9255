"""Exact Gram and Weingarten matrices for the quantum permutation group,
the Haar-state integration formula, and the asymptotic residual sweeps.

Everything in this module is exact: entries are big integers or
`fractions.Fraction`, and the inverse is certified by an integer-arithmetic
identity check.  Tables are indexed by NC(k) in the canonical enumeration
order and are immutable once built.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import BoundError, DomainError, SingularGramError
from .partitions import (
    K_MAX,
    SetPartition,
    enumerate_nc,
    join,
    kernel,
    leq,
    mobius_nc,
)


def _check_kn(k, n, k_max=None):
    limit = K_MAX if k_max is None else k_max
    if not 1 <= k <= limit:
        raise BoundError(f"k={k} outside 1..{limit}")
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
    _position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_position", {p: i for i, p in enumerate(self.index)})

    def position(self, p):
        try:
            return self._position[p]
        except KeyError:
            raise DomainError(f"{p} is not in NC({self.k})") from None

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


def parse_rational(text):
    return Fraction(text)


@lru_cache(maxsize=None)
def gram(k, n):
    """Exact Gram matrix of the NC(k) partition vectors at size n."""
    _check_kn(k, n)
    nc = tuple(enumerate_nc(k))
    rows = tuple(
        tuple(n ** join(p, q).block_count() for q in nc) for p in nc
    )
    return NCTable(k=k, n=n, index=nc, entries=rows)


def _bareiss_inverse(rows, k, n):
    """Exact inverse of an integer matrix.

    Forward elimination is fraction-free Bareiss: every update
    (p*a[i][j] - a[i][r]*a[r][j]) / prev_pivot is an exact integer
    division (the entries are minors of the input).  Pivoting is by index
    order with a row swap only on a zero pivot, so the computation is
    deterministic.  Back substitution stays in integers by solving for
    x * det (an adjugate column), with a single Fraction per entry at the
    end.  Returns (fractions, numerators, det).
    """
    size = len(rows)
    a = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(rows)]
    prev = 1
    for r in range(size):
        if a[r][r] == 0:
            for i in range(r + 1, size):
                if a[i][r] != 0:
                    a[r], a[i] = a[i], a[r]
                    break
            else:
                raise SingularGramError(k, n)
        p = a[r][r]
        for i in range(r + 1, size):
            m = a[i][r]
            row_i = a[i]
            row_r = a[r]
            for j in range(r, 2 * size):
                row_i[j] = (p * row_i[j] - m * row_r[j]) // prev
        prev = p
    det = a[size - 1][size - 1]
    nums = [[0] * size for _ in range(size)]
    for c in range(size):
        col = nums[c]
        for i in range(size - 1, -1, -1):
            s = a[i][size + c] * det
            row = a[i]
            for j in range(i + 1, size):
                s -= row[j] * nums[c][j]
            col[i] = s // a[i][i]
    # nums[c][i] = (inverse)[i][c] * det; transpose while building Fractions
    fracs = tuple(
        tuple(Fraction(nums[c][i], det) for c in range(size)) for i in range(size)
    )
    return fracs, nums, det


@lru_cache(maxsize=None)
def _weingarten_raw(k, n):
    """(W_kn table, adjugate columns, det G_kn), built once per (k, n)."""
    g = gram(k, n)
    fracs, nums, det = _bareiss_inverse(g.entries, k, n)
    return NCTable(k=k, n=n, index=g.index, entries=fracs), nums, det


def weingarten(k, n):
    """W_kn = G_kn^{-1}, exact; raises SingularGramError when G_kn is not
    invertible (possible for small n)."""
    _check_kn(k, n)
    return _weingarten_raw(k, n)[0]


def check_inverse(k, n):
    """Certify G_kn * W_kn = I with pure integer arithmetic."""
    _, nums, det = _weingarten_raw(k, n)
    g = gram(k, n)
    size = len(g.index)
    for i in range(size):
        gi = g.entries[i]
        for j in range(size):
            s = sum(gi[l] * nums[j][l] for l in range(size))
            if s != (det if i == j else 0):
                return False
    return True


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
    # the double Weingarten sum depends on the words only through kernels
    k = ker_i.ground_size
    table = weingarten(k, n)
    row_ids = [a for a, p in enumerate(table.index) if leq(p, ker_i)]
    col_ids = [b for b, q in enumerate(table.index) if leq(q, ker_j)]
    total = Fraction(0)
    for a in row_ids:
        row = table.entries[a]
        for b in col_ids:
            total += row[b]
    return total


def _haar_weingarten(n, i, j):
    return _haar_weingarten_by_kernels(n, kernel(i), kernel(j))


def haar_moment(n, i, j, method="auto"):
    """Haar-state value of the generator word u_{i1 j1} ... u_{ik jk}.

    method: "auto" picks the S_n average for n <= 3 (where the quantum
    permutation algebra is commutative) and the Weingarten sum for n >= 4;
    "weingarten" / "average" force a branch for cross-checking.
    """
    i = tuple(i)
    j = tuple(j)
    if len(i) != len(j):
        raise BoundError(f"index words differ in length: {len(i)} vs {len(j)}")
    _check_kn(len(i), n)
    if not all(1 <= x <= n for x in i) or not all(1 <= x <= n for x in j):
        raise BoundError(f"index out of range 1..{n}: i={i}, j={j}")
    if method == "average" or (method == "auto" and n <= 3):
        return _haar_average_over_sn(n, i, j)
    if method in ("auto", "weingarten"):
        return _haar_weingarten(n, i, j)
    raise BoundError(f"unknown method {method!r}")


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
    """Sweep n and report the scaled Weingarten entry for a pair (p, q).

    For p <= q the scaled quantity is the residual
    n * (W_kn(p,q) * n^{|p|} - mu_k(p,q)); otherwise it is
    W_kn(p,q) * n^{|p|+|q|-|p v q|}.  Both stay bounded as n grows.
    """
    ns = sorted(set(n_range))
    if not ns:
        raise BoundError("empty n range")
    comparable = leq(p, q)
    relation = "mobius_residual" if comparable else "scaled_entry"
    mu = mobius_nc(p, q) if comparable else 0
    exponent = p.block_count() + q.block_count() - join(p, q).block_count()
    rows = []
    for n in ns:
        w = weingarten(k, n).entry(p, q)
        if comparable:
            scaled = n * (w * Fraction(n) ** p.block_count() - mu)
        else:
            scaled = w * Fraction(n) ** exponent
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


def dk_value(k, n_range):
    """d_k(n) = n * sum over NC(k)^2 of |W_kn * n^{|p|} - mu_k(p, q)|.

    The maximum over the sweep is a lower bound for the universal constant
    sup_n d_k(n); the supremum itself is not computed.
    """
    ns = sorted(set(n_range))
    if not ns:
        raise BoundError("empty n range")
    nc = enumerate_nc(k)
    mu = {
        (p, q): (mobius_nc(p, q) if leq(p, q) else 0)
        for p in nc
        for q in nc
    }
    values = []
    for n in ns:
        table = weingarten(k, n)
        total = Fraction(0)
        for a, p in enumerate(nc):
            scale = Fraction(n) ** p.block_count()
            row = table.entries[a]
            for b, q in enumerate(nc):
                total += abs(row[b] * scale - mu[(p, q)])
        values.append((n, n * total))
    return DkReport(k=k, values=tuple(values), max_value=max(v for _, v in values))
