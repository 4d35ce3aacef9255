"""Brute-force oracles, independent of the library's production paths."""

import itertools
import math
from fractions import Fraction


def gauss_jordan_inverse(rows):
    """Plain Fraction Gauss-Jordan with partial pivoting by first nonzero.

    Deliberately a different algorithm from the production fraction-free
    elimination, so the two can certify each other.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def nc_moment_sum(spec_values, letters, labels, enumerate_nc, leq, kernel):
    """Sum over admissible non-crossing partitions of products of block values.

    Scalar free-moment oracle: value of pi is the plain product over blocks
    of spec_values[(len(block), subword)], no nested evaluation involved.
    """
    k = len(letters)
    ker = kernel(labels)
    total = Fraction(0)
    for pi in enumerate_nc(k):
        if not leq(pi, ker):
            continue
        term = Fraction(1)
        for b in pi.blocks:
            term *= spec_values.get((len(b), tuple(letters[x - 1] for x in b)), Fraction(0))
        total += term
    return total


def injection_weight_by_assignment(lam, tau):
    """m_lambda(tau) by assigning a distinct weight value to each block of tau.

    Falling factorials count the ways to realize each distinct weight value;
    ties in lambda contribute through their multiplicity, never their
    position.  O(V^b) for V distinct values and b blocks.
    """
    counts = {}
    for x in lam:
        counts[x] = counts.get(x, 0) + 1
    values = list(counts.items())
    sizes = [len(b) for b in tau.blocks]
    total = Fraction(0)
    for assign in itertools.product(range(len(values)), repeat=len(sizes)):
        used = {}
        for u in assign:
            used[u] = used.get(u, 0) + 1
        weight = Fraction(1)
        feasible = True
        for u, t in used.items():
            mult = values[u][1]
            if t > mult:
                feasible = False
                break
            for step in range(t):
                weight *= mult - step
        if not feasible:
            continue
        for bi, u in enumerate(assign):
            weight *= values[u][0] ** sizes[bi]
        total += weight
    return total


def classical_urn_by_permutations(lam, j_word):
    """Classical urn moment as the average over all n! orderings of lambda."""
    total = Fraction(0)
    for perm in itertools.permutations(lam):
        term = Fraction(1)
        for t in j_word:
            term *= perm[t - 1]
        total += term
    return total / math.factorial(len(lam))


def haar_by_fraction_table(table, index, ker_i, ker_j, leq):
    """Haar value of a generator word pair as the double sum of a Fraction
    Weingarten table over the NC(k) rows below ker i and columns below ker j."""
    total = Fraction(0)
    for a, p in enumerate(index):
        if leq(p, ker_i):
            for b, q in enumerate(index):
                if leq(q, ker_j):
                    total += table[a][b]
    return total


def dk_by_fraction_table(table, index, n, mobius_nc, leq):
    """d_k(n) = n * sum over NC(k)^2 of |W(p, q) n^{|p|} - mu(p, q)|, summed
    in Fractions, with mu(p, q) = 0 unless p <= q."""
    total = Fraction(0)
    for a, p in enumerate(index):
        scale = Fraction(n) ** p.block_count()
        for b, q in enumerate(index):
            mu = mobius_nc(p, q) if leq(p, q) else 0
            total += abs(table[a][b] * scale - mu)
    return n * total
