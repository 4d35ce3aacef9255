"""Brute-force oracles, independent of the library's production paths."""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from qperm.errors import DimensionError, DomainError
from qperm.exchange import permutation_magic_unitary


def gauss_jordan_inverse(rows):
    """Plain Fraction Gauss-Jordan with partial pivoting by first nonzero.

    Deliberately a different algorithm from the production p-adic inverse,
    so the two can certify each other.
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


def adjugate_by_bareiss(rows):
    """(adj G, det G) of a symmetric Gram matrix in integers, by the
    fraction-free factorization L G = U with no pivoting, built row by row.

    Row i of the upper triangular U is row i of Bareiss elimination: U[i][j]
    is the minor of G on rows 0..i and columns 0..i-1, j, so the pivots
    U[i][i] are the leading minors p_i.  G is a Gram matrix, so they are
    positive up to the first zero, and a zero pivot means G is singular
    (ZeroDivisionError): there is no row swap.  Row i of the lower
    triangular L holds cofactors of the leading (i+1)-block, integers with
    L[i][i] = p_{i-1}.  As G is symmetric, U L^T = L G L^T is upper
    triangular and symmetric, so it is the diagonal D_i = p_{i-1} p_i: row i
    of L solves U l = D_i e_i over the rows of U above it, with exact
    divisions by the pivots, and row i of U is then (L G)[i].  With
    G^{-1} = U^{-1} L, back substitution in integers gives each adjugate
    column det * U^{-1} L e_c, only on and below the diagonal, as adj is
    symmetric.  Every integer carries the full det G: about N^3 operations
    on integers as long as det.
    """
    size = len(rows)
    upper = []  # upper[i][t] = U[i][i + t]
    lower = []  # lower[i][c] = L[i][c] for c <= i
    prev = 1
    for i in range(size):
        l = [0] * i + [prev]
        for b in range(i - 1, -1, -1):
            u = upper[b]
            l[b] = -sum(map(operator.mul, u[1 : i - b + 1], l[b + 1 :])) // u[0]
        terms = [(rows[c], x) for c, x in enumerate(l) if x]
        u = [sum(x * g[j] for g, x in terms) for j in range(i, size)]
        if u[0] == 0:
            raise ZeroDivisionError("singular")
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
            x[i] = (lower[i][c] * det - sum(map(operator.mul, u[1:], x[i + 1 :]))) // u[0]
    adj = tuple(
        tuple(columns[c][i] if c <= i else columns[i][c] for c in range(size))
        for i in range(size)
    )
    return adj, det


def certificate_by_partition_sums(nums, den, n, partitions, nc_below):
    """True iff G A = den I in Python integers, with G = B^T diag((n)_{|tau|}) B
    over the partitions tau of P(k), B[tau][p] = [p <= tau]: row p of G A is
    the sum over tau >= p of (n)_{|tau|} * sum_{q <= tau} A[q].  `nc_below`
    gives the NC(k) positions below tau.  No modular arithmetic and no bound:
    every entry of the product is compared exactly."""
    size = len(nums)
    product = [[0] * size for _ in range(size)]
    for tau in partitions:
        factor = math.perm(n, tau.block_count())
        if not factor:
            continue
        below = nc_below(tau)
        s = [factor * x for x in map(sum, zip(*[nums[q] for q in below]))]
        for p in below:
            product[p] = list(map(operator.add, product[p], s))
    return all(
        row == [den if j == i else 0 for j in range(size)] for i, row in enumerate(product)
    )


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


def block_product(source, pi, word):
    """prod over the blocks V of pi, in block order, of source.value(word|V),
    in the arithmetic of the values: the nested value of a non-crossing pi
    when the values commute.  `source` is a CumulantSpec or a
    MomentFunctional; every block is looked up."""
    factors = (source.value(tuple(word[x - 1] for x in b)) for b in pi.blocks)
    return reduce(operator.mul, factors)


def block_product_sum(source, word, partitions):
    """sum over the partitions of `block_product`, added left to right in the
    arithmetic of the values."""
    return reduce(operator.add, (block_product(source, pi, word) for pi in partitions))


def mobius_inversion(pi, nested, mobius_below):
    """sum over sigma <= pi in NC(k) of mu(sigma, pi) * nested(sigma), in the
    order of `mobius_below(pi)`, a list of (sigma, mu) pairs, accumulated
    from Fraction(0)."""
    total = Fraction(0)
    for sigma, mu in mobius_below(pi):
        total += mu * nested(sigma)
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


def quantum_urn_by_kernel_loop(n, weight_of, j_word, enumerate_partitions, haar_moment):
    """Quantum urn moment as a sum over the kernels tau in P(k) of the index
    words: weight_of(tau) = m_lambda(tau) times the Haar value of the word
    tau.to_word() (kernel tau) against j.  One Haar call per tau; tau with
    more blocks than weights have no injection."""
    total = Fraction(0)
    for tau in enumerate_partitions(len(j_word)):
        if tau.block_count() > n:
            continue
        weight = weight_of(tau)
        if weight:
            total += weight * haar_moment(n, tau.to_word(), j_word)
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


def join_by_union_find(p, q):
    """Blocks of p v q in canonical form (sorted by minimum), by union-find
    over the elements: the union of the block relations, closed."""
    k = p.ground_size
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (p, q):
        for b in part.blocks:
            root = find(b[0])
            for x in b[1:]:
                rx = find(x)
                if rx != root:
                    parent[rx] = root
    groups = {}
    for x in range(1, k + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(g) for g in groups.values()))


def meet_by_sets(p, q):
    """Blocks of p ^ q in canonical form: the nonempty intersections of a
    block of p with a block of q, as sets."""
    blocks = []
    for a in p.blocks:
        for b in q.blocks:
            c = set(a) & set(b)
            if c:
                blocks.append(tuple(sorted(c)))
    return tuple(sorted(blocks))


def asymptotics_by_fraction_table(w_of, ns, p, q, mobius, join_blocks, leq):
    """The Weingarten residual sweep from Fraction entries w_of(n) = W_kn(p, q):
    for p <= q the scaled value is n (W n^{|p|} - mu(p, q)), otherwise
    W n^{|p| + |q| - |p v q|}; bounded means the second half of the sweep
    never exceeds the first half in absolute value.  Returns (relation,
    rows as (n, W, scaled), max |scaled|, bounded)."""
    comparable = leq(p, q)
    mu = mobius(p, q) if comparable else 0
    exponent = p.block_count() + q.block_count() - len(join_blocks(p, q))
    rows = []
    for n in sorted(set(ns)):
        w = w_of(n)
        if comparable:
            scaled = n * (w * Fraction(n) ** p.block_count() - mu)
        else:
            scaled = w * Fraction(n) ** exponent
        rows.append((n, w, scaled))
    values = [abs(r[2]) for r in rows]
    half = len(values) // 2
    bounded = len(values) < 2 or max(values[half:]) <= max(values[:half])
    relation = "mobius_residual" if comparable else "scaled_entry"
    return relation, rows, max(values), bounded


def leq_by_block_lookup(p, q):
    """Refinement order by a position -> block-of-q map: every block of p
    must map to one block of q."""
    where = {}
    for bi, b in enumerate(q.blocks):
        for x in b:
            where[x] = bi
    return all(len({where[x] for x in b}) == 1 for b in p.blocks)


def interval_peel(pi, choose_interval=None):
    """Remove the blocks of pi one at a time, each an interval of the positions
    still remaining, kept as a list: a re-run apart from the bitmask test of
    `is_noncrossing`.

    Each round offers the interval blocks in block order and takes the first,
    unless `choose_interval` picks another of them.  It yields
    (block, before, after), where before / after are the remaining positions
    next to the block (None at either end).  If no block is an interval,
    which happens exactly when pi crosses, it yields None and stops."""
    remaining = list(range(1, pi.ground_size + 1))
    blocks = list(pi.blocks)

    def span(block):
        return remaining.index(block[0]), remaining.index(block[-1]) + 1

    while blocks:
        intervals = [b for b in blocks if tuple(remaining[slice(*span(b))]) == b]
        if not intervals:
            yield None
            return
        block = intervals[0] if choose_interval is None else choose_interval(intervals)
        blocks.remove(block)
        lo, hi = span(block)
        before = remaining[lo - 1] if lo else None
        after = remaining[hi] if hi < len(remaining) else None
        del remaining[lo:hi]
        yield block, before, after


def nested_eval(pi, block_fn, operands, multiply=operator.mul, choose_interval=None):
    """Collapse interval blocks of a non-crossing partition recursively.

    Each round of `interval_peel` removes one block (the first interval,
    unless `choose_interval` selects another of the offered intervals),
    applies `block_fn` to the tuple of current operand values on that block,
    and multiplies the result onto the preceding remaining operand (onto the
    following one, from the left, if the block is initial).  The value of
    the last block is the result.  For balanced block functions the outcome
    does not depend on the removal order.
    """
    ops = list(operands)
    if len(ops) != pi.ground_size:
        raise DimensionError(f"{len(ops)} operands for ground size {pi.ground_size}")
    values = dict(enumerate(ops, start=1))
    for step in interval_peel(pi, choose_interval):
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


@dataclass(frozen=True)
class NonCrossingCertificate:
    """Witness of non-crossingness: interval blocks removed one at a time."""

    partition: object
    peel_order: tuple  # of (block, (lo, hi)) pairs


def noncrossing_certificate(p):
    """The `interval_peel` of p as a replayable witness; None if p crosses."""
    peel = []
    for step in interval_peel(p):
        if step is None:
            return None
        block = step[0]
        peel.append((block, (block[0], block[-1])))
    return NonCrossingCertificate(partition=p, peel_order=tuple(peel))


def replay_peel(certificate):
    """True iff the certificate's peel order empties its partition: each
    block, removed in turn, spans exactly the positions still left between
    its recorded ends.  A list-based re-run, apart from the bitmask peel."""
    remaining = list(range(1, certificate.partition.ground_size + 1))
    for block, (lo, hi) in certificate.peel_order:
        if block[0] != lo or block[-1] != hi:
            return False
        inside = [x for x in remaining if lo <= x <= hi]
        if tuple(inside) != tuple(block):
            return False
        remaining = [x for x in remaining if x not in set(block)]
    return not remaining


def partitions_by_all_function_kernels(k):
    """P(k) from the definition: the kernels of all k^k maps {1..k} -> {1..k},
    each as its sorted tuple of blocks."""
    seen = set()
    for f in itertools.product(range(k), repeat=k):
        groups = {}
        for pos, v in enumerate(f, start=1):
            groups.setdefault(v, []).append(pos)
        seen.add(tuple(sorted(tuple(b) for b in groups.values())))
    return seen


def nc_block_sum(values, letters, partitions, crosses, labels=None):
    """Sum over the partitions of {1..k}, given as tuples of blocks, that do not
    cross and, when labels are given, carry one label per block, of the product
    over blocks of values[letters restricted to the block]; absent words are 0."""
    total = Fraction(0)
    for blocks in partitions:
        if crosses(blocks):
            continue
        if labels is not None and any(len({labels[x - 1] for x in b}) > 1 for b in blocks):
            continue
        term = Fraction(1)
        for b in blocks:
            term *= values.get(tuple(letters[x - 1] for x in b), 0)
        total += term
    return total


def kreweras_by_crossing(blocks, k, crosses):
    """Kreweras complement K(sigma) of a non-crossing sigma of {1..k}, as sorted
    blocks.  Interleave 1 < 1' < 2 < 2' < ... (x at 2x - 1, x' at 2x): x' and y'
    share a block of K(sigma) iff adding the pair {x', y'} to sigma does not
    cross.  This is the relation of the coarsest tau with sigma u tau
    non-crossing."""
    sigma = [tuple(2 * x - 1 for x in b) for b in blocks]
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in itertools.combinations(range(1, k + 1), 2):
        if not crosses(sigma + [(2 * x, 2 * y)]):
            parent[find(y)] = find(x)
    groups = {}
    for x in range(1, k + 1):
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(g) for g in groups.values())


def marginal_free_cumulants(lam, k_max, cumulants, full):
    """Free cumulants kappa_1..kappa_k_max of the urn marginal, by the public
    cumulant route: the one-letter moments m_s = (1/n) sum_i lambda_i^s in a
    MomentFunctional, inverted by moments_to_cumulants at the one-block
    partition full(s) of each order.  `cumulants` is the qperm.cumulants
    module."""
    word = ("x",)
    moments = {
        word * s: sum(Fraction(x) ** s for x in lam) / len(lam) for s in range(1, k_max + 1)
    }
    mf = cumulants.MomentFunctional(alphabet=word, k_max=k_max, moments=moments)
    return [cumulants.moments_to_cumulants(mf, full(s), word * s) for s in range(1, k_max + 1)]


def free_side_by_cumulants(kappas, j_word, cumulants):
    """Free i.i.d. moment at the label word j of a variable with the free
    cumulants kappa_1, kappa_2, ...: a CumulantSpec on one letter, evaluated
    by free_iid_moment."""
    k = len(j_word)
    values = {("x",) * s: kappas[s - 1] for s in range(1, k + 1)}
    spec = cumulants.CumulantSpec(alphabet=("x",), k_max=k, values=values)
    return cumulants.free_iid_moment(spec, ("x",) * k, j_word)


def cesaro_by_double_sum(moment, n, pair):
    """(1/n^2) times the sum of moment(pair, (i1, i2)) over all n^2 label
    pairs: the Cesaro variance term by term, with no kernel classes."""
    total = Fraction(0)
    for labels in itertools.product(range(1, n + 1), repeat=2):
        total += moment(pair, labels)
    return total / n**2


def all_permutation_magic_unitaries(n):
    """The n! permutation magic unitaries of S_n, one per permutation: the
    sweep that invariance under every relabelling is checked against."""
    for perm in itertools.permutations(range(1, n + 1)):
        yield permutation_magic_unitary(perm)


def _block_arithmetic(unitary):
    """(zero, one, product) of the unitary's blocks: Fractions and `*`, or
    complex d x d arrays and `@`."""
    if unitary.exact:
        return Fraction(0), Fraction(1), operator.mul
    d = unitary.d
    return np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex), operator.matmul


def word_sum_by_depth_first(value, unitary, j_word):
    """sum_i value(i) U_{i1 j1} ... U_{ik jk} over every index word i, depth
    first over the nonzero blocks: at each position the labels 1..n are
    pushed in order and popped last in, first out.  Numeric unitaries take
    value(i) as a complex number."""
    n, k = unitary.n, len(j_word)
    total, one, product = _block_arithmetic(unitary)
    stack = [((), one)]
    while stack:
        prefix, prod = stack.pop()
        t = len(prefix)
        if t == k:
            weight = value(prefix)
            if not unitary.exact:
                weight = complex(weight)
            total = total + weight * prod
            continue
        for i in range(1, n + 1):
            if unitary.block_is_zero(i, j_word[t]):
                continue
            stack.append((prefix + (i,), product(prod, unitary.block(i, j_word[t]))))
    return total


def block_sum_by_labelling(unitary, pi, j_word):
    """sum over the index words i with pi <= ker i of U_{i1 j1} ... U_{ik jk},
    over all n^|pi| labellings of the blocks of pi, one product each."""
    total, one, product = _block_arithmetic(unitary)
    for assignment in itertools.product(range(1, unitary.n + 1), repeat=len(pi.blocks)):
        i_word = [0] * pi.ground_size
        for label, block in zip(assignment, pi.blocks):
            for x in block:
                i_word[x - 1] = label
        prod = one
        for t, jt in enumerate(j_word):
            if unitary.block_is_zero(i_word[t], jt):
                break
            prod = product(prod, unitary.block(i_word[t], jt))
        else:
            total = total + prod
    return total


def two_coefficient_leg_evaluator(spec, d):
    """Nested evaluation of a letter word at a partition in M_d, with the
    coefficients absorbed on each leg kept apart: a leg is (left, letter,
    right), an operand on its right multiplies `right`, one on its left
    multiplies `left`, and a block's value is `spec.value` of its letters
    scaled by one @ left_1 @ right_1 @ left_2 @ right_2 ... over its legs,
    collapsed by `nested_eval`."""
    one = np.eye(d, dtype=complex)

    def absorb(a, b):
        if isinstance(a, tuple):
            return (a[0], a[1], a[2] @ b)
        return (a @ b[0], b[1], b[2])

    def block_value(window):
        coeff = one
        for left, _, right in window:
            coeff = coeff @ left @ right
        value = spec.value(tuple(leg[1] for leg in window))
        if isinstance(value, np.ndarray):
            return coeff @ np.asarray(value, dtype=complex)
        return complex(value) * coeff

    def evaluate(pi, word):
        operands = [(one, s, one) for s in word]
        return nested_eval(pi, block_value, operands, multiply=absorb)

    return evaluate


def state_like_violations(mf, involution, tol=0):
    """(word, value, expected) for each stored word w of the moment functional
    whose value is farther than `tol` from expected, the conjugate value of
    its adjoint word reverse(star(w)), where that word is stored;
    `involution` maps each symbol to its adjoint symbol."""
    bad = []
    for word, val in mf.moments.items():
        star = tuple(involution[s] for s in reversed(word))
        if star in mf.moments:
            other = mf.moments[star]
            expected = other.conjugate() if hasattr(other, "conjugate") else other
            if abs(val - expected) > tol:
                bad.append((word, val, expected))
    return bad
