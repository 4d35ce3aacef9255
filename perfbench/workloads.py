"""Seeded inputs, operations and checks for the three benchmark workloads.

`build(workload, seed, tiny)` makes every input from the seed alone, before
the first call into qperm, and returns a list of operations.  Each operation
is a pair (call, check): `call()` does the work whose latency is measured,
`check(result)` returns None when the result is right and a reason when it
is not.  The checks use oracles written here, not the package's own code
paths, wherever one is cheap enough.

Inputs are stratified (fixed counts per word length, one urn model per
weight-pool size, one n per band) so that the work in a run depends on the
seed only through values and words, and runs with different seeds cost
about the same.
"""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

import qperm
import qperm.cli

REPRODUCE_FLAGS = ("--k-max", "8", "--n-range", "4..60")
REPRODUCE_TINY_FLAGS = ("--k-max", "4", "--n-range", "4..8")
N_CRITERIA = 13


def run_cli(argv):
    """Run the qperm CLI in this process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qperm.cli.main(list(argv))
    return code, buf.getvalue()


def _rgs_partitions(k):
    """All set partitions of 1..k as restricted-growth label tuples."""
    out = []

    def extend(prefix, top):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for a in range(top + 2):
            extend(prefix + [a], max(top, a))

    extend([], -1)
    return out


# --- reproduce ---------------------------------------------------------------


def reproduce_argv(seed, tiny):
    flags = REPRODUCE_TINY_FLAGS if tiny else REPRODUCE_FLAGS
    return ("reproduce-all", *flags, "--seed", str(seed))


def reproduce_failures(code, text):
    """Failed criteria out of 13, from one reproduce-all exit code and stdout."""
    try:
        report = json.loads(text)
        results = report["results"]
    except (ValueError, KeyError, TypeError):
        return N_CRITERIA, f"exit {code}, stdout is not a reproduce-all report"
    failed = sum(1 for r in results if not r.get("pass"))
    failed += max(0, N_CRITERIA - len(results))
    if code != 0 or report.get("pass") is not True or failed:
        return max(failed, 1), f"exit {code}, pass={report.get('pass')}, {len(results)} criteria"
    return 0, None


# --- urn-gap -------------------------------------------------------------------

# One model per weight-pool size V = 3..9, each with a fixed n and a fixed
# number of words per length.  The cost of a model depends on V, n and the
# word lengths: the first word of length k builds m_lambda(tau) for every
# tau in P(k), O(V^b) assignments for b blocks, and the Haar tables of
# (k, n).  n = 6 and n = 7 also run the n! classical sweep.  The V = 8 and
# V = 9 pools stop at length 4: their cold length-5 builds alone would take
# 3.6 s and halve the batches a run can repeat.
URN_MODELS = (
    # (V, n, words of length 1, 2, ...)
    (3, 18, (3, 3, 5, 14, 7)),
    (4, 15, (3, 3, 5, 14, 7)),
    (5, 12, (3, 3, 5, 14, 7)),
    (6, 6, (3, 3, 5, 14, 7)),
    (7, 7, (2, 2, 3, 6, 3)),
    (8, 8, (3, 4, 8, 17)),
    (9, 10, (3, 4, 8, 17)),
)
URN_TINY = ((3, 6, (2, 2, 2, 2, 1)), (4, 8, (2, 2, 2, 2, 1)))


# Denominators of the pool values, slot by slot.  Fixing them keeps the
# size of the Fractions, and so the cost of the exact arithmetic, the same
# for every seed; the seed picks numerators, signs and multiplicities.
POOL_DENOMINATORS = (1, 2, 3, 4, 5, 6, 5, 4, 3)


def _weight_pool(rng, size):
    # |lambda_i| <= 1 keeps definetti_gap inside the domain where its
    # d_k(n)/n bound holds; the gap is homogeneous of degree k in lambda
    # while the bound carries no max|lambda|^k factor.
    pool = set()
    for den in POOL_DENOMINATORS[:size]:
        choices = [
            Fraction(sign * num, den)
            for num in range(1, den + 1)
            for sign in (1, -1)
            if math.gcd(num, den) == 1
        ]
        pool.add(rng.choice([x for x in choices if x not in pool]))
    return sorted(pool)


def _urn_model(rng, size, n):
    pool = _weight_pool(rng, size)
    lam = pool + [rng.choice(pool) for _ in range(n - size)]
    rng.shuffle(lam)
    return qperm.UrnModel(n, lam)


def _injection_moment(lam, word):
    """E prod_t lambda_{s(j_t)} over uniform injections s of the labels of
    `word` into 1..n, by inclusion-exclusion over P(r) on the power sums
    p_m = sum_i lambda_i^m: m_lambda(ker word) / (n)_r."""
    labels = sorted(set(word))
    sizes = [word.count(a) for a in labels]
    total = 0
    for rgs in _rgs_partitions(len(labels)):
        term = 1
        for block in range(max(rgs) + 1):
            members = [sizes[i] for i, b in enumerate(rgs) if b == block]
            power_sum = sum(x ** sum(members) for x in lam)
            term *= (-1) ** (len(members) - 1) * math.factorial(len(members) - 1) * power_sum
        total += term
    return Fraction(total) / math.perm(len(lam), len(labels))


def _urn_op(model, word):
    oracle = _injection_moment(model.lam, word)
    classical = model.n <= 7
    # NC(k) = P(k) for k <= 3, so there the quantum urn moment equals the
    # classical one; a single-label word gives (1/n) sum lambda_i^k for both.
    quantum_is_classical = len(word) <= 3 or len(set(word)) == 1

    def call():
        report = qperm.definetti_gap(model, word)
        urn_classical = qperm.urn_moment_classical(model, word) if classical else None
        return report, urn_classical

    def check(result):
        report, urn_classical = result
        if report.gap != abs(report.urn_moment - report.free_moment):
            return f"gap is not |urn - free| at n={model.n}, j={word}"
        if not report.gap <= report.bound:
            return f"gap above d_k(n)/n at n={model.n}, j={word}"
        if quantum_is_classical and report.urn_moment != oracle:
            return f"quantum urn moment differs from the injection oracle at n={model.n}, j={word}"
        if classical and urn_classical != oracle:
            return f"classical urn moment differs from the injection oracle at j={word}"
        return None

    return call, check


def urn_gap_ops(rng, tiny):
    ops = []
    for size, n, counts in URN_TINY if tiny else URN_MODELS:
        model = _urn_model(rng, size, n)
        words = []
        for k, count in enumerate(counts, start=1):
            # one single-label word per length, for the exact marginal check
            words.append((rng.randint(1, n),) * k)
            words += [tuple(rng.randint(1, n) for _ in range(k)) for _ in range(count - 1)]
        rng.shuffle(words)
        ops += [_urn_op(model, w) for w in words]
    return ops


# --- cumulants -----------------------------------------------------------------

ALPHABET = ("a", "b")
# (word length, count).  The length-5 round trips span the middle of the
# latency distribution, so that op_p50_ms follows nested_eval; the length-6
# round trips hold p95; the first length-7 round trip builds the NC(7)
# order and Moebius tables.
# Round trips stop at length 7: the cold NC(8) build alone takes 7-9 s,
# which would leave room for only two batches in a run.
ROUND_TRIPS = ((4, 14), (5, 90), (6, 26), (7, 2))
FREE_IID = ((4, 14), (5, 14), (6, 14), (7, 14), (8, 14))
FREENESS_CHECKS = 2  # of each kind, free and non-free
MATRIX_LENGTHS = (4, 4, 5, 5, 6, 6)
MATRIX_DIM = 3
MATRIX_TOL = 1e-9
CUMULANTS_TINY = dict(
    round_trips=((4, 3), (5, 2), (6, 1)), free_iid=((4, 3), (5, 3)), freeness=1, matrix=(4, 4)
)


def _crossing(labels):
    k = len(labels)
    for a, b, c, d in itertools.combinations(range(k), 4):
        if labels[a] == labels[c] != labels[b] == labels[d]:
            return True
    return False


class ScalarOracle:
    """Moment-cumulant formula for scalar cumulants, from first principles:
    phi(w) = sum over non-crossing pi <= ker(labels) of the product over
    blocks V of kappa(w restricted to V)."""

    def __init__(self, k_max):
        self.nc = {
            k: [
                tuple(tuple(i for i in range(k) if lab[i] == b) for b in range(max(lab) + 1))
                for lab in _rgs_partitions(k)
                if not _crossing(lab)
            ]
            for k in range(1, k_max + 1)
        }

    def moment(self, values, word, labels=None):
        total = Fraction(0)
        for blocks in self.nc[len(word)]:
            if labels is not None and any(
                labels[i] != labels[block[0]] for block in blocks for i in block
            ):
                continue
            term = Fraction(1)
            for block in blocks:
                term *= values.get(tuple(word[i] for i in block), 0)
                if not term:
                    break
            total += term
        return total


def _random_values(rng, k_max, mixed=True):
    values = {}
    for s in range(1, k_max + 1):
        for word in itertools.product(ALPHABET, repeat=s):
            if mixed or len(set(word)) == 1:
                values[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return values


def _subsequences(word):
    out = set()
    for r in range(1, len(word) + 1):
        for pos in itertools.combinations(range(len(word)), r):
            out.add(tuple(word[t] for t in pos))
    return sorted(out)


def _round_trip_op(rng, length):
    word = tuple(rng.choice(ALPHABET) for _ in range(length))
    spec = qperm.CumulantSpec(ALPHABET, length, _random_values(rng, length))

    def call():
        moments = {w: qperm.cumulants_to_moments(spec, w) for w in _subsequences(word)}
        mf = qperm.MomentFunctional(ALPHABET, length, moments)
        return qperm.moments_to_cumulants(mf, qperm.SetPartition.full(length), word)

    def check(kappa):
        if kappa != spec.value(word):
            return f"round trip changed the cumulant of {''.join(word)}"
        return None

    return call, check


def _free_iid_op(rng, oracle, length):
    letters = tuple(rng.choice(ALPHABET) for _ in range(length))
    labels = tuple(rng.randint(1, 3) for _ in range(length))
    values = _random_values(rng, length)
    spec = qperm.CumulantSpec(ALPHABET, length, values)
    want = oracle.moment(values, letters, labels)

    def call():
        return qperm.free_iid_moment(spec, letters, labels)

    def check(got):
        if got != want:
            return f"free i.i.d. moment differs from the oracle at {letters}, {labels}"
        return None

    return call, check


def _freeness_op(rng, oracle, free):
    # Pure cumulants only, for a free pair; one nonzero mixed cumulant
    # kappa(a, b) otherwise.  Moments up to degree 4 come from the oracle.
    values = _random_values(rng, 4, mixed=False)
    if not free:
        values[("a", "b")] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    moments = {
        w: oracle.moment(values, w)
        for s in range(1, 5)
        for w in itertools.product(ALPHABET, repeat=s)
    }
    mf = qperm.MomentFunctional(ALPHABET, 4, moments)

    def call():
        return qperm.freeness_check(mf, {"a": 0, "b": 1}, max_degree=4)

    def check(verdict):
        if verdict.free != free:
            return f"freeness verdict {verdict.free} for a {'free' if free else 'non-free'} pair"
        return None

    return call, check


def _matrix_op(rng, oracle, length, scalar_twin):
    word = tuple(rng.choice(ALPHABET) for _ in range(length))
    values = _random_values(rng, length)
    eye = np.eye(MATRIX_DIM, dtype=complex)
    if scalar_twin:
        # scalar multiples of the identity: the moment is the scalar one times I
        mat = {w: float(v) * eye for w, v in values.items()}
        want = float(oracle.moment(values, word)) * eye
    else:
        # a random spec and its conjugate by a permutation matrix P: the
        # moments must come out conjugated by P as well
        shape = range(MATRIX_DIM)
        mat = {w: np.array([[rng.uniform(-1, 1) for _ in shape] for _ in shape]) + 0j for w in values}
        perm = np.eye(MATRIX_DIM)[rng.sample(range(MATRIX_DIM), MATRIX_DIM)]
        conj = {w: perm @ m @ perm.T for w, m in mat.items()}
    spec = qperm.CumulantSpec(ALPHABET, length, mat)

    def call():
        return qperm.cumulants_to_moments(spec, word)

    def check(got):
        if scalar_twin:
            twin = want
        else:
            twin = qperm.cumulants_to_moments(qperm.CumulantSpec(ALPHABET, length, conj), word)
            got = perm @ got @ perm.T
        scale = max(1.0, float(np.max(np.abs(twin))))
        if float(np.max(np.abs(got - twin))) > MATRIX_TOL * scale:
            return f"matrix moment of {''.join(word)} disagrees with its twin"
        return None

    return call, check


def cumulants_ops(rng, tiny):
    round_trips = CUMULANTS_TINY["round_trips"] if tiny else ROUND_TRIPS
    free_iid = CUMULANTS_TINY["free_iid"] if tiny else FREE_IID
    freeness = CUMULANTS_TINY["freeness"] if tiny else FREENESS_CHECKS
    matrix = CUMULANTS_TINY["matrix"] if tiny else MATRIX_LENGTHS
    oracle = ScalarOracle(max(length for length, _ in round_trips + free_iid))
    ops = [_round_trip_op(rng, length) for length, count in round_trips for _ in range(count)]
    ops += [_free_iid_op(rng, oracle, length) for length, count in free_iid for _ in range(count)]
    ops += [_freeness_op(rng, oracle, free) for free in (True, False) for _ in range(freeness)]
    ops += [_matrix_op(rng, oracle, length, i % 2 == 0) for i, length in enumerate(matrix)]
    rng.shuffle(ops)
    return ops


def build(workload, seed, tiny=False):
    """The operations of one run of `workload`, made from `seed` alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "urn-gap":
        return urn_gap_ops(rng, tiny)
    if workload == "cumulants":
        return cumulants_ops(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")
