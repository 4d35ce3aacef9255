"""The acceptance experiments, runnable as a suite.

Each criterion function performs one end-to-end check at its stated
tolerance and returns a CriterionResult; `run_all` executes the full
battery.  Both take one ExperimentConfig, whose k_max and top of n_range
only ever trim a criterion's own sweep, for smoke runs.
Brute-force oracles used here are written against the raw definitions,
independent of the production enumeration and inversion paths.
"""

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cumulants import (
    CumulantSpec,
    MomentFunctional,
    cumulants_to_moments,
    moments_to_cumulants,
)
from .errors import InvariantViolation, QpermError, SingularGramError
from .exchange import (
    DEFAULT_TOL,
    UrnModel,
    bernoulli_moments,
    block_sum_matches_indicator,
    cesaro_variance,
    definetti_gap,
    free_iid_functional,
    invariance_check,
    permutation_deviation,
    permutation_magic_unitary,
    rotated_projection,
    tensor_iid_functional,
    two_projection_magic_unitary,
)
from .partitions import (
    K_MAX,
    SetPartition,
    enumerate_nc,
    enumerate_partitions,
    kernel,
    mobius_nc,
    mobius_nc_chain_count,
)
from .weingarten import _no_growth, check_inverse, haar_moment, weingarten_asymptotics

NC_COUNTS = (1, 2, 5, 14, 42, 132, 429)
BELL_COUNTS = (1, 2, 5, 15, 52, 203, 877)

#: The two-projection angle of criteria 8 and 11, one of criterion 9's pool.
THETA = math.pi / 5


@dataclass(frozen=True)
class ExperimentConfig:
    """The four settings of `qperm reproduce-all`, whose defaults are
    written here only.  k_max and the top of n_range trim the sweep each
    criterion fixes for itself; they never widen it."""

    k_max: int = K_MAX
    n_range: tuple = (4, 60)  # covers the widest acceptance sweep
    tolerance: float = DEFAULT_TOL
    seed: int = 20260808

    def __post_init__(self):
        if not 1 <= self.k_max <= K_MAX:
            raise QpermError(f"k_max must be in 1..{K_MAX}")
        if self.n_range[0] != 4 or self.n_range[1] < 4:
            raise QpermError("n_range must be 4..HI with HI >= 4: the sweeps keep their "
                             "own starts, and only the top HI trims them")
        if self.tolerance < 0:
            raise QpermError("tolerance must be >= 0")

    def ns(self, hi):
        """A criterion's sweep n = 4..hi, trimmed to the top of n_range."""
        return range(self.n_range[0], min(hi, self.n_range[1]) + 1)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    observed: str
    requirement: str
    seconds: float

    def to_json_dict(self):
        # no timing fields: identical config + seed must give byte-identical output
        return {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "requirement": self.requirement,
        }


def _criterion(number, name):
    """Number, name and time a check: `check(config)` returns (passed,
    observed, requirement), and the criterion returns its CriterionResult."""

    def decorate(check):
        @functools.wraps(check)
        def criterion(config=ExperimentConfig()):
            start = time.perf_counter()
            passed, observed, requirement = check(config)
            return CriterionResult(
                number, name, passed, observed, requirement, time.perf_counter() - start
            )

        return criterion

    return decorate


@_criterion(1, "haar first moment")
def criterion_1_haar_first_moment(config):
    ns = config.ns(8)
    start = time.perf_counter()
    bad = []
    for n in ns:
        want = Fraction(1, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if haar_moment(n, (i,), (j,)) != want:
                    bad.append((n, i, j))
    elapsed = time.perf_counter() - start
    return (
        not bad and elapsed < 1.0,
        f"{len(bad)} mismatches over n in {min(ns)}..{max(ns)}",
        "exactly 1/n for all i, j; under 1 second",
    )


@_criterion(2, "weingarten inversion")
def criterion_2_weingarten_inversion(config):
    k_hi, ns, budget_s = min(6, config.k_max), config.ns(12), 600.0
    start = time.perf_counter()
    checked = 0
    bad = []
    for k in range(1, k_hi + 1):
        for n in ns:
            try:
                ok = check_inverse(k, n)
            except SingularGramError:
                bad.append((k, n, "singular"))
                continue
            checked += 1
            if not ok:
                bad.append((k, n, "product differs from identity"))
    elapsed = time.perf_counter() - start
    return (
        not bad and elapsed <= budget_s,
        f"{checked} exact identity checks",
        f"G*W = I exactly for k <= {k_hi}, n in {min(ns)}..{max(ns)}, within {budget_s:.0f}s",
    )


@_criterion(3, "lemma-west residuals")
def criterion_3_lemma_west(config):
    k_hi, ns = min(4, config.k_max), config.ns(60)
    failures = []
    worst = Fraction(0)
    cells = 0
    for k in range(1, k_hi + 1):
        nc = enumerate_nc(k)
        for p in nc:
            for q in nc:
                report = weingarten_asymptotics(k, ns, p, q)
                cells += 1
                worst = max(worst, report.max_abs)
                if not report.bounded:
                    failures.append((k, str(p), str(q), report.relation))
    return (
        not failures,
        f"{cells} pair sweeps bounded, max scaled residual {float(worst):.4f}",
        f"residuals bounded over n in {min(ns)}..{max(ns)} (no growth trend)",
    )


def _partitions_by_function_kernels(k):
    # Kernels of the maps f with f(x) in {0, ..., x - 1}: k! maps, not k^k.
    # Every partition is the kernel of one of them, f(x) = min(block of x) - 1.
    seen = set()
    for f in itertools.product(*(range(x) for x in range(1, k + 1))):
        groups = {}
        for pos, v in enumerate(f, start=1):
            groups.setdefault(v, []).append(pos)
        seen.add(tuple(sorted(tuple(b) for b in groups.values())))
    return seen


def _crosses_by_definition(blocks):
    for V in blocks:
        for W in blocks:
            if V is W:
                continue
            for s1 in V:
                for s2 in V:
                    if s2 <= s1:
                        continue
                    for t1 in W:
                        for t2 in W:
                            if s1 < t1 < s2 < t2:
                                return True
    return False


@_criterion(4, "counting oracles")
def criterion_4_counting_oracles(config):
    k_hi = min(7, config.k_max)
    bad = []
    for k in range(1, k_hi + 1):
        brute = _partitions_by_function_kernels(k)
        brute_nc = {b for b in brute if not _crosses_by_definition(b)}
        got_p = {p.blocks for p in enumerate_partitions(k)}
        got_nc = {p.blocks for p in enumerate_nc(k)}
        if not (got_p == brute and len(brute) == BELL_COUNTS[k - 1]):
            bad.append((k, "P", len(got_p), len(brute)))
        if not (got_nc == brute_nc and len(brute_nc) == NC_COUNTS[k - 1]):
            bad.append((k, "NC", len(got_nc), len(brute_nc)))
    return (
        not bad,
        f"P and NC enumerations match brute force for k <= {k_hi}" if not bad else str(bad),
        f"|P(k)| = Bell, |NC(k)| = Catalan, k <= {k_hi}, vs independent enumeration",
    )


@_criterion(5, "mobius cross-validation")
def criterion_5_mobius_cross_validation(config):
    k_hi = min(5, config.k_max)
    pairs = 0
    bad = []
    for k in range(1, k_hi + 1):
        for p in enumerate_nc(k):
            for q in enumerate_nc(k):
                pairs += 1
                if mobius_nc(p, q) != mobius_nc_chain_count(p, q):
                    bad.append((k, str(p), str(q)))
    return (
        not bad,
        f"recursion equals chain-count formula on {pairs} pairs",
        f"all NC(k) pairs, k <= {k_hi}, exact",
    )


def _random_spec(rng, k_max, alphabet=("a", "b")):
    values = {}
    for s in range(1, k_max + 1):
        for word in itertools.product(alphabet, repeat=s):
            values[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return CumulantSpec(alphabet=alphabet, k_max=k_max, values=values)


def _subsequences(word):
    out = set()
    for r in range(1, len(word) + 1):
        for pos in itertools.combinations(range(len(word)), r):
            out.add(tuple(word[t] for t in pos))
    return out


@_criterion(6, "moment-cumulant round trip")
def criterion_6_round_trip(config):
    cases, k_hi, seed = 100, min(5, config.k_max), config.seed
    rng = random.Random(seed)
    alphabet = ("a", "b")
    bad = 0
    for _ in range(cases):
        k = rng.randint(1, k_hi)
        word = tuple(rng.choice(alphabet) for _ in range(k))
        spec = _random_spec(rng, k)
        moments = {w: cumulants_to_moments(spec, w) for w in _subsequences(word)}
        mf = MomentFunctional(alphabet, k, moments)
        if moments_to_cumulants(mf, SetPartition.full(k), word) != spec.value(word):
            bad += 1
        # reverse direction: random moments -> cumulants -> same moments
        raw = {w: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for w in _subsequences(word)}
        mf2 = MomentFunctional(alphabet, k, raw)
        values = {
            w: moments_to_cumulants(mf2, SetPartition.full(len(w)), w)
            for w in _subsequences(word)
        }
        spec2 = CumulantSpec(alphabet, k, values)
        if cumulants_to_moments(spec2, word) != raw[word]:
            bad += 1
    return (
        bad == 0,
        f"{cases} randomized cases (seed {seed}), both directions, {bad} failures",
        f"exact round trip, k <= {k_hi}",
    )


@_criterion(7, "semicircular desk check")
def criterion_7_semicircular(config):
    catalan = {2: 1, 4: 2, 6: 5, 8: 14}
    spec = CumulantSpec(("c",), max(catalan), {("c", "c"): Fraction(1)})
    got = {m: cumulants_to_moments(spec, ("c",) * m) for m in catalan}
    return (
        all(got[m] == want for m, want in catalan.items()),
        "moments " + ", ".join(str(got[m]) for m in catalan),
        "Catalan numbers 1, 2, 5, 14 at lengths 2, 4, 6, 8, exact",
    )


def _rich_spec(k_max=4):
    return CumulantSpec(
        ("c",),
        k_max,
        {
            ("c",): Fraction(1, 2),
            ("c", "c"): Fraction(1),
            ("c", "c", "c"): Fraction(1, 3),
            ("c", "c", "c", "c"): Fraction(1, 5),
        },
    )


@_criterion(8, "free implies quantum exchangeable")
def criterion_8_free_implies_invariant(config):
    k_hi, tol = min(4, config.k_max), config.tolerance
    spec = _rich_spec(k_hi)
    functionals = {n: free_iid_functional(spec, n, k_hi) for n in (4, 5)}
    worst_exact = max(permutation_deviation(mf, k_hi) for mf in functionals.values())
    u2 = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA))
    worst_complex = invariance_check(functionals[4], u2, max_degree=k_hi).max_deviation
    return (
        worst_exact == 0 and worst_complex <= tol,
        f"permutation deviation {worst_exact}, two-projection deviation {worst_complex:.2e}",
        f"0 exactly for rational unitaries; <= {tol} for the two-projection unitary",
    )


@_criterion(9, "block-sum identity")
def criterion_9_block_sum_identity(config):
    cells, k_hi, tol, seed = 200, min(5, config.k_max), config.tolerance, config.seed
    rng = random.Random(seed)
    theta_pool = [THETA, 1.3, 0.4]
    bad = 0
    for _ in range(cells):
        k = rng.randint(1, k_hi)
        pi = rng.choice(enumerate_nc(k))
        if rng.random() < 0.5:
            n = rng.randint(2, 5)
            u = permutation_magic_unitary(tuple(rng.sample(range(1, n + 1), n)))
        else:
            u = two_projection_magic_unitary(
                np.diag([1.0, 0.0]), rotated_projection(rng.choice(theta_pool))
            )
        j_word = tuple(rng.randint(1, u.n) for _ in range(k))
        if not block_sum_matches_indicator(u, pi, j_word, tol=tol):
            bad += 1
    return (
        bad == 0,
        f"{cells} randomized cells (seed {seed}), {bad} failures",
        f"sum equals indicator exactly / within {tol}, k <= {k_hi}",
    )


def _profiles(n):
    ones = [1] * ((n + 1) // 2) + [0] * (n - (n + 1) // 2)
    three = ([1, Fraction(1, 2), 0] * n)[:n]
    return {"0/1 mix": ones, "three-valued": three}


@_criterion(10, "finite de Finetti gap")
def criterion_10_definetti_gap(config):
    k_hi, ns = min(4, config.k_max), config.ns(24)
    failures = []
    scaled = {}
    for n in ns:
        for profile_name, lam in _profiles(n).items():
            model = UrnModel(n, lam)
            for k in range(1, k_hi + 1):
                for tau in enumerate_partitions(k):
                    if tau.block_count() > n:
                        continue
                    j_word = tau.to_word()
                    try:
                        report = definetti_gap(model, j_word)
                    except InvariantViolation as exc:
                        failures.append(str(exc))
                        continue
                    key = (profile_name, k)
                    scaled.setdefault(key, []).append(report.gap * n)
    # each key's values run over n in sweep order, the classes interleaved
    trend_bad = [key for key, values in scaled.items() if not _no_growth(values)]
    worst = max((max(v) for v in scaled.values()), default=Fraction(0))
    passed = not failures and not trend_bad
    return (
        passed,
        f"all gaps within d_k(n)/n; max gap*n = {float(worst):.4f}"
        if passed
        else f"{len(failures)} bound failures, trend issues: {trend_bad}",
        f"|urn - free| <= d_k(n)/n for k <= {k_hi}, n in {min(ns)}..{max(ns)}; "
        "gap*n bounded over the sweep (finite-sweep substitute for the universal constant)",
    )


@_criterion(11, "classical vs quantum separation")
def criterion_11_classical_quantum_separation(config):
    degree = 4
    mf = tensor_iid_functional(bernoulli_moments(degree), 4, degree)
    worst_perm = permutation_deviation(mf, degree)
    u2 = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA))
    report = invariance_check(mf, u2, max_degree=degree)
    return (
        worst_perm == 0 and report.max_deviation > 1e-3,
        f"permutation deviation {worst_perm}; two-projection deviation "
        f"{report.max_deviation:.4f} at word {report.witness}",
        "tensor Bernoulli passes every permutation unitary exactly but fails the "
        "two-projection unitary at degree 4 with deviation > 1e-3",
    )


@_criterion(12, "hewitt-savage scaling")
def criterion_12_hewitt_savage_scaling(config):
    ns = range(1, 21)
    bad = []
    for variance in (Fraction(1), Fraction(7, 3)):
        spec = CumulantSpec(("c",), 4, {("c", "c"): variance})
        for n in ns:
            if cesaro_variance(spec, n) != variance / n:
                bad.append((str(variance), n))
    return (
        not bad,
        f"cesaro variance equals phi(c*c)/n for n in {min(ns)}..{max(ns)}",
        "exact 1/n scaling of the squared Cesaro mean",
    )


@_criterion(13, "small-n classical consistency")
def criterion_13_small_n_consistency(config):
    k_hi = min(4, config.k_max)
    bad = 0
    pairs = 0
    for n in (1, 2, 3):
        for k in range(1, k_hi + 1):
            kernels = {w: kernel(w) for w in itertools.product(range(1, n + 1), repeat=k)}
            for i, ker_i in kernels.items():
                same = Fraction(math.factorial(n - len(set(i))), math.factorial(n))
                for j, ker_j in kernels.items():
                    pairs += 1
                    if haar_moment(n, i, j) != (same if ker_i == ker_j else 0):
                        bad += 1
    return (
        bad == 0,
        f"{pairs} word pairs agree with the closed-form permutation count"
        if bad == 0
        else f"{bad} of {pairs} word pairs differ from the closed-form permutation count",
        f"S_n-averaging branch equals explicit classical computation, k <= {k_hi}",
    )


def run_all(config=ExperimentConfig()):
    """Run every acceptance criterion.  Each is called through its module
    global, so that a wrapper installed there, such as a tracer's, sees it."""
    return [
        criterion_1_haar_first_moment(config),
        criterion_2_weingarten_inversion(config),
        criterion_3_lemma_west(config),
        criterion_4_counting_oracles(config),
        criterion_5_mobius_cross_validation(config),
        criterion_6_round_trip(config),
        criterion_7_semicircular(config),
        criterion_8_free_implies_invariant(config),
        criterion_9_block_sum_identity(config),
        criterion_10_definetti_gap(config),
        criterion_11_classical_quantum_separation(config),
        criterion_12_hewitt_savage_scaling(config),
        criterion_13_small_n_consistency(config),
    ]
