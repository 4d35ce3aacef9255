import functools
import importlib
import itertools
import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qperm import cumulants
from qperm.cumulants import CumulantSpec, free_iid_moment
from qperm.errors import BoundError, DimensionError, DomainError, SingularGramError
from qperm.exchange import (
    MagicUnitary,
    _coaction_sum,
    _free_vector,
    _injection_weight,
    _label_functional,
    _subset_sum,
    _urn_vector,
    UrnModel,
    bernoulli_moments,
    block_sum_identity,
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
    urn_moment_classical,
    urn_moment_quantum,
)
from qperm.cumulants import MomentFunctional
from qperm.partitions import (
    K_MAX,
    SetPartition,
    enumerate_nc,
    enumerate_partitions,
    is_noncrossing,
    kernel,
    leq,
)
from qperm.weingarten import dk_value, haar_moment

from _oracles import (
    all_permutation_magic_unitaries,
    block_product,
    block_sum_by_labelling,
    cesaro_by_double_sum,
    classical_urn_by_permutations,
    free_side_by_cumulants,
    injection_weight_by_assignment,
    marginal_free_cumulants,
    quantum_urn_by_kernel_loop,
    word_sum_by_depth_first,
)

P = SetPartition.from_text

THETA = math.pi / 5


def semicircular(k_max=8):
    return CumulantSpec(("c",), k_max, {("c", "c"): Fraction(1)})


def urn_functional(model, k_max):
    """Joint moments of the urn sequence, indexed by labels."""
    return _label_functional(model.n, k_max, lambda labels: urn_moment_quantum(model, labels))


def marginal_moment(model, p):
    """The p-th moment of one urn variable: sum_i lambda_i^p / n."""
    return sum(x**p for x in model.lam) / model.n


class TestMagicUnitary:
    def test_identity_permutation(self):
        u = permutation_magic_unitary((1, 2, 3))
        assert u.exact and u.n == 3 and u.d == 1
        for i in range(1, 4):
            for j in range(1, 4):
                assert u.block(i, j) == (1 if i == j else 0)
        assert not u.violations()

    def test_transposition_pattern(self):
        u = permutation_magic_unitary((2, 1, 3))
        assert u.block(2, 1) == 1
        assert u.block(1, 2) == 1
        assert u.block(3, 3) == 1
        assert sum(u.block(i, j) for i in range(1, 4) for j in range(1, 4)) == 3

    def test_all_permutation_unitaries_validate(self):
        for n in (1, 2, 3, 4):
            for u in all_permutation_magic_unitaries(n):
                assert u.violations() == []

    def test_invalid_permutation(self):
        with pytest.raises(DomainError):
            permutation_magic_unitary((1, 1, 3))

    def test_two_projection_commutative_case(self):
        p = np.diag([1.0, 0.0])
        u = two_projection_magic_unitary(p, p)
        assert not u.violations()
        assert u.n == 4 and u.d == 2

    def test_two_projection_generic_is_noncommutative_and_valid(self):
        p = np.diag([1.0, 0.0])
        q = rotated_projection(THETA)
        u = two_projection_magic_unitary(p, q)
        assert u.violations() == []
        assert np.max(np.abs(p @ q - q @ p)) > 0.1

    def test_two_projection_rows_and_columns_sum_to_identity(self):
        u = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(0.3))
        for i in range(1, 5):
            row = sum(u.block(i, j) for j in range(1, 5))
            col = sum(u.block(j, i) for j in range(1, 5))
            assert np.allclose(row, np.eye(2))
            assert np.allclose(col, np.eye(2))

    def test_non_projection_rejected(self):
        with pytest.raises(DomainError):
            two_projection_magic_unitary(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))

    def test_broken_blocks_reported(self):
        u = MagicUnitary([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]])
        assert u.violations()

    def test_scalar_numeric_block_rejected(self):
        with pytest.raises(DimensionError):
            MagicUnitary([[np.array(1.0)]])

    def test_exact_violations_ignore_tol(self):
        tiny = Fraction(1, 10**12)
        u = MagicUnitary([[1, tiny], [0, 1]])
        assert "block (1,2) is not a projection" in u.violations()
        numeric = MagicUnitary([[np.array([[float(x)]]) for x in row] for row in u.blocks])
        assert numeric.violations() == []

    def test_mixed_scalar_and_matrix_blocks_rejected(self):
        with pytest.raises(DimensionError):
            MagicUnitary([[0, np.eye(1)], [np.eye(1), 0]])

    def test_non_rational_scalar_blocks_rejected(self):
        with pytest.raises(DomainError):
            MagicUnitary([[1j]])
        with pytest.raises(DomainError):
            MagicUnitary([[1.0, 0], [0, 1]])


class TestInvariance:
    def test_free_functional_invariant_under_permutations(self):
        spec = CumulantSpec(
            ("c",),
            4,
            {
                ("c",): Fraction(1, 2),
                ("c", "c"): Fraction(1),
                ("c", "c", "c"): Fraction(1, 3),
                ("c", "c", "c", "c"): Fraction(1, 5),
            },
        )
        for n in (4, 5):
            mf = free_iid_functional(spec, n, 4)
            for u in all_permutation_magic_unitaries(n):
                report = invariance_check(mf, u, max_degree=4)
                assert report.max_deviation == 0
                assert report.passed

    def test_free_functional_invariant_under_two_projection(self):
        spec = semicircular(4)
        mf = free_iid_functional(spec, 4, 4)
        u = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA))
        report = invariance_check(mf, u, max_degree=4)
        assert report.max_deviation <= 1e-9
        assert report.passed

    def test_tensor_bernoulli_separates_classical_from_quantum(self):
        mf = tensor_iid_functional(bernoulli_moments(4), 4, 4)
        for u in all_permutation_magic_unitaries(4):
            assert invariance_check(mf, u, max_degree=4).max_deviation == 0
        u = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA))
        report = invariance_check(mf, u, max_degree=4)
        assert report.max_deviation > 1e-3
        assert not report.passed
        assert report.witness is not None

    def test_constant_sequence_invariant_for_all_unitaries(self):
        # all letters the same variable: value depends only on word length
        n, k_max = 4, 3
        moments = {
            w: Fraction(3) ** len(w)
            for k in range(1, k_max + 1)
            for w in itertools.product(range(1, n + 1), repeat=k)
        }
        mf = MomentFunctional(tuple(range(1, n + 1)), k_max, moments)
        for u in all_permutation_magic_unitaries(n):
            assert invariance_check(mf, u, max_degree=k_max).max_deviation == 0
        u = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(1.1))
        assert invariance_check(mf, u, max_degree=k_max).max_deviation <= 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_raw_permutation_blocks_take_the_coaction_sum(self, n):
        # no recorded permutation: the coaction sum must agree with the relabelling
        rng = random.Random(1400 + n)
        mf = free_iid_functional(semicircular(3), n, 3)
        for word in rng.sample(sorted(mf.moments), 5):
            mf.moments[word] += Fraction(rng.randint(1, 9), rng.randint(2, 7))
        deviations = []
        for perm in rng.sample(list(itertools.permutations(range(1, n + 1))), 6):
            recorded = permutation_magic_unitary(perm)
            raw = MagicUnitary(recorded.blocks)
            assert recorded.permutation() == perm and raw.permutation() is None
            for degree in (1, 2, 3):
                want = invariance_check(mf, recorded, max_degree=degree)
                got = invariance_check(mf, raw, max_degree=degree)
                assert (got.max_deviation, got.witness) == (want.max_deviation, want.witness)
                deviations.append(want.max_deviation)
        assert max(deviations) > 0

    def test_exact_check_ignores_tolerance(self):
        mf = free_iid_functional(semicircular(2), 3, 2)
        mf.moments[(1, 2)] += Fraction(1, 10)
        report = invariance_check(mf, permutation_magic_unitary((2, 1, 3)), 2, tolerance=2)
        assert report.max_deviation == Fraction(1, 10)
        assert report.tolerance == 0 and not report.passed

    def test_negative_tolerance_rejected(self):
        # exact or numeric, a tolerance below 0 is refused before any word is read
        mf = free_iid_functional(semicircular(2), 4, 2)
        numeric = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(0.3))
        for unitary in (permutation_magic_unitary((2, 1, 3, 4)), numeric):
            with pytest.raises(DomainError, match="tolerance"):
                invariance_check(mf, unitary, 2, tolerance=-1)

    def test_degree_above_kmax_rejected(self):
        mf = tensor_iid_functional(bernoulli_moments(2), 4, 2)
        with pytest.raises(BoundError):
            invariance_check(mf, permutation_magic_unitary((1, 2, 3, 4)), max_degree=3)

    @pytest.mark.parametrize("degree", [0, -1, 3])
    def test_degree_outside_one_to_kmax_rejected(self, degree):
        # no word of length 1..degree to check: no verdict, exact or numeric
        mf = tensor_iid_functional(bernoulli_moments(2), 4, 2)
        numeric = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(0.3))
        for unitary in (permutation_magic_unitary((2, 1, 3, 4)), numeric):
            with pytest.raises(BoundError, match="max_degree"):
                invariance_check(mf, unitary, max_degree=degree)


class TestPermutationDeviation:
    @staticmethod
    def sweep(mf, degree):
        n = len(mf.alphabet)
        return max(
            invariance_check(mf, u, max_degree=degree).max_deviation
            for u in all_permutation_magic_unitaries(n)
        )

    @staticmethod
    def perturbed(mf, rng, count):
        # moves a few words off the value of their kernel class
        moments = dict(mf.moments)
        for word in rng.sample(sorted(moments), count):
            moments[word] += Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        return MomentFunctional(mf.alphabet, mf.k_max, moments)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_permutation_sweep(self, n):
        degree = 3 if n == 5 else 4
        rng = random.Random(90 + n)
        values = {("c",): Fraction(1, 2), ("c", "c"): Fraction(1), ("c",) * 3: Fraction(1, 3)}
        spec = CumulantSpec(("c",), degree, values)
        lam = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        exchangeable = [
            free_iid_functional(spec, n, degree),
            urn_functional(UrnModel(n, lam), degree),
            tensor_iid_functional(bernoulli_moments(degree), n, degree),
        ]
        for mf in exchangeable:
            assert permutation_deviation(mf, degree) == 0 == self.sweep(mf, degree)
        for mf in exchangeable:
            for count in (1, 5):
                off = self.perturbed(mf, rng, count)
                for d in range(1, degree + 1):
                    assert permutation_deviation(off, d) == self.sweep(off, d)
                assert permutation_deviation(off, degree) > 0

    def test_degree_above_kmax_rejected(self):
        mf = tensor_iid_functional(bernoulli_moments(2), 4, 2)
        with pytest.raises(BoundError):
            permutation_deviation(mf, 3)

    def test_zero_degree_is_zero(self):
        mf = tensor_iid_functional(bernoulli_moments(2), 3, 2)
        assert permutation_deviation(mf, 0) == 0


class TestBlockSum:
    def test_full_block_constant_word(self):
        u = permutation_magic_unitary((3, 1, 2, 4))
        assert block_sum_identity(u, SetPartition.full(3), (2, 2, 2)) == 1

    def test_full_block_nonconstant_word(self):
        u = permutation_magic_unitary((3, 1, 2, 4))
        assert block_sum_identity(u, SetPartition.full(3), (2, 2, 3)) == 0

    def test_matches_indicator_randomized(self):
        rng = random.Random(2024)
        unitaries = [
            permutation_magic_unitary(tuple(rng.sample(range(1, 5), 4))),
            permutation_magic_unitary(tuple(rng.sample(range(1, 6), 5))),
            two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA)),
            two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(1.3)),
        ]
        for _ in range(60):
            u = rng.choice(unitaries)
            k = rng.randint(1, 5)
            pi = rng.choice(enumerate_nc(k))
            j_word = tuple(rng.randint(1, u.n) for _ in range(k))
            assert block_sum_matches_indicator(u, pi, j_word)

    def test_size_mismatch(self):
        u = permutation_magic_unitary((1, 2))
        with pytest.raises(DimensionError):
            block_sum_identity(u, SetPartition.full(3), (1, 2))

    def test_exact_comparison_ignores_tol(self):
        half = MagicUnitary([[Fraction(1, 2)] * 2] * 2)
        assert block_sum_identity(half, SetPartition.full(2), (1, 2)) == Fraction(1, 2)
        assert not block_sum_matches_indicator(half, SetPartition.full(2), (1, 2), tol=1.0)

    def test_two_projection_fails_only_at_crossing_partitions(self):
        u = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA))
        assert not block_sum_matches_indicator(u, P("1,3|2,4"), (1, 3, 1, 3))
        failures = [
            pi
            for k in (4, 5)
            for pi in enumerate_partitions(k)
            for j_word in itertools.product(range(1, 5), repeat=k)
            if not block_sum_matches_indicator(u, pi, j_word)
        ]
        assert len(failures) == 864
        assert not any(is_noncrossing(pi) for pi in failures)

    def test_permutation_unitaries_hold_on_all_partitions(self):
        # S_n is classical: commuting blocks satisfy the identity for crossing pi too
        cells = 0
        for u in all_permutation_magic_unitaries(4):
            for k in (3, 4):
                for pi in enumerate_partitions(k):
                    for j_word in itertools.product(range(1, 5), repeat=k):
                        assert block_sum_matches_indicator(u, pi, j_word)
                        cells += 1
        assert cells == 99840


class TestCoactionSum:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_the_depth_first_and_labelling_oracles(self, k):
        rng = random.Random(1300 + k)
        unitaries = [
            permutation_magic_unitary((3, 1, 4, 2)),
            permutation_magic_unitary((2, 5, 1, 3, 4)),
            two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA)),
            two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(1.3)),
        ]
        finest = SetPartition.singletons(k)
        for u in unitaries:
            labels = range(1, u.n + 1)
            values = {
                i_word: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for i_word in itertools.product(labels, repeat=k)
            }
            for _ in range(4):
                j_word = tuple(rng.choice(labels) for _ in range(k))
                got = _coaction_sum(u, j_word, finest, values.__getitem__)
                want = word_sum_by_depth_first(values.__getitem__, u, j_word)
                if u.exact:
                    assert got == want
                else:
                    assert got.tobytes() == want.tobytes()
                for pi in enumerate_partitions(k):
                    got = _coaction_sum(u, j_word, pi, lambda i_word: 1)
                    want = block_sum_by_labelling(u, pi, j_word)
                    if u.exact:
                        assert got == want
                    else:
                        assert np.max(np.abs(got - want)) <= 1e-12


class TestUrnMoments:
    def test_constant_weights_give_powers(self):
        model = UrnModel(n=5, lam=[Fraction(1, 3)] * 5)
        for j in [(1,), (2, 4), (1, 1, 5), (3, 3, 3, 3)]:
            assert urn_moment_quantum(model, j) == Fraction(1, 3) ** len(j)

    def test_first_moment_is_mean(self):
        model = UrnModel(n=4, lam=[1, 0, 0, 0])
        for j in range(1, 5):
            assert urn_moment_quantum(model, (j,)) == Fraction(1, 4)

    def test_projection_weight_square(self):
        model = UrnModel(n=4, lam=[1, 0, 0, 0])
        assert urn_moment_quantum(model, (1, 1)) == Fraction(1, 4)

    def test_exchangeable_under_label_permutations(self):
        model = UrnModel(n=4, lam=[1, Fraction(1, 2), 0, 0])
        for j in [(1, 2), (1, 2, 1), (1, 2, 3, 1)]:
            base = urn_moment_quantum(model, j)
            for tau in itertools.permutations(range(1, 5)):
                relabeled = tuple(tau[x - 1] for x in j)
                assert urn_moment_quantum(model, relabeled) == base

    def test_small_n_uses_symmetric_group_branch(self):
        # S_n^+ = S_n for n <= 3: every word of length <= 5
        for lam in ([Fraction(-2, 3)], [1, Fraction(1, 2)], [1, 1, 0], [Fraction(3, 2), -1, Fraction(1, 5)]):
            model = UrnModel(len(lam), lam)
            for k in range(1, 6):
                for j in itertools.product(range(1, model.n + 1), repeat=k):
                    assert urn_moment_quantum(model, j) == urn_moment_classical(model, j)

    def test_nc_vector_matches_kernel_loop_oracle(self):
        # the sum over P(k) with one Haar call per kernel, on signed rational
        # weights with denominators > 1, ties and more blocks than weights
        rng = random.Random(61)
        for n in range(1, 13):
            pool = [Fraction(rng.randint(-3, 3), rng.randint(2, 5)) for _ in range(min(n, 3))]
            model = UrnModel(n, [rng.choice(pool) for _ in range(n)])
            weight_of = functools.cache(lambda tau, lam=model.lam: injection_weight_by_assignment(lam, tau))
            for k in range(1, 7):
                for _ in range(2):
                    j = tuple(rng.randint(1, n) for _ in range(k))
                    expected = quantum_urn_by_kernel_loop(
                        n, weight_of, j, enumerate_partitions, haar_moment
                    )
                    assert urn_moment_quantum(model, j) == expected

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_quantum_refuses_empty_and_long_words(self, n):
        model = UrnModel(n, [1] * n)
        with pytest.raises(BoundError):
            urn_moment_quantum(model, ())
        with pytest.raises(BoundError):
            urn_moment_quantum(model, (1,) * (K_MAX + 1))

    def test_quantum_refuses_k8_before_elimination(self, monkeypatch):
        def no_elimination(*args):
            raise AssertionError("started the k = 8 elimination")

        module = importlib.import_module("qperm.weingarten")
        monkeypatch.setattr(module, "_padic_inverse", no_elimination)
        with pytest.raises(BoundError, match="k <= 7"):
            urn_moment_quantum(UrnModel(5, [1, Fraction(1, 2), 0, 0, 0]), (1,) * 8)

    def test_urn_vector_logs_one_debug_record(self, caplog):
        model = UrnModel(5, [1, Fraction(1, 3), 0, 0, -1])
        logger = logging.getLogger("qperm.exchange")
        assert not logger.isEnabledFor(logging.DEBUG)
        with caplog.at_level(logging.DEBUG, logger="qperm.exchange"):
            _urn_vector.__wrapped__(model, 3)
        records = [r for r in caplog.records if r.name == "qperm.exchange"]
        assert len(records) == 1
        assert records[0].getMessage().startswith("urn vector k=3 n=5 N=5 seconds=")

    @pytest.mark.parametrize("n", [4, 5])
    def test_kernel_grouping_matches_raw_double_sum(self, n):
        # the production path groups the index sum by kernels; recompute a few
        # moments by the unoptimized sum over all n^k index words
        rng = random.Random(31)
        lam = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
        model = UrnModel(n, lam)
        for k in (1, 2, 3):
            for _ in range(3):
                j = tuple(rng.randint(1, n) for _ in range(k))
                raw = Fraction(0)
                for i_word in itertools.product(range(1, n + 1), repeat=k):
                    weight = Fraction(1)
                    for t in i_word:
                        weight *= lam[t - 1]
                    if weight:
                        raw += weight * haar_moment(n, i_word, j)
                assert urn_moment_quantum(model, j) == raw

    def test_model_hash_is_structural(self):
        a = UrnModel(3, [1, Fraction(1, 2), 0])
        b = UrnModel(3, (Fraction(1), Fraction(2, 4), Fraction(0)))
        assert a == b and hash(a) == hash(b)
        assert a != UrnModel(3, [1, 0, Fraction(1, 2)])
        assert _injection_weight(a, P("1,2|3")) is _injection_weight(b, P("1,2|3"))

    def test_classical_examples(self):
        assert urn_moment_classical(UrnModel(2, [1, 0]), (1, 2)) == 0
        model = UrnModel(3, [Fraction(1, 2)] * 3)
        assert urn_moment_classical(model, (1, 1)) == Fraction(1, 4)
        assert urn_moment_classical(UrnModel(4, [1, 2, 3, 4]), (2,)) == Fraction(5, 2)
        assert urn_moment_classical(UrnModel(2, [1, 0]), ()) == 1

    def test_classical_hypergeometric_cross_check(self):
        # 0/1 weights, distinct labels: P(all draws are 1s) without replacement
        n, ones, k = 6, 4, 3
        model = UrnModel(n, [1] * ones + [0] * (n - ones))
        got = urn_moment_classical(model, (1, 2, 3))
        expected = Fraction(
            ones * (ones - 1) * (ones - 2), n * (n - 1) * (n - 2)
        )
        assert got == expected

    def test_classical_refuses_more_than_k_max_labels(self):
        with pytest.raises(BoundError):
            urn_moment_classical(UrnModel(9, [1] * 9), tuple(range(1, K_MAX + 2)))

    def test_classical_hypergeometric_above_eight_weights(self):
        model = UrnModel(12, [1] * 5 + [0] * 7)
        assert urn_moment_classical(model, (1, 2, 3)) == Fraction(5 * 4 * 3, 12 * 11 * 10)

    def test_power_sums_match_assignment_and_permutation_oracles(self):
        # n = 1, ties, negative weights, repeated labels and more blocks than
        # weights (b > n, weight 0) all occur among these models
        rng = random.Random(53)
        models = [UrnModel(1, [Fraction(-2, 3)]), UrnModel(2, [1, 1]), UrnModel(3, [1, -1, 0])]
        for _ in range(12):
            n = rng.randint(1, 6)
            size = rng.randint(1, n)
            pool = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
            models.append(UrnModel(n, [rng.choice(pool) for _ in range(n)]))
        for model in models:
            for k in range(1, 6):
                for tau in enumerate_partitions(k):
                    expected = injection_weight_by_assignment(model.lam, tau)
                    assert _injection_weight(model, tau) == expected
                for _ in range(3):
                    j = tuple(rng.randint(1, model.n) for _ in range(k))
                    expected = classical_urn_by_permutations(model.lam, j)
                    assert urn_moment_classical(model, j) == expected

    def test_label_out_of_range(self):
        with pytest.raises(BoundError):
            urn_moment_quantum(UrnModel(3, [1, 0, 0]), (4,))


class TestExpformConsistency:
    # scalar shadow of the nested conditional-expectation formula: the
    # kernel-restricted average 1/n^{|pi|} sum_{pi <= ker i} prod lambda
    # equals the nested moment of the averaged one-letter functional
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_kernel_restricted_averages(self, n):
        lam = [Fraction(x, n) for x in range(n)]
        model = UrnModel(n, lam)
        k_max = 4
        mf = MomentFunctional(
            ("x",),
            k_max,
            {("x",) * p: marginal_moment(model, p) for p in range(1, k_max + 1)},
        )
        for k in range(1, k_max + 1):
            for pi in enumerate_nc(k):
                direct = Fraction(0)
                for i_word in itertools.product(range(1, n + 1), repeat=k):
                    if leq(pi, kernel(i_word)):
                        term = Fraction(1)
                        for t in i_word:
                            term *= lam[t - 1]
                        direct += term
                direct /= Fraction(n) ** pi.block_count()
                nested = block_product(mf, pi, ("x",) * k)
                assert direct == nested


class TestDeFinettiGap:
    def test_constant_weights_gap_zero(self):
        model = UrnModel(5, [Fraction(2, 3)] * 5)
        for j in [(1,), (1, 2), (1, 2, 1), (1, 2, 3, 1)]:
            report = definetti_gap(model, j)
            assert report.gap == 0
            assert report.gap <= report.bound

    def test_k1_gap_zero_any_weights(self):
        model = UrnModel(6, [1, 1, 1, 0, 0, 0])
        assert definetti_gap(model, (3,)).gap == 0

    def test_k2_gap_is_variance_over_n_minus_1(self):
        # closed form, frozen from brute force: for distinct labels the
        # urn-vs-free gap at k=2 is exactly var(lambda)/(n-1), the classical
        # sampling-without-replacement covariance
        for n, lam in [(4, [1, 1, 0, 0]), (6, [1, Fraction(1, 2), 0, 0, 0, 0])]:
            model = UrnModel(n, lam)
            report = definetti_gap(model, (1, 2))
            var = marginal_moment(model, 2) - marginal_moment(model, 1) ** 2
            assert report.gap == var / (n - 1)
            assert report.gap <= report.bound
            assert definetti_gap(model, (1, 1)).gap == 0

    def test_full_pipeline_desk_scale(self):
        model = UrnModel(6, [1, 1, 1, 0, 0, 0])
        report = definetti_gap(model, (1, 2, 1, 2))
        assert report.gap <= report.bound
        assert report.bound == Fraction(17852, 95)  # d_4(6)/6, frozen from a sweep
        assert isinstance(report.gap, Fraction)

    def test_oracle_gives_bernoulli_cumulants(self):
        # free cumulants of the Bernoulli(1/2) marginal: 1/2, 1/4, 0, -1/16
        kappas = marginal_free_cumulants([1, 1, 1, 0, 0, 0], 4, cumulants, SetPartition.full)
        assert kappas == [Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(-1, 16)]

    def test_free_side_matches_cumulant_route_oracle(self):
        # marginal moments -> free cumulants -> CumulantSpec -> free i.i.d.
        # moment, on signed rational weights with denominators > 1 and ties
        rng = random.Random(83)
        singular = 0
        for n in range(1, 13):
            for _ in range(2):
                pool = [Fraction(rng.randint(-4, 4), rng.randint(2, 6)) for _ in range(min(n, 4))]
                model = UrnModel(n, [rng.choice(pool) for _ in range(n)])
                kappas = marginal_free_cumulants(model.lam, 6, cumulants, SetPartition.full)
                scale = max(1, max(abs(x) for x in model.lam))
                for k in range(1, 7):
                    for _ in range(3):
                        j = tuple(rng.randint(1, n) for _ in range(k))
                        expected = free_side_by_cumulants(kappas, j, cumulants)
                        try:
                            report = definetti_gap(model, j)
                        except SingularGramError:
                            # d_k(n) needs an invertible G_kn; the free side does not
                            assert _subset_sum(*_free_vector(model, k), j) == expected
                            singular += 1
                            continue
                        assert report.free_moment == expected
                        assert report.gap == abs(urn_moment_quantum(model, j) - expected)
                        assert report.bound == dk_value(k, [n]).max_value / n * scale**k
        assert singular > 0

    @pytest.mark.parametrize("n", [2, 5])
    def test_gap_refuses_empty_and_long_words_before_any_vector(self, monkeypatch, n):
        def no_vector(*args):
            raise AssertionError("started an NC(k) vector for a refused word")

        module = importlib.import_module("qperm.exchange")
        monkeypatch.setattr(module, "_nc_weights", no_vector)
        monkeypatch.setattr(module, "_mobius_column", no_vector)
        model = UrnModel(n, [1, Fraction(-1, 2)] + [0] * (n - 2))
        for j in [(), (1,) * (K_MAX + 1)]:
            with pytest.raises(BoundError):
                definetti_gap(model, j)

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 5)])
    def test_gap_refuses_singular_cells_before_any_side(self, monkeypatch, n, k):
        def no_side(*args):
            raise AssertionError("started a side of the gap on a singular cell")

        module = importlib.import_module("qperm.exchange")
        for name in ("_nc_weights", "_mobius_column", "_injection_weight"):
            monkeypatch.setattr(module, name, no_side)
        model = UrnModel(n, [1, Fraction(-1, 2)] + [0] * (n - 2))
        for j in [(1,) * k, tuple(x % n + 1 for x in range(k))]:
            with pytest.raises(SingularGramError):
                definetti_gap(model, j)

    def test_bound_scales_with_largest_weight(self):
        report = definetti_gap(UrnModel(4, [5, 0, 0, 0]), (1, 2))
        assert report.gap == Fraction(25, 16)
        assert report.bound == Fraction(4, 3) * 5**2  # d_2(4)/4 * max|lambda|^k

    def test_gap_is_homogeneous_of_degree_k(self):
        rng = random.Random(71)
        for _ in range(6):
            n = rng.randint(4, 8)
            model = UrnModel(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)])
            c = Fraction(rng.choice([-1, 1]) * rng.randint(2, 7), rng.randint(1, 3))
            scaled = UrnModel(n, [c * x for x in model.lam])
            for k in range(1, 5):
                j = tuple(rng.randint(1, n) for _ in range(k))
                assert definetti_gap(scaled, j).gap == abs(c) ** k * definetti_gap(model, j).gap

    def test_gap_times_n_bounded_over_sweep(self):
        profile = [1, 1, 0]
        products = []
        for n in range(4, 25):
            lam = (profile * n)[:n]
            model = UrnModel(n, lam)
            report = definetti_gap(model, (1, 2, 1, 2))
            products.append(report.gap * n)
        half = len(products) // 2
        assert max(products[half:]) <= max(products[:half])


class TestCesaro:
    def test_n_equals_one(self):
        spec = semicircular(4)
        assert cesaro_variance(spec, 1) == 1

    def test_semicircular_scaling(self):
        spec = semicircular(4)
        assert cesaro_variance(spec, 10) == Fraction(1, 10)

    def test_doubling_halves(self):
        spec = CumulantSpec(("c",), 4, {("c", "c"): Fraction(7, 3)})
        for n in (2, 5, 8):
            assert cesaro_variance(spec, 2 * n) == cesaro_variance(spec, n) / 2

    def test_starred_letter_pair(self):
        spec = CumulantSpec(
            ("c", "c*"),
            4,
            {("c*", "c"): Fraction(2), ("c", "c*"): Fraction(3)},
        )
        assert cesaro_variance(spec, 4) == Fraction(2, 4)

    @pytest.mark.parametrize(
        "spec",
        [
            CumulantSpec(("c",), 4, {("c", "c"): Fraction(7, 3), ("c",) * 3: Fraction(-1, 2)}),
            CumulantSpec(
                ("c", "c*"),
                4,
                {("c*", "c"): Fraction(2), ("c", "c*"): Fraction(3), ("c", "c"): Fraction(5, 4)},
            ),
        ],
    )
    def test_kernel_classes_equal_the_double_sum(self, spec):
        pair = ("c*", "c") if "c*" in spec.alphabet else ("c", "c")
        moment = functools.partial(free_iid_moment, spec)
        for n in range(1, 9):
            assert cesaro_variance(spec, n) == cesaro_by_double_sum(moment, n, pair)

    def test_uncentered_rejected(self):
        spec = CumulantSpec(("c",), 4, {("c",): Fraction(1), ("c", "c"): Fraction(1)})
        with pytest.raises(DomainError):
            cesaro_variance(spec, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(BoundError):
            cesaro_variance(semicircular(4), n)


class TestUrnFunctionalQuantumExchangeability:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_urn_passes_every_permutation_unitary(self, n):
        lam = ([1, Fraction(1, 2), 0] * n)[:n]
        mf = urn_functional(UrnModel(n, lam), 4)
        for u in all_permutation_magic_unitaries(n):
            assert invariance_check(mf, u, max_degree=4).max_deviation == 0

    def test_urn_passes_two_projection_invariance(self):
        model = UrnModel(4, [1, Fraction(1, 2), 0, 0])
        mf = urn_functional(model, 4)
        u = two_projection_magic_unitary(np.diag([1.0, 0.0]), rotated_projection(THETA))
        report = invariance_check(mf, u, max_degree=4)
        assert report.max_deviation <= 1e-9

    def test_permutation_extraction(self):
        u = permutation_magic_unitary((3, 1, 2))
        assert u.permutation() == (3, 1, 2)
        broken = MagicUnitary([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]])
        assert broken.permutation() is None
        complex_u = two_projection_magic_unitary(
            np.diag([1.0, 0.0]), rotated_projection(THETA)
        )
        assert complex_u.permutation() is None
