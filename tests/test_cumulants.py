import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from qperm.cumulants import (
    CumulantSpec,
    MomentFunctional,
    _block_products,
    _block_sum,
    cumulants_to_moments,
    free_iid_moment,
    freeness_check,
    moments_to_cumulants,
)
from qperm.acceptance import (
    _crosses_by_definition as crosses_by_definition,
    _partitions_by_function_kernels as partitions_by_function_kernels,
)
from qperm.errors import BoundError, DimensionError, DomainError
from qperm.partitions import (
    SetPartition,
    _nc_below,
    _nc_index,
    enumerate_nc,
    kernel,
    leq,
    mobius_nc,
)

from _oracles import (
    block_product,
    block_product_sum,
    mobius_inversion,
    nc_block_sum,
    nc_moment_sum,
    nested_eval,
    state_like_violations,
    two_coefficient_leg_evaluator,
)

P = SetPartition.from_text


def semicircular(k_max=8):
    return CumulantSpec(alphabet=("c",), k_max=k_max, values={("c", "c"): Fraction(1)})


def free_poisson(k_max=6):
    values = {("c",) * s: Fraction(1) for s in range(1, k_max + 1)}
    return CumulantSpec(alphabet=("c",), k_max=k_max, values=values)


def random_spec(rng, k_max=5, alphabet=("a", "b")):
    values = {}
    for s in range(1, k_max + 1):
        for word in itertools.product(alphabet, repeat=s):
            values[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return CumulantSpec(alphabet=alphabet, k_max=k_max, values=values)


def functional_from_spec(spec, k_max):
    moments = {}
    for k in range(1, k_max + 1):
        for word in itertools.product(spec.alphabet, repeat=k):
            moments[word] = cumulants_to_moments(spec, word)
    return MomentFunctional(alphabet=spec.alphabet, k_max=k_max, moments=moments)


class TestNestedEval:
    def test_single_block_applies_once(self):
        calls = []

        def f(window):
            calls.append(window)
            return sum(window)

        out = nested_eval(SetPartition.full(3), f, [1, 2, 3])
        assert out == 6
        assert calls == [(1, 2, 3)]

    def test_singletons_multiply(self):
        out = nested_eval(
            SetPartition.singletons(4),
            lambda w: w[0],
            [Fraction(1, 2), 3, 4, 5],
        )
        assert out == 30

    def test_hand_trace_13_2(self):
        # f2(a1 * f1(a2), a3) with scalar block functions
        def f(window):
            return Fraction(1, 1 + len(window)) * window[0] * window[-1]

        a = [Fraction(2), Fraction(3), Fraction(5)]
        expected = Fraction(1, 3) * (a[0] * (Fraction(1, 2) * a[1] * a[1])) * a[2]
        assert nested_eval(P("1,3|2"), f, a) == expected

    def test_interval_choice_independence_scalar(self):
        # block functions must act multiplicatively for order independence;
        # a size-weighted monomial is the scalar prototype
        def f(window):
            out = Fraction(1, 1 + len(window))
            for v in window:
                out *= v
            return out

        for k in range(1, 6):
            for pi in enumerate_nc(k):
                ops = [Fraction(i + 2, 3) for i in range(k)]
                results = set()
                for order in itertools.permutations(range(pi.block_count())):
                    ranks = iter(order)

                    def choose(intervals):
                        return intervals[next(ranks) % len(intervals)]

                    results.add(nested_eval(pi, f, list(ops), choose_interval=choose))
                assert len(results) == 1

    def test_interval_choice_independence_matrix(self):
        # with matrix operands and the product block function, every peel
        # order must rebuild the same ordered product (associativity)
        rng = np.random.default_rng(12)

        def f(window):
            out = window[0]
            for v in window[1:]:
                out = out @ v
            return out

        for k in range(2, 5):
            ops = [rng.normal(size=(2, 2)) for _ in range(k)]
            full = f(tuple(ops))
            for pi in enumerate_nc(k):
                for order in itertools.permutations(range(pi.block_count())):
                    ranks = iter(order)

                    def choose(intervals):
                        return intervals[next(ranks) % len(intervals)]

                    got = nested_eval(
                        pi, f, list(ops), multiply=np.matmul, choose_interval=choose
                    )
                    assert np.allclose(got, full, atol=1e-9)

    def test_crossing_rejected(self):
        with pytest.raises(DomainError):
            nested_eval(P("1,3|2,4"), lambda w: 1, [1, 2, 3, 4])

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            nested_eval(P("1,2"), lambda w: 1, [1, 2, 3])

    def test_one_coefficient_collapse_is_the_product_by_last_position(self):
        # free-monoid block values: each block is its own generator and
        # products concatenate, so no reassociation or cancellation can hide
        # a change of order; a leg is (coefficient, position), and a block's
        # value is the product of its legs' coefficients, then the block
        def absorb(a, b):
            if isinstance(a, tuple):
                return (a[0] + b, a[1])
            return (a + b[0], b[1])

        def block_value(window):
            return [g for leg in window for g in leg[0]] + [tuple(leg[1] for leg in window)]

        for k in range(1, 9):
            for pi in enumerate_nc(k):
                legs = [([], x) for x in range(1, k + 1)]
                got = nested_eval(pi, block_value, legs, multiply=absorb)
                assert got == sorted(pi.blocks, key=lambda b: b[-1])


class TestCumulantsToMoments:
    def test_semicircular_even_moments_are_catalan(self):
        spec = semicircular()
        assert cumulants_to_moments(spec, ("c",) * 2) == 1
        assert cumulants_to_moments(spec, ("c",) * 4) == 2
        assert cumulants_to_moments(spec, ("c",) * 6) == 5
        assert cumulants_to_moments(spec, ("c",) * 8) == 14

    def test_semicircular_odd_moments_vanish(self):
        spec = semicircular()
        for k in (1, 3, 5, 7):
            assert cumulants_to_moments(spec, ("c",) * k) == 0

    def test_free_poisson_moments_are_catalan(self):
        spec = free_poisson()
        assert [cumulants_to_moments(spec, ("c",) * k) for k in range(1, 7)] == [
            1, 2, 5, 14, 42, 132,
        ]

    def test_degree_overflow(self):
        with pytest.raises(BoundError):
            cumulants_to_moments(semicircular(k_max=3), ("c",) * 4)


class TestMomentsToCumulants:
    def test_k1_is_expectation(self):
        mf = MomentFunctional(("a",), 2, {("a",): Fraction(3, 7), ("a", "a"): Fraction(2)})
        assert moments_to_cumulants(mf, SetPartition.full(1), ("a",)) == Fraction(3, 7)

    def test_k2_variance_formula(self):
        mf = MomentFunctional(
            ("a", "b"),
            2,
            {
                ("a",): Fraction(1, 2),
                ("b",): Fraction(1, 3),
                ("a", "b"): Fraction(2, 5),
                ("b", "a"): Fraction(1, 5),
                ("a", "a"): Fraction(1),
                ("b", "b"): Fraction(1),
            },
        )
        k2 = moments_to_cumulants(mf, SetPartition.full(2), ("a", "b"))
        assert k2 == Fraction(2, 5) - Fraction(1, 2) * Fraction(1, 3)

    def test_round_trip_cumulants_to_moments_and_back(self):
        rng = random.Random(17)
        for _ in range(25):
            spec = random_spec(rng, k_max=4)
            mf = functional_from_spec(spec, 4)
            for k in range(1, 5):
                for word in [
                    tuple(rng.choice(spec.alphabet) for _ in range(k)) for _ in range(3)
                ]:
                    got = moments_to_cumulants(mf, SetPartition.full(k), word)
                    assert got == spec.value(word)

    def test_round_trip_other_direction(self):
        rng = random.Random(99)
        alphabet = ("a", "b")
        moments = {}
        for k in range(1, 5):
            for word in itertools.product(alphabet, repeat=k):
                moments[word] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        mf = MomentFunctional(alphabet, 4, moments)
        values = {}
        for k in range(1, 5):
            for word in itertools.product(alphabet, repeat=k):
                values[word] = moments_to_cumulants(mf, SetPartition.full(k), word)
        spec = CumulantSpec(alphabet, 4, values)
        for word in moments:
            assert cumulants_to_moments(spec, word) == moments[word]

    def test_partial_pi_factorizes_over_blocks(self):
        rng = random.Random(5)
        spec = random_spec(rng, k_max=4)
        mf = functional_from_spec(spec, 4)
        pi = P("1,4|2,3")
        word = ("a", "b", "b", "a")
        got = moments_to_cumulants(mf, pi, word)
        assert got == spec.value(("a", "a")) * spec.value(("b", "b"))

    def test_crossing_rejected(self):
        mf = MomentFunctional(("a",), 4, {})
        with pytest.raises(DomainError):
            moments_to_cumulants(mf, P("1,3|2,4"), ("a",) * 4)

    def test_refuses_partitions_outside_nc_k(self):
        # every word is defined, so only the NC(k) lookup can refuse the
        # crossing pi; a pi of another ground size fails the length check
        mf = functional_from_spec(random_spec(random.Random(6), k_max=4), 4)
        word = ("a", "b", "a", "b")
        with pytest.raises(DomainError, match=r"not in NC\(4\)"):
            moments_to_cumulants(mf, P("1,3|2,4"), word)
        with pytest.raises(DimensionError):
            moments_to_cumulants(mf, P("1,2|3"), word)


class TestFreeIidMoment:
    def test_constant_labels_match_unrestricted_sum(self):
        rng = random.Random(3)
        spec = random_spec(rng, k_max=4)
        for k in range(1, 5):
            word = tuple(rng.choice(spec.alphabet) for _ in range(k))
            assert free_iid_moment(spec, word, (1,) * k) == cumulants_to_moments(
                spec, word
            )

    def test_alternating_semicircular_vanishes(self):
        # oracle-computed: no admissible non-crossing pairing survives
        spec = semicircular()
        assert free_iid_moment(spec, ("c",) * 4, (1, 2, 1, 2)) == 0

    def test_centered_alternating_pair_vanishes(self):
        spec = CumulantSpec(("c",), 4, {("c", "c"): Fraction(5, 3)})
        assert free_iid_moment(spec, ("c", "c"), (1, 2)) == 0

    def test_distinct_labels_centered_vanish(self):
        rng = random.Random(11)
        spec = random_spec(rng, k_max=4)
        centered = CumulantSpec(
            spec.alphabet,
            spec.k_max,
            {w: v for w, v in spec.values.items() if len(w) > 1},
        )
        for k in (2, 3, 4):
            word = tuple(rng.choice(spec.alphabet) for _ in range(k))
            assert free_iid_moment(centered, word, tuple(range(k))) == 0

    def test_matches_blockwise_product_oracle(self):
        rng = random.Random(42)
        spec = random_spec(rng, k_max=5)
        from qperm.partitions import enumerate_nc as enum_nc, kernel, leq

        raw = {(len(w), w): v for w, v in spec.values.items()}
        for _ in range(40):
            k = rng.randint(1, 5)
            letters = tuple(rng.choice(spec.alphabet) for _ in range(k))
            labels = tuple(rng.randint(1, 3) for _ in range(k))
            expected = nc_moment_sum(raw, letters, labels, enum_nc, leq, kernel)
            assert free_iid_moment(spec, letters, labels) == expected

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            free_iid_moment(semicircular(), ("c", "c"), (1,))


class TestFreenessCheck:
    def test_free_by_construction_passes(self):
        rng = random.Random(7)
        base = random_spec(rng, k_max=4, alphabet=("c",))
        n = 3
        moments = {}
        for k in range(1, 5):
            for labels in itertools.product(range(1, n + 1), repeat=k):
                moments[labels] = free_iid_moment(base, ("c",) * k, labels)
        mf = MomentFunctional(tuple(range(1, n + 1)), 4, moments)
        verdict = freeness_check(mf, {i: i for i in range(1, n + 1)})
        assert verdict.free
        assert verdict.violations == ()

    def test_tensor_bernoulli_pair_detected(self):
        # independent +-1 coin flips commute: phi(word) = 1 iff each letter
        # shows up an even number of times
        moments = {}
        for k in range(1, 5):
            for word in itertools.product(("a", "b"), repeat=k):
                even = all(word.count(s) % 2 == 0 for s in set(word))
                moments[word] = Fraction(1) if even else Fraction(0)
        mf = MomentFunctional(("a", "b"), 4, moments)
        assert mf.value(("a", "b", "a", "b")) == 1
        verdict = freeness_check(mf, {"a": 1, "b": 2})
        assert not verdict.free
        full = SetPartition.full(4)
        hits = [v for v in verdict.violations if v[0] == full and v[1] == ("a", "b", "a", "b")]
        assert hits and hits[0][2] == 1

    def test_negative_tolerance_rejected(self):
        mf = MomentFunctional(("a", "b"), 1, {("a",): Fraction(0), ("b",): Fraction(0)})
        with pytest.raises(DomainError, match="tolerance"):
            freeness_check(mf, {"a": 1, "b": 2}, tolerance=Fraction(-1, 100))

    @pytest.mark.parametrize("degree", [0, -1, 3])
    def test_degree_outside_one_to_kmax_rejected(self, degree):
        # no mixed word of length 1..degree to check: no verdict
        mf = MomentFunctional(("a", "b"), 2, {("a", "b"): Fraction(1), ("b", "a"): Fraction(1)})
        with pytest.raises(BoundError, match="max_degree"):
            freeness_check(mf, {"a": 1, "b": 2}, max_degree=degree)

    def test_family_for_a_letter_outside_the_alphabet_rejected(self):
        # one letter checked against nothing would pass as free
        mf = MomentFunctional(("a",), 2, {("a",): Fraction(0), ("a", "a"): Fraction(1)})
        with pytest.raises(DomainError, match=r"\['b'\], which are not in the alphabet"):
            freeness_check(mf, {"a": 1, "b": 2})

    def test_single_letter_family_always_free(self):
        rng = random.Random(1)
        moments = {}
        for k in range(1, 5):
            moments[("a",) * k] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        mf = MomentFunctional(("a",), 4, moments)
        verdict = freeness_check(mf, {"a": 1})
        assert verdict.free


class TestScalarBlockProducts:
    """The scalar sums against a brute-force sum over P(k), with crossing
    partitions dropped by the definition of a crossing."""

    @staticmethod
    def values_with_zeros(rng, k_max, alphabet=("a", "b")):
        values = {}
        for s in range(1, k_max + 1):
            for word in itertools.product(alphabet, repeat=s):
                # about half of the values are 0, the others as often negative as positive
                values[word] = Fraction(rng.randint(-4, 4) * rng.randint(0, 1), rng.randint(1, 5))
        return values

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_moments_match_brute_force_over_p_k(self, k):
        rng = random.Random(400 + k)
        partitions = sorted(partitions_by_function_kernels(k))
        for _ in range(4):
            values = self.values_with_zeros(rng, k)
            spec = CumulantSpec(("a", "b"), k, values)
            letters = tuple(rng.choice("ab") for _ in range(k))
            labels = tuple(rng.randint(1, 3) for _ in range(k))
            assert cumulants_to_moments(spec, letters) == nc_block_sum(
                values, letters, partitions, crosses_by_definition
            )
            assert free_iid_moment(spec, letters, labels) == nc_block_sum(
                values, letters, partitions, crosses_by_definition, labels
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_block_sum_of_one_partition_is_the_block_product(self, k):
        rng = random.Random(500 + k)
        moments = self.values_with_zeros(rng, k)
        mf = MomentFunctional(("a", "b"), k, moments)
        word = tuple(rng.choice("ab") for _ in range(k))
        for blocks in partitions_by_function_kernels(k):
            if not crosses_by_definition(blocks):
                expected = nc_block_sum(moments, word, [blocks], crosses_by_definition)
                position = _nc_index(k, SetPartition(blocks))
                assert _block_sum(mf.value, word, (position,)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_one_call_over_nc_k_reads_each_distinct_block_once(self, k):
        # every non-empty subset of positions is a block of some partition in
        # NC(k), so NC(k) has 2^k - 1 distinct blocks
        reads = []

        def value(word):
            reads.append(word)
            return Fraction(len(word), 3)

        word = tuple(range(k))
        _block_products(value, word, _nc_below(SetPartition.full(k)))
        assert len(reads) == 2**k - 1
        assert len(set(reads)) == 2**k - 1

    def test_missing_word_raises_after_a_zero_block(self):
        # ("b",) is undefined; the block before it has moment 0
        mf = MomentFunctional(("a", "b"), 3, {("a",): Fraction(0), ("a", "a"): Fraction(0)})
        with pytest.raises(DomainError):
            moments_to_cumulants(mf, P("1|2"), ("a", "b"))
        with pytest.raises(DomainError):
            moments_to_cumulants(mf, P("1,3|2"), ("a", "b", "a"))
        with pytest.raises(DomainError):
            moments_to_cumulants(mf, SetPartition.full(2), ("a", "b"))
        with pytest.raises(DomainError):
            freeness_check(mf, {"a": 1, "b": 2})


@cache
def primes_above(start, count):
    """The first `count` primes above `start`, by trial division."""
    primes = []
    n = start
    while len(primes) < count:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
    return primes


VALUE_KINDS = ("zeros", "integers", "coprime", "float", "complex")


def scalar_values(rng, kind, k_max, alphabet=("a", "b")):
    """One value for each word of length 1..k_max: rationals with zeros and
    negative values, Python ints, rationals over pairwise coprime (distinct
    prime) denominators near 10^6, floats, or complex numbers."""
    words = [w for s in range(1, k_max + 1) for w in itertools.product(alphabet, repeat=s)]
    dens = primes_above(10**6, len(words))
    make = {
        "zeros": lambda i: Fraction(rng.randint(-4, 4) * rng.randint(0, 1), rng.randint(1, 5)),
        "integers": lambda i: rng.randint(-5, 5),
        "coprime": lambda i: Fraction(rng.randint(-(10**6), 10**6), dens[i]),
        "float": lambda i: rng.uniform(-2, 2),
        "complex": lambda i: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    }[kind]
    return {w: make(i) for i, w in enumerate(words)}


def mobius_pairs(pi):
    """(sigma, mu(sigma, pi)) for the sigma <= pi of NC(k), in enumeration order."""
    return [(s, mobius_nc(s, pi)) for s in enumerate_nc(pi.ground_size) if leq(s, pi)]


class TestIntegerRoute:
    """The integer sums over one common denominator against the oracles that
    multiply and add the values one at a time in their own arithmetic
    (Fractions for rationals); float and complex values must agree with ==."""

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_spec_sums_match_the_block_product_oracle(self, kind):
        rng = random.Random(f"spec:{kind}")
        spec = CumulantSpec(("a", "b"), 7, scalar_values(rng, kind, 7))
        for k in range(1, 8):
            for _ in range(3):
                letters = tuple(rng.choice("ab") for _ in range(k))
                labels = tuple(rng.randint(1, 3) for _ in range(k))
                below = [pi for pi in enumerate_nc(k) if leq(pi, kernel(labels))]
                expected = block_product_sum(spec, letters, enumerate_nc(k))
                assert cumulants_to_moments(spec, letters) == expected
                expected = block_product_sum(spec, letters, below)
                assert free_iid_moment(spec, letters, labels) == expected

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_functional_sums_match_the_oracles(self, kind):
        rng = random.Random(f"functional:{kind}")
        mf = MomentFunctional(("a", "b"), 7, scalar_values(rng, kind, 7))
        for k in range(1, 8):
            word = tuple(rng.choice("ab") for _ in range(k))
            nc = enumerate_nc(k)
            for pi in rng.sample(nc, min(5, len(nc))) + [SetPartition.full(k)]:
                got = _block_sum(mf.value, word, (_nc_index(k, pi),))
                assert got == block_product(mf, pi, word)
                expected = mobius_inversion(
                    pi, lambda sigma: block_product(mf, sigma, word), mobius_pairs
                )
                assert moments_to_cumulants(mf, pi, word) == expected

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_freeness_violations_match_the_oracle(self, kind):
        # every word of length <= 5 (62 words); through the Fraction oracle,
        # length 7 (254 words) would take minutes
        rng = random.Random(f"freeness:{kind}")
        mf = MomentFunctional(("a", "b"), 5, scalar_values(rng, kind, 5))
        families = {"a": 1, "b": 2}
        expected = []
        for k in range(1, 6):
            for word in itertools.product("ab", repeat=k):
                ker = kernel(tuple(families[s] for s in word))
                nested = cache(lambda sigma, word=word: block_product(mf, sigma, word))
                for pi in enumerate_nc(k):
                    if not leq(pi, ker):
                        value = mobius_inversion(pi, nested, mobius_pairs)
                        if abs(value) > 0:
                            expected.append((pi, word, value))
        assert freeness_check(mf, families).violations == tuple(expected)


class TestMatrixLayer:
    def test_matrix_semicircular_matches_scalar_diagonally(self):
        d = 3
        spec = CumulantSpec(
            alphabet=("c",),
            k_max=8,
            values={("c", "c"): np.eye(d, dtype=complex)},
        )
        for p, catalan in [(1, 1), (2, 2), (3, 5), (4, 14)]:
            got = cumulants_to_moments(spec, ("c",) * (2 * p))
            assert np.allclose(got, catalan * np.eye(d), atol=1e-12)
        assert np.allclose(cumulants_to_moments(spec, ("c",) * 3), np.zeros((d, d)))

    def test_matrix_free_iid_alternating_vanishes(self):
        spec = CumulantSpec(
            alphabet=("c",),
            k_max=4,
            values={("c", "c"): np.eye(2, dtype=complex)},
        )
        got = free_iid_moment(spec, ("c",) * 4, (1, 2, 1, 2))
        assert np.allclose(got, np.zeros((2, 2)))

    def test_matrix_spec_word_without_matrix_values_is_scalar_times_identity(self):
        spec = CumulantSpec(
            ("c", "d"), 4, {("c", "c"): np.eye(2, dtype=complex), ("d",): Fraction(1, 2)}
        )
        for got, want in [
            (cumulants_to_moments(spec, ("d",)), 0.5),
            (cumulants_to_moments(spec, ("c",)), 0),
            (free_iid_moment(spec, ("d", "d"), (1, 2)), 0.25),
        ]:
            assert isinstance(got, np.ndarray)
            assert got.dtype == complex and got.shape == (2, 2)
            assert np.array_equal(got, want * np.eye(2))

    def test_moments_to_cumulants_refuses_matrix_moments(self):
        # Moebius inversion over block products does not invert the matrix
        # moment sum: the round trip breaks from k = 2 (elementwise products)
        # or k = 4 (ordered products)
        eye = np.eye(2, dtype=complex)
        mf = MomentFunctional(("a",), 2, {("a",): eye, ("a", "a"): 2 * eye})
        with pytest.raises(DomainError):
            moments_to_cumulants(mf, SetPartition.full(2), ("a", "a"))

    def test_freeness_check_refuses_matrix_moments(self):
        words = [w for s in (1, 2) for w in itertools.product("ab", repeat=s)]
        mf = MomentFunctional(("a", "b"), 2, {w: np.eye(2, dtype=complex) for w in words})
        with pytest.raises(DomainError):
            freeness_check(mf, {"a": 1, "b": 2})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_coefficient_legs_match_two_coefficient_oracle(self, seed):
        # the library's product of block values by last position is the
        # collapse that keeps each leg's two coefficients apart
        rng = np.random.default_rng(seed)
        d, letters = 3, ("a", "b")
        values = {
            word: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for s in range(1, 7)
            for word in itertools.product(letters, repeat=s)
        }
        spec = CumulantSpec(alphabet=letters, k_max=6, values=values)
        want = two_coefficient_leg_evaluator(spec, d)
        words = random.Random(seed)
        for k in range(1, 7):
            for _ in range(3):
                word = tuple(words.choice(letters) for _ in range(k))
                for pi in enumerate_nc(k):
                    expected = want(pi, word)
                    scale = np.max(np.abs(expected))
                    got = _block_sum(spec.value, word, (_nc_index(k, pi),))
                    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


class TestSerialization:
    def test_moment_functional_round_trip(self):
        mf = MomentFunctional(
            ("a", "b"),
            2,
            {("a",): Fraction(1, 3), ("b", "a"): Fraction(-2, 7)},
        )
        again = MomentFunctional.from_json_dict(mf.to_json_dict())
        assert again.moments == mf.moments
        assert again.k_max == 2

    def test_cumulant_spec_round_trip(self):
        spec = CumulantSpec(("c",), 3, {("c", "c"): Fraction(1), ("c",): Fraction(-1, 2)})
        again = CumulantSpec.from_json_dict(spec.to_json_dict())
        assert again.values == spec.values

    def test_cumulant_spec_is_read_only(self):
        values = {("c", "c"): Fraction(1)}
        spec = CumulantSpec(("c",), 3, values)
        values[("c",)] = Fraction(5)  # the spec holds its own copy
        assert spec.value(("c",)) == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k_max = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.values = {}
        with pytest.raises(TypeError):
            spec.values[("c",)] = Fraction(5)
        assert spec.matrix_dim() is None
        matrix = CumulantSpec(("c",), 2, {("c",): 1, ("c", "c"): np.eye(3, dtype=complex)})
        assert matrix.matrix_dim() == 3

    def test_state_like_check(self):
        # ("a","a")* is ("a*","a*"): those two must carry conjugate values
        mf = MomentFunctional(
            ("a", "a*"),
            2,
            {
                ("a", "a"): Fraction(1, 2),
                ("a*", "a*"): Fraction(1, 2),
                ("a",): Fraction(0),
                ("a*",): Fraction(0),
            },
        )
        involution = {"a": "a*", "a*": "a"}
        assert state_like_violations(mf, involution) == []
        mf.moments[("a*", "a*")] = Fraction(1, 3)
        assert state_like_violations(mf, involution)

    def test_matrix_spec_refuses_json(self):
        spec = CumulantSpec(("c",), 2, {("c", "c"): np.eye(2, dtype=complex)})
        with pytest.raises(DomainError):
            spec.to_json_dict()

    def test_undefined_moment_raises(self):
        mf = MomentFunctional(("a",), 3, {("a",): Fraction(1)})
        with pytest.raises(DomainError):
            mf.value(("a", "a"))
        with pytest.raises(BoundError):
            mf.value(("a",) * 4)
        assert mf.value(()) == 1
