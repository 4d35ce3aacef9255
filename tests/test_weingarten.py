import functools
import importlib
import itertools
import logging
import math
import random
import re
from fractions import Fraction

import pytest

from qperm.errors import BoundError, DomainError, InvariantViolation, SingularGramError
from qperm.partitions import (
    SetPartition,
    enumerate_nc,
    enumerate_partitions,
    join,
    kernel,
    leq,
    mobius_nc,
    mobius_nc_chain_count,
)
from qperm.weingarten import (
    _PRIMES,
    _haar_average_over_sn,
    _haar_weingarten_by_kernels,
    _join_exponents,
    _weingarten_pair,
    check_inverse,
    dk_value,
    gram,
    haar_moment,
    rational_str,
    weingarten,
    weingarten_asymptotics,
)

from _oracles import (
    adjugate_by_bareiss,
    asymptotics_by_fraction_table,
    dk_by_fraction_table,
    gauss_jordan_inverse,
    haar_by_fraction_table,
    join_by_union_find,
    leq_by_block_lookup,
)

ZERO2 = SetPartition.singletons(2)
ONE2 = SetPartition.full(2)

# the package exports a function named weingarten, which hides the module
MODULE = importlib.import_module("qperm.weingarten")


@functools.lru_cache(maxsize=None)
def bareiss(k, n):
    """(adj G_kn, det G_kn) by the fraction-free elimination oracle, or None
    when G_kn is singular."""
    try:
        return adjugate_by_bareiss(gram(k, n).entries)
    except ZeroDivisionError:
        return None


def lowest_terms(adj, det):
    common = math.gcd(det, *itertools.chain.from_iterable(adj))
    return tuple(tuple(x // common for x in row) for row in adj), det // common


def meander_det(k, n):
    """det G_kn from Di Francesco's meander determinant at delta = sqrt n:
    n^{Cat(k)/2} prod_{m=1..k} U_m(sqrt n)^{a_{k,m}}, with
    a_{k,m} = C(2k,k-m) - 2C(2k,k-m-1) + C(2k,k-m-2) and the Chebyshev
    polynomials U_0 = 1, U_1 = x, U_{m+1} = x U_m - U_{m-1}.  Evaluated in
    Z[sqrt n] as pairs (a, b) = a + b sqrt n; no elimination is involved."""

    def times(u, v):
        return (u[0] * v[0] + u[1] * v[1] * n, u[0] * v[1] + u[1] * v[0])

    def comb(r):
        return math.comb(2 * k, r) if r >= 0 else 0

    cat = math.comb(2 * k, k) // (k + 1)
    value = (n ** (cat // 2), 0) if cat % 2 == 0 else (0, n ** (cat // 2))
    u_prev, u = (1, 0), (0, 1)
    for m in range(1, k + 1):
        exponent = comb(k - m) - 2 * comb(k - m - 1) + comb(k - m - 2)
        assert exponent >= 0
        for _ in range(exponent):
            value = times(value, u)
        u_prev, u = u, (u[1] * n - u_prev[0], u[0] - u_prev[1])
    assert value[1] == 0
    return value[0]


class TestGram:
    def test_k1(self):
        for n in (1, 4, 9):
            t = gram(1, n)
            assert t.entries == ((n,),)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_k2(self, n):
        t = gram(2, n)
        assert t.index == (ZERO2, ONE2)
        assert t.entries == ((n * n, n), (n, n))

    def test_k3_diagonal_n4(self):
        t = gram(3, 4)
        assert [t.entries[i][i] for i in range(5)] == [64, 16, 16, 16, 4]

    def test_symmetry_and_diagonal(self):
        for k, n in [(3, 5), (4, 6)]:
            t = gram(k, n)
            size = len(t.index)
            for a in range(size):
                assert t.entries[a][a] == n ** t.index[a].block_count()
                for b in range(size):
                    assert t.entries[a][b] == t.entries[b][a]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_factors_over_all_partitions(self, k):
        # n^{|p v q|} counts maps by kernel: the sum over tau >= p, q in P(k)
        # of (n)_{|tau|}, so G = A^T D A, built here without any join
        nc = enumerate_nc(k)
        rows = [
            (tau.block_count(), [a for a, p in enumerate(nc) if leq(p, tau)])
            for tau in enumerate_partitions(k)
        ]
        for n in range(1, 9):
            g = [[0] * len(nc) for _ in nc]
            for blocks, below in rows:
                factor = math.perm(n, blocks)
                for a in below:
                    for b in below:
                        g[a][b] += factor
            assert tuple(map(tuple, g)) == gram(k, n).entries

    def test_bounds(self):
        with pytest.raises(BoundError):
            gram(0, 4)
        with pytest.raises(BoundError):
            gram(2, 0)


class TestWeingarten:
    def test_k1(self):
        assert weingarten(1, 7).entries == ((Fraction(1, 7),),)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 11])
    def test_k2_closed_form(self, n):
        t = weingarten(2, n)
        c = Fraction(1, n * (n - 1))
        assert t.entry(ZERO2, ZERO2) == c
        assert t.entry(ZERO2, ONE2) == -c
        assert t.entry(ONE2, ZERO2) == -c
        assert t.entry(ONE2, ONE2) == Fraction(1, n - 1)

    def test_k2_n5_value(self):
        assert weingarten(2, 5).entry(ONE2, ONE2) == Fraction(1, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_inverse_identity(self, k, n):
        assert check_inverse(k, n)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 4), (4, 9), (5, 6)])
    def test_matches_plain_gauss_jordan_oracle(self, k, n):
        expected = gauss_jordan_inverse([list(r) for r in gram(k, n).entries])
        got = weingarten(k, n).entries
        assert [list(r) for r in got] == expected

    def test_symmetric(self):
        t = weingarten(4, 6)
        size = len(t.index)
        for a in range(size):
            for b in range(size):
                assert t.entries[a][b] == t.entries[b][a]

    def test_diagonal_sign_positive(self):
        for k in (1, 2, 3, 4):
            for n in (4, 6, 9):
                t = weingarten(k, n)
                for a in range(len(t.index)):
                    assert t.entries[a][a] > 0

    def test_singular_cases_report_parameters(self):
        with pytest.raises(SingularGramError) as err:
            weingarten(2, 1)
        assert (err.value.k, err.value.n) == (2, 1)
        with pytest.raises(SingularGramError):
            weingarten(3, 2)
        with pytest.raises(SingularGramError):
            weingarten(5, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_det_matches_meander_closed_form(self, k):
        # the oracle's det is the closed form, and the library's D divides it
        # with a cofactor that divides every entry of the oracle's adjugate
        for n in range(1, 9):
            det = meander_det(k, n)
            if det == 0:
                assert bareiss(k, n) is None
                with pytest.raises(SingularGramError):
                    _weingarten_pair(k, n)
            else:
                adj, oracle_det = bareiss(k, n)
                assert oracle_det == det
                den = _weingarten_pair(k, n)[1]
                cofactor = det // den
                assert den * cofactor == det
                assert all(x % cofactor == 0 for row in adj for x in row)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_singular_pattern(self, k):
        for n in range(1, 5):
            if (n == 1 and k >= 2) or (n == 2 and k >= 3) or (n == 3 and k >= 5):
                with pytest.raises(SingularGramError):
                    check_inverse(k, n)
            else:
                assert check_inverse(k, n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_elimination_finds_the_singular_cells(self, k):
        # _weingarten_pair refuses the singular cells before any modular work;
        # the elimination oracle on its own must find the same cells by a zero
        # pivot, and every other pair must be its (adj, det) in lowest terms
        for n in range(1, 13):
            singular = (n == 1 and k >= 2) or (n == 2 and k >= 3) or (n == 3 and k >= 5)
            if singular:
                assert bareiss(k, n) is None
                with pytest.raises(SingularGramError):
                    _weingarten_pair(k, n)
            else:
                nums, den = _weingarten_pair(k, n)
                assert den > 0
                assert math.gcd(den, *itertools.chain.from_iterable(nums)) == 1
                assert (nums, den) == lowest_terms(*bareiss(k, n))

    def test_singular_cells_are_refused_before_elimination(self, monkeypatch):
        def no_inverse(*args):
            raise AssertionError("inverted a singular cell")

        monkeypatch.setattr(MODULE, "_padic_inverse", no_inverse)
        for k, n in [(2, 1), (8, 1), (3, 2), (8, 2), (5, 3), (8, 3)]:
            with pytest.raises(SingularGramError):
                _weingarten_pair.__wrapped__(k, n)

    def test_k8_is_refused_before_elimination(self, monkeypatch):
        def no_inverse(*args):
            raise AssertionError("started the k = 8 inverse")

        monkeypatch.setattr(MODULE, "_padic_inverse", no_inverse)
        for n in (4, 5, 12):
            with pytest.raises(BoundError, match="k <= 7"):
                _weingarten_pair.__wrapped__(8, n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_join_exponents_match_join(self, k):
        nc = enumerate_nc(k)
        assert _join_exponents(k) == tuple(
            tuple(join(p, q).block_count() for q in nc) for p in nc
        )

    def test_elimination_logs_one_debug_record(self, caplog):
        logger = logging.getLogger("qperm.weingarten")
        assert not logger.isEnabledFor(logging.DEBUG)
        _join_exponents(3)  # built first: the join table has its own record
        with caplog.at_level(logging.DEBUG, logger="qperm.weingarten"):
            _, den = _weingarten_pair.__wrapped__(3, 5)
        messages = [r.getMessage() for r in caplog.records if r.name == "qperm.weingarten"]
        assert len(messages) == 1
        assert re.fullmatch(
            rf"inverse k=3 n=5 N=5 prime={_PRIMES[0]} lifts=\d+ "
            rf"den_bits={den.bit_length()} seconds=\d+\.\d{{4}}",
            messages[0],
        )

    def test_join_exponents_log_one_debug_record(self, caplog):
        logger = logging.getLogger("qperm.weingarten")
        assert not logger.isEnabledFor(logging.DEBUG)
        with caplog.at_level(logging.DEBUG, logger="qperm.weingarten"):
            _join_exponents.__wrapped__(4)
        records = [r for r in caplog.records if r.name == "qperm.weingarten"]
        assert len(records) == 1
        assert records[0].getMessage().startswith("join exponents k=4 N=14 seconds=")

    def test_certificate_logs_one_debug_record(self, caplog):
        _weingarten_pair(4, 3)  # built first: the build has its own record
        with caplog.at_level(logging.DEBUG, logger="qperm.weingarten"):
            assert check_inverse(4, 3)
        records = [r for r in caplog.records if r.name == "qperm.weingarten"]
        assert len(records) == 1
        # P(4) has 15 partitions; (3)_4 = 0 drops 1|2|3|4
        assert records[0].getMessage().startswith("certificate k=4 n=3 N=14 rows=14 seconds=")

    def test_json_dict_round_trips(self):
        t = weingarten(2, 4)
        d = t.to_json_dict()
        assert d["index"] == ["1|2", "1,2"]
        assert d["matrix"] == [["1/12", "-1/12"], ["-1/12", "1/3"]]
        assert Fraction(d["matrix"][1][1]) == Fraction(1, 3)

    def test_rational_str(self):
        assert rational_str(Fraction(-3, 9)) == "-1/3"
        assert rational_str(5) == "5/1"


class TestPadicInverse:
    """Edge paths of the p-adic inverse, each checked against the elimination
    oracle."""

    def test_falls_back_to_the_next_prime(self, monkeypatch, caplog):
        adj, det = bareiss(2, 4)
        assert det == 48
        residues = [[x % 3 for x in row] for row in gram(2, 4).entries]
        assert MODULE._gauss_jordan_mod(residues, 3) is None
        monkeypatch.setattr(MODULE, "_PRIMES", (3,) + _PRIMES)
        with caplog.at_level(logging.DEBUG, logger="qperm.weingarten"):
            pair = _weingarten_pair.__wrapped__(2, 4)
        assert pair == lowest_terms(adj, det)
        messages = [r.getMessage() for r in caplog.records if r.name == "qperm.weingarten"]
        assert any(m.startswith(f"inverse k=2 n=4 N=2 prime={_PRIMES[0]} ") for m in messages)

    def test_refuses_when_every_prime_divides_det(self, monkeypatch):
        monkeypatch.setattr(MODULE, "_PRIMES", (2, 3))  # det G_24 = 48
        with pytest.raises(BoundError, match="divides det"):
            _weingarten_pair.__wrapped__(2, 4)

    @pytest.mark.parametrize("k,n", [(6, 18), (3, 2**14), (4, 2**20)])
    def test_lift_in_python_integers(self, k, n):
        # N max G 2^21 passes 2^53 from (6, 18) on, so the lift leaves float64
        # for Python integers; the entries themselves pass 2^63 at (4, 2^20)
        rows = gram(k, n).entries
        assert len(rows) * n**k * 2**21 >= 2**53
        pair = _weingarten_pair.__wrapped__(k, n)
        assert pair == lowest_terms(*adjugate_by_bareiss(rows))

    @pytest.mark.parametrize("delta", [1, -1])
    def test_tampered_reconstruction_is_never_returned(self, monkeypatch, delta):
        real = MODULE._reconstruct
        tampered = []

        def tamper_first(approx, modulus):
            found = real(approx, modulus)
            if found is None or tampered:
                return found
            nums, den = found
            tampered.append(den)
            nums = nums.copy()
            nums[0] += delta
            return nums, den

        monkeypatch.setattr(MODULE, "_reconstruct", tamper_first)
        assert _weingarten_pair.__wrapped__(4, 5) == lowest_terms(*bareiss(4, 5))
        assert tampered

        def tamper_every(approx, modulus):
            found = real(approx, modulus)
            if found is None:
                return found
            nums, den = found
            nums = nums.copy()
            nums[0] += delta
            return nums, den

        monkeypatch.setattr(MODULE, "_reconstruct", tamper_every)
        with pytest.raises(InvariantViolation, match="no exact inverse"):
            _weingarten_pair.__wrapped__(4, 5)


class TestCertificateMutations:
    """check_inverse must reject a wrong numerator matrix A, a wrong D, and a
    wrong join table even when G and the pair were built from it."""

    @pytest.fixture
    def module(self, monkeypatch):
        yield MODULE
        monkeypatch.undo()
        gram.cache_clear()
        _weingarten_pair.cache_clear()

    def test_reads_neither_the_join_table_nor_gram(self, module, monkeypatch):
        _weingarten_pair(4, 5)

        def unused(*args):
            raise AssertionError("the certificate read the table it certifies")

        monkeypatch.setattr(module, "_join_exponents", unused)
        monkeypatch.setattr(module, "gram", unused)
        assert module.check_inverse(4, 5)

    def test_rejects_a_join_table_off_by_one(self, module, monkeypatch):
        good = _join_exponents(4)
        table = [list(row) for row in good]
        last = len(table) - 1
        # 0_4 v 1_4 = 1_4 has one block, not two
        table[0][last] = table[last][0] = 2
        bad = tuple(map(tuple, table))
        monkeypatch.setattr(module, "_join_exponents", lambda k: bad if k == 4 else good)
        for n in (4, 5, 7):
            gram.cache_clear()
            _weingarten_pair.cache_clear()
            assert not check_inverse(4, n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rejects_one_changed_adjugate_entry(self, module, monkeypatch, k):
        rng = random.Random(800 + k)
        for n in (4, 7):
            nums, den = _weingarten_pair(k, n)
            size = len(nums)
            cells = {(0, 0), (size - 1, size - 1)}
            cells.update((rng.randrange(size), rng.randrange(size)) for _ in range(6))
            for a, b in sorted(cells):
                for delta in (1, -1):
                    rows = [list(row) for row in nums]
                    rows[a][b] += delta
                    wrong = (tuple(map(tuple, rows)), den)
                    monkeypatch.setattr(
                        module, "_weingarten_pair", lambda k, n, wrong=wrong: wrong
                    )
                    assert not check_inverse(k, n)
                    monkeypatch.undo()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rejects_an_adjugate_column_with_the_right_diagonal(self, module, monkeypatch, k):
        # adding G[b][c] at (a, b) and -G[b][a] at (c, b) keeps (G A)[b][b]
        # and changes the rest of column b, as columns a and c of G differ
        rng = random.Random(900 + k)
        for n in (4, 7):
            nums, den = _weingarten_pair(k, n)
            g = gram(k, n).entries
            for _ in range(4):
                a, c = rng.sample(range(len(nums)), 2)
                b = rng.randrange(len(nums))
                rows = [list(row) for row in nums]
                rows[a][b] += g[b][c]
                rows[c][b] -= g[b][a]
                wrong = (tuple(map(tuple, rows)), den)
                monkeypatch.setattr(module, "_weingarten_pair", lambda k, n, wrong=wrong: wrong)
                assert not check_inverse(k, n)
                monkeypatch.undo()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rejects_a_changed_det(self, module, monkeypatch, k):
        for n in (4, 7):
            nums, den = _weingarten_pair(k, n)
            for delta in (1, -1):
                wrong = (nums, den + delta)
                monkeypatch.setattr(module, "_weingarten_pair", lambda k, n, wrong=wrong: wrong)
                assert not check_inverse(k, n)
                monkeypatch.undo()


class TestHaarMoment:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_first_moment_is_one_over_n(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert haar_moment(n, (i,), (j,)) == Fraction(1, n)

    def test_column_orthogonality_zero(self):
        assert haar_moment(4, (1, 2), (3, 3)) == 0

    def test_distinct_rows_same_columns(self):
        assert haar_moment(4, (1, 1), (2, 2)) == Fraction(1, 4)

    def test_row_sum_telescopes(self):
        # sum_{i1} psi(u_{i1 j1} u_{i2 j2}) = psi(u_{i2 j2}) for all j1, i2, j2
        for n in (4, 5):
            for j1, i2, j2 in itertools.product(range(1, n + 1), repeat=3):
                total = sum(
                    haar_moment(n, (i1, i2), (j1, j2)) for i1 in range(1, n + 1)
                )
                assert total == haar_moment(n, (i2,), (j2,))

    def test_triple_row_sum_telescopes(self):
        n = 4
        for j1 in (1, 3):
            for i2, j2, i3, j3 in itertools.product((1, 2, 4), repeat=4):
                total = sum(
                    haar_moment(n, (i1, i2, i3), (j1, j2, j3))
                    for i1 in range(1, n + 1)
                )
                assert total == haar_moment(n, (i2, i3), (j2, j3))

    def test_relabeling_invariance(self):
        n = 5
        words = [((1, 2, 1), (3, 3, 4)), ((2, 2), (1, 5)), ((1, 2, 3, 1), (2, 2, 4, 4))]
        for tau in itertools.permutations(range(1, n + 1)):
            relabel = lambda w: tuple(tau[x - 1] for x in w)
            for i, j in words:
                assert haar_moment(n, relabel(i), relabel(j)) == haar_moment(n, i, j)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_small_n_branches_agree_where_invertible(self, n, k):
        for i in itertools.product(range(1, n + 1), repeat=k):
            for j in itertools.product(range(1, n + 1), repeat=k):
                avg = _haar_average_over_sn(n, i, j)
                wg = _haar_weingarten_by_kernels(n, kernel(i), kernel(j))
                assert avg == wg

    def test_small_n_words_on_singular_cells(self):
        # G_kn is singular at n = 1, k >= 2; n = 2, k >= 3; n = 3, k >= 5, and
        # haar_moment still answers there by the S_n average:
        # (n - r)! / n! when kernel i = kernel j has r blocks
        assert haar_moment(1, (1,) * 5, (1,) * 5) == 1
        assert haar_moment(2, (1, 2, 1), (2, 1, 2)) == Fraction(1, 2)
        assert haar_moment(3, (1, 2, 3, 1, 2), (3, 1, 2, 3, 1)) == Fraction(1, 6)
        assert haar_moment(3, (1, 2, 3, 1, 2), (3, 1, 2, 3, 2)) == 0

    def test_small_n_weingarten_branch_can_be_singular(self):
        with pytest.raises(SingularGramError):
            _haar_weingarten_by_kernels(2, kernel((1, 1, 2)), kernel((1, 2, 1)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_adjugate_sums_match_fraction_table_oracle(self, k):
        words = [p.to_word() for p in enumerate_partitions(k)]
        for n in range(4, 9):
            index = gram(k, n).index
            table = gauss_jordan_inverse([list(r) for r in gram(k, n).entries])
            for i in words:
                for j in words:
                    expected = haar_by_fraction_table(table, index, kernel(i), kernel(j), leq)
                    assert haar_moment(n, i, j) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_character_moments_are_catalan(self, k):
        # the character sum_i u_ii of S_n^+ has the free Poisson law for n >= 4,
        # so its k-th moment is Cat(k); each kernel tau has (n)_{|tau|} words
        for n in (4, 5, 6, 9):
            total = sum(
                math.perm(n, tau.block_count()) * haar_moment(n, tau.to_word(), tau.to_word())
                for tau in enumerate_partitions(k)
                if tau.block_count() <= n
            )
            assert total == math.comb(2 * k, k) // (k + 1)

    def test_k7_inverse_and_character_moment(self):
        # N = 429: the certificate holds, and the character moment at n = 5
        # is Cat(7) = 429
        assert check_inverse(7, 5)
        total = sum(
            math.perm(5, tau.block_count()) * haar_moment(5, tau.to_word(), tau.to_word())
            for tau in enumerate_partitions(7)
            if tau.block_count() <= 5
        )
        assert total == 429

    def test_index_out_of_range(self):
        with pytest.raises(BoundError):
            haar_moment(4, (5,), (1,))
        with pytest.raises(BoundError):
            haar_moment(4, (1, 2), (1,))


class TestAsymptotics:
    def test_diagonal_residual_k2(self):
        # W(1_2, 1_2) * n = n/(n-1); residual n*(n/(n-1) - 1) = n/(n-1) <= 2
        report = weingarten_asymptotics(2, range(4, 20), ONE2, ONE2)
        for row in report.rows:
            assert row.scaled == Fraction(row.n, row.n - 1)
        assert report.bounded
        assert report.max_abs <= 2

    def test_comparable_pair_k2(self):
        report = weingarten_asymptotics(2, range(4, 20), ZERO2, ONE2)
        assert report.relation == "mobius_residual"
        for row in report.rows:
            # W(0,1) n^2 = -n/(n-1) and mu = -1: r(n) = n(1 - n/(n-1)) = -n/(n-1)
            assert row.scaled == -Fraction(row.n, row.n - 1)
        assert report.bounded

    def test_incomparable_pair_uses_scaled_entry(self):
        p = SetPartition.from_text("1,2|3")
        q = SetPartition.from_text("1|2,3")
        report = weingarten_asymptotics(3, range(4, 30), p, q)
        assert report.relation == "scaled_entry"
        assert report.bounded

    def test_leading_coefficient_is_mobius_on_diagonal(self):
        for k in (2, 3):
            for p in enumerate_nc(k):
                report = weingarten_asymptotics(k, [200], p, p)
                # W(p,p) * n^{|p|} -> mu(p,p) = 1: residual/n small
                assert abs(report.rows[0].value * Fraction(200) ** p.block_count() - 1) < Fraction(1, 50)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_fraction_table_oracle(self, k):
        # every pair of NC(k), against Gauss-Jordan Fraction tables, the chain
        # count Moebius value and the union-find join
        ns = range(4, 13)
        nc = enumerate_nc(k)
        tables = {n: gauss_jordan_inverse([list(r) for r in gram(k, n).entries]) for n in ns}
        for a, p in enumerate(nc):
            for b, q in enumerate(nc):
                report = weingarten_asymptotics(k, ns, p, q)
                relation, rows, max_abs, bounded = asymptotics_by_fraction_table(
                    lambda n: tables[n][a][b], ns, p, q,
                    mobius_nc_chain_count, join_by_union_find, leq_by_block_lookup,
                )
                assert report.relation == relation
                assert [(r.n, r.value, r.scaled) for r in report.rows] == rows
                assert report.max_abs == max_abs
                assert report.bounded == bounded

    def test_reads_integers_not_the_fraction_table(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the sweep took a parallel route")

        monkeypatch.setattr(importlib.import_module("qperm.weingarten"), "weingarten", unused)
        partitions = importlib.import_module("qperm.partitions")
        for name in ("join", "mobius_nc"):
            monkeypatch.setattr(partitions, name, unused)
        p, q = SetPartition.from_text("1|2|3"), SetPartition.full(3)
        report = weingarten_asymptotics(3, range(4, 9), p, q)
        assert report.relation == "mobius_residual"

    def test_refuses_pairs_outside_nc_k(self):
        crossing = SetPartition.from_text("1,3|2,4")
        for p, q in [(crossing, SetPartition.full(4)), (SetPartition.full(4), crossing)]:
            with pytest.raises(DomainError):
                weingarten_asymptotics(4, range(4, 6), p, q)
        with pytest.raises(DomainError):
            weingarten_asymptotics(4, range(4, 6), SetPartition.full(3), SetPartition.full(3))

    def test_refuses_k9_before_any_enumeration(self, monkeypatch):
        def unused(*args):
            raise AssertionError("enumerated a partition set")

        module = importlib.import_module("qperm.partitions")
        for name in ("_all_partitions", "_all_nc", "_nc_order_data"):
            monkeypatch.setattr(module, name, unused)
        zero9, one9 = SetPartition.singletons(9), SetPartition.full(9)
        with pytest.raises(BoundError):
            weingarten_asymptotics(9, range(4, 6), zero9, one9)
        for mobius in (mobius_nc, mobius_nc_chain_count):
            with pytest.raises(BoundError):
                mobius(zero9, one9)

    def test_refuses_k8_before_the_join_table(self, monkeypatch):
        def unused(*args):
            raise AssertionError("built the k = 8 join table")

        module = importlib.import_module("qperm.weingarten")
        monkeypatch.setattr(module, "_join_exponents", unused)
        zero8, one8 = SetPartition.singletons(8), SetPartition.full(8)
        with pytest.raises(BoundError, match="k <= 7"):
            weingarten_asymptotics(8, range(4, 6), zero8, one8)
        # a singular cell is refused before it too
        with pytest.raises(SingularGramError):
            weingarten_asymptotics(8, range(3, 6), zero8, one8)


class TestDk:
    def test_k1_identically_zero(self):
        report = dk_value(1, range(1, 30))
        assert all(v == 0 for _, v in report.values)
        assert report.max_value == 0

    def test_k2_at_4(self):
        report = dk_value(2, [4])
        assert report.values == ((4, Fraction(16, 3)),)

    def test_k2_closed_form_sweep(self):
        # d_2(n) = n * (4/(n-1)) / n ... from the closed form: each of the four
        # cells contributes |W n^{|p|} - mu| = 1/(n-1); total 4/(n-1), times n.
        report = dk_value(2, range(4, 41))
        for n, v in report.values:
            assert v == Fraction(4 * n, n - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_fraction_table_oracle(self, k):
        report = dk_value(k, range(4, 21))
        for n, value in report.values:
            index = gram(k, n).index
            table = gauss_jordan_inverse([list(r) for r in gram(k, n).entries])
            assert value == dk_by_fraction_table(table, index, n, mobius_nc, leq)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bounded_over_sweep(self, k):
        report = dk_value(k, range(4, 41))
        values = [v for _, v in report.values]
        half = len(values) // 2
        assert max(values[half:]) <= max(values[:half])
