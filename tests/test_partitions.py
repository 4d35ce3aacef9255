import itertools
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qperm
from qperm.errors import BoundError, DimensionError, DomainError
from qperm.partitions import (
    SetPartition,
    _mobius_column,
    _nc_below,
    _nc_order_data,
    enumerate_nc,
    enumerate_partitions,
    is_noncrossing,
    join,
    kernel,
    leq,
    meet,
    mobius_nc,
    mobius_nc_chain_count,
    up_down_interval,
)
from qperm.acceptance import (
    _crosses_by_definition as crosses_by_definition,
    _partitions_by_function_kernels as partitions_by_function_kernels,
)

from _oracles import (
    join_by_union_find,
    kreweras_by_crossing,
    leq_by_block_lookup,
    meet_by_sets,
    noncrossing_certificate,
    partitions_by_all_function_kernels,
    replay_peel,
)

P = SetPartition.from_text


def random_partition_strategy(k):
    return st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(
        lambda labels: kernel(labels)
    )


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition([[3, 1], [4, 2]])
        assert p.blocks == ((1, 3), (2, 4))
        assert p.ground_size == 4
        assert p.block_count() == 2

    def test_equality_and_hash_are_structural(self):
        assert P("2,1|3") == P("1,2|3")
        assert hash(P("2,1|3")) == hash(P("1,2|3"))
        assert P("1,2|3") != P("1|2,3")

    def test_rejects_gap(self):
        with pytest.raises(DomainError):
            SetPartition([[1], [3]])

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            SetPartition.from_text("1,2|2,3")

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            SetPartition([[1, 2], [3, 4]], ground_size=3)

    def test_rejects_ground_zero(self):
        with pytest.raises(BoundError):
            SetPartition([])

    def test_text_round_trip_accepts_any_order(self):
        text = "1,8,9,10|2,7|3,4,5|6"
        assert P(text).to_text() == text
        assert P("6|3,5,4|2,7|10,1,9,8").to_text() == text

    @given(st.integers(1, 6).flatmap(random_partition_strategy))
    def test_parser_round_trips(self, p):
        assert SetPartition.from_text(p.to_text()) == p

    def test_to_word_round_trips_through_kernel(self):
        assert P("1,3|2,4|5").to_word() == (1, 2, 1, 2, 3)
        for p in enumerate_partitions(5):
            assert kernel(p.to_word()) == p


class TestEnumeration:
    def test_k1(self):
        assert enumerate_partitions(1) == [P("1")]

    @pytest.mark.parametrize("k,bell", [(3, 5), (5, 52)])
    def test_counts_against_function_kernel_oracle(self, k, bell):
        parts = enumerate_partitions(k)
        assert len(parts) == bell
        assert {p.blocks for p in parts} == partitions_by_function_kernels(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_function_kernel_oracle_reaches_every_kernel_of_all_maps(self, k):
        # the k! maps with f(x) < x give the same kernels as all k^k maps
        assert partitions_by_function_kernels(k) == partitions_by_all_function_kernels(k)

    def test_nc_k2(self):
        assert enumerate_nc(2) == [P("1|2"), P("1,2")]

    @pytest.mark.parametrize("k,catalan", [(4, 14), (6, 132)])
    def test_nc_counts_against_crossing_oracle(self, k, catalan):
        ncs = enumerate_nc(k)
        assert len(ncs) == catalan
        oracle = {
            b for b in partitions_by_function_kernels(k) if not crosses_by_definition(b)
        }
        assert {p.blocks for p in ncs} == oracle

    @pytest.mark.parametrize("k", range(1, 9))
    def test_nc_walk_is_the_filter_over_all_partitions(self, k):
        # NC(k) comes from its own pruned walk; it must be the non-crossing
        # members of P(k), in the same order
        assert enumerate_nc(k) == [p for p in enumerate_partitions(k) if is_noncrossing(p)]

    def test_canonical_order_is_finer_first(self):
        nc3 = enumerate_nc(3)
        assert nc3[0] == P("1|2|3")
        assert nc3[-1] == P("1,2,3")
        assert [p.block_count() for p in nc3] == [3, 2, 2, 2, 1]

    def test_bound_error(self):
        with pytest.raises(BoundError):
            enumerate_partitions(0)
        with pytest.raises(BoundError):
            enumerate_nc(9)
        # the NC(k) order is never built past K_MAX
        zero9, one9 = SetPartition.singletons(9), SetPartition.full(9)
        with pytest.raises(BoundError):
            mobius_nc(zero9, one9)
        with pytest.raises(BoundError):
            mobius_nc_chain_count(zero9, one9)
        with pytest.raises(BoundError):
            up_down_interval(9, 0, 0)


class TestNonCrossing:
    def test_canonical_crossing_pattern(self):
        assert not is_noncrossing(P("1,3|2,4"))

    def test_deeply_nested_blocks(self):
        assert is_noncrossing(P("1,8,9,10|2,7|3,4,5|6"))

    def test_nested_is_fine(self):
        assert is_noncrossing(P("1,4|2,3|5"))

    def test_certificate_matches_crossing_oracle_on_p6(self):
        for p in enumerate_partitions(6):
            cert = noncrossing_certificate(p)
            assert (cert is not None) == (not crosses_by_definition(p.blocks))
            if cert is not None:
                assert replay_peel(cert)

    def test_certificate_replay(self):
        cert = noncrossing_certificate(P("1,8,9,10|2,7|3,4,5|6"))
        assert replay_peel(cert)
        assert len(cert.peel_order) == 4


class TestLattice:
    def test_join_idempotent(self):
        for p in enumerate_partitions(4):
            assert join(p, p) == p

    def test_join_examples(self):
        assert join(P("1,3|2|4"), P("1|2,4|3")) == P("1,3|2,4")
        assert join(P("1,2|3,4"), P("2,3|1|4")) == P("1,2,3,4")

    def test_join_can_leave_nc(self):
        # both arguments non-crossing, join crosses-free but coarse in P(k)
        a, b = P("1,3|2|4"), P("2,4|1|3")
        assert is_noncrossing(a) and is_noncrossing(b)
        assert join(a, b) == P("1,3|2,4")
        assert not is_noncrossing(join(a, b))

    def test_meet_examples(self):
        top = SetPartition.full(4)
        for p in enumerate_partitions(4):
            assert meet(p, top) == p
        assert meet(P("1,2,3|4"), P("1,2|3,4")) == P("1,2|3|4")
        assert meet(P("1,3|2,4"), P("1,2|3,4")) == P("1|2|3|4")

    def test_leq_examples(self):
        bottom = SetPartition.singletons(5)
        for p in enumerate_partitions(5):
            assert leq(bottom, p)
        assert not leq(P("1,2|3"), P("1,3|2"))
        assert not leq(P("1,3|2"), P("1,2|3"))

    def test_leq_join_meet_consistency_p4(self):
        parts = enumerate_partitions(4)
        for p in parts:
            for q in parts:
                expected = leq(p, q)
                assert (join(p, q) == q) == expected
                assert (meet(p, q) == p) == expected

    def test_commutativity_absorption_p5(self):
        parts = enumerate_partitions(5)
        for p in parts:
            for q in parts:
                assert join(p, q) == join(q, p)
                assert meet(p, q) == meet(q, p)
                assert join(p, meet(p, q)) == p
                assert meet(p, join(p, q)) == p

    def test_associativity_p4_exhaustive(self):
        parts = enumerate_partitions(4)
        for p, q, r in itertools.product(parts, repeat=3):
            assert join(join(p, q), r) == join(p, join(q, r))
            assert meet(meet(p, q), r) == meet(p, meet(q, r))

    @settings(max_examples=200)
    @given(
        st.tuples(
            random_partition_strategy(5),
            random_partition_strategy(5),
            random_partition_strategy(5),
        )
    )
    def test_associativity_p5(self, pqr):
        p, q, r = pqr
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(meet(p, q), r) == meet(p, meet(q, r))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_semimodularity(self, k):
        parts = enumerate_partitions(k)
        for p in parts:
            for q in parts:
                lhs = p.block_count() + q.block_count()
                rhs = join(p, q).block_count() + meet(p, q).block_count()
                assert lhs <= rhs

    def test_join_and_meet_match_oracles_on_p5(self):
        # union-find join and set-intersection meet, on all 2,704 pairs
        parts = enumerate_partitions(5)
        for p in parts:
            for q in parts:
                assert join(p, q).blocks == join_by_union_find(p, q)
                assert meet(p, q).blocks == meet_by_sets(p, q)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            join(P("1,2"), P("1,2|3"))
        with pytest.raises(DimensionError):
            meet(P("1,2"), P("1,2|3"))
        with pytest.raises(DimensionError):
            leq(P("1"), P("1|2"))


class TestKernel:
    def test_constant(self):
        assert kernel((7, 7, 7)) == P("1,2,3")

    def test_examples(self):
        assert kernel((1, 2, 1, 3)) == P("1,3|2|4")
        assert kernel(("a", "b", "b", "a", "c")) == P("1,4|2,3|5")

    def test_empty(self):
        with pytest.raises(BoundError):
            kernel(())

    def test_matches_the_checked_constructor(self):
        # kernel skips the constructor's checks; the checked constructor, fed
        # the letter classes in arbitrary order, must build the same object
        for length in range(1, 7):
            for word in itertools.product("abc", repeat=length):
                groups = [
                    [x for x in range(length, 0, -1) if word[x - 1] == letter]
                    for letter in set(word)
                ]
                want, got = SetPartition(groups), kernel(word)
                assert (got.ground_size, got.blocks, got.pairs) == (
                    want.ground_size, want.blocks, want.pairs
                )
                assert got == want and hash(got) == hash(want)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_leq_kernel_iff_blockwise_constant(self, word):
        ker = kernel(word)
        for p in enumerate_partitions(len(word)):
            expected = all(
                len({word[x - 1] for x in b}) == 1 for b in p.blocks
            )
            assert leq(p, ker) == expected


class TestOrderMasks:
    def test_leq_matches_block_lookup_oracle_on_p5(self):
        ps = enumerate_partitions(5)
        for p in ps:
            for q in ps:
                assert leq(p, q) == leq_by_block_lookup(p, q)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_nc_order_up_masks_match_block_lookup_oracle(self, k):
        nc, pos, up, _ = _nc_order_data(k)
        assert list(nc) == enumerate_nc(k)
        assert all(pos[p] == a for a, p in enumerate(nc))
        for a, p in enumerate(nc):
            expected = sum(1 << b for b, q in enumerate(nc) if leq_by_block_lookup(p, q))
            assert up[a] == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_nc_order_down_masks_are_the_transposed_up_masks(self, k):
        nc, _, up, down = _nc_order_data(k)
        for a in range(len(nc)):
            for b in range(len(nc)):
                assert (down[b] >> a & 1) == (up[a] >> b & 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_nc_order_down_masks_match_nc_below(self, k):
        nc, _, _, down = _nc_order_data(k)
        for b, p in enumerate(nc):
            assert down[b] == sum(1 << a for a in _nc_below(p))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_nc_below_matches_block_lookup_oracle(self, k):
        nc = enumerate_nc(k)
        for ker in enumerate_partitions(k):
            expected = tuple(a for a, p in enumerate(nc) if leq_by_block_lookup(p, ker))
            assert _nc_below(ker) == expected

    def test_nc_below_refuses_k_above_k_max(self):
        with pytest.raises(BoundError):
            _nc_below(SetPartition.singletons(9))

    def test_nc_order_build_logs_one_debug_record(self, caplog):
        logger = logging.getLogger("qperm.partitions")
        assert not logger.isEnabledFor(logging.DEBUG)
        with caplog.at_level(logging.DEBUG, logger="qperm.partitions"):
            _nc_order_data.__wrapped__(4)
        records = [r for r in caplog.records if r.name == "qperm.partitions"]
        assert len(records) == 1
        assert records[0].getMessage().startswith("NC order k=4 N=14 seconds=")

    def test_table_builds_do_not_import_logging(self):
        # with logging never imported no handler can be set, so no record is lost
        code = (
            "import sys, qperm\n"
            "from fractions import Fraction\n"
            "qperm.definetti_gap(qperm.UrnModel(6, [1, Fraction(-1, 2), 0, 0, 0, 0]), (1, 2, 1))\n"
            "mf = qperm.MomentFunctional(('a',), 3, {('a',) * s: Fraction(s) for s in (1, 2, 3)})\n"
            "qperm.moments_to_cumulants(mf, qperm.SetPartition.full(3), ('a',) * 3)\n"
            "assert 'logging' not in sys.modules, 'logging was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qperm.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_mobius_column_build_logs_one_debug_record(self, caplog):
        logger = logging.getLogger("qperm.partitions")
        assert not logger.isEnabledFor(logging.DEBUG)
        _mobius_column(4, 0)  # built first: the NC order has its own record
        with caplog.at_level(logging.DEBUG, logger="qperm.partitions"):
            column = _mobius_column.__wrapped__(4, 2)
        messages = [r.getMessage() for r in caplog.records if r.name == "qperm.partitions"]
        assert len(messages) == 1
        assert re.fullmatch(r"mobius column k=4 b=2 seconds=\d+\.\d{4}", messages[0])
        assert column == _mobius_column(4, 2)


class TestMobius:
    def test_diagonal(self):
        for k in (1, 2, 3, 4):
            for p in enumerate_nc(k):
                assert mobius_nc(p, p) == 1

    def test_zero_off_order(self):
        assert mobius_nc(P("1,2|3"), P("1,3|2")) == 0

    def test_small_values(self):
        assert mobius_nc(SetPartition.singletons(2), SetPartition.full(2)) == -1
        # mu(0_k, 1_k) = (-1)^(k-1) * Catalan(k-1)
        assert mobius_nc(SetPartition.singletons(3), SetPartition.full(3)) == 2
        assert mobius_nc(SetPartition.singletons(4), SetPartition.full(4)) == -5
        assert mobius_nc(SetPartition.singletons(5), SetPartition.full(5)) == 14

    def test_interval_sums_vanish(self):
        # sum_{p <= t <= q} mu(p, t) = 0 for p < q, and the right-hand sum
        # sum_{p <= t <= q} mu(t, q) = 0 that the column recursion uses
        for k in (2, 3, 4):
            ncs = enumerate_nc(k)
            for p in ncs:
                for q in ncs:
                    if p != q and leq(p, q):
                        interval = [t for t in ncs if leq(p, t) and leq(t, q)]
                        assert sum(mobius_nc(p, t) for t in interval) == 0
                        assert sum(mobius_nc(t, q) for t in interval) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_recursion_equals_chain_count(self, k):
        ncs = enumerate_nc(k)
        for p in ncs:
            for q in ncs:
                assert mobius_nc(p, q) == mobius_nc_chain_count(p, q)

    def test_crossing_input_rejected(self):
        crossing, top = P("1,3|2,4"), SetPartition.full(4)
        for mobius in (mobius_nc, mobius_nc_chain_count):
            for p, q in [(crossing, top), (top, crossing), (crossing, crossing)]:
                with pytest.raises(DomainError, match=r"not in NC\(4\)"):
                    mobius(p, q)
            with pytest.raises(DimensionError):
                mobius(SetPartition.full(3), top)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_mobius_to_top_is_kreweras_catalan_product(self, k):
        # mu(sigma, 1_k) = prod over blocks V of the Kreweras complement K(sigma)
        # of (-1)^{|V|-1} Cat(|V|-1) (Nica-Speicher, Lecture 10); K(sigma) comes
        # from the brute-force crossing test, |K(sigma)| = k + 1 - |sigma|
        top = SetPartition.full(k)
        for sigma in enumerate_nc(k):
            comp = kreweras_by_crossing(sigma.blocks, k, crosses_by_definition)
            assert len(comp) == k + 1 - sigma.block_count()
            expected = 1
            for v in comp:
                expected *= (-1) ** (len(v) - 1) * math.comb(2 * len(v) - 2, len(v) - 1) // len(v)
            assert mobius_nc(sigma, top) == expected
