"""Acceptance suite: one test per criterion, each failing with what it observed."""

import json
from pathlib import Path

from qperm import acceptance
from qperm.acceptance import ExperimentConfig

GOLDEN_REPORT = Path(__file__).parent / "golden" / "reproduce-all.stdout"


def _run(criterion_fn, *args, **kwargs):
    result = criterion_fn(*args, **kwargs)
    assert result.passed, result.observed
    return result


def test_criterion_01_haar_first_moment():
    _run(acceptance.criterion_1_haar_first_moment)


def test_criterion_02_weingarten_inversion():
    result = _run(acceptance.criterion_2_weingarten_inversion)
    assert result.seconds < 600


def test_criterion_03_lemma_west_residuals():
    _run(acceptance.criterion_3_lemma_west)


def test_criterion_04_counting_oracles():
    _run(acceptance.criterion_4_counting_oracles)


def test_criterion_05_mobius_cross_validation():
    _run(acceptance.criterion_5_mobius_cross_validation)


def test_criterion_06_moment_cumulant_round_trip():
    _run(acceptance.criterion_6_round_trip)


def test_criterion_07_semicircular_desk_check():
    _run(acceptance.criterion_7_semicircular)


def test_criterion_08_free_implies_invariant():
    _run(acceptance.criterion_8_free_implies_invariant)


def test_criterion_09_block_sum_identity():
    _run(acceptance.criterion_9_block_sum_identity)


def test_criterion_10_definetti_gap():
    _run(acceptance.criterion_10_definetti_gap)


def test_criterion_11_classical_quantum_separation():
    _run(acceptance.criterion_11_classical_quantum_separation)


def test_criterion_12_hewitt_savage_scaling():
    _run(acceptance.criterion_12_hewitt_savage_scaling)


def test_criterion_13_small_n_consistency():
    _run(acceptance.criterion_13_small_n_consistency)


def test_run_all_calls_each_criterion_through_its_module_global(monkeypatch):
    # perfbench/tracing.py times a criterion by replacing its module attribute;
    # run_all must call through that attribute, or the criterion's time reads 0.
    names = sorted(
        (name for name in vars(acceptance) if name.startswith("criterion_")),
        key=lambda name: int(name.split("_")[1]),
    )
    config = ExperimentConfig(k_max=2, n_range=(4, 4))
    calls = []

    def spy(name, real):
        def criterion(got):
            calls.append((name, got))
            return real(got)

        return criterion

    for name in names:
        monkeypatch.setattr(acceptance, name, spy(name, getattr(acceptance, name)))
    results = acceptance.run_all(config)
    assert calls == [(name, config) for name in names]
    golden = json.loads(GOLDEN_REPORT.read_text())["results"]
    assert [(r.number, r.name) for r in results] == [(e["criterion"], e["name"]) for e in golden]
    assert [r.number for r in results] == list(range(1, 14))
