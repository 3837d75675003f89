"""Tests for the Monte Carlo experiment engine."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from ea_lab import empirics
from ea_lab.algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    Budget,
    one_plus_one_config,
    rls_config,
    run_algorithm,
)
from ea_lab.bounds import BoundReport, Direction
from ea_lab.core import (
    DomainError,
    MutationParams,
    RngStream,
    linear_function,
    onemax,
    plateau_function,
)
from ea_lab.empirics import (
    Experiment,
    RunRecord,
    StartPolicy,
    compare,
    empirical_tail,
    estimate_drift,
    read_samples,
    run_batch,
    summarize,
    wilson_interval,
    write_samples,
)
from ea_lab.oracle import build_level_chain, exact_drift


def _exp(runs=200, n=10, seed=5, **kw):
    return Experiment(
        function=onemax(n),
        algorithm=one_plus_one_config(n),
        runs=runs,
        master_seed=seed,
        budget=Budget(50_000),
        **kw,
    )


# ---------------------------------------------------------------------------
# Statistics helpers


def test_wilson_interval_extremes():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 1e-12 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12) and 0.95 < lo < 1.0


def test_wilson_interval_contains_point_estimate():
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi


def test_summarize_counts_and_quantiles():
    records = [RunRecord(i, i, t, True, 10.0) for i, t in enumerate([5, 1, 3, 9, 7])]
    records.append(RunRecord(5, 5, 100, False, 8.0))
    s = summarize(records, budget=100)
    assert s.runs == 6 and s.successes == 5 and s.censored == 1
    assert s.mean == pytest.approx(5.0)
    assert s.median == 5.0
    assert s.quantiles[5] <= s.quantiles[25] <= s.quantiles[75] <= s.quantiles[95]
    assert s.mean_ci is None  # too few runs for a CI


def test_summarize_all_censored():
    records = [RunRecord(i, i, 50, False, 1.0) for i in range(4)]
    s = summarize(records, budget=50)
    assert s.mean is None and s.successes == 0
    assert np.all(s.curve_p == 0.0)


def test_success_curve_is_monotone():
    batch = run_batch(_exp(runs=300))
    p = batch.summary.curve_p
    assert np.all(np.diff(p) >= 0)
    assert p[-1] == 1.0  # everything succeeds well within budget


# ---------------------------------------------------------------------------
# Batch execution


def test_run_batch_deterministic_across_workers():
    exp = _exp(runs=120)
    one = run_batch(exp, workers=1)
    two = run_batch(exp, workers=2)
    assert one.records == two.records
    assert one.summary.mean == two.summary.mean


def _count_pools(monkeypatch, pool_class) -> list[int]:
    """Make ``run_batch`` start ``pool_class`` pools; returns the list of
    their worker counts, filled as they start."""
    started = []

    class CountingPool(pool_class):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(empirics, "ProcessPoolExecutor", CountingPool)
    return started


def test_short_jump_chain_batch_starts_no_pool(monkeypatch):
    started = _count_pools(monkeypatch, ThreadPoolExecutor)
    exp = _exp(runs=120)
    assert run_batch(exp, workers=2).records == run_batch(exp, workers=1).records
    assert started == []


def test_pooled_batch_matches_one_worker(monkeypatch):
    started = _count_pools(monkeypatch, ProcessPoolExecutor)
    monkeypatch.setattr(empirics, "POOL_MIN_BATCH_S", 0.0)
    exp = _exp(runs=120)
    one = run_batch(exp, workers=1, record_transitions=True)
    two = run_batch(exp, workers=2, record_transitions=True)
    assert started == [2]
    assert one.records == two.records
    assert np.array_equal(one.transitions, two.transitions)


def test_population_batch_uses_the_pool(monkeypatch):
    started = _count_pools(monkeypatch, ThreadPoolExecutor)
    algorithm = AlgorithmConfig(AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(8),
                                mu=2, lam=2)
    exp = Experiment(onemax(8), algorithm, runs=3, master_seed=1, budget=Budget(10_000))
    run_batch(exp, workers=2)
    assert started == [2]


def test_population_batch_matches_one_worker(monkeypatch):
    # Level histograms with per-cohort order (PreferOffspring on a plateau).
    started = _count_pools(monkeypatch, ProcessPoolExecutor)
    algorithm = AlgorithmConfig(AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(12),
                                mu=3, lam=2)
    exp = Experiment(plateau_function(12, 4, 3), algorithm, runs=40, master_seed=3,
                     budget=Budget(10_000))
    one = run_batch(exp, workers=1, record_transitions=True)
    two = run_batch(exp, workers=2, record_transitions=True)
    assert started == [2]
    assert one.records == two.records
    assert np.array_equal(one.transitions, two.transitions)


def test_run_ids_are_the_stream_indices():
    batch = run_batch(_exp(runs=10))
    assert [r.run_id for r in batch.records] == list(range(10))
    assert all(r.run_id == r.seed_stream for r in batch.records)


_LEVEL = Experiment(onemax(10), one_plus_one_config(10), 1030, 11, Budget(50_000),
                    StartPolicy.fixed(6))
_POPULATION = Experiment(
    plateau_function(12, 4, 3),
    AlgorithmConfig(AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(12), mu=3, lam=2),
    30, 11, Budget(10_000), target_fitness=8.0,
)
_BITS = Experiment(linear_function([3, 1, 4, 1, 5, 9, 2, 6, 5, 3]), rls_config(10), 30, 11,
                   Budget(10_000))


@pytest.mark.parametrize(
    "exp, indices",
    [(_LEVEL, [0, 1, 1023, 1024, 1029]), (_POPULATION, [0, 1, 29]), (_BITS, [0, 1, 29])],
    ids=["level", "population-levels", "bits"],
)
def test_each_record_is_the_run_of_its_stream(monkeypatch, exp, indices):
    # The promise behind the seed_stream column: run i of a batch, at any
    # worker count, is one run on RngStream(master_seed, i).
    monkeypatch.setattr(empirics, "POOL_MIN_BATCH_S", 0.0)
    records = run_batch(exp, workers=2).records
    for i in indices:
        rng = RngStream(exp.master_seed, i).generator()
        trace = run_algorithm(exp.function, exp.algorithm, exp.budget, rng,
                              start_zeros=exp.start.fixed_zeros,
                              target_fitness=exp.target_fitness)
        hit = trace.hit_time
        assert records[i] == RunRecord(i, i, trace.evaluations if hit is None else hit,
                                       hit is not None, trace.best_fitness)


def test_mean_ci_present_for_large_batches():
    s = run_batch(_exp(runs=150)).summary
    assert s.mean_ci is not None
    lo, hi = s.mean_ci
    assert lo < s.mean < hi


def test_fixed_start_policy():
    exp = Experiment(
        function=onemax(8),
        algorithm=rls_config(8),
        runs=20,
        master_seed=1,
        budget=Budget(10_000),
        start=StartPolicy.fixed(0),
    )
    batch = run_batch(exp)
    assert all(r.evaluations == 1 for r in batch.records)


def test_invalid_worker_count():
    with pytest.raises(DomainError):
        run_batch(_exp(runs=5), workers=0)


def test_run_count_must_be_positive():
    with pytest.raises(DomainError):
        _exp(runs=0)


# ---------------------------------------------------------------------------
# Serialization


def test_samples_roundtrip(tmp_path):
    batch = run_batch(_exp(runs=30))
    path = tmp_path / "samples.csv"
    write_samples(batch.records, path)
    again = read_samples(path)
    assert again == batch.records


def test_read_samples_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_samples(path)


# ---------------------------------------------------------------------------
# Drift estimation


def test_estimated_drift_matches_exact_drift():
    n = 8
    exp = Experiment(
        function=onemax(n),
        algorithm=one_plus_one_config(n),
        runs=3_000,
        master_seed=3,
        budget=Budget(10_000),
        start=StartPolicy.fixed(n),
    )
    est = estimate_drift(exp, distance=lambda z: float(z), distance_id="zeros")
    chain = build_level_chain(onemax(n), "OnePlusOneEA")
    exact = exact_drift(chain, lambda z: float(z))
    assert est.states.size > 0
    for state, mean, half in zip(est.states, est.mean_decrease, est.half_width):
        assert abs(mean - exact[state]) < max(3 * half, 1e-3)
    assert np.all(est.visits >= 30)


def test_drift_estimation_needs_unitation():
    exp = Experiment(
        function=linear_function([1.0, 2.0, 1.0]),
        algorithm=one_plus_one_config(3),
        runs=5,
        master_seed=0,
    )
    with pytest.raises(DomainError):
        estimate_drift(exp, distance=lambda z: float(z))


# ---------------------------------------------------------------------------
# Tails and comparison


def test_empirical_tail_counts_censored_runs():
    records = [RunRecord(0, 0, 10, True, 5.0), RunRecord(1, 1, 50, False, 3.0)]
    s = summarize(records, budget=50)
    tail, (lo, hi) = empirical_tail(s, 20.0)
    assert tail == 0.5
    assert lo < tail < hi


def test_compare_directions():
    s = summarize([RunRecord(i, i, 10, True, 1.0) for i in range(10)], budget=100)
    good_upper = BoundReport("u", True, Direction.UPPER_ON_E, bound_value=50.0)
    bad_lower = BoundReport("l", True, Direction.LOWER_ON_E, bound_value=40.0)
    tail = BoundReport("t", True, Direction.TAIL_UPPER, bound_value=0.2)
    broken = BoundReport("b", False, Direction.UPPER_ON_E)
    inapplicable = BoundReport("n", None, Direction.UPPER_ON_E,
                               detail={"reason": "not applicable: no target"})
    rows = compare(s, [good_upper, bad_lower, tail, broken, inapplicable],
                   oracle_value=10.0)
    by_id = {r.quantity: r for r in rows}
    assert by_id["u"].satisfied is True
    assert by_id["l"].satisfied is False  # oracle 10 < claimed lower bound 40
    assert by_id["t"].satisfied is None  # informational
    assert by_id["b"].satisfied is False  # hypotheses failed
    assert by_id["n"].satisfied is None  # does not apply: no verdict
    assert by_id["n"].bound is None


def test_compare_uses_stderr_slack_without_oracle():
    records = [RunRecord(i, i, t, True, 1.0) for i, t in enumerate([9, 10, 11, 10])]
    s = summarize(records, budget=100)
    tight = BoundReport("u", True, Direction.UPPER_ON_E, bound_value=s.mean - 0.1)
    rows = compare(s, [tight], oracle_value=None)
    # Within 3 standard errors the bound is still accepted.
    assert rows[-1].satisfied is True


def test_plateau_crossing_uses_target_fitness():
    n, m, k = 30, 4, 20
    spec = plateau_function(n, m, k)
    target = float(spec.value_table[k])
    exp = Experiment(
        function=spec,
        algorithm=one_plus_one_config(n),
        runs=50,
        master_seed=9,
        budget=Budget(200_000),
        start=StartPolicy.fixed(m + k),
        target_fitness=target,
    )
    batch = run_batch(exp)
    assert batch.summary.successes == 50
    assert all(r.best_fitness >= target for r in batch.records)
