"""Tests for the Monte Carlo experiment engine."""

import warnings
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
    FitnessFunction,
    MutationParams,
    RngStream,
    linear_function,
    onemax,
    plateau_function,
)
from ea_lab.empirics import (
    Experiment,
    SAMPLE_HEADER,
    RunRecord,
    StartPolicy,
    compare,
    estimate_drift,
    run_batch,
    samples_csv,
    summarize,
    wilson_interval,
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
    s = summarize([5, 1, 3, 9, 7, 100], [True] * 5 + [False], budget=100)
    assert s.runs == 6 and s.successes == 5 and s.censored == 1
    assert s.mean == pytest.approx(5.0)
    assert s.median == 5.0
    assert s.quantiles[5] <= s.quantiles[25] <= s.quantiles[75] <= s.quantiles[95]
    assert s.mean_ci is None  # too few runs for a CI


def test_summarize_all_censored():
    s = summarize([50] * 4, [False] * 4, budget=50)
    assert s.mean is None and s.successes == 0
    assert np.all(s.curve_p == 0.0)


def test_success_curve_reaches_budgets_beyond_int64():
    # A censored jump-chain run can cost a budget of 10^20 evaluations.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize([10**20], [False], 10**20)
    assert s.curve_t[0] == 1.0 and s.curve_t[-1] == 1e20
    assert np.all(np.diff(s.curve_t) > 0)


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


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # A process pool starts all max_workers processes at once; 3 runs make
    # 3 chunks.
    started = _count_pools(monkeypatch, ThreadPoolExecutor)
    exp = Experiment(linear_function([3, 1, 4]), one_plus_one_config(3), runs=3,
                     master_seed=2, budget=Budget(1000))
    assert run_batch(exp, workers=64).records == run_batch(exp, workers=1).records
    assert started == [3]


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
# Real weights, some negative, a target below the optimum and a tiny budget:
# censored runs, and best fitness values that are negative, large and not
# integers.
_CENSORED = Experiment(
    FitnessFunction(np.array([-2.5, -1.25, 1e9 + 0.375, 0.3, -3.75, 1e-3, 12.125, -5.5])),
    one_plus_one_config(8), 60, 3, Budget(6), target_fitness=1e9,
)


@pytest.mark.parametrize(
    "exp, indices",
    [(_LEVEL, [0, 1, 1023, 1024, 1029]), (_POPULATION, [0, 1, 29]), (_BITS, [0, 1, 29]),
     (_CENSORED, [0, 1, 2, 4, 59])],
    ids=["level", "population-levels", "bits", "bits-censored"],
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


@pytest.mark.parametrize("workers", [1, 2])
def test_samples_csv_is_a_line_per_record(monkeypatch, workers):
    # samples.csv is written from the batch's columns, and its bytes are
    # those of the records.
    started = _count_pools(monkeypatch, ProcessPoolExecutor)
    batch = run_batch(_CENSORED, workers=workers)
    assert started == ([2] if workers == 2 else [])
    records = batch.records
    assert samples_csv(batch) == "\n".join(
        [SAMPLE_HEADER] + [r.to_line() for r in records]) + "\n"
    assert [r.evaluations for r in records] == batch.evaluations
    assert not all(batch.success) and any(batch.success)
    assert min(batch.best_fitness) < 0 < 1e9 < max(batch.best_fitness)
    assert any(b != int(b) for b in batch.best_fitness)
    assert records == run_batch(_CENSORED, workers=1).records


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
# Comparison


def test_compare_directions():
    s = summarize([10] * 10, [True] * 10, budget=100)
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
    s = summarize([9, 10, 11, 10], [True] * 4, budget=100)
    tight = BoundReport("u", True, Direction.UPPER_ON_E, bound_value=s.mean - 0.1)
    rows = compare(s, [tight], oracle_value=None)
    # Within 3 standard errors the bound is still accepted.
    assert rows[-1].satisfied is True


def test_compare_lower_bound_gets_the_stderr_allowance():
    s = summarize([9, 10, 11, 10], [True] * 4, budget=100)
    allowance = 3.0 * s.stderr
    inside = BoundReport("in", True, Direction.LOWER_ON_E,
                         bound_value=s.mean + 0.99 * allowance)
    outside = BoundReport("out", True, Direction.LOWER_ON_E,
                          bound_value=s.mean + 1.01 * allowance)
    rows = compare(s, [inside, outside], oracle_value=None)
    by_id = {r.quantity: r for r in rows}
    assert by_id["in"].satisfied is True
    assert by_id["out"].satisfied is False


def test_compare_gives_no_verdict_without_oracle_or_hits():
    s = summarize([100] * 5, [False] * 5, budget=100)
    upper = BoundReport("u", True, Direction.UPPER_ON_E, bound_value=50.0)
    lower = BoundReport("l", True, Direction.LOWER_ON_E, bound_value=40.0)
    rows = compare(s, [upper, lower], oracle_value=None)
    assert [(r.quantity, r.satisfied) for r in rows[1:]] == [("u", None), ("l", None)]


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
