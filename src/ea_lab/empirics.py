"""Monte Carlo experiment engine: batched runs, runtime statistics,
empirical drift and tail estimation, and theorem-vs-experiment
comparison tables.

Runs are keyed by their stream index ``(master_seed, run_index)``, so a
batch produces identical results whatever the worker count or execution
order; raw samples serialize to a fixed-format CSV that reproduces the
in-memory summary exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algorithms import AlgorithmConfig, Budget, run_algorithm, uses_jump_chain
from .bounds import BoundReport, Direction
from .core import DomainError, FitnessFunction, RngStream, UnitationSpec

SAMPLE_HEADER = "run_id,seed_stream,evaluations,success,best_fitness"
MIN_VISITS_FOR_DRIFT = 30
_CI_MIN_RUNS = 100
# A process pool costs tens of milliseconds to start, feed and stop.  A
# jump-chain run costs about _JUMP_RUN_S plus _JUMP_RUN_S_PER_BIT per bit
# (least-squares fit of the relative error over RLS and the (1+1) EA on
# OneMax, n = 10..3000, in-process batches with the chain tables built;
# 2-CPU Xeon VM); a batch of them estimated below POOL_MIN_BATCH_S runs in
# this process whatever the worker count, since a pool would make it
# slower and its wall time less steady.
_JUMP_RUN_S = 15e-6
_JUMP_RUN_S_PER_BIT = 0.5e-6
POOL_MIN_BATCH_S = 0.1


@dataclass(frozen=True)
class StartPolicy:
    """Initial point policy: uniform random, or a fixed zeros-count."""

    fixed_zeros: int | None = None

    @classmethod
    def uniform(cls) -> "StartPolicy":
        return cls(None)

    @classmethod
    def fixed(cls, zeros: int) -> "StartPolicy":
        return cls(zeros)


@dataclass(frozen=True)
class Experiment:
    function: UnitationSpec | FitnessFunction
    algorithm: AlgorithmConfig
    runs: int
    master_seed: int
    budget: Budget = Budget()
    start: StartPolicy = StartPolicy()
    target_fitness: float | None = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise DomainError("runs must be >= 1")


class RunRecord(NamedTuple):
    """One raw sample row.  ``evaluations`` is the hit time for
    successful runs and the consumed budget for censored ones."""

    run_id: int
    seed_stream: int
    evaluations: int
    success: bool
    best_fitness: float

    def to_line(self) -> str:
        return (
            f"{self.run_id},{self.seed_stream},{self.evaluations},"
            f"{int(self.success)},{self.best_fitness:.6f}"
        )

    @classmethod
    def from_line(cls, line: str) -> "RunRecord":
        run_id, stream, evals, success, best = line.strip().split(",")
        return cls(int(run_id), int(stream), int(evals), bool(int(success)), float(best))


@dataclass
class RuntimeSummary:
    """Aggregate runtime statistics over a batch.

    Mean/median/quantiles are conditional on success; censoring is
    reported separately rather than imputed.  The curve is the empirical
    success probability P(T <= t) on a log-spaced grid of at most 50
    points.
    """

    runs: int
    successes: int
    censored: int
    mean: float | None
    stderr: float | None
    median: float | None
    quantiles: dict[int, float]
    curve_t: np.ndarray = field(repr=False)
    curve_p: np.ndarray = field(repr=False)
    hit_times: np.ndarray = field(repr=False)
    budget: int = 0
    # Normal-approximation 95% CI for the mean, emitted for >= 100 runs only.
    mean_ci: tuple[float, float] | None = None


def wilson_interval(hits: int, total: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise DomainError("total must be positive")
    phat = hits / total
    denom = 1.0 + z * z / total
    centre = (phat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total**2))
    return max(0.0, centre - half), min(1.0, centre + half)


def summarize(records: list[RunRecord], budget: int) -> RuntimeSummary:
    runs = len(records)
    hits = np.sort(np.array([r.evaluations for r in records if r.success], dtype=float))
    successes = hits.size
    censored = runs - successes

    curve_t = np.unique(
        np.round(np.logspace(0, math.log10(max(budget, 2)), 50)).astype(int)
    ).astype(float)
    curve_p = np.searchsorted(hits, curve_t, side="right") / runs

    if successes == 0:
        return RuntimeSummary(
            runs, 0, censored, None, None, None, {}, curve_t, curve_p, hits, budget
        )
    mean = float(hits.mean())
    stderr = float(hits.std(ddof=1) / math.sqrt(successes)) if successes > 1 else None
    mean_ci = None
    if runs >= _CI_MIN_RUNS and stderr is not None:
        mean_ci = (mean - 1.959963984540054 * stderr, mean + 1.959963984540054 * stderr)
    qs = {q: float(np.quantile(hits, q / 100.0)) for q in (5, 25, 75, 95)}
    return RuntimeSummary(
        runs=runs,
        successes=successes,
        censored=censored,
        mean=mean,
        stderr=stderr,
        median=float(np.median(hits)),
        quantiles=qs,
        curve_t=curve_t,
        curve_p=curve_p,
        hit_times=hits,
        budget=budget,
        mean_ci=mean_ci,
    )


# ---------------------------------------------------------------------------
# Batch execution


def _run_one(exp: Experiment, run_id: int, record_transitions: bool):
    trace = run_algorithm(
        exp.function,
        exp.algorithm,
        exp.budget,
        RngStream(exp.master_seed, run_id).generator(),
        start_zeros=exp.start.fixed_zeros,
        target_fitness=exp.target_fitness,
        record_transitions=record_transitions,
    )
    hit = trace.hit_time
    # Positional: a NamedTuple builds faster without keywords.
    record = RunRecord(
        run_id, run_id, trace.evaluations if hit is None else hit, hit is not None,
        trace.best_fitness,
    )
    return record, trace.level_transitions


def _run_chunk(args):
    exp, lo, hi, record_transitions = args
    records = []
    transitions = None
    for run_id in range(lo, hi):
        rec, trans = _run_one(exp, run_id, record_transitions)
        records.append(rec)
        if trans is not None:
            transitions = trans if transitions is None else transitions + trans
    return records, transitions


@dataclass
class BatchResult:
    summary: RuntimeSummary
    records: list[RunRecord]
    transitions: np.ndarray | None = None


def _pool_pays(exp: Experiment) -> bool:
    if not uses_jump_chain(exp.function, exp.algorithm):
        return True
    per_run = _JUMP_RUN_S + exp.function.n * _JUMP_RUN_S_PER_BIT
    return exp.runs * per_run >= POOL_MIN_BATCH_S


def run_batch(
    exp: Experiment, workers: int = 1, record_transitions: bool = False
) -> BatchResult:
    """Execute all runs of the experiment with per-run streams
    ``(master_seed, 0..runs-1)``; deterministic for a fixed experiment
    regardless of the worker count.  With ``workers > 1`` the runs are
    shared by a process pool, unless they are jump-chain runs estimated
    to take less than ``POOL_MIN_BATCH_S`` in all."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if not _pool_pays(exp):
        workers = 1
    n_chunks = min(exp.runs, max(1, workers * 4))
    edges = np.linspace(0, exp.runs, n_chunks + 1).astype(int)
    chunk_args = [
        (exp, int(lo), int(hi), record_transitions)
        for lo, hi in zip(edges[:-1], edges[1:])
        if hi > lo
    ]
    if workers == 1:
        results = [_run_chunk(a) for a in chunk_args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, chunk_args))

    records: list[RunRecord] = []
    transitions = None
    for recs, trans in results:
        records.extend(recs)
        if trans is not None:
            transitions = trans if transitions is None else transitions + trans
    records.sort(key=lambda r: r.run_id)
    return BatchResult(
        summary=summarize(records, exp.budget.max_evaluations),
        records=records,
        transitions=transitions,
    )


def write_samples(records: list[RunRecord], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_line() + "\n")


def read_samples(path) -> list[RunRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SAMPLE_HEADER:
            raise ValueError(f"unexpected sample header: {header!r}")
        return [RunRecord.from_line(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Drift estimation


@dataclass
class DriftEstimate:
    """Per-state empirical mean one-step decrease of a distance function,
    with 95% confidence half-widths; states with fewer than
    ``MIN_VISITS_FOR_DRIFT`` visits are omitted."""

    distance_id: str
    states: np.ndarray
    mean_decrease: np.ndarray
    half_width: np.ndarray
    visits: np.ndarray


def estimate_drift(
    exp: Experiment, distance, distance_id: str = "distance", workers: int = 1
) -> DriftEstimate:
    """Empirical drift of ``distance`` (a function of the zeros-count)
    aggregated over per-generation state transitions.  For population
    algorithms the transitions of the best individual's level are used."""
    if not isinstance(exp.function, UnitationSpec):
        raise DomainError("drift estimation is defined on unitation functions")
    batch = run_batch(exp, workers=workers, record_transitions=True)
    counts = batch.transitions
    assert counts is not None
    n = exp.function.n
    d = np.array([float(distance(z)) for z in range(n + 1)])

    states, means, half_widths, visit_counts = [], [], [], []
    for i in range(n + 1):
        visits = int(counts[i].sum())
        if visits < MIN_VISITS_FOR_DRIFT:
            continue
        decreases = d[i] - d  # per destination level
        weights = counts[i] / visits
        mean = float(np.dot(weights, decreases))
        var = float(np.dot(weights, (decreases - mean) ** 2))
        states.append(i)
        means.append(mean)
        half_widths.append(1.959963984540054 * math.sqrt(var / visits))
        visit_counts.append(visits)
    return DriftEstimate(
        distance_id=distance_id,
        states=np.array(states, dtype=int),
        mean_decrease=np.array(means),
        half_width=np.array(half_widths),
        visits=np.array(visit_counts, dtype=int),
    )


# ---------------------------------------------------------------------------
# Tails and comparisons


def empirical_tail(summary: RuntimeSummary, t: float):
    """Empirical P(T > t) with its Wilson 95% interval.

    Censored runs count towards the tail (their runtime exceeded the
    budget, hence any t within it)."""
    if t < 0:
        raise DomainError("t must be non-negative")
    above = summary.runs - int(np.searchsorted(summary.hit_times, t, side="right"))
    tail = above / summary.runs
    lo, hi = wilson_interval(above, summary.runs)
    return tail, (lo, hi)


@dataclass
class ComparisonRow:
    quantity: str
    empirical: float | None
    oracle: float | None
    bound: float | None
    direction: str
    satisfied: bool | None


def compare(
    summary: RuntimeSummary,
    reports: list[BoundReport],
    oracle_value: float | None = None,
) -> list[ComparisonRow]:
    """Theorem-vs-experiment table, all quantities in evaluations.

    A bound row is satisfied when the oracle value (preferred) or the
    empirical mean respects the bound direction; empirical comparisons
    get a 3-standard-error allowance.  A bound whose hypotheses fail
    (``hypotheses_ok`` False) is unsatisfied.  Tail bounds, and bounds
    that do not apply to the experiment (``hypotheses_ok`` None), are
    informational rows without a satisfaction verdict.
    """
    rows = [
        ComparisonRow("mean_hit_time", summary.mean, oracle_value, None, "-", None)
    ]
    slack = 3.0 * summary.stderr if summary.stderr is not None else 0.0
    for rep in reports:
        if not rep.hypotheses_ok:
            rows.append(
                ComparisonRow(rep.theorem_id, summary.mean, oracle_value, None,
                              rep.direction.value, rep.hypotheses_ok)
            )
            continue
        if rep.direction is Direction.TAIL_UPPER:
            rows.append(
                ComparisonRow(rep.theorem_id, None, None, rep.bound_value,
                              rep.direction.value, None)
            )
            continue
        satisfied: bool | None
        if oracle_value is not None:
            value = oracle_value
            if rep.direction is Direction.UPPER_ON_E:
                satisfied = value <= rep.bound_value
            else:
                satisfied = value >= rep.bound_value
        elif summary.mean is not None:
            value = summary.mean
            if rep.direction is Direction.UPPER_ON_E:
                satisfied = value <= rep.bound_value + slack
            else:
                satisfied = value >= rep.bound_value - slack
        else:
            satisfied = None
        rows.append(
            ComparisonRow(rep.theorem_id, summary.mean, oracle_value,
                          rep.bound_value, rep.direction.value, satisfied)
        )
    return rows
