"""Monte Carlo experiment engine: batched runs, runtime statistics,
empirical drift estimation, and theorem-vs-experiment comparison tables.

Runs are keyed by their stream index ``(master_seed, run_index)``, so a
batch produces identical results whatever the worker count or execution
order.  A batch is kept as columns in run order (evaluations, success,
best fitness), from the worker loop to the written files: workers send
back three lists, not a Python object per run.  Raw samples are written
from those columns as ``samples.csv`` in a fixed format, whose bytes the
tests pin.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
# np.quantile and np.unique test for masked arrays, and recent numpy imports
# numpy.ma lazily at that first test, about 15 ms into the first summary of
# a run.  Importing it here keeps that cost with the import of this module.
import numpy.ma  # noqa: F401

from .algorithms import AlgorithmConfig, Budget, run_algorithm, uses_jump_chain
from .bounds import BoundReport, Direction
from .core import DomainError, FitnessFunction, RngStream, UnitationSpec

SAMPLE_HEADER = "run_id,seed_stream,evaluations,success,best_fitness"
MIN_VISITS_FOR_DRIFT = 30
_CI_MIN_RUNS = 100
_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
# A process pool costs tens of milliseconds to start, feed and stop.  A
# jump-chain run costs about _JUMP_RUN_S plus _JUMP_RUN_S_PER_BIT per bit
# (least-squares fit of the relative error over RLS and the (1+1) EA on
# OneMax, n = 10..3000, in-process batches with the chain tables built;
# 2-CPU Xeon VM, whose speed varies by half between fits); a batch of them
# estimated below POOL_MIN_BATCH_S runs in this process whatever the worker
# count, since a pool would make it slower and its wall time less steady.
_JUMP_RUN_S = 13.5e-6
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
        # Any 5-tuple of these fields formats alike: ``samples_csv`` formats
        # plain row tuples.
        return "%d,%d,%d,%d,%.6f" % self


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


def wilson_interval(hits: int, total: int, z: float = _Z95):
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise DomainError("total must be positive")
    phat = hits / total
    denom = 1.0 + z * z / total
    centre = (phat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total**2))
    return max(0.0, centre - half), min(1.0, centre + half)


def summarize(evaluations: Sequence[int], success: Sequence[bool], budget: int) -> RuntimeSummary:
    """Statistics of a batch from its evaluations and success columns."""
    runs = len(evaluations)
    hits = np.sort(np.asarray(evaluations, dtype=float)[np.asarray(success, dtype=bool)])
    successes = hits.size
    censored = runs - successes

    # Rounded in float: a budget may exceed the int64 range.
    curve_t = np.unique(np.round(np.logspace(0, math.log10(max(budget, 2)), 50)))
    curve_p = np.searchsorted(hits, curve_t, side="right") / runs

    if successes == 0:
        return RuntimeSummary(
            runs, 0, censored, None, None, None, {}, curve_t, curve_p, hits, budget
        )
    mean = float(hits.mean())
    stderr = float(hits.std(ddof=1) / math.sqrt(successes)) if successes > 1 else None
    mean_ci = None
    if runs >= _CI_MIN_RUNS and stderr is not None:
        mean_ci = (mean - _Z95 * stderr, mean + _Z95 * stderr)
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


def _run_chunk(args):
    """Runs ``lo..hi-1`` of the experiment, as the columns of
    ``BatchResult`` and the summed level transitions."""
    exp, lo, hi, record_transitions = args
    function, algorithm, budget, seed = exp.function, exp.algorithm, exp.budget, exp.master_seed
    start, target = exp.start.fixed_zeros, exp.target_fitness
    evaluations, success, best_fitness = [], [], []
    transitions = None
    for run_id in range(lo, hi):
        trace = run_algorithm(function, algorithm, budget, RngStream(seed, run_id).generator(),
                              start, target, record_transitions)
        hit = trace.hit_time
        evaluations.append(trace.evaluations if hit is None else hit)
        success.append(hit is not None)
        best_fitness.append(trace.best_fitness)
        if record_transitions:
            trans = trace.level_transitions
            transitions = trans if transitions is None else transitions + trans
    return evaluations, success, best_fitness, transitions


@dataclass
class BatchResult:
    """A batch's runs as columns in run order.  Run i, on stream
    ``(master_seed, i)``, took ``evaluations[i]`` evaluations: its hit time
    if ``success[i]``, else the budget it used.  ``best_fitness[i]`` is the
    best fitness it evaluated."""

    summary: RuntimeSummary
    evaluations: list[int]
    success: list[bool]
    best_fitness: list[float]
    transitions: np.ndarray | None = None

    def rows(self):
        """The fields of each ``RunRecord``, as plain tuples in run order."""
        ids = range(len(self.evaluations))
        return zip(ids, ids, self.evaluations, self.success, self.best_fitness)

    @property
    def records(self) -> list[RunRecord]:
        return list(map(RunRecord._make, self.rows()))


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
    shared by a process pool of at most one worker per chunk, unless they
    are jump-chain runs estimated to take less than ``POOL_MIN_BATCH_S``
    in all."""
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
    # A pool starts all its workers at once: start no more than there are chunks.
    workers = min(workers, len(chunk_args))
    if workers == 1:
        results = [_run_chunk(a) for a in chunk_args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, chunk_args))

    # The chunks hold ascending run ids, and pool.map keeps their order.
    evaluations, success, best_fitness = [], [], []
    transitions = None
    for evals, ok, best, trans in results:
        evaluations += evals
        success += ok
        best_fitness += best
        if trans is not None:
            transitions = trans if transitions is None else transitions + trans
    return BatchResult(
        summarize(evaluations, success, exp.budget.max_evaluations),
        evaluations, success, best_fitness, transitions,
    )


def samples_csv(batch: BatchResult) -> str:
    """The text of ``samples.csv``: the header, then one line per run."""
    return "\n".join([SAMPLE_HEADER, *map(RunRecord.to_line, batch.rows())]) + "\n"


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
        half_widths.append(_Z95 * math.sqrt(var / visits))
        visit_counts.append(visits)
    return DriftEstimate(
        distance_id=distance_id,
        states=np.array(states, dtype=int),
        mean_decrease=np.array(means),
        half_width=np.array(half_widths),
        visits=np.array(visit_counts, dtype=int),
    )


# ---------------------------------------------------------------------------
# Comparisons


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
    if oracle_value is not None:
        reference, slack = oracle_value, 0.0
    else:
        reference = summary.mean
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
        satisfied: bool | None = None
        if reference is not None:
            satisfied = (reference <= rep.bound_value + slack
                         if rep.direction is Direction.UPPER_ON_E
                         else reference >= rep.bound_value - slack)
        rows.append(
            ComparisonRow(rep.theorem_id, summary.mean, oracle_value,
                          rep.bound_value, rep.direction.value, satisfied)
        )
    return rows
