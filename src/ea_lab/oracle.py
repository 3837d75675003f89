"""Exact analysis of single-individual elitist algorithms on unitation
functions.

The zeros-count of the current search point is a sufficient statistic
for RLS and the (1+1) EA on a unitation function, so their dynamics form
an absorbing Markov chain on the n+1 zeros-count levels.  Expected
hitting times, success probabilities and exact drift values computed
here are the ground truth that both the closed-form bounds and the
Monte Carlo estimates are checked against.

The chain's mutation kernel is built from the ``kernel_row`` of the
mutation operator (:class:`~ea_lab.core.OneBitFlip` for RLS,
:class:`~ea_lab.core.MutationParams` for the (1+1) EA), the row that also
drives the level samplers in :mod:`ea_lab.algorithms`.  Standard bit
mutation keeps one table of rows per (n, chi) in the process, so the
chain and the samplers read the same arrays, and each row is convolved
once, from flip-count pmfs that are all computed together.  The sampler
jumps from level to level with the chain's accepted moves, so a
simulated run costs O(level changes), while the chain here is dense:
with the rows made, it costs O(n^2) time and memory to build, and it is
built for n <= ``MAX_CHAIN_N`` only.

Selection is elitist, so the chain never moves to a level of lower
fitness and the hitting-time system is block-triangular in fitness
order.  It is solved one fitness class at a time, best class first: a
class of one level costs one division by that level's leave mass (the
sum of its off-diagonal accepted moves, accurate even where the
self-loop rounds to 1), and a plateau class one dense solve of the
class's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError, Mutation, MutationParams, OneBitFlip, UnitationSpec, flip_count_pmf_table
)

ROW_SUM_TOL = 1e-12

# The chain is dense: one (n+1) x (n+1) float64 matrix takes 8 (n+1)^2
# bytes, 134 MB at n = 4096 and 29 GB at n = 60,000.  Building it holds
# the kernel, P and a temporary of that size at once, and the hitting-time
# solve the same three, so a chain at this limit needs about 0.4 GB.
MAX_CHAIN_N = 4096


@dataclass(frozen=True)
class LevelChain:
    """Absorbing Markov chain over zeros-count levels.

    ``mutation_kernel`` is the raw proposal kernel (before selection);
    ``P`` applies elitist acceptance: proposals with strictly worse
    fitness are folded into the self-loop, ties are accepted.  Rows of
    both matrices sum to 1 within ``ROW_SUM_TOL``.  Absorbing states are
    the zeros-counts of maximum fitness and have identity rows.
    """

    n: int
    kind: str  # "RLS" or "OnePlusOneEA"
    value_table: np.ndarray
    mutation_kernel: np.ndarray
    P: np.ndarray
    absorbing: np.ndarray  # boolean mask over levels


_DEFAULT_MUTATION = {"RLS": OneBitFlip, "OnePlusOneEA": MutationParams}


def build_level_chain(spec: UnitationSpec, kind: str, mutation: Mutation | None = None) -> LevelChain:
    """Exact level chain for RLS or the (1+1) EA on ``spec`` under
    ``mutation``, by default the kind's operator at chi = 1.

    Selection accepts offspring of fitness greater than or equal to the
    parent fitness (the (1+1) EA tie rule); rejected mass goes to the
    self-loop.  A chain above ``MAX_CHAIN_N`` is refused before anything
    is allocated.
    """
    n = spec.n
    if n > MAX_CHAIN_N:
        gb = 8 * (n + 1) ** 2 / 1e9
        raise DomainError(f"the exact level chain at n = {n} needs dense matrices of "
                          f"{gb:.3g} GB each; it is built for n <= {MAX_CHAIN_N} only")
    table = spec.value_table
    if kind not in _DEFAULT_MUTATION:
        raise DomainError(f"unsupported algorithm kind for oracle: {kind}")
    if mutation is None:
        mutation = _DEFAULT_MUTATION[kind](n)
    if not isinstance(mutation, _DEFAULT_MUTATION[kind]):
        raise DomainError("RLS, and only RLS, mutates by OneBitFlip")
    if mutation.n != n:
        raise DomainError("mutation parameters sized for a different n")
    kernel = np.zeros((n + 1, n + 1))
    for z in range(n + 1):
        lo, probs = mutation.kernel_row(z)
        kernel[z, lo : lo + probs.size] = probs
        # Fold the tiny summation residual into the self-loop.
        kernel[z, z] += 1.0 - kernel[z].sum()

    absorbing = table == table.max()
    accept = table[None, :] >= table[:, None]
    P = np.where(accept, kernel, 0.0)
    P[np.diag_indices(n + 1)] += np.where(accept, 0.0, kernel).sum(axis=1)
    top = np.flatnonzero(absorbing)
    P[top] = 0.0
    P[top, top] = 1.0
    assert np.all(np.abs(P.sum(axis=1) - 1.0) < 1e-9)
    P.setflags(write=False)
    kernel.setflags(write=False)
    return LevelChain(
        n=n, kind=kind, value_table=table, mutation_kernel=kernel, P=P, absorbing=absorbing
    )


# ---------------------------------------------------------------------------
# Start distributions


def point_start(n: int, z: int) -> np.ndarray:
    """Start distribution concentrated on zeros-count ``z``."""
    if not 0 <= z <= n:
        raise DomainError("start level out of range")
    u = np.zeros(n + 1)
    u[z] = 1.0
    return u


def binomial_start(n: int) -> np.ndarray:
    """Zeros-count distribution of a uniform random bitstring."""
    return flip_count_pmf_table(n, 0.5)


# ---------------------------------------------------------------------------
# Exact quantities


def expected_hitting_times(chain: LevelChain) -> np.ndarray:
    """Expected generations to absorption from each level (0 on absorbing)."""
    return expected_hitting_times_to(chain, chain.absorbing)


def _can_reach(support: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Levels from which some path along ``support`` (a boolean matrix of
    one-step moves) reaches a level of ``goal`` (a boolean mask)."""
    reach = goal.copy()
    frontier = goal
    while frontier.any():
        frontier = support[:, frontier].any(axis=1) & ~reach
        reach |= frontier
    return reach


def expected_hitting_times_to(chain: LevelChain, target: np.ndarray) -> np.ndarray:
    """Expected generations to first reach any level in ``target``
    (a boolean mask), 0 on target levels themselves.

    A level from which the chain can, with positive probability, reach a
    level that never reaches the target (such as a trap of RLS on a gap)
    has expected time infinity; the linear system is solved over the
    other levels only, where it is non-singular.

    Used for block-local questions such as the time to jump a gap,
    where the target set is not the global optimum.
    """
    target = np.asarray(target, dtype=bool)
    if target.shape != (chain.n + 1,):
        raise DomainError("target mask must cover levels 0..n")
    if not target.any():
        raise DomainError("target set must be non-empty")
    if np.any(chain.absorbing & ~target):
        raise DomainError("an absorbing level outside the target is never left")
    P = chain.P
    support = P > 0
    support[target] = False  # the chain stops at its first target visit
    doomed = _can_reach(support, ~_can_reach(support, target))
    live = (~target & ~doomed).tolist()
    # Summed off the diagonal, not 1 - P_zz, which loses s once P_zz rounds to 1.
    leave = np.where(np.eye(chain.n + 1, dtype=bool), 0.0, P).sum(axis=1)
    # Target and doomed levels enter as 0: live rows put no mass on doomed ones.
    t = np.zeros(chain.n + 1)
    for level in reversed(_fitness_classes(chain.value_table)):
        idx = [z for z in level if live[z]]
        # Levels of this class and worse ones still hold 0 here.
        if len(idx) == 1:
            z = idx[0]
            t[z] = (1.0 + P[z] @ t) / leave[z]
        elif idx:
            block = -P[np.ix_(idx, idx)]
            block[np.diag_indices(len(idx))] = leave[idx]
            t[idx] = np.linalg.solve(block, 1.0 + P[idx] @ t)
    t[doomed] = np.inf
    return t


def _checked_start(chain: LevelChain, start) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if start.shape != (chain.n + 1,) or start.min() < 0 or abs(start.sum() - 1.0) > 1e-9:
        raise DomainError("start must be a distribution over levels 0..n")
    return start


def exact_expected_hitting_time(
    chain: LevelChain, start: np.ndarray, target: np.ndarray | None = None
) -> float:
    """Start-weighted expected number of generations to absorption, or to
    the first visit of a level in ``target`` (a boolean mask) if given.

    Add 1 for the initial evaluation when converting to the evaluation
    count of a single-individual algorithm.
    """
    start = _checked_start(chain, start)
    mask = chain.absorbing if target is None else target
    times = expected_hitting_times_to(chain, mask)
    # Levels without start mass drop out: 0 * inf would be NaN.
    return float(np.dot(start, np.where(start > 0, times, 0.0)))


def exact_success_probability(chain: LevelChain, start: np.ndarray, t: int) -> float:
    """Probability that the optimum has been reached within ``t`` generations."""
    if t < 0:
        raise DomainError("t must be non-negative")
    v = _checked_start(chain, start)
    for _ in range(t):
        remaining = float(v[~chain.absorbing].sum())
        if remaining < 1e-300:
            break
        v = v @ chain.P
    return float(v[chain.absorbing].sum())


def _drift(matrix: np.ndarray, d: np.ndarray, rows) -> np.ndarray:
    """Expected one-step decrease of ``d`` under ``matrix`` at ``rows``; NaN elsewhere."""
    drift = np.full(d.size, np.nan)
    for z in rows:
        drift[z] = float(np.dot(matrix[z], d[z] - d))
    return drift


def exact_drift(chain: LevelChain, distance) -> np.ndarray:
    """Per-level expected one-step decrease of ``distance``.

    ``distance`` maps a zeros-count to a non-negative real and must be 0
    exactly on the absorbing levels.  Absorbing entries of the result
    are NaN.
    """
    d = np.array([float(distance(z)) for z in range(chain.n + 1)])
    if np.any(d[chain.absorbing] != 0.0) or np.any(d[~chain.absorbing] <= 0.0):
        raise DomainError("distance must vanish exactly on absorbing levels")
    return _drift(chain.P, d, np.flatnonzero(~chain.absorbing))


def mutation_drift(chain: LevelChain, distance) -> np.ndarray:
    """Like :func:`exact_drift` but on the raw mutation kernel (no selection)."""
    d = np.array([float(distance(z)) for z in range(chain.n + 1)])
    return _drift(chain.mutation_kernel, d, range(chain.n + 1))


def jump_tail(chain: LevelChain, z: int, j: int) -> float:
    """P(|level change| >= j) under the accepted transition kernel at ``z``."""
    if not 0 <= z <= chain.n:
        raise DomainError("zeros-count out of range")
    if j < 0:
        raise DomainError("j must be non-negative")
    row = chain.P[z]
    levels = np.arange(chain.n + 1)
    return float(row[np.abs(levels - z) >= j].sum())


# ---------------------------------------------------------------------------
# Fitness-level data for the AFL theorems


@dataclass(frozen=True)
class FitnessLevelData:
    """Exact per-level quantities for an f-based partition by fitness value.

    Levels are ordered by increasing fitness, the top level holding the
    optima.  ``s_min``/``s_max`` are the exact minimum/maximum over the
    states of each non-top level of the probability of moving to a level
    of strictly better fitness; they serve as the lower-bound and
    upper-bound instantiations of the fitness-level theorems.
    """

    levels: tuple[tuple[int, ...], ...]
    s_min: np.ndarray
    s_max: np.ndarray


def _fitness_classes(values: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Levels grouped by fitness value: one ascending tuple of levels per
    distinct value of ``values``, in increasing order of value."""
    order = np.argsort(values, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(values[order])) + 1).tolist(), values.size]
    order = order.tolist()
    return tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))


def fitness_level_data(chain: LevelChain) -> FitnessLevelData:
    values = chain.value_table
    levels = _fitness_classes(values)
    s_min = np.empty(len(levels) - 1)
    s_max = np.empty(len(levels) - 1)
    for i, level in enumerate(levels[:-1]):
        better = values > values[level[0]]
        probs = [float(chain.P[z, better].sum()) for z in level]
        s_min[i] = min(probs)
        s_max[i] = max(probs)
    return FitnessLevelData(levels=levels, s_min=s_min, s_max=s_max)
