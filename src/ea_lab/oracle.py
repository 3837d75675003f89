"""Exact analysis of single-individual elitist algorithms on unitation
functions.

The zeros-count of the current search point is a sufficient statistic
for RLS and the (1+1) EA on a unitation function, so their dynamics form
an absorbing Markov chain on the n+1 zeros-count levels.  Expected
hitting times, success probabilities and exact drift values computed
here are the ground truth that both the closed-form bounds and the
Monte Carlo estimates are checked against.

The chain is banded, and it is a :class:`MoveTable`: the accepted moves
of each level, read from the ``kernel_row`` of the mutation operator
(:class:`~ea_lab.core.OneBitFlip` for RLS,
:class:`~ea_lab.core.MutationParams` for the (1+1) EA).  The jump-chain
sampler of :mod:`ea_lab.algorithms` reads the same table, level by level
as its runs reach them; :func:`build_level_chain` tables every level.  It
costs O(n w) for rows of w entries (a few hundred for standard bit
mutation at chi = 1, two for RLS).

Selection is elitist, so the chain never moves to a level of lower
fitness and the hitting-time system is block-triangular in fitness
order.  It is solved one fitness class
(:func:`~ea_lab.core.fitness_classes`) at a time, best class first: one
division by s for a class of one level (accurate even where the self-loop
rounds to 1), and one state-reduction pass over its band for a plateau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DomainError, Mutation, MutationParams, OneBitFlip, UnitationSpec, fitness_classes,
    flip_count_pmf_table
)

# An exact chain's cost, estimated before it is built.  Its rows take
# _ENTRY_BYTES per kernel-row entry plus _LEVEL_BYTES per level, 15 kB a
# level for standard bit mutation at chi = 1, and the plateau solve of its
# largest fitness class c a band of 8 c (2w + 1) bytes: 0.085 GB for
# needle(4096), 0.76 GB for OneMax(50,000).  Work is counted in flops of
# the plateau solve, c w^2 for c levels whose moves span w places, 1.2 ns
# each on a 2-CPU Xeon VM; by measured time a row entry costs 80, a level
# 10^4 and a plateau level 2 10^4 more.  The oracle runs by default up to
# the work of needle(512) at chi = 255 (0.2 s), the most of any n <= 512.
CHAIN_BYTES, DEFAULT_WORK = 800_000_000, 1.71e8
_ENTRY_BYTES, _LEVEL_BYTES = 40, 1000
_ENTRY_WORK, _LEVEL_WORK, _PLATEAU_LEVEL_WORK = 80, 10_000, 20_000


class Moves(NamedTuple):
    """The accepted moves out of one level: each destination other than
    the level itself, most likely first, its probability, and their
    running sum, which ends at s, the probability of leaving the level.
    The self-loop, 1 - s, is not stored."""

    dests: np.ndarray
    probs: np.ndarray
    cum: np.ndarray
    s: float  # cum[-1], or 0 without moves


class MoveTable:
    """The exact level chain of RLS or the (1+1) EA on ``spec`` under
    ``mutation``, whose accepted offspring are those at least as fit as
    the parent: ``level(z)`` tables the :class:`Moves` of level ``z`` on
    first request, and ``jump(z)`` the sampler's view of them, kept in
    ``jumps``.  ``classes`` are the levels' fitness classes, best first,
    and ``absorbing`` masks the optimum, the level without moves."""

    def __init__(self, spec: UnitationSpec, mutation: Mutation):
        self.n, self.value_table, self.mutation = spec.n, spec.value_table, mutation
        self.values = spec.value_table.tolist()
        self.classes = fitness_classes(spec.value_table)
        self.absorbing = spec.value_table == spec.value_table.max()
        self.levels: dict[int, Moves] = {}
        self.jumps: dict[int, tuple] = {}

    def level(self, z: int) -> Moves:
        moves = self.levels.get(z)
        if moves is None:
            lo, probs = self.mutation.kernel_row(z)
            accepted = self.value_table[lo : lo + probs.size] >= self.values[z]
            if lo <= z < lo + probs.size:
                accepted[z - lo] = False
            dests = accepted.nonzero()[0]
            dests = dests[(-probs[dests]).argsort(kind="stable")]
            probs = probs[dests]
            if probs.size and not probs[-1]:  # zeros, from underflowed tails, sort last
                keep = np.count_nonzero(probs)
                dests, probs = dests[:keep], probs[:keep]
            cum = probs.cumsum()
            s = float(cum[-1]) if cum.size else 0.0
            moves = self.levels[z] = Moves(dests + lo, probs, cum, s)
        return moves

    def jump(self, z: int) -> tuple:
        """``(log_stay, dests, cum)``: log(1 - s) (None when s = 0), and
        lists of the moves up to the first whose running sum reaches s,
        since the later ones cannot change the float sum and a bisection
        never picks them.  ``dests`` repeats its last level, for a
        bisection of ``cum`` at U * s that rounds up to s."""
        jump = self.jumps.get(z)
        if jump is None:
            dests, _, cum, s = self.level(z)
            if s == 0.0:
                jump = (None, [], [])
            else:
                useful = int(cum.searchsorted(s)) + 1
                log_stay = math.log1p(-s) if s < 1.0 else -math.inf  # s can round above 1
                picks = dests[:useful].tolist()
                jump = (log_stay, picks + picks[-1:], cum[:useful].tolist())
            self.jumps[z] = jump
        return jump


_cached_move_table = functools.lru_cache(maxsize=8)(MoveTable)
_last_move_table: tuple = (None, None, None)


def move_table(spec: UnitationSpec, mutation: Mutation) -> MoveTable:
    """The process's table of ``spec`` under ``mutation``.  The runs of a
    batch share one spec and one operator object, so the last request is
    matched by identity, without hashing them."""
    global _last_move_table
    last_spec, last_mutation, table = _last_move_table
    if last_spec is not spec or last_mutation is not mutation:
        table = _cached_move_table(spec, mutation)
        _last_move_table = (spec, mutation, table)
    return table


_DEFAULT_MUTATION = {"RLS": OneBitFlip, "OnePlusOneEA": MutationParams}
ChainCost = NamedTuple("ChainCost", [("nbytes", float), ("work", float)])


@functools.lru_cache(maxsize=8)
def chain_cost(spec: UnitationSpec, mutation: Mutation) -> ChainCost:
    """The estimated bytes and work of the chain of ``spec`` under ``mutation``,
    cached so that a point's default oracle and its build share one estimate."""
    n, width = spec.n, 2
    if isinstance(mutation, MutationParams):
        # A row convolves the flip counts of the zero-bits and of the
        # one-bits, each range at most that of all n bits.
        width = min(2 * np.count_nonzero(flip_count_pmf_table(n, mutation.rate)), n + 1)
    # Only the classes below the optimum are solved; a move spans less than a row.
    sizes = np.array([len(c) for c in fitness_classes(spec.value_table)[1:]], dtype=float)
    spans = np.minimum(sizes - 1, width - 1)
    band = float((sizes * (2 * spans + 1)).max(initial=0))
    plateaus = float(sizes @ (spans**2 + _PLATEAU_LEVEL_WORK * (sizes > 1)))
    return ChainCost((n + 1) * (_LEVEL_BYTES + _ENTRY_BYTES * width) + 8 * band,
                     (n + 1) * (_LEVEL_WORK + _ENTRY_WORK * width) + plateaus)


def build_level_chain(spec: UnitationSpec, kind: str, mutation: Mutation | None = None) -> MoveTable:
    """Exact level chain for RLS or the (1+1) EA on ``spec`` under
    ``mutation``, by default the kind's operator at chi = 1: the process's
    :func:`move_table`, with every level tabled.  A chain whose
    :func:`chain_cost` exceeds ``CHAIN_BYTES`` in bytes is refused before
    anything is allocated.
    """
    n = spec.n
    if kind not in _DEFAULT_MUTATION:
        raise DomainError(f"unsupported algorithm kind for oracle: {kind}")
    if mutation is None:
        mutation = _DEFAULT_MUTATION[kind](n)
    if not isinstance(mutation, _DEFAULT_MUTATION[kind]):
        raise DomainError("RLS, and only RLS, mutates by OneBitFlip")
    if mutation.n != n:
        raise DomainError("mutation parameters sized for a different n")
    size = chain_cost(spec, mutation).nbytes
    if size > CHAIN_BYTES:
        raise DomainError(f"the exact level chain at n = {n} needs about {size / 1e9:.3g} GB; "
                          f"it is built up to {CHAIN_BYTES / 1e9:.3g} GB only")
    table = move_table(spec, mutation)
    for z in range(n + 1):
        table.level(z)
    return table


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


def expected_hitting_times_to(chain: MoveTable, target: np.ndarray) -> np.ndarray:
    """Expected generations to first reach any level in ``target``
    (a boolean mask), 0 on target levels themselves.

    A level that can reach, with positive probability, a level that never
    reaches the target (such as a trap of RLS on a gap) takes forever.

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
    # Best class first: every move out of a class goes to a level already
    # solved.  Levels not yet solved, and those that never reach the target,
    # hold inf, which a move to them carries over (every move has p > 0).
    t = np.where(target, 0.0, np.inf)
    for level in chain.classes:
        idx = [z for z in level if not target[z]]
        if len(idx) == 1:
            m = chain.level(idx[0])
            if m.dests.size:
                t[idx[0]] = (1.0 + m.probs @ t[m.dests]) / m.s
        elif idx:
            _solve_plateau(chain, np.array(idx), t)
    return t


def _solve_plateau(chain: MoveTable, idx: np.ndarray, t: np.ndarray) -> None:
    """Solve into ``t`` the times of ``idx``, the non-target levels of one
    fitness class, by state reduction (Grassmann, Taksar & Heyman 1985).
    The last level goes first: divided by its leave mass, a sum that never
    subtracts, its moves, exit mass and right-hand side pass to the levels
    that move into it.  In-class moves stay within w places in class
    order, and so does the fill: O(c w^2) time and O(c w) memory."""
    c = idx.size
    at = np.full(chain.n + 1, -1)
    at[idx] = np.arange(c)
    level_moves = [chain.level(z) for z in idx.tolist()]
    places = [at[m.dests] for m in level_moves]  # -1 outside the class
    w = max(1, *(int(np.abs(p[p >= 0] - i).max(initial=0)) for i, p in enumerate(places)))
    # Only the band |i - j| <= w is stored, the entries the pass touches:
    # row i starts 2w floats after row i - 1, so it owns 2w + 1 slots.
    band, rhs, exits = np.zeros(c * (2 * w + 1) + 2 * w), np.ones(c), np.zeros(c)
    block = np.lib.stride_tricks.as_strided(band[w:], (c, c), (16 * w, 8))
    for i, (m, p) in enumerate(zip(level_moves, places)):
        inside, out = p >= 0, p < 0
        block[i, p[inside]] = m.probs[inside]
        exits[i] = m.probs[out].sum()
        rhs[i] += m.probs[out] @ t[m.dests[out]]
    with np.errstate(over="ignore"):  # a time beyond float range is inf
        for k in range(c - 1, -1, -1):
            lo = max(k - w, 0)
            row, into = block[k, lo:k], block[lo:k, k]
            s = row.sum() + exits[k]
            rhs[k] = rhs[k] / s if s else np.inf  # it never leaves
            if rhs[k] < np.inf:
                row /= s
                block[lo:k, lo:k] += np.outer(into, row)
                exits[lo:k] += into * (exits[k] / s)
            moves = into > 0  # infinity passes on, and 0 * inf is NaN
            rhs[lo:k][moves] += into[moves] * rhs[k]
        for k in range(1, c):
            lo = max(k - w, 0)
            moves = block[k, lo:k] > 0
            rhs[k] += block[k, lo:k][moves] @ rhs[lo:k][moves]
    t[idx] = rhs


def _checked_start(chain: MoveTable, start) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if start.shape != (chain.n + 1,) or start.min() < 0 or abs(start.sum() - 1.0) > 1e-9:
        raise DomainError("start must be a distribution over levels 0..n")
    return start


def exact_expected_hitting_time(
    chain: MoveTable, start: np.ndarray, target: np.ndarray | None = None
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


def exact_success_probability(chain: MoveTable, start: np.ndarray, t: int) -> float:
    """Probability that the optimum has been reached within ``t`` generations."""
    if t < 0:
        raise DomainError("t must be non-negative")
    v = _checked_start(chain, start)
    # A step keeps 1 - s of each level's mass and moves the rest along its moves.
    moves = [chain.level(z) for z in range(chain.n + 1)]
    src = np.repeat(np.arange(chain.n + 1), [m.dests.size for m in moves])
    dests = np.concatenate([m.dests for m in moves])
    probs = np.concatenate([m.probs for m in moves])
    stay = 1.0 - np.array([m.s for m in moves])
    transient = ~chain.absorbing
    for _ in range(t):
        if v[transient].sum() < 1e-300:
            break
        v = v * stay + np.bincount(dests, v[src] * probs, chain.n + 1)
    return float(v[chain.absorbing].sum())


def exact_drift(chain: MoveTable, distance) -> np.ndarray:
    """Per-level expected one-step decrease of ``distance``.

    ``distance`` maps a zeros-count to a non-negative real and must be 0
    exactly on the absorbing levels.  Absorbing entries of the result
    are NaN.
    """
    d = np.array([float(distance(z)) for z in range(chain.n + 1)])
    if np.any(d[chain.absorbing] != 0.0) or np.any(d[~chain.absorbing] <= 0.0):
        raise DomainError("distance must vanish exactly on absorbing levels")
    drift = np.full(d.size, np.nan)
    for z in np.flatnonzero(~chain.absorbing).tolist():
        m = chain.level(z)
        drift[z] = float(m.probs @ (d[z] - d[m.dests]))
    return drift


def jump_tail(chain: MoveTable, z: int, j: int) -> float:
    """P(|level change| >= j) under the accepted transition kernel at ``z``."""
    if not 0 <= z <= chain.n:
        raise DomainError("zeros-count out of range")
    if j < 0:
        raise DomainError("j must be non-negative")
    if j == 0:
        return 1.0
    m = chain.level(z)
    return float(m.probs[np.abs(m.dests - z) >= j].sum())


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


def fitness_level_data(chain: MoveTable) -> FitnessLevelData:
    values = chain.value_table
    levels = chain.classes[::-1]
    s_min = np.empty(len(levels) - 1)
    s_max = np.empty(len(levels) - 1)
    for i, level in enumerate(levels[:-1]):
        # The probability of moving to a level of strictly better fitness.
        moves = [chain.level(z) for z in level]
        probs = [float(m.probs[values[m.dests] > values[z]].sum()) for z, m in zip(level, moves)]
        s_min[i] = min(probs)
        s_max[i] = max(probs)
    return FitnessLevelData(levels=levels, s_min=s_min, s_max=s_max)
