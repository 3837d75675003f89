"""Instrumented, budgeted runs of RLS, the (1+1) EA, the (mu+lambda) EA
and the (mu,lambda) EA, all started through :func:`run_algorithm`.

Runtime is counted in fitness evaluations including the initial
population, so the initial evaluation can already hit the optimum.
Population EAs share one generation loop over a representation of the
population: zeros-count levels on unitation functions (the sufficient
statistic, distribution-equivalent to bit-level simulation and much
faster), or a mu x n bit array for arbitrary objectives.  RLS and the
(1+1) EA keep single-individual fast paths.  On bits, that is a loop over
evaluations.  On levels, it is a jump-chain sampler: it draws how long
the run stays on a level and where it moves next, from the same
mutation-kernel rows as the exact oracle, so a run costs O(level
changes) rather than O(evaluations).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    Bitstring,
    DomainError,
    FitnessFunction,
    MutationParams,
    UnitationSpec,
    mutation_kernel_row,
)

_BATCH = 256


class AlgorithmKind(Enum):
    RLS = "RLS"
    ONE_PLUS_ONE_EA = "OnePlusOneEA"
    MU_PLUS_LAMBDA_EA = "MuPlusLambdaEA"
    MU_COMMA_LAMBDA_EA = "MuCommaLambdaEA"


class TieBreak(Enum):
    PREFER_OFFSPRING = "PreferOffspring"
    UNIFORM_RANDOM = "UniformRandom"


@dataclass(frozen=True)
class AlgorithmConfig:
    kind: AlgorithmKind
    mutation: MutationParams
    mu: int = 1
    lam: int = 1
    tie_break: TieBreak = TieBreak.PREFER_OFFSPRING

    def __post_init__(self) -> None:
        if self.mu < 1 or self.lam < 1:
            raise DomainError("mu and lambda must be positive")
        if self.kind in (AlgorithmKind.RLS, AlgorithmKind.ONE_PLUS_ONE_EA):
            if self.mu != 1 or self.lam != 1:
                raise DomainError(f"{self.kind.value} forces mu = lambda = 1")
        if self.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA:
            if self.lam < self.mu:
                raise DomainError("(mu,lambda) EA requires lambda >= mu")
            if not 0 < self.mutation.chi < self.mutation.n / 2:
                raise DomainError("(mu,lambda) EA requires chi in (0, n/2)")

    @property
    def initial_population(self) -> int:
        # The comma strategy's state is the lambda offspring.
        return self.lam if self.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA else self.mu


@dataclass(frozen=True)
class Budget:
    max_evaluations: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_evaluations < 1:
            raise DomainError("budget must be positive")


@dataclass
class RunTrace:
    """One algorithm run: evaluation counter, best-so-far fitness history
    as (evaluation_index, fitness) pairs, and the 1-based evaluation
    index at which an optimum (or the requested target fitness) was
    first evaluated.  ``hit_time`` is absent iff the run was censored by
    the budget."""

    evaluations: int
    best_fitness_history: list[tuple[int, float]]
    hit_time: int | None
    censored: bool
    level_transitions: np.ndarray | None = field(default=None, repr=False)

    @property
    def best_fitness(self) -> float:
        return self.best_fitness_history[-1][1]


# ---------------------------------------------------------------------------
# Single-individual fast paths (RLS and the (1+1) EA)


class _JumpChain:
    """The accepted moves of RLS or the (1+1) EA on a unitation function,
    tabled lazily per visited level.

    ``level(z)`` gives ``(log_stay, dests, cum)``: ``log_stay`` is
    log(1 - s), where s is the probability that one offspring is an
    accepted move to another level (None when s = 0); ``dests`` are those
    levels, most likely first, and ``cum`` their cumulative
    probabilities, ending at s.  A destination whose probability does not
    change the float cumulative sum can never be picked by bisection, so
    it is dropped; that keeps each table as short as the mutation's
    effective support.
    """

    def __init__(self, spec: UnitationSpec, rate: float | None):
        self.n, self.table, self.rate = spec.n, spec.value_table, rate
        self.values = spec.value_table.tolist()
        self.levels: dict[int, tuple] = {}

    def level(self, z: int) -> tuple:
        entry = self.levels.get(z)
        if entry is None:
            lo, probs = mutation_kernel_row(self.n, z, self.rate)
            hi = lo + probs.size
            accepted = self.table[lo:hi] >= self.table[z]
            if lo <= z < hi:
                accepted[z - lo] = False
            moves = np.flatnonzero(accepted)
            moves = moves[np.argsort(-probs[moves], kind="stable")]
            cum = np.cumsum(probs[moves])
            s = float(cum[-1]) if cum.size else 0.0
            if s == 0.0:
                entry = (None, [], [])
            else:
                # Moves after the first that brings cum to s add nothing.
                useful = int(np.searchsorted(cum, s)) + 1
                log_stay = math.log1p(-s) if s < 1.0 else -math.inf  # s can round above 1
                entry = (log_stay, (moves[:useful] + lo).tolist(), cum[:useful].tolist())
            self.levels[z] = entry
        return entry


@functools.lru_cache(maxsize=16)
def _jump_chain(spec: UnitationSpec, rate: float | None) -> _JumpChain:
    return _JumpChain(spec, rate)


def _uniforms(rng: np.random.Generator):
    """Uniforms on [0, 1), drawn in level-independent batches."""
    while True:
        yield from rng.random(_BATCH).tolist()


def _run_single_level(
    spec: UnitationSpec,
    cfg: AlgorithmConfig,
    budget: Budget,
    rng: np.random.Generator,
    start_zeros: int | None,
    target: float,
    trans: np.ndarray | None,
) -> RunTrace:
    """Jump-chain sampler: at each level, the number of offspring up to
    and including the first accepted move to another level is
    Geometric(s), drawn by inversion, and that move's destination is
    drawn by bisecting the cumulative distribution of accepted moves.
    Every other offspring is a self-loop, so a run costs O(level
    changes), not O(evaluations)."""
    chain = _jump_chain(spec, None if cfg.kind is AlgorithmKind.RLS else cfg.mutation.rate)
    values = chain.values
    max_evals = budget.max_evaluations

    z = int(rng.binomial(spec.n, 0.5)) if start_zeros is None else int(start_zeros)
    evals = 1
    best = values[z]
    history = [(1, best)]
    hit = 1 if best >= target else None

    uniforms = _uniforms(rng)
    while hit is None:
        log_stay, dests, cum = chain.level(z)
        left = max_evals - evals
        # Self-loops before the move: floor(log(U) / log(1 - s)), U in (0, 1].
        stays = left if log_stay is None else math.log1p(-next(uniforms)) / log_stay
        if stays >= left:
            if trans is not None:
                trans[z, z] += left
            evals = max_evals
            break
        stays = int(stays)
        evals += stays + 1
        k = bisect.bisect_right(cum, next(uniforms) * cum[-1])
        z_new = dests[min(k, len(dests) - 1)]  # U * s can round up to s
        if trans is not None:
            trans[z, z] += stays
            trans[z, z_new] += 1
        z = z_new
        fy = values[z]
        if fy > best:
            best = fy
            history.append((evals, fy))
        if fy >= target:
            hit = evals

    return RunTrace(evals, history, hit, hit is None, trans)


def _run_single_bits(
    f: FitnessFunction,
    cfg: AlgorithmConfig,
    budget: Budget,
    rng: np.random.Generator,
    start_zeros: int | None,
    target: float,
) -> RunTrace:
    n = f.n
    max_evals = budget.max_evaluations
    p = cfg.mutation.rate
    is_rls = cfg.kind is AlgorithmKind.RLS

    if start_zeros is None:
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
    else:
        x = np.ones(n, dtype=np.uint8)
        x[rng.choice(n, size=int(start_zeros), replace=False)] = 0
    fx = float(f.fn(x))
    evals = 1
    best = fx
    history = [(1, best)]
    hit = 1 if best >= target else None

    while hit is None and evals < max_evals:
        if is_rls:
            positions = rng.integers(0, n, _BATCH)
        else:
            masks = rng.random((_BATCH, n)) < p
        for i in range(_BATCH):
            if evals >= max_evals:
                break
            if is_rls:
                y = x.copy()
                y[positions[i]] ^= 1
            else:
                y = x ^ masks[i].astype(np.uint8)
            fy = float(f.fn(y))
            evals += 1
            if fy > best:
                best = fy
                history.append((evals, fy))
            if fy >= fx:
                x, fx = y, fy
            if fy >= target:
                hit = evals
                break
        if hit is not None:
            break

    return RunTrace(evals, history, hit, hit is None)


# ---------------------------------------------------------------------------
# Population EAs: one generation loop over two representations


class _Levels:
    """A population of zeros-counts of a unitation function."""

    def __init__(self, spec: UnitationSpec, rate: float):
        self.n, self.table, self.rate = spec.n, spec.value_table, rate

    def init(self, rng: np.random.Generator, size: int, start_zeros: int | None):
        if start_zeros is None:
            return rng.binomial(self.n, 0.5, size=size)
        return np.full(size, int(start_zeros))

    def mutate(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Standard bit mutation flips Bin(z, p) zero-bits and Bin(n - z, p) one-bits.
        d0 = rng.binomial(parents, self.rate)
        d1 = rng.binomial(self.n - parents, self.rate)
        return parents - d0 + d1

    def fitness(self, pop: np.ndarray) -> np.ndarray:
        return self.table[pop]


class _Bits:
    """A population of bitstrings, one row each, of a generic objective."""

    def __init__(self, f: FitnessFunction, rate: float):
        self.n, self.fn, self.rate = f.n, f.fn, rate

    def init(self, rng: np.random.Generator, size: int, start_zeros: int | None):
        if start_zeros is None:
            return rng.integers(0, 2, size=(size, self.n), dtype=np.uint8)
        pop = np.ones((size, self.n), dtype=np.uint8)
        for row in pop:
            row[rng.choice(self.n, size=int(start_zeros), replace=False)] = 0
        return pop

    def mutate(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return parents ^ (rng.random(parents.shape) < self.rate).astype(np.uint8)

    def fitness(self, pop: np.ndarray) -> np.ndarray:
        return np.array([float(self.fn(row)) for row in pop])


def comma_selection_order(fitness: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sort indices by fitness, descending, ties broken uniformly at
    random with a fresh permutation (the comma strategy's exchangeable
    sort)."""
    perm = rng.permutation(fitness.size)
    return perm[np.argsort(-fitness[perm], kind="stable")]


def _run_population(
    rep: _Levels | _Bits,
    cfg: AlgorithmConfig,
    budget: Budget,
    rng: np.random.Generator,
    start_zeros: int | None,
    target: float,
    trans: np.ndarray | None,
) -> RunTrace:
    """One run of a (mu+lambda) or (mu,lambda) EA; ``rep`` holds what
    depends on how individuals are represented."""
    max_evals = budget.max_evaluations
    mu, lam = cfg.mu, cfg.lam
    comma = cfg.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA
    pop_size = cfg.initial_population
    if max_evals < pop_size:
        raise DomainError("budget smaller than the initial population")

    pop = rep.init(rng, pop_size, start_zeros)
    fit = rep.fitness(pop)
    evals = pop_size
    best = float(fit.max())
    history = [(int(np.argmax(fit >= best)) + 1, best)]
    hit = int(np.argmax(fit >= target)) + 1 if best >= target else None
    # Transitions are counted between the levels of successive best individuals.
    best_z = int(pop[np.argmax(fit)]) if trans is not None else None

    while hit is None and evals + lam <= max_evals:
        elite = pop[comma_selection_order(fit, rng)[:mu]] if comma else pop
        off = rep.mutate(elite[rng.integers(0, mu, size=lam)], rng)
        off_fit = rep.fitness(off)
        gen_best = float(off_fit.max())
        if gen_best >= target:
            hit = evals + int(np.argmax(off_fit >= target)) + 1
        if gen_best > best:
            history.append((evals + int(np.argmax(off_fit >= gen_best)) + 1, gen_best))
            best = gen_best
        evals += lam

        if comma:
            pop, fit = off, off_fit
        else:
            combined = np.concatenate([off, pop])  # offspring first on ties
            cfit = np.concatenate([off_fit, fit])
            if cfg.tie_break is TieBreak.UNIFORM_RANDOM:
                order = comma_selection_order(cfit, rng)
            else:
                order = np.argsort(-cfit, kind="stable")
            keep = order[:mu]
            pop, fit = combined[keep], cfit[keep]

        if trans is not None:
            new_best_z = int(pop[np.argmax(fit)])
            trans[best_z, new_best_z] += 1
            best_z = new_best_z

    return RunTrace(evals, history, hit, hit is None, trans)


# ---------------------------------------------------------------------------
# Public entry point


def run_algorithm(
    f: UnitationSpec | FitnessFunction,
    cfg: AlgorithmConfig,
    budget: Budget,
    rng: np.random.Generator,
    start_zeros: int | None = None,
    target_fitness: float | None = None,
    record_transitions: bool = False,
) -> RunTrace:
    """Execute one run of the configured algorithm and return its trace.

    ``start_zeros`` forces the initial zeros-count (block-local
    experiments); ``target_fitness`` redefines success as reaching the
    given fitness instead of the optimum; ``record_transitions`` counts
    level transitions, on unitation functions only.
    """
    levels = isinstance(f, UnitationSpec)
    if record_transitions and not levels:
        raise DomainError("level transitions are recorded for unitation functions only")
    if cfg.mutation.n != f.n:
        raise DomainError("mutation parameters sized for a different n")
    if start_zeros is not None and not 0 <= start_zeros <= f.n:
        raise DomainError("forced start zeros-count out of range")
    target = f.optimum_value if target_fitness is None else target_fitness
    trans = np.zeros((f.n + 1, f.n + 1), dtype=np.int64) if record_transitions else None

    if cfg.kind in (AlgorithmKind.RLS, AlgorithmKind.ONE_PLUS_ONE_EA):
        if levels:
            return _run_single_level(f, cfg, budget, rng, start_zeros, target, trans)
        return _run_single_bits(f, cfg, budget, rng, start_zeros, target)
    rep = _Levels(f, cfg.mutation.rate) if levels else _Bits(f, cfg.mutation.rate)
    return _run_population(rep, cfg, budget, rng, start_zeros, target, trans)


def uses_jump_chain(f: UnitationSpec | FitnessFunction, cfg: AlgorithmConfig) -> bool:
    """Whether runs of ``cfg`` on ``f`` take the jump-chain sampler: RLS or
    the (1+1) EA on a unitation function, whose exact level chain the
    oracle builds from the same kernel rows."""
    return isinstance(f, UnitationSpec) and cfg.kind in (
        AlgorithmKind.RLS, AlgorithmKind.ONE_PLUS_ONE_EA
    )


def rls_config(n: int) -> AlgorithmConfig:
    return AlgorithmConfig(AlgorithmKind.RLS, MutationParams(n=n, chi=1.0))


def one_plus_one_config(n: int, chi: float = 1.0) -> AlgorithmConfig:
    return AlgorithmConfig(AlgorithmKind.ONE_PLUS_ONE_EA, MutationParams(n=n, chi=chi))
