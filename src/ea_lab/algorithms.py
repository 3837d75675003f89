"""Instrumented, budgeted runs of RLS, the (1+1) EA, the (mu+lambda) EA
and the (mu,lambda) EA, all started through :func:`run_algorithm`.

Runtime is counted in fitness evaluations including the initial
population, so the initial evaluation can already hit the optimum.
On a unitation function the zeros-count of each individual is a
sufficient statistic, so runs there are simulated on levels, from the
same mutation-kernel rows as the exact oracle; generic objectives are
simulated bit by bit.

- RLS and the (1+1) EA on levels use a jump-chain sampler: it draws how
  long the run stays on a level and where it moves next, so a run costs
  O(level changes) rather than O(evaluations).  On bits they loop over
  evaluations.
- Population EAs share one generation loop over a representation of the
  population.  On levels a population is a histogram of counts per
  level, since its individuals are exchangeable: a generation costs
  one multinomial per occupied parent level, not O(lambda) draws.  On
  bits it is a mu x n bit array.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    Bitstring,
    DomainError,
    FitnessFunction,
    MutationParams,
    UnitationSpec,
    flip_count_pmf_table,
    mutation_kernel_row,
)

_BATCH = 256


class AlgorithmKind(Enum):
    RLS = "RLS"
    ONE_PLUS_ONE_EA = "OnePlusOneEA"
    MU_PLUS_LAMBDA_EA = "MuPlusLambdaEA"
    MU_COMMA_LAMBDA_EA = "MuCommaLambdaEA"


_SINGLE_KINDS = (AlgorithmKind.RLS, AlgorithmKind.ONE_PLUS_ONE_EA)


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
        if self.kind in _SINGLE_KINDS:
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


class RunTrace(NamedTuple):
    """One algorithm run: evaluation counter, best-so-far fitness history
    as (evaluation_index, fitness) pairs, and the 1-based evaluation
    index at which an optimum (or the requested target fitness) was
    first evaluated.  ``hit_time`` is absent iff the run was censored by
    the budget."""

    evaluations: int
    best_fitness_history: list[tuple[int, float]]
    hit_time: int | None
    censored: bool
    level_transitions: np.ndarray | None = None

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
    probabilities, ending at s.  ``dests`` repeats its last level once
    more, for a bisection of ``cum`` at U * s that rounds up to s.  A
    destination whose probability does not change the float cumulative
    sum can never be picked by bisection, so it is dropped; that keeps
    each table as short as the mutation's effective support.
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
                dests = (moves[:useful] + lo).tolist()
                entry = (log_stay, dests + dests[-1:], cum[:useful].tolist())
            self.levels[z] = entry
        return entry


_cached_jump_chain = functools.lru_cache(maxsize=16)(_JumpChain)
_last_jump_chain: tuple = (None, None, None)


def _jump_chain(spec: UnitationSpec, rate: float | None) -> _JumpChain:
    """The cached chain of ``spec`` under ``rate``.  The runs of a batch
    share one spec object, so the last request is matched by identity,
    without hashing the spec."""
    global _last_jump_chain
    last_spec, last_rate, chain = _last_jump_chain
    if last_spec is not spec or last_rate != rate:
        chain = _cached_jump_chain(spec, rate)
        _last_jump_chain = (spec, rate, chain)
    return chain


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
    changes), not O(evaluations).

    Uniforms are drawn in batches that double from 16 to ``_BATCH``, so a
    short run draws few that it does not use; consecutive batches continue
    one stream, so the sizes do not change the uniforms a run sees."""
    chain = _jump_chain(spec, None if cfg.kind is AlgorithmKind.RLS else cfg.mutation.rate)
    values, levels = chain.values, chain.levels
    max_evals = budget.max_evaluations

    z = int(rng.binomial(spec.n, 0.5)) if start_zeros is None else int(start_zeros)
    evals = 1
    best = values[z]
    history = [(1, best)]
    hit = 1 if best >= target else None

    uniforms, i = [], 0
    size = 8  # doubled before each batch: 16, 32, ..., _BATCH
    while hit is None:
        log_stay, dests, cum = levels.get(z) or chain.level(z)
        if i + 2 > len(uniforms):  # a level change takes at most two
            size = min(2 * size, _BATCH)
            uniforms = uniforms[i:] + rng.random(size).tolist()
            i = 0
        left = max_evals - evals
        # Self-loops before the move: floor(log(U) / log(1 - s)), U in (0, 1].
        if log_stay is None:
            stays = left
        else:
            stays = math.log1p(-uniforms[i]) / log_stay
            i += 1
        if stays >= left:
            if trans is not None:
                trans[z, z] += left
            evals = max_evals
            break
        stays = int(stays)
        evals += stays + 1
        k = bisect.bisect_right(cum, uniforms[i] * cum[-1])
        i += 1
        z_new = dests[k]
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
            masks = (rng.random((_BATCH, n)) < p).view(np.uint8)
            flips = masks.any(axis=1).tolist()
        for i in range(_BATCH):
            if evals >= max_evals:
                break
            evals += 1
            if is_rls:
                y = x.copy()
                y[positions[i]] ^= 1
            elif flips[i]:
                y = x ^ masks[i]
            else:
                continue  # an offspring that flips no bit is a copy of x, fitness fx
            fy = float(f.fn(y))
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
#
# A representation handles two kinds of object.  A *batch* is a set of
# individuals just evaluated, in evaluation order: the initial population
# or one generation's offspring.  A *population* is what selection keeps.
# Its hooks: ``init`` draws the initial batch; ``best`` is a batch's best
# fitness; ``first_indices`` gives the 1-based positions in a batch of the
# first individual at least as good as a value and of the first one that
# reaches the target; ``populate`` turns a batch into a population;
# ``elite`` keeps a population's best mu (the comma strategy's exchangeable
# sort); ``breed`` draws lambda offspring of uniformly chosen parents; and
# ``survivors`` keeps the best mu of offspring and parents (the plus
# strategy, ties broken by the configured rule).


def _first_of(h: int, size: int, u: float) -> int:
    """The smallest element of a uniform h-subset of 1..size, by inversion
    at the uniform ``u`` of its survival function P(min > t) =
    C(size - t, h) / C(size, h), bisected in log space: O(log size)."""
    if h == 1:
        return int(u * size) + 1
    log_v = math.log1p(-u)
    lgamma = math.lgamma
    log_norm = lgamma(size + 1) - lgamma(size - h + 1)
    lo, hi = 0, size - h + 1  # P(min > lo) >= 1 - u > P(min > hi) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lgamma(size - mid + 1) - lgamma(size - mid - h + 1) - log_norm < log_v:
            hi = mid
        else:
            lo = mid
    return hi


def _merged(rows: list[dict]) -> dict:
    """The counts of several histograms added up."""
    if len(rows) == 1:
        return rows[0]
    total = dict(rows[0])
    for row in rows[1:]:
        for pos, count in row.items():
            total[pos] = total.get(pos, 0) + count
    return total


class _LevelPop(NamedTuple):
    """A population on levels: ``rows`` are its cohorts, youngest first,
    each a histogram; ``top`` is the rank position of its first best
    individual."""

    rows: list[dict]
    top: int


class _Levels:
    """Populations of a unitation function as counts per zeros-count level.

    The individuals of a batch are exchangeable, so a batch is a
    histogram, here a dict from *rank position* (levels by fitness, best
    first) to count; a *class* is a run of positions of equal fitness.
    One generation draws the parents' levels as one multinomial over the
    parent histogram, and each occupied parent level's offspring as one
    multinomial over its row of ``core.mutation_kernel_row``, the row the
    exact oracle and the jump chain use.  Truncation keeps the best
    classes; where it cuts a class of several levels, the kept
    individuals are a multivariate hypergeometric draw.

    The (mu+lambda) EA under ``PREFER_OFFSPRING`` ranks tied individuals
    youngest first, so where a class has several levels its population
    keeps one histogram per cohort.  The first best individual, when it
    is drawn from a batch, gets a cohort of its own ahead of the rest of
    the batch: it heads the rank order, so every cut of its class keeps
    it.  Counts on levels of single-level classes go to the first
    cohort, since their order changes nothing.
    """

    def __init__(self, spec: UnitationSpec, cfg: AlgorithmConfig):
        self.n, self.rate = spec.n, cfg.mutation.rate
        self.mu, self.lam = cfg.mu, cfg.lam
        self.uniform = cfg.tie_break is TieBreak.UNIFORM_RANDOM
        self.rank = np.argsort(-spec.value_table, kind="stable")
        self.position = np.argsort(self.rank)
        values = spec.value_table[self.rank]
        self.values = values.tolist()
        new = np.r_[True, values[1:] != values[:-1]]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], values.size]
        cls = np.cumsum(new) - 1
        self.cls_start, self.cls_end = starts[cls].tolist(), ends[cls].tolist()
        self.tied = ((ends - starts)[cls] > 1).tolist()
        self.keep_order = (
            cfg.kind is AlgorithmKind.MU_PLUS_LAMBDA_EA and not self.uniform and any(self.tied)
        )
        self.start = flip_count_pmf_table(spec.n, 0.5)[self.rank]
        self.rows: dict[int, tuple[list[int], np.ndarray]] = {}

    def _row(self, pos: int) -> tuple[list[int], np.ndarray]:
        """The kernel row of the level at ``pos`` as (destination
        positions, probabilities), most likely first, so that reading a
        multinomial draw stops after the few categories that take all
        the offspring."""
        entry = self.rows.get(pos)
        if entry is None:
            lo, probs = mutation_kernel_row(self.n, int(self.rank[pos]), self.rate)
            order = np.argsort(-probs, kind="stable")
            entry = self.rows[pos] = (self.position[lo + order].tolist(), probs[order])
        return entry

    def level(self, pop: _LevelPop) -> int:
        return int(self.rank[pop.top])

    def init(self, rng: np.random.Generator, size: int, start_zeros: int | None) -> dict:
        if start_zeros is None:
            draw = rng.multinomial(size, self.start).tolist()
            return {pos: count for pos, count in enumerate(draw) if count}
        return {int(self.position[start_zeros]): size}

    def best(self, batch: dict) -> float:
        return self.values[min(batch)]

    def _at_least(self, counts: dict, value: float) -> int:
        """The number of individuals of fitness at least ``value``."""
        return sum(count for pos, count in counts.items() if self.values[pos] >= value)

    def first_indices(self, batch, value, target, rng):
        # In a uniform arrangement of the batch, the individuals at least
        # as good as `value` take a uniform h-subset of the positions, and
        # the others that reach the target a uniform subset of the rest.
        size = sum(batch.values())
        h = self._at_least(batch, value)
        first = _first_of(h, size, rng.random())
        if value < target:
            return first, None
        others = self._at_least(batch, target) - h
        if others == 0:
            return first, first
        return first, min(first, _first_of(others, size - h, rng.random()))

    def _pick(self, counts: dict, rng: np.random.Generator) -> int:
        """Rank position of a uniformly chosen individual of the best class."""
        pos = min(counts)
        end = self.cls_end[pos]
        if end - self.cls_start[pos] == 1:
            return pos
        tied = sorted(p for p in counts if p < end)
        cum = list(itertools.accumulate(counts[p] for p in tied))
        return tied[bisect.bisect_right(cum, int(rng.random() * cum[-1]))]

    def _pin(self, counts: dict, top: int) -> list[dict]:
        """``counts`` as cohorts, the individual at ``top`` first."""
        if not self.tied[top]:
            return [counts]
        rest = dict(counts)
        rest[top] -= 1
        if not rest[top]:
            del rest[top]
        return [{top: 1}, rest]

    def populate(self, batch, rng):
        top = self._pick(batch, rng)
        return _LevelPop(self._pin(batch, top) if self.keep_order else [batch], top)

    def _truncate(self, cohorts: list[dict], rng: np.random.Generator) -> list[dict]:
        """The best mu individuals of ``cohorts``.  The class where the cut
        falls is kept youngest cohort first and, within a cohort, as a
        uniform subset."""
        total = _merged(cohorts)
        ordered = sorted(total)
        left, i = self.mu, 0
        while True:  # find the class [start, end) where the cut falls
            start, end = self.cls_start[ordered[i]], self.cls_end[ordered[i]]
            count = 0
            while i < len(ordered) and ordered[i] < end:
                count += total[ordered[i]]
                i += 1
            if count >= left:
                break
            left -= count
        kept = []
        for cohort in cohorts:
            row = {pos: c for pos, c in cohort.items() if pos < start}
            part = sorted((pos, c) for pos, c in cohort.items() if start <= pos < end)
            count = sum(c for _, c in part)
            if count > left:
                if left and len(part) > 1:
                    draw = rng.multivariate_hypergeometric([c for _, c in part], left)
                    part = list(zip([pos for pos, _ in part], draw.tolist()))
                else:
                    part = [(pos, left) for pos, _ in part[:1]]
                count = left
            row.update((pos, c) for pos, c in part if c)
            left -= count
            kept.append(row)
        return kept

    def elite(self, pop, rng):
        return _LevelPop(self._truncate(pop.rows, rng), pop.top)

    def breed(self, parents, rng):
        occupied = sorted(_merged(parents.rows).items())
        if len(occupied) == 1:
            draws = [self.lam]
        else:
            weights = [count / self.mu for _, count in occupied]
            draws = rng.multinomial(self.lam, weights).tolist()
        off: dict[int, int] = {}
        for (pos, _), count in zip(occupied, draws):
            if not count:
                continue
            dests, probs = self._row(pos)
            for dest, k in zip(dests, rng.multinomial(count, probs).tolist()):
                if k:
                    off[dest] = off.get(dest, 0) + k
                    count -= k
                    if not count:
                        break
        return off

    def survivors(self, off, pop, rng):
        rows, top = pop
        if self.keep_order:
            first, older = off, list(rows)
        else:
            first, older = _merged([off, *rows]), []
        # The first cohort supplies a new first best individual: any tied
        # one under UNIFORM_RANDOM, else an offspring at least as good as
        # the current one.
        if self.uniform or self.cls_start[min(off)] <= self.cls_start[top]:
            top = self._pick(first, rng)
            cohorts = self._pin(first, top) + older
        else:
            cohorts = [first, *older]
        kept = self._truncate(cohorts, rng)
        if not self.keep_order:
            return _LevelPop([_merged(kept)], top)
        head = kept[0]
        for row in kept[1:]:
            for pos in [p for p in row if not self.tied[p]]:
                head[pos] = head.get(pos, 0) + row.pop(pos)
        return _LevelPop([row for row in kept if row], top)


@functools.lru_cache(maxsize=16)
def _levels(spec: UnitationSpec, cfg: AlgorithmConfig) -> _Levels:
    return _Levels(spec, cfg)


class _Bits:
    """A population of bitstrings, one row each, of a generic objective;
    a batch and a population are both ``(bits, fitness)`` arrays in
    evaluation or rank order."""

    def __init__(self, f: FitnessFunction, cfg: AlgorithmConfig):
        self.n, self.fn, self.rate = f.n, f.fn, cfg.mutation.rate
        self.mu, self.lam = cfg.mu, cfg.lam
        self.uniform = cfg.tie_break is TieBreak.UNIFORM_RANDOM

    def _evaluated(self, pop: np.ndarray):
        return pop, np.array([float(self.fn(row)) for row in pop])

    def init(self, rng: np.random.Generator, size: int, start_zeros: int | None):
        if start_zeros is None:
            return self._evaluated(rng.integers(0, 2, size=(size, self.n), dtype=np.uint8))
        pop = np.ones((size, self.n), dtype=np.uint8)
        for row in pop:
            row[rng.choice(self.n, size=int(start_zeros), replace=False)] = 0
        return self._evaluated(pop)

    def best(self, batch) -> float:
        return float(batch[1].max())

    def first_indices(self, batch, value, target, rng):
        fit = batch[1]
        hit = int(np.argmax(fit >= target)) + 1 if value >= target else None
        return int(np.argmax(fit >= value)) + 1, hit

    def populate(self, batch, rng):
        return batch

    def elite(self, pop, rng):
        keep = comma_selection_order(pop[1], rng)[: self.mu]
        return pop[0][keep], pop[1][keep]

    def breed(self, parents, rng):
        chosen = parents[0][rng.integers(0, self.mu, size=self.lam)]
        return self._evaluated(chosen ^ (rng.random(chosen.shape) < self.rate).astype(np.uint8))

    def survivors(self, off, pop, rng):
        combined = np.concatenate([off[0], pop[0]])  # offspring first on ties
        cfit = np.concatenate([off[1], pop[1]])
        if self.uniform:
            order = comma_selection_order(cfit, rng)
        else:
            order = np.argsort(-cfit, kind="stable")
        keep = order[: self.mu]
        return combined[keep], cfit[keep]


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
    comma = cfg.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA
    pop_size = cfg.initial_population
    if max_evals < pop_size:
        raise DomainError("budget smaller than the initial population")

    batch = rep.init(rng, pop_size, start_zeros)
    evals = pop_size
    best = rep.best(batch)
    first, hit = rep.first_indices(batch, best, target, rng)
    history = [(first, best)]
    pop = rep.populate(batch, rng)

    while hit is None and evals + cfg.lam <= max_evals:
        off = rep.breed(rep.elite(pop, rng) if comma else pop, rng)
        gen_best = rep.best(off)
        if gen_best > best:
            first, first_hit = rep.first_indices(off, gen_best, target, rng)
            history.append((evals + first, gen_best))
            best = gen_best
            if first_hit is not None:
                hit = evals + first_hit
        evals += cfg.lam
        new = rep.populate(off, rng) if comma else rep.survivors(off, pop, rng)
        if trans is not None:
            # Transitions are counted between the levels of successive
            # first best individuals.
            trans[rep.level(pop), rep.level(new)] += 1
        pop = new

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

    if cfg.kind in _SINGLE_KINDS:
        if levels:
            return _run_single_level(f, cfg, budget, rng, start_zeros, target, trans)
        return _run_single_bits(f, cfg, budget, rng, start_zeros, target)
    rep = _levels(f, cfg) if levels else _Bits(f, cfg)
    return _run_population(rep, cfg, budget, rng, start_zeros, target, trans)


def uses_jump_chain(f: UnitationSpec | FitnessFunction, cfg: AlgorithmConfig) -> bool:
    """Whether runs of ``cfg`` on ``f`` take the jump-chain sampler: RLS or
    the (1+1) EA on a unitation function, whose exact level chain the
    oracle builds from the same kernel rows."""
    return isinstance(f, UnitationSpec) and cfg.kind in _SINGLE_KINDS


def rls_config(n: int) -> AlgorithmConfig:
    return AlgorithmConfig(AlgorithmKind.RLS, MutationParams(n=n, chi=1.0))


def one_plus_one_config(n: int, chi: float = 1.0) -> AlgorithmConfig:
    return AlgorithmConfig(AlgorithmKind.ONE_PLUS_ONE_EA, MutationParams(n=n, chi=chi))
