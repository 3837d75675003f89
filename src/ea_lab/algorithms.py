"""Instrumented, budgeted runs of RLS, the (1+1) EA, the (mu+lambda) EA
and the (mu,lambda) EA, all started through :func:`run_algorithm`.

Runtime is counted in fitness evaluations including the initial
population, so the initial evaluation can already hit the optimum.
On a unitation function the zeros-count of each individual is a
sufficient statistic, so runs there are simulated on levels; linear
functions are simulated bit by bit, with the mutation operator's flips.

- RLS and the (1+1) EA on levels use a jump-chain sampler: from the exact
  oracle's table of accepted moves, it draws how long the run stays on a
  level and where it moves next, so a run costs O(level changes) rather
  than O(evaluations).  On bits they loop over offspring, and evaluate
  only those that can be accepted: the others are provably worse than the
  parent, from the weights of the bits they flip.
- Population EAs share one generation loop over a representation of the
  population.  On levels a population is a histogram of counts per
  level, since its individuals are exchangeable: a generation costs one
  multinomial over its parents' offspring distribution, not O(lambda)
  draws.  On bits it is a mu x n bit array.
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
    DomainError,
    FitnessFunction,
    Mutation,
    MutationParams,
    OneBitFlip,
    UnitationSpec,
    fitness_classes,
    flip_count_pmf_table,
)
from .oracle import move_table

_BATCH = 256

# Offspring distributions that a level population keeps, per distinct
# parent histogram.  A 600-run (4,32) EA batch on OneMax(100) visits 768.
_OFFSPRING_ENTRIES = 4096


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
    mutation: Mutation
    mu: int = 1
    lam: int = 1
    tie_break: TieBreak = TieBreak.PREFER_OFFSPRING

    def __post_init__(self) -> None:
        if self.mu < 1 or self.lam < 1:
            raise DomainError("mu and lambda must be positive")
        if (self.kind is AlgorithmKind.RLS) != isinstance(self.mutation, OneBitFlip):
            raise DomainError("RLS, and only RLS, mutates by OneBitFlip")
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
    drawn by bisecting the cumulative distribution of accepted moves;
    both come from the level's entry in the oracle's move table.  Every
    other offspring is a self-loop, so a run costs O(level changes), not
    O(evaluations).

    Uniforms are drawn in batches that double from 16 to ``_BATCH``, so a
    short run draws few that it does not use; consecutive batches continue
    one stream, so the sizes do not change the uniforms a run sees."""
    table = move_table(spec, cfg.mutation)
    values, jumps = table.values, table.jumps
    max_evals = budget.max_evaluations

    z = int(rng.binomial(spec.n, 0.5)) if start_zeros is None else int(start_zeros)
    evals = 1
    best = values[z]
    history = [(1, best)]
    hit = 1 if best >= target else None

    uniforms, i = [], 0
    size = 8  # doubled before each batch: 16, 32, ..., _BATCH
    while hit is None:
        log_stay, dests, cum = jumps.get(z) or table.jump(z)
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


def _skip_floor(weights: np.ndarray) -> float:
    """-slack: the bit loop skips an offspring that scores below it."""
    return -8 * weights.size * 2.0**-53 * float(np.abs(weights).sum())


def _run_single_bits(
    rep: _Bits,
    budget: Budget,
    rng: np.random.Generator,
    start_zeros: int | None,
    target: float,
) -> RunTrace:
    """Bit loop over the flip positions of ``_BATCH`` offspring at a time.

    The parent's fitness is always the best so far, so an offspring
    strictly worse than the parent changes nothing but the evaluation
    count.  The loop keeps each bit's gain w_i (1 - 2 x_i), the change in
    fitness from flipping it, and scores an offspring by summing the gains
    of its flips.  It skips an offspring that scores below -slack, with
    slack = 8 n u sum|w| (u = 2^-53, the unit roundoff).  A floating-point
    sum of at most n terms, added in any order, is within gamma_n = n u /
    (1 - n u) times the sum of their magnitudes of the exact sum.  So the
    ``np.dot`` fitnesses of parent and offspring and the score are each
    within gamma_n sum|w| of their exact values, three errors that
    together stay below the slack: a skipped offspring is strictly worse
    under ``np.dot`` too.  Every other offspring is evaluated exactly, by
    the function's ``fn``, so every recorded fitness and every acceptance
    is what evaluating all offspring would give.  It is evaluated in place:
    its bits are flipped in the parent, and flipped back if it is
    rejected."""
    n, max_evals = rep.n, budget.max_evaluations
    pop, fit = rep.init(rng, 1, start_zeros)
    x, fx = pop[0], float(fit[0])
    evals = 1
    history = [(1, fx)]
    hit = 1 if fx >= target else None
    gain = np.where(x == 1, -rep.weights, rep.weights).tolist()
    floor = _skip_floor(rep.weights)

    while hit is None and evals < max_evals:
        batch = min(_BATCH, max_evals - evals)  # offspring within the budget
        rows, bits = np.divmod(rep.mutation.flips(rng, _BATCH), n)
        rows, bits = rows.tolist(), bits.tolist()
        # Offspring that flip no bit are copies of x and have no rows.
        rows.append(_BATCH)  # a sentinel past the last offspring
        j = 0
        while rows[j] < batch:
            i, e = rows[j], j + 1
            score = gain[bits[j]]
            while rows[e] == i:
                score += gain[bits[e]]
                e += 1
            if score >= floor:
                flipped = bits[j:e]
                for b in flipped:
                    x[b] ^= 1
                fy = rep.fn(x)
                if fy < fx:
                    for b in flipped:
                        x[b] ^= 1
                else:
                    if fy > fx:
                        history.append((evals + i + 1, fy))
                    fx = fy
                    if fy >= target:
                        hit = evals + i + 1
                        break
                    for b in flipped:
                        gain[b] = -gain[b]
            j = e
        evals = hit or evals + batch

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


def _first_of(h: int, size: int, u: float, log_factorials: list[float]) -> int:
    """The smallest element of a uniform h-subset of 1..size, by inversion
    at the uniform ``u`` of its survival function P(min > t) =
    C(size - t, h) / C(size, h), bisected in log space: O(log size).
    ``log_factorials[k]`` is ``math.lgamma(k + 1)``, for k up to size."""
    if h == 1:
        return int(u * size) + 1
    log_v = math.log1p(-u)
    log_norm = log_factorials[size] - log_factorials[size - h]
    lo, hi = 0, size - h + 1  # P(min > lo) >= 1 - u > P(min > hi) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_factorials[size - mid] - log_factorials[size - mid - h] - log_norm < log_v:
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
    Each offspring mutates a uniformly chosen parent, so given the parent
    histogram the offspring histogram is Multinomial(lambda, sum of
    (count / mu) times the parent level's row of the mutation operator's
    ``kernel_row``), from which the exact oracle's move table is built.  A
    generation draws it as one multinomial over that distribution, which
    ``offspring`` keeps per parent histogram, up to ``_OFFSPRING_ENTRIES``
    of them.  Truncation keeps the best classes; where it cuts a class of
    several levels, the kept individuals are a multivariate hypergeometric
    draw.

    The (mu+lambda) EA under ``PREFER_OFFSPRING`` ranks tied individuals
    youngest first, so where a class has several levels its population
    keeps one histogram per cohort.  The first best individual, when it
    is drawn from a batch, gets a cohort of its own ahead of the rest of
    the batch: it heads the rank order, so every cut of its class keeps
    it.  Counts on levels of single-level classes go to the first
    cohort, since their order changes nothing.
    """

    def __init__(self, spec: UnitationSpec, cfg: AlgorithmConfig):
        self.mutation, self.mu, self.lam = cfg.mutation, cfg.mu, cfg.lam
        self.uniform = cfg.tie_break is TieBreak.UNIFORM_RANDOM
        classes = fitness_classes(spec.value_table)
        self.rank = np.concatenate(classes)
        self.position = np.argsort(self.rank)
        self.values = spec.value_table[self.rank].tolist()
        sizes = [len(c) for c in classes]
        ends = np.cumsum(sizes)
        self.cls_start = np.repeat(ends - sizes, sizes).tolist()
        self.cls_end = np.repeat(ends, sizes).tolist()
        self.tied = np.repeat(np.array(sizes) > 1, sizes).tolist()
        self.keep_order = (
            cfg.kind is AlgorithmKind.MU_PLUS_LAMBDA_EA and not self.uniform and any(self.tied)
        )
        self.start = flip_count_pmf_table(spec.n, 0.5)[self.rank]
        # For _first_of, up to the larger batch size.
        batch = max(cfg.initial_population, cfg.lam)
        self.log_factorials = [math.lgamma(k + 1) for k in range(batch + 1)]
        self.offspring = functools.lru_cache(maxsize=_OFFSPRING_ENTRIES)(self._offspring)

    def _offspring(self, parents: tuple[tuple[int, int], ...]) -> tuple[list[int], np.ndarray]:
        """The level distribution of one offspring of the sorted parent
        histogram ``parents``, sum over its levels of (count / mu) times
        the level's kernel row, as (destination positions, probabilities),
        most likely first, so that reading a multinomial draw stops after
        the few categories that take all the offspring.

        The sum spans the parents' row windows only, and levels that no
        row reaches are left out.  Its terms are added in the order of
        ``parents``, so an entry is the same in every process.  It is
        scaled to sum to 1: at large n a row's sum is off by up to about
        1e-11, and ``rng.multinomial`` refuses probabilities whose sum
        exceeds 1 + 1e-12."""
        rows = [(count, *self.mutation.kernel_row(int(self.rank[pos]))) for pos, count in parents]
        lo = min(row_lo for _, row_lo, _ in rows)
        probs = np.zeros(max(row_lo + row.size for _, row_lo, row in rows) - lo)
        for count, row_lo, row in rows:
            probs[row_lo - lo : row_lo - lo + row.size] += count / self.mu * row
        probs /= probs.sum()
        reached = np.flatnonzero(probs)
        order = reached[np.argsort(-probs[reached], kind="stable")]
        return self.position[lo + order].tolist(), probs[order]

    def level(self, pop: _LevelPop) -> int:
        return int(self.rank[pop.top])

    def init(self, rng: np.random.Generator, size: int, start_zeros: int | None) -> dict:
        if start_zeros is None:
            draw = rng.multinomial(size, self.start).tolist()
            return {pos: count for pos, count in enumerate(draw) if count}
        return {int(self.position[start_zeros]): size}

    def best(self, batch: dict) -> float:
        return self.values[min(batch)]

    def first_indices(self, batch, value, target, rng):
        # In a uniform arrangement of the batch, the individuals at least
        # as good as `value` take a uniform h-subset of the positions, and
        # the others that reach the target a uniform subset of the rest.
        size = h = others = 0
        values = self.values
        for pos, count in batch.items():
            size += count
            if values[pos] >= value:
                h += count
            elif values[pos] >= target:
                others += count
        first = _first_of(h, size, rng.random(), self.log_factorials)
        if value < target:
            return first, None
        if others == 0:
            return first, first
        return first, min(first, _first_of(others, size - h, rng.random(), self.log_factorials))

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
        """The best mu individuals of ``cohorts``.  Where the cut falls
        before the first class of several levels, one walk down the levels
        finds them, and they form one cohort, since the order of
        single-level classes changes nothing.  Otherwise the class where the
        cut falls is kept youngest cohort first and, within a cohort, as a
        uniform subset."""
        total = _merged(cohorts)
        ordered = sorted(total)
        kept, left = {}, self.mu
        for pos in ordered:
            if self.tied[pos]:
                break
            count = total[pos]
            if count >= left:
                kept[pos] = left
                return [kept]
            kept[pos] = count
            left -= count
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
        dests, probs = self.offspring(tuple(sorted(_merged(parents.rows).items())))
        off, left = {}, self.lam
        # The memoryview yields Python ints, and the loop stops at the
        # last occupied category.
        for dest, count in zip(dests, memoryview(rng.multinomial(left, probs))):
            if count:
                off[dest] = count
                left -= count
                if not left:
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
    evaluation or rank order.  The single-individual bit path draws its
    start point with ``init`` and its flips with ``mutation``."""

    def __init__(self, f: FitnessFunction, cfg: AlgorithmConfig):
        self.n, self.fn, self.weights, self.mutation = f.n, f.fn, f.weights, cfg.mutation
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
        chosen = parents[0][rng.integers(0, self.mu, size=self.lam)]  # a copy
        chosen.reshape(-1)[self.mutation.flips(rng, self.lam)] ^= 1
        return self._evaluated(chosen)

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
        return _run_single_bits(_Bits(f, cfg), budget, rng, start_zeros, target)
    rep = _levels(f, cfg) if levels else _Bits(f, cfg)
    return _run_population(rep, cfg, budget, rng, start_zeros, target, trans)


def uses_jump_chain(f: UnitationSpec | FitnessFunction, cfg: AlgorithmConfig) -> bool:
    """Whether runs of ``cfg`` on ``f`` take the jump-chain sampler: RLS or
    the (1+1) EA on a unitation function, whose exact level chain the
    oracle builds from the same move table."""
    return isinstance(f, UnitationSpec) and cfg.kind in _SINGLE_KINDS


def rls_config(n: int) -> AlgorithmConfig:
    return AlgorithmConfig(AlgorithmKind.RLS, OneBitFlip(n))


def one_plus_one_config(n: int, chi: float = 1.0) -> AlgorithmConfig:
    return AlgorithmConfig(AlgorithmKind.ONE_PLUS_ONE_EA, MutationParams(n=n, chi=chi))
