"""Tests for the instrumented algorithm runners."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ea_lab import algorithms, core
from ea_lab.algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    Budget,
    RunTrace,
    TieBreak,
    _BATCH,
    _first_of,
    _Levels,
    _levels,
    _merged,
    _run_population,
    _skip_floor,
    comma_selection_order,
    one_plus_one_config,
    rls_config,
    run_algorithm,
)
from ea_lab.core import (
    DomainError,
    MutationParams,
    OneBitFlip,
    RngStream,
    gap_function,
    linear_function,
    needle,
    onemax,
    plateau_function,
)
from ea_lab.empirics import Experiment, StartPolicy, run_batch
from ea_lab.oracle import (
    MoveTable,
    binomial_start,
    build_level_chain,
    exact_success_probability,
    point_start,
)


def _rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


# ---------------------------------------------------------------------------
# Configuration validation


def test_single_individual_kinds_force_trivial_population():
    with pytest.raises(DomainError, match="forces mu = lambda = 1"):
        AlgorithmConfig(AlgorithmKind.RLS, OneBitFlip(10), mu=2)
    with pytest.raises(DomainError, match="forces mu = lambda = 1"):
        AlgorithmConfig(AlgorithmKind.ONE_PLUS_ONE_EA, MutationParams(10), lam=3)


@pytest.mark.parametrize("kind", list(AlgorithmKind))
def test_only_rls_mutates_by_one_bit_flip(kind):
    rls = kind is AlgorithmKind.RLS
    wrong = MutationParams(10) if rls else OneBitFlip(10)
    with pytest.raises(DomainError, match="only RLS"):
        AlgorithmConfig(kind, wrong)
    AlgorithmConfig(kind, OneBitFlip(10) if rls else MutationParams(10))


def test_comma_requires_lambda_at_least_mu():
    with pytest.raises(DomainError):
        AlgorithmConfig(
            AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(10), mu=5, lam=4
        )


def test_comma_restricts_mutation_rate():
    # chi must stay below n/2 for the non-elitist strategy.
    with pytest.raises(DomainError):
        AlgorithmConfig(
            AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(10, chi=6.0), mu=2, lam=4
        )


def test_initial_population_accounting():
    plus = AlgorithmConfig(
        AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(10), mu=3, lam=7
    )
    comma = AlgorithmConfig(
        AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(10), mu=3, lam=7
    )
    assert plus.initial_population == 3
    assert comma.initial_population == 7


def test_budget_must_be_positive():
    with pytest.raises(DomainError):
        Budget(0)


# ---------------------------------------------------------------------------
# Determinism and basic behaviour


def test_same_seed_same_trace():
    spec = onemax(20)
    cfg = one_plus_one_config(20)
    a = run_algorithm(spec, cfg, Budget(10_000), _rng(9))
    b = run_algorithm(spec, cfg, Budget(10_000), _rng(9))
    assert a.hit_time == b.hit_time
    assert a.best_fitness_history == b.best_fitness_history


def test_rls_solves_onemax():
    trace = run_algorithm(onemax(30), rls_config(30), Budget(100_000), _rng(1))
    assert trace.hit_time is not None
    assert not trace.censored
    assert trace.best_fitness == 30.0


def test_hit_time_absent_iff_censored():
    trace = run_algorithm(
        needle(30), one_plus_one_config(30), Budget(200), _rng(2)
    )
    assert trace.censored and trace.hit_time is None
    assert trace.evaluations == 200


def test_forced_start_is_respected():
    spec = onemax(12)
    trace = run_algorithm(
        spec, one_plus_one_config(12), Budget(10_000), _rng(3), start_zeros=0
    )
    # Starting on the optimum means the first evaluation already hits.
    assert trace.hit_time == 1
    assert trace.evaluations == 1


def test_target_fitness_redefines_success():
    spec = onemax(20)
    trace = run_algorithm(
        spec, one_plus_one_config(20), Budget(10_000), _rng(4),
        start_zeros=20, target_fitness=10.0,
    )
    assert trace.hit_time is not None
    assert trace.best_fitness >= 10.0


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_elitist_history_is_increasing(seed):
    trace = run_algorithm(
        onemax(15), one_plus_one_config(15), Budget(5_000), _rng(seed)
    )
    fits = [f for _, f in trace.best_fitness_history]
    evals = [e for e, _ in trace.best_fitness_history]
    assert fits == sorted(fits) and len(set(fits)) == len(fits)
    assert evals == sorted(evals)


def test_forced_start_out_of_range_rejected():
    plus = AlgorithmConfig(
        AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(10), mu=2, lam=2
    )
    for cfg in (one_plus_one_config(10), plus):
        with pytest.raises(DomainError):
            run_algorithm(onemax(10), cfg, Budget(100), _rng(0), start_zeros=11)


def test_linear_optimum_is_reached_from_all_ones():
    # Real-valued weights whose sum differs from np.dot(w, ones) by an ulp.
    rng = random.Random(8)
    f = linear_function([rng.uniform(1, 10) for _ in range(100)])
    trace = run_algorithm(
        f, one_plus_one_config(100), Budget(10), _rng(0), start_zeros=0
    )
    assert trace.hit_time == 1


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_skipped_offspring_are_strictly_worse(data):
    n = data.draw(st.integers(1, 64))
    pool = data.draw(st.lists(st.floats(1, 10), min_size=1, max_size=3))
    w = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    f = linear_function(w)
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    gain = np.where(x == 1, -w, w).tolist()
    # Any flip set, and one that trades 0-bits for 1-bits of equal weight:
    # its exact gain is 0, so rounding alone decides whether it is accepted.
    ones = {}
    for j in np.flatnonzero(x).tolist():
        ones.setdefault(gain[j], []).append(j)
    traded = []
    for i in data.draw(st.permutations(np.flatnonzero(x == 0).tolist())):
        if ones.get(-gain[i]) and data.draw(st.booleans()):
            traded += [i, ones[-gain[i]].pop()]
    for flipped in (data.draw(st.sets(st.integers(0, n - 1), min_size=1)), traded):
        flipped = sorted(flipped)
        y = x.copy()
        y[flipped] ^= 1
        # The bit loop's score: the gains of the flips summed in ascending order.
        if flipped and f.fn(y) >= f.fn(x):
            assert sum(gain[b] for b in flipped) >= _skip_floor(w)


def test_linear_optimum_is_reached_with_real_weights():
    rng = random.Random(9)
    f = linear_function([rng.uniform(1, 10) for _ in range(100)])
    for seed in range(5):
        trace = run_algorithm(f, one_plus_one_config(100), Budget(10**6), _rng(1, seed))
        assert trace.hit_time is not None and trace.best_fitness == f.optimum_value


def _reference_bit_run(f, cfg, max_evals, rng):
    """The (1+1) EA bit loop without skipping or in-place evaluation: each
    offspring is a copy of the parent with its flips applied, evaluated by
    ``f.fn``.  It draws what the bit loop draws."""
    n, target = f.n, f.optimum_value
    x = rng.integers(0, 2, size=(1, n), dtype=np.uint8)[0]
    fx = f.fn(x)
    evals, history, hit = 1, [(1, fx)], 1 if fx >= target else None
    while hit is None and evals < max_evals:
        batch = min(_BATCH, max_evals - evals)
        rows, bits = np.divmod(cfg.mutation.flips(rng, _BATCH), n)
        for i in range(batch):
            y = x.copy()
            y[bits[rows == i]] ^= 1
            fy = f.fn(y)
            if fy >= fx:
                if fy > fx:
                    history.append((evals + i + 1, fy))
                x, fx = y, fy
                if fy >= target:
                    hit = evals + i + 1
                    break
        evals = hit or evals + batch
    return RunTrace(evals, history, hit, hit is None)


@pytest.mark.parametrize("chi", [1.0, 2.5])
def test_bit_loop_matches_evaluating_every_offspring(chi):
    # Three real weights, ten bits each: an offspring that trades a 0-bit
    # for a 1-bit of equal weight has exact gain 0, and rounding in np.dot
    # rejects some of them, which the bit loop must undo.
    f = linear_function([0.1] * 10 + [0.3] * 10 + [0.7] * 10)
    cfg = one_plus_one_config(30, chi)
    for seed in range(30):
        trace = run_algorithm(f, cfg, Budget(5000), _rng(37, seed))
        assert trace == _reference_bit_run(f, cfg, 5000, _rng(37, seed))


def test_mutation_size_mismatch_rejected():
    with pytest.raises(DomainError):
        run_algorithm(onemax(10), one_plus_one_config(11), Budget(100), _rng(0))


# ---------------------------------------------------------------------------
# Level path vs bit path agree in distribution


def _population_config(kind, mu, lam, tie_break=TieBreak.PREFER_OFFSPRING):
    return AlgorithmConfig(kind, MutationParams(10), mu=mu, lam=lam, tie_break=tie_break)


@pytest.mark.parametrize(
    "cfg",
    [
        one_plus_one_config(10),
        _population_config(AlgorithmKind.MU_PLUS_LAMBDA_EA, 3, 6),
        _population_config(
            AlgorithmKind.MU_PLUS_LAMBDA_EA, 3, 6, TieBreak.UNIFORM_RANDOM
        ),
        _population_config(AlgorithmKind.MU_COMMA_LAMBDA_EA, 2, 12),
    ],
    ids=["OnePlusOneEA", "MuPlusLambdaEA-PreferOffspring",
         "MuPlusLambdaEA-UniformRandom", "MuCommaLambdaEA"],
)
def test_level_and_bit_paths_agree_on_mean(cfg):
    """The zeros-count representation and the generic bit-level one
    simulate the same process; compare their mean hit times on
    equivalent objectives."""
    n, runs = 10, 800
    spec = onemax(n)
    flat = linear_function([1.0] * n)  # same function, generic representation
    level = [
        run_algorithm(spec, cfg, Budget(10_000), _rng(5, i)).hit_time
        for i in range(runs)
    ]
    bits = [
        run_algorithm(flat, cfg, Budget(10_000), _rng(6, i)).hit_time
        for i in range(runs)
    ]
    se = np.std(level, ddof=1) / np.sqrt(runs) + np.std(bits, ddof=1) / np.sqrt(runs)
    assert abs(np.mean(level) - np.mean(bits)) < 4 * se


# ---------------------------------------------------------------------------
# Population runners


def test_comma_selection_order_sorts_descending():
    rng = _rng(7)
    fit = np.array([3.0, 1.0, 3.0, 2.0])
    order = comma_selection_order(fit, rng)
    assert sorted(order.tolist()) == [0, 1, 2, 3]
    assert list(fit[order]) == sorted(fit, reverse=True)


def test_comma_tie_break_is_uniform():
    rng = _rng(8)
    fit = np.array([1.0, 1.0])
    firsts = [comma_selection_order(fit, rng)[0] for _ in range(2000)]
    frac = np.mean(np.array(firsts) == 0)
    assert 0.45 < frac < 0.55


def test_mu_plus_lambda_solves_onemax():
    n = 20
    cfg = AlgorithmConfig(
        AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(n), mu=4, lam=8
    )
    trace = run_algorithm(onemax(n), cfg, Budget(200_000), _rng(11))
    assert trace.hit_time is not None
    # Evaluations advance in whole generations after the initial mu.
    assert (trace.evaluations - 4) % 8 == 0 or trace.hit_time is not None


def test_mu_plus_lambda_history_is_monotone():
    n = 15
    cfg = AlgorithmConfig(
        AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(n), mu=3, lam=6,
        tie_break=TieBreak.UNIFORM_RANDOM,
    )
    trace = run_algorithm(onemax(n), cfg, Budget(100_000), _rng(12))
    fits = [f for _, f in trace.best_fitness_history]
    assert fits == sorted(fits)


def test_comma_ea_with_strong_pressure_solves_onemax():
    n = 12
    cfg = AlgorithmConfig(
        AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(n), mu=2, lam=40
    )
    trace = run_algorithm(onemax(n), cfg, Budget(500_000), _rng(13))
    assert trace.hit_time is not None


def test_comma_ea_counts_lambda_initial_evaluations():
    n = 10
    cfg = AlgorithmConfig(
        AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(n), mu=2, lam=7
    )
    trace = run_algorithm(
        onemax(n), cfg, Budget(7), _rng(14), start_zeros=n
    )
    assert trace.evaluations == 7 and trace.censored


def test_population_budget_must_cover_initial_population():
    cfg = AlgorithmConfig(
        AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(10), mu=5, lam=5
    )
    with pytest.raises(DomainError):
        run_algorithm(onemax(10), cfg, Budget(3), _rng(0))


def test_population_bit_path_runs_on_generic_objective():
    f = linear_function([2.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0, 2.0])
    cfg = AlgorithmConfig(
        AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(8), mu=2, lam=4
    )
    trace = run_algorithm(f, cfg, Budget(50_000), _rng(15))
    assert trace.hit_time is not None
    assert trace.best_fitness == f.optimum_value


def test_transitions_only_for_unitation():
    f = linear_function([1.0, 2.0])
    with pytest.raises(DomainError):
        run_algorithm(
            f, one_plus_one_config(2), Budget(100), _rng(0), record_transitions=True
        )


def test_transition_counts_cover_all_generations():
    spec = plateau_function(12, 4, 5)
    trace = run_algorithm(
        spec, one_plus_one_config(12), Budget(2_000), _rng(16),
        record_transitions=True,
    )
    total = int(trace.level_transitions.sum())
    assert total == trace.evaluations - 1  # one transition per offspring


def test_stuck_rls_is_censored_at_the_budget():
    # From 8 zeros both RLS neighbours are worse: 7 lies in the gap, 9 on
    # the leading ramp.  The run never moves and uses the whole budget.
    trace = run_algorithm(
        gap_function(20, 3, 5), rls_config(20), Budget(), _rng(17),
        start_zeros=8, record_transitions=True,
    )
    assert trace.censored and trace.hit_time is None
    assert trace.evaluations == 10_000_000
    assert int(trace.level_transitions.sum()) == 9_999_999
    assert trace.level_transitions[8, 8] == 9_999_999
    assert trace.best_fitness_history == [(1, trace.best_fitness)]


@pytest.mark.parametrize("make_config", [rls_config, one_plus_one_config],
                         ids=["rls", "one-plus-one"])
@pytest.mark.parametrize("max_evals", [300, 257], ids=["mid-batch", "batch-end"])
def test_censored_bit_path_stops_at_the_budget(make_config, max_evals):
    # The bit path draws its flips 256 offspring at a time: after the initial
    # evaluation, a budget of 300 runs out inside the second batch and a
    # budget of 257 at the end of the first.  The target lies above the
    # optimum, so every run is censored.
    f = linear_function([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    trace = run_algorithm(f, make_config(f.n), Budget(max_evals), _rng(21),
                          target_fitness=f.optimum_value + 1.0)
    assert trace.evaluations == max_evals
    assert trace.hit_time is None and trace.censored
    evals = [e for e, _ in trace.best_fitness_history]
    fits = [v for _, v in trace.best_fitness_history]
    assert evals[0] == 1 and evals[-1] <= max_evals
    assert evals == sorted(evals) and fits == sorted(fits)


@pytest.mark.parametrize("seed", range(5))
def test_censored_transition_counts_cover_all_evaluations(seed):
    # A small budget censors the gap jump, and OneMax runs mid-way.
    cases = [(gap_function(40, 3, 1), 4, 1_000), (onemax(60), None, 150)]
    for spec, zeros, max_evals in cases:
        trace = run_algorithm(
            spec, one_plus_one_config(spec.n), Budget(max_evals), _rng(18, seed),
            start_zeros=zeros, record_transitions=True,
        )
        assert trace.censored and trace.evaluations == max_evals
        assert int(trace.level_transitions.sum()) == max_evals - 1


# ---------------------------------------------------------------------------
# The level sampler's runtime distribution matches the exact chain


def _reference_P(spec, mutation):
    """The chain's dense transition matrix, built from the operator's
    ``kernel_row`` and the value table: ties and better offspring are
    accepted, the rest stays, and the optimum's row is the identity."""
    n, table = spec.n, spec.value_table
    P = np.zeros((n + 1, n + 1))
    for z in range(1, n + 1):
        lo, probs = mutation.kernel_row(z)
        P[z, lo : lo + probs.size] = np.where(table[lo : lo + probs.size] >= table[z], probs, 0.0)
        P[z, z] = 0.0
        P[z, z] = 1.0 - P[z].sum()
    P[0, 0] = 1.0
    return P


def _exact_cdf(P, start, ts):
    """P(T <= t evaluations) at each of the increasing times ``ts``, which
    is the probability of absorption within t - 1 generations; one pass
    over t."""
    v, done, out = np.asarray(start, dtype=float), 0, []
    for t in ts:
        for _ in range(int(t) - 1 - done):
            v = v @ P
        done = int(t) - 1
        out.append(float(v[0]))
    return out


@pytest.mark.parametrize(
    "spec, kind, mutation, zeros, budget, runs",
    [
        (gap_function(40, 3, 1), AlgorithmKind.ONE_PLUS_ONE_EA, MutationParams(40, 1.0), 4,
         200_000, 4_000),
        # Every needle offspring is accepted, so a run makes ~800 level changes.
        (needle(10), AlgorithmKind.ONE_PLUS_ONE_EA, MutationParams(10, 2.0), None,
         20_000, 1_000),
        (plateau_function(30, 5, 10), AlgorithmKind.RLS, OneBitFlip(30), None,
         3_000, 4_000),
    ],
    ids=["gap-from-block-start", "needle-chi-2", "rls-plateau"],
)
def test_level_sampler_cdf_within_dkw_band(spec, kind, mutation, zeros, budget, runs):
    alpha = 1e-3
    cfg = AlgorithmConfig(kind, mutation)
    start = StartPolicy.uniform() if zeros is None else StartPolicy.fixed(zeros)
    summary = run_batch(Experiment(spec, cfg, runs, 23, Budget(budget), start)).summary
    chain = build_level_chain(spec, kind.value, cfg.mutation)
    u = binomial_start(spec.n) if zeros is None else point_start(spec.n, zeros)
    exact = _exact_cdf(_reference_P(spec, cfg.mutation), u, summary.curve_t)
    mid = len(exact) // 2
    assert abs(exact[mid] - exact_success_probability(chain, u, int(summary.curve_t[mid]) - 1)) <= (
        1e-13)
    # Dvoretzky-Kiefer-Wolfowitz: sup |F_N - F| <= eps with prob. >= 1 - alpha.
    eps = math.sqrt(math.log(2 / alpha) / (2 * runs))
    assert np.abs(summary.curve_p - exact).max() <= eps


@pytest.mark.parametrize(
    "cfg",
    [one_plus_one_config(20), one_plus_one_config(20, 2.5), rls_config(20)],
    ids=["one-plus-one", "one-plus-one-chi-2.5", "rls"],
)
def test_bit_sampler_cdf_within_dkw_band(cfg):
    """The bit path on OneMax as a linear function, against the exact
    level chain of OneMax, at every 40th order statistic of the hit times."""
    n, runs, alpha = 20, 4_000, 1e-3
    f = linear_function([1.0] * n)
    hits = np.sort([run_algorithm(f, cfg, Budget(10**6), _rng(41, i)).hit_time
                    for i in range(runs)])
    chain = build_level_chain(onemax(n), cfg.kind.value, cfg.mutation)
    ts = np.unique(hits[:: runs // 100])
    # T <= t evaluations means the optimum within t - 1 generations.
    exact = [exact_success_probability(chain, binomial_start(n), int(t) - 1) for t in ts]
    empirical = np.searchsorted(hits, ts, side="right") / runs
    eps = math.sqrt(math.log(2 / alpha) / (2 * runs))
    assert np.abs(empirical - exact).max() <= eps


# ---------------------------------------------------------------------------
# One table of kernel rows serves the oracle and both level samplers


def test_views_compute_each_kernel_row_once(monkeypatch):
    n, chi = 37, 1.5
    supports, rows = [], []
    build_supports, convolve = core._binomial_supports, core._convolved_row

    def counted_supports(*args):
        supports.append(args)
        return build_supports(*args)

    def counted_row(z, *args):
        rows.append(z)
        return convolve(z, *args)

    monkeypatch.setattr(core, "_binomial_supports", counted_supports)
    monkeypatch.setattr(core, "_convolved_row", counted_row)
    core._kernel_rows.cache_clear()
    spec = onemax(n)
    # Each view gets its own operator object: the table is keyed by (n, chi).
    run_batch(Experiment(spec, one_plus_one_config(n, chi), 40, 5))
    plus = AlgorithmConfig(AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(n, chi), 2, 3)
    run_batch(Experiment(spec, plus, 5, 5))
    build_level_chain(spec, "OnePlusOneEA", MutationParams(n, chi))
    assert supports == [(n, chi / n)]
    assert sorted(rows) == list(range(n + 1))


def test_kernel_rows_are_shared_and_read_only():
    lo, probs = MutationParams(20, 2.0).kernel_row(7)
    assert MutationParams(20, 2.0).kernel_row(7) == (lo, probs)
    assert MutationParams(20, 2.0).kernel_row(7)[1] is probs
    with pytest.raises(ValueError, match="read-only"):
        probs[0] = 0.5


@pytest.mark.parametrize(
    "spec, chi",
    [(onemax(30), 1.0), (gap_function(30, 3, 5), 2.5), (plateau_function(30, 4, 10), 1.0)],
    ids=["onemax", "gap", "plateau"],
)
def test_jump_chain_moves_are_the_chain_entries(spec, chi):
    mutation = MutationParams(spec.n, chi)
    table = MoveTable(spec, mutation)
    P = _reference_P(spec, mutation)
    for z in range(spec.n + 1):
        _, dests, cum = table.jump(z)
        moves = set(np.flatnonzero(P[z]).tolist()) - {z}
        tabled = dests[:-1]
        assert set(tabled) <= moves
        # The tabled moves carry P's entries: their running sum is cum.
        assert np.array_equal(np.cumsum(P[z, tabled]), np.array(cum, dtype=float))
        # The moves left out are those too small to change that sum.
        for dest in moves - set(tabled):
            assert cum[-1] + P[z, dest] == cum[-1], (z, dest)


# ---------------------------------------------------------------------------
# The level-histogram population sampler


def _reference_population_run(spec, cfg, max_evals, rng, target, start_zeros=None):
    """The per-offspring level sampler that the histogram sampler
    replaced, kept as a reference: an array of zeros-counts, two binomial
    draws per offspring, and an argsort of offspring then parents for
    selection.  Returns the hit time and the last history index."""
    n, rate, table = spec.n, cfg.mutation.rate, spec.value_table
    mu, lam = cfg.mu, cfg.lam
    comma = cfg.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA
    size = cfg.initial_population
    if start_zeros is None:
        pop = rng.binomial(n, 0.5, size=size)
    else:
        pop = np.full(size, start_zeros)
    fit = table[pop]
    evals = size
    best = float(fit.max())
    history = [(int(np.argmax(fit >= best)) + 1, best)]
    hit = int(np.argmax(fit >= target)) + 1 if best >= target else None
    while hit is None and evals + lam <= max_evals:
        elite = pop[comma_selection_order(fit, rng)[:mu]] if comma else pop
        parents = elite[rng.integers(0, mu, size=lam)]
        off = parents - rng.binomial(parents, rate) + rng.binomial(n - parents, rate)
        off_fit = table[off]
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
            pop, fit = combined[order[:mu]], cfit[order[:mu]]
    return hit, history[-1][0]


_PLUS = (AlgorithmKind.MU_PLUS_LAMBDA_EA, 3, 6)
_COMMA = (AlgorithmKind.MU_COMMA_LAMBDA_EA, 2, 12)
_COMMA_4_32 = (AlgorithmKind.MU_COMMA_LAMBDA_EA, 4, 32)
_PLUS_3_1 = (AlgorithmKind.MU_PLUS_LAMBDA_EA, 3, 1)


@pytest.mark.parametrize(
    "spec, algorithm, tie_break, start_zeros, target",
    [
        (onemax(12), _PLUS, TieBreak.PREFER_OFFSPRING, None, None),
        (onemax(12), _PLUS, TieBreak.UNIFORM_RANDOM, None, None),
        (onemax(12), _COMMA, TieBreak.PREFER_OFFSPRING, None, None),
        # Zeros-counts 7..4 share one fitness value.
        (plateau_function(12, 4, 3), _PLUS, TieBreak.PREFER_OFFSPRING, None, None),
        (plateau_function(12, 4, 3), _PLUS, TieBreak.UNIFORM_RANDOM, None, None),
        (plateau_function(12, 4, 3), _COMMA, TieBreak.PREFER_OFFSPRING, None, None),
        # One offspring a generation: populations keep several cohorts.
        (plateau_function(12, 4, 3), _PLUS_3_1, TieBreak.PREFER_OFFSPRING, None, None),
        # Targets below the optimum: the hit and history indices differ,
        # most often in the initial population.
        (onemax(12), _PLUS, TieBreak.PREFER_OFFSPRING, 10, 6.0),
        (onemax(12), _COMMA, TieBreak.PREFER_OFFSPRING, None, 7.0),
        # Several parent levels breed through one offspring distribution.
        (onemax(30), _COMMA_4_32, TieBreak.PREFER_OFFSPRING, None, None),
        (plateau_function(12, 4, 3), _COMMA_4_32, TieBreak.PREFER_OFFSPRING, None, None),
        # Fewer offspring than parents.
        (onemax(12), _PLUS_3_1, TieBreak.PREFER_OFFSPRING, None, None),
    ],
    ids=["plus-prefer-onemax", "plus-uniform-onemax", "comma-onemax",
         "plus-prefer-plateau", "plus-uniform-plateau", "comma-plateau",
         "plus-3-1-prefer-plateau", "plus-prefer-target", "comma-target",
         "comma-4-32-onemax", "comma-4-32-plateau", "plus-3-1-onemax"],
)
def test_histogram_sampler_matches_per_offspring_reference(
    spec, algorithm, tie_break, start_zeros, target
):
    """Two-sample Kolmogorov-Smirnov tests of the hit time and of the
    index of the last history entry against the reference sampler."""
    kind, mu, lam = algorithm
    cfg = AlgorithmConfig(kind, MutationParams(spec.n), mu=mu, lam=lam, tie_break=tie_break)
    target = spec.optimum_value if target is None else target
    runs, budget = 800, 10**6
    new = [
        run_algorithm(spec, cfg, Budget(budget), _rng(31, i), start_zeros=start_zeros,
                      target_fitness=target)
        for i in range(runs)
    ]
    ref = [
        _reference_population_run(spec, cfg, budget, _rng(32, i), target, start_zeros)
        for i in range(runs)
    ]
    assert not any(t.censored for t in new) and all(hit for hit, _ in ref)
    hits = stats.ks_2samp([t.hit_time for t in new], [hit for hit, _ in ref])
    lasts = stats.ks_2samp([t.best_fitness_history[-1][0] for t in new],
                           [last for _, last in ref])
    assert hits.pvalue > 1e-3 and lasts.pvalue > 1e-3


def test_prefer_offspring_keeps_the_youngest_tied_cohorts():
    # Zeros-counts 7..4 are one fitness class.  Under PreferOffspring the
    # offspring and then the younger parent cohort fill all three places;
    # a uniform draw over the tied parents would keep level 4 sometimes.
    spec = plateau_function(12, 4, 3)
    cfg = AlgorithmConfig(AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(12), mu=3, lam=1)
    rep = _levels(spec, cfg)
    at = [int(rep.position[z]) for z in (7, 6, 5, 4)]
    pop = [{at[1]: 2}, {at[3]: 1}]
    for seed in range(50):
        kept = rep.survivors({at[0]: 1}, pop, _rng(33, seed))
        assert _merged(kept) == {at[0]: 1, at[1]: 2}
        assert kept[0] == {at[0]: 1}  # the offspring cohort leads


def test_population_level_is_its_best_level():
    # Zeros-counts 7..4 are one fitness class; its rank-first level is 4.
    spec = plateau_function(12, 4, 3)
    cfg = AlgorithmConfig(AlgorithmKind.MU_PLUS_LAMBDA_EA, MutationParams(12), mu=3, lam=1)
    rep = _levels(spec, cfg)
    at = {z: int(rep.position[z]) for z in range(13)}
    assert rep.level([{at[9]: 1, at[6]: 2}]) == 6
    # The best individual sits in an older cohort.
    assert rep.level([{at[9]: 1}, {at[8]: 1}, {at[5]: 1}]) == 5
    assert rep.level([{at[7]: 2}, {at[4]: 1}]) == 4
    assert rep.level([{at[6]: 1}, {at[3]: 1, at[10]: 1}]) == 3


@pytest.mark.parametrize(
    "spec, algorithm, tie_break",
    # One offspring a generation leaves older cohorts on the plateau.
    [(plateau_function(12, 4, 3), _PLUS_3_1, TieBreak.PREFER_OFFSPRING),
     (plateau_function(12, 4, 3), _PLUS, TieBreak.UNIFORM_RANDOM),
     (plateau_function(12, 4, 3), _COMMA, TieBreak.PREFER_OFFSPRING),
     (onemax(12), _PLUS, TieBreak.PREFER_OFFSPRING)],
    ids=["plus-3-1-prefer-plateau", "plus-uniform-plateau", "comma-plateau", "plus-onemax"],
)
def test_level_populations_are_nonempty_cohorts_of_mu(spec, algorithm, tie_break):
    kind, mu, lam = algorithm
    cfg = AlgorithmConfig(kind, MutationParams(spec.n), mu=mu, lam=lam, tie_break=tie_break)
    rep = _Levels(spec, cfg)
    comma = kind is AlgorithmKind.MU_COMMA_LAMBDA_EA

    def check(rows):
        assert isinstance(rows, list) and rows
        assert all(isinstance(row, dict) and row and all(row.values()) for row in rows)
        assert sum(sum(row.values()) for row in rows) == mu

    most = 1
    for seed in range(10):
        rng = _rng(35, seed)
        pop = rep.populate(rep.init(rng, cfg.initial_population, None))
        for _ in range(40):
            parents = rep.elite(pop, rng) if comma else pop
            check(parents)
            most = max(most, len(parents))
            off = rep.breed(parents, rng)
            assert sum(off.values()) == lam
            pop = rep.populate(off) if comma else rep.survivors(off, pop, rng)
    assert (most > 1) == rep.keep_order  # several cohorts only where order counts


def _comma_levels(n):
    cfg = AlgorithmConfig(AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(n), mu=4, lam=32)
    return _Levels(onemax(n), cfg), cfg


def test_offspring_distribution_is_the_mean_parent_kernel_row():
    rep, cfg = _comma_levels(30)
    parents = tuple(sorted((int(rep.position[z]), c) for z, c in ((9, 2), (4, 1), (13, 1))))
    dests, probs = rep.offspring(parents)
    ref = np.zeros(31)
    for z, c in ((9, 2), (4, 1), (13, 1)):
        lo, row = cfg.mutation.kernel_row(z)
        ref[lo : lo + row.size] += c / 4 * row
    got = np.zeros(31)
    got[rep.rank[dests]] = probs
    assert len(set(dests)) == len(dests)
    assert np.abs(got - ref).max() <= 1e-15
    assert abs(probs.sum() - 1) <= 1e-15
    assert np.all(np.diff(probs) <= 0)  # most likely first
    assert rep.offspring(parents) is rep.offspring(parents)


def test_offspring_distribution_spans_only_the_parent_rows():
    n = 10_000
    rep, cfg = _comma_levels(n)
    parents = ((4990, 1), (5000, 2), (9000, 1))
    dests, probs = rep.offspring(tuple(sorted((int(rep.position[z]), c) for z, c in parents)))
    windows = set()
    for z, _ in parents:
        lo, row = cfg.mutation.kernel_row(z)
        windows.update(range(lo, lo + row.size))
    assert set(rep.rank[dests].tolist()) == windows
    assert len(dests) < n // 10
    # The rows' own sums are off by up to 7.4e-12 here (9000 zeros).
    assert abs(probs.sum() - 1) <= 1e-15


def test_population_runs_where_kernel_rows_sum_past_one():
    # kernel_row(9000) of MutationParams(10_000) sums to 1 + 7.4e-12, more
    # than rng.multinomial allows.
    _, cfg = _comma_levels(10_000)
    trace = run_algorithm(onemax(10_000), cfg, Budget(3200), _rng(36), start_zeros=9000)
    assert trace.evaluations == 3200 and trace.censored


def test_offspring_cache_is_bounded_and_changes_no_draw(monkeypatch):
    rep, cfg = _comma_levels(40)
    monkeypatch.setattr(algorithms, "_OFFSPRING_ENTRIES", 8)
    small, _ = _comma_levels(40)
    target = onemax(40).optimum_value
    for seed in range(20):
        traces = [_run_population(r, cfg, Budget(10**6), _rng(35, seed), None, target, None)
                  for r in (rep, small)]
        assert traces[0] == traces[1]
        assert small.offspring.cache_info().currsize <= 8
    assert small.offspring.cache_info().misses > 8 * small.offspring.cache_info().currsize


@pytest.mark.parametrize("h, size", [(1, 7), (3, 10), (5, 32), (40, 53)])
def test_first_of_inverts_the_minimum_of_a_uniform_subset(h, size):
    # Over a stratified grid of uniforms, the share mapped to each t is the
    # exact probability C(size - t, h - 1) / C(size, h), to grid precision.
    grid = 20_000
    table = [math.lgamma(k + 1) for k in range(size + 1)]
    draws = [_first_of(h, size, (i + 0.5) / grid, table) for i in range(grid)]
    counts = np.bincount(draws, minlength=size + 1)[1:] / grid
    exact = [math.comb(size - t, h - 1) / math.comb(size, h) for t in range(1, size + 1)]
    assert np.abs(counts - exact).max() <= 2 / grid


def _lgamma_first_of(h, size, u):
    # _first_of as it was, with two math.lgamma calls per bisection step.
    if h == 1:
        return int(u * size) + 1
    log_v = math.log1p(-u)
    log_norm = math.lgamma(size + 1) - math.lgamma(size - h + 1)
    lo, hi = 0, size - h + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.lgamma(size - mid + 1) - math.lgamma(size - mid - h + 1) - log_norm < log_v:
            hi = mid
        else:
            lo = mid
    return hi


def _reference_first_indices(values, batch, value, target, rng):
    # _Levels.first_indices as it was: a pass over the batch per count.
    def at_least(v):
        return sum(c for pos, c in batch.items() if values[pos] >= v)

    size, h = sum(batch.values()), at_least(value)
    first = _lgamma_first_of(h, size, rng.random())
    if value < target:
        return first, None
    others = at_least(target) - h
    if others == 0:
        return first, first
    return first, min(first, _lgamma_first_of(others, size - h, rng.random()))


def test_first_indices_draws_as_with_lgamma_calls():
    # The log-factorial table holds the values the bisection used to compute
    # with math.lgamma, so every draw is the same.  A plateau ties levels, so
    # several positions can reach the value or the target.
    spec = plateau_function(30, 6, 10)
    cfg = AlgorithmConfig(AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(30), mu=4, lam=32)
    rep = _Levels(spec, cfg)
    gen = np.random.default_rng(36)
    for _ in range(2000):
        size = int(gen.integers(1, cfg.lam + 1))
        positions = gen.choice(len(rep.values), 8, replace=False).tolist()
        counts = gen.multinomial(size, np.full(8, 1 / 8)).tolist()
        batch = {pos: c for pos, c in zip(positions, counts) if c}
        value = rep.best(batch)
        target = rep.values[int(gen.integers(len(rep.values)))]
        seed = int(gen.integers(2**32))
        got = rep.first_indices(batch, value, target, np.random.default_rng(seed))
        want = _reference_first_indices(rep.values, batch, value, target,
                                        np.random.default_rng(seed))
        assert got == want


@pytest.mark.parametrize(
    "spec, algorithm, budget",
    [(plateau_function(12, 4, 3), _PLUS, 10**6), (plateau_function(12, 4, 3), _COMMA, 10**6),
     (onemax(30), _PLUS, 100)],
    ids=["plus-plateau", "comma-plateau", "plus-censored"],
)
def test_population_transitions_count_generations(spec, algorithm, budget):
    kind, mu, lam = algorithm
    cfg = AlgorithmConfig(kind, MutationParams(spec.n), mu=mu, lam=lam)
    for seed in range(20):
        trace = run_algorithm(spec, cfg, Budget(budget), _rng(34, seed),
                              record_transitions=True)
        generations = (trace.evaluations - cfg.initial_population) // lam
        assert int(trace.level_transitions.sum()) == generations
