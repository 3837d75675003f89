"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured numbers.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced; without ``-s`` they appear on failure only.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from ea_lab.algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    Budget,
    MutationParams,
    one_plus_one_config,
    rls_config,
)
from ea_lab.bounds import (
    LevelData,
    afl_chi_certificate,
    afl_lower,
    afl_upper,
    chernoff_upper,
    gap_block_bounds,
    harmonic,
    level_based_bound,
    level_based_lambda_min,
    markov_bound,
    onemax_level_params,
    plateau_bounds,
    NegativeDrift,
    negative_drift_check,
)
from ea_lab.cli import main as cli_main
from ea_lab.core import (
    RngStream,
    flip_count_pmf,
    flip_count_pmf_table,
    gap_function,
    needle,
    onemax,
    plateau_function,
)
from ea_lab.empirics import Experiment, StartPolicy, run_batch, wilson_interval
from ea_lab.oracle import (
    binomial_start,
    build_level_chain,
    exact_drift,
    exact_expected_hitting_time,
    exact_success_probability,
    expected_hitting_times_to,
    fitness_level_data,
    jump_tail,
    point_start,
)


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_matches_simulation():
    """(1+1) EA on the count-the-ones function, n=10: the Monte Carlo
    mean over 10^5 runs agrees with the exact chain within 3 standard
    errors, in under 30 seconds."""
    n, runs = 10, 100_000
    exp = Experiment(
        function=onemax(n),
        algorithm=one_plus_one_config(n),
        runs=runs,
        master_seed=2024,
        budget=Budget(100_000),
    )
    t0 = time.perf_counter()
    batch = run_batch(exp, workers=1)
    elapsed = time.perf_counter() - t0
    chain = build_level_chain(onemax(n), "OnePlusOneEA")
    oracle = exact_expected_hitting_time(chain, binomial_start(n)) + 1.0
    s = batch.summary
    gap = abs(s.mean - oracle)
    ok = gap <= 3 * s.stderr and elapsed < 30.0
    _verdict(
        1, ok,
        f"mean={s.mean:.4f} oracle={oracle:.4f} |diff|={gap:.4f} "
        f"3se={3 * s.stderr:.4f} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_rls_oracle_is_coupon_collector():
    """RLS from the all-zeros point: exact expected generations equal
    n * H_n for every n up to 20."""
    worst = 0.0
    for n in range(1, 21):
        chain = build_level_chain(onemax(n), "RLS")
        value = expected_hitting_times_to(chain, chain.absorbing)[n]
        worst = max(worst, abs(value - n * harmonic(n)))
    _verdict(2, worst < 1e-9, f"max |oracle - n*H_n| = {worst:.2e} over n=1..20")


def test_criterion_03_fitness_level_sandwich():
    """Fitness-level bounds with exact per-level probabilities strictly
    sandwich the exact expected runtime for n in {6, 8, 10, 12}."""
    details = []
    ok = True
    for n in (6, 8, 10, 12):
        chain = build_level_chain(onemax(n), "OnePlusOneEA")
        data = fitness_level_data(chain)
        start = binomial_start(n)
        u = np.array([sum(start[z] for z in lvl) for lvl in data.levels[:-1]])
        upper = afl_upper(LevelData(s=data.s_min)).bound_value
        lower = afl_lower(
            LevelData(s=data.s_max, u=u, chi_afl=afl_chi_certificate(n))
        ).bound_value
        oracle = exact_expected_hitting_time(chain, start)
        ok = ok and lower < oracle < upper
        details.append(f"n={n}: {lower:.2f} < {oracle:.2f} < {upper:.2f}")
    _verdict(3, ok, "; ".join(details))


def test_criterion_04_mutation_flip_distribution():
    """10^6 standard bit mutations at n=100, chi=1, drawn as the flip
    positions the samplers use, 10^4 per call: at least 0.366 of them flip
    exactly one bit, the no-flip fraction is within 0.01 of 1/e, and a
    chi-squared test against the binomial pmf passes at the 0.001
    level."""
    n, samples, batch = 100, 1_000_000, 10_000
    rng = RngStream(77).generator()
    p = MutationParams(n=n, chi=1.0)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _ in range(samples // batch):
        flips = np.bincount(p.flips(rng, batch) // n, minlength=batch)
        counts += np.bincount(flips, minlength=n + 1)

    p1 = counts[1] / samples
    p0 = counts[0] / samples
    pmf = flip_count_pmf_table(n, 1.0 / n)
    expected = pmf * samples
    # Pool the tail so every chi-squared cell expects at least 5 hits.
    tail_mass = np.cumsum(expected[::-1])[::-1]
    cut = int(np.max(np.flatnonzero(tail_mass >= 5.0)))
    obs = np.append(counts[:cut], counts[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    chi2 = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    ok = (
        p1 >= 0.366
        and abs(p0 - 1 / math.e) <= 0.01
        and chi2.pvalue > 0.001
    )
    _verdict(
        4, ok,
        f"P(1 flip)={p1:.4f} P(0 flips)={p0:.4f} (1/e={1 / math.e:.4f}) "
        f"chi2 p-value={chi2.pvalue:.3f}",
    )


def test_criterion_05_tail_dominance():
    """Exact Binomial(30, 1/2) tail beyond 20 is dominated by the
    Chernoff bound, its (29/30)^15 relaxation (~0.6014), and the Markov
    bound 0.75."""
    exact = sum(flip_count_pmf(30, 0.5, j) for j in range(21, 31))
    chern = chernoff_upper(15.0, 1.0 / 3.0)
    relaxed = (29 / 30) ** 15
    markov = markov_bound(15.0, 20.0)
    ok = (
        exact <= chern <= relaxed <= markov
        and abs(relaxed - 0.6014) < 1e-4
        and markov == 0.75
    )
    _verdict(
        5, ok,
        f"exact={exact:.5f} <= chernoff={chern:.5f} <= {relaxed:.5f} "
        f"<= markov={markov:.2f}",
    )


def test_criterion_06_plateau_crossing_time():
    """Crossing a plateau of length 10 at position 60 in n=100: the mean
    generation count over 10^4 forced-start runs lies in the additive
    drift sandwich [25, 50] widened by 3 standard errors."""
    n, m, k = 100, 10, 60
    spec = plateau_function(n, m, k)
    exp = Experiment(
        function=spec,
        algorithm=one_plus_one_config(n),
        runs=10_000,
        master_seed=31,
        budget=Budget(100_000),
        start=StartPolicy.fixed(m + k),
        target_fitness=float(spec.value_table[k]),
    )
    batch = run_batch(exp, workers=1)
    s = batch.summary
    mean_gens = s.mean - 1.0  # generations exclude the initial evaluation
    lower, upper = plateau_bounds(n, m, k)
    ok = (
        s.successes == s.runs
        and lower - 3 * s.stderr <= mean_gens <= upper + 3 * s.stderr
    )
    _verdict(
        6, ok,
        f"mean generations={mean_gens:.2f} in [{lower:.0f}, {upper:.0f}] "
        f"+/- {3 * s.stderr:.2f}",
    )


def test_criterion_07_gap_sandwich():
    """Exact expected time to jump a gap of length 2 at position 1 in
    n=10 lies inside both the binomial-coefficient pair and its
    Stirling-style relaxation."""
    n, m, k = 10, 2, 1
    spec = gap_function(n, m, k)
    chain = build_level_chain(spec, "OnePlusOneEA")
    beyond = spec.value_table > spec.value_table[m + k]
    oracle = expected_hitting_times_to(chain, beyond)[m + k]
    gb = gap_block_bounds(n, m, k)
    ok = (
        gb.inner_lower <= oracle <= gb.inner_upper
        and gb.outer_lower <= oracle <= gb.outer_upper
    )
    _verdict(
        7, ok,
        f"oracle={oracle:.2f} inner=[{gb.inner_lower:.2f}, {gb.inner_upper:.2f}] "
        f"outer=[{gb.outer_lower:.2f}, {gb.outer_upper:.2f}]",
    )


def test_criterion_08_needle_negative_drift():
    """All-flat function with a single optimum, n=16: the negative-drift
    hypotheses hold on the interval derived from gamma=0.1 with
    delta=r=1 using exact kernel quantities, and the exact success
    probability from the all-zeros start over a 100-generation horizon
    is below 10^-3 (the process drifts away from the optimum)."""
    n, gamma = 16, 0.1
    chain = build_level_chain(needle(n), "OnePlusOneEA")
    drift = exact_drift(chain, lambda z: float(z))
    spec = NegativeDrift(
        a=n / 2 - 2 * gamma * n, b=n / 2 - gamma * n, eps=2 * gamma,
        delta=1.0, r=1.0,
    )
    report = negative_drift_check(
        spec,
        drift_at=lambda i: -drift[i],  # drift away from the optimum
        jump_tail_at=lambda i, j: jump_tail(chain, i, j),
        state_max=n,
    )
    p100 = exact_success_probability(chain, point_start(n, n), 100)
    ok = report.hypotheses_ok and p100 < 1e-3
    _verdict(
        8, ok,
        f"conditions ok={report.hypotheses_ok} "
        f"(min drift={report.detail.get('min_drift', float('nan')):.3f}) "
        f"P(success within 100 gens)={p100:.2e}",
    )


def test_criterion_09_linear_function_tail():
    """Uniform-weight linear function (n=100): the runtime tail beyond
    t(n) + e*n*r stays under e^-r plus 3 Wilson half-widths for
    r in {1, 2, 3}, with t(100) about 1523.65."""
    n, runs = 100, 10_000
    t_n = math.e * n * (math.log(n) + 1.0)  # w_max = w_min
    exp = Experiment(
        function=onemax(n),  # all weights equal: same function, fast path
        algorithm=one_plus_one_config(n),
        runs=runs,
        master_seed=55,
        budget=Budget(10_000),
    )
    batch = run_batch(exp, workers=1)
    gens = np.array([r.evaluations - 1 for r in batch.records if r.success])
    ok = abs(t_n - 1523.65) < 0.01 and gens.size == runs
    details = [f"t(100)={t_n:.2f}"]
    for r in (1, 2, 3):
        threshold = t_n + math.e * n * r
        above = int(np.sum(gens >= threshold))
        frac = above / runs
        lo, hi = wilson_interval(above, runs)
        half = (hi - lo) / 2.0
        bound = math.exp(-r) + 3 * half
        ok = ok and frac <= bound
        details.append(f"r={r}: {frac:.4f} <= {bound:.4f}")
    _verdict(9, ok, "; ".join(details))


def test_criterion_10_comma_ea_within_level_based_bound():
    """Non-elitist (mu,lambda) EA on the count-the-ones function, n=50,
    chi=1, delta=0.1: at the smallest population size satisfying the
    level-based condition (C3), all 100 runs finish within the theorem's
    bound; derived constants match hand computation."""
    n, chi, delta = 50, 1.0, 0.1
    ratio = 0.9 / (1.1 * math.e)  # mu/lambda cap from the pressure condition

    lam = level_based_lambda_min(onemax_level_params(n, chi, delta, lam=2))
    while True:
        mu = int(lam * ratio)
        params = onemax_level_params(n, chi, delta, lam=lam, mu=mu)
        if lam >= level_based_lambda_min(params):
            break
        lam += 1
    report = level_based_bound(params)
    assert report.hypotheses_ok

    # Hand-computed constants.
    gamma0 = mu / lam
    a_hand = delta**2 * gamma0 / (2 * (1 + delta))
    eps_hand = min(delta / 2, 0.5)
    c_hand = eps_hand**4 / 24
    constants_ok = (
        math.isclose(params.a, a_hand)
        and params.eps == eps_hand
        and math.isclose(params.c, c_hand)
        and onemax_level_params(n, chi, 0.5, lam=2).c == pytest.approx(1 / 6144)
    )

    cfg = AlgorithmConfig(
        AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(n, chi), mu=mu, lam=lam
    )
    exp = Experiment(
        function=onemax(n),
        algorithm=cfg,
        runs=100,
        master_seed=88,
        budget=Budget(int(min(report.bound_value, 8e7))),
    )
    batch = run_batch(exp, workers=1)
    worst = max(r.evaluations for r in batch.records)
    ok = (
        constants_ok
        and lam / mu >= (1.1 / 0.9) * math.e
        and batch.summary.successes == 100
        and worst <= report.bound_value
    )
    _verdict(
        10, ok,
        f"lambda={lam} mu={mu} all 100 runs succeed, worst={worst:.3g} <= "
        f"bound={report.bound_value:.3g}; constants ok={constants_ok}",
    )


def test_criterion_11_byte_identical_outputs(tmp_path):
    """The same configuration produces byte-identical sample and report
    files when run twice, at 1 and at 8 worker processes."""
    cfg = {
        "schema_version": 1,
        "experiment": {"name": "determinism"},
        "function": {"family": "onemax", "n": 12},
        "algorithm": {"kind": "OnePlusOneEA"},
        "runs": 60,
        "master_seed": 4242,
        "bounds": [{"id": "onemax_afl_upper"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for tag, threads in (("a1", 1), ("b1", 1), ("a8", 8), ("b8", 8)):
        out = tmp_path / tag
        code = cli_main(
            ["run", "--config", str(cfg_path), "--out", str(out),
             "--threads", str(threads), "--quiet"]
        )
        assert code == 0
        outputs.append(
            tuple((out / f).read_bytes()
                  for f in ("samples.csv", "summary.json", "comparison.csv"))
        )
    ok = all(o == outputs[0] for o in outputs[1:])
    _verdict(11, ok, "samples/summary/comparison identical across 4 invocations "
                     "(2 seeds repeats x {1, 8} workers)")


def test_criterion_12_growth_curve_sweep():
    """Runtime on the count-the-ones function grows like c * n ln n with
    c in [0.5, e]; the gap negative control shows the expected
    super-polynomial jump between n=14 and n=20."""
    sizes = list(range(10, 101, 10))
    xs, ys = [], []
    for n in sizes:
        exp = Experiment(
            function=onemax(n),
            algorithm=one_plus_one_config(n),
            runs=250,
            master_seed=500 + n,
            budget=Budget(50_000),
        )
        s = run_batch(exp, workers=1).summary
        xs.append(n * math.log(n))
        ys.append(s.mean)
    xs, ys = np.array(xs), np.array(ys)
    c_fit = float(np.dot(xs, ys) / np.dot(xs, xs))  # least squares via origin

    means = {}
    for n in (14, 20):
        exp = Experiment(
            function=gap_function(n, 2, 1),
            algorithm=one_plus_one_config(n),
            runs=400,
            master_seed=700 + n,
            budget=Budget(200_000),
        )
        s = run_batch(exp, workers=1).summary
        assert s.censored == 0
        means[n] = s.mean
    ratio = means[20] / means[14]
    floor = (20 / 14) ** 2 / 2
    ok = 0.5 <= c_fit <= math.e and ratio >= floor
    _verdict(
        12, ok,
        f"fitted c={c_fit:.3f} in [0.5, {math.e:.3f}]; gap mean ratio "
        f"{ratio:.2f} >= {floor:.2f}",
    )
