"""Correctness checks on the outputs of ``ea-lab run|sweep``.

They run outside the timed region and compare the program's outputs with
its own exact oracle:

* every ``ea-lab`` call exits with code 0;
* on each level-path point (a point whose output carries an oracle
  value), the simulated mean lies within ``MEAN_Z`` standard errors of
  the oracle's expected evaluations;
* the empirical runtime CDF lies inside the DKW band
  sqrt(ln(2/alpha) / 2N) of ``exact_success_probability(chain, start,
  t - 1)`` (evaluations = generations + 1) at the curve points nearest to
  the quartiles;
* where a workload asks for it, no run is censored by the budget.

Statistical checks pool the first few repetitions of a run, whose inputs
depend on the seed only, so a seed either passes or fails every time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from ea_lab import cli, oracle

# The mean check's tolerance in standard errors.  At 3 s.e. a correct
# program fails one point in 370; two sets of ten runs on every workload
# make 100 such comparisons, so 3 s.e. would flag a correct program in
# about one such round in four.  4.5 s.e. fails one point in 150,000
# and still flags a reference shifted by 10 s.e.
MEAN_Z = 4.5
# Family-wise error of the DKW band at the (at most three) checked points.
DKW_ALPHA = 1e-5


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def primary_output(call: dict) -> str:
    name = "samples.csv" if call["command"] == "run" else "curve.csv"
    return os.path.join(call["out"], name)


def read_points(call: dict) -> list[dict]:
    """One record per simulated point of a finished ``ea-lab`` call:
    size, run counts, mean and s.e., success curve, oracle value and
    the sum of the ``evaluations`` column."""
    if call["command"] == "run":
        with open(os.path.join(call["out"], "summary.json")) as fh:
            summary = json.load(fh)
        entries = [(summary["config"]["function"].get("n"), summary)]
        with open(os.path.join(call["out"], "samples.csv")) as fh:
            next(fh)
            eval_sum = sum(int(line.split(",")[2]) for line in fh if line.strip())
        sums = [eval_sum]
    else:
        with open(os.path.join(call["out"], "sweep.json")) as fh:
            sweep = json.load(fh)
        entries = [(p["n"], p) for p in sweep["points"]]
        # `sweep` writes no samples.csv: the sum over successful runs is
        # mean x successes, and a censored run consumed the whole budget.
        sums = [
            (p["runtime"]["mean"] or 0.0) * p["runtime"]["successes"]
            + p["runtime"]["censored"] * p["runtime"]["budget"]
            for p in sweep["points"]
        ]
    points = []
    for (n, entry), eval_sum in zip(entries, sums):
        rt = entry["runtime"]
        exact = entry["oracle"]
        points.append({
            "n": n,
            "runs": rt["runs"],
            "successes": rt["successes"],
            "censored": rt["censored"],
            "mean": rt["mean"],
            "stderr": rt["stderr"],
            "curve_t": rt["curve"]["t"],
            "curve_p": rt["curve"]["p"],
            "oracle": None if exact is None else exact["expected_evaluations"],
            "eval_sum": eval_sum,
        })
    return points


def pool(points: list[dict]) -> dict:
    """Merge one point's records from independent repetitions: pooled
    success mean and s.e., and the run-weighted success curve."""
    n_tot = sum(p["successes"] for p in points)
    runs = sum(p["runs"] for p in points)
    mean = sum(p["mean"] * p["successes"] for p in points if p["successes"]) / n_tot
    ss = 0.0
    for p in points:
        k = p["successes"]
        if k > 1:
            ss += (p["stderr"] * math.sqrt(k)) ** 2 * (k - 1)
        if k:
            ss += k * (p["mean"] - mean) ** 2
    stderr = math.sqrt(ss / (n_tot - 1)) / math.sqrt(n_tot)
    curve_p = [sum(p["curve_p"][i] * p["runs"] for p in points) / runs
               for i in range(len(points[0]["curve_t"]))]
    return {"runs": runs, "mean": mean, "stderr": stderr,
            "curve_t": points[0]["curve_t"], "curve_p": curve_p}


def mean_check(mean: float, stderr: float, oracle: float) -> tuple[bool, float]:
    z = (mean - oracle) / stderr
    return abs(z) <= MEAN_Z, z


def dkw_epsilon(runs: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * runs))


def quartile_points(curve_t: list[float], curve_p: list[float]) -> list[int]:
    """Curve times whose empirical CDF is nearest to 1/4, 1/2 and 3/4."""
    chosen = []
    for q in (0.25, 0.5, 0.75):
        i = min(range(len(curve_p)), key=lambda j: abs(curve_p[j] - q))
        t = int(curve_t[i])
        if t not in chosen:
            chosen.append(t)
    return chosen


def dkw_check(empirical: list[float], exact: list[float], runs: int) -> tuple[bool, float, float]:
    dev = max(abs(a - b) for a, b in zip(empirical, exact))
    eps = dkw_epsilon(runs)
    return dev <= eps, dev, eps


def exact_cdf(chain, start, ts: list[int]) -> list[float]:
    # P(T <= t evaluations) = P(absorbed within t - 1 generations).
    return [oracle.exact_success_probability(chain, start, t - 1) for t in ts]


def level_chain(call: dict, n: int | None):
    """The exact chain and start distribution of one level-path point."""
    cfg = cli.load_config(call["config_path"])
    exp = cli.build_experiment(cfg, n if call["command"] == "sweep" else None)
    chain = oracle.build_level_chain(
        exp.function, exp.algorithm.kind.value, exp.algorithm.mutation
    )
    size = exp.function.n
    if exp.start.fixed_zeros is None:
        start = oracle.binomial_start(size)
    else:
        start = oracle.point_start(size, exp.start.fixed_zeros)
    return chain, start


def run_checks(calls_by_rep: list[list[dict]], exit_codes: list[list[int]],
               no_censoring: bool, pooled_reps: int) -> tuple[list[dict], list]:
    """Every check of one benchmark run, and the points read from each
    repetition's outputs.  ``calls_by_rep[r][c]`` is call ``c`` of
    repetition ``r`` with its output directory."""
    results = []

    def record(name: str, ok: bool, **detail) -> None:
        results.append({"check": name, "ok": bool(ok), **detail})

    for r, codes in enumerate(exit_codes):
        for call, code in zip(calls_by_rep[r], codes):
            record("exit_code", code == 0, rep=r, label=call["label"], code=code)

    points_by_rep = [[read_points(call) for call in calls] for calls in calls_by_rep]
    if no_censoring:
        for r, rep_points in enumerate(points_by_rep):
            for call, points in zip(calls_by_rep[r], rep_points):
                for p in points:
                    record("no_censoring", p["censored"] == 0, rep=r,
                           label=call["label"], n=p["n"], censored=p["censored"])

    used = points_by_rep[:pooled_reps]
    for c, call in enumerate(calls_by_rep[0]):
        for i, first in enumerate(used[0][c]):
            if first["oracle"] is None:
                continue
            pooled = pool([rep[c][i] for rep in used])
            ok, z = mean_check(pooled["mean"], pooled["stderr"], first["oracle"])
            record("mean_vs_oracle", ok, label=call["label"], n=first["n"],
                   mean=pooled["mean"], oracle=first["oracle"], z=z)
            chain, start = level_chain(call, first["n"])
            ts = quartile_points(pooled["curve_t"], pooled["curve_p"])
            emp = [pooled["curve_p"][pooled["curve_t"].index(float(t))] for t in ts]
            exact = exact_cdf(chain, start, ts)
            ok, dev, eps = dkw_check(emp, exact, pooled["runs"])
            record("cdf_in_dkw_band", ok, label=call["label"], n=first["n"],
                   t=ts, max_dev=dev, epsilon=eps)
    return results, points_by_rep
