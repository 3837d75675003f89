"""The benchmark's workloads: each is a list of ``ea-lab`` calls whose
configurations are generated from the workload seed.

Only the standard library is imported here, so the harness can write
configurations before ``ea_lab`` (and numpy) is imported anywhere.
"""

from __future__ import annotations

import random

WORKLOADS = ("short-runs", "gap-jump", "exact-sweep", "population-bits")

# Per-workload sizes; "tiny" is for the checker self-test, which only needs
# every metric to be emitted.
_SIZES = {
    "full": {
        "short_runs": 20_000,
        "gap_runs": 100,
        # n=512 (1.3-2 s per chain build, 9 builds) left room for only three
        # repetitions per run, too few to keep the run-to-run spread inside
        # the bound; at n <= 256 a run has about ten.
        "sweep_values": [64, 128, 256],
        "sweep_runs": 100,
        "pop_runs": 600,
        "bits_runs": 450,
    },
    "tiny": {
        "short_runs": 400,
        "gap_runs": 4,
        "sweep_values": [16, 32],
        "sweep_runs": 20,
        "pop_runs": 10,
        "bits_runs": 5,
    },
}

LINEAR_N = 100


def _config(name: str, seed: int, function: dict, algorithm: dict, runs: int,
            **extra) -> dict:
    cfg = {
        "schema_version": 1,
        "experiment": {"name": name},
        "function": function,
        "algorithm": algorithm,
        "runs": runs,
        "master_seed": seed,
    }
    cfg.update(extra)
    return cfg


def linear_weights(seed: int, n: int = LINEAR_N) -> list[int]:
    # Integer weights, as in the test suite.  With real-valued weights the
    # optimum `linear_function` reports (w.sum()) can exceed every evaluated
    # fitness (np.dot) by one ulp, and every run then runs to the budget.
    rng = random.Random(f"linear-weights:{seed}")
    return [rng.randint(1, 10) for _ in range(n)]


def make_calls(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The workload's ``ea-lab`` calls as ``{"command", "label", "config"}``."""
    s = _SIZES[size]
    one_plus_one = {"kind": "OnePlusOneEA"}
    if workload == "short-runs":
        cfg = _config(
            "short-runs", seed, {"family": "onemax", "n": 10}, one_plus_one,
            s["short_runs"], budget=100_000,
            bounds=[{"id": "onemax_afl_upper"}, {"id": "afl_exact_upper"},
                    {"id": "afl_exact_lower"}],
        )
        return [{"command": "run", "label": "onemax10", "config": cfg}]
    if workload == "gap-jump":
        # Target = optimum: that is the quantity the CLI oracle computes.
        cfg = _config(
            "gap-jump", seed, {"family": "gap", "n": 40, "m": 3, "k": 1},
            one_plus_one, s["gap_runs"],
            start={"policy": "FixedZeros", "zeros": 4},
            bounds=[{"id": "afl_exact_upper"}, {"id": "afl_exact_lower"},
                    {"id": "gap_inner_lower"}, {"id": "gap_inner_upper"}],
        )
        return [{"command": "run", "label": "gap40", "config": cfg}]
    if workload == "exact-sweep":
        cfg = _config(
            "exact-sweep", seed, {"family": "onemax", "n": s["sweep_values"][0]},
            one_plus_one, s["sweep_runs"],
            bounds=[{"id": "afl_exact_upper"}, {"id": "afl_exact_lower"},
                    {"id": "onemax_afl_upper"}],
            sweep={"variable": "n", "values": s["sweep_values"]},
        )
        return [{"command": "sweep", "label": "onemax-sweep", "config": cfg}]
    if workload == "population-bits":
        comma = _config(
            "population-comma", seed, {"family": "onemax", "n": LINEAR_N},
            {"kind": "MuCommaLambdaEA", "mu": 4, "lambda": 32}, s["pop_runs"],
        )
        bits = _config(
            "bits-linear", seed,
            {"family": "linear", "weights": linear_weights(seed)},
            one_plus_one, s["bits_runs"],
            bounds=[{"id": "linear_runtime_upper"}],
        )
        return [
            {"command": "run", "label": "comma-onemax100", "config": comma},
            {"command": "run", "label": "linear100", "config": bits},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def rep_seed(seed: int, rep: int) -> int:
    """Master seed of repetition ``rep``: every repetition simulates fresh
    runs, so a run's figures average over many inputs of the workload."""
    return random.Random(f"rep:{seed}:{rep}").randrange(2**31)


def probe_calls(seed: int) -> list[dict]:
    """Small fixed experiments on which the traced run times a layer that
    the workload itself never reaches: the oracle and fitness levels, and
    each of the three sampler paths."""
    level = _config(
        "probe-level", seed, {"family": "onemax", "n": LINEAR_N},
        {"kind": "OnePlusOneEA"}, 200, bounds=[{"id": "afl_exact_upper"}],
    )
    calls = [{"command": "run", "label": "probe-level", "config": level}]
    for call in make_calls("population-bits", seed, "tiny"):
        calls.append({**call, "label": "probe-" + call["label"]})
    return calls
