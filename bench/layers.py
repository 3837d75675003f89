"""The traced run: per-layer numbers from spans recorded around the calls
into each module's public functions.

Spans inside pool workers do not come back to this process, so sampler
and RNG spans come from a 1-worker ``run_batch`` of the same experiments.
A layer the workload never reaches (the oracle on ``population-bits``, a
sampler path another workload takes) is timed on a fixed probe
experiment instead, so that every time metric is measured on every
workload; call counts always come from the workload itself.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

import numpy as np

from tracer import Tracer, durations, self_times

# Wrapped attributes, named module.attribute; the span carries the same name.
TRACED = (
    "cli.load_config",
    "cli.build_experiment",
    "cli.compute_oracle",
    "cli.evaluate_bounds",
    "cli.write_atomic",
    "empirics.run_batch",
    "empirics.compare",
    "empirics.run_algorithm",
    "core.RngStream.generator",
    "oracle.build_level_chain",
    "oracle.flip_count_pmf_table",
    "oracle.exact_expected_hitting_time",
    "oracle.fitness_level_data",
)

# Time metrics that need the oracle, and the span that shows it was reached.
ORACLE_TIMES = {
    "oracle.build_level_chain": ("core.pmf_table_self_s", "oracle.build_chain_self_s",
                                 "oracle.solve_ms"),
    "oracle.fitness_level_data": ("oracle.fitness_levels_ms",),
}
RATE_BY_PATH = {
    "level": "algorithms.level.evals_per_s",
    "population": "algorithms.population.gens_per_s",
    "bits": "algorithms.bits.evals_per_s",
}


def _tracer() -> Tracer:
    from ea_lab import cli, core, empirics, oracle

    modules = {"cli": cli, "core": core, "empirics": empirics, "oracle": oracle}
    tracer = Tracer()
    for name in TRACED:
        module, *attrs = name.split(".")
        owner = modules[module]
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        tracer.wrap(owner, attrs[-1], name)
    return tracer


def _path(exp) -> str:
    from ea_lab.algorithms import AlgorithmKind
    from ea_lab.core import UnitationSpec

    if not isinstance(exp.function, UnitationSpec):
        return "bits"
    if exp.algorithm.kind in (AlgorithmKind.RLS, AlgorithmKind.ONE_PLUS_ONE_EA):
        return "level"
    return "population"


def cli_pass_metrics(spans: list[list]) -> dict:
    """Per-layer numbers of one traced pass over the workload's calls."""
    main_s = sum(durations(spans, "cli.main"))
    builds = durations(spans, "oracle.build_level_chain")
    return {
        "core.pmf_table_calls": len(durations(spans, "oracle.flip_count_pmf_table")),
        "core.pmf_table_self_s": sum(self_times(spans, "oracle.flip_count_pmf_table")),
        "oracle.build_chain_calls": len(builds),
        "oracle.build_chain_self_s": sum(self_times(spans, "oracle.build_level_chain")),
        "oracle.build_chain_share": sum(builds) / main_s,
        "oracle.solve_ms": 1e3 * sum(durations(spans, "oracle.exact_expected_hitting_time")),
        "oracle.fitness_levels_ms": 1e3 * sum(durations(spans, "oracle.fitness_level_data")),
        "bounds.eval_self_ms": 1e3 * sum(self_times(spans, "cli.evaluate_bounds")),
        "cli.load_config_ms": 1e3 * sum(durations(spans, "cli.load_config")),
        "cli.write_ms": 1e3 * sum(durations(spans, "cli.write_atomic")),
        "cli.glue_s": sum(self_times(spans, "cli.main")),
        "cli.main_s": main_s,
    }


def batch_metrics(batches: list[dict]) -> dict:
    """Sampler, RNG and batch numbers from traced 1-worker batches;
    ``batches`` holds each experiment's spans, path and work done."""
    spans = [s for b in batches for s in b["spans"]]
    gen = np.array(durations(spans, "core.RngStream.generator"))
    runs = np.array(durations(spans, "empirics.run_algorithm"))
    total = sum(durations(spans, "empirics.run_batch"))
    batch_self = sum(self_times(spans, "empirics.run_batch"))
    out = {
        "core.rng_setup_us_p50": 1e6 * float(np.percentile(gen, 50)),
        "core.rng_setup_us_p99": 1e6 * float(np.percentile(gen, 99)),
        "core.rng_setup_calls": int(gen.size),
        "algorithms.run_us_p50": 1e6 * float(np.percentile(runs, 50)),
        "algorithms.run_us_p99": 1e6 * float(np.percentile(runs, 99)),
        "algorithms.run_count": int(runs.size),
        "empirics.batch_self_s": batch_self,
        "empirics.overhead_share": batch_self / total,
    }
    for path, metric in RATE_BY_PATH.items():
        chosen = [b for b in batches if b["path"] == path]
        if chosen:
            work = sum(b["work"] for b in chosen)
            busy = sum(sum(durations(b["spans"], "empirics.run_algorithm")) for b in chosen)
            out[metric] = work / busy
    return out


def _traced_batches(tracer: Tracer, experiments: list) -> tuple[list[dict], list]:
    from ea_lab import empirics

    batches, results = [], []
    for exp in experiments:
        with tracer.installed():
            result = empirics.run_batch(exp, workers=1)
        evals = sum(r.evaluations for r in result.records)
        path = _path(exp)
        if path == "population":
            # Generations after the initial population, lambda evaluations each.
            work = (evals - exp.algorithm.initial_population * exp.runs) / exp.algorithm.lam
        else:
            work = evals
        batches.append({"path": path, "work": work, "spans": tracer.take()})
        results.append(result)
    return batches, results


def _passes(tracer: Tracer, cli, calls, argv, threads, budget_s):
    """Alternate traced and untraced passes over the calls while the budget
    allows (at least one of each); returns the traced passes' spans, the
    untraced pass times and every pass's exit codes."""
    passes, untraced, codes = [], [], []
    start = perf_counter()
    while True:
        pair = perf_counter()
        with tracer.installed():
            codes.append([tracer.call("cli.main", cli.main, argv(call, threads))
                          for call in calls])
        passes.append(tracer.take())
        t = perf_counter()
        codes.append([cli.main(argv(call, threads)) for call in calls])
        untraced.append(perf_counter() - t)
        if perf_counter() - start + (perf_counter() - pair) > budget_s:
            return passes, untraced, codes


def _median_metrics(passes: list[dict]) -> dict:
    # Counts keep an observed value (median_low), so they stay integers.
    return {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [p[k] for p in passes]) for k, v in passes[0].items()}


def _same_at_one_worker(call: dict, results: list) -> list[bool]:
    """The 1-worker batch reproduces the CLI's multi-worker output."""
    from ea_lab import empirics

    if call["command"] == "run":
        lines = [empirics.SAMPLE_HEADER] + [r.to_line() for r in results[0].records]
        with open(os.path.join(call["out"], "samples.csv")) as fh:
            return [fh.read() == "\n".join(lines) + "\n"]
    with open(os.path.join(call["out"], "sweep.json")) as fh:
        points = json.load(fh)["points"]
    return [p["runtime"]["mean"] == r.summary.mean and p["runtime"]["stderr"] == r.summary.stderr
            for p, r in zip(points, results)]


def traced_run(spec: dict, setup, argv) -> dict:
    from ea_lab import empirics
    from ea_lab.core import UnitationSpec

    threads, calls = spec["threads"], spec["calls"]
    tracer = _tracer()
    with tracer.installed():
        cli, experiments = setup(calls)
    tracer.take()

    # An untimed first pass absorbs first-call costs for both kinds of pass.
    codes = [[cli.main(argv(call, threads)) for call in calls]]
    passes, untraced, more = _passes(tracer, cli, calls, argv, threads, spec["seconds"] / 3)
    codes += more
    metrics = _median_metrics([cli_pass_metrics(p) for p in passes])
    metrics["trace.overhead_s"] = metrics.pop("cli.main_s") - statistics.median(untraced)

    flat = [exp for exps in experiments for exp in exps]
    batches, results = _traced_batches(tracer, flat)
    metrics.update(batch_metrics(batches))
    same, i = [], 0
    for call, exps in zip(calls, experiments):
        same += _same_at_one_worker(call, results[i:i + len(exps)])
        i += len(exps)

    # Scaling t(1) / (nproc t(nproc)), untraced, over the same experiments.
    t1 = tn = 0.0
    for exp in flat:
        t = perf_counter()
        empirics.run_batch(exp, workers=1)
        t1 += perf_counter() - t
        t = perf_counter()
        empirics.run_batch(exp, workers=threads)
        tn += perf_counter() - t
    metrics["empirics.scaling_eff"] = t1 / (threads * tn)

    # Level transitions: the input property a jump-chain sampler exploits.
    stay = moves = runs = 0
    for exp in flat:
        if isinstance(exp.function, UnitationSpec):
            trans = empirics.run_batch(exp, workers=1, record_transitions=True).transitions
            stay += int(np.trace(trans))
            moves += int(trans.sum()) - int(np.trace(trans))
            runs += exp.runs
    metrics["algorithms.self_loop_share"] = stay / (stay + moves)
    metrics["algorithms.level_changes_per_run"] = moves / runs

    probed = _probe(spec, setup, argv, tracer, metrics, batches, passes)
    # Per call, the first non-zero exit code of any pass.
    exit_codes = [next((c for c in column if c), 0) for column in zip(*codes)]
    return {"metrics": metrics, "passes": len(passes), "untraced_pass_s": untraced,
            "exit_codes": exit_codes,
            "same_at_one_worker": same, "probed": probed}


def _probe(spec, setup, argv, tracer, metrics, batches, passes) -> list[str]:
    """Fill time metrics of layers the workload never reached from the
    probe calls; returns the names filled."""
    reached = {s[0] for p in passes for s in p}
    paths = {b["path"] for b in batches}
    missing = [m for span, names in ORACLE_TIMES.items() if span not in reached
               for m in names]
    missing += [m for path, m in RATE_BY_PATH.items() if path not in paths]
    if not missing:
        return []
    cli, experiments = setup(spec["probes"])
    probe_passes, _, _ = _passes(tracer, cli, spec["probes"], argv, 1, 0.0)
    probe_batches, _ = _traced_batches(tracer, [e for exps in experiments for e in exps])
    probe = {**cli_pass_metrics(probe_passes[0]), **batch_metrics(probe_batches)}
    for name in missing:
        metrics[name] = probe[name]
    return missing
