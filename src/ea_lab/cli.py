"""Command-line front end: run experiments, sweep the problem size, or
evaluate theorem bounds from a JSON configuration.

Each bound id names one evaluator in ``BOUND_REGISTRY``.  An evaluator
returns its theorem's report with upper bounds counted in generations;
``evaluate_bounds`` then applies the shared conventions in one place:

- the report's ``theorem_id`` is the registry key;
- an upper bound whose hypotheses hold gets the algorithm's initial
  population added, so that it counts evaluations like the empirical
  clock, and records it as ``detail["initial_evaluations_added"]``;
- an evaluator that raises ``DomainError`` yields a "not applicable"
  report, ``hypotheses_ok`` None, in the direction its registry entry
  records, whose ``detail["reason"]`` says why.

A bound parameter missing from both the bound's params and the function
section is a configuration error, whatever the bound.

Exit status is 0 when no checked bound is contradicted, 2 when one is or
when a theorem's own hypothesis check fails, and 1 on usage or
configuration errors or when a pool worker dies.  A bound that does not
apply leaves ``run`` and ``sweep`` at 0, but makes ``bounds`` exit 2: it
cannot be certified.
All output files are written atomically (temporary file + rename) so a
crashed invocation never leaves a truncated artifact behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from importlib import resources
from typing import Any, Callable, NamedTuple

import jsonschema
import numpy as np

from . import bounds as bnd
from . import core, empirics, oracle
from .algorithms import AlgorithmConfig, AlgorithmKind, Budget, TieBreak, uses_jump_chain
from .bounds import BoundReport, Direction
from .core import FitnessFunction, MutationParams, UnitationSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAILURE = 2

# Oracle computation is cubic in n; above this size it must be requested
# explicitly in the configuration.
_ORACLE_AUTO_LIMIT = 512

_NO_CHAIN = "the exact level chain needs RLS or the (1+1) EA on a unitation function"


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# Configuration loading


def _schema() -> dict:
    text = resources.files("ea_lab").joinpath("config_schema.json").read_text()
    return json.loads(text)


def load_config(path: str) -> dict:
    """Parse and schema-validate a configuration file.

    Error messages are anchored: JSON syntax errors carry line/column,
    schema violations carry the JSON pointer of the offending element.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        pointer = "/" + "/".join(str(p) for p in first.absolute_path)
        raise ConfigError(f"{path}: at {pointer or '/'}: {first.message}")
    return cfg


def build_function(fn_cfg: dict, n_override: int | None = None):
    """Instantiate the objective named by the ``function`` section."""
    family = fn_cfg["family"]
    if family == "linear":
        if n_override is not None:
            raise ConfigError("the linear family has no size parameter to sweep")
        if "weights" not in fn_cfg:
            raise ConfigError("function family 'linear' requires 'weights'")
        return core.linear_function(fn_cfg["weights"])

    n = n_override if n_override is not None else fn_cfg.get("n")
    if n is None:
        raise ConfigError(f"function family '{family}' requires 'n'")
    if family == "onemax":
        return core.onemax(n)
    if family == "needle":
        return core.needle(n)
    if family in ("gap", "plateau"):
        if "m" not in fn_cfg or "k" not in fn_cfg:
            raise ConfigError(f"function family '{family}' requires 'm' and 'k'")
        maker = core.gap_function if family == "gap" else core.plateau_function
        try:
            return maker(n, fn_cfg["m"], fn_cfg["k"])
        except core.SpecError as exc:
            raise ConfigError(str(exc)) from exc
    # blocks
    if n_override is not None:
        raise ConfigError("the blocks family cannot be swept over n")
    if "blocks" not in fn_cfg:
        raise ConfigError("function family 'blocks' requires 'blocks'")
    try:
        return UnitationSpec.from_dict({"n": n, "blocks": fn_cfg["blocks"]})
    except core.SpecError as exc:
        raise ConfigError(str(exc)) from exc


def build_algorithm(alg_cfg: dict, n: int) -> AlgorithmConfig:
    try:
        return AlgorithmConfig(
            kind=AlgorithmKind(alg_cfg["kind"]),
            mutation=MutationParams(n=n, chi=float(alg_cfg.get("chi", 1.0))),
            mu=int(alg_cfg.get("mu", 1)),
            lam=int(alg_cfg.get("lambda", 1)),
            tie_break=TieBreak(alg_cfg.get("tie_break", "PreferOffspring")),
        )
    except core.DomainError as exc:
        raise ConfigError(str(exc)) from exc


def build_start(cfg: dict, n: int) -> empirics.StartPolicy:
    start = cfg.get("start", {"policy": "UniformRandom"})
    if start["policy"] == "UniformRandom":
        return empirics.StartPolicy.uniform()
    if "zeros" not in start:
        raise ConfigError("start policy FixedZeros requires 'zeros'")
    z = int(start["zeros"])
    if not 0 <= z <= n:
        raise ConfigError(f"start zeros-count {z} outside 0..{n}")
    return empirics.StartPolicy.fixed(z)


def build_experiment(cfg: dict, n_override: int | None = None) -> empirics.Experiment:
    function = build_function(cfg["function"], n_override)
    algorithm = build_algorithm(cfg["algorithm"], function.n)
    return empirics.Experiment(
        function=function,
        algorithm=algorithm,
        runs=int(cfg["runs"]),
        master_seed=int(cfg["master_seed"]),
        budget=Budget(int(cfg.get("budget", 10_000_000))),
        start=build_start(cfg, function.n),
        target_fitness=cfg.get("target_fitness"),
    )


# ---------------------------------------------------------------------------
# Oracle helpers


@dataclasses.dataclass(frozen=True)
class BoundContext:
    """One point of an experiment: everything the oracle and a bound
    evaluator may draw on besides the bound's own params."""

    function_cfg: dict
    experiment: empirics.Experiment

    @property
    def n(self) -> int:
        return self.experiment.function.n

    @property
    def algorithm(self) -> AlgorithmConfig:
        return self.experiment.algorithm

    @property
    def has_chain(self) -> bool:
        """Whether the algorithm's state is a zeros-count level: RLS or the
        (1+1) EA on a unitation function."""
        return uses_jump_chain(self.experiment.function, self.algorithm)

    @functools.cached_property
    def chain(self) -> oracle.LevelChain:
        """The point's exact level chain, built on first use and shared by
        the oracle and the exact fitness-level bounds."""
        if not self.has_chain:
            raise ConfigError(_NO_CHAIN)
        exp = self.experiment
        return oracle.build_level_chain(
            exp.function, exp.algorithm.kind.value, exp.algorithm.mutation
        )

    @functools.cached_property
    def level_data(self) -> oracle.FitnessLevelData:
        """The chain's exact fitness-level data, computed on first use and
        shared by both exact fitness-level bounds."""
        return oracle.fitness_level_data(self.chain)

    @property
    def start(self) -> np.ndarray:
        """The start distribution over the chain's levels."""
        zeros = self.experiment.start.fixed_zeros
        if zeros is None:
            return oracle.binomial_start(self.n)
        return oracle.point_start(self.n, zeros)


def compute_oracle(ctx: BoundContext) -> dict | None:
    """Exact expected runtime (in evaluations) when the level chain
    applies: the time to reach ``target_fitness`` if the experiment sets
    one, else the time to the optimum."""
    if not ctx.has_chain:
        return None
    chain = ctx.chain
    target_fitness = ctx.experiment.target_fitness
    target = None if target_fitness is None else chain.value_table >= target_fitness
    gens = oracle.exact_expected_hitting_time(chain, ctx.start, target)
    return {
        "kind": chain.kind,
        "expected_generations": gens,
        "expected_evaluations": gens + 1.0,
    }


# ---------------------------------------------------------------------------
# Bound registry


class Bound(NamedTuple):
    """A registry entry: the direction of the bound and its evaluator,
    ``evaluate(ctx, params) -> BoundReport``."""

    direction: Direction
    evaluate: Callable[[BoundContext, dict], BoundReport]


def _mk(ctx: BoundContext, params: dict, key: str, default=None):
    value = params.get(key, ctx.function_cfg.get(key, default))
    if value is None:
        raise ConfigError(f"bound parameter '{key}' missing")
    return value


def _closed_form(direction: Direction, fn, *param_keys: str):
    """Evaluator of the closed form ``fn(n, *values)``, each integer value
    taken from the bound's params or else from the function section."""

    def evaluate(ctx, params):
        values = {key: int(_mk(ctx, params, key)) for key in param_keys}
        value = fn(ctx.n, *values.values())
        return BoundReport("", True, direction, bound_value=value, detail=values)

    return Bound(direction, evaluate)


def _tail(fn, *param_keys: str):
    """Evaluator of the tail inequality ``fn(*values)`` over the bound's
    params."""

    def evaluate(ctx, params):
        values = {key: float(_mk(ctx, params, key)) for key in param_keys}
        value = fn(*values.values())
        return BoundReport("", True, Direction.TAIL_UPPER, bound_value=value, detail=values)

    return Bound(Direction.TAIL_UPPER, evaluate)


def _gap(part: str):
    return lambda n, m, k: getattr(bnd.gap_block_bounds(n, m, k), part)


def _afl_exact_levels(ctx):
    if ctx.experiment.target_fitness is not None:
        raise core.DomainError("the exact fitness-level bounds bound the time to the "
                               "optimum, not to target_fitness")
    return ctx.level_data


def _eval_afl_exact_upper(ctx, params):
    return bnd.afl_upper(bnd.LevelData(s=_afl_exact_levels(ctx).s_min))


def _eval_afl_exact_lower(ctx, params):
    data, start = _afl_exact_levels(ctx), ctx.start
    # Initial-level mass over the non-top fitness levels.
    u = np.array([sum(start[z] for z in level) for level in data.levels[:-1]])
    if ctx.algorithm.kind is AlgorithmKind.ONE_PLUS_ONE_EA:
        chi = bnd.afl_chi_certificate(ctx.n, ctx.algorithm.mutation.chi)
    else:
        chi = 1.0  # RLS moves by single levels only
    rep = bnd.afl_lower(bnd.LevelData(s=data.s_max, u=u, chi_afl=chi))
    rep.detail["chi_afl"] = chi
    return rep


def _eval_multiplicative_drift_onemax(ctx, params):
    # Distance |x|_0, drift at least |x|_0 / (e n) for the (1+1) EA.
    return bnd.multiplicative_drift_bound(bnd.MultiplicativeDrift(
        delta=1.0 / (math.e * ctx.n), c_min=1.0, c_max=float(ctx.n)
    ))


def _eval_variable_drift_onemax(ctx, params):
    n = ctx.n
    spec = bnd.VariableDrift(
        h=lambda x: x / (math.e * n), x_min=1.0, x_max=float(n), X0=float(n)
    )
    return bnd.variable_drift_bound(spec, bnd.VariableDriftMode.UPPER_ON_E)


def _eval_level_based_onemax(ctx, params):
    delta = float(params.get("delta", 0.1))
    mu = ctx.algorithm.mu if ctx.algorithm.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA else None
    return bnd.level_based_bound(bnd.onemax_level_params(
        ctx.n, ctx.algorithm.mutation.chi, delta, ctx.algorithm.lam, mu=mu
    ))


def _eval_mucommalambda_runtime(ctx, params):
    delta = float(params.get("delta", 0.1))
    const = float(params.get("linear_term_constant", 0.0))
    return bnd.mucommalambda_runtime_bound(
        ctx.n, ctx.algorithm.mutation.chi, delta, ctx.algorithm.lam, const
    )


def _eval_linear_runtime_upper(ctx, params):
    fn = ctx.experiment.function
    if isinstance(fn, FitnessFunction) and fn.name == "linear":
        w = fn.fn.w
        w_max, w_min = float(w.max()), float(w.min())
    else:
        w_max = float(_mk(ctx, params, "w_max", 1.0))
        w_min = float(_mk(ctx, params, "w_min", 1.0))
    n = ctx.n
    value = math.e * n * (math.log(n) + math.log(w_max / w_min) + 1.0)
    return BoundReport("", True, Direction.UPPER_ON_E, bound_value=value,
                       detail={"w_max": w_max, "w_min": w_min})


BOUND_REGISTRY = {
    "markov": _tail(bnd.markov_bound, "expectation", "t"),
    "chernoff_upper": _tail(bnd.chernoff_upper, "expectation", "delta"),
    "chernoff_lower": _tail(bnd.chernoff_lower, "expectation", "delta"),
    "onemax_afl_upper": _closed_form(Direction.UPPER_ON_E, bnd.onemax_afl_upper),
    "linear_block_upper": _closed_form(Direction.UPPER_ON_E, bnd.linear_block_upper,
                                       "m", "k"),
    "linear_block_lower": _closed_form(Direction.LOWER_ON_E, bnd.linear_block_lower,
                                       "m", "k"),
    "gap_inner_lower": _closed_form(Direction.LOWER_ON_E, _gap("inner_lower"), "m", "k"),
    "gap_inner_upper": _closed_form(Direction.UPPER_ON_E, _gap("inner_upper"), "m", "k"),
    "gap_outer_lower": _closed_form(Direction.LOWER_ON_E, _gap("outer_lower"), "m", "k"),
    "gap_outer_upper": _closed_form(Direction.UPPER_ON_E, _gap("outer_upper"), "m", "k"),
    "plateau_lower": _closed_form(Direction.LOWER_ON_E,
                                  lambda *a: bnd.plateau_bounds(*a)[0], "m", "k"),
    "plateau_upper": _closed_form(Direction.UPPER_ON_E,
                                  lambda *a: bnd.plateau_bounds(*a)[1], "m", "k"),
    "afl_exact_upper": Bound(Direction.UPPER_ON_E, _eval_afl_exact_upper),
    "afl_exact_lower": Bound(Direction.LOWER_ON_E, _eval_afl_exact_lower),
    "multiplicative_drift_onemax": Bound(Direction.UPPER_ON_E,
                                         _eval_multiplicative_drift_onemax),
    "variable_drift_onemax": Bound(Direction.UPPER_ON_E, _eval_variable_drift_onemax),
    "level_based_onemax": Bound(Direction.UPPER_ON_E, _eval_level_based_onemax),
    "mucommalambda_runtime": Bound(Direction.UPPER_ON_E, _eval_mucommalambda_runtime),
    "linear_runtime_upper": Bound(Direction.UPPER_ON_E, _eval_linear_runtime_upper),
}


def check_bounds(ctx: BoundContext, entries: list[dict]) -> None:
    """Reject, before anything is simulated, an unknown bound id and an
    exact fitness-level bound on a point without a level chain."""
    for entry in entries:
        bound_id = entry["id"]
        if bound_id not in BOUND_REGISTRY:
            known = ", ".join(sorted(BOUND_REGISTRY))
            raise ConfigError(f"unknown bound id '{bound_id}' (known: {known})")
        if bound_id.startswith("afl_exact_") and not ctx.has_chain:
            raise ConfigError(_NO_CHAIN)


def evaluate_bounds(ctx: BoundContext, entries: list[dict]) -> list[BoundReport]:
    """One report per entry, under the conventions in the module docstring."""
    check_bounds(ctx, entries)
    extra = ctx.algorithm.initial_population
    reports = []
    for entry in entries:
        bound_id = entry["id"]
        bound = BOUND_REGISTRY[bound_id]
        try:
            report = bound.evaluate(ctx, entry.get("params", {}))
        except core.DomainError as exc:
            report = BoundReport(bound_id, None, bound.direction,
                                 detail={"reason": f"not applicable: {exc}"})
        report.theorem_id = bound_id
        # The empirical clock also counts the initial evaluations.
        if report.hypotheses_ok and report.direction is Direction.UPPER_ON_E:
            report.bound_value += extra
            report.detail["initial_evaluations_added"] = extra
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Output


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Direction):
        return obj.value
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return repr(obj)
    return obj


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj: Any) -> None:
    write_atomic(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def summary_dict(summary: empirics.RuntimeSummary) -> dict:
    return {
        "runs": summary.runs,
        "successes": summary.successes,
        "censored": summary.censored,
        "mean": summary.mean,
        "stderr": summary.stderr,
        "mean_ci": list(summary.mean_ci) if summary.mean_ci else None,
        "median": summary.median,
        "quantiles": {str(q): v for q, v in summary.quantiles.items()},
        "budget": summary.budget,
        "curve": {"t": summary.curve_t, "p": summary.curve_p},
    }


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "NO"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_comparison(rows: list[empirics.ComparisonRow], out=None) -> None:
    out = out if out is not None else sys.stdout
    header = ("quantity", "empirical", "oracle", "bound", "direction", "ok")
    table = [header] + [
        (r.quantity, _fmt(r.empirical), _fmt(r.oracle), _fmt(r.bound),
         r.direction, _fmt(r.satisfied))
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)), file=out)


def _verdict(rows: list[empirics.ComparisonRow]) -> int:
    failed = [r for r in rows if r.satisfied is False]
    return EXIT_BOUND_FAILURE if failed else EXIT_OK


def comparison_csv(rows: list[empirics.ComparisonRow]) -> str:
    lines = ["quantity,empirical,oracle,bound,direction,satisfied"]
    for r in rows:
        sat = "" if r.satisfied is None else str(int(r.satisfied))
        lines.append(
            f"{r.quantity},{_csv_num(r.empirical)},{_csv_num(r.oracle)},"
            f"{_csv_num(r.bound)},{r.direction},{sat}"
        )
    return "\n".join(lines) + "\n"


def _csv_num(v) -> str:
    return "" if v is None else repr(float(v))


# ---------------------------------------------------------------------------
# Commands


def _resolve_workers(threads: int) -> int:
    if threads < 0:
        raise ConfigError("--threads must be non-negative")
    return threads or os.cpu_count() or 1


def _prepare(args) -> tuple[dict, int]:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    workers = _resolve_workers(args.threads)
    os.makedirs(args.out, exist_ok=True)
    return cfg, workers


def _run_point(cfg: dict, exp: empirics.Experiment, workers: int):
    """The pipeline ``run`` and ``sweep`` share for one experiment: run
    the batch, then the oracle, then the bounds, then compare.  Returns
    the batch, the comparison rows and the point's JSON record."""
    ctx = BoundContext(cfg["function"], exp)
    check_bounds(ctx, cfg.get("bounds", []))
    batch = empirics.run_batch(exp, workers=workers)
    want_oracle = cfg.get("oracle", ctx.has_chain and ctx.n <= _ORACLE_AUTO_LIMIT)
    oracle_info = compute_oracle(ctx) if want_oracle else None
    oracle_value = oracle_info["expected_evaluations"] if oracle_info else None
    reports = evaluate_bounds(ctx, cfg.get("bounds", []))
    rows = empirics.compare(batch.summary, reports, oracle_value)
    record = {
        "runtime": summary_dict(batch.summary),
        "oracle": oracle_info,
        "bounds": [dataclasses.asdict(r) for r in reports],
        "comparison": [dataclasses.asdict(r) for r in rows],
    }
    return batch, rows, record


def cmd_run(args) -> int:
    cfg, workers = _prepare(args)
    batch, rows, record = _run_point(cfg, build_experiment(cfg), workers)
    summary = {"schema_version": cfg["schema_version"], "config": cfg, **record}
    write_json_atomic(os.path.join(args.out, "summary.json"), summary)
    lines = [empirics.SAMPLE_HEADER] + [r.to_line() for r in batch.records]
    write_atomic(os.path.join(args.out, "samples.csv"), "\n".join(lines) + "\n")
    write_atomic(os.path.join(args.out, "comparison.csv"), comparison_csv(rows))

    if not args.quiet:
        print_comparison(rows)
        print(f"results written to {args.out}")
    return _verdict(rows)


def cmd_sweep(args) -> int:
    cfg, workers = _prepare(args)
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a 'sweep' section")
    values = cfg["sweep"]["values"]
    if not values:
        raise ConfigError("sweep values must be non-empty")

    bound_ids = [entry["id"] for entry in cfg.get("bounds", [])]
    curve_header = ["n", "empirical_mean", "stderr", "oracle"] + [
        f"bound_{bid}" for bid in bound_ids
    ]
    curve_lines = [",".join(curve_header)]
    points = []
    all_rows: list[empirics.ComparisonRow] = []

    for n in values:
        batch, rows, record = _run_point(
            cfg, build_experiment(cfg, n_override=int(n)), workers
        )
        all_rows.extend(rows)
        oracle_value = rows[0].oracle  # the mean_hit_time row
        cells = [str(n), _csv_num(batch.summary.mean), _csv_num(batch.summary.stderr),
                 _csv_num(oracle_value)]
        cells += [_csv_num(b["bound_value"]) for b in record["bounds"]]
        curve_lines.append(",".join(cells))
        points.append({"n": int(n), **record})
        if not args.quiet:
            mean = _fmt(batch.summary.mean)
            print(f"n={n}: mean={mean} oracle={_fmt(oracle_value)}")

    write_atomic(os.path.join(args.out, "curve.csv"), "\n".join(curve_lines) + "\n")
    write_json_atomic(
        os.path.join(args.out, "sweep.json"),
        {"schema_version": cfg["schema_version"], "config": cfg, "points": points},
    )
    if not args.quiet:
        print(f"results written to {args.out}")
    return _verdict(all_rows)


def cmd_bounds(args) -> int:
    cfg, _ = _prepare(args)
    # Build the experiment without running it: bound evaluators may need
    # the oracle chain, which only depends on the configuration.
    exp = build_experiment(cfg)
    reports = evaluate_bounds(BoundContext(cfg["function"], exp), cfg.get("bounds", []))
    write_json_atomic(
        os.path.join(args.out, "bounds.json"),
        {
            "schema_version": cfg["schema_version"],
            "config": cfg,
            "bounds": [dataclasses.asdict(r) for r in reports],
        },
    )
    if not args.quiet:
        for rep in reports:
            status = {True: "ok", False: "HYPOTHESES FAILED",
                      None: "NOT APPLICABLE"}[rep.hypotheses_ok]
            print(f"{rep.theorem_id}: {status} bound={_fmt(rep.bound_value)} "
                  f"({rep.direction.value})")
        print(f"results written to {args.out}")
    # A bound that does not apply cannot be certified either.
    failed = any(not r.hypotheses_ok for r in reports)
    return EXIT_BOUND_FAILURE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ea-lab",
        description="Runtime experiments and theorem bounds for stochastic "
        "search heuristics on pseudo-Boolean functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("run", cmd_run, "run a batch of simulations and check bounds"),
        ("sweep", cmd_sweep, "repeat an experiment across problem sizes"),
        ("bounds", cmd_bounds, "evaluate theorem bounds without simulating"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default="ea-lab-out", help="output directory")
        p.add_argument(
            "--threads", type=int, default=0,
            help="worker processes (0 = one per CPU)",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="override the configured master seed",
        )
        p.add_argument("--quiet", action="store_true", help="suppress the table")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, core.SpecError, core.DomainError, core.DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenProcessPool as exc:  # a pool worker died, e.g. killed when out of memory
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
