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
section, or not a number (an integer where the theorem takes one), is a
configuration error.  Bounds and oracle need no samples, so ``run`` and
``sweep`` evaluate them before each point's batch: every configuration
error stops the point before anything is simulated.

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

import numpy as np

from . import bounds as bnd
from . import core, empirics, oracle
from .algorithms import AlgorithmConfig, AlgorithmKind, Budget, TieBreak, uses_jump_chain
from .bounds import BoundReport, Direction
from .core import FitnessFunction, MutationParams, OneBitFlip, UnitationSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAILURE = 2


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# Configuration loading


def _schema() -> dict:
    text = resources.files("ea_lab").joinpath("config_schema.json").read_text()
    return json.loads(text)


_KEYWORDS = {"$schema", "title", "type", "properties", "required", "additionalProperties",
             "items", "const", "enum", "minimum", "exclusiveMinimum", "minLength", "minItems"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema 2020-12 types: a bool is neither an integer nor a number, and an
# integral float such as 3.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _audit(schema: dict) -> None:
    """Refuse a schema that uses a keyword ``_check`` does not implement."""
    if (set(schema) - _KEYWORDS or schema.get("additionalProperties", False) is not False
            or schema.get("type", "object") not in _TYPES):
        raise NotImplementedError(f"not implemented by the config schema checker: {schema!r}")
    subschemas = list(schema.get("properties", {}).values())
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        _audit(sub)


def _check(schema: dict, value, path: tuple, errors: list):
    """Append ``(path, message)`` for each keyword of ``schema`` that
    ``value`` breaks, in the schema's keyword order and in the reference
    validator's words, and return ``value`` with every integral float in
    an integer field made an ``int``."""
    for key, arg in schema.items():
        message = None
        if key == "type" and not _TYPES[arg](value):
            message = f"{value!r} is not of type {arg!r}"
        elif key in ("const", "enum") and not any(
                value == option and isinstance(value, bool) == isinstance(option, bool)
                for option in ([arg] if key == "const" else arg)):
            message = f"{arg!r} was expected" if key == "const" else (
                f"{value!r} is not one of {arg!r}")
        elif key == "minimum" and _is_number(value) and value < arg:
            message = f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and _is_number(value) and value <= arg:
            message = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key in ("minLength", "minItems") and isinstance(
                value, str if key == "minLength" else list) and len(value) < arg:
            message = f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif isinstance(value, dict) and key == "required":
            errors += [(path, f"{name!r} is a required property")
                       for name in arg if name not in value]
        elif isinstance(value, dict) and key == "additionalProperties":
            extras = sorted(set(value) - set(schema.get("properties", {})))
            if extras:
                message = "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        elif isinstance(value, dict) and key == "properties":
            for name, sub in arg.items():
                if name in value:
                    value[name] = _check(sub, value[name], path + (name,), errors)
        elif isinstance(value, list) and key == "items":
            value[:] = [_check(arg, v, path + (i,), errors) for i, v in enumerate(value)]
        if message is not None:
            errors.append((path, message))
    if schema.get("type") == "integer" and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def schema_error(schema: dict, instance) -> tuple[str, str] | None:
    """The first violation of ``schema`` by ``instance``, as a JSON pointer
    and a message, or None; integral floats in ``instance``'s integer
    fields become ints, in place.  The first violation is the earliest
    one, in keyword order, among those whose path (object keys and array
    indices) sorts first."""
    _audit(schema)
    errors: list = []
    _check(schema, instance, (), errors)
    if not errors:
        return None
    path, message = min(errors, key=lambda e: e[0])
    return "/" + "/".join(map(str, path)), message


def _not_json(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _in_float_range(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """A ``json.loads`` number hook: ``parse``, refusing a number beyond
    float range, such as ``1e999``, which ``float`` reads as inf."""
    def hook(text: str):
        value = parse(text)
        if abs(value) > sys.float_info.max:  # compared exactly for an int
            shown = text if len(text) < 30 else text[:12] + "..."
            raise ValueError(f"{shown} is too large for a float")
        return value
    return hook


def load_config(path: str) -> dict:
    """Parse and schema-validate a configuration file.

    ``config_schema.json`` is checked under JSON Schema 2020-12 by a
    walker that implements exactly the keywords the file uses (``type``,
    ``properties``, ``required``, ``additionalProperties: false``,
    ``items``, ``const``, ``enum``, ``minimum``, ``exclusiveMinimum``,
    ``minLength`` and ``minItems``; ``$schema`` and ``title`` are ignored)
    and raises ``NotImplementedError`` on any other.  An integral float in
    an integer field is returned as an ``int``.  ``NaN`` and ``Infinity``
    are refused, since they are not JSON, and so is a number beyond float
    range.

    Error messages are anchored: JSON syntax errors carry line/column,
    schema violations carry the JSON pointer of the offending element.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        cfg = json.loads(raw, parse_constant=_not_json, parse_float=_in_float_range(float),
                         parse_int=_in_float_range(int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    error = schema_error(_schema(), cfg)
    if error:
        raise ConfigError(f"{path}: at {error[0]}: {error[1]}")
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
    kind = AlgorithmKind(alg_cfg["kind"])
    if kind is AlgorithmKind.RLS and "chi" in alg_cfg:
        raise ConfigError("RLS flips exactly one bit and takes no 'chi'")
    if kind is not AlgorithmKind.MU_PLUS_LAMBDA_EA and "tie_break" in alg_cfg:
        raise ConfigError(f"{kind.value} takes no 'tie_break': only MuPlusLambdaEA reads it")
    try:
        return AlgorithmConfig(
            kind=kind,
            mutation=(OneBitFlip(n) if kind is AlgorithmKind.RLS
                      else MutationParams(n=n, chi=float(alg_cfg.get("chi", 1.0)))),
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
    target = cfg.get("target_fitness")
    if target is not None and target > function.optimum_value:
        raise ConfigError(f"target_fitness {target} is above the function's optimum "
                          f"{function.optimum_value}")
    return empirics.Experiment(
        function=function,
        algorithm=algorithm,
        runs=int(cfg["runs"]),
        master_seed=int(cfg["master_seed"]),
        budget=Budget(int(cfg.get("budget", 10_000_000))),
        start=build_start(cfg, function.n),
        target_fitness=target,
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
        """Whether the state is a zeros-count level (RLS or the (1+1) EA on unitation)."""
        return uses_jump_chain(self.experiment.function, self.algorithm)

    @functools.cached_property
    def chain(self) -> oracle.MoveTable:
        """The point's exact level chain, the process's move table with
        every level tabled, built on first use and shared by the oracle and
        the exact fitness-level bounds.  A point without one, or with one
        too large to build, is a configuration error."""
        if not self.has_chain:
            raise ConfigError("the exact level chain needs RLS or the (1+1) EA on a "
                              "unitation function")
        exp = self.experiment
        try:
            return oracle.build_level_chain(
                exp.function, exp.algorithm.kind.value, exp.algorithm.mutation
            )
        except core.DomainError as exc:
            raise ConfigError(str(exc)) from exc

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


def compute_oracle(ctx: BoundContext) -> dict:
    """Exact expected runtime (in evaluations) of a point with a level
    chain: the time to reach ``target_fitness`` if the experiment sets
    one, else the time to the optimum."""
    chain = ctx.chain
    target_fitness = ctx.experiment.target_fitness
    target = None if target_fitness is None else chain.value_table >= target_fitness
    gens = oracle.exact_expected_hitting_time(chain, ctx.start, target)
    return {
        "kind": ctx.algorithm.kind.value,
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


class _ParamError(ConfigError):
    """A missing or mistyped bound parameter; ``evaluate_bounds`` names the bound."""


def _mk(ctx: BoundContext, params: dict, key: str, kind: type, default=None):
    """Bound parameter ``key`` as ``kind`` (int or float): from the bound's
    params, else the function section, else ``default``."""
    value = params.get(key, ctx.function_cfg.get(key, default))
    if value is None:
        raise _ParamError(f"bound parameter '{key}' missing")
    if not _TYPES["integer" if kind is int else "number"](value):
        noun = "an integer" if kind is int else "a number"
        raise _ParamError(f"bound parameter '{key}' must be {noun}, not {value!r}")
    return kind(value)


def _closed_form(direction: Direction, fn, *param_keys: str):
    """Evaluator of the closed form ``fn(n, *values)``, each integer value
    taken from the bound's params or else from the function section."""

    def evaluate(ctx, params):
        values = {key: _mk(ctx, params, key, int) for key in param_keys}
        value = fn(ctx.n, *values.values())
        return BoundReport("", True, direction, bound_value=value, detail=values)

    return Bound(direction, evaluate)


def _tail(fn, *param_keys: str):
    """Evaluator of the tail inequality ``fn(*values)`` over the bound's
    params."""

    def evaluate(ctx, params):
        values = {key: _mk(ctx, params, key, float) for key in param_keys}
        value = fn(*values.values())
        return BoundReport("", True, Direction.TAIL_UPPER, bound_value=value, detail=values)

    return Bound(Direction.TAIL_UPPER, evaluate)


def _gap(part: str):
    return lambda n, m, k: getattr(bnd.gap_block_bounds(n, m, k), part)


def _afl_exact_levels(ctx):
    # Read first: a point without a buildable chain is a config error, not "not applicable".
    data = ctx.level_data
    if ctx.experiment.target_fitness is not None:
        raise core.DomainError("the exact fitness-level bounds bound the time to the "
                               "optimum, not to target_fitness")
    return data


def _chi(ctx) -> float:
    if isinstance(ctx.algorithm.mutation, MutationParams):
        return ctx.algorithm.mutation.chi
    raise core.DomainError("needs standard bit mutation")


def _eval_afl_exact_upper(ctx, params):
    return bnd.afl_upper(bnd.LevelData(s=_afl_exact_levels(ctx).s_min))


def _eval_afl_exact_lower(ctx, params):
    data, start = _afl_exact_levels(ctx), ctx.start
    # Initial-level mass over the non-top fitness levels.
    u = np.array([sum(start[z] for z in level) for level in data.levels[:-1]])
    if ctx.algorithm.kind is AlgorithmKind.ONE_PLUS_ONE_EA:
        chi = bnd.afl_chi_certificate(ctx.n, _chi(ctx))
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
    delta = _mk(ctx, params, "delta", float, 0.1)
    mu = ctx.algorithm.mu if ctx.algorithm.kind is AlgorithmKind.MU_COMMA_LAMBDA_EA else None
    return bnd.level_based_bound(bnd.onemax_level_params(
        ctx.n, _chi(ctx), delta, ctx.algorithm.lam, mu=mu
    ))


def _eval_mucommalambda_runtime(ctx, params):
    delta = _mk(ctx, params, "delta", float, 0.1)
    const = _mk(ctx, params, "linear_term_constant", float, 0.0)
    return bnd.mucommalambda_runtime_bound(
        ctx.n, _chi(ctx), delta, ctx.algorithm.lam, const
    )


def _eval_linear_runtime_upper(ctx, params):
    fn = ctx.experiment.function
    if isinstance(fn, FitnessFunction):
        w = fn.weights
        w_max, w_min = float(w.max()), float(w.min())
    else:
        w_max = _mk(ctx, params, "w_max", float, 1.0)
        w_min = _mk(ctx, params, "w_min", float, 1.0)
        if not 0 < w_min <= w_max:
            raise _ParamError(f"bound parameters need 0 < w_min <= w_max, not "
                              f"w_min = {w_min!r}, w_max = {w_max!r}")
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


def evaluate_bounds(ctx: BoundContext, entries: list[dict]) -> list[BoundReport]:
    """One report per entry, under the conventions in the module docstring."""
    extra = ctx.algorithm.initial_population
    reports = []
    for entry in entries:
        bound_id = entry["id"]
        bound = BOUND_REGISTRY.get(bound_id)
        if bound is None:
            known = ", ".join(sorted(BOUND_REGISTRY))
            raise ConfigError(f"unknown bound id '{bound_id}' (known: {known})")
        try:
            report = bound.evaluate(ctx, entry.get("params", {}))
        except _ParamError as exc:
            raise ConfigError(f"{bound_id}: {exc}") from None
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


def print_comparison(rows: list[empirics.ComparisonRow]) -> None:
    header = ("quantity", "empirical", "oracle", "bound", "direction", "ok")
    table = [header] + [
        (r.quantity, _fmt(r.empirical), _fmt(r.oracle), _fmt(r.bound),
         r.direction, _fmt(r.satisfied))
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


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


def _prepare(args) -> tuple[dict, int]:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.threads < 0:
        raise ConfigError("--threads must be non-negative")
    workers = args.threads or os.cpu_count() or 1
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file, or a path under one
        raise ConfigError(f"--out {args.out}: cannot make the directory: {exc.strerror}") from exc
    return cfg, workers


def _run_point(cfg: dict, exp: empirics.Experiment, workers: int):
    """The pipeline ``run`` and ``sweep`` share for one experiment: the
    bounds, then the oracle, then the batch, then compare.  Returns the
    batch, the comparison rows and the point's JSON record."""
    ctx = BoundContext(cfg["function"], exp)
    reports = evaluate_bounds(ctx, cfg.get("bounds", []))
    want_oracle = ctx.has_chain and cfg.get("oracle", oracle.chain_cost(
        exp.function, exp.algorithm.mutation).work <= oracle.DEFAULT_WORK)
    oracle_info = compute_oracle(ctx) if want_oracle else None
    oracle_value = oracle_info["expected_evaluations"] if oracle_info else None
    batch = empirics.run_batch(exp, workers=workers)
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
    write_atomic(os.path.join(args.out, "samples.csv"), empirics.samples_csv(batch))
    write_atomic(os.path.join(args.out, "comparison.csv"), comparison_csv(rows))

    if not args.quiet:
        print_comparison(rows)
        print(f"results written to {args.out}")
    return _verdict(rows)


def cmd_sweep(args) -> int:
    cfg, workers = _prepare(args)
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a 'sweep' section")

    bound_ids = [entry["id"] for entry in cfg.get("bounds", [])]
    curve_header = ["n", "empirical_mean", "stderr", "oracle"] + [
        f"bound_{bid}" for bid in bound_ids
    ]
    curve_lines = [",".join(curve_header)]
    points = []
    all_rows: list[empirics.ComparisonRow] = []

    for n in cfg["sweep"]["values"]:
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
    except (ConfigError, core.SpecError, core.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenProcessPool as exc:  # a pool worker died, e.g. killed when out of memory
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
