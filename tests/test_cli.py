"""Tests for the command-line front end."""

import hashlib
import json
import os

import pytest

from ea_lab.cli import (
    EXIT_BOUND_FAILURE,
    EXIT_ERROR,
    EXIT_OK,
    ConfigError,
    build_function,
    load_config,
    main,
)


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "experiment": {"name": "test"},
        "function": {"family": "onemax", "n": 8},
        "algorithm": {"kind": "OnePlusOneEA"},
        "runs": 50,
        "master_seed": 17,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# Configuration handling


def test_load_config_accepts_minimal(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    assert cfg["function"]["family"] == "onemax"


def test_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  oops\n}')
    with pytest.raises(ConfigError, match=r"broken\.json:3:"):
        load_config(str(path))


def test_schema_error_reports_pointer(tmp_path):
    path = _write_config(tmp_path, algorithm={"kind": "HillClimber"})
    with pytest.raises(ConfigError, match=r"/algorithm/kind"):
        load_config(path)


def test_unread_output_dir_setting_is_rejected(tmp_path, capsys):
    # Results go where --out says; a config that names another place fails
    # loudly instead of being silently ignored.
    cfg = _write_config(tmp_path, output_dir="elsewhere")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_ERROR
    assert "at /: " in capsys.readouterr().err


def test_missing_required_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_build_function_families():
    assert build_function({"family": "onemax", "n": 5}).n == 5
    assert build_function({"family": "needle", "n": 5}).n == 5
    assert build_function({"family": "gap", "n": 10, "m": 2, "k": 1}).n == 10
    assert build_function({"family": "plateau", "n": 10, "m": 3, "k": 6}).n == 10
    f = build_function({"family": "linear", "weights": [1.0, 2.0]})
    assert f.optimum_value == 3.0
    blocks = build_function(
        {"family": "blocks", "n": 5, "blocks": [{"kind": "linear", "m": 5}]}
    )
    assert blocks.optimum_value == 5.0


def test_build_function_errors():
    with pytest.raises(ConfigError):
        build_function({"family": "onemax"})  # no n
    with pytest.raises(ConfigError):
        build_function({"family": "gap", "n": 5, "m": 4, "k": 3})  # m + k > n
    with pytest.raises(ConfigError):
        build_function({"family": "linear", "weights": [1.0]}, n_override=9)


# ---------------------------------------------------------------------------
# run command


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path, bounds=[{"id": "onemax_afl_upper"}])
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--threads", "1"])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runtime"]["successes"] == 50
    assert summary["oracle"]["expected_evaluations"] > 0
    assert summary["bounds"][0]["theorem_id"] == "onemax_afl_upper"
    assert (out / "samples.csv").read_text().startswith("run_id,seed_stream")
    assert "onemax_afl_upper" in (out / "comparison.csv").read_text()
    assert "yes" in capsys.readouterr().out


def test_run_is_deterministic_across_worker_counts(tmp_path):
    cfg = _write_config(tmp_path, runs=40)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2), "--threads", "3",
                 "--quiet"]) == EXIT_OK
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1), "--threads", "1",
          "--seed", "99", "--quiet"])
    main(["run", "--config", cfg, "--out", str(out2), "--threads", "1", "--quiet"])
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["config"]["master_seed"] == 99
    assert s1["runtime"]["mean"] != s2["runtime"]["mean"]


def test_unknown_bound_id_is_an_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, bounds=[{"id": "no_such_theorem"}])
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", "--quiet"])
    assert code == EXIT_ERROR
    assert "no_such_theorem" in capsys.readouterr().err


def test_failed_hypotheses_exit_two(tmp_path):
    # Level-based theorem with a tiny population: condition (C3) fails.
    cfg = _write_config(
        tmp_path,
        algorithm={"kind": "MuCommaLambdaEA", "mu": 2, "lambda": 6},
        bounds=[{"id": "level_based_onemax", "params": {"delta": 0.1}}],
        budget=5_000,
    )
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", "--quiet"])
    assert code == EXIT_BOUND_FAILURE


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 2}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_writes_curve(tmp_path):
    cfg = _write_config(
        tmp_path,
        runs=30,
        bounds=[{"id": "onemax_afl_upper"}],
        sweep={"variable": "n", "values": [6, 8]},
    )
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"])
    assert code == EXIT_OK
    lines = (out / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "n,empirical_mean,stderr,oracle,bound_onemax_afl_upper"
    assert len(lines) == 3
    sweep = json.loads((out / "sweep.json").read_text())
    assert [p["n"] for p in sweep["points"]] == [6, 8]


def test_sweep_requires_section(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_ERROR
    assert "sweep" in capsys.readouterr().err


def test_sweep_rejects_linear_family(tmp_path):
    cfg = _write_config(
        tmp_path,
        function={"family": "linear", "weights": [1.0, 2.0]},
        sweep={"variable": "n", "values": [4]},
    )
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_ERROR


# ---------------------------------------------------------------------------
# bounds command


def test_bounds_command_without_simulation(tmp_path):
    cfg = _write_config(
        tmp_path,
        bounds=[
            {"id": "onemax_afl_upper"},
            {"id": "markov", "params": {"expectation": 15, "t": 20}},
        ],
    )
    out = tmp_path / "bounds"
    code = main(["bounds", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    payload = json.loads((out / "bounds.json").read_text())
    by_id = {b["theorem_id"]: b for b in payload["bounds"]}
    assert by_id["markov"]["bound_value"] == 0.75


def test_bounds_command_flags_hypothesis_failure(tmp_path):
    cfg = _write_config(
        tmp_path,
        algorithm={"kind": "MuCommaLambdaEA", "mu": 2, "lambda": 6},
        bounds=[{"id": "level_based_onemax"}],
    )
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_BOUND_FAILURE


def test_run_oracle_is_time_to_target_fitness(tmp_path):
    # Regression: the oracle used to report the time to the optimum
    # (1126.92 evaluations here) against an empirical mean of 31.48.
    target = {
        "function": {"family": "plateau", "n": 100, "m": 10, "k": 60},
        "start": {"policy": "FixedZeros", "zeros": 70},
        "target_fitness": 31,
    }
    cfg = _write_config(tmp_path, runs=1000, master_seed=1, **target,
                        bounds=[{"id": "plateau_lower"}, {"id": "plateau_upper"}])
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle"]["expected_evaluations"] == pytest.approx(31.532, abs=1e-3)
    assert code == EXIT_OK

    # The exact fitness-level bounds are for the time to the optimum.
    cfg = _write_config(tmp_path, name="afl.json", **target,
                        bounds=[{"id": "afl_exact_upper"}, {"id": "afl_exact_lower"}])
    code = main(["bounds", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_BOUND_FAILURE
    for report in json.loads((out / "bounds.json").read_text())["bounds"]:
        assert not report["hypotheses_ok"]
        assert report["detail"]["reason"].startswith("not applicable")


def test_not_applicable_bound_is_not_a_failure(tmp_path):
    # Regression: afl_exact_upper does not apply under target_fitness, and
    # used to count as a failed bound, so `run` exited 2.
    cfg = _write_config(
        tmp_path, runs=1000, master_seed=1,
        function={"family": "plateau", "n": 100, "m": 10, "k": 60},
        start={"policy": "FixedZeros", "zeros": 70}, target_fitness=31,
        bounds=[{"id": "plateau_lower"}, {"id": "plateau_upper"},
                {"id": "afl_exact_upper"}],
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    rows = (out / "comparison.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[1] for r in rows[2:]] == ["1", "1", ""]
    assert rows[-1].startswith("afl_exact_upper,")
    report = json.loads((out / "summary.json").read_text())["bounds"][-1]
    assert report["hypotheses_ok"] is None

    # `bounds` cannot certify it, so it still exits 2.
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_BOUND_FAILURE


def test_not_applicable_reports_keep_their_direction(tmp_path, capsys):
    # Regression: every "not applicable" report was labelled UpperOnE.
    cfg = _write_config(
        tmp_path, function={"family": "onemax", "n": 16},
        bounds=[{"id": "markov", "params": {"expectation": 15, "t": 0}},
                {"id": "plateau_lower", "params": {"m": 3, "k": 4}}],
    )
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_BOUND_FAILURE
    printed = capsys.readouterr().out
    assert "markov: NOT APPLICABLE bound=- (TailUpper)" in printed
    assert "plateau_lower: NOT APPLICABLE bound=- (LowerOnE)" in printed
    reports = json.loads((out / "bounds.json").read_text())["bounds"]
    assert [r["direction"] for r in reports] == ["TailUpper", "LowerOnE"]
    assert all(r["hypotheses_ok"] is None for r in reports)


@pytest.mark.parametrize(
    "function, bound, key",
    [({"family": "onemax", "n": 16}, {"id": "markov", "params": {"t": 20}}, "expectation"),
     ({"family": "onemax", "n": 16}, {"id": "plateau_upper"}, "m")],
    ids=["tail", "closed-form"],
)
def test_missing_bound_parameter_is_a_config_error(tmp_path, capsys, function, bound, key):
    # Regression: a tail bound without its parameter became a "not
    # applicable" report and `run` exited 0, while a closed form exited 1.
    cfg = _write_config(tmp_path, function=function, runs=5, bounds=[bound])
    for command in ("run", "bounds"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command),
                     "--threads", "1", "--quiet"]) == EXIT_ERROR
        assert f"bound parameter '{key}' missing" in capsys.readouterr().err


def _exit_abruptly(args):
    # Module level, so that the pool can send it to its workers.
    os._exit(3)


def test_dead_pool_worker_is_a_clean_error(tmp_path, capsys, monkeypatch):
    # Regression: a worker that died escaped main as a BrokenProcessPool
    # traceback.  Population runs always go to the pool.
    from ea_lab import empirics

    monkeypatch.setattr(empirics, "_run_chunk", _exit_abruptly)
    cfg = _write_config(tmp_path, function={"family": "onemax", "n": 100},
                        algorithm={"kind": "MuCommaLambdaEA", "mu": 4, "lambda": 32},
                        runs=10)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "2",
                 "--quiet"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_unreachable_target_gives_infinite_oracle(tmp_path):
    # RLS never crosses the gap from zeros=8; solving the singular system
    # used to end in a LinAlgError traceback.
    cfg = _write_config(
        tmp_path, runs=5, budget=1000,
        function={"family": "gap", "n": 20, "m": 3, "k": 5},
        algorithm={"kind": "RLS"}, start={"policy": "FixedZeros", "zeros": 8},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle"]["expected_evaluations"] == "inf"
    assert summary["runtime"]["censored"] == 5


def test_sweep_builds_one_chain_per_point(tmp_path, monkeypatch):
    from ea_lab import oracle

    calls = []
    build = oracle.build_level_chain

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return build(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_level_chain", counted)
    cfg = _write_config(
        tmp_path,
        runs=20,
        oracle=True,
        bounds=[{"id": "afl_exact_upper"}, {"id": "afl_exact_lower"}],
        sweep={"variable": "n", "values": [6, 8]},
    )
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", "--quiet"])
    assert code == EXIT_OK
    assert calls == [6, 8]


def test_sweep_computes_fitness_levels_once_per_point(tmp_path, monkeypatch):
    from ea_lab import oracle

    calls = []
    levels = oracle.fitness_level_data

    def counted(chain):
        calls.append(chain.n)
        return levels(chain)

    monkeypatch.setattr(oracle, "fitness_level_data", counted)
    cfg = _write_config(
        tmp_path,
        runs=20,
        bounds=[{"id": "afl_exact_upper"}, {"id": "afl_exact_lower"}],
        sweep={"variable": "n", "values": [6, 8]},
    )
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", "--quiet"])
    assert code == EXIT_OK
    assert calls == [6, 8]


_SWEEP = {"sweep": {"variable": "n", "values": [6, 8]}}
_POPULATION = {"kind": "MuPlusLambdaEA", "mu": 2, "lambda": 2}


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("run", {"bounds": [{"id": "no_such_theorem"}]}, "unknown bound id"),
        ("sweep", {"bounds": [{"id": "no_such_theorem"}], **_SWEEP}, "unknown bound id"),
        ("run", {"algorithm": _POPULATION, "bounds": [{"id": "afl_exact_upper"}]},
         "exact level chain needs"),
        ("sweep", {"algorithm": _POPULATION, "bounds": [{"id": "afl_exact_lower"}],
                   **_SWEEP}, "exact level chain needs"),
        ("run", {"function": {"family": "linear", "weights": [1, 2, 3]},
                 "bounds": [{"id": "afl_exact_lower"}]}, "exact level chain needs"),
    ],
    ids=["run-unknown-id", "sweep-unknown-id", "run-afl-exact-on-population",
         "sweep-afl-exact-on-population", "run-afl-exact-on-bits"],
)
def test_bound_errors_stop_before_simulation(tmp_path, monkeypatch, capsys,
                                             command, overrides, message):
    from ea_lab import empirics

    def fail(*args, **kwargs):
        raise AssertionError("run_batch called before the bounds were checked")

    monkeypatch.setattr(empirics, "run_batch", fail)
    cfg = _write_config(tmp_path, **overrides)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", "--quiet"])
    assert code == EXIT_ERROR
    assert message in capsys.readouterr().err


# samples.csv of small fixed-seed runs on the population and bit paths,
# pinned so that refactoring the runners cannot change a single draw.  The
# three level hashes were re-recorded when the level populations became
# histograms, which changes every draw; the distribution tests in
# test_algorithms.py check those against the per-offspring sampler.
_W = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
_PLUS = {"kind": "MuPlusLambdaEA", "mu": 3, "lambda": 6}
_PLUS_UNIFORM = dict(_PLUS, tie_break="UniformRandom")
_COMMA = {"kind": "MuCommaLambdaEA", "mu": 2, "lambda": 12}
_ONEMAX = {"family": "onemax", "n": 10}
_LINEAR = {"family": "linear", "weights": _W}


@pytest.mark.parametrize(
    "function, algorithm, zeros, digest",
    [
        (_ONEMAX, _PLUS, 7,
         "357806341579a9f92c7b5729113e4ea1b7051c8793ec5d09c544a4e367848e5b"),
        (_ONEMAX, _PLUS_UNIFORM, None,
         "6d3f8fe4fe3429e459616e8cbfd8201806c29f84b30fbee2c9a59be02e4a210c"),
        (_ONEMAX, _COMMA, None,
         "1a360c7f1df79fa29dc466b609ecfb283ceed2f72ada368a344a77b80460f647"),
        (_LINEAR, {"kind": "OnePlusOneEA"}, None,
         "5d3e156e9bb2ce8b91f761ba238ca4f8298123d1c2e6f8b02702c5abe1dd1463"),
        (_LINEAR, _PLUS_UNIFORM, None,
         "301ee30a2d30f84deca9c34c7b41acfef5bb914890d034234f69c4f419d5b051"),
        (_LINEAR, _COMMA, 5,
         "908fece9a9a7c776c578e773feb847d250454821297511b8972b18d5f6c33840"),
    ],
    ids=["plus-levels-forced", "plus-uniform-levels", "comma-levels",
         "one-plus-one-bits", "plus-uniform-bits", "comma-bits-forced"],
)
def test_samples_are_pinned(tmp_path, function, algorithm, zeros, digest):
    extra = {} if zeros is None else {"start": {"policy": "FixedZeros", "zeros": zeros}}
    cfg = _write_config(tmp_path, function=function, algorithm=algorithm, runs=20,
                        master_seed=2024, **extra)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    assert hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest() == digest


# bounds.json of fixed configs that between them name all 19 bound ids,
# with m and k taken both from the function section and from params.
# Pinned so that restructuring the bound registry cannot change a report.
_EXACT = [{"id": "afl_exact_upper"}, {"id": "afl_exact_lower"}]
_GAP = [{"id": f"gap_{s}"} for s in ("inner_lower", "inner_upper", "outer_lower",
                                     "outer_upper")]
_ONEMAX_DRIFT = [{"id": "multiplicative_drift_onemax"}, {"id": "variable_drift_onemax"}]
_MK = {"m": 3, "k": 4}
_EA_15 = {"kind": "OnePlusOneEA", "chi": 1.5}
_GAP_FN = {"family": "gap", "n": 12, "m": 2, "k": 3}
_PLATEAU_FN = {"family": "plateau", "n": 20, "m": 4, "k": 12}
_ONEMAX_16 = {"family": "onemax", "n": 16}


@pytest.mark.parametrize(
    "function, algorithm, bounds, digest",
    [
        (_GAP_FN, {"kind": "RLS"},
         _GAP + _EXACT + [{"id": "linear_block_upper", "params": _MK},
                          {"id": "linear_block_lower", "params": _MK}],
         "a9c55e8845ab6c419188e1fc7f370bf90ab843f6ef817aa65bc8bed314eb4aa5"),
        (_GAP_FN, _EA_15,
         [dict(b, params={"m": 2, "k": 5}) for b in _GAP] + _EXACT + _ONEMAX_DRIFT,
         "017aad94f316891ebb9427683a945911266c0621b25442f719d2fc87bf72f366"),
        (_PLATEAU_FN, {"kind": "RLS"},
         [{"id": "plateau_lower"}, {"id": "plateau_upper"}] + _EXACT,
         "a8322b178e80353b747d610ba586de05238ae5abe966b5279cdb1b077a885cff"),
        (_PLATEAU_FN, _EA_15,
         [{"id": "plateau_lower", "params": {"m": 3, "k": 13}},
          {"id": "plateau_upper", "params": {"m": 3, "k": 13}},
          {"id": "linear_runtime_upper", "params": {"w_max": 4, "w_min": 1}}] + _EXACT,
         "bfec785585a0908af3b6ffd94bf362335d41f9c362886425fe091e53d9efb9ff"),
        (_ONEMAX_16, _EA_15,
         [{"id": "onemax_afl_upper"}, {"id": "linear_block_upper", "params": _MK},
          {"id": "linear_block_lower", "params": _MK}, {"id": "linear_runtime_upper"},
          {"id": "level_based_onemax"}] + _ONEMAX_DRIFT + _EXACT,
         "7f9402cce8bab0cfa5a2bd9bf1440cb690cd014dc9d16cfd7691a561d5f1dd6a"),
        (_ONEMAX_16, {"kind": "RLS"},
         [{"id": "onemax_afl_upper"}] + _ONEMAX_DRIFT + _EXACT,
         "ad09d741bb5e0a8afaa74cc0c7f594e831dcb4447d9e1fd66f5e5593e1bb95b1"),
        (_ONEMAX_16, {"kind": "MuCommaLambdaEA", "mu": 5000, "lambda": 100000},
         [{"id": "onemax_afl_upper"}, {"id": "level_based_onemax",
                                       "params": {"delta": 0.2}},
          {"id": "mucommalambda_runtime"},
          {"id": "mucommalambda_runtime",
           "params": {"delta": 0.2, "linear_term_constant": 1.5}}],
         "0e8ba1beb09a945b4182f802b33aa49d6077335dcb7af1ca642e475d25a3b551"),
        (_LINEAR, {"kind": "OnePlusOneEA"},
         [{"id": "linear_runtime_upper"},
          {"id": "markov", "params": {"expectation": 15, "t": 20}},
          {"id": "chernoff_upper", "params": {"expectation": 30, "delta": 0.5}},
          {"id": "chernoff_lower", "params": {"expectation": 30, "delta": 0.5}}],
         "e55d3c6387a769eeec18e4acf4c1961fdc7f72a22d90746d2a9403f1347d1e8b"),
    ],
    ids=["gap-rls", "gap-ea", "plateau-rls", "plateau-ea", "onemax-ea", "onemax-rls",
         "comma", "linear-tails"],
)
def test_bound_reports_are_pinned(tmp_path, function, algorithm, bounds, digest):
    cfg = _write_config(tmp_path, function=function, algorithm=algorithm, bounds=bounds)
    out = tmp_path / "out"
    main(["bounds", "--config", cfg, "--out", str(out), "--quiet"])
    payload = json.loads((out / "bounds.json").read_text())
    assert not any(b["detail"].get("reason", "").startswith("not applicable")
                   for b in payload["bounds"])
    got = hashlib.sha256((out / "bounds.json").read_bytes()).hexdigest()
    assert got == digest, got
