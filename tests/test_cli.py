"""Tests for the command-line front end."""

import hashlib
import json

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
# pinned so that refactoring the runners cannot change a single draw.
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
         "6c0d0665f223678275083b91b071a84d17fa5b7f84c426a847b1d4ea4ea2c440"),
        (_ONEMAX, _PLUS_UNIFORM, None,
         "e65e347076c871f7697417c261e467cc40c298314ac869802ddc27cb011fd9b3"),
        (_ONEMAX, _COMMA, None,
         "e7e35cdd62bdb04e41a2eafe2f196e60f2eb51948bd3c7c373b8bbd5a57f8526"),
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
