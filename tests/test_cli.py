"""Tests for the command-line front end."""

import copy
import functools
import hashlib
import json
import operator
import os
import subprocess
import sys

import jsonschema
import pytest

import ea_lab
from ea_lab import cli, oracle
from ea_lab.cli import (
    EXIT_BOUND_FAILURE,
    EXIT_ERROR,
    EXIT_OK,
    ConfigError,
    build_function,
    load_config,
    main,
)
from ea_lab.core import MutationParams, needle, onemax


def _config(**overrides):
    cfg = {
        "schema_version": 1,
        "experiment": {"name": "test"},
        "function": {"family": "onemax", "n": 8},
        "algorithm": {"kind": "OnePlusOneEA"},
        "runs": 50,
        "master_seed": 17,
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = _config(**overrides)
    _assert_checkers_agree(cfg)  # every config this module writes
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


_SCHEMA = cli._schema()
_REFERENCE = jsonschema.Draft202012Validator(_SCHEMA)


def _assert_checkers_agree(cfg):
    """``cli.schema_error`` and jsonschema's validator, taking its errors in
    the order the loader once did, find the same first error, or none."""
    errors = sorted(_REFERENCE.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    expected = None
    if errors:
        expected = ("/" + "/".join(map(str, errors[0].absolute_path)), errors[0].message)
    assert cli.schema_error(_SCHEMA, copy.deepcopy(cfg)) == expected, cfg


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


@pytest.mark.parametrize("command", ["run", "bounds"])
@pytest.mark.parametrize("chi", [7, 12])
def test_rls_chi_is_a_config_error(tmp_path, capsys, command, chi):
    # RLS flips one bit; a chi for it is a mistake, not a setting to ignore.
    cfg = _write_config(tmp_path, function={"family": "onemax", "n": 10},
                        algorithm={"kind": "RLS", "chi": chi})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: RLS flips exactly one bit and takes no 'chi'\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "bounds"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_is_a_clean_error(tmp_path, capsys, command, below):
    sweep = {"sweep": {"variable": "n", "values": [6, 8]}} if command == "sweep" else {}
    cfg = _write_config(tmp_path, **sweep)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / below if below else taken
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --out {out}: ")
    assert captured.out == "" and taken.read_text() == "keep\n"


@pytest.mark.parametrize("kind", ["RLS", "OnePlusOneEA"])
def test_oracle_names_the_algorithm_kind(tmp_path, kind):
    cfg = _write_config(tmp_path, algorithm={"kind": kind}, oracle=True, runs=5)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["oracle"]["kind"] == kind


@pytest.mark.parametrize(
    "command, overrides",
    [("bounds", {"bounds": [{"id": "afl_exact_upper"}]}), ("run", {"oracle": True})],
    ids=["afl-exact-bound", "forced-oracle"],
)
def test_oversized_chain_is_a_clean_error(tmp_path, capsys, command, overrides):
    # n = 60,000 is above the exact chain's byte budget: the size check
    # fails before any chain or run is started.
    cfg = _write_config(tmp_path, function={"family": "onemax", "n": 60_000}, runs=2,
                        **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: the exact level chain at n = 60000")
    assert captured.out == "" and not any(out.iterdir())


def test_chain_size_limit_admits_the_automatic_oracle():
    # The costliest chain of n <= 512: one plateau class of n levels, and
    # kernel rows as wide as the space.  The default oracle computes it.
    n = 512
    cost = oracle.chain_cost(needle(n), MutationParams(n, n / 2 - 1))
    assert cost.work <= oracle.DEFAULT_WORK and cost.nbytes <= oracle.CHAIN_BYTES
    assert oracle.chain_cost(onemax(_OVERSIZED_N), MutationParams(_OVERSIZED_N)).nbytes > (
        oracle.CHAIN_BYTES)


@pytest.mark.parametrize("family, n, chi, computed", [
    ("onemax", 2048, 1.0, True),
    ("needle", 512, 255, True),
    ("needle", 1024, 511, False),
])
def test_default_oracle_follows_the_cost_estimate(tmp_path, family, n, chi, computed):
    cfg = _write_config(tmp_path, function={"family": family, "n": n}, runs=2, budget=1000,
                        algorithm={"kind": "OnePlusOneEA", "chi": chi})
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out), "--threads", "1", "--quiet"])
    oracle_info = json.loads((out / "summary.json").read_text())["oracle"]
    assert (oracle_info is not None) == computed


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


_BLOCKS_FN = {"family": "blocks", "n": 5, "blocks": [{"kind": "linear", "m": 5}]}


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("run", {"function": {"family": "linear"}}, "requires 'weights'"),
        ("run", {"function": {"family": "gap", "n": 10, "m": 2}}, "requires 'm' and 'k'"),
        ("run", {"function": {"family": "blocks", "n": 5}}, "requires 'blocks'"),
        ("sweep", {"function": _BLOCKS_FN, "sweep": {"variable": "n", "values": [5]}},
         "cannot be swept"),
        ("run", {"start": {"policy": "FixedZeros"}}, "requires 'zeros'"),
        ("run", {"start": {"policy": "FixedZeros", "zeros": 9}}, "outside 0..8"),
        ("sweep", {"sweep": {"variable": "n", "values": []}},
         "/sweep/values: [] should be non-empty"),
    ],
    ids=["linear-weights", "gap-m-k", "blocks-blocks", "blocks-sweep", "zeros-missing",
         "zeros-above-n", "sweep-empty"],
)
def test_inconsistent_config_is_a_clean_error(tmp_path, capsys, command, overrides,
                                              message):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())


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


def test_chi_bounds_do_not_apply_to_rls(tmp_path):
    # Regression: these bounds read chi off RLS's one-bit operator, and
    # the AttributeError escaped as a traceback.
    ids = ["level_based_onemax", "mucommalambda_runtime"]
    cfg = _write_config(tmp_path, algorithm={"kind": "RLS"},
                        bounds=[{"id": i} for i in ids])
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    reports = json.loads((out / "summary.json").read_text())["bounds"]
    assert [r["theorem_id"] for r in reports] == ids
    for report in reports:
        assert report["hypotheses_ok"] is None
        assert report["detail"]["reason"] == "not applicable: needs standard bit mutation"
    assert main(["bounds", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_BOUND_FAILURE


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


def test_needle_oracle_keeps_its_digits(tmp_path):
    # Regression: the plateau's dense solve gave 2.735559272330549e18 here.
    cfg = _write_config(tmp_path, runs=2, budget=1000, function={"family": "needle", "n": 64},
                        algorithm={"kind": "RLS"})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"]) == EXIT_OK
    gens = json.loads((out / "summary.json").read_text())["oracle"]["expected_generations"]
    assert gens == pytest.approx(1.8749493300771803e19, rel=1e-12)


def _fresh_run(cfg, out, package):
    """``cli.main(["run", ...])`` in a fresh interpreter: its exit code and
    the modules of ``package`` loaded afterwards."""
    script = (
        "import json, sys\n"
        "from ea_lab import cli\n"
        f"code = cli.main(['run', '--config', {cfg!r}, '--out', {str(out)!r},"
        " '--threads', '1', '--quiet'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r}))]))\n"
    )
    src = os.path.dirname(os.path.dirname(ea_lab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_run_never_imports_scipy(tmp_path):
    # A fresh interpreter: importing the CLI and a run with the oracle and a
    # log-gamma bound (the calls that once needed scipy) leave no scipy module.
    cfg = _write_config(tmp_path, runs=5, oracle=True,
                        function={"family": "gap", "n": 8, "m": 2, "k": 3},
                        bounds=[{"id": "gap_inner_lower"}])
    out = tmp_path / "out"
    assert _fresh_run(cfg, out, "scipy") == [EXIT_OK, []]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle"]["expected_evaluations"] > 0


def test_run_never_imports_jsonschema(tmp_path):
    # The configuration is checked without jsonschema, which is a test
    # dependency only; an invalid one is refused the same way.
    cfg = _write_config(tmp_path, runs=5)
    assert _fresh_run(cfg, tmp_path / "out", "jsonschema") == [EXIT_OK, []]
    bad = _write_config(tmp_path, name="bad.json", algorithm={"kind": "HillClimber"})
    assert _fresh_run(bad, tmp_path / "bad", "jsonschema") == [EXIT_ERROR, []]


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
_OVERSIZED_N = 60_000  # OneMax above the exact chain's byte budget at chi = 1
_POPULATION = {"kind": "MuPlusLambdaEA", "mu": 2, "lambda": 2}
_COMMA_TIES = {"kind": "MuCommaLambdaEA", "mu": 2, "lambda": 12}


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
        ("run", {"algorithm": _POPULATION, "target_fitness": 5,
                 "bounds": [{"id": "afl_exact_upper"}]}, "exact level chain needs"),
        ("run", {"bounds": [{"id": "plateau_upper"}]},
         "plateau_upper: bound parameter 'm' missing"),
        ("run", {"target_fitness": 9},
         "target_fitness 9 is above the function's optimum 8.0"),
        ("sweep", {"target_fitness": 7, **_SWEEP},
         "target_fitness 7 is above the function's optimum 6.0"),
        ("run", {"function": {"family": "linear", "weights": [1, 2, 3]},
                 "target_fitness": 6.5, "oracle": False},
         "target_fitness 6.5 is above the function's optimum 6.0"),
        ("run", {"function": {"family": "onemax", "n": _OVERSIZED_N}, "oracle": True},
         f"exact level chain at n = {_OVERSIZED_N}"),
        ("run", {"bounds": [{"id": "onemax_afl_upper"}, {"id": "no_such_theorem"}]},
         "unknown bound id 'no_such_theorem'"),
        ("run", {"bounds": [{"id": "markov", "params": {"expectation": "abc", "t": 5}}]},
         "markov: bound parameter 'expectation' must be a number, not 'abc'"),
        ("bounds", {"bounds": [{"id": "markov", "params": {"expectation": "abc", "t": 5}}]},
         "markov: bound parameter 'expectation' must be a number, not 'abc'"),
        ("run", {"algorithm": _COMMA_TIES,
                 "bounds": [{"id": "level_based_onemax", "params": {"delta": "small"}}]},
         "level_based_onemax: bound parameter 'delta' must be a number, not 'small'"),
        ("run", {"bounds": [{"id": "plateau_upper", "params": {"m": 2.5, "k": 3}}]},
         "plateau_upper: bound parameter 'm' must be an integer, not 2.5"),
        ("run", {"bounds": [{"id": "chernoff_upper",
                             "params": {"expectation": 5, "delta": True}}]},
         "chernoff_upper: bound parameter 'delta' must be a number, not True"),
        ("run", {"algorithm": {"kind": "RLS", "tie_break": "PreferOffspring"}},
         "RLS takes no 'tie_break'"),
        ("bounds", {"algorithm": {"kind": "OnePlusOneEA", "tie_break": "UniformRandom"}},
         "OnePlusOneEA takes no 'tie_break'"),
        ("run", {"algorithm": dict(_COMMA_TIES, tie_break="UniformRandom")},
         "MuCommaLambdaEA takes no 'tie_break'"),
        ("bounds", {"algorithm": dict(_COMMA_TIES, tie_break="PreferOffspring")},
         "MuCommaLambdaEA takes no 'tie_break'"),
        ("run", {"bounds": [{"id": "linear_runtime_upper", "params": {"w_min": 0}}]},
         "linear_runtime_upper: bound parameters need 0 < w_min <= w_max, "
         "not w_min = 0.0, w_max = 1.0"),
        ("bounds", {"bounds": [{"id": "linear_runtime_upper", "params": {"w_min": 0}}]},
         "linear_runtime_upper: bound parameters need 0 < w_min <= w_max"),
        ("run", {"bounds": [{"id": "linear_runtime_upper", "params": {"w_min": -1}}]},
         "linear_runtime_upper: bound parameters need 0 < w_min <= w_max"),
        ("bounds", {"bounds": [{"id": "linear_runtime_upper", "params": {"w_min": -1}}]},
         "linear_runtime_upper: bound parameters need 0 < w_min <= w_max"),
        ("bounds", {"bounds": [{"id": "linear_runtime_upper",
                                "params": {"w_min": 2, "w_max": 1.5}}]},
         "not w_min = 2.0, w_max = 1.5"),
    ],
    ids=["run-unknown-id", "sweep-unknown-id", "run-afl-exact-on-population",
         "sweep-afl-exact-on-population", "run-afl-exact-on-bits",
         "run-afl-exact-on-population-with-target", "run-missing-closed-form-param",
         "run-target-above-optimum", "sweep-target-above-optimum",
         "run-target-above-linear-optimum", "run-oversized-forced-oracle",
         "run-unknown-id-after-valid",
         "run-non-numeric-tail-param", "bounds-non-numeric-tail-param",
         "run-non-numeric-delta", "run-non-integer-param", "run-boolean-param",
         "run-rls-tie-break", "bounds-one-plus-one-tie-break", "run-comma-tie-break",
         "bounds-comma-tie-break", "run-zero-w-min", "bounds-zero-w-min",
         "run-negative-w-min", "bounds-negative-w-min", "bounds-w-max-below-w-min"],
)
def test_bound_errors_stop_before_simulation(tmp_path, monkeypatch, capsys,
                                             command, overrides, message):
    from ea_lab import empirics

    def fail(*args, **kwargs):
        raise AssertionError("run_batch called before the bounds were checked")

    monkeypatch.setattr(empirics, "run_batch", fail)
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    code = main([command, "--config", cfg, "--out", str(out), "--threads", "1",
                 "--quiet"])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert captured.out == "" and not any(out.iterdir())


def test_theory_is_evaluated_before_the_batch(tmp_path, monkeypatch):
    from ea_lab import empirics

    done = []
    for name in ("evaluate_bounds", "compute_oracle"):
        def spy(*args, _name=name, _fn=getattr(cli, name)):
            done.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, spy)
    run_batch = empirics.run_batch

    def batch(*args, **kwargs):
        done.append("run_batch")
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(empirics, "run_batch", batch)
    cfg = _write_config(tmp_path, bounds=[{"id": "afl_exact_upper"}], **_SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", "--quiet"]) == EXIT_OK
    assert done == ["evaluate_bounds", "compute_oracle", "run_batch"] * 2


def test_integral_float_bound_parameter_is_an_integer(tmp_path):
    # JSON Schema counts 3.0 as an integer; so does the bound, byte for byte.
    payloads = []
    for m in (3, 3.0):
        cfg = _write_config(tmp_path, name=f"{m}.json",
                            bounds=[{"id": "plateau_upper", "params": {"m": m, "k": 4}}])
        out = tmp_path / f"out-{m}"
        main(["bounds", "--config", cfg, "--out", str(out), "--quiet"])
        payloads.append(json.loads((out / "bounds.json").read_text())["bounds"])
    assert payloads[0] == payloads[1]


# samples.csv of small fixed-seed runs on the single-individual level,
# population and bit paths, pinned so that refactoring the runners cannot
# change a single draw.  The three population level hashes were re-recorded
# when the level populations became histograms, which changes every draw,
# and again when a generation's offspring became one multinomial over the
# parents' mean kernel row instead of one per occupied parent level, which
# draws the same distribution from other uniforms; the distribution tests
# in test_algorithms.py check those against the per-offspring sampler.
# The three standard-bit-mutation bit hashes were re-recorded when flips
# became geometric gaps instead of one uniform per bit; test_core.py checks
# the flip distribution, and test_algorithms.py the bit path's runtime
# distribution against the exact chain.
_W = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
_PLUS = {"kind": "MuPlusLambdaEA", "mu": 3, "lambda": 6}
_PLUS_UNIFORM = dict(_PLUS, tie_break="UniformRandom")
_COMMA = {"kind": "MuCommaLambdaEA", "mu": 2, "lambda": 12}
_ONEMAX = {"family": "onemax", "n": 10}
_LINEAR = {"family": "linear", "weights": _W}
_PLATEAU_FN = {"family": "plateau", "n": 20, "m": 4, "k": 12}


@pytest.mark.parametrize(
    "function, algorithm, zeros, digest",
    [
        (_ONEMAX, _PLUS, 7,
         "6ac73a0c17b4614c31c7a9539bb607a50eaf580b507909342350c62a9a157c35"),
        (_ONEMAX, _PLUS_UNIFORM, None,
         "b48b4ef56d5ecc53ed38b1ea3c0c253e7aa3fd607799f308de073642f7ed07c6"),
        (_ONEMAX, _COMMA, None,
         "c13d291af91bb6037d37a61dac01bf8d9ed3b5e0cc41b45231766684fd1d2770"),
        (_LINEAR, {"kind": "OnePlusOneEA"}, None,
         "1f78ea475b08066a90057052c4c6b55a59b1d44d27362c969422f982b2aeb683"),
        (_LINEAR, _PLUS_UNIFORM, None,
         "b02374d2fd01c3b359830084a7142961dda3208ecc7162628b62558d4f7a2b27"),
        (_LINEAR, _COMMA, 5,
         "5303bcf2c7d15035e2d40f09e3548fbdc113916b52d5d9a4ed0f1659d17f7b22"),
        (_PLATEAU_FN, {"kind": "RLS"}, None,
         "818201740ab8ff6d0245500794e09a28459aa4f08b95500c8f142b91f19308dc"),
        (_ONEMAX, {"kind": "OnePlusOneEA", "chi": 2.5}, 7,
         "54ee0e271a7e295e8822f3f4d826a48e55ab80665ffc10b41743282111540d5d"),
        (_LINEAR, {"kind": "RLS"}, None,
         "b45182f4992251e202a336eb3d75b70783ff9c51d4a07d842db4875d75edaaea"),
    ],
    ids=["plus-levels-forced", "plus-uniform-levels", "comma-levels",
         "one-plus-one-bits", "plus-uniform-bits", "comma-bits-forced",
         "rls-plateau-levels", "one-plus-one-chi-levels-forced", "rls-bits"],
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


# ---------------------------------------------------------------------------
# Schema checker


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


# Every node of a config is replaced by each of these in turn: wrong types,
# bools for numbers, 3.0 for integers, the minimum and exclusiveMinimum
# boundaries (0, 1, 0.0, 1e-300, -1), empty strings and arrays, and arrays of
# bad items.
_REPLACEMENTS = [None, True, False, "", "x", [], {}, {"x": 1}, [True], ["x"], [{}], [0],
                 [1.5], -1, 0, 0.0, 1e-300, 0.5, 1, 1.0, 2.5, 3.0, 1e300]


def _mutants(cfg):
    """Single-field mutations of ``cfg``: each node replaced by each of
    ``_REPLACEMENTS`` (and a string by a near miss of it) or deleted, and
    an extra key in each object.  Array items past the second share their
    schema with the first two and are left alone."""
    def copy_at(path):
        new = copy.deepcopy(cfg)
        return new, functools.reduce(operator.getitem, path, new)

    for path, value in _nodes(cfg):
        if any(isinstance(key, int) and key > 1 for key in path):
            continue
        new, node = copy_at(path)
        if isinstance(node, dict):
            node["extra"] = 1
            yield new
        if not path:
            continue
        near = [value + "!", value.upper()] if isinstance(value, str) else []
        for replacement in _REPLACEMENTS + near:
            new, parent = copy_at(path[:-1])
            parent[path[-1]] = replacement
            yield new
        new, parent = copy_at(path[:-1])
        del parent[path[-1]]
        yield new


def _corpus():
    """The configs the benchmark's workloads build, and a set of this
    module's configs that between them set every field of the schema."""
    import workloads  # from bench/, which the test puts on sys.path

    configs = [call["config"] for w in workloads.WORKLOADS
               for call in workloads.make_calls(w, 0)]
    configs += [
        _config(),
        _config(function=_ONEMAX, algorithm=_PLUS,
                start={"policy": "FixedZeros", "zeros": 7}, oracle=False),
        _config(function=_LINEAR, algorithm=_PLUS_UNIFORM, target_fitness=30.5,
                budget=2000, bounds=[{"id": "markov",
                                      "params": {"expectation": 15, "t": 20}}]),
        _config(function=_PLATEAU_FN, algorithm=_EA_15,
                bounds=[{"id": "plateau_upper", "params": {"m": 3, "k": 13}}]),
        _config(function={"family": "blocks", "n": 5, "blocks": [
            {"kind": "linear", "m": 3, "a": 2.0, "b": -1}, {"kind": "gap", "m": 2}]},
            algorithm=_COMMA, start={"policy": "UniformRandom"}),
        _config(algorithm=_COMMA_TIES, schema_version=1.0, **_SWEEP),
    ]
    return configs


def _schema_fields(schema, path=()):
    yield path
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_fields(sub, path + (key,))
    if "items" in schema:
        yield from _schema_fields(schema["items"], path + ("[]",))


def _several_errors():
    """Configs that break the schema at more than one path or in more than
    one way at one path: the first error is the one at the path that
    sorts first (array indices as numbers), then the first in keyword order."""
    weights = [1, 1, "x"] + [1] * 7 + [0]  # /function/weights/2 before .../10
    return [
        _config(function={"family": "onemax", "n": 0}, algorithm={"kind": "x"}),
        _config(function={"family": "linear", "weights": weights}),
        _config(runs=0, extra=1),
        _config(function={"family": "onemax", "n": 0.5}),
        {"runs": True, "experiment": {"name": ""}, "sweep": {"values": [0, True]}},
        _config(bounds=[{"id": ""}, {}, {"id": 1, "params": []}],
                algorithm={"kind": "RLS", "mu": 0, "chi": 0}),
    ]


def test_checker_agrees_with_jsonschema(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
    for cfg in _several_errors():
        _assert_checkers_agree(cfg)
    corpus = _corpus()
    seen = {tuple("[]" if isinstance(k, int) else k for k in path)
            for cfg in corpus for path, _ in _nodes(cfg)}
    assert set(_schema_fields(_SCHEMA)) <= seen  # the corpus sets every field
    checked = set()
    for cfg in corpus:
        for mutant in [cfg, *_mutants(cfg)]:
            key = json.dumps(mutant, sort_keys=True)
            if key not in checked:
                checked.add(key)
                _assert_checkers_agree(mutant)
    assert len(checked) > 4000


@pytest.mark.parametrize("schema", [
    {"type": "object", "properties": {"runs": {"oneOf": [{"type": "integer"}]}}},
    {"type": "array", "items": {"type": "integer", "maximum": 3}},
    {"type": "object", "additionalProperties": {"type": "integer"}},
    {"type": "null"},
], ids=["unused-oneOf", "maximum-in-items", "additionalProperties-schema", "null-type"])
def test_checker_refuses_unimplemented_keywords(schema):
    with pytest.raises(NotImplementedError):
        cli.schema_error(schema, {})


def test_integral_floats_in_integer_fields_are_integers(tmp_path):
    # JSON Schema counts 10.0 as an integer; so does the loader, which hands
    # the run an int and echoes one.
    outputs = []
    for tag, number in (("int", int), ("float", float)):
        cfg = _write_config(
            tmp_path, name=f"{tag}.json", runs=number(20), budget=number(2000),
            function={"family": "onemax", "n": number(10)},
            start={"policy": "FixedZeros", "zeros": number(3)},
        )
        out = tmp_path / tag
        assert main(["run", "--config", cfg, "--out", str(out), "--threads", "1",
                     "--quiet"]) == EXIT_OK
        outputs.append([(out / f).read_bytes() for f in ("samples.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][1])["config"]["function"]["n"] == 10


@pytest.mark.parametrize("overrides, constant", [
    ({"function": _LINEAR, "target_fitness": float("nan")}, "NaN"),
    ({"function": {"family": "linear", "weights": [1, float("nan"), 3]}}, "NaN"),
    ({"function": {"family": "linear", "weights": [1, float("inf")]}}, "Infinity"),
    ({"target_fitness": -float("inf")}, "-Infinity"),
], ids=["nan-target", "nan-weight", "infinite-weight", "negative-infinite-target"])
def test_non_finite_constants_are_refused(tmp_path, monkeypatch, capsys, overrides,
                                          constant):
    from ea_lab import empirics

    def fail(*args, **kwargs):
        raise AssertionError("run_batch called on a config that is not JSON")

    monkeypatch.setattr(empirics, "run_batch", fail)
    cfg = _write_config(tmp_path, **overrides)
    assert constant in open(cfg).read()
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out), "--threads", "1", "--quiet"])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: {constant} is not a JSON number\n"
    assert captured.out == "" and not out.exists()


# A literal beyond float range: "BIG" in the written config is replaced by it.
@pytest.mark.parametrize("command, overrides, literal, message", [
    ("run", {"function": {"family": "linear", "weights": [1, "BIG", 3]},
             "bounds": [{"id": "linear_runtime_upper"}]},
     "1e999", "1e999 is too large for a float"),
    ("run", {"target_fitness": "BIG"}, "-1e999", "-1e999 is too large for a float"),
    ("bounds", {"algorithm": {"kind": "OnePlusOneEA", "chi": "BIG"}}, "1" + "0" * 400,
     "100000000000... is too large for a float"),
], ids=["huge-weight", "huge-negative-target", "huge-integer-chi"])
def test_numbers_beyond_float_range_are_refused(tmp_path, monkeypatch, capsys, command,
                                                overrides, literal, message):
    from ea_lab import empirics

    def fail(*args, **kwargs):
        raise AssertionError("run_batch called on a config beyond float range")

    monkeypatch.setattr(empirics, "run_batch", fail)
    cfg = _write_config(tmp_path, **overrides)
    with open(cfg) as fh:
        text = fh.read()
    with open(cfg, "w") as fh:
        fh.write(text.replace('"BIG"', literal))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: {message}\n"
    assert captured.out == "" and not out.exists()
