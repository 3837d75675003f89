"""Benchmark of the ``ea-lab`` command line: time-to-result and throughput
of ``ea-lab run|sweep`` end to end, and a traced run for per-layer numbers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every workload, one table
    python3 bench/run.py --self-test                    # checker self-test

Run it from the repository root; it imports ``ea_lab`` from ``src/``.
With ``--trace 0`` the harness starts one child process per repetition;
each child imports ``ea_lab``, loads and builds the configurations
(set-up) and then calls ``ea_lab.cli.main`` with ``--threads`` = nproc.
Repetitions continue for ``--seconds`` (at least ``MIN_REPS``) and the
figures are medians over them.  With ``--trace 1`` one child runs the
workload with spans around each module's public functions.  Correctness
checks run afterwards, outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the checks, ``metrics`` maps each metric to its value
and unit.  A report with the environment, per-repetition figures, output
hashes and check details goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path[:0] = [str(BENCH), str(SRC)]
import workloads  # noqa: E402

# BLAS threads per process.  numpy's OpenBLAS is threaded (MAX_THREADS=64);
# unpinned, its threads would compete with the pool workers.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Repetitions per timed run at least; the statistical checks pool exactly
# these, so their outcome depends on the seed only.
MIN_REPS = 3
# Every invocation on one workload ends within this many seconds.
DEADLINE_S = 170.0

REPORT_ONLY_UNITS = {"censored_frac": "fraction", "check_fail_frac": "fraction"}


def metric_units(section: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the
    order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed correctness check)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """Machine, versions and settings the figures were measured with."""
    import numpy
    import scipy

    env = {
        "nproc": nproc(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        try:
            level, kind, size = (
                Path(base + f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            break
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        env[f"L{level}{suffix}_size"] = size
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{name}_blas"] = f"{blas['name']} {blas['version']}; " + blas.get(
                "openblas configuration", "")
        except (KeyError, TypeError, ValueError):
            env[f"{name}_blas"] = "unknown"
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(spec: dict, spec_path: Path, deadline: float) -> dict:
    """Run ``child.py`` on ``spec`` in its own session; on timeout the whole
    session (pool workers included) is killed and waited for."""
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("a benchmark child ran past the deadline") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"benchmark child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _write_calls(calls: list[dict], directory: Path) -> list[dict]:
    directory.mkdir(parents=True)
    written = []
    for i, call in enumerate(calls):
        path = directory / f"{i}-{call['label']}.json"
        path.write_text(json.dumps(call["config"], indent=1))
        written.append({"command": call["command"], "label": call["label"],
                        "config_path": str(path)})
    return written


def _rep_calls(calls: list[dict], work: Path, subdir: str, seed: int) -> list[dict]:
    return [{**call, "out": str(work / subdir / f"{i}-{call['label']}"), "seed": seed}
            for i, call in enumerate(calls)]


def _warm_up(deadline: float) -> None:
    # Untimed import: compiles the bytecode cache and fills the page cache,
    # which a user pays once, not on every invocation.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import ea_lab.cli", str(SRC)],
        check=True, timeout=max(1.0, deadline - time.monotonic()),
    )


def _totals(points_by_call: list[list[dict]]) -> tuple[int, float, int]:
    points = [p for call in points_by_call for p in call]
    return (sum(p["runs"] for p in points), sum(p["eval_sum"] for p in points),
            sum(p["censored"] for p in points))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run on one workload; returns its report, whose
    ``result`` is the JSON line the harness prints."""
    from checks import primary_output, run_checks, sha256_file

    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        calls = _write_calls(workloads.make_calls(name, seed, size), work / "configs")
        _warm_up(deadline)
        threads = nproc()
        no_censoring = name == "population-bits"
        if trace:
            rep = _rep_calls(calls, work, "rep0", workloads.rep_seed(seed, 0))
            probes = _write_calls(workloads.probe_calls(seed), work / "probe-configs")
            spec = {"mode": "trace", "src": str(SRC), "threads": threads, "calls": rep,
                    "seconds": seconds,
                    "probes": _rep_calls(probes, work, "probes", seed)}
            child = run_child(spec, work / "spec.json", deadline)
            reps, calls_by_rep = [child], [rep]
            checks, points_by_rep = run_checks(calls_by_rep, [child["exit_codes"]],
                                               no_censoring, 1)
            checks += [{"check": "same_output_at_1_worker", "ok": ok}
                       for ok in child["same_at_one_worker"]]
        else:
            reps, calls_by_rep, durations = [], [], []
            start = time.monotonic()
            while True:
                r = len(reps)
                rep = _rep_calls(calls, work, f"rep{r}", workloads.rep_seed(seed, r))
                t = time.monotonic()
                reps.append(run_child({"mode": "e2e", "src": str(SRC), "threads": threads,
                                       "calls": rep}, work / f"spec{r}.json", deadline))
                durations.append(time.monotonic() - t)
                calls_by_rep.append(rep)
                spent = time.monotonic() - start
                if len(reps) >= MIN_REPS and spent + statistics.median(durations) > seconds:
                    break
            checks, points_by_rep = run_checks(
                calls_by_rep, [r["exit_codes"] for r in reps], no_censoring, MIN_REPS)

        failed = sum(not c["ok"] for c in checks)
        totals = [_totals(points) for points in points_by_rep]
        hashes = [{c["label"]: sha256_file(primary_output(c)) for c in rep_calls}
                  for rep_calls in calls_by_rep]
        runs_all = sum(t[0] for t in totals)
        censored_frac = sum(t[2] for t in totals) / runs_all
        fail_frac = failed / len(checks)
        if trace:
            metrics = {**child["metrics"], "empirics.censored_frac": censored_frac}
            units = metric_units("per_layer")
        else:
            walls = [sum(r["walls"]) for r in reps]
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(r["setup_s"] for r in reps),
                "runs_per_s": statistics.median(t[0] / w for t, w in zip(totals, walls)),
                "evals_per_s": statistics.median(t[1] / w for t, w in zip(totals, walls)),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            }
            units = metric_units("end_to_end")
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
        result = {
            "correct": failed == 0,
            "attempted": len(checks),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        report = {
            "workload": name, "seed": seed,
            "seconds": seconds, "trace": trace, "size": size,
            "environment": environment(),
            "report_only": {"censored_frac": censored_frac, "check_fail_frac": fail_frac},
            "repetitions": reps, "rep_seeds": [c[0]["seed"] for c in calls_by_rep],
            "output_sha256": hashes, "checks": checks, "result": result,
        }
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {int(report['trace'])}: {len(report['repetitions'])} repetition(s)")
    rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
    if not report["trace"]:
        rows.update({k: (report["report_only"][k], u) for k, u in REPORT_ONLY_UNITS.items()})
    width = max(map(len, rows))
    for key, (value, unit) in rows.items():
        print(f"  {key:<{width}}  {_fmt(value):>12}  {unit}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    for check in report["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check}")
    for label, digest in report["output_sha256"][0].items():
        print(f"  sha256 {label} (repetition 0): {digest}")


def save_report(report: dict) -> Path:
    path = WORK / (f"report-{report['workload']}-seed{report['seed']}"
                   f"-trace{int(report['trace'])}.json")
    path.write_text(json.dumps(report, indent=1, default=str))
    return path


def self_test() -> int:
    """Flag shifted references, and emit every metric on a tiny pass."""
    from checks import DKW_ALPHA, dkw_check, exact_cdf, mean_check

    from ea_lab import empirics, oracle
    from ea_lab.algorithms import Budget, one_plus_one_config
    from ea_lab.core import onemax

    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    expect("mean 1 s.e. from the oracle passes", mean_check(101.0, 1.0, 100.0)[0])
    expect("mean 10 s.e. from the oracle is flagged", not mean_check(110.0, 1.0, 100.0)[0])

    n, runs = 10, 4000
    exp = empirics.Experiment(onemax(n), one_plus_one_config(n), runs, 7, Budget(100_000))
    batch = empirics.run_batch(exp, workers=1)
    chain = oracle.build_level_chain(onemax(n), "OnePlusOneEA")
    start = oracle.binomial_start(n)
    ts = [30, 45, 60]
    hits = batch.summary.hit_times
    emp = [float((hits <= t).sum()) / runs for t in ts]
    expect(f"simulated CDF inside the DKW band (alpha={DKW_ALPHA})",
           dkw_check(emp, exact_cdf(chain, start, ts), runs)[0])
    shifted = exact_cdf(chain, start, [int(t * 1.2) for t in ts])
    expect("CDF shifted by 20% in time is flagged", not dkw_check(emp, shifted, runs)[0])

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        for name in workloads.WORKLOADS:
            report = run_workload(name, 0, 1.0, trace, size="tiny")
            got = report["result"]["metrics"]
            expect(f"tiny {name} trace={int(trace)}: every metric emitted",
                   list(got) == list(metric_units(section)))
            expect(f"tiny {name} trace={int(trace)}: checks pass",
                   report["result"]["correct"])
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ea_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'ea_lab'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # Turn SIGTERM into an exception, so that a running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        print(f"  report: {save_report(report)}")
        reports.append(report)
    print(f"environment: {json.dumps(reports[0]['environment'])}")
    if len(reports) == 1:
        line = reports[0]["result"]
    else:
        line = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{k}": v for r in reports
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
