"""One benchmark child process.

    python3 bench/child.py SPEC.json

``SPEC.json`` holds ``mode`` ("e2e" or "trace"), ``src`` (the directory
holding ``ea_lab``), ``threads`` and ``calls``: the workload's ``ea-lab``
calls, each with ``command``, ``label``, ``config_path``, ``out`` and
``seed``.  The child prints its measurements as one JSON line, last.

``e2e`` is one timed repetition: import ``ea_lab``, load and build every
configuration (set-up), then call ``cli.main`` for each call.  ``trace``
is the traced run that yields the per-layer numbers.

Only the standard library is imported at module level, so that the
set-up time includes importing numpy, scipy and ``ea_lab``.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def _peak_rss_mb() -> float:
    # Own peak plus the largest peak among reaped pool workers (KiB on Linux).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _argv(call: dict, threads: int) -> list[str]:
    return [call["command"], "--config", call["config_path"], "--out", call["out"],
            "--threads", str(threads), "--seed", str(call["seed"])]


def _setup(calls: list[dict]):
    """Import ``ea_lab``, load every configuration and build its
    experiments (one per sweep point), as a user's invocation would."""
    from ea_lab import cli

    experiments = []
    for call in calls:
        cfg = cli.load_config(call["config_path"])
        cfg["master_seed"] = call["seed"]
        sizes = cfg["sweep"]["values"] if call["command"] == "sweep" else [None]
        experiments.append([cli.build_experiment(cfg, n) for n in sizes])
    return cli, experiments


def e2e(spec: dict) -> dict:
    t0 = perf_counter()
    cli, _ = _setup(spec["calls"])
    setup_s = perf_counter() - t0
    walls, codes = [], []
    for call in spec["calls"]:
        argv = _argv(call, spec["threads"])
        t = perf_counter()
        codes.append(cli.main(argv))
        walls.append(perf_counter() - t)
    return {"setup_s": setup_s, "walls": walls, "exit_codes": codes,
            "peak_rss_mb": _peak_rss_mb()}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    if spec["mode"] == "e2e":
        result = e2e(spec)
    else:
        from layers import traced_run

        result = traced_run(spec, _setup, _argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
