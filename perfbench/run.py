"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nn_indexed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the measured, untraced phase and prints the
end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs an
untraced phase and then a traced one on the same inputs, and prints
the per-layer metrics plus ``overhead.<metric>`` (traced minus
untraced) for every end-to-end metric.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full run record (also written under
``perfbench/results/``).  ``--size tiny`` shrinks every input for the
self-test.

The program under test is the checkout's ``src/repro``; the run
refuses (exit 2) if it is missing rather than measure anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys

from common import (
    phase_metrics, phase_record, run_then_exit, stop_descendants,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("nn_indexed", "loocv_sweep", "cluster_matrix", "serve_power")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def latency_limit_ms(spec: dict, workload: str) -> float:
    """The goodput latency limit, stated once in the workload's ``why``."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            found = re.search(r"limit (\d+(?:\.\d+)?) ms", entry["why"])
            if found:
                return float(found.group(1))
            raise SystemExit(f"no 'limit N ms' in the why of {workload}")
    raise SystemExit(f"{workload} is not a workload of BENCHMARK.json")


def source_digest() -> str:
    """sha256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_rev():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def emit(metrics: dict, declared: list) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    return {
        m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # a shell that starts this in the background leaves SIGINT ignored;
    # the query server would inherit that and ignore the SIGINT that
    # stops it
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported {repro.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    import importlib

    spec = load_spec()
    limit_ms = latency_limit_ms(spec, args.workload)
    module = importlib.import_module(args.workload)
    params = module.SIZES[args.size]
    os.makedirs(RESULTS, exist_ok=True)
    inputs = module.prepare(args.seed, params, RESULTS)

    plain = module.measure(inputs, args.seconds, limit_ms, traced=False)
    e2e = phase_metrics(plain.phase, plain.setup_s, plain.rss_mb)
    phases = {"untraced": plain}
    if args.trace:
        traced = module.measure(inputs, args.seconds, limit_ms, traced=True)
        phases["traced"] = traced
        with_trace = phase_metrics(traced.phase, traced.setup_s,
                                   traced.rss_mb)
        layers = dict(traced.layers)
        for name, value in with_trace.items():
            layers[f"overhead.{name}"] = value - e2e[name]
        metrics = emit(layers, spec["per_layer"])
    else:
        metrics = emit(e2e, spec["end_to_end"])

    killed = stop_descendants()
    problems = [p for r in phases.values() for p in r.problems]
    attempted = sum(r.phase.attempted for r in phases.values())
    failed = sum(r.phase.failed for r in phases.values())
    wrong = sum(r.phase.wrong for r in phases.values())
    record = {
        "schema": "perfbench/run/v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "params": params,
        "latency_limit_ms": limit_ms,
        "end_to_end": e2e,
        "phases": {
            name: {
                **phase_record(r.phase),
                "setup_s": r.setup_s,
                "rss_peak_mb": r.rss_mb,
                "layers": r.layers,
                **r.record,
            }
            for name, r in phases.items()
        },
        "problems": problems,
        "processes_killed_at_exit": killed,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    run_then_exit(main)
