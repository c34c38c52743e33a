"""Tiny-size self-test of the benchmark itself.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.
Exits 0 when every check passes, 1 otherwise.  It checks that:

* every workload, run through ``run.py --size tiny``, prints a last
  line with exactly ``correct``/``attempted``/``failed``/``metrics``,
  and every end-to-end (``--trace 0``) or per-layer (``--trace 1``)
  metric of ``BENCHMARK.json`` with its declared unit;
* a deliberately corrupted reference answer shows up as a drop in
  ``ok_share`` on every workload;
* two traced runs of a serial workload on the same seed report the
  same ``core.dp_cells_per_op``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

sys.path.insert(0, os.path.join(ROOT, "src"))

from common import run_then_exit  # noqa: E402
from run import RESULTS, WORKLOADS, latency_limit_ms, load_spec  # noqa: E402

failures = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(name)


def run(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise RuntimeError(f"run.py exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = load_spec()
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v.get("unit") for k, v in metrics.items()}
            check(f"{workload} trace={trace} keys",
                  set(result) == {"correct", "attempted", "failed", "metrics"})
            check(f"{workload} trace={trace} metrics and units",
                  got == wanted,
                  f"missing {sorted(set(wanted) - set(got))}" if got != wanted
                  else "")
            check(f"{workload} trace={trace} values are numbers",
                  all(isinstance(v["value"], (int, float))
                      for v in metrics.values()))
            check(f"{workload} trace={trace} correct",
                  result["correct"] and result["attempted"] >= 1)

    from common import phase_metrics

    os.makedirs(RESULTS, exist_ok=True)
    for workload in WORKLOADS:
        module = importlib.import_module(workload)
        inputs = module.prepare(7, module.SIZES["tiny"], RESULTS)
        module.corrupt(inputs)
        result = module.measure(inputs, float(SECONDS),
                                latency_limit_ms(spec, workload), False)
        share = phase_metrics(result.phase, result.setup_s,
                              result.rss_mb)["ok_share"]
        check(f"{workload} corrupted reference lowers ok_share",
              result.phase.wrong >= 1 and share < 1.0, f"ok_share {share}")

    cells = [
        run("nn_indexed", 1)["metrics"]["core.dp_cells_per_op"]["value"]
        for _ in range(2)
    ]
    check("nn_indexed traced dp_cells_per_op repeats", cells[0] == cells[1],
          f"{cells}")
    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    run_then_exit(main)
