"""The query server with the benchmark's spans around its layers.

Usage: ``python perfbench/serve_traced.py OUT.json [serve options]``.

Runs exactly what ``python -m repro serve [serve options]`` runs, after
wrapping ``QueryService.execute_batch``, ``DatasetRegistry.register``,
the service's ``batch_distances`` and ``BatchExecutor.run_job`` in
timing spans.  SIGUSR1 records a baseline of those spans, of the
service's accumulated trace and of the executor's stats; on exit
(SIGINT, as for the plain server) the baseline and the final values
are written to ``OUT.json`` so the client can take the difference
over its measured phase.
"""

from __future__ import annotations

import json
import signal
import sys

import repro.serve.service as service
from repro.batch.executor import BatchExecutor
from repro.cli import main
from repro.serve.registry import DatasetRegistry

from common import Spans

spans = Spans()
spans.wrap(service.QueryService, "execute_batch", "serve.execute_batch")
spans.wrap(DatasetRegistry, "register", "serve.register")
spans.wrap(service, "batch_distances", "batch.distances")
spans.wrap(BatchExecutor, "run_job", "executor.run_job")

services = []
executors = []


def _capture(cls, sink):
    init = cls.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(self)

    cls.__init__ = capturing


_capture(service.QueryService, services)
_capture(BatchExecutor, executors)


def snapshot() -> dict:
    trace = services[0]._accumulator if services else None
    return {
        "counters": trace.counters() if trace else {},
        "program_spans": {
            path: stat.seconds for path, stat in trace.spans().items()
        } if trace else {},
        "spans": spans.to_dict(),
        "executor": vars(executors[0].stats).copy() if executors else {},
    }


baseline = {}


def _mark(signum, frame):
    baseline.update(snapshot())


if __name__ == "__main__":
    out = sys.argv[1]
    signal.signal(signal.SIGUSR1, _mark)
    code = main(["serve"] + sys.argv[2:])
    with open(out, "w") as fh:
        json.dump({"baseline": baseline, "final": snapshot()}, fh)
    sys.exit(code)
