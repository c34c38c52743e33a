"""cluster_matrix: all-pairs cDTW matrices on one warm numpy executor.

One caller, closed loop.  Each op is ``distance_matrix(collection,
window=0.1, runtime=Runtime(workers=2, backend="numpy",
executor=ex))`` over one equal-shape random-walk collection.  The ops
cycle through five collections, one more than the executor (and each
worker) keeps resident, so every op ships a dataset: the working set
is deliberately larger than the residency cache.

Failures are counted, never retried: a job that raises is a failed
op, and the executor is left to recover the way it does for users.
The executor's recovery itself can hang (``Pool.terminate`` waits on
a queue lock that a killed worker may hold), so each op runs under a
deadline equal to the latency limit.  A hung op is a failed op; its
executor is abandoned and a fresh one takes over, as a caller with a
deadline would have to do.  The hung executor can never release its
shared-memory segments (its lock stays held), so the benchmark
unlinks them itself and lists them in the run record.

Set-up is creating the executor and running one warm-up matrix on a
sixth collection (pool start plus first shipment).  It is timed
several times before the phase, each sample's executor shut down
before the next starts, and again between passes on executors that
are shut down at once; ``setup_s`` is the median of all samples.  The
reference for each collection is a serial python-backend matrix.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import List

from common import (
    Hung,
    Result,
    SetupTimer,
    Spans,
    call_within,
    closed_loop,
    dp_layers,
    ratio,
    reset_hwm,
    shm_entries,
    tree_hwm_mb,
    unlink_segment,
)

SIZES = {
    "full": {"collections": 5, "count": 32, "length": 256,
             "window": 0.05, "workers": 2, "setup_repeats": 3},
    "tiny": {"collections": 5, "count": 6, "length": 24,
             "window": 0.05, "workers": 2, "setup_repeats": 2},
}


@dataclass
class Inputs:
    params: dict
    collections: List[List[List[float]]]
    warmup: List[List[float]]
    reference: List[tuple]  # matrix values per collection


def prepare(seed: int, params: dict, workdir: str) -> Inputs:
    from repro.core.matrix import distance_matrix
    from repro.datasets.random_walk import random_walks
    from repro.runtime import Runtime

    count, length = params["count"], params["length"]
    collections = [
        random_walks(count, length, seed=seed * 1009 + k)
        for k in range(params["collections"])
    ]
    warmup = random_walks(count, length, seed=seed * 1009 + 1000)
    reference = [
        distance_matrix(
            c, window=params["window"], runtime=Runtime(backend="python"),
        ).values
        for c in collections
    ]
    return Inputs(params, collections, warmup, reference)


def measure(inputs: Inputs, seconds: float, limit_ms: float,
            traced: bool) -> Result:
    import repro.batch.engine as engine
    from repro.batch.executor import BatchExecutor
    from repro.core.matrix import distance_matrix
    from repro.obs import RunTrace
    from repro.runtime import Runtime

    params = inputs.params
    window = params["window"]
    items = list(range(len(inputs.collections)))
    reference = list(inputs.reference)
    shm_before = shm_entries()
    reset_hwm()
    executors = []  # every executor made
    measured = []  # executors that ran measured ops, the live one last
    abandoned = []  # executors left holding a hung op
    spans = Spans()

    def fresh_runtime():
        ex = BatchExecutor(workers=params["workers"])
        executors.append(ex)
        return Runtime(workers=params["workers"], backend="numpy",
                       executor=ex)

    def set_up():
        rt = fresh_runtime()
        distance_matrix(inputs.warmup, window=window, runtime=rt)
        return rt

    @contextmanager
    def aside():
        # set-up samples between passes stay out of the per-op layers
        with RunTrace(), spans.paused():
            yield

    def matrix(c):
        return distance_matrix(
            inputs.collections[c], window=window, runtime=runtime,
        )

    try:
        setup = SetupTimer(
            set_up, seconds,
            discard=lambda rt: rt.executor.shutdown(),
            aside=aside if traced else nullcontext,
        )
        runtime = setup.before(params["setup_repeats"])
        measured.append(runtime.executor)

        def op(c):
            nonlocal runtime
            try:
                return call_within(matrix, c, limit_ms / 1000.0)
            except Hung:
                abandoned.append(runtime.executor)
                runtime = fresh_runtime()
                measured.append(runtime.executor)
                raise

        def check(c, result):
            return result.values == reference[c]

        stats_before = vars(runtime.executor.stats).copy()
        if traced:
            spans.wrap(engine, "batch_distances", "batch.distances")
            spans.wrap(BatchExecutor, "run_job", "executor.run_job")
        try:
            with RunTrace() if traced else nullcontext() as trace:
                phase = closed_loop(items, op, check, seconds, limit_ms,
                                    setup.between)
        finally:
            spans.restore()
        rss_mb = tree_hwm_mb(os.getpid())
        stats = {
            k: sum(vars(ex.stats)[k] for ex in measured) - v
            for k, v in stats_before.items()
        }
    finally:
        for ex in executors:
            if ex not in abandoned:
                ex.shutdown()

    held = {n.lstrip("/") for ex in abandoned for n in ex.segment_names()}
    for name in held:
        unlink_segment(name)
    leaked = sorted(shm_entries() - shm_before)
    problems = [f"shm segments left behind: {leaked}"] if leaked else []
    record = {"executor": stats, "hung_ops": len(abandoned),
              "segments_held_by_hung_executors": sorted(held),
              "setup_samples": len(setup.samples)}
    if not traced:
        return Result(setup.median(), phase, rss_mb, record=record,
                      problems=problems)

    ops = phase.attempted
    c = trace.counters()
    jobs = c.get("batch.jobs", 0)
    layers = {
        **dp_layers(trace, ops),
        "core.chunk_calls_per_op": c.get("chunk.calls", 0) / ops,
        "core.chunk_pairs_per_call": ratio(
            c.get("chunk.pairs", 0), c.get("chunk.calls", 0)),
        "core.chunk_pad_share": ratio(
            c.get("chunk.pad_rows", 0),
            c.get("chunk.pairs", 0) + c.get("chunk.pad_rows", 0)),
        "batch.jobs_per_op": jobs / ops,
        "batch.pairs_per_op": c.get("batch.pairs", 0) / ops,
        "batch.engine_ms_per_op": (
            spans.ms("batch.distances") - spans.ms("executor.run_job")
        ) / ops,
        "batch.sched_chunks_per_job": ratio(c.get("sched.chunks", 0), jobs),
        "batch.sched_steal_share": ratio(
            c.get("sched.steals", 0), c.get("sched.chunks", 0)),
        "executor.run_job_ms_per_op": spans.ms("executor.run_job") / ops,
        "executor.pools_created": stats["pools_created"],
        "executor.pools_poisoned": stats["pools_poisoned"],
        "executor.shm_datasets_per_op": stats["datasets_shipped"] / ops,
        "executor.shm_mb_per_op": stats["bytes_shipped"] / ops / 2**20,
        "executor.failed_jobs": (
            spans.raised["executor.run_job"] + len(abandoned)),
    }
    record.update(spans=spans.to_dict(), trace=trace.to_dict())
    return Result(setup.median(), phase, rss_mb, layers=layers,
                  record=record, problems=problems)


def corrupt(inputs: Inputs) -> None:
    """Damage one reference answer (used by the self-test)."""
    rows = [list(r) for r in inputs.reference[0]]
    rows[0][1] += 1.0
    inputs.reference[0] = tuple(tuple(r) for r in rows)
