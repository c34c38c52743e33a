"""nn_indexed: repeated 1-NN gesture search on the index fast path.

One caller, closed loop, default runtime (serial, python kernels).
Each op is ``nearest_neighbor(query, collection, strategy="cdtw+lb",
band=8, index=idx)`` for a held-out gesture query.  The collection is
uWave-shaped: eight users times eight gestures, each user drawn from
its own seeded :func:`gesture_dataset` (its own prototypes), so one
seed's cost averages over 64 gesture prototypes, not 8.

Set-up is what a caller does once before searching: ``build_index``,
``save_index`` and a fingerprint-verified ``load_index``, timed three
times before the phase and again between its passes (about fifteen
samples); ``setup_s`` is their median.  The
reference answers come from an index-free brute-force cDTW argmin
over the numpy chunk kernels, computed before any timed phase.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List

from common import (
    Result,
    SetupTimer,
    Spans,
    cascade_layers,
    closed_loop,
    reset_hwm,
    tree_hwm_mb,
)

SIZES = {
    "full": {"users": 8, "gestures": 8, "per_gesture": 3,
             "queries_per_gesture": 2, "length": 200, "band": 8,
             "setup_repeats": 3},
    "tiny": {"users": 2, "gestures": 4, "per_gesture": 2,
             "queries_per_gesture": 1, "length": 48, "band": 3,
             "setup_repeats": 2},
}


@dataclass
class Inputs:
    params: dict
    collection: List[List[float]]
    queries: List[List[float]]
    reference: List[tuple]  # (index, distance) per query
    workdir: str


def prepare(seed: int, params: dict, workdir: str) -> Inputs:
    from repro.batch.engine import argmin_first, batch_distances
    from repro.datasets.gestures import gesture_dataset
    from repro.runtime import Runtime

    rng = random.Random(seed)
    g, keep, held = (
        params["gestures"], params["per_gesture"],
        params["queries_per_gesture"],
    )
    collection, queries = [], []
    for _ in range(params["users"]):
        user = gesture_dataset(
            n_classes=g, per_class=keep + held, length=params["length"],
            seed=rng.randrange(2**31),
        )
        for c in range(g):
            rows = user.series[c * (keep + held):(c + 1) * (keep + held)]
            collection.extend(list(r) for r in rows[:keep])
            queries.extend(list(r) for r in rows[keep:])
    n = len(collection)
    brute = batch_distances(
        collection + queries,
        pairs=[(n + q, j) for q in range(len(queries)) for j in range(n)],
        measure="cdtw", band=params["band"],
        runtime=Runtime(backend="numpy"),
    )
    reference = [
        argmin_first(brute.distances[q * n:(q + 1) * n])
        for q in range(len(queries))
    ]
    return Inputs(params, collection, queries, reference, workdir)


def measure(inputs: Inputs, seconds: float, limit_ms: float,
            traced: bool) -> Result:
    from repro.batch.shm import pack_dataset
    from repro.index import IndexSearcher, build_index, load_index, save_index
    from repro.obs import RunTrace
    from repro.search import nearest_neighbor

    params, collection = inputs.params, inputs.collection
    band = params["band"]
    spans = Spans()
    items = list(range(len(inputs.queries)))
    reference = list(inputs.reference)
    reset_hwm()
    with tempfile.TemporaryDirectory(dir=inputs.workdir) as tmp:
        path = os.path.join(tmp, "gestures.idx")

        def set_up():
            t0 = time.perf_counter()
            index = build_index(collection, band=band)
            t1 = time.perf_counter()
            save_index(index, path)
            t2 = time.perf_counter()
            loaded = load_index(
                path, expected_fingerprint=pack_dataset(collection)[2]
            )
            t3 = time.perf_counter()
            spans.add("index.build", t1 - t0)
            spans.add("index.save", t2 - t1)
            spans.add("index.load", t3 - t2)
            return loaded

        setup = SetupTimer(
            set_up, seconds,
            aside=RunTrace if traced else nullcontext,
        )
        index = setup.before(params["setup_repeats"])

        def op(q):
            return nearest_neighbor(
                inputs.queries[q], collection, strategy="cdtw+lb",
                band=band, index=index,
            )

        def check(q, hit):
            return (hit.index, hit.distance) == reference[q]

        # one untimed op: first-call lazy imports stay out of the phase
        op(items[0])
        if not traced:
            phase = closed_loop(items, op, check, seconds, limit_ms,
                                setup.between)
            rss_mb = tree_hwm_mb(os.getpid())
            return Result(setup.median(), phase, rss_mb,
                      record={"setup_samples": len(setup.samples)})

        spans.wrap(IndexSearcher, "nearest", "index.search")
        try:
            with RunTrace() as trace:
                phase = closed_loop(items, op, check, seconds, limit_ms,
                                    setup.between)
        finally:
            spans.restore()
    rss_mb = tree_hwm_mb(os.getpid())
    builds = spans.calls["index.build"]
    layers = {
        "index.build_ms": spans.ms("index.build") / builds,
        "index.save_ms": spans.ms("index.save") / builds,
        "index.load_ms": spans.ms("index.load") / builds,
        "index.search_ms_per_op": spans.ms("index.search") / phase.attempted,
    }
    layers.update(cascade_layers(trace, phase.attempted))
    return Result(
        setup.median(), phase, rss_mb, layers=layers,
        record={"spans": spans.to_dict(), "trace": trace.to_dict(),
                "setup_samples": len(setup.samples)},
    )


def corrupt(inputs: Inputs) -> None:
    """Damage one reference answer (used by the self-test)."""
    index, distance = inputs.reference[0]
    inputs.reference[0] = (index, distance + 1.0)
