"""loocv_sweep: Dau et al.'s best-window procedure, one LOOCV per op.

One caller, closed loop, default runtime (serial, python kernels).
Each op is ``loocv_error(series, labels, DistanceSpec("cdtw",
window=w, use_lower_bounds=True))`` for one (dataset, window) cell of
``synthetic_archive`` x a window grid, cycled in a fixed order so
every run sees the same mix of cells.  This is the index-free
``LowerBoundCascade`` path that ``nn_indexed`` never runs.

The reference for each cell is a full-compute LOOCV: the complete
pairwise cDTW matrix from the numpy chunk kernels, then a first-wins
argmin over each row without its own entry.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List

from common import (
    Result,
    SetupTimer,
    cascade_layers,
    closed_loop,
    reset_hwm,
    tree_hwm_mb,
)

SIZES = {
    "full": {"datasets": 16, "length_range": (40, 120),
             "warp_range": (0.0, 0.12), "classes": 3, "per_class": 4,
             "windows": (0.02, 0.05, 0.1, 0.2), "setup_repeats": 5},
    "tiny": {"datasets": 2, "length_range": (24, 32),
             "warp_range": (0.0, 0.1), "classes": 2, "per_class": 3,
             "windows": (0.05, 0.1), "setup_repeats": 2},
}


@dataclass
class Inputs:
    params: dict
    datasets: list  # TimeSeriesDataset per archive entry
    cells: List[tuple]  # (dataset position, window)
    reference: List[float]  # LOOCV error per cell


def full_loocv_error(series, labels, window: float) -> float:
    """LOOCV error from a complete distance matrix (no pruning)."""
    from repro.batch.engine import argmin_first, batch_distances
    from repro.runtime import Runtime

    k = len(series)
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    full = batch_distances(
        [list(s) for s in series], pairs=pairs, measure="cdtw",
        window=window, runtime=Runtime(backend="numpy"),
    )
    wrong = 0
    for i in range(k):
        row = full.distances[i * (k - 1):(i + 1) * (k - 1)]
        nearest, _ = argmin_first(row)
        j = nearest if nearest < i else nearest + 1
        wrong += labels[j] != labels[i]
    return wrong / k


def prepare(seed: int, params: dict, workdir: str) -> Inputs:
    from repro.datasets.synthetic_archive import synthetic_archive

    archive = synthetic_archive(
        n_datasets=params["datasets"],
        length_range=params["length_range"],
        warp_range=params["warp_range"], classes=params["classes"],
        per_class=params["per_class"], seed=seed,
    )
    datasets = [entry.dataset for entry in archive]
    cells = [
        (d, w) for d in range(len(datasets)) for w in params["windows"]
    ]
    random.Random(seed).shuffle(cells)
    reference = [
        full_loocv_error(datasets[d].series, datasets[d].labels, w)
        for d, w in cells
    ]
    return Inputs(params, datasets, cells, reference)


def measure(inputs: Inputs, seconds: float, limit_ms: float,
            traced: bool) -> Result:
    from repro.classify import DistanceSpec, loocv_error
    from repro.obs import RunTrace

    items = list(range(len(inputs.cells)))
    reference = list(inputs.reference)

    def loocv(d, w):
        data = inputs.datasets[d]
        return loocv_error(
            data.series, data.labels,
            DistanceSpec("cdtw", window=w, use_lower_bounds=True),
        )

    def op(c):
        return loocv(*inputs.cells[c])

    def check(c, error):
        return error == reference[c]

    def warm_up():
        # no index or pool to build: set-up is one LOOCV per window on
        # the shortest dataset, outside the phase; the first pays the
        # lazy imports and first-call costs
        for w in inputs.params["windows"]:
            loocv(0, w)

    reset_hwm()
    setup = SetupTimer(
        warm_up, seconds,
        aside=RunTrace if traced else nullcontext,
    )
    setup.before(inputs.params["setup_repeats"])
    if not traced:
        phase = closed_loop(items, op, check, seconds, limit_ms,
                            setup.between)
        rss_mb = tree_hwm_mb(os.getpid())
        return Result(setup.median(), phase, rss_mb,
                      record={"setup_samples": len(setup.samples)})

    with RunTrace() as trace:
        phase = closed_loop(items, op, check, seconds, limit_ms,
                            setup.between)
    rss_mb = tree_hwm_mb(os.getpid())
    layers = cascade_layers(trace, phase.attempted)
    layers["classify.predictions_per_op"] = (
        trace.counter("knn.predictions") / phase.attempted
    )
    return Result(
        setup.median(), phase, rss_mb, layers=layers,
        record={"trace": trace.to_dict(),
                "setup_samples": len(setup.samples)},
    )


def corrupt(inputs: Inputs) -> None:
    """Damage one reference answer (used by the self-test)."""
    inputs.reference[0] += 1.0
