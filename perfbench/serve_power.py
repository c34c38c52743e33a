"""serve_power: pipelined 1-NN traffic against the real NDJSON server.

The server is a ``python -m repro serve --workers 2`` subprocess.  One
client process keeps one pipelined connection with ``outstanding``
(two) ops in flight: each reply sends the next op at once, a closed
loop.  The two in-flight queries reach the server together, so they
coalesce into one batch job, which ships a fresh shared-memory dataset
to the executor.  Latency runs from when an op was sent to when its
reply arrived.

The load is closed, not open.  An open loop of Poisson arrivals was
tried first: at half the capacity requests that arrive while a batch
runs queue behind it, the latency splits into an unqueued and a
queued mode and the median falls between them; at a quarter the
median stays put, but a slower spell of the machine still lengthens
batches, queues more requests and moved p50 and p90 by 28% and 38%
(spread between quartiles over ten runs), above any usable bound.

The collection is a rolling window of quantised power-demand nights
(``midnight_hour_pair(quantize=0.25)``): step-like traces whose
compression ratio (about 11 samples per run) clears the service's RLE
threshold, so every query auto-routes through ``rle_cdtw``.  Every
``write_every``-th op is a write instead: it registers the next
nightly snapshot under a new name, and queries sent after its
acknowledgement name that snapshot.  Queries never repeat (fresh
nights, each rotated by every offset), so the result cache never
answers one.

Set-up is starting the server, registering the first snapshot and
answering ``warmup_queries`` queries one at a time: without them the
first seconds of a phase ran the server's batches about 1.6x slower
than the rest.

References are computed after the phase: a dense full-compute cDTW
argmin (numpy chunk kernels) over the snapshot each query named.  A
write is correct when the server's fingerprint matches the snapshot's
content fingerprint.

The server is stopped with SIGINT; a nonzero exit or a ``/dev/shm``
segment created during the run and still present fails the run.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from common import (
    Phase,
    Result,
    ratio,
    shm_entries,
    tree_hwm_mb,
)

HERE = os.path.dirname(os.path.abspath(__file__))

SIZES = {
    "full": {"nights": 8, "length": 240, "band": 24, "quantize": 0.25,
             "outstanding": 2, "write_every": 20, "query_pool": 8,
             "workers": 2, "setup_repeats": 3, "warmup_queries": 20},
    "tiny": {"nights": 4, "length": 60, "band": 6, "quantize": 0.25,
             "outstanding": 2, "write_every": 5, "query_pool": 2,
             "workers": 2, "setup_repeats": 2, "warmup_queries": 2},
}

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Inputs:
    params: dict
    seed: int
    root: str
    workdir: str
    corrupt: bool = False


def prepare(seed: int, params: dict, workdir: str) -> Inputs:
    # measure() makes the nights and queries from the seed; the
    # references depend on which snapshot each query named, so they
    # are computed after the phase
    root = os.path.dirname(HERE)
    return Inputs(params, seed, root, workdir)


def corrupt(inputs: Inputs) -> None:
    """Damage one reference answer (used by the self-test)."""
    inputs.corrupt = True


class NightSource:
    """Seeded stream of distinct quantised midnight-hour traces."""

    def __init__(self, rng: random.Random, params: dict):
        self.rng = rng
        self.params = params
        self._buffer: List[List[float]] = []

    def next(self) -> List[float]:
        from repro.datasets.power import midnight_hour_pair

        if not self._buffer:
            n = self.params["length"]
            peaks = [
                sorted(self.rng.sample(range(n // 20, n - n // 20), 3))
                for _ in range(2)
            ]
            pair = midnight_hour_pair(
                length=n, peaks_a=peaks[0], peaks_b=peaks[1],
                seed=self.rng.randrange(2**31),
                quantize=self.params["quantize"],
            )
            self._buffer = [pair.night_a, pair.night_b]
        return self._buffer.pop()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One server subprocess and one pipelined client connection."""

    def __init__(self, inputs: Inputs, traced_out: Optional[str], log):
        params = inputs.params
        self.port = _free_port()
        serve_args = [
            "--workers", str(params["workers"]), "--port", str(self.port),
        ]
        if traced_out is None:
            argv = [sys.executable, "-m", "repro", "serve"] + serve_args
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    traced_out] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(inputs.root, "src")
        self.proc = subprocess.Popen(
            argv, cwd=inputs.root, env=env, stdout=log, stderr=log,
        )
        try:
            self.sock = self._connect()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.reader = self.sock.makefile("rb")

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} on start"
                )
            try:
                return socket.create_connection(("127.0.0.1", self.port))
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not start listening")
                time.sleep(0.02)

    def send(self, obj: dict) -> None:
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def recv(self) -> Optional[dict]:
        line = self.reader.readline()
        return json.loads(line) if line else None

    def rpc(self, obj: dict) -> dict:
        self.send(obj)
        reply = self.recv()
        if reply is None:
            raise RuntimeError("server closed the connection")
        return reply

    def stop(self) -> List[str]:
        """SIGINT, wait, and report anything but a clean exit."""
        try:
            # unblocks a receiver thread still waiting for a reply
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.reader.close()
        self.sock.close()
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return ["server ignored SIGINT and was killed"]
        return [] if code == 0 else [f"server exited with {code}"]


def _query(name: str, band: int, night, ident: str) -> dict:
    return {"op": "1nn", "dataset": name, "band": band, "query": night,
            "id": ident}


def measure(inputs: Inputs, seconds: float, limit_ms: float,
            traced: bool) -> Result:
    params = inputs.params
    band = params["band"]
    rng = random.Random(inputs.seed)
    source = NightSource(rng, params)
    # the rolling collection: snapshot k is nights[k : k + nights];
    # 200 snapshots outlast the writes of any phase, which makes at
    # most len(queries) ops (1912 at full size, one write in 20)
    nights = [source.next() for _ in range(params["nights"] + 200)]
    # distinct queries without a generator call per op: fresh nights,
    # each rotated by every offset (still quantised, still step-like)
    pool = [source.next() for _ in range(params["query_pool"])]
    length = params["length"]
    queries = [
        night[k:] + night[:k] for k in range(1, length) for night in pool
    ]
    rng.shuffle(queries)
    warmups = [
        [source.next() for _ in range(params["warmup_queries"])]
        for _ in range(params["setup_repeats"])
    ]

    def snapshot(k: int) -> List[List[float]]:
        return nights[k:k + params["nights"]]

    tag = f"{os.getpid()}-{int(traced)}"
    log_path = os.path.join(inputs.workdir, f"serve_power-{tag}.log")
    traced_out = (
        os.path.join(inputs.workdir, f"serve_traced-{tag}.json")
        if traced else None
    )
    shm_before = shm_entries()
    problems: List[str] = []
    setups = []
    server = None
    try:
        with open(log_path, "wb") as log:
            for warm in warmups:
                if server is not None:
                    problems += server.stop()
                    server = None
                t0 = time.perf_counter()
                server = Server(inputs, traced_out, log)
                reply = server.rpc(
                    {"admin": "register", "name": "nights-0",
                     "series": snapshot(0)}
                )
                if not reply.get("ok"):
                    raise RuntimeError(f"register failed: {reply}")
                for night in warm:
                    reply = server.rpc(_query("nights-0", band, night, "warm"))
                    if not reply.get("ok"):
                        raise RuntimeError(f"warm-up query failed: {reply}")
                setups.append(time.perf_counter() - t0)
            stats_before = server.rpc({"admin": "stats"})["stats"]
            if traced:
                server.proc.send_signal(signal.SIGUSR1)
            run = _closed_loop(server, queries, snapshot, band, seconds,
                               params)
            rss_mb = tree_hwm_mb(server.proc.pid)
            if run["stalled"]:
                problems.append("server stopped answering")
                stats_after = stats_before
            else:
                stats_after = server.rpc({"admin": "stats"})["stats"]
    finally:
        if server is not None:
            problems += server.stop()
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        problems.append(f"shm segments left behind: {leaked}")

    phase = _judge(run, snapshot, band, limit_ms, inputs.corrupt,
                   params["write_every"])
    record = {
        "outstanding": params["outstanding"],
        "ops": len(run["ops"]),
        "writes": sum(op["write"] for op in run["ops"]),
        "server_log": os.path.relpath(log_path, inputs.root),
        "server_stats": stats_after,
    }
    result = Result(statistics.median(setups), phase, rss_mb,
                    record=record, problems=problems)
    if traced:
        with open(traced_out) as fh:
            dump = json.load(fh)
        result.layers = _layers(run, dump, stats_before, stats_after)
        result.record["server_spans"] = dump
    return result


def _closed_loop(server: Server, queries, snapshot, band, seconds,
                 params) -> Dict:
    """Keep ``outstanding`` ops in flight until ``seconds`` elapse.

    Each reply sends the next op at once; every ``write_every``-th op
    registers the next snapshot, and queries sent after its
    acknowledgement name it.  Admin replies carry no id and come back
    in the order they were sent.
    """
    ops: List[Dict] = []
    pending_writes: List[int] = []
    acked = 0
    in_flight = 0
    start = time.perf_counter()
    deadline = start + seconds

    def send_next() -> None:
        nonlocal in_flight
        pos = len(ops)
        if time.perf_counter() >= deadline or pos >= len(queries):
            return
        if (pos + 1) % params["write_every"] == 0:
            writes = sum(op["write"] for op in ops) + 1
            op = {"write": True, "target": writes}
            pending_writes.append(pos)
            message = {"admin": "register", "name": f"nights-{writes}",
                       "series": snapshot(writes)}
        else:
            op = {"write": False, "target": acked, "query": queries[pos]}
            message = _query(f"nights-{acked}", band, queries[pos], str(pos))
        ops.append(op)
        in_flight += 1
        op["sent"] = time.perf_counter()
        server.send(message)

    server.sock.settimeout(STOP_TIMEOUT_S)
    for _ in range(params["outstanding"]):
        send_next()
    stalled = False
    while in_flight:
        try:
            reply = server.recv()
        except OSError:  # includes the socket timeout
            reply = None
        now = time.perf_counter()
        if reply is None:
            stalled = True
            break
        in_flight -= 1
        pos = int(reply["id"]) if "id" in reply else pending_writes.pop(0)
        op = ops[pos]
        op["reply"], op["received"] = reply, now
        if op["write"] and reply.get("ok"):
            acked = max(acked, op["target"])
        send_next()
    server.sock.settimeout(None)
    return {"start": start, "ops": ops, "stalled": stalled}


def _judge(run: Dict, snapshot, band: int, limit_ms: float,
           corrupt: bool, window: int) -> Phase:
    """Check every reply against its reference, outside any timing.

    The reference is a dense full-compute cDTW argmin (numpy chunk
    kernels, one batch per snapshot) over the snapshot the query
    named.  Ops are grouped into windows of ``window`` completions
    (one write each) whose rates give the phase's ``passes``.
    """
    from repro.batch.engine import argmin_first, batch_distances
    from repro.batch.shm import pack_dataset
    from repro.runtime import Runtime

    ops = run["ops"]
    by_target: Dict[int, List[int]] = {}
    for pos, op in enumerate(ops):
        if not op["write"] and op.get("reply"):
            by_target.setdefault(op["target"], []).append(pos)
    expected = {}
    for target, positions in by_target.items():
        collection = snapshot(target)
        n = len(collection)
        dense = batch_distances(
            collection + [ops[p]["query"] for p in positions],
            pairs=[(n + q, j) for q in range(len(positions))
                   for j in range(n)],
            measure="cdtw", band=band, runtime=Runtime(backend="numpy"),
        )
        for q, pos in enumerate(positions):
            expected[pos] = argmin_first(dense.distances[q * n:(q + 1) * n])
    if corrupt and expected:
        first = min(expected)
        index, distance = expected[first]
        expected[first] = (index, distance + 1.0)

    phase = Phase()
    done = []  # (completion time, correct?)
    for pos, op in enumerate(ops):
        reply = op.get("reply")
        if reply is None:
            phase.error(RuntimeError("no reply"))
            continue
        if not reply.get("ok"):
            phase.error(RuntimeError(reply.get("error", "error reply")))
            done.append((op["received"], False))
            continue
        latency_ms = (op["received"] - op["sent"]) * 1000.0
        if op["write"]:
            ok = reply.get("fingerprint") == pack_dataset(
                snapshot(op["target"]))[2]
            phase.record(ok, latency_ms, limit_ms, timed=False)
        else:
            answer = reply["answer"]
            ok = (answer["index"], answer["distance"]) == expected[pos]
            phase.record(ok, latency_ms, limit_ms)
        done.append((op["received"], ok))
    done.sort()
    last = run["start"]
    for k in range(0, len(done) - window + 1, window):
        chunk = done[k:k + window]
        phase.passes.append((sum(ok for _, ok in chunk), chunk[-1][0] - last))
        last = chunk[-1][0]
    phase.wall_s = (done[-1][0] if done else last) - run["start"]
    return phase


def _delta(final: Dict, base: Dict) -> Dict:
    return {k: v - base.get(k, 0) for k, v in final.items()}


def _layers(run: Dict, dump: Dict, before: Dict,
            after: Dict) -> Dict[str, float]:
    """Per-layer metrics from replies, server stats and server spans."""
    exec_ms, queue_ms, batched = [], [], []
    for op in run["ops"]:
        reply = op.get("reply")
        if op["write"] or not reply or not reply.get("ok"):
            continue
        tel = reply["telemetry"]
        client_ms = (op["received"] - op["sent"]) * 1000.0
        exec_ms.append(tel["latency_ms"])
        queue_ms.append(client_ms - tel["latency_ms"])
        batched.append(tel["batched_with"])
    ops = len(exec_ms)
    stats = _delta(
        {k: v for k, v in after.items() if isinstance(v, (int, float))},
        before,
    )
    counters = _delta(dump["final"]["counters"], dump["baseline"]["counters"])
    spans = {
        name: _delta(dump["final"]["spans"][name],
                     dump["baseline"]["spans"].get(name, {}))
        for name in dump["final"]["spans"]
    }
    dp_ms = sum(
        s for path, s in _delta(dump["final"]["program_spans"],
                                dump["baseline"]["program_spans"]).items()
        if path.split("/")[-1] == "dp"
    )
    executor = _delta(dump["final"]["executor"], dump["baseline"]["executor"])
    jobs = counters.get("batch.jobs", 0)
    run_job_ms = spans["executor.run_job"]["seconds"] * 1000.0
    registers = spans["serve.register"]
    return {
        "core.dp_calls_per_op": counters.get("dp.calls", 0) / ops,
        "core.dp_cells_per_op": counters.get("dp.cells", 0) / ops,
        "core.dp_ms_per_op": dp_ms * 1000.0 / ops,
        "rle.runs_per_op": counters.get("rle.runs", 0) / ops,
        "rle.block_cells_per_op": counters.get("rle.block_cells", 0) / ops,
        "batch.jobs_per_op": jobs / ops,
        "batch.pairs_per_op": counters.get("batch.pairs", 0) / ops,
        "batch.engine_ms_per_op": (
            spans["batch.distances"]["seconds"] * 1000.0 - run_job_ms
        ) / ops,
        "batch.sched_chunks_per_job": ratio(
            counters.get("sched.chunks", 0), jobs),
        "batch.sched_steal_share": ratio(
            counters.get("sched.steals", 0), counters.get("sched.chunks", 0)),
        "executor.run_job_ms_per_op": run_job_ms / ops,
        "executor.pools_created": executor["pools_created"],
        "executor.pools_poisoned": executor["pools_poisoned"],
        "executor.shm_datasets_per_op": executor["datasets_shipped"] / ops,
        "executor.shm_mb_per_op": executor["bytes_shipped"] / ops / 2**20,
        "executor.failed_jobs": spans["executor.run_job"]["raised"],
        "serve.exec_ms_p50": statistics.median(exec_ms),
        "serve.queue_ms_p50": statistics.median(queue_ms),
        "serve.batch_size_mean": statistics.fmean(batched),
        "serve.coalesced_share": ratio(
            stats["coalesced_requests"], stats["requests"]),
        "serve.server_p50_ms": after["p50_latency_ms"],
        "serve.server_p99_ms": after["p99_latency_ms"],
        "serve.register_ms": ratio(
            registers["seconds"] * 1000.0, registers["calls"]),
        "serve.index_builds": stats["index_builds"],
        "serve.dp_cells_per_op": stats["dp_cells"] / ops,
    }
