"""Shared machinery of the benchmark: phases, percentiles, spans, RSS.

Nothing here imports ``repro``: the workload modules do, after
:mod:`run` has put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import math
import os
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence


@dataclass
class Phase:
    """Outcome of one measured phase: per-op latencies and verdicts.

    ``latencies_ms`` holds only correctly answered ops that count
    towards latency (serve writes are correct ops without a latency
    sample).  ``good`` counts correct ops within the latency limit.
    """

    attempted: int = 0
    correct: int = 0
    wrong: int = 0  # answered, but not what the reference says
    errors: int = 0  # raised, or replied with an error
    good: int = 0
    wall_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: (correct ops, seconds) of each pass over the same mix of ops
    passes: List[tuple] = field(default_factory=list)
    error_samples: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    def record(self, ok: bool, latency_ms: float, limit_ms: float,
               timed: bool = True) -> None:
        """Count one op; ``timed`` ops add a latency sample."""
        self.attempted += 1
        if not ok:
            self.wrong += 1
            return
        self.correct += 1
        if latency_ms <= limit_ms:
            self.good += 1
        if timed:
            self.latencies_ms.append(latency_ms)

    def error(self, exc: BaseException) -> None:
        """Count one op that raised or replied with an error."""
        self.attempted += 1
        self.errors += 1
        if len(self.error_samples) < 5:
            self.error_samples.append(f"{type(exc).__name__}: {exc}")


@dataclass
class Result:
    """What one workload phase (untraced or traced) hands back.

    ``problems`` lists hygiene failures (a leaked shm segment, a
    server that did not exit cleanly); any entry fails the run's
    correctness check.  ``layers`` holds the per-layer metrics of a
    traced phase; ``record`` extra facts for the run record.
    """

    setup_s: float
    phase: Phase
    rss_mb: float
    layers: Dict[str, float] = field(default_factory=dict)
    record: Dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ascending values."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def ops_per_s(phase: Phase) -> float:
    """Correct ops per second of the phase.

    The median over the phase's passes (runs of the same mix of ops),
    which keeps a slow spell of the machine in a few passes from
    moving the figure; a phase too short for one pass reports correct
    ops over its wall time.
    """
    if phase.passes:
        return statistics.median(n / s for n, s in phase.passes)
    return phase.correct / phase.wall_s


def phase_metrics(phase: Phase, setup_s: float, rss_mb: float) -> Dict:
    """The seven end-to-end metrics of one phase."""
    ordered = sorted(phase.latencies_ms)
    if not ordered or phase.wall_s <= 0:
        raise RuntimeError(
            f"no correctly answered op to time ({phase.attempted} "
            f"attempted; errors: {phase.error_samples})"
        )
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(phase),
        "latency_p50_ms": statistics.median(ordered),
        "latency_p90_ms": nearest_rank(ordered, 0.9),
        "ok_share": phase.correct / phase.attempted,
        "goodput_share": phase.good / phase.attempted,
        "rss_peak_mb": rss_mb,
    }


def phase_record(phase: Phase) -> Dict:
    """Sample counts of one phase, for the run record."""
    n = len(phase.latencies_ms)
    return {
        "attempted": phase.attempted,
        "correct": phase.correct,
        "wrong": phase.wrong,
        "errors": phase.errors,
        "latency_samples": n,
        "beyond_p90": n - max(1, math.ceil(0.9 * n)) if n else 0,
        "wall_s": phase.wall_s,
        "passes": len(phase.passes),
        "pass_rates": [n / s for n, s in phase.passes],
        "error_samples": phase.error_samples,
    }


def closed_loop(
    items: Sequence, op: Callable, check: Callable, seconds: float,
    limit_ms: float, between: Callable[[], None] = lambda: None,
) -> Phase:
    """One caller making whole passes over ``items`` for ``seconds``.

    The phase ends at the first pass boundary after ``seconds``, so
    every run times the same mix of ops and per-op counts of a serial
    workload repeat exactly.  ``op(item)`` is the timed call;
    ``check(item, answer)`` compares the answer with the precomputed
    reference outside the timing.  An exception counts as a failed
    op and the loop goes on.  ``between()`` runs after each pass,
    outside every pass's timing.
    """
    phase = Phase()
    start = end = time.perf_counter()
    while end - start < seconds:
        pass_start, pass_correct = end, phase.correct
        for item in items:
            t0 = time.perf_counter()
            try:
                answer = op(item)
            except Exception as exc:  # counted, never fatal
                end = time.perf_counter()
                phase.error(exc)
                continue
            end = time.perf_counter()
            phase.record(check(item, answer), (end - t0) * 1000.0,
                         limit_ms)
        phase.passes.append((phase.correct - pass_correct, end - pass_start))
        if end - start < seconds:
            between()
            paused = time.perf_counter() - end
            start += paused
            end += paused
    phase.wall_s = end - start
    return phase


class Hung(TimeoutError):
    """An op that gave no answer within its deadline."""


def call_within(fn: Callable, arg, seconds: float):
    """``fn(arg)`` on a daemon thread; raise :class:`Hung` after ``seconds``.

    A hung call is abandoned, not interrupted: its thread stays
    blocked until the process exits.
    """
    box = []

    def target():
        try:
            box.append((True, fn(arg)))
        except BaseException as exc:  # handed to the caller below
            box.append((False, exc))

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    if not box:
        raise Hung(f"no answer within {seconds} s")
    ok, value = box[0]
    if ok:
        return value
    raise value


class SetupTimer:
    """Set-up timed before the measured phase and again between its passes.

    A set-up of a tenth of a second falls inside one of the machine's
    speed spells, so a median of samples taken back to back moves with
    whichever spell the run started in.  :meth:`before` times ``times``
    set-ups in a row and hands back what the last one made, for the
    phase to use; :meth:`between`, given to :func:`closed_loop`, times
    one more whenever a twelfth of the phase's ``seconds`` has passed
    since the last, so the median spans the whole run the way
    ``ops_per_s`` does.

    ``fn`` does one set-up and returns what it made; ``discard``
    releases what a sample made when nothing will use it.  ``aside``
    is a context-manager factory entered around the samples taken
    between passes (a traced phase keeps them out of its per-op
    counters that way).
    """

    def __init__(self, fn: Callable[[], object], seconds: float,
                 discard: Callable[[object], None] = lambda made: None,
                 aside: Callable = contextlib.nullcontext):
        self.fn = fn
        self.spacing_s = seconds / 12
        self.discard = discard
        self.aside = aside
        self.samples: List[float] = []
        self._last = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        made = self.fn()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return made

    def before(self, times: int):
        made = self._sample()
        for _ in range(times - 1):
            self.discard(made)
            made = self._sample()
        return made

    def between(self) -> None:
        if time.perf_counter() - self._last >= self.spacing_s:
            with self.aside():
                self.discard(self._sample())

    def median(self) -> float:
        return statistics.median(self.samples)


# -- spans around calls into the program's public functions ---------------


class Spans:
    """Timing wrappers patched over program functions, then restored.

    ``wrap(owner, "attr", "name")`` replaces ``owner.attr`` (a module
    function or a class attribute) with a wrapper that adds the
    call's wall time under ``name`` and counts calls that raise.
    Used only in traced phases; ``restore`` puts every original back.
    """

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.raised: Dict[str, int] = {}
        self._patched: List[tuple] = []
        self._paused = False

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self.calls.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)
        self.raised.setdefault(name, 0)

        def timed(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                self.calls[name] += 1
                self.seconds[name] += time.perf_counter() - t0

        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def add(self, name: str, seconds: float) -> None:
        """Record one span timed by the caller itself."""
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1000.0

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def to_dict(self) -> Dict:
        return {
            name: {
                "calls": self.calls[name],
                "seconds": self.seconds[name],
                "raised": self.raised.get(name, 0),
            }
            for name in sorted(self.calls)
        }


def program_span_ms(spans: Dict, leaf: str, exclude_child: str = "") -> float:
    """Milliseconds of every recorded program span path ending in ``leaf``.

    ``spans`` maps paths to objects with a ``seconds`` attribute (a
    :meth:`repro.obs.RunTrace.spans` result).  With ``exclude_child``
    the time of that direct child is subtracted, giving self time.
    """
    total = 0.0
    for path, stat in spans.items():
        parts = path.split("/")
        if parts[-1] == leaf:
            total += stat.seconds
        elif exclude_child and parts[-2:] == [leaf, exclude_child]:
            total -= stat.seconds
    return total * 1000.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cascade_layers(trace, ops: int) -> dict:
    """Lower-bound cascade and DP metrics from one phase's trace."""
    c = trace.counters()
    spans = trace.spans()
    cands = c.get("lb.candidates", 0)
    cascade_ms = program_span_ms(spans, "lb_cascade", exclude_child="dp")
    return {
        "index.improved_prune_share": ratio(
            c.get("lb.pruned_improved", 0), cands),
        "lowerbounds.candidates_per_op": cands / ops,
        "lowerbounds.prune_share": ratio(
            cands - c.get("lb.full_dtw", 0), cands),
        "lowerbounds.kim_prune_share": ratio(c.get("lb.pruned_kim", 0), cands),
        "lowerbounds.keogh_prune_share": ratio(
            c.get("lb.pruned_keogh", 0), cands),
        "lowerbounds.keogh_reversed_prune_share": ratio(
            c.get("lb.pruned_keogh_reversed", 0), cands),
        "lowerbounds.abandon_share": ratio(
            c.get("lb.abandoned_dtw", 0), cands),
        "lowerbounds.self_ms_per_op": cascade_ms / ops,
        **dp_layers(trace, ops),
    }


def dp_layers(trace, ops: int) -> dict:
    c = trace.counters()
    return {
        "core.dp_calls_per_op": c.get("dp.calls", 0) / ops,
        "core.dp_cells_per_op": c.get("dp.cells", 0) / ops,
        "core.dp_ms_per_op": program_span_ms(trace.spans(), "dp") / ops,
    }


# -- processes, memory, shared memory --------------------------------------


def _children(pid: int) -> List[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the ppid is the second field after the parenthesised name
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(_children(current))
    return tree


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MB (0.0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _reap(pid: int, seconds: float) -> bool:
    """Wait up to ``seconds`` for child ``pid`` to end; True once reaped."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # not our child, or reaped already
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A server's or a pool's helper processes (the multiprocessing
    resource tracker) can outlive their parent by a moment; as a child
    subreaper this process inherits them instead of the system's init,
    so :func:`stop_descendants` can wait for them.  Linux only; a
    no-op elsewhere.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # PR_SET_CHILD_SUBREAPER is Linux-only


def stop_descendants(grace_s: float = 5.0) -> List[str]:
    """End and reap every process this one started, directly or not.

    Multiprocessing children still alive (the workers of a pool whose
    ``terminate`` hung) are killed; this process's resource tracker is
    told to stop and waited for; other descendants (orphans adopted
    through :func:`adopt_orphans`) get ``grace_s`` to end on their own
    and are then killed.  Returns a description of every process that
    had to be killed.  Nothing may create a shared-memory segment or
    a pool afterwards, or a new resource tracker would start.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    killed = []
    for child in multiprocessing.active_children():
        killed.append(f"pid {child.pid} ({child.name})")
        child.kill()
        child.join(grace_s)
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # the tracker ends once the last write end of its pipe closes
        os.close(tracker._fd)
        tracker._fd = None
        if tracker._pid is not None and not _reap(tracker._pid, grace_s):
            killed.append(f"pid {tracker._pid} (resource tracker)")
            os.kill(tracker._pid, signal.SIGKILL)
            _reap(tracker._pid, grace_s)
        tracker._pid = None
    me = os.getpid()
    for _ in range(3):  # wait, kill what is left, wait for it to go
        deadline = time.monotonic() + grace_s
        while True:
            left = [p for p in process_tree(me) if p != me]
            for pid in left:
                _reap(pid, 0.0)
            left = [p for p in left if os.path.exists(f"/proc/{p}")]
            if not left or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        if not left:
            break
        for pid in left:
            killed.append(f"pid {pid}")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return killed


def run_then_exit(main: Callable[[], int]) -> None:
    """Run a script's ``main``; stop every process it left; exit.

    Orphans are adopted first (:func:`adopt_orphans`) so helpers that
    outlive their parent are waited for too.  The exit skips
    interpreter shutdown: finalizers of executors abandoned mid-job
    would otherwise touch shared memory again and start a resource
    tracker that outlives this process.
    """
    adopt_orphans()
    try:
        code = main()
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        code = 0 if exc.code is None else (
            exc.code if isinstance(exc.code, int) else 1)
    except BaseException:
        traceback.print_exc()
        code = 1
    stop_descendants()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def tree_hwm_mb(pid: int) -> float:
    """Sum of peak RSS over ``pid`` and its live descendants."""
    return sum(vm_hwm_mb(p) for p in process_tree(pid))


def reset_hwm() -> None:
    """Restart this process's peak-RSS watermark at its current RSS.

    Garbage from input generation is collected and the C heap trimmed
    first, so the watermark starts from what the process still holds
    rather than from how fragmented the heap happens to be.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the watermark starts a little higher
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the watermark then also covers input generation


SHM_DIR = "/dev/shm"


def shm_entries() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def unlink_segment(name: str) -> None:
    """Remove a shared-memory segment by name (gone already is fine)."""
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()
