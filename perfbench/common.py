"""Shared plumbing for the benchmark: paths, process accounting, the
closed-loop timer and the metric summaries.

Nothing here imports ``repro``; ``run.py`` puts the checkout's ``src``
on ``sys.path`` first, so every workload module can import it.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout (SQLite layers, server logs, span
#: dumps), ignored by git and removed when a run ends
TMP_ROOT = os.path.join(ROOT, ".pbtmp")

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: shortest window (seconds) of the timed phase; see ``Loop.run``
WINDOW = 1.0


def program_env() -> Dict[str, str]:
    """Environment for a program subprocess: the checkout's ``src``
    first on ``PYTHONPATH`` and temporary files inside the checkout."""
    env = dict(os.environ)
    parts = [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["TMPDIR"] = TMP_ROOT
    return env


# ------------------------------------------------------------------ #
# process accounting (/proc, Linux)
# ------------------------------------------------------------------ #

def proc_cpu_s(pid: int) -> float:
    """CPU seconds used so far by the live threads of ``pid``.

    Summed from each thread's ``schedstat`` run time (nanoseconds)
    rather than ``utime + stime`` from ``/proc/<pid>/stat``: those
    count whole clock ticks (10 ms), which over a run of a few hundred
    requests moved ``cpu_ms_per_op`` by several percent. The threads
    that serve the benchmark (the server's accept loop and connection
    handler, a worker's RPC loop) live for the whole timed phase, so a
    difference of two readings covers their work."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            pass  # the thread ended between listing and reading
    return total / 1e9


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------------ #
# the closed loop
# ------------------------------------------------------------------ #

class Loop:
    """One client's closed loop: whole rounds of operations until the
    time is up, each operation timed as the client sees it.

    ``pause()`` / ``resume()`` bracket work that must not be measured
    (answer checks made between rounds); their wall and CPU time are
    taken out of the throughput and CPU figures.
    """

    def __init__(self, cpu_now: Callable[[], float], recorder=None) -> None:
        self.cpu_now = cpu_now
        #: the traced run's span recorder; each operation becomes a
        #: ``client.op`` span whose op id is its index in the loop
        self.recorder = recorder
        self.latencies: List[float] = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self._pause_wall = 0.0
        self._pause_cpu = 0.0
        self.wall = 0.0
        self.cpu = 0.0
        #: (operations, unpaused seconds, CPU seconds) per window
        self.windows: List[tuple] = []

    def time_op(self, op: Callable[[], object]) -> object:
        recorder = self.recorder
        start = time.perf_counter()
        if recorder is None:
            result = op()
        else:
            recorder.op = len(self.latencies)
            result = recorder.record("client", "client.op", op, (), {})
        self.latencies.append(time.perf_counter() - start)
        return result

    def pause(self) -> None:
        if self.recorder is not None:
            self.recorder.op = -2  # spans of paused work are not an operation's
        self._pause_wall = time.perf_counter()
        self._pause_cpu = self.cpu_now()

    def resume(self) -> None:
        self.paused_cpu += self.cpu_now() - self._pause_cpu
        self.paused_wall += time.perf_counter() - self._pause_wall

    def run(self, seconds: float, one_round: Callable[[int], None]) -> int:
        """Run ``one_round(k)`` for k = 0, 1, ... until ``seconds`` of
        unpaused wall time have passed; returns the rounds completed.

        The phase is cut into windows of at least ``WINDOW`` seconds at
        round boundaries; throughput and CPU per operation are reported
        as medians over the windows, so a few seconds of a slower host
        do not move them."""
        gc.collect()
        cpu0 = self.cpu_now()
        wall0 = time.perf_counter()
        window = (0, 0.0, cpu0)  # (ops, unpaused wall, cpu) at its start
        rounds = 0
        while self._elapsed(wall0) < seconds:
            one_round(rounds)
            rounds += 1
            elapsed = self._elapsed(wall0)
            if elapsed - window[1] >= WINDOW:
                cpu = self.cpu_now() - self.paused_cpu
                self.windows.append(
                    (len(self.latencies) - window[0], elapsed - window[1], cpu - window[2])
                )
                window = (len(self.latencies), elapsed, cpu)
        self.wall = self._elapsed(wall0)
        self.cpu = self.cpu_now() - cpu0 - self.paused_cpu
        if not self.windows:
            self.windows.append((len(self.latencies), self.wall, self.cpu))
        return rounds

    def _elapsed(self, wall0: float) -> float:
        return time.perf_counter() - wall0 - self.paused_wall


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(
    setups: Sequence[float],
    loop: Loop,
    rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metric values of one untraced run."""
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops": statistics.median(n / wall for n, wall, _ in loop.windows),
        "latency_p50_ms": percentile(loop.latencies, 50) * 1e3,
        "latency_p99_ms": percentile(loop.latencies, 99) * 1e3,
        "cpu_ms_per_op": statistics.median(cpu / n for n, _, cpu in loop.windows) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def timed_setups(make: Callable[[], object], close: Callable[[object], None]) -> tuple:
    """Set up ``SETUPS`` times; keep the last instance, close the rest.
    Returns ``(instance, [seconds per set-up])``."""
    seconds: List[float] = []
    instance: Optional[object] = None
    for attempt in range(SETUPS):
        if instance is not None:
            close(instance)
            instance = None
            gc.collect()
        start = time.perf_counter()
        instance = make()
        seconds.append(time.perf_counter() - start)
    return instance, seconds
