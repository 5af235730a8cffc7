"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. Progress and check findings go to
standard error. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC, TMP_ROOT, Loop, end_to_end, timed_setups  # noqa: E402

def units() -> dict:
    """Unit of every metric, as ``BENCHMARK.json`` gives it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    return {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}


def run_untraced(workload_cls, seed: int, seconds: float):
    workload = workload_cls(seed)
    ctx, setups = timed_setups(workload.make, workload.close)
    try:
        loop = Loop(lambda: workload.cpu_now(ctx))
        loop.run(seconds, lambda k: workload.one_round(ctx, loop, k))
        rss = workload.rss_mb(ctx)
        failed = workload.check(ctx, loop)
    finally:
        workload.close(ctx)
    print(
        f"{workload.name}: {len(loop.latencies)} ops in {loop.wall:.2f}s, "
        f"set-ups {[round(s, 3) for s in setups]}",
        file=sys.stderr,
    )
    return len(loop.latencies), failed, end_to_end(setups, loop, rss)


def _merge_server_spans(recorder, path: str) -> None:
    """Fold the server's spans into the client's: ids are offset, and a
    server span without a parent hangs under the client operation span
    of the request that caused it (matched by op id)."""
    with open(path) as handle:
        dumped = json.load(handle)
    client_op = {s[0]: s[1] for s in recorder.spans if s[4] == "client.op"}
    offset = 10 ** 9
    for op, span_id, parent, layer, name, start, end in dumped["spans"]:
        if parent is None:
            parent = client_op.get(op)
        else:
            parent += offset
        recorder.spans.append((op, span_id + offset, parent, layer, name, start, end))
    for name, value in dumped["counts"].items():
        recorder.counts[name] += value


def run_traced(workload_cls, seed: int, seconds: float):
    """Half the time untraced (the overhead baseline), then a fresh
    set-up and the other half with every layer boundary wrapped."""
    from spans import Recorder, install, layer_report
    from workloads import ServeWarm

    half = seconds / 2.0
    baseline = workload_cls(seed)
    ctx = baseline.make()
    try:
        base_loop = Loop(lambda: baseline.cpu_now(ctx))
        base_loop.run(half, lambda k: baseline.one_round(ctx, base_loop, k))
    finally:
        baseline.close(ctx)

    recorder = Recorder()
    install(recorder)
    spans_path = os.path.join(tempfile.gettempdir(), f"spans-{os.getpid()}.json")
    http = workload_cls is ServeWarm
    if http:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py")
        workload = ServeWarm(seed, launcher=[sys.executable, launcher, "--spans", spans_path])
        workload.op_header = True
    else:
        workload = workload_cls(seed)
    health_ms = 0.0
    ctx = workload.make()
    try:
        before = workload.engine_stats(ctx)
        loop = Loop(lambda: workload.cpu_now(ctx), recorder=recorder)
        loop.run(half, lambda k: workload.one_round(ctx, loop, k))
        recorder.op = -2
        after = workload.engine_stats(ctx)
        if http:
            rtts = []
            for _ in range(20):
                start = time.perf_counter()
                workload.get(ctx, "/health")
                rtts.append(time.perf_counter() - start)
            health_ms = statistics.median(rtts) * 1e3
        recorder.uninstall()
        failed = workload.check(ctx, loop)
    finally:
        recorder.uninstall()
        workload.close(ctx)
    if http:
        _merge_server_spans(recorder, spans_path)
        os.unlink(spans_path)

    ops = len(loop.latencies)
    load_s = sum(
        s[6] - s[5] for s in recorder.spans
        if s[0] == -1 and s[4] == "storage.write.insert_many"
    )
    report = layer_report(recorder.spans, recorder.counts, ops, workload.writes, load_s)
    delta = {k: after[k] - before[k] for k in before if isinstance(before[k], int)}
    graph_lookups = delta["graph_hits"] + delta["graph_misses"] + delta["graph_repairs"]
    compiles = delta["compile_hits"] + delta["compile_misses"]
    scores = delta["score_hits"] + delta["score_misses"]
    report["engine.graph_hit_ratio"] = delta["graph_hits"] / graph_lookups if graph_lookups else 0.0
    report["engine.compile_hit_ratio"] = delta["compile_hits"] / compiles if compiles else 0.0
    report["engine.score_hit_ratio"] = delta["score_hits"] / scores if scores else 0.0
    report["engine.repairs_per_op"] = delta["graph_repairs"] / ops
    mean_ms = sum(loop.latencies) / ops * 1e3
    report["serving.health_rtt_ms"] = health_ms
    report["serving.response_bytes_per_op"] = workload.bytes_received / ops if http else 0.0
    report["serving.http_self_ms_per_op"] = (
        mean_ms - report["serving.handler_ms_per_op"] if http else 0.0
    )
    base_ms = sum(base_loop.latencies) / len(base_loop.latencies) * 1e3
    report["trace.overhead_pct"] = (mean_ms / base_ms - 1.0) * 100.0
    print(
        f"{workload.name} traced: {ops} ops, mean {mean_ms:.3f} ms "
        f"(untraced {base_ms:.3f} ms over {len(base_loop.latencies)} ops)",
        file=sys.stderr,
    )
    return ops, failed, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    unit = units()
    os.makedirs(TMP_ROOT, exist_ok=True)
    # temporary files of the benchmark and the program stay inside the
    # checkout
    tempfile.tempdir = TMP_ROOT
    try:
        runner = run_traced if args.trace else run_untraced
        attempted, failed, values = runner(WORKLOADS[args.workload], args.seed, args.seconds)
    finally:
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit[name]} for name in sorted(values)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
