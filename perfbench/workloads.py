"""The three workloads. Each is one client's closed loop over a public
surface of the program; ``README.md`` says why each was chosen.

A workload object is built from the run's seed and knows how to set
itself up (``make``), close what it made (``close``), run one round of
operations through the loop's timer (``one_round``), read the CPU and
peak memory of the program's processes, and check the recorded
outputs after the timed phase (``check``, returning the number of
failed operations).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from checks import RawGraph, Verdicts, same_ranking
from common import TMP_ROOT, Loop, proc_cpu_s, proc_hwm_mb, program_env

from repro.api import EngineConfig, QuerySpec, open_session
from repro.core.reliability import DEFAULT_TRIALS
from repro.workloads.mediated import mediated_layers

METHODS = ("in_edge", "path_count", "propagation", "diffusion", "reliability")
LAYERS = 5
SERVE_WIDTH = 2000
EXPLORE_WIDTH = 20000
LIMIT = 10


def spec_dict(root: Optional[str], method: str, seed: int) -> Dict[str, object]:
    """One spec in its wire form: a root id (``E0.id == root``) or, for
    ``None``, the whole-answer-set ``root == true`` query."""
    spec: Dict[str, object] = {
        "entity_set": "E0",
        "attribute": "id" if root is not None else "root",
        "value": root if root is not None else True,
        "outputs": [f"E{LAYERS - 1}"],
        "method": method,
    }
    if method == "reliability":
        spec["seed"] = seed
    return spec


def warm_pool(seed: int) -> List[Dict[str, object]]:
    """Nine roots, each under every method (limit 10), plus the
    ``root == true`` spec under each method with no limit."""
    picker = random.Random(seed)
    pool = [
        dict(spec_dict(f"E0:{root}", method, seed), limit=LIMIT)
        for root in picker.sample(range(1, SERVE_WIDTH), 9)
        for method in METHODS
    ]
    pool += [dict(spec_dict(None, method, seed), limit=None) for method in METHODS]
    picker.shuffle(pool)
    return pool


def seeds_of(spec: Dict[str, object], raw: RawGraph) -> List[str]:
    return raw.roots if spec["attribute"] == "root" else [spec["value"]]


def as_spec(wire: Dict[str, object]) -> QuerySpec:
    return QuerySpec.from_dict({k: v for k, v in wire.items() if k != "limit"})


class Workload:
    name = ""
    #: operations per round; every run attempts whole rounds
    round_size = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.writes = 0

    def make(self):
        raise NotImplementedError

    def close(self, ctx) -> None:
        raise NotImplementedError

    def cpu_now(self, ctx) -> float:
        return time.process_time()

    def rss_mb(self, ctx) -> float:
        return proc_hwm_mb(os.getpid())

    def one_round(self, ctx, loop: Loop, k: int) -> None:
        raise NotImplementedError

    def check(self, ctx, loop: Loop) -> int:
        raise NotImplementedError

    def engine_stats(self, ctx) -> Dict[str, object]:
        return ctx["session"].stats_snapshot().as_dict()


# ------------------------------------------------------------------ #
# serve_warm: the deployed HTTP front door, every request a cache hit
# ------------------------------------------------------------------ #

class ServeWarm(Workload):
    """``python -m repro.serving`` as a subprocess, one keep-alive
    connection. The connection is reused for every request on purpose:
    the front door's two-``send`` reply waits for the client's delayed
    ACK there, and that stall is what users of the front door see."""

    name = "serve_warm"

    def __init__(self, seed: int, launcher: Optional[List[str]] = None) -> None:
        super().__init__(seed)
        self.pool = warm_pool(seed)
        self.round_size = len(self.pool)
        #: argv prefix that starts the server (the traced run swaps in
        #: its launcher)
        self.launcher = launcher or [sys.executable, "-m", "repro.serving"]
        self.bodies: Dict[int, bytes] = {}
        #: pool indexes that got a non-200 reply or differing bytes
        self.mismatched: set = set()
        self.bytes_received = 0
        self.op_header = False

    def make(self):
        stderr = tempfile.TemporaryFile(dir=TMP_ROOT)
        proc = subprocess.Popen(
            self.launcher + [
                "--layers", str(LAYERS), "--width", str(SERVE_WIDTH),
                "--storage", "vectorized", "--rng", str(self.seed),
            ],
            stdout=subprocess.PIPE, stderr=stderr, env=program_env(),
        )
        line = proc.stdout.readline()
        if not line:
            proc.wait(timeout=30)
            stderr.seek(0)
            raise RuntimeError("server did not start: " + stderr.read().decode()[-2000:])
        info = json.loads(line)
        conn = http.client.HTTPConnection(info["host"], info["port"], timeout=60)
        ctx = {"proc": proc, "conn": conn, "stderr": stderr, "pid": info["pid"]}
        for spec in self.pool:
            status, _ = self._post(ctx, "/execute", spec)
            if status != 200:
                raise RuntimeError(f"warm-up request failed with {status}: {spec}")
        return ctx

    def close(self, ctx) -> None:
        ctx["conn"].close()
        proc = ctx["proc"]
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        ctx["stderr"].close()

    def _post(self, ctx, path: str, payload, headers=None):
        conn = ctx["conn"]
        body = json.dumps(payload).encode()
        conn.request("POST", path, body=body, headers=dict(
            {"Content-Type": "application/json"}, **(headers or {})
        ))
        response = conn.getresponse()
        return response.status, response.read()

    def get(self, ctx, path: str) -> bytes:
        ctx["conn"].request("GET", path)
        response = ctx["conn"].getresponse()
        return response.read()

    def cpu_now(self, ctx) -> float:
        return proc_cpu_s(ctx["pid"])

    def engine_stats(self, ctx) -> Dict[str, object]:
        return json.loads(self.get(ctx, "/stats"))["engine"]

    def rss_mb(self, ctx) -> float:
        return proc_hwm_mb(ctx["pid"])

    def one_round(self, ctx, loop: Loop, k: int) -> None:
        for i, spec in enumerate(self.pool):
            headers = None
            if self.op_header:
                headers = {"X-Perfbench-Op": str(len(loop.latencies))}
            status, body = loop.time_op(lambda: self._post(ctx, "/execute", spec, headers))
            self.bytes_received += len(body)
            # every answer to one spec must be the same bytes
            if status != 200 or self.bodies.setdefault(i, body) != body:
                self.mismatched.add(i)

    def check(self, ctx, loop: Loop) -> int:
        rounds = len(loop.latencies) // self.round_size
        workload = mediated_layers(
            layers=LAYERS, width=SERVE_WIDTH, storage="vectorized", rng=self.seed
        )
        verdicts = Verdicts(self.name)
        try:
            raw = RawGraph(workload)
            with workload.open_session() as session:
                for i, spec in enumerate(self.pool):
                    if i in self.mismatched:
                        verdicts.fail(i, spec, ["inconsistent replies"])
                        continue
                    served = json.loads(self.bodies[i])
                    reference = session.execute(as_spec(spec)).to_dict(spec["limit"])
                    same = served == json.loads(json.dumps(reference, default=str))
                    verdicts.judge(
                        i, spec, raw, seeds_of(spec, raw), served, DEFAULT_TRIALS,
                        [] if same else ["differs from the in-process session"],
                    )
        finally:
            workload.close()
        # every operation of a spec returned the same bytes
        return len(verdicts.failed) * rounds


# ------------------------------------------------------------------ #
# explore_cold: a new root every request, every cache missed
# ------------------------------------------------------------------ #

class ExploreCold(Workload):
    name = "explore_cold"
    round_size = len(METHODS)
    warm_roots = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        order = list(range(1, EXPLORE_WIDTH))
        random.Random(seed).shuffle(order)
        self.roots = [f"E0:{i}" for i in order]
        #: (root, result JSON) of every timed operation
        self.outputs: List[tuple] = []

    def make(self):
        workload = mediated_layers(
            layers=LAYERS, width=EXPLORE_WIDTH, storage="vectorized", rng=self.seed
        )
        session = workload.open_session()
        for j in range(self.warm_roots):
            self._op(session, self.roots[j], METHODS[j % len(METHODS)])
        return {"workload": workload, "session": session}

    def close(self, ctx) -> None:
        ctx["session"].close()
        ctx["workload"].close()

    def _op(self, session, root: str, method: str) -> str:
        spec = QuerySpec.from_dict(spec_dict(root, method, self.seed))
        return json.dumps(session.execute(spec).to_dict(LIMIT))

    def one_round(self, ctx, loop: Loop, k: int) -> None:
        session = ctx["session"]
        usable = len(self.roots) - self.warm_roots
        for j, method in enumerate(METHODS):
            root = self.roots[self.warm_roots + (k * len(METHODS) + j) % usable]
            text = loop.time_op(lambda: self._op(session, root, method))
            self.outputs.append((root, text))

    def check(self, ctx, loop: Loop) -> int:
        raw = RawGraph(ctx["workload"])
        verdicts = Verdicts(self.name)
        for op, (root, text) in enumerate(self.outputs):
            verdicts.judge(op, root, raw, [root], json.loads(text), DEFAULT_TRIALS)
        return len(verdicts.failed)


# ------------------------------------------------------------------ #
# refresh_mixed: source refreshes arriving between warm reads
# ------------------------------------------------------------------ #

class RefreshMixed(Workload):
    """One write then nine reads per round. Writes alternate a weight
    refresh of ten answer records and ten appended links, drawn from a
    stream seeded by the run seed. Every ``SAMPLE_EVERY``-th round the
    loop pauses and that round's reads are checked against a cold
    rebuild and the raw rows of the storage they were served from.

    Appended links stay, so the graphs grow with every round. To keep
    the work of a round independent of how many rounds fit into the
    time, the data is rebuilt from the seed every ``PERIOD`` rounds
    with the clock stopped, and the write stream starts over: round
    ``k`` does exactly what round ``k % PERIOD`` did, whatever the
    program's speed."""

    name = "refresh_mixed"
    round_size = 10
    SAMPLE_EVERY = 25
    PERIOD = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # 40 roots, one method each: every read is a different cached
        # graph, and the pool's cost does not hang on a few roots' sizes
        roots = random.Random(seed).sample(range(1, SERVE_WIDTH), 40)
        self.pool = [
            dict(spec_dict(f"E0:{root}", METHODS[i % len(METHODS)], seed), limit=LIMIT)
            for i, root in enumerate(roots)
        ]
        self.specs = [as_spec(spec) for spec in self.pool]
        self.verdicts = Verdicts(self.name)
        self.sampled = 0
        #: added to the live session's engine counters, so that they
        #: run on across rebuilds without the rebuilds' warm-ups
        self.stats_offset: Dict[str, int] = {}

    def make(self):
        os.makedirs(TMP_ROOT, exist_ok=True)
        directory = tempfile.mkdtemp(dir=TMP_ROOT, prefix="refresh-")
        workload = mediated_layers(
            layers=LAYERS, width=SERVE_WIDTH, storage="sqlite",
            storage_path=directory, rng=self.seed,
        )
        session = workload.open_session()
        for spec in self.specs:
            json.dumps(session.execute(spec).to_dict(LIMIT))
        return {
            "workload": workload, "session": session, "dir": directory,
            "writes": random.Random(self.seed * 7919 + 13),
        }

    def close(self, ctx) -> None:
        ctx["session"].close()
        ctx["workload"].close()
        shutil.rmtree(ctx["dir"], ignore_errors=True)

    def _write(self, ctx, k: int) -> None:
        workload, stream = ctx["workload"], ctx["writes"]
        if k % 2 == 0:
            workload.refresh_entity_weights(count=10, rng=stream)
        else:
            workload.append_links(layer=stream.randrange(LAYERS - 1), count=10, rng=stream)

    def engine_stats(self, ctx) -> Dict[str, object]:
        now = super().engine_stats(ctx)
        return {
            name: value + self.stats_offset.get(name, 0) if isinstance(value, int) else value
            for name, value in now.items()
        }

    def _rebuild(self, ctx) -> None:
        """Replace the data, the session and the write stream by fresh
        ones made from the seed (the clock is stopped)."""
        retired = self.engine_stats(ctx)
        self.close(ctx)
        gc.collect()
        ctx.update(self.make())
        fresh = super().engine_stats(ctx)
        self.stats_offset = {
            name: retired[name] - value
            for name, value in fresh.items() if isinstance(value, int)
        }

    def one_round(self, ctx, loop: Loop, k: int) -> None:
        if k and k % self.PERIOD == 0:
            loop.pause()
            self._rebuild(ctx)
            loop.resume()
        k %= self.PERIOD
        session = ctx["session"]
        loop.time_op(lambda: self._write(ctx, k))
        self.writes += 1
        served = []
        for j in range(self.round_size - 1):
            index = (k * (self.round_size - 1) + j) % len(self.specs)
            spec = self.specs[index]

            def read():
                result = session.execute(spec)
                json.dumps(result.to_dict(LIMIT))
                return result

            served.append((index, loop.time_op(read)))
        if k % self.SAMPLE_EVERY == self.SAMPLE_EVERY - 1:
            loop.pause()
            self._sample(ctx, served)
            loop.resume()

    def _sample(self, ctx, served) -> None:
        workload = ctx["workload"]
        raw = RawGraph(workload)
        cold = open_session(
            mediator=workload.mediator,
            config=EngineConfig(
                cache_graphs=False, cache_scores=False, incremental=False
            ),
        )
        with cold:
            for index, result in served:
                spec = self.specs[index]
                same = same_ranking(result, cold.execute(spec))
                self.verdicts.judge(
                    self.sampled, self.pool[index], raw, [spec.value],
                    result.to_dict(LIMIT), DEFAULT_TRIALS,
                    [] if same else ["differs from a cold rebuild"],
                )
                self.sampled += 1

    def check(self, ctx, loop: Loop) -> int:
        return len(self.verdicts.failed)


WORKLOADS = {
    cls.name: cls for cls in (ServeWarm, ExploreCold, RefreshMixed)
}
