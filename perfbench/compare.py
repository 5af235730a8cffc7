"""Run two sets of runs of the same tree and say, per workload and
end-to-end metric, whether their medians agree within the bounds that
``BENCHMARK.json`` fixes.

    python3 perfbench/compare.py [--runs 10] [--workloads serve_warm,...]

Run from the root of a checkout. Set one uses the measuring seeds
``1 .. runs``, set two the held-out seeds ``101 .. 100 + runs``. For
each metric it prints both medians, each set's spread (distance
between the first and third quartile over the median, as
``statistics.quantiles(n=4)`` gives them), and ``ok`` when the two
medians differ by no more than the bound, in either direction, and
every spread except ``setup_s``'s is within the bound. The share of
failed operations must be the same in both sets. Exits 1 when
anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: first seed of the measuring set and of the held-out set
FIRST_SEED = 1
HELD_OUT_SEED = 101


def run_set(config: dict, workload: str, seeds: List[int]) -> dict:
    values: Dict[str, List[float]] = {}
    attempted = failed = 0
    for seed in seeds:
        argv = list(config["command"]) + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0",
        ]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed}: {result['attempted']} ops, "
              f"{result['failed']} failed, {wall:.0f} s", file=sys.stderr, flush=True)
    return {"values": values, "attempted": attempted, "failed": failed}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    names = [w["name"] for w in config["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for workload in names:
        first = run_set(config, workload, list(range(FIRST_SEED, FIRST_SEED + args.runs)))
        second = run_set(config, workload, list(range(HELD_OUT_SEED, HELD_OUT_SEED + args.runs)))
        share_one = first["failed"] / first["attempted"]
        share_two = second["failed"] / second["attempted"]
        print(f"{workload}: failed share {share_one:.6f} vs {share_two:.6f}"
              f" {'ok' if share_one == share_two else 'DIFFERS'}")
        ok &= share_one == share_two
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            one, two = first["values"][name], second["values"][name]
            m1, m2 = statistics.median(one), statistics.median(two)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            s1, s2 = spread(one), spread(two)
            agree = abs(m2 - m1) / m1 <= bound and (
                name == "setup_s" or (s1 <= bound and s2 <= bound)
            )
            ok &= agree
            print(f"  {name:16s} {m1:12.4f} {m2:12.4f}  worse {worse:+.4f}  "
                  f"spread {s1:.4f}/{s2:.4f}  bound {bound}  {'ok' if agree else 'DISAGREES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
