"""Answer checks that do not trust the program's own code paths.

``RawGraph`` re-derives the layered link graph from the raw rows, read
back through the public ``Table.rows()``, and counts in-edges and
paths by its own breadth-first walk. ``check_answers`` holds a result
dict (``ResultSet.to_dict`` shape) against those figures:

* ``in_edge`` and ``path_count`` scores equal the counts exactly;
* every returned key is a reachable answer, and ``total`` is the
  number of reachable answers;
* every reliability score lies in [0, 1];
* a reliability score of an answer reached by exactly one path equals
  the product of that path's node and edge probabilities, up to Monte
  Carlo error: it passes within 5 binomial standard errors, and a
  larger gap fails only if the exact two-sided binomial tail of the
  observed hit count is below the normal 5-sigma tail, so tiny
  probabilities (a handful of expected hits) are judged by the exact
  distribution rather than the normal approximation.

At 1000 trials one answer's 5 standard errors are wide (for a typical
single-path probability of 1.5%, about ±130% of it), so this check
catches gross errors only. The answers cannot be pooled into a sharper
test: one seed drives the sampler of every spec in a run, and answers
of one query share their path prefixes, so their estimates are
correlated.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

#: two-sided tail of a normal deviation of 5 standard errors
FIVE_SIGMA_TAIL = math.erfc(5 / math.sqrt(2))
#: reliability answers per run held to the single-path rule (the first
#: results checked, until this many answers): each correct answer fails
#: it with probability at most FIVE_SIGMA_TAIL, so a correct run fails
#: by sampling noise with probability below 2e-4
MC_ANSWERS_PER_RUN = 200


class RawGraph:
    """The generated layers as plain dicts, read through ``Table.rows()``."""

    def __init__(self, workload) -> None:
        self.layers = len(workload.databases)
        self.node_w: Dict[str, float] = {}
        self.roots: List[str] = []
        #: src id -> [(dst id, link w)], over every ``links_rel*`` table
        self.links: Dict[str, List[Tuple[str, float]]] = {}
        for i, db in enumerate(workload.databases):
            for row in db.table("ents").rows():
                self.node_w[row["id"]] = row["w"]
                if row["root"]:
                    self.roots.append(row["id"])
            if i + 1 < self.layers:
                for row in db.table(f"links_rel{i}").rows():
                    self.links.setdefault(row["src"], []).append(
                        (row["dst"], row["w"])
                    )

    def walk(self, seeds: List[str]):
        """Per reachable node: in-edges, paths from the query node, and
        (for nodes with one path) that path's probability product.
        Returns ``(in_edges, paths, single_path_prob, answers)``."""
        in_edges: Dict[str, int] = {}
        paths: Dict[str, int] = {}
        single: Dict[str, float] = {}
        frontier = [s for s in seeds if s in self.node_w]
        for seed in frontier:
            # the query node has p = 1 and its seed edges q = 1
            in_edges[seed] = 1
            paths[seed] = 1
            single[seed] = self.node_w[seed]
        for _ in range(self.layers - 1):
            last_edge: Dict[str, Tuple[str, float]] = {}
            reached: Dict[str, int] = {}
            for src in frontier:
                for dst, w in self.links.get(src, ()):
                    if dst not in self.node_w:
                        continue  # dangling: never materialised
                    in_edges[dst] = in_edges.get(dst, 0) + 1
                    reached[dst] = reached.get(dst, 0) + paths[src]
                    last_edge[dst] = (src, w)
            for dst, count in reached.items():
                paths[dst] = count
                if count == 1:
                    src, w = last_edge[dst]
                    single[dst] = single[src] * w * self.node_w[dst]
            frontier = list(reached)
        answers = set(frontier)
        return in_edges, paths, single, answers


def binomial_consistent(score: float, p: float, trials: int) -> bool:
    """Whether a Monte Carlo estimate ``score`` of probability ``p``
    from ``trials`` trials is within 5 standard errors (see module)."""
    if abs(score - p) <= 5 * math.sqrt(p * (1 - p) / trials):
        return True
    hits = round(score * trials)
    mean = trials * p
    gap = abs(hits - mean)
    log_p, log_q = math.log(p), math.log1p(-p)
    tail = 0.0
    for k in range(trials + 1):
        if abs(k - mean) >= gap:
            tail += math.exp(
                math.lgamma(trials + 1) - math.lgamma(k + 1)
                - math.lgamma(trials - k + 1) + k * log_p
                + (trials - k) * log_q
            )
    return tail >= FIVE_SIGMA_TAIL


def check_answers(
    raw: RawGraph,
    seeds: List[str],
    result: Mapping[str, object],
    trials: int,
    single_path: bool = True,
) -> List[str]:
    """Problems found in one result dict (empty when it checks out);
    ``single_path=False`` skips the single-path reliability rule."""
    in_edges, paths, single, answers = raw.walk(seeds)
    problems: List[str] = []
    method = result["method"]
    if result["total"] != len(answers):
        problems.append(
            f"{method}: total {result['total']} != {len(answers)} reachable answers"
        )
    for entity in result["entities"]:
        key, score = entity["key"], entity["score"]
        if key not in answers:
            problems.append(f"{method}: {key} is not a reachable answer")
            continue
        if method == "in_edge" and score != in_edges[key]:
            problems.append(f"in_edge {key}: {score} != {in_edges[key]}")
        elif method == "path_count" and score != paths[key]:
            problems.append(f"path_count {key}: {score} != {paths[key]}")
        elif method == "reliability":
            if not 0.0 <= score <= 1.0:
                problems.append(f"reliability {key}: {score} outside [0, 1]")
            elif single_path and paths[key] == 1 and not binomial_consistent(
                score, single[key], trials
            ):
                problems.append(
                    f"reliability {key}: {score} vs single-path "
                    f"product {single[key]:.6f}"
                )
    return problems


class Verdicts:
    """The failed operations of one run, by operation id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.failed: Set[Hashable] = set()
        self.mc_answers = 0

    def judge(
        self,
        op: Hashable,
        label: object,
        raw: RawGraph,
        seeds: List[str],
        result: Mapping[str, object],
        trials: int,
        extra: Iterable[str] = (),
    ) -> None:
        """Check one result; ``extra`` adds problems found elsewhere
        (cross-path comparisons)."""
        single_path = self.mc_answers < MC_ANSWERS_PER_RUN
        if result["method"] == "reliability" and single_path:
            self.mc_answers += len(result["entities"])
        problems = check_answers(raw, seeds, result, trials, single_path) + list(extra)
        if problems:
            self.fail(op, label, problems)

    def fail(self, op: Hashable, label: object, problems: List[str]) -> None:
        print(f"{self.workload}: {label}: {problems[:3]}", file=sys.stderr)
        self.failed.add(op)


def same_ranking(served, reference) -> bool:
    """Bit-identical scores, rank intervals and order of two ResultSets."""
    if served.scores != reference.scores:
        return False
    return [(e.node, e.score, e.rank_lo, e.rank_hi) for e in served] == [
        (e.node, e.score, e.rank_lo, e.rank_hi) for e in reference
    ]
